"""Spans, call-timing wrappers and recovery-action counters for the traced run.

Spans are recorded from the benchmark's own code only: around the calls it
makes into tenfact, and around the tenfact functions that other tenfact
modules import by name, which the traced run rebinds to timing wrappers for
its duration.  Spans stay in memory until the run ends; a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import logging
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (module, attribute, layer).  tenfact modules look these names up in their
# own globals at call time, so rebinding the module attribute reroutes every
# call that module makes.  A name a later version no longer has is skipped.
REBIND = (
    ("tenfact.decompose", "orth_step", "linalg.orth_step"),
    ("tenfact.decompose", "normalize_columns", "tensors.normalize_columns"),
    ("tenfact.completion", "normalize_columns", "tensors.normalize_columns"),
    ("tenfact.overcomplete", "normalize_columns", "tensors.normalize_columns"),
    ("tenfact.decompose", "khatri_rao", "tensors.khatri_rao"),
    ("tenfact.linalg", "khatri_rao", "tensors.khatri_rao"),
    ("tenfact.decompose", "matricize", "tensors.matricize"),
    ("tenfact.decompose", "ls_solve_kr", "linalg.ls_solve_kr"),
    ("tenfact.overcomplete", "als_sweep", "overcomplete.als_sweep"),
    ("tenfact.overcomplete", "cp_reconstruct", "tensors.cp_reconstruct"),
    ("tenfact.completion", "cp_reconstruct", "tensors.cp_reconstruct"),
    ("tenfact.tensors", "cp_reconstruct", "tensors.cp_reconstruct"),
)

# Per-block runners of the deflation loop, held in a name -> function table.
# Wrapping the table entries gives the inner iteration counts.
INNER_RUNNERS = ("tenfact.overcomplete", "_INNER_RUNNERS")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    pass_index: int
    site: str = ""
    iters: int = 0


class Tracer:
    """Stack of open spans plus the list of every span recorded so far."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.pass_index = -1

    def begin(self, name, site=""):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_index, site))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def wrap(self, fn, name, site=""):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = self.begin(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            iters = getattr(result, "iterations_used", None)
            if iters is not None:
                self.spans[index].iters = iters
            return result

        return timed

    def totals(self, passes=None):
        """Per span name: calls, seconds, self seconds and iterations.

        ``passes`` restricts the sum to spans recorded during those passes.
        """
        child_s = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "iters": 0})
        for index, span in enumerate(self.spans):
            if passes is not None and span.pass_index not in passes:
                continue
            entry = out[span.name]
            duration = span.end - span.start
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_s[index]
            entry["iters"] += span.iters
        return out


class Rebinding:
    """Installs the timing wrappers and puts every original back on exit."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.saved = []
        self.skipped = []
        for module_name, attr, layer in REBIND:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.skipped.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self.tracer.wrap(original, layer, module_name))
        module_name, attr = INNER_RUNNERS
        table = getattr(importlib.import_module(module_name), attr, None)
        if isinstance(table, dict):
            self.saved.append((table, None, dict(table)))
            for name, runner in list(table.items()):
                table[name] = self.tracer.wrap(runner, f"overcomplete.inner.{name}")
        else:
            self.skipped.append(f"{module_name}.{attr}")
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self.saved):
            if attr is None:
                target.clear()
                target.update(original)
            else:
                setattr(target, attr, original)
        for target, attr, original in self.saved:
            restored = dict(target) == original if attr is None else getattr(target, attr) is original
            if not restored:
                raise RuntimeError(f"failed to restore {target!r}.{attr}")
        return False


# Warning templates of tenfact's recovery actions, and how much each record
# counts: one, or the size of a logged argument.
_RECOVERY_PATTERNS = (
    ("qr_rerandomize", "QR degeneracy in", lambda args: 1),
    ("completion_unobserved_rows", "have no observations", lambda args: len(args[1])),
    ("tpm_restarts_dropped", "restarts degenerated and were dropped", lambda args: int(args[0])),
    ("simdiag_redraws", "simdiag attempt", lambda args: 1),
)
RECOVERY_COUNTERS = tuple(name for name, _, _ in _RECOVERY_PATTERNS)


class RecoveryCounter(logging.Handler):
    """Counts tenfact's recovery actions from its warnings on the ``tenfact`` logger."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts = Counter()

    def emit(self, record):
        for name, needle, amount in _RECOVERY_PATTERNS:
            if needle in str(record.msg):
                self.counts[name] += amount(record.args or ())

    @contextlib.contextmanager
    def attached(self):
        logger = logging.getLogger("tenfact")
        logger.addHandler(self)
        try:
            yield self
        finally:
            logger.removeHandler(self)
