"""The three workloads: seeded inputs, one pass of work, and the output checks.

A pass carries one input (a dense and an overcomplete instance, the corpus,
or one completion trial over the whole sampling grid) through every step of
its workload.  Passes
are numbered from 0 and pass i always uses the same input for a given seed,
so the first ``quality_passes`` passes, which every run completes, give
quality figures and iteration counts that repeat exactly.
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter, defaultdict

import numpy as np

import tenfact as tf
from tenfact import embed, fileio, textgen
from tenfact.bench import derived_seed
from tenfact.errors import TenfactError

RECOVERY_THRESHOLD = 0.9
SOLVED_ERROR = 1e-2
ANALOGY_FLOOR = 0.9
UNIT_TOL = 1e-9
EMBED_UNIT_TOL = 1e-12


class Run:
    """Everything one run records: fits, quality values, failures and spans."""

    def __init__(self, quality_passes, clock, tracer=None):
        self.quality_passes = quality_passes
        self.clock = clock
        self.tracer = tracer
        self.pass_index = 0
        self.pass_marks = []
        self.pass_s = []
        self.pass_wall_s = []
        self.fits = []
        self.quality = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.recovery = Counter()

    def begin_pass(self, index):
        self.pass_index = index
        if self.tracer is not None:
            self.tracer.pass_index = index

    @property
    def in_quality_set(self):
        return self.pass_index < self.quality_passes

    def step(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def mark(self, kind):
        """A clock mark after a long step of a pass whose work was of ``kind`` (see clock.py)."""
        self.clock.mark(kind)

    def fit(self, algo, call, dims, rank, iters_of, tag=None):
        """Time one fit and check its model; returns the result, or None when it failed."""
        self.attempted += 1
        first_span = len(self.tracer.spans) if self.tracer is not None else 0
        start = self.clock.mark()
        try:
            with self.step(f"fit.{algo}"):
                result = call()
        except TenfactError as exc:
            return self.reject(algo, f"raised {type(exc).__name__}: {exc}")
        marks = (start, self.clock.mark())
        spans = self.tracer.spans[first_span + 1 :] if self.tracer is not None else []
        self.fits.append(
            {"pass": self.pass_index, "algo": algo, "marks": marks, "iters": iters_of(result, spans), "tag": tag}
        )
        model = getattr(result, "model", result)
        problem = model_problem(model, dims, rank)
        if problem:
            return self.reject(algo, problem)
        return result

    def resolve(self):
        """Read every pass and fit time off the clock, once the run is over.

        ``s`` and ``pass_s`` are reference seconds (see clock.py); ``wall_s``
        and ``pass_wall_s`` are wall seconds.
        """
        for f in self.fits:
            f["s"] = self.clock.reference(*f["marks"])
            f["wall_s"] = self.clock.wall(*f["marks"])
        self.pass_s = [self.clock.reference(*marks) for marks in self.pass_marks]
        self.pass_wall_s = [self.clock.wall(*marks) for marks in self.pass_marks]

    def reject(self, algo, message):
        self.failed += 1
        self.problems.append(f"pass {self.pass_index} {algo}: {message}")
        return None

    def record(self, name, value):
        if self.in_quality_set:
            self.quality[name].append(float(value))


def model_problem(model, dims, rank):
    """Why a fitted model is malformed, or '' when it is well formed."""
    if tuple(model.dims) != tuple(dims) or model.k != rank:
        return f"model has dims {model.dims} and rank {model.k}, want {tuple(dims)} and {rank}"
    if not np.isfinite(model.weights).all():
        return "non-finite weights"
    for name, factor in zip("ABC", model.factors):
        if not np.isfinite(factor).all():
            return f"non-finite entries in factor {name}"
        drift = float(np.abs(np.linalg.norm(factor, axis=0) - 1.0).max())
        if drift > UNIT_TOL:
            return f"factor {name} column norms off unit by {drift:.3g}"
    return ""


def result_iters(result, spans):
    return result.iterations_used


def unit_rows_problem(embeddings):
    norms = np.linalg.norm(embeddings.vectors[embeddings.valid], axis=1)
    drift = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
    return f"embedding row norms off unit by {drift:.3g}" if drift > EMBED_UNIT_TOL else ""


class DenseSkewed:
    """Dense instances with skewed weights, fit by Orth-ALS, Hybrid-ALS and ALS,
    then an overcomplete instance through block deflation."""

    algos = (("orth-als", tf.orth_als_run), ("hybrid", tf.hybrid_run), ("als", tf.als_run))

    def __init__(self, smoke):
        self.d, self.k = (12, 4) if smoke else (100, 30)
        self.pool = 4 if smoke else 16
        self.quality_passes = 2 if smoke else 4
        self.setup_repeats = 5
        self.deflation = Deflation(smoke, self.pool)

    def setup(self, seed, run):
        instances = []
        for trial in range(self.pool):
            spec = tf.SynthSpec(
                d=self.d, k=self.k, weight_scheme="geometric", weight_ratio=100.0,
                seed=derived_seed(seed, trial),
            )
            with run.step("bench.gen_random_cp"):
                instances.append(tf.gen_random_cp(spec))
        return {"seed": seed, "instances": instances, "deflation": self.deflation.setup(seed, run)}

    def run_pass(self, inputs, index, run):
        self.fit_skewed(inputs, index, run)
        self.deflation.run_pass(inputs["deflation"], index, run)

    def fit_skewed(self, inputs, index, run):
        trial = index % self.pool
        truth, tensor = inputs["instances"][trial]
        for algo_index, (algo, runner) in enumerate(self.algos):
            cfg = tf.DecompConfig(
                rank=self.k, max_iters=100, tol=1e-6, seed=derived_seed(inputs["seed"], trial, algo_index)
            )
            result = run.fit(algo, lambda: runner(tensor, cfg), tensor.dims, self.k, result_iters)
            if result is None:
                continue
            with run.step("score"):
                with run.step("linalg.match_factors"):
                    recovered = tf.match_factors(truth, result.model, RECOVERY_THRESHOLD).recovered_count
                with run.step("tensors.residual_ratio"):
                    tf.residual_ratio(tensor, result.model)
            run.record(f"recovered_frac.{algo}", recovered / self.k)
            inputs["probe"] = (tensor, result.model.factors)


class EmbedDesk:
    """The embedding pipeline end to end through the public functions."""


    def __init__(self, smoke, workdir):
        self.workdir = workdir
        self.tokens, self.vocab, self.rank = (4000, 150, 6) if smoke else (200_000, 2000, 50)
        # At a fixed vocabulary the desk tensor's nonzeros vary by some 12%
        # over seeds (773k-870k at 2000 words), and every step after the
        # build costs in proportion to them.  So each seed keeps the most
        # frequent words whose tensor has at most this many nonzeros.
        self.nnz = 4500 if smoke else 760_000
        self.groups, self.sentences, self.planted_rank = (8, 100, 10) if smoke else (20, 400, 24)
        self.planted_fits = 3
        # Sweeps of the desk fit: each costs three sparse MTTKRPs over the
        # whole tensor, about 2.5 s.  One sweep leaves a relative residual
        # above 1; two bring it to about 0.92, where more sweeps leave it.
        self.desk_iters = 2
        self.quality_passes = 1
        # The corpus takes about 2 s to generate.
        self.setup_repeats = 3

    def setup(self, seed, run):
        with run.step("textgen.zipf_corpus"):
            text = textgen.zipf_corpus(self.tokens, seed=seed)
        with run.step("textgen.planted_analogy_corpus"):
            planted = textgen.planted_analogy_corpus(
                n_groups=self.groups, sentences_per_context=self.sentences, seed=derived_seed(seed, 1)
            )
        quads = textgen.analogy_quads(n_groups=self.groups)
        with run.step("embed.desk_vocab"):
            vocab = self.desk_vocab(text)
        return {"seed": seed, "text": text, "vocab": vocab, "planted": planted, "quads": quads}

    def desk_vocab(self, text):
        """The most words, up to ``self.vocab``, whose tensor has at most ``self.nnz`` nonzeros.

        Word ids are frequency ranks, so the tensor of the top v words is the
        full tensor's entries whose largest index is below v.
        """
        _, counts = embed.build_trioccurrence([text], self.vocab, 3)
        nnz_by_size = np.cumsum(np.bincount(counts.indices.max(axis=1), minlength=self.vocab))
        return int(np.searchsorted(nnz_by_size, self.nnz, side="right"))

    def run_pass(self, inputs, index, run):
        seed = inputs["seed"]
        with run.step("embed.build_trioccurrence"):
            vocab, counts = embed.build_trioccurrence([inputs["text"]], inputs["vocab"], 3)
        run.mark("text")
        path = os.path.join(self.workdir, "desk.coo")
        with run.step("fileio.write_coo"):
            fileio.write_coo(path, counts)
        run.mark("text")
        with run.step("fileio.read_coo"):
            loaded = fileio.read_coo(path)
        run.mark("text")
        inputs["coo_bytes"] = os.path.getsize(path)
        inputs["nnz"] = counts.nnz
        if not (np.array_equal(loaded.indices, counts.indices) and np.array_equal(loaded.values, counts.values)):
            run.problems.append(f"pass {index}: .coo round trip changed the tensor")
        with run.step("embed.scale_log1p"):
            scaled = embed.scale_log1p(loaded)
        cfg = tf.DecompConfig(rank=self.rank, max_iters=self.desk_iters, tol=1e-5, seed=derived_seed(seed, 2))
        result = run.fit("orth-als", lambda: tf.orth_als_run(scaled, cfg), scaled.dims, self.rank, result_iters)
        if result is not None:
            with run.step("embed.extract_embeddings"):
                vectors = embed.extract_embeddings(result.model, vocab)
            problem = unit_rows_problem(vectors)
            if problem:
                run.reject("orth-als", problem)
            else:
                with run.step("score"):
                    with run.step("tensors.residual_ratio"):
                        run.record("fit_residual", tf.residual_ratio(scaled, result.model))
                inputs["probe"] = (scaled, result.model.factors)

        planted_vocab, planted_counts = embed.build_trioccurrence([inputs["planted"]], self.vocab, 3)
        planted = embed.scale_log1p(planted_counts)
        # The SVD start is deterministic: from a random start, 1 fit in about
        # 50 stalls at analogy accuracy 0.4 (seed 205), which the output check
        # below would count as failed.  The tolerance is out of reach, so every
        # fit runs the same 60 sweeps.  A run holds one or two passes, so each
        # pass repeats the short fit to give fit_s.hybrid enough samples.
        cfg = tf.DecompConfig(
            rank=self.planted_rank, max_iters=60, tol=1e-300, init="svd", orth_steps=5, seed=derived_seed(seed, 3)
        )
        for _ in range(self.planted_fits):
            result = run.fit(
                "hybrid", lambda: tf.hybrid_run(planted, cfg), planted.dims, self.planted_rank, result_iters
            )
            if result is None:
                continue
            vectors = embed.extract_embeddings(result.model, planted_vocab)
            problem = unit_rows_problem(vectors)
            with run.step("score"):
                with run.step("embed.eval_analogy"):
                    accuracy = embed.eval_analogy(vectors, inputs["quads"]).accuracy
            if not problem and accuracy < ANALOGY_FLOOR:
                problem = f"planted analogy accuracy {accuracy:.3f} below {ANALOGY_FLOOR}"
            if problem:
                run.reject("hybrid", problem)
            else:
                run.record("analogy_acc", accuracy)


def completion_sweeps(result, spans):
    """Sweeps of one completion fit: it normalizes the three factors once per sweep."""
    if not spans:
        return None
    calls = sum(
        1 for s in spans if s.name == "tensors.normalize_columns" and s.site == "tenfact.completion"
    )
    return calls // 3


class CompletionGrid:
    """Masked-ALS completion over the sampling grid, hybrid and plain policies."""

    grid = (0.05, 0.1, 0.2, 0.4)
    policies = (("hybrid", "first_s"), ("als", "none"))

    def __init__(self, smoke):
        self.d, self.k = (10, 3) if smoke else (50, 10)
        # Every fit runs exactly this many sweeps (the tolerance is out of
        # reach), so fit time measures sweep work, not where one instance
        # happens to converge; one trial per pass is then enough to be steady.
        self.sweeps = 5 if smoke else 10
        self.pool = 2 if smoke else 3
        self.quality_passes = 1
        self.setup_repeats = 5

    def setup(self, seed, run):
        trials = []
        for trial in range(self.pool):
            spec = tf.SynthSpec(d=self.d, k=self.k, seed=derived_seed(seed, trial))
            with run.step("bench.gen_random_cp"):
                _, tensor = tf.gen_random_cp(spec)
            problems = {}
            for p in self.grid:
                with run.step("completion.sample_completion_problem"):
                    problems[p] = tf.sample_completion_problem(
                        tensor, p, seed=derived_seed(seed, trial, int(p * 1000))
                    )
            trials.append((tensor, problems))
        return {"seed": seed, "trials": trials}

    def run_pass(self, inputs, index, run):
        trial = index % self.pool
        tensor, problems = inputs["trials"][trial]
        for p in self.grid:
            problem = problems[p]
            for algo, orth_mode in self.policies:
                cfg = tf.DecompConfig(
                    rank=self.k, max_iters=self.sweeps, tol=1e-300, orth_mode=orth_mode, orth_steps=5,
                    seed=derived_seed(inputs["seed"], trial, int(p * 1000), 1),
                )
                model = run.fit(
                    algo, lambda: tf.complete_masked(problem, self.k, cfg), tensor.dims, self.k,
                    completion_sweeps, tag=p,
                )
                if model is None:
                    continue
                with run.step("score"):
                    with run.step("completion.missing_entry_error"):
                        error = tf.missing_entry_error(tensor, problem, model)
                run.record(f"solved_frac.{algo}", error < SOLVED_ERROR)
                inputs["probe"] = (problem.observed, model.factors)


def deflation_iters(result, spans):
    """Iterations of every per-block decomposition inside one deflation."""
    if not spans:
        return None
    return sum(s.iters for s in spans if s.name.startswith("overcomplete.inner."))


class Deflation:
    """Rank above the dimension by block deflation, hybrid and ALS inner solvers.

    Part of every ``dense_skewed`` pass; its fits are labelled
    ``deflate-hybrid`` and ``deflate-als``.
    """

    def __init__(self, smoke, pool):
        self.d, self.r = (6, 8) if smoke else (50, 60)
        self.max_iters = 20 if smoke else 60
        self.pool = pool

    def setup(self, seed, run):
        instances = []
        for trial in range(self.pool):
            spec = tf.SynthSpec(
                d=self.d, k=self.r, weight_scheme="geometric", weight_ratio=1.05 ** (self.r - 1),
                seed=derived_seed(seed, trial),
            )
            with run.step("bench.gen_random_cp"):
                instances.append(tf.gen_random_cp(spec))
        return {"seed": seed, "instances": instances}

    def run_pass(self, inputs, index, run):
        trial = index % self.pool
        truth, tensor = inputs["instances"][trial]
        for inner in ("hybrid", "als"):
            cfg = tf.DecompConfig(rank=self.d, max_iters=self.max_iters, seed=derived_seed(inputs["seed"], trial, 1))
            model = run.fit(
                f"deflate-{inner}", lambda: tf.deflate_overcomplete(tensor, self.r, cfg, inner=inner),
                tensor.dims, self.r, deflation_iters,
            )
            if model is None:
                continue
            with run.step("score"):
                with run.step("linalg.match_factors"):
                    recovered = tf.match_factors(truth, model, RECOVERY_THRESHOLD).recovered_count
            run.record(f"recovered_frac.deflate-{inner}", recovered / self.r)


WORKLOADS = ("dense_skewed", "embed_desk", "completion_grid")


def make(name, smoke, workdir):
    if name == "dense_skewed":
        return DenseSkewed(smoke)
    if name == "embed_desk":
        return EmbedDesk(smoke, workdir)
    if name == "completion_grid":
        return CompletionGrid(smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
