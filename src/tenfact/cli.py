"""Command-line front end.

Subcommands: ``decompose``, ``bench recovery``, ``bench residual``,
``complete``, ``overcomplete``, ``embed build|factorize|eval|gen-corpus``.

Exit codes: 0 success, 1 usage or I/O error, 2 numerical failure.  Every
command that writes a file also writes a ``<output>.manifest.json`` sidecar
recording the resolved configuration, master seed, inputs/outputs, tool
version and timestamp.  A rerun at the same BLAS thread count reproduces
every output byte for byte, wall-clock columns and the manifest timestamp
excepted.  ``--threads`` and ``TENFACT_THREADS`` never change a bit: they
size the ``bench`` worker pool and the threads that each sparse MTTKRP of
more than one row block starts and joins, read at each such call, and
neither changes the order of any sum.  Across BLAS thread counts (the
``OPENBLAS_NUM_THREADS`` of numpy's OpenBLAS) the ``bench`` suites keep
their bits by construction, as they run BLAS at one thread, and so do
tensor norms and residuals.  Other outputs may move in their last bits, as
an OpenBLAS GEMM rounds by thread count at some shapes: the ``.cpm`` files
of ``complete`` and ``overcomplete`` did between 1 and 2 threads, while
``decompose`` fits at d=100 and sparse fits of 200^3 and 400^3 tensors did
not; two tests, ``test_dense_fits_do_not_depend_on_blas_threads`` and
``test_sparse_fits_do_not_depend_on_blas_threads``, hold the dense fits and
the sparse ``orth-als`` and ``hybrid`` fits to it.
``decompose`` writes no model of fewer components than ``--rank``: it exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bench import (
    SynthSpec,
    _write_csv,
    run_recovery_suite,
    run_residual_suite,
    write_recovery_csv,
    write_traces_csv,
)
from .completion import CompletionProblem, _has_repeats, _observed_rmse, complete_masked
from .decompose import ALGORITHMS, ALS_RUNNERS, DecompConfig
from .embed import (
    build_trioccurrence,
    eval_analogy,
    eval_similarity,
    extract_embeddings,
    scale_log1p,
    EmbeddingMatrix,
    Vocab,
)
from .errors import (
    DegenerateInputError,
    InvalidConfigError,
    NumericalFailureError,
    UndefinedResultError,
)
from .fileio import _parse_coo, read_coo, write_coo, write_cpm
from .overcomplete import _INNER_RUNNERS, deflate_overcomplete
from .tensors import SparseTensor3, _thread_count, residual_ratio
from .textgen import analogy_quads, planted_analogy_corpus, write_corpus, zipf_corpus


def _positive_int(text):
    """Parse ``--threads`` by the package's one rule, :func:`tensors._thread_count`;
    the empty default stands for ``TENFACT_THREADS``, else the usable CPUs."""
    try:
        return _thread_count(text or None)
    except InvalidConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _write_manifest(out_path, subcommand, args, inputs, outputs, seed):
    manifest = {
        "subcommand": subcommand,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "master_seed": seed,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _fit_config(args, **overrides):
    """The ``DecompConfig`` of the shared fit flags plus a command's own fields."""
    return DecompConfig(
        rank=args.rank, max_iters=args.iters, tol=args.tol, seed=args.seed, **overrides
    )


def cmd_decompose(args):
    traces = args.algo in ALS_RUNNERS
    tensor = read_coo(args.input)
    cfg = _fit_config(
        args,
        init=args.init,
        orth_steps=args.hybrid_switch,
        rerandomize_period=args.rerand_period,
        record_trace=args.trace is not None,
    )
    result = ALGORITHMS[args.algo](tensor, cfg, args.inits)
    if result.model.k < cfg.rank:
        raise UndefinedResultError(
            f"{args.algo} found {result.model.k} components, fewer than --rank {cfg.rank}; "
            "no model written"
        )
    if traces:
        print(f"{args.algo}: {result.iterations_used} iterations, converged={result.converged}")
    write_cpm(args.out, result.model)
    outputs = [args.out]
    if args.trace is not None:
        trace = enumerate(result.residual_trace if traces else [], start=1)
        _write_csv(args.trace, ["iter", "residual"], ([it, repr(float(v))] for it, v in trace))
        outputs.append(args.trace)
    _write_manifest(args.out, "decompose", args, [args.input], outputs, args.seed)
    return 0


def _parse_float_list(text):
    return [float(x) for x in text.split(",") if x]


def _bench_spec(args, ratio):
    return SynthSpec(
        d=args.d,
        k=args.k,
        weight_scheme="geometric" if ratio > 1 else "uniform",
        weight_ratio=ratio,
        symmetric=args.symmetric,
        noise_sigma_rel=args.noise,
        seed=args.seed,
    )


def cmd_bench_recovery(args):
    algos = [a for a in args.algos.split(",") if a]
    grid = [_bench_spec(args, ratio) for ratio in _parse_float_list(args.ratios)]
    reports = run_recovery_suite(
        grid, algos, args.trials, iters=args.iters, tol=args.tol, threads=args.threads
    )
    write_recovery_csv(reports, args.out)
    _write_manifest(args.out, "bench recovery", args, [], [args.out], args.seed)
    _print_recovery_summary(reports)
    return 0


def _print_recovery_summary(reports):
    by_key = {}
    for r in reports:
        by_key.setdefault((r.algo, r.weight_ratio), []).append(r.recovered_count)
    print(f"{'algo':<10} {'ratio':>8} {'mean recovered':>15} {'trials':>7}")
    for (algo, ratio), counts in sorted(by_key.items()):
        print(f"{algo:<10} {ratio:>8g} {np.mean(counts):>15.2f} {len(counts):>7d}")


def cmd_bench_residual(args):
    algos = [a for a in args.algos.split(",") if a]
    spec = _bench_spec(args, args.ratio)
    reports = run_residual_suite(
        spec, algos, args.iters, trials=args.trials, tol=args.tol, threads=args.threads
    )
    write_traces_csv(reports, args.out)
    _write_manifest(args.out, "bench residual", args, [], [args.out], args.seed)
    for r in reports:
        print(
            f"{r.algo}: seed={r.seed} final residual={r.residual_final:.6g} "
            f"({r.iterations} iters)"
        )
    return 0


def cmd_complete(args):
    # An explicit zero line is an observed zero, not a missing entry, and a
    # position given twice is neither summed nor cancelled.
    dims, idx, vals = _parse_coo(args.input)
    if _has_repeats(idx):
        raise ValueError(f"{args.input}: a position is given on more than one line")
    zero = vals == 0.0
    problem = CompletionProblem(
        dims=dims,
        observed=SparseTensor3(dims, idx[~zero], vals[~zero]),
        zero_entries=idx[zero],
        p=args.p,
    )
    cfg = _fit_config(
        args,
        orth_mode="none" if args.algo == "als" else "first_s",
        orth_steps=args.hybrid_switch,
    )
    model = complete_masked(problem, args.rank, cfg, ridge=args.ridge)
    write_cpm(args.out, model)
    _write_manifest(args.out, "complete", args, [args.input], [args.out], args.seed)
    rmse = _observed_rmse(problem, model)
    total = problem.dims[0] * problem.dims[1] * problem.dims[2]
    print(
        f"completion: rank {model.k}, observed RMSE {rmse:.6g}, "
        f"{problem.n_observed}/{total} entries observed"
    )
    return 0


def cmd_overcomplete(args):
    tensor = read_coo(args.input)
    model = deflate_overcomplete(
        tensor, args.rank, _fit_config(args), block=args.block, inner=args.inner
    )
    write_cpm(args.out, model)
    _write_manifest(args.out, "overcomplete", args, [args.input], [args.out], args.seed)
    print(f"overcomplete: rank {model.k} model, residual {residual_ratio(tensor, model):.6g}")
    return 0


def cmd_embed_build(args):
    vocab, tensor = build_trioccurrence(args.corpus, args.vocab, args.window)
    write_coo(args.out, tensor)
    with open(args.vocab_out, "w", encoding="utf-8", newline="\n") as fh:
        for word in vocab.words:
            fh.write(word + "\n")
    _write_manifest(args.out, "embed build", args, [args.corpus], [args.out, args.vocab_out], 0)
    print(f"tri-occurrence: vocab {len(vocab)}, nnz {tensor.nnz}")
    return 0


def _read_vocab(path):
    with open(path, "r", encoding="utf-8") as fh:
        words = [line.strip() for line in fh if line.strip()]
    return Vocab(words=tuple(words), index={w: i for i, w in enumerate(words)})


def cmd_embed_factorize(args):
    tensor = read_coo(args.input)
    vocab = _read_vocab(args.vocab_file)
    if args.scale == "log1p":
        tensor = scale_log1p(tensor)
    result = ALS_RUNNERS[args.algo](tensor, _fit_config(args, orth_steps=args.hybrid_switch))
    embeddings = extract_embeddings(result.model, vocab)
    _write_embeddings_tsv(args.out, embeddings)
    outputs = [args.out]
    if args.model_out:
        write_cpm(args.model_out, result.model)
        outputs.append(args.model_out)
    _write_manifest(args.out, "embed factorize", args, [args.input, args.vocab_file], outputs, args.seed)
    print(f"embeddings: {len(embeddings)} words x {embeddings.vectors.shape[1]} dims")
    return 0


def _write_embeddings_tsv(path, embeddings):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for word, row in zip(embeddings.words, embeddings.vectors):
            fh.write(word + "\t" + "\t".join(repr(float(x)) for x in row) + "\n")


def _read_embeddings_tsv(path):
    words = []
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 2:
                raise ValueError(f"{path}: line {line_no}: a word with no values")
            if rows and len(parts) - 1 != len(rows[0]):
                raise ValueError(
                    f"{path}: line {line_no}: {len(parts) - 1} values, want {len(rows[0])}"
                )
            try:
                rows.append([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
            words.append(parts[0])
    if not rows:
        raise ValueError(f"{path}: no embedding rows")
    vectors = np.asarray(rows)
    valid = np.linalg.norm(vectors, axis=1) > 1e-12
    return EmbeddingMatrix(words=tuple(words), vectors=vectors, valid=valid)


def _read_fields(path, n):
    """The first ``n`` whitespace-separated fields of every line that has them."""
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(parts[:n]) for parts in map(str.split, fh) if len(parts) >= n]


def cmd_embed_eval(args):
    if args.similarity is None and args.analogy is None:
        raise InvalidConfigError("embed eval needs --similarity and/or --analogy")
    embeddings = _read_embeddings_tsv(args.embeddings)
    if args.similarity:
        pairs = [(a, b, float(score)) for a, b, score in _read_fields(args.similarity, 3)]
        result = eval_similarity(embeddings, pairs)
        print(
            f"similarity: spearman {result.correlation:.4f} "
            f"({result.pairs_used} pairs, {result.pairs_skipped} skipped)"
        )
    if args.analogy:
        result = eval_analogy(embeddings, _read_fields(args.analogy, 4))
        print(
            f"analogy: accuracy {result.accuracy:.4f} "
            f"({result.quads_used} quads, {result.quads_skipped} skipped)"
        )
    return 0


def cmd_embed_gen_corpus(args):
    if args.kind == "desk":
        if args.tokens < 1:
            raise InvalidConfigError(f"--tokens must be at least 1, got {args.tokens}")
        text = zipf_corpus(n_tokens=args.tokens, seed=args.seed)
    else:
        text = planted_analogy_corpus(seed=args.seed)
        quads = analogy_quads()
        if args.quads_out:
            with open(args.quads_out, "w", encoding="utf-8", newline="\n") as fh:
                for q in quads:
                    fh.write("\t".join(q) + "\n")
    write_corpus(args.out, text)
    _write_manifest(args.out, "embed gen-corpus", args, [], [args.out], args.seed)
    print(f"corpus written: {args.out}")
    return 0


def _fit_flags(rank=None, iters=100, tol=1e-6, hybrid_switch=True):
    """A fresh parent parser of the flags the fitting commands share.

    Each command gets its own: argparse hands a parent's ``Action`` objects
    to every child, so one child's ``set_defaults`` would change the others'
    defaults.  ``rank=None`` makes ``--rank`` required.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--input", required=True)
    flags.add_argument("--rank", type=int, default=rank, required=rank is None)
    flags.add_argument("--iters", type=int, default=iters)
    flags.add_argument("--tol", type=float, default=tol)
    flags.add_argument("--seed", type=int, default=0)
    if hybrid_switch:
        flags.add_argument("--hybrid-switch", type=int, default=5)
    flags.add_argument("--out", required=True)
    return flags


def _build_parser():
    parser = argparse.ArgumentParser(prog="tenfact", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tenfact {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[_fit_flags()], help="factor a .coo tensor")
    p.add_argument("--algo", default="orth-als", choices=list(ALGORITHMS))
    p.add_argument("--init", default="random", choices=["random", "svd"])
    p.add_argument("--rerand-period", type=int, default=None)
    p.add_argument("--inits", type=int, default=100, help="restarts for tpm")
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_decompose)

    bench = sub.add_parser("bench", help="synthetic experiment suites")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    suite = argparse.ArgumentParser(add_help=False)
    suite.add_argument("--d", type=int, required=True)
    suite.add_argument("--k", type=int, required=True)
    suite.add_argument("--noise", type=float, default=0.0)
    suite.add_argument("--symmetric", action="store_true")
    suite.add_argument("--algos", default="orth-als,als")
    suite.add_argument("--tol", type=float, default=1e-6)
    suite.add_argument("--seed", type=int, required=True)
    # argparse parses a string default with ``type`` when the flag is absent.
    suite.add_argument("--threads", type=_positive_int, default="")
    suite.add_argument("--out", required=True)

    p = bench_sub.add_parser("recovery", parents=[suite], help="recovery counts over a grid")
    p.add_argument("--ratios", default="1")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--iters", type=int, default=100)
    p.set_defaults(func=cmd_bench_recovery)

    p = bench_sub.add_parser("residual", parents=[suite], help="per-iteration residual traces")
    p.add_argument("--ratio", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--iters", type=int, default=50)
    p.set_defaults(func=cmd_bench_residual)

    p = sub.add_parser(
        "complete", parents=[_fit_flags()], help="tensor completion from observed entries"
    )
    p.add_argument("--algo", default="hybrid", choices=["hybrid", "als"])
    p.add_argument("--ridge", type=float, default=1e-8)
    p.add_argument("--p", type=float, default=None, help="sampling probability metadata")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser(
        "overcomplete",
        parents=[_fit_flags(hybrid_switch=False)],
        help="deflation for rank beyond the dimension",
    )
    p.add_argument("--block", type=int, default=None)
    p.add_argument("--inner", default="hybrid", choices=list(_INNER_RUNNERS))
    p.set_defaults(func=cmd_overcomplete)

    embed = sub.add_parser("embed", help="word-embedding pipeline")
    embed_sub = embed.add_subparsers(dest="embed_command", required=True)

    p = embed_sub.add_parser("build", help="corpus -> tri-occurrence tensor")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", type=int, default=2000)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-out", required=True)
    p.set_defaults(func=cmd_embed_build)

    p = embed_sub.add_parser(
        "factorize",
        parents=[_fit_flags(rank=50, iters=30, tol=1e-5)],
        help="tensor -> embedding table",
    )
    p.add_argument("--vocab-file", required=True)
    p.add_argument("--algo", default="orth-als", choices=list(ALS_RUNNERS))
    p.add_argument("--scale", default="log1p", choices=["log1p", "none"])
    p.add_argument("--model-out", default=None)
    p.set_defaults(func=cmd_embed_factorize)

    p = embed_sub.add_parser("eval", help="similarity / analogy evaluation")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--similarity", default=None)
    p.add_argument("--analogy", default=None)
    p.set_defaults(func=cmd_embed_eval)

    p = embed_sub.add_parser("gen-corpus", help="deterministic synthetic corpora")
    p.add_argument("--kind", default="desk", choices=["desk", "planted"])
    p.add_argument("--tokens", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--quads-out", default=None)
    p.set_defaults(func=cmd_embed_gen_corpus)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code 1.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (NumericalFailureError, DegenerateInputError, UndefinedResultError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (InvalidConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
