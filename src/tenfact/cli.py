"""Command-line front end.

Subcommands: ``decompose``, ``bench recovery``, ``bench residual``,
``complete``, ``overcomplete``, ``embed build|factorize|eval|gen-corpus``.

Exit codes: 0 success, 1 usage or I/O error, 2 numerical failure.  Every
command writes a ``<output>.manifest.json`` sidecar recording the resolved
configuration, master seed, inputs/outputs, tool version and timestamp, so
runs can be reproduced byte-for-byte (wall-clock columns and the manifest
timestamp excepted).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bench import (
    SynthSpec,
    run_recovery_suite,
    run_residual_suite,
    write_recovery_csv,
    write_traces_csv,
)
from .completion import CompletionProblem, complete_masked
from .decompose import (
    ALS_RUNNERS,
    DecompConfig,
    orth_tpm_run,
    simdiag,
    tpm_multi,
)
from .embed import (
    build_trioccurrence,
    eval_analogy,
    eval_similarity,
    extract_embeddings,
    scale_log1p,
    EmbeddingMatrix,
)
from .errors import (
    DegenerateInputError,
    InvalidConfigError,
    NumericalFailureError,
    UndefinedResultError,
)
from .fileio import _parse_coo, read_coo, write_cpm
from .overcomplete import deflate_overcomplete
from .tensors import SparseTensor3
from .textgen import analogy_quads, planted_analogy_corpus, write_corpus, zipf_corpus

# Tensors up to this many entries are densified for speed and exact residuals.
_DENSIFY_LIMIT = 4_000_000


def _default_threads():
    env = os.environ.get("TENFACT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


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


def _load_tensor(path):
    tensor = read_coo(path)
    d1, d2, d3 = tensor.dims
    if d1 * d2 * d3 <= _DENSIFY_LIMIT:
        return tensor.to_dense()
    return tensor


def cmd_decompose(args):
    tensor = _load_tensor(args.input)
    cfg = DecompConfig(
        rank=args.rank,
        max_iters=args.iters,
        tol=args.tol,
        init=args.init,
        orth_steps=args.hybrid_switch,
        rerandomize_period=args.rerand_period,
        seed=args.seed,
        record_trace=args.trace is not None,
    )
    trace = None
    if args.algo in ALS_RUNNERS:
        result = ALS_RUNNERS[args.algo](tensor, cfg)
        model, trace, iters = result.model, result.residual_trace, result.iterations_used
        print(f"{args.algo}: {iters} iterations, converged={result.converged}")
    elif args.algo == "tpm":
        model = tpm_multi(
            tensor, n_inits=max(args.inits, args.rank), iters=args.iters,
            rank=args.rank, seed=args.seed, init=args.init,
        )
    elif args.algo == "orth-tpm":
        model = orth_tpm_run(tensor, args.rank, args.iters, seed=args.seed)
    elif args.algo == "simdiag":
        model = simdiag(tensor, args.rank, seed=args.seed)
    else:
        raise InvalidConfigError(f"unknown algorithm {args.algo!r}")
    write_cpm(args.out, model)
    outputs = [args.out]
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["iter", "residual"])
            for it, value in enumerate(trace if trace is not None else [], start=1):
                writer.writerow([it, repr(float(value))])
        outputs.append(args.trace)
    _write_manifest(args.out, "decompose", args, [args.input], outputs, args.seed)
    return 0


def _parse_float_list(text):
    return [float(x) for x in text.split(",") if x]


def cmd_bench_recovery(args):
    algos = [a for a in args.algos.split(",") if a]
    grid = [
        SynthSpec(
            d=args.d,
            k=args.k,
            weight_scheme="geometric" if ratio > 1 else "uniform",
            weight_ratio=ratio,
            symmetric=args.symmetric,
            noise_sigma_rel=args.noise,
            seed=args.seed,
        )
        for ratio in _parse_float_list(args.ratios)
    ]
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
    spec = SynthSpec(
        d=args.d,
        k=args.k,
        weight_scheme="geometric" if args.ratio > 1 else "uniform",
        weight_ratio=args.ratio,
        symmetric=args.symmetric,
        noise_sigma_rel=args.noise,
        seed=args.seed,
    )
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
    # An explicit zero line is an observed zero, not a missing entry.
    dims, idx, vals = _parse_coo(args.input)
    zero = vals == 0.0
    problem = CompletionProblem(
        dims=dims,
        observed=SparseTensor3(dims, idx[~zero], vals[~zero]),
        zero_entries=idx[zero],
        p=args.p,
    )
    cfg = DecompConfig(
        rank=args.rank,
        max_iters=args.iters,
        tol=args.tol,
        orth_mode="none" if args.algo == "als" else "first_s",
        orth_steps=args.hybrid_switch,
        seed=args.seed,
    )
    model = complete_masked(problem, args.rank, cfg, ridge=args.ridge)
    write_cpm(args.out, model)
    _write_manifest(args.out, "complete", args, [args.input], [args.out], args.seed)
    idx = problem.all_indices()
    vals = problem.all_values()
    recon = np.einsum(
        "nr,r->n",
        model.A[idx[:, 0]] * model.B[idx[:, 1]] * model.C[idx[:, 2]],
        model.weights,
    )
    rmse = float(np.sqrt(np.mean((recon - vals) ** 2)))
    total = problem.dims[0] * problem.dims[1] * problem.dims[2]
    print(
        f"completion: rank {model.k}, observed RMSE {rmse:.6g}, "
        f"{problem.n_observed}/{total} entries observed"
    )
    return 0


def cmd_overcomplete(args):
    tensor = _load_tensor(args.input)
    inner_cfg = DecompConfig(
        rank=min(args.block or min(tensor.dims), args.rank),
        max_iters=args.iters,
        tol=args.tol,
        seed=args.seed,
    )
    model = deflate_overcomplete(
        tensor, args.rank, inner_cfg, block=args.block, inner=args.inner
    )
    write_cpm(args.out, model)
    _write_manifest(args.out, "overcomplete", args, [args.input], [args.out], args.seed)
    from .tensors import residual_ratio

    print(f"overcomplete: rank {model.k} model, residual {residual_ratio(tensor, model):.6g}")
    return 0


def cmd_embed_build(args):
    vocab, tensor = build_trioccurrence(args.corpus, args.vocab, args.window)
    from .fileio import write_coo

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
    from .embed import Vocab

    return Vocab(words=tuple(words), index={w: i for i, w in enumerate(words)})


def cmd_embed_factorize(args):
    tensor = read_coo(args.input)
    vocab = _read_vocab(args.vocab_file)
    if args.scale == "log1p":
        tensor = scale_log1p(tensor)
    cfg = DecompConfig(
        rank=args.rank,
        max_iters=args.iters,
        tol=args.tol,
        orth_steps=args.hybrid_switch,
        seed=args.seed,
        record_trace=False,
    )
    result = ALS_RUNNERS[args.algo](tensor, cfg)
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
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 2:
                continue
            words.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
    vectors = np.asarray(rows)
    valid = np.linalg.norm(vectors, axis=1) > 1e-12
    return EmbeddingMatrix(words=tuple(words), vectors=vectors, valid=valid)


def _read_pairs_tsv(path):
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) >= 3:
                pairs.append((parts[0], parts[1], float(parts[2])))
    return pairs


def _read_quads_tsv(path):
    quads = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) >= 4:
                quads.append(tuple(parts[:4]))
    return quads


def cmd_embed_eval(args):
    if args.similarity is None and args.analogy is None:
        raise InvalidConfigError("embed eval needs --similarity and/or --analogy")
    embeddings = _read_embeddings_tsv(args.embeddings)
    if args.similarity:
        result = eval_similarity(embeddings, _read_pairs_tsv(args.similarity))
        print(
            f"similarity: spearman {result.correlation:.4f} "
            f"({result.pairs_used} pairs, {result.pairs_skipped} skipped)"
        )
    if args.analogy:
        result = eval_analogy(embeddings, _read_quads_tsv(args.analogy))
        print(
            f"analogy: accuracy {result.accuracy:.4f} "
            f"({result.quads_used} quads, {result.quads_skipped} skipped)"
        )
    return 0


def cmd_embed_gen_corpus(args):
    if args.kind == "desk":
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


def _build_parser():
    parser = argparse.ArgumentParser(prog="tenfact", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tenfact {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="factor a .coo tensor")
    p.add_argument("--input", required=True)
    p.add_argument("--algo", default="orth-als",
                   choices=[*ALS_RUNNERS, "tpm", "orth-tpm", "simdiag"])
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", default="random", choices=["random", "svd"])
    p.add_argument("--hybrid-switch", type=int, default=5)
    p.add_argument("--rerand-period", type=int, default=None)
    p.add_argument("--inits", type=int, default=100, help="restarts for tpm")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_decompose)

    bench = sub.add_parser("bench", help="synthetic experiment suites")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    p = bench_sub.add_parser("recovery", help="factor recovery counts over a grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ratios", default="1")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--algos", default="orth-als,als")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_recovery)

    p = bench_sub.add_parser("residual", help="per-iteration residual traces")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ratio", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--algos", default="orth-als,als")
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_residual)

    p = sub.add_parser("complete", help="tensor completion from observed entries")
    p.add_argument("--input", required=True, help=".coo file of observed entries")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--algo", default="hybrid", choices=["hybrid", "als"])
    p.add_argument("--hybrid-switch", type=int, default=5)
    p.add_argument("--ridge", type=float, default=1e-8)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=None, help="sampling probability metadata")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("overcomplete", help="deflation for rank beyond the dimension")
    p.add_argument("--input", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--block", type=int, default=None)
    p.add_argument("--inner", default="hybrid", choices=["hybrid", "als"])
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
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

    p = embed_sub.add_parser("factorize", help="tensor -> embedding table")
    p.add_argument("--input", required=True)
    p.add_argument("--vocab-file", required=True)
    p.add_argument("--rank", type=int, default=50)
    p.add_argument("--algo", default="orth-als", choices=list(ALS_RUNNERS))
    p.add_argument("--hybrid-switch", type=int, default=5)
    p.add_argument("--scale", default="log1p", choices=["log1p", "none"])
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
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
