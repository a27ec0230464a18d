"""The public surface: the names ``tenfact`` exports and every ``__all__``."""

import importlib
import inspect
import types

import tenfact
from tenfact.decompose import ALGORITHMS

PUBLIC = [
    "CompletionProblem", "CpModel", "DecompConfig", "DecompResult",
    "DegenerateInputError", "DenseTensor3", "InvalidConfigError", "MatchResult",
    "NumericalFailureError", "SparseTensor3", "SynthSpec", "TenfactError",
    "TraceRecord", "TrialReport", "UndefinedResultError", "__version__",
    "add_noise", "als_run", "als_sweep", "beta_bound", "complete_masked",
    "contract3", "contract_mode3", "cp_reconstruct", "deflate_overcomplete",
    "eig_nonsym", "gen_random_cp", "hybrid_run", "incoherence", "khatri_rao",
    "ls_solve_kr", "match_factors", "matricize", "missing_entry_error", "mttkrp",
    "orth_als_run", "orth_step", "orth_tpm_run", "residual_ratio",
    "run_recovery_suite", "run_residual_suite", "sample_completion_problem",
    "simdiag", "svd_init", "top_svd", "tpm_correlation_trace", "tpm_multi",
    "tpm_run",
]

SUBMODULES = [
    "bench", "completion", "decompose", "embed", "fileio", "linalg",
    "overcomplete", "tensors", "textgen",
]


def test_public_surface():
    """``tenfact`` exports exactly the pinned names, and every ``__all__``
    entry of its submodules resolves.  Submodules become package attributes
    as they are imported, so they are left out of the pinned list."""
    names = sorted(
        name for name, value in vars(tenfact).items()
        if (not name.startswith("_") or name == "__version__")
        and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
    missing = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"tenfact.{name}")
        assert module.__all__, name
        missing[name] = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == {name: [] for name in SUBMODULES}


# The parameter names of every public function and class constructor, keyed
# by the module that defines it, so that a new setting shows up in review as
# a diff of this table.  An exception class that keeps ``Exception``'s
# constructor reads ``*args``.
SIGNATURES = {
    "bench.SynthSpec": "d k weight_scheme weight_ratio symmetric noise_sigma_rel seed",
    "bench.TrialReport": (
        "algo d k weight_ratio noise seed "
        "trial recovered_count residual_final iterations wall_time_s residual_trace error"
    ),
    "bench.add_noise": "tensor sigma_rel seed",
    "bench.derived_seed": "parts",
    "bench.gen_random_cp": "spec",
    "bench.run_recovery_suite": "grid algorithms trials iters tol threads",
    "bench.run_residual_suite": "spec algorithms iters trials tol threads",
    "bench.write_recovery_csv": "reports path",
    "bench.write_traces_csv": "reports path",
    "completion.CompletionProblem": "dims observed zero_entries p",
    "completion.complete_masked": "problem rank cfg ridge",
    "completion.missing_entry_error": "truth problem model",
    "completion.sample_completion_problem": "tensor p seed",
    "decompose.DecompConfig": (
        "rank max_iters tol init orth_mode "
        "orth_steps rerandomize_period seed record_trace given"
    ),
    "decompose.DecompResult": (
        "model iterations_used "
        "converged residual_trace factor_convergence_steps"
    ),
    "decompose.TraceRecord": "target ratios weighted_ratios defined",
    "decompose.als_run": "tensor cfg",
    "decompose.als_sweep": "tensor a b c",
    "decompose.beta_bound": "beta0 gamma k c_max steps",
    "decompose.hybrid_run": "tensor cfg",
    "decompose.orth_als_run": "tensor cfg",
    "decompose.orth_tpm_run": "tensor rank iters seed",
    "decompose.simdiag": "tensor rank seed",
    "decompose.svd_init": "tensor rank seed",
    "decompose.tpm_correlation_trace": "tensor truth steps seed x0",
    "decompose.tpm_multi": "tensor n_inits iters rank seed init",
    "decompose.tpm_run": "tensor x0 y0 z0 iters",
    "embed.AnalogyEval": "accuracy quads_used quads_skipped",
    "embed.EmbeddingMatrix": "words vectors valid",
    "embed.SimilarityEval": "correlation pairs_used pairs_skipped",
    "embed.Vocab": "words index",
    "embed.build_trioccurrence": "corpus max_vocab window",
    "embed.eval_analogy": "embeddings quads",
    "embed.eval_similarity": "embeddings pairs",
    "embed.extract_embeddings": "model vocab",
    "embed.scale_log1p": "tensor",
    "embed.tokenize": "text",
    "errors.DegenerateInputError": "message columns",
    "errors.InvalidConfigError": "*args",
    "errors.NumericalFailureError": "message partial",
    "errors.TenfactError": "*args",
    "errors.UndefinedResultError": "*args",
    "fileio.read_coo": "path",
    "fileio.read_cpm": "path",
    "fileio.write_coo": "path tensor",
    "fileio.write_cpm": "path model",
    "linalg.MatchResult": "assignment correlations recovered_count",
    "linalg.eig_nonsym": "m",
    "linalg.ls_solve_kr": "tmat p q",
    "linalg.match_factors": "truth est threshold",
    "linalg.orth_step": "x",
    "linalg.top_svd": "m k",
    "overcomplete.deflate_overcomplete": "tensor total_rank inner_cfg block inner",
    "tensors.CpModel": "weights A B C",
    "tensors.DenseTensor3": "array",
    "tensors.SparseTensor3": "dims indices values",
    "tensors.contract3": "tensor a b c",
    "tensors.contract_mode3": "tensor v",
    "tensors.cp_reconstruct": "model",
    "tensors.incoherence": "factor",
    "tensors.khatri_rao": "x y",
    "tensors.matricize": "tensor mode",
    "tensors.mttkrp": "tensor factors mode",
    "tensors.normalize_columns": "matrix",
    "tensors.residual_ratio": "tensor model",
    "textgen.analogy_quads": "n_groups",
    "textgen.planted_analogy_corpus": "n_groups n_forms sentences_per_context seed",
    "textgen.write_corpus": "path text",
    "textgen.zipf_corpus": "n_tokens vocab_size n_topics seed",
}


def parameter_names(fn):
    try:
        return " ".join(inspect.signature(fn).parameters)
    except ValueError:
        return "*args"


def test_parameter_names():
    found = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"tenfact.{name}")
        found.update({f"{name}.{entry}": getattr(module, entry) for entry in module.__all__})
    for name in PUBLIC:
        value = getattr(tenfact, name)
        if callable(value):
            found.setdefault(f"{value.__module__.removeprefix('tenfact.')}.{name}", value)
    got = {key: parameter_names(fn) for key, fn in found.items() if callable(fn)}
    assert got == SIGNATURES


def test_registry_entries_take_tensor_cfg_n_inits():
    assert {name: parameter_names(run) for name, run in ALGORITHMS.items()} == {
        name: "tensor cfg n_inits" for name in ALGORITHMS
    }
