"""The public surface: the names ``tenfact`` exports and every ``__all__``."""

import importlib
import types

import tenfact

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
