import numpy as np
import pytest
from hypothesis import settings

from tenfact.tensors import CpModel, SparseTensor3, cp_reconstruct

# Property tests replay the same examples on every run, so Tier-1 stays
# deterministic; kernels on tiny tensors need no per-example deadline.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def unit_columns(rng, d, k):
    g = rng.standard_normal((d, k))
    return g / np.linalg.norm(g, axis=0)


def random_model(rng, dims, k, weights=None, symmetric=False):
    d1, d2, d3 = dims
    a = unit_columns(rng, d1, k)
    b, c = (a, a) if symmetric else (unit_columns(rng, d2, k), unit_columns(rng, d3, k))
    if weights is None:
        weights = rng.uniform(0.5, 2.0, k)
    return CpModel(np.asarray(weights, dtype=float), a, b, c)


def random_sparse(rng, dims, nnz):
    idx = np.column_stack([rng.integers(0, d, nnz) for d in dims])
    vals = rng.standard_normal(nnz)
    return SparseTensor3(dims, idx, vals)


def loop_reconstruct(model):
    """Triple-loop oracle for cp_reconstruct."""
    d1, d2, d3 = model.dims
    out = np.zeros((d1, d2, d3))
    for i in range(d1):
        for j in range(d2):
            for kk in range(d3):
                s = 0.0
                for r in range(model.k):
                    s += model.weights[r] * model.A[i, r] * model.B[j, r] * model.C[kk, r]
                out[i, j, kk] = s
    return out


def diagonal_tensor(weights, d):
    """Sum of w_i e_i^(x3) as a model and its dense tensor."""
    weights = np.asarray(weights, dtype=float)
    k = weights.size
    eye = np.eye(d)[:, :k]
    model = CpModel(weights, eye, eye, eye)
    return model, cp_reconstruct(model)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
