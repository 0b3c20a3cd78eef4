"""Test helpers: per-path states read from the streamed path sweep
``socfem.spde.iter_forward_paths``, and socfem operators as scipy matrices."""

import numpy as np
import scipy.sparse as sp

from socfem.spde import iter_forward_paths


def path_states(spec, system, grid, control, ensemble) -> np.ndarray:
    """The state of every path at every level, shape (paths, N+1, n)."""
    out = np.empty((ensemble.paths, grid.N + 1, system.n))
    for n, x in iter_forward_paths(spec, system, grid, control, ensemble):
        out[:, n, :] = x.T
    return out


def path_states_at(spec, system, grid, control, ensemble, level: int) -> np.ndarray:
    """The state of every path at one level, shape (paths, n); the sweep stops there."""
    for n, x in iter_forward_paths(spec, system, grid, control, ensemble):
        if n == level:
            return x.T.copy()
    raise ValueError(f"level {level} is past the last level {grid.N}")


def scipy_csr(op) -> sp.csr_matrix:
    """A socfem ``Csr`` operator as a scipy ``csr_matrix`` over the same
    arrays, for checks written with scipy's matrix API (``@``, ``.T``,
    ``.toarray()``).  Its products run the kernels socfem's own products
    run, so they give the same sums bit for bit."""
    return sp.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape)
