"""Uniform time partitions and structured simplicial meshes.

Space domains are intervals in 1D and axis-aligned rectangles in 2D.  Each
rectangle cell is split into two triangles along the same diagonal
(lower-left to upper-right), which keeps the family shape regular.  A
mesh finds its boundary nodes from its elements alone, as the nodes of the
facets that belong to one element only, so no coordinate is compared.

Grids and meshes are immutable after construction (arrays are marked
read-only) and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

# a given h must match the largest element diameter this closely, relative
_H_RTOL = 1e-12
# the local node pairs of an element's facets: its two end nodes in 1D, its edges in 2D
_FACETS = {1: ((0, 0), (1, 1)), 2: ((0, 1), (1, 2), (2, 0))}


def _frozen(a, dtype=None) -> np.ndarray:
    """A read-only C-ordered copy of ``a``."""
    a = np.array(a, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps of size tau = T/N."""

    T: float
    N: int
    tau: float
    times: np.ndarray

    def __repr__(self) -> str:  # keep array out of logs
        return f"TimeGrid(T={self.T}, N={self.N}, tau={self.tau})"


@dataclass(frozen=True)
class Mesh:
    """Simplicial mesh with interior/boundary node classification.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, dim)
        Node coordinates.
    elements : ndarray, shape (n_elements, dim + 1)
        Node indices per element (segments in 1D, triangles in 2D).
    h : float
        Maximum element diameter.
    dim : int
        Space dimension, 1 or 2: the column count of ``nodes``.
    boundary_mask : ndarray of bool, shape (n_nodes,)
        True for nodes on the domain boundary: the nodes of the facets
        (end nodes in 1D, edges in 2D) that belong to one element only.
    interior_index : ndarray of int64, shape (n_nodes,)
        Dense renumbering of interior nodes (0..n_interior-1) in node
        order; -1 on the boundary.
    interior_nodes : ndarray, shape (n_interior, dim)
        Coordinates of interior nodes in dense (renumbered) order.
    n_interior : int
        Number of interior nodes.

    Only the first three are given; the rest are derived at construction,
    so the Dirichlet boundary is the one the elements make, on any
    conforming mesh.  ``nodes`` (float64) and ``elements`` (int64) are
    stored as read-only C-ordered copies, so a mesh owns its arrays and any
    node layout or grading can be built straight from them.  Construction
    raises ``ValueError`` unless the shapes agree as listed, ``elements``
    has an integer dtype, every element index names a node, every element
    has positive volume (``element_volumes``), so elements are listed left
    to right in 1D and counterclockwise in 2D, and ``h`` is the largest
    element diameter to within 1e-12 relative.  ``h`` is checked, not
    derived, so the value a builder computes is the one reported.
    """

    nodes: np.ndarray
    elements: np.ndarray
    h: float
    dim: int = field(init=False)
    boundary_mask: np.ndarray = field(init=False, repr=False, compare=False)
    interior_index: np.ndarray = field(init=False, repr=False, compare=False)
    interior_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    n_interior: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = np.asarray(self.elements)
        if given.dtype.kind not in "iu":  # a float index would be truncated without a word
            raise ValueError(f"elements must be integer node indices, got dtype {given.dtype}")
        object.__setattr__(self, "nodes", _frozen(self.nodes, float))
        object.__setattr__(self, "elements", _frozen(self.elements, np.int64))
        nodes, elements = self.nodes.shape, self.elements.shape
        if nodes[1:] not in ((1,), (2,)):
            raise ValueError(f"need nodes (n_nodes, dim) with dim 1 or 2, got {nodes}")
        object.__setattr__(self, "dim", nodes[1])
        if elements[1:] != (self.dim + 1,):
            raise ValueError(f"elements must be (n_elements, dim + 1), got {elements}")
        if not np.all((self.elements >= 0) & (self.elements < self.n_nodes)):
            raise ValueError(f"element indices must lie in [0, {self.n_nodes})")
        if not np.all(element_volumes(self) > 0.0):
            raise ValueError("every element needs positive volume (none reversed or degenerate)")
        n, e = self.n_nodes, self.elements
        # (n_elements,) columns per edge and facet: no (n_elements, dim + 1, dim) gather
        diameter = np.sqrt(max(
            sum((x[e[:, i]] - x[e[:, j]]) ** 2 for x in self.nodes.T).max()
            for i, j in combinations(range(self.dim + 1), 2)
        ))
        if not abs(self.h - diameter) <= _H_RTOL * diameter:
            raise ValueError(f"h={self.h!r} is not the largest element diameter {diameter!r}")
        keys = np.concatenate([
            np.minimum(e[:, i], e[:, j]) * n + np.maximum(e[:, i], e[:, j])
            for i, j in _FACETS[self.dim]
        ])
        # a facet of one element is a sorted key unequal to both neighbours;
        # a stable sort, not np.unique, which pages in far more sort code
        keys.sort(kind="stable")
        new_run = np.concatenate(([True], keys[1:] != keys[:-1], [True]))
        low, high = np.divmod(keys[new_run[:-1] & new_run[1:]], n)
        boundary = np.zeros(n, dtype=bool)
        boundary[low] = boundary[high] = True
        interior = np.flatnonzero(~boundary)
        index = np.full(n, -1, dtype=np.int64)
        index[interior] = np.arange(interior.size)
        object.__setattr__(self, "boundary_mask", _frozen(boundary))
        object.__setattr__(self, "interior_index", _frozen(index))
        object.__setattr__(self, "interior_nodes", _frozen(self.nodes[interior]))
        object.__setattr__(self, "n_interior", interior.size)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def __repr__(self) -> str:
        return (
            f"Mesh(dim={self.dim}, nodes={self.n_nodes}, "
            f"elements={self.elements.shape[0]}, h={self.h:.6g})"
        )


def make_time_grid(T: float, N: int) -> TimeGrid:
    """Build the uniform time partition t_n = n * T/N, n = 0..N."""
    if not T > 0.0:
        raise ValueError(f"horizon T must be positive, got {T}")
    if N < 1:
        raise ValueError(f"step count N must be >= 1, got {N}")
    tau = T / N
    times = np.linspace(0.0, T, N + 1)
    return TimeGrid(T=float(T), N=int(N), tau=tau, times=_frozen(times))


def make_interval_mesh(a: float, b: float, cells: int) -> Mesh:
    """Equispaced mesh of [a, b] with ``cells`` segments.

    Endpoints are boundary nodes; a single-cell mesh is legal but has no
    interior nodes, so solvers reject it downstream.
    """
    if cells < 1:
        raise ValueError(f"cell count must be >= 1, got {cells}")
    nodes = np.linspace(a, b, cells + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(cells), np.arange(1, cells + 1)])
    return Mesh(nodes, elements, (b - a) / cells)


def make_rectangle_mesh(
    corner_min: tuple[float, float],
    corner_max: tuple[float, float],
    cells_x: int,
    cells_y: int,
) -> Mesh:
    """Structured triangulation of an axis-aligned rectangle.

    Each of the cells_x * cells_y rectangular cells is split along its
    lower-left to upper-right diagonal; h is the cell diagonal length.
    """
    ax, ay = float(corner_min[0]), float(corner_min[1])
    bx, by = float(corner_max[0]), float(corner_max[1])
    if cells_x < 1 or cells_y < 1:
        raise ValueError(f"cell counts must be >= 1, got {cells_x}, {cells_y}")

    x = np.linspace(ax, bx, cells_x + 1)
    y = np.linspace(ay, by, cells_y + 1)
    xv, yv = np.meshgrid(x, y, indexing="xy")  # node id = iy*(cells_x+1) + ix
    nodes = np.column_stack([xv.ravel(), yv.ravel()])

    nx1 = cells_x + 1
    ix, iy = np.meshgrid(np.arange(cells_x), np.arange(cells_y), indexing="xy")
    n00 = (iy * nx1 + ix).ravel()
    n10 = n00 + 1
    n01 = n00 + nx1
    n11 = n01 + 1
    lower = np.column_stack([n00, n10, n11])  # positive orientation
    upper = np.column_stack([n00, n11, n01])
    elements = np.vstack([lower, upper])

    dx = (bx - ax) / cells_x
    dy = (by - ay) / cells_y
    return Mesh(nodes, elements, float(np.hypot(dx, dy)))


def element_volumes(mesh: Mesh) -> np.ndarray:
    """Per-element length (1D) or area (2D); positive on valid meshes."""
    pts = mesh.nodes[mesh.elements]
    if mesh.dim == 1:
        return pts[:, 1, 0] - pts[:, 0, 0]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
