"""Uniform time partitions and structured simplicial meshes.

Space domains are intervals in 1D and axis-aligned rectangles in 2D.  Each
rectangle cell is split into two triangles along the same diagonal
(lower-left to upper-right), which keeps the family shape regular.  Nodes
are classified as boundary by coordinate comparison; on these structured
meshes the comparison is exact up to rounding.

Grids and meshes are immutable after construction (arrays are marked
read-only) and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_BOUNDARY_RTOL = 1e-12


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
    dim : int
        Space dimension, 1 or 2.
    nodes : ndarray, shape (n_nodes, dim)
        Node coordinates.
    elements : ndarray, shape (n_elements, dim + 1)
        Node indices per element (segments in 1D, triangles in 2D).
    boundary_mask : ndarray of bool, shape (n_nodes,)
        True for nodes on the domain boundary.
    h : float
        Maximum element diameter.
    interior_index : ndarray of int64, shape (n_nodes,)
        Dense renumbering of interior nodes (0..n_interior-1) in node
        order; -1 on the boundary.
    interior_nodes : ndarray, shape (n_interior, dim)
        Coordinates of interior nodes in dense (renumbered) order.
    n_interior : int
        Number of interior nodes.

    Only the first five are given; the last three are derived from
    ``boundary_mask`` at construction.  ``nodes`` (float64), ``elements``
    (int64) and ``boundary_mask`` (bool) are stored as read-only C-ordered
    copies, so a mesh owns its arrays and any node layout or grading can be
    built straight from them.  Construction raises ``ValueError`` unless
    the shapes agree as listed, every element index names a node, and
    every element has positive volume (``element_volumes``), so elements
    are listed left to right in 1D and counterclockwise in 2D.
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary_mask: np.ndarray
    h: float
    interior_index: np.ndarray = field(init=False, repr=False, compare=False)
    interior_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    n_interior: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, dtype in (("nodes", float), ("elements", np.int64), ("boundary_mask", bool)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        nodes, elements, mask = self.nodes.shape, self.elements.shape, self.boundary_mask.shape
        if self.dim not in (1, 2) or nodes[1:] != (self.dim,):
            raise ValueError(f"need dim 1 or 2 and nodes (n_nodes, dim), got {self.dim}, {nodes}")
        if elements[1:] != (self.dim + 1,):
            raise ValueError(f"elements must be (n_elements, dim + 1), got {elements}")
        if not np.all((self.elements >= 0) & (self.elements < self.n_nodes)):
            raise ValueError(f"element indices must lie in [0, {self.n_nodes})")
        if mask != (self.n_nodes,):
            raise ValueError(f"boundary_mask must be ({self.n_nodes},), got {mask}")
        if not np.all(element_volumes(self) > 0.0):
            raise ValueError("every element needs positive volume (none reversed or degenerate)")
        interior = np.flatnonzero(~self.boundary_mask)
        index = np.full(self.n_nodes, -1, dtype=np.int64)
        index[interior] = np.arange(interior.size)
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
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if cells < 1:
        raise ValueError(f"cell count must be >= 1, got {cells}")
    x = np.linspace(a, b, cells + 1)
    nodes = x.reshape(-1, 1)
    elements = np.column_stack([np.arange(cells), np.arange(1, cells + 1)])
    tol = _BOUNDARY_RTOL * (b - a)
    boundary = (np.abs(x - a) <= tol) | (np.abs(x - b) <= tol)
    return Mesh(dim=1, nodes=nodes, elements=elements, boundary_mask=boundary, h=(b - a) / cells)


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
    if not (ax < bx and ay < by):
        raise ValueError(
            f"need corner_min < corner_max componentwise, got {corner_min}, {corner_max}"
        )
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

    tolx = _BOUNDARY_RTOL * (bx - ax)
    toly = _BOUNDARY_RTOL * (by - ay)
    boundary = (
        (np.abs(nodes[:, 0] - ax) <= tolx)
        | (np.abs(nodes[:, 0] - bx) <= tolx)
        | (np.abs(nodes[:, 1] - ay) <= toly)
        | (np.abs(nodes[:, 1] - by) <= toly)
    )
    dx = (bx - ax) / cells_x
    dy = (by - ay) / cells_y
    return Mesh(
        dim=2, nodes=nodes, elements=elements, boundary_mask=boundary, h=float(np.hypot(dx, dy))
    )


def element_volumes(mesh: Mesh) -> np.ndarray:
    """Per-element length (1D) or area (2D); positive on valid meshes."""
    pts = mesh.nodes[mesh.elements]
    if mesh.dim == 1:
        return pts[:, 1, 0] - pts[:, 0, 0]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
