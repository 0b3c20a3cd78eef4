import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socfem import make_interval_mesh, make_rectangle_mesh, make_time_grid
from socfem.grid import Mesh, element_volumes


class TestTimeGrid:
    def test_quarter_partition(self):
        g = make_time_grid(1.0, 4)
        assert g.tau == 0.25
        assert np.allclose(g.times, [0, 0.25, 0.5, 0.75, 1.0])

    def test_paper_resolution(self):
        g = make_time_grid(1.0, 40)
        assert g.tau == pytest.approx(1 / 40, abs=0)

    def test_single_step(self):
        g = make_time_grid(2.0, 1)
        assert g.tau == 2.0
        assert np.allclose(g.times, [0.0, 2.0])

    def test_points_increasing_and_endpoints(self):
        g = make_time_grid(3.0, 7)
        assert g.times[0] == 0.0
        assert g.times[-1] == 3.0
        assert np.all(np.diff(g.times) > 0)
        assert g.tau * g.N == pytest.approx(g.T, rel=1e-15)

    @pytest.mark.parametrize("T,N", [(0.0, 4), (-1.0, 4), (1.0, 0)])
    def test_invalid_arguments(self, T, N):
        with pytest.raises(ValueError):
            make_time_grid(T, N)

    def test_repr_leaves_out_the_times(self):
        assert repr(make_time_grid(1.0, 4)) == "TimeGrid(T=1.0, N=4, tau=0.25)"


class TestIntervalMesh:
    def test_two_cells(self):
        m = make_interval_mesh(0.0, 1.0, 2)
        assert np.allclose(m.nodes[:, 0], [0.0, 0.5, 1.0])
        assert m.n_interior == 1
        assert np.allclose(m.interior_nodes, [[0.5]])
        assert m.h == 0.5

    def test_paper_resolution(self):
        m = make_interval_mesh(0.0, 1.0, 40)
        assert m.h == pytest.approx(1 / 40, abs=0)
        assert m.n_interior == 39

    def test_degenerate_single_cell(self):
        m = make_interval_mesh(0.0, 1.0, 1)
        assert m.n_interior == 0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            make_interval_mesh(1.0, 1.0, 4)

    @pytest.mark.parametrize("cells", [0, -2])
    def test_invalid_cell_count(self, cells):
        with pytest.raises(ValueError, match=f"^cell count must be >= 1, got {cells}$"):
            make_interval_mesh(0.0, 1.0, cells)

    def test_repr_leaves_out_the_arrays(self):
        assert repr(make_interval_mesh(0.0, 1.0, 4)) == (
            "Mesh(dim=1, nodes=5, elements=4, h=0.25)"
        )


class TestRectangleMesh:
    def test_smallest_useful(self):
        m = make_rectangle_mesh((0, 0), (1, 1), 2, 2)
        assert m.n_nodes == 9
        assert m.elements.shape == (8, 3)
        assert m.n_interior == 1
        assert m.h == pytest.approx(np.sqrt(2) / 2)

    def test_paper_resolution(self):
        m = make_rectangle_mesh((0, 0), (1, 1), 40, 40)
        assert m.h == pytest.approx(np.sqrt(2) / 40)
        assert m.n_interior == 39 * 39

    def test_degenerate(self):
        m = make_rectangle_mesh((0, 0), (1, 1), 1, 1)
        assert m.n_interior == 0

    def test_invalid_corners(self):
        with pytest.raises(ValueError):
            make_rectangle_mesh((0, 0), (0, 1), 2, 2)

    @pytest.mark.parametrize("cells", [(0, 2), (2, 0)])
    def test_invalid_cell_counts(self, cells):
        message = f"^cell counts must be >= 1, got {cells[0]}, {cells[1]}$"
        with pytest.raises(ValueError, match=message):
            make_rectangle_mesh((0, 0), (1, 1), *cells)

    def test_repr_leaves_out_the_arrays(self):
        assert repr(make_rectangle_mesh((0, 0), (1, 1), 2, 3)) == (
            "Mesh(dim=2, nodes=12, elements=12, h=0.600925)"
        )

    def test_positive_areas(self):
        m = make_rectangle_mesh((-1, 2), (3, 5), 3, 4)
        assert np.all(element_volumes(m) > 0)


def _check_invariants(mesh, volume):
    vols = element_volumes(mesh)
    assert np.all(vols > 0)
    assert np.sum(vols) == pytest.approx(volume, rel=1e-12)
    assert mesh.n_interior + np.count_nonzero(mesh.boundary_mask) == mesh.n_nodes
    # elements reference valid, distinct nodes
    assert mesh.elements.min() >= 0 and mesh.elements.max() < mesh.n_nodes
    for el in mesh.elements:
        assert len(set(el.tolist())) == len(el)
    # dense renumbering is a bijection onto 0..n_interior-1
    dense = mesh.interior_index[mesh.interior_index >= 0]
    assert sorted(dense.tolist()) == list(range(mesh.n_interior))
    assert np.all(mesh.interior_index[mesh.boundary_mask] == -1)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-5, 5),
    width=st.floats(0.1, 10),
    cells=st.integers(1, 50),
)
def test_interval_invariants(a, width, cells):
    mesh = make_interval_mesh(a, a + width, cells)
    _check_invariants(mesh, width)


@settings(max_examples=25, deadline=None)
@given(
    cx=st.integers(1, 12),
    cy=st.integers(1, 12),
    wx=st.floats(0.1, 5),
    wy=st.floats(0.1, 5),
)
def test_rectangle_invariants(cx, cy, wx, wy):
    mesh = make_rectangle_mesh((0.0, -1.0), (wx, -1.0 + wy), cx, cy)
    _check_invariants(mesh, wx * wy)


def test_mesh_arrays_immutable():
    m = make_interval_mesh(0, 1, 4)
    with pytest.raises(ValueError):
        m.nodes[0, 0] = 3.0


@pytest.mark.parametrize(
    "mesh", [make_interval_mesh(0, 1, 4), make_rectangle_mesh((0, 0), (1, 1), 3, 2)]
)
def test_interior_nodes_computed_once_and_frozen(mesh):
    nodes = mesh.interior_nodes
    assert mesh.interior_nodes is nodes
    assert np.array_equal(nodes, mesh.nodes[~mesh.boundary_mask])
    assert mesh.n_interior == nodes.shape[0]
    with pytest.raises(ValueError):
        nodes[0, 0] = 3.0


def _boundary_oracle(nodes: np.ndarray) -> np.ndarray:
    """Nodes on the edge of the bounding box of ``nodes``, by coordinate comparison."""
    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    tol = 1e-12 * (hi - lo)
    return ((np.abs(nodes - lo) <= tol) | (np.abs(nodes - hi) <= tol)).any(axis=1)


BUILDER_MESHES = (
    [(make_interval_mesh, (0.0, 1.0, cells), 1.0 / cells) for cells in range(1, 130)]
    + [(make_rectangle_mesh, ((0, 0), (1, 1), c, c), np.hypot(1 / c, 1 / c)) for c in range(1, 75)]
    + [(make_rectangle_mesh, ((0, 0), (1, 1), cx, cy), np.hypot(1 / cx, 1 / cy))
       for cx, cy in [(3, 2), (6, 5)]]
)


def test_builder_boundary_matches_the_coordinate_oracle():
    """The boundary a mesh finds from its elements is the edge of the
    interval or rectangle, and the interior numbering and h follow; a copy
    built straight from the arrays finds the same."""
    for build, arguments, h in BUILDER_MESHES:
        built = build(*arguments)
        mesh = Mesh(built.nodes, built.elements, built.h)
        assert np.array_equal(mesh.boundary_mask, built.boundary_mask)
        oracle = _boundary_oracle(mesh.nodes)
        assert np.array_equal(mesh.boundary_mask, oracle), arguments
        assert not mesh.boundary_mask.flags.writeable
        assert np.array_equal(mesh.interior_nodes, mesh.nodes[~oracle])
        assert mesh.h == h


def test_l_shape_puts_the_reentrant_node_on_the_boundary():
    """The 2 x 2 square without its upper-right cell and the corner node only
    that cell used: every node, (0.5, 0.5) too, lies on the boundary."""
    square = make_rectangle_mesh((0, 0), (1, 1), 2, 2)
    corner = 8  # (1, 1)
    elements = square.elements[~(square.elements == corner).any(axis=1)]
    nodes = np.delete(square.nodes, corner, axis=0)
    mesh = Mesh(nodes, elements, square.h)
    assert elements.shape == (6, 3)
    assert mesh.boundary_mask.all() and mesh.n_interior == 0
    assert np.array_equal(mesh.nodes[4], [0.5, 0.5])


def test_two_disjoint_intervals_have_four_end_nodes():
    nodes = np.array([[0.0], [0.5], [1.0], [2.0], [2.5], [3.0]])
    mesh = Mesh(nodes, np.array([[0, 1], [1, 2], [3, 4], [4, 5]]), 0.5)
    assert np.array_equal(mesh.boundary_mask, [True, False, True, True, False, True])
    assert np.array_equal(mesh.interior_nodes, [[0.5], [2.5]])


# A valid 5-segment interval and a valid two-triangle unit square, given raw
SEGMENTS = dict(
    nodes=np.linspace(0.0, 1.0, 6).reshape(-1, 1),
    elements=np.column_stack([np.arange(5), np.arange(1, 6)]),
    h=0.2,
)
SQUARE = dict(
    nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    elements=np.array([[0, 1, 3], [0, 3, 2]]),
    h=np.sqrt(2.0),
)

# (valid mesh, the arguments that break it, the part of the message that names the fault)
BAD_MESHES = {
    "reversed-segments": (SEGMENTS, dict(elements=SEGMENTS["elements"][:, ::-1]), "positive"),
    "repeated-node": (SEGMENTS, dict(elements=np.array([[0, 1], [1, 1], [1, 2]])), "positive"),
    "flat-nodes": (SEGMENTS, dict(nodes=np.linspace(0.0, 1.0, 6)), "nodes"),
    "dim-3": (SEGMENTS, dict(nodes=np.zeros((6, 3))), "dim 1 or 2"),
    "triangles-in-1d": (SEGMENTS, dict(elements=np.array([[0, 1, 2]])), "elements"),
    "index-past-the-nodes": (SEGMENTS, dict(elements=np.array([[4, 5], [5, 6]])), "[0, 6)"),
    "negative-index": (SEGMENTS, dict(elements=np.array([[-1, 0]])), "[0, 6)"),
    "clockwise-triangle": (SQUARE, dict(elements=np.array([[0, 3, 1], [0, 3, 2]])), "positive"),
    "degenerate-triangle": (SQUARE, dict(elements=np.array([[0, 1, 1]])), "positive"),
    "float-elements": (
        SEGMENTS, dict(elements=SEGMENTS["elements"] + np.array([0.0, 0.9])), "integer"
    ),
    "h-not-the-diameter": (SEGMENTS, dict(h=5.0), "diameter"),
    "h-of-a-finer-mesh": (SQUARE, dict(h=np.sqrt(2.0) / 2), "diameter"),
    # each triangle listed from another vertex: the diagonal is no longer its first edge
    "h-of-the-unit-edges": (SQUARE, dict(elements=np.array([[1, 3, 0], [3, 2, 0]]), h=1.0),
                            "diameter"),
}


class TestMeshChecks:
    """A mesh rejects arrays that disagree, instead of assembling a wrong system."""

    @pytest.mark.parametrize(
        "valid,boundary",
        [(SEGMENTS, [True, False, False, False, False, True]), (SQUARE, [True] * 4)],
        ids=["segments", "square"],
    )
    def test_valid_arrays_build(self, valid, boundary):
        mesh = Mesh(**valid)
        assert mesh.n_nodes == valid["nodes"].shape[0]
        assert mesh.dim == valid["nodes"].shape[1]
        assert np.array_equal(mesh.boundary_mask, boundary)
        assert np.all(element_volumes(mesh) > 0.0)

    @pytest.mark.parametrize("valid,change,named", BAD_MESHES.values(), ids=BAD_MESHES.keys())
    def test_rejects(self, valid, change, named):
        with pytest.raises(ValueError) as info:
            Mesh(**{**valid, **change})
        assert named in str(info.value)
