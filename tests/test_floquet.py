import math
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapcount.floquet as floquet
from gapcount.cli import main
from gapcount.floquet import (
    GapEdge,
    band_structure,
    band_values,
    check_edge_regularity,
    check_gap_edge_regularity,
    fiber_matrix,
    find_gaps,
    gap_edge,
    torus_bands,
    torus_grid,
)
from gapcount.periodic_graph import (
    assemble_truncated,
    build_graph,
    dimer_chain,
    load_graph,
    square_lattice,
)

_EPS = np.finfo(float).eps
# In units of eps ||h||_2: the closed form rounds m and r a few times each
# (it stayed within 1.8 on 2^18 random 2 x 2 fibers against 50-digit
# arithmetic), while LAPACK's eigvalsh strayed up to 7.5 on the same fibers.
_CLOSED_FORM_TOL = 3.0
_LAPACK_TOL = 8.0


def test_fiber_chain_endpoints():
    g = square_lattice(1)
    assert fiber_matrix(g, [0.0])[0, 0] == pytest.approx(0.0)
    assert fiber_matrix(g, [math.pi])[0, 0] == pytest.approx(4.0)


def test_fiber_dimer_at_zero():
    h = fiber_matrix(dimer_chain(), [0.0])
    np.testing.assert_allclose(h.real, [[2.0, -2.0], [-2.0, 4.0]], atol=1e-15)
    np.testing.assert_allclose(h.imag, 0.0, atol=1e-15)


def test_band_evenness_and_sorting():
    K = torus_grid(1, 16)
    E = np.concatenate(list(torus_bands(dimer_chain(), 16)))
    assert np.all(np.diff(E, axis=1) >= 0.0)
    for i, k in enumerate(K):
        neg = ((-k + math.pi) % (2.0 * math.pi)) - math.pi  # wrap -k into the grid
        j = int(np.argmin(np.abs(K - neg).sum(axis=1)))
        np.testing.assert_allclose(E[i], E[j], atol=1e-10)


def test_trace_identity_without_self_orbits():
    g = dimer_chain()
    for k in np.linspace(-math.pi, math.pi, 7):
        tr = np.trace(fiber_matrix(g, [k])).real
        assert tr == pytest.approx(float((g.degrees + g.Q).sum()), abs=1e-12)


def test_nonnegative_spectrum_without_potential():
    bands = band_structure(square_lattice(2), 16)
    assert bands.band_extrema.min() >= -1e-10


def test_band_structure_streams_extrema():
    graph = square_lattice(3)
    tracemalloc.start()
    try:
        bands = band_structure(graph, 96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    E = np.concatenate(list(torus_bands(graph, 96)))
    np.testing.assert_array_equal(bands.band_extrema, np.stack([E.min(axis=0), E.max(axis=0)], axis=1))


def test_chain_gaps():
    gaps = find_gaps(band_structure(square_lattice(1), 64))
    assert len(gaps) == 2
    assert gaps[0].upper == pytest.approx(0.0, abs=1e-12)
    assert gaps[1].lower == pytest.approx(4.0, abs=1e-12)


def test_dimer_interior_gap():
    gaps = find_gaps(band_structure(dimer_chain(), 64))
    interior = [g for g in gaps if g.kind == "interior"]
    assert len(interior) == 1
    assert interior[0].band_index == 2
    assert interior[0].lower == pytest.approx(2.0, abs=1e-10)
    assert interior[0].upper == pytest.approx(4.0, abs=1e-10)


def test_touching_bands_give_no_interior_gap():
    gaps = find_gaps(band_structure(dimer_chain(Q=(0.0, 0.0)), 64))
    assert all(g.kind != "interior" for g in gaps)


def test_truncation_spectrum_within_band_range():
    g = dimer_chain()
    bands = band_structure(g, 128)
    w = np.linalg.eigvalsh(assemble_truncated(g, 6).matrix.toarray())
    assert w.min() >= bands.band_extrema.min() - 1e-10
    assert w.max() <= bands.band_extrema.max() + 1e-10


def test_gap_edge_resolution():
    gaps = find_gaps(band_structure(dimer_chain(), 64))
    interior = next(g for g in gaps if g.kind == "interior")
    lower = gap_edge(interior, "lower", 2)
    upper = gap_edge(interior, "upper", 2)
    assert (lower.sign, lower.band_index) == ("+", 0)
    assert (upper.sign, upper.band_index) == ("-", 1)
    with pytest.raises(ValueError):
        gap_edge(gaps[0], "lower", 2)


def test_square_lattice_bottom_edge_regular():
    g = square_lattice(2)
    gap = find_gaps(band_structure(g, 24))[0]
    rep = check_gap_edge_regularity(g, gap, "upper")
    assert rep.verdict == "regular"
    assert len(rep.extremizers) == 1
    np.testing.assert_allclose(rep.hessians[0], 2.0 * np.eye(2), atol=1e-6)


def test_degenerate_synthetic_band_non_regular():
    def band(K):
        a = 2.0 - 2.0 * np.cos(K[:, 0])
        b = 2.0 - 2.0 * np.cos(K[:, 1])
        return -(a**2) - b

    rep = check_edge_regularity(band, GapEdge(0.0, "+", 0), 2)
    assert rep.verdict == "non-regular"


def test_pattern_search_refines_an_extremizer_off_the_coarse_grid():
    # the maximum at (0.3, -0.2) lies on no point of the 24-point grid
    def band(K):
        return -((2.0 - 2.0 * np.cos(K[:, 0] - 0.3)) + (2.0 - 2.0 * np.cos(K[:, 1] + 0.2)))

    rep = check_edge_regularity(band, GapEdge(0.0, "+", 0), 2)
    assert rep.verdict == "regular"
    assert len(rep.extremizers) == 1
    np.testing.assert_allclose(rep.extremizers[0], [0.3, -0.2], atol=1e-6)
    np.testing.assert_allclose(rep.hessians[0], -2.0 * np.eye(2), atol=1e-6)


def test_flat_band_stops_at_the_extremizer_cap():
    rep = check_edge_regularity(lambda K: np.zeros(K.shape[0]), GapEdge(0.0, "+", 0), 2)
    assert rep.verdict == "non-regular"
    assert len(rep.extremizers) == floquet._MAX_EXTREMIZERS + 1
    assert rep.hessians == ()


@pytest.mark.parametrize(
    "graph, gap_index, which",
    [
        ("square:3", 0, "upper"),
        ("honeycomb", 1, "lower"),
        ("honeycomb", 1, "upper"),
    ],
)
def test_hessians_of_each_extremizer_take_one_band_call(graph, gap_index, which):
    graph = square_lattice(3) if graph == "square:3" else load_graph(Path(__file__).parent / "data" / "honeycomb.json")
    edge = gap_edge(find_gaps(band_structure(graph, 64))[gap_index], which, graph.nu)
    calls = []

    def band(K):
        calls.append(np.array(K))
        return band_values(graph, K)[:, edge.band_index]

    rep = check_edge_regularity(band, edge, graph.dim)
    d = graph.dim
    # besides the stencils: one coarse-grid call, then pattern-search calls of
    # one point or 2d neighbours
    stencils = [K for K in calls if K.shape[0] not in (1, 2 * d, floquet._COARSE_GRID**d)]
    assert rep.verdict == "regular"
    assert len(stencils) == len(rep.extremizers) == len(rep.hessians)
    for K, x in zip(stencils, rep.extremizers):
        assert K.shape == (3 * (2 * d * d + 1), d)  # centre, +-e_i, +-e_i +- e_j at three steps
        np.testing.assert_array_equal(K[0], x)


def graph_doc(dim, vertices, edges):
    """The graph document of (id, offset[, Q]) vertex tuples and (from, to, cell) edge tuples."""
    return {
        "dim": dim,
        "vertices": [{"id": v[0], "offset": list(v[1]), "Q": v[2] if len(v) > 2 else 0.0} for v in vertices],
        "edges": [{"from": j, "to": jp, "cell": list(n)} for j, jp, n in edges],
    }


def lieb_lattice(d):
    """A vertex at the cell corner and one at each axis-edge midpoint; bands 2..d are flat at 2."""
    axes = [tuple(int(b == a) for b in range(d)) for a in range(d)]
    vertices = [(1, (0.0,) * d, 0.0)]
    vertices += [(a + 2, tuple(0.5 * x for x in e), 0.0) for a, e in enumerate(axes)]
    edges = []
    for a, e in enumerate(axes):
        edges += [(1, a + 2, (0,) * d), (a + 2, 1, e)]
    return build_graph(graph_doc(d, vertices, edges))


def test_flat_lieb_edge_in_three_dimensions_is_non_regular():
    graph = lieb_lattice(3)
    gap = find_gaps(band_structure(graph, 16))[1]
    assert gap.lower == pytest.approx(2.0, abs=1e-12) and gap.upper == pytest.approx(6.0, abs=1e-12)
    assert check_gap_edge_regularity(graph, gap, "lower").verdict == "non-regular"


def test_bands_to_csv_schema(capsys):
    # The bands CSV is written by the CLI; square:1 at M = 8 gives a header and one row per k.
    assert main(["bands", "--graph", "square:1", "--grid", "8"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k_1,E_1"
    assert len(lines) == 9
    assert len(lines[1].split(",")) == 2


def test_torus_grid_contains_zero_and_minus_pi():
    K = torus_grid(1, 8)[:, 0]
    assert -math.pi in K
    assert 0.0 in K


# ---------------------------------------------------------------------------
# the tensor-product torus sweep against the scattered-K path


@pytest.mark.parametrize(
    "graph, M",
    [(square_lattice(1), 250), (square_lattice(2), 12), (square_lattice(3), 12), (dimer_chain(), 250)],
    ids=["square1", "square2", "square3", "dimer"],
)
def test_torus_bands_bitwise_equal_to_scattered_path(graph, M, monkeypatch):
    # Every cell has one nonzero component, so each phase is a single table
    # entry. With 100-point blocks, d = 3 at M = 12 (M^2 = 144) cuts inside a slab.
    monkeypatch.setattr(floquet, "_CHUNK", 100)
    blocks = list(torus_bands(graph, M))
    assert len(blocks) > 1 and max(b.shape[0] for b in blocks) <= 100
    np.testing.assert_array_equal(np.concatenate(blocks), band_values(graph, torus_grid(graph.dim, M)))


def diagonal_two_vertex_graph():
    """d = 2, two vertices joined across cells (1, 1), (1, -1) and (0, 0), with self-orbits and Q."""
    vertices = [(1, (0.0, 0.0), 0.3), (2, (0.5, 0.5), -0.7)]
    edges = [
        (1, 2, (1, 1)),
        (1, 2, (1, -1)),
        (1, 2, (0, 0)),
        (2, 2, (1, 1)),
        (1, 1, (1, 0)),
    ]
    return build_graph(graph_doc(2, vertices, edges))


def test_torus_bands_multi_component_cells_within_rounding(monkeypatch):
    graph = diagonal_two_vertex_graph()
    monkeypatch.setattr(floquet, "_CHUNK", 100)
    sweep = np.concatenate(list(torus_bands(graph, 12)))
    scattered = band_values(graph, torus_grid(2, 12))
    assert np.abs(sweep - scattered).max() <= 1e-13 * np.abs(scattered).max()


@st.composite
def periodic_graphs(draw):
    """Connected periodic graphs with nu <= 3, d <= 2 and cells in {-1, 0, 1}^d."""
    d = draw(st.integers(1, 2))
    nu = draw(st.integers(1, 3))
    cells = st.tuples(*[st.integers(-1, 1)] * d)
    vertex = st.integers(1, nu)
    vertices = [(j, (0.0,) * d, draw(st.floats(-2.0, 2.0))) for j in range(1, nu + 1)]
    edges = [(j, j + 1, draw(cells)) for j in range(1, nu)]
    for a in range(d):
        # two edges u -> v whose cells differ by e_a close a cycle of cell vector e_a
        u, v, c = draw(vertex), draw(vertex), list(draw(cells))
        c[a] = draw(st.integers(-1, 0))
        edges.append((u, v, tuple(c)))
        c[a] += 1
        edges.append((u, v, tuple(c)))
    edges += [(draw(vertex), draw(vertex), draw(cells)) for _ in range(draw(st.integers(0, 3)))]
    return build_graph(graph_doc(d, vertices, edges))


@settings(max_examples=60, deadline=None)
@given(graph=periodic_graphs(), data=st.data())
def test_random_graph_fiber_and_sweep(graph, data):
    k = np.array(data.draw(st.lists(st.floats(-math.pi, math.pi), min_size=graph.dim, max_size=graph.dim)))
    h = fiber_matrix(graph, k)
    np.testing.assert_array_equal(h, h.conj().T)
    scale = max(1.0, float(np.abs(h).sum()))
    E = band_values(graph, k)
    assert abs(E.sum() - np.trace(h).real) <= 1e-12 * scale
    lapack_tol = (_CLOSED_FORM_TOL + _LAPACK_TOL) * _EPS * np.linalg.norm(h, 2)
    assert np.abs(E[0] - np.linalg.eigvalsh(h)).max() <= lapack_tol

    M = data.draw(st.integers(2, 7))
    chunk = data.draw(st.integers(1, M**graph.dim))
    with mock.patch.object(floquet, "_CHUNK", chunk):
        sweep = np.concatenate(list(torus_bands(graph, M)))
        scattered = band_values(graph, torus_grid(graph.dim, M))
    assert sweep.shape == (M**graph.dim, graph.nu)
    assert np.abs(sweep - scattered).max() <= 1e-12 * max(1.0, float(np.abs(scattered).max()))


# ---------------------------------------------------------------------------
# closed-form bands for nu <= 2, and the half sweep

def exact_pair_eigvals(a: float, d: float, b: complex) -> tuple[float, float]:
    """Eigenvalues of [[a, b], [conj b, d]] in 50-digit decimal arithmetic from the exact float entries."""
    with localcontext() as ctx:
        ctx.prec = 50
        A, D, B1, B2 = (Decimal(float(x)) for x in (a, d, b.real, b.imag))
        m = (A + D) / 2
        r = (((A - D) / 2) ** 2 + B1 * B1 + B2 * B2).sqrt()
        return float(m - r), float(m + r)


def exact_fiber_eigvals(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a batch of 1 x 1 or 2 x 2 fibers, each correctly rounded."""
    if h.shape[-1] == 1:
        return h[:, :, 0].real
    return np.array([exact_pair_eigvals(x[0, 0].real, x[1, 1].real, x[0, 1]) for x in h])


def pair_fibers(a, d, b) -> np.ndarray:
    h = np.empty((a.size, 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1], h[:, 0, 1], h[:, 1, 0] = a, d, b, np.conj(b)
    return h


def test_pair_closed_form_against_exact_and_lapack_eigenvalues():
    rng = np.random.default_rng(21)
    n = 200
    a, d = rng.standard_normal((2, 5, n))
    b = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    b[1] = 0.0  # diagonal fibers
    d[2] = a[2]  # equal diagonal: r = |b|
    scale = 10.0 ** rng.uniform(-8.0, 8.0, n)  # entries over 16 decades
    a[3], d[3], b[3] = a[3] * scale, d[3] * scale, b[3] * scale
    d[4], b[4] = a[4], b[4] * 1e-17 * np.abs(a[4])  # split below eps |m|: taken as touching
    a, d, b = a.ravel(), d.ravel(), b.ravel()
    h = pair_fibers(a, d, b)
    norm = np.linalg.norm(h, 2, axis=(1, 2))
    E = np.stack(floquet._pair_eigvals(a, d, b), axis=1)
    assert np.all(np.abs(E - exact_fiber_eigvals(h)).max(axis=1) <= _CLOSED_FORM_TOL * _EPS * norm)
    lapack_tol = (_CLOSED_FORM_TOL + _LAPACK_TOL) * _EPS * norm
    assert np.all(np.abs(E - np.linalg.eigvalsh(h)).max(axis=1) <= lapack_tol)
    np.testing.assert_array_equal(E[4 * n :, 0], E[4 * n :, 1])


SMALL_FIBER_GRAPHS = {
    "square1": square_lattice(1),
    "square2": square_lattice(2, 0.3),
    "square3": square_lattice(3),
    "dimer": dimer_chain(),
    "dimer-touching": dimer_chain(Q=(0.0, 0.0)),
    "honeycomb": load_graph(Path(__file__).parent / "data" / "honeycomb.json"),
}


@pytest.mark.parametrize("name", list(SMALL_FIBER_GRAPHS))
def test_closed_form_bands_of_every_small_fiber_graph(name):
    graph = SMALL_FIBER_GRAPHS[name]
    rng = np.random.default_rng(5)
    M = {1: 64, 2: 16, 3: 6}[graph.dim]
    K = np.concatenate([torus_grid(graph.dim, M), rng.uniform(-math.pi, math.pi, (32, graph.dim))])
    h = np.stack([fiber_matrix(graph, k) for k in K])
    norm = np.linalg.norm(h, 2, axis=(1, 2))[:, None]
    E = band_values(graph, K)
    exact = exact_fiber_eigvals(h)
    if graph.nu == 1:
        np.testing.assert_array_equal(E, exact)  # the assembled diagonal itself
    assert np.all(np.abs(E - exact) <= _CLOSED_FORM_TOL * _EPS * norm)
    assert np.all(np.abs(E - np.linalg.eigvalsh(h)) <= (_CLOSED_FORM_TOL + _LAPACK_TOL) * _EPS * norm)


def test_touching_dimer_bands_meet_exactly_at_minus_pi():
    # |b| = |1 + e^{-i pi}| = 1.2e-16 from rounding; the bands must not split by it
    E = band_values(dimer_chain(Q=(0.0, 0.0)), np.array([[-math.pi]]))
    assert E[0, 0] == E[0, 1] == 2.0


HONEYCOMB = SMALL_FIBER_GRAPHS["honeycomb"]


def partial_mirror_graph():
    """square:3 plus the self-orbit edge (1, 1, (1, 1, 0)): axis 2 alone is a mirror axis."""
    edges = [(1, 1, (1, 0, 0)), (1, 1, (0, 1, 0)), (1, 1, (0, 0, 1)), (1, 1, (1, 1, 0))]
    return build_graph(graph_doc(3, [(1, (0.0, 0.0, 0.0), 0.2)], edges))


@pytest.mark.parametrize(
    "graph, expected, mirrors",
    [
        (square_lattice(1), (0,), (0,)),
        (square_lattice(2), (0, 1), (0, 1)),
        (square_lattice(3), (0, 1, 2), (0, 1, 2)),
        (square_lattice(3, 0.5), (0, 1, 2), (0, 1, 2)),
        (dimer_chain(), (), (0,)),
        (HONEYCOMB, (), (0,)),
        (lieb_lattice(2), (), (0,)),  # a mirror only up to the shift of vertex 2 by one cell
        (diagonal_two_vertex_graph(), (), (0,)),
        (partial_mirror_graph(), (2,), (0, 2)),
    ],
    ids=["square1", "square2", "square3", "square3-Q0.5", "dimer", "honeycomb", "lieb2", "diagonal",
         "partial-mirror"],
)
def test_mirror_axes(graph, expected, mirrors):
    assert floquet._mirror_axes(graph.edges, graph.dim) == expected
    assert floquet._fold_axes(graph.edges, graph.dim) == mirrors


def test_an_extra_multiplicity_in_one_direction_breaks_the_mirror():
    def mirror_axes(dim, vertices, edges):
        graph = build_graph(graph_doc(dim, vertices, edges))
        return floquet._mirror_axes(graph.edges, graph.dim)

    # square:2 with (1, 1, (1, 1)) twice and (1, 1, (1, -1)) once: flipping
    # either axis swaps the two diagonals, whose multiplicities differ
    edges = [(1, 1, (1, 0)), (1, 1, (0, 1)), (1, 1, (1, 1)), (1, 1, (1, 1)), (1, 1, (1, -1))]
    assert mirror_axes(2, [(1, (0.0, 0.0))], edges) == ()
    # one more (1, 1, (1, -1)), entered as its reverse (1, 1, (-1, 1)), restores both mirrors
    assert mirror_axes(2, [(1, (0.0, 0.0))], edges + [(1, 1, (-1, 1))]) == (0, 1)
    # in a two-vertex cell the canonical form swaps the ends: (2, 1, (1,)) is (1, 2, (-1,))
    dimer = [(1, 2, (0,)), (1, 2, (1,)), (2, 1, (1,))]
    assert mirror_axes(1, [(1, (0.0,)), (2, (0.5,))], dimer) == (0,)
    assert mirror_axes(1, [(1, (0.0,)), (2, (0.5,))], dimer[:2]) == ()


def square3_graph(extra=(), mult=(1, 1, 1)):
    """square:3 with `mult` copies of each axis cycle, plus extra self-orbit edges."""
    axes = [tuple(int(b == a) for b in range(3)) for a in range(3)]
    edges = [(1, 1, n) for n, k in zip(axes, mult) for _ in range(k)] + [(1, 1, n) for n in extra]
    return build_graph(graph_doc(3, [(1, (0.0, 0.0, 0.0), 0.2)], edges))


@pytest.mark.parametrize(
    "graph, expected",
    [
        (square_lattice(1), ()),
        (square_lattice(2), (0, 1)),
        (square_lattice(3), (0, 1, 2)),
        (square_lattice(3, 0.5), (0, 1, 2)),
        # the two diagonals of the (0, 1) plane map onto themselves under 0 <-> 1 alone
        (square3_graph(extra=[(1, 1, 0), (1, -1, 0)]), (0, 1)),
        (square3_graph(mult=(1, 1, 2)), (0, 1)),
        (dimer_chain(), ()),
        (HONEYCOMB, ()),  # 0 <-> 1 maps its edges onto themselves, but it has no mirror axis
        (lieb_lattice(2), ()),  # a swap moves vertex 2 (at (1/2, 0)) onto vertex 3
        (lieb_lattice(3), ()),
        (diagonal_two_vertex_graph(), ()),
        (partial_mirror_graph(), ()),  # axis 2 is its only mirror axis
    ],
    ids=["square1", "square2", "square3", "square3-Q0.5", "square3-diagonals", "square3-double-axis2", "dimer",
         "honeycomb", "lieb2", "lieb3", "diagonal", "partial-mirror"],
)
def test_swap_class(graph, expected):
    assert floquet._swap_class(graph.edges, graph.dim) == expected


@pytest.mark.parametrize(
    "graph, M, chunk, fold, swap",
    [
        # no mirror axis, or d = 1: axis 0 alone is folded, in runs of `chunk`
        # cut at m = 1 and m = M/2, so the blocks are m = 0 alone, runs from
        # m = 1, then m = M/2 alone for even M
        (square_lattice(1), 10, 4, (0,), ()),  # [0, 1), [1, 5), [5, 6)
        (square_lattice(1), 9, 4, (0,), ()),  # [0, 1), [1, 5): odd M, only m = 0 is its own mirror
        (dimer_chain(), 11, 3, (0,), ()),  # [0, 1), [1, 4), [4, 6)
        (HONEYCOMB, 8, 20, (0,), ()),  # whole slices: [0, 1), [1, 3), [3, 4), [4, 5)
        (HONEYCOMB, 7, 21, (0,), ()),  # [0, 1), [1, 4)
        (diagonal_two_vertex_graph(), 9, 5, (0,), ()),  # a slice cut into runs of 5 and 4 points of axis 1
        (lieb_lattice(2), 6, 1 << 18, (0,), ()),  # nu = 3 goes to LAPACK; [0, 1), [1, 3), [3, 4)
        # square:3 folds and swaps every axis. At M = 6 the slab i = 0 of axis
        # 0 (4^2 points) is cut into runs of axis 1, the slab i = 1 (3^2) fits
        # one block of 10, and so does the box [2, 3]^3 left
        (square_lattice(3), 6, 10, (0, 1, 2), (0, 1, 2)),
        (square_lattice(3), 12, 30, (0, 1, 2), (0, 1, 2)),  # slabs i = 0..3, then the box [4, 6]^3
        # the whole folded box fits one block, so no slab is cut from it
        (square_lattice(3), 5, 60, (0, 1, 2), (0, 1, 2)),  # axis 0 cut into [0, 1), [1, 3)
        (square_lattice(3, 0.5), 8, 1 << 18, (0, 1, 2), (0, 1, 2)),
        # axes 0 and 2 folded, axis 1 whole
        (partial_mirror_graph(), 6, 30, (0, 2), ()),
        (partial_mirror_graph(), 7, 1 << 18, (0, 2), ()),
        # every axis folded, axes 0 and 1 swapped: slabs 1 x (4 - i) x 4 at M = 7
        (square3_graph(mult=(1, 1, 2)), 7, 30, (0, 1, 2), (0, 1)),
        (square3_graph(extra=[(1, 1, 0), (1, -1, 0)]), 6, 20, (0, 1, 2), (0, 1)),
        (square_lattice(2, 0.3), 9, 7, (0, 1), (0, 1)),  # rows i = 0, 1, 2 of axis 0, then the box [3, 4]^2
        (square_lattice(2, 0.3), 2, 1, (0, 1), (0, 1)),  # every point its own mirror
    ],
    ids=["square1-even", "square1-odd", "dimer-odd", "honeycomb-even", "honeycomb-odd", "diagonal-odd",
         "lieb2", "square3-even", "square3-slabs", "square3-odd", "square3-one-block", "partial-mirror-even",
         "partial-mirror-odd", "square3-double-axis2", "square3-diagonals", "square2-odd", "square2-M2"],
)
def test_half_sweep_matches_the_full_sweep(graph, M, chunk, fold, swap, monkeypatch):
    monkeypatch.setattr(floquet, "_CHUNK", chunk)
    assert floquet._fold_axes(graph.edges, graph.dim) == fold
    assert floquet._swap_class(graph.edges, graph.dim) == swap
    d = graph.dim
    full = np.concatenate(list(torus_bands(graph, M)))
    blocks = list(floquet._reduced_torus_bands(graph, M))
    ranges = [block for block, _ in floquet._grid_blocks(M, d, fold, swap)]
    assert len(ranges) == len(blocks)
    assert max(math.prod(E.shape[:-1]) for _, E in blocks) <= chunk
    grid = full.reshape((M,) * d + (graph.nu,))
    for block, (_, E) in zip(ranges, blocks):
        np.testing.assert_array_equal(E, grid[np.ix_(*block)])
    w = np.concatenate([np.broadcast_to(w, E.shape[:-1]).ravel() for w, E in blocks])
    E = np.concatenate([E.reshape(-1, graph.nu) for _, E in blocks])
    if not swap:
        # the full sweep's rows at m = 0..M//2 on each folded axis and every m
        # on the rest, in C order, each weighted by the product over the folded
        # axes of the number of indices m' with m' = m or m' = -m mod M
        index = [np.arange(M // 2 + 1) if a in fold else np.arange(M) for a in range(d)]
        np.testing.assert_array_equal(E, grid[np.ix_(*index)].reshape(E.shape))
        if fold == (0,):
            np.testing.assert_array_equal(E, full[: (M // 2 + 1) * M ** (d - 1)])
        mirrors = [np.where(i == -i % M, 1.0, 2.0) if a in fold else np.ones(M) for a, i in enumerate(index)]
        np.testing.assert_array_equal(w, math.prod(np.ix_(*mirrors)).ravel())
    else:
        # every axis is a mirror axis here: m -> -m mod M on each axis and any
        # order of the class axes' indices map a grid point onto its orbit, and
        # the weights of the swept points of each orbit add up to its size
        def orbits(m):
            m = np.minimum(m, -m % M)
            m[:, swap] = np.sort(m[:, swap], axis=1)
            return m

        swept = np.concatenate([np.stack(np.meshgrid(*b, indexing="ij"), axis=-1).reshape(-1, d) for b in ranges])
        keys, sizes = np.unique(orbits(np.indices((M,) * d).reshape(d, -1).T), axis=0, return_counts=True)
        swept_keys, inverse = np.unique(orbits(swept), axis=0, return_inverse=True)
        np.testing.assert_array_equal(swept_keys, keys)
        np.testing.assert_array_equal(np.bincount(inverse.ravel(), weights=w), sizes)
    assert w.sum() == M**d
    lam = float(full.min()) - 1.0
    np.testing.assert_allclose(w @ (E - lam) ** -1.5, ((full - lam) ** -1.5).sum(axis=0), rtol=1e-13)
    extrema = band_structure(graph, M).band_extrema
    atol = 4.0 * _EPS * float(np.abs(full).max())
    np.testing.assert_allclose(extrema, np.stack([full.min(axis=0), full.max(axis=0)], axis=1), rtol=0.0, atol=atol)
