import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipk

import gapcount.floquet as floquet
import gapcount.gamma as gamma
from gapcount.cli import main
from gapcount.floquet import (
    band_structure,
    band_values,
    check_gap_edge_regularity,
    find_gaps,
    gap_edge,
    torus_bands,
    torus_grid,
)
from gapcount.gamma import (
    GammaError,
    _band_power_sums,
    _signed_part,
    default_kappa,
    edge_integral,
    gamma_at_edge,
    gamma_coefficient,
    sphere_integral,
    weak_edge_membership,
)
from gapcount.periodic_graph import ThetaProfile, build_graph, dimer_chain, load_graph, square_lattice, theta_const
from gapcount.spectral_counts import asymptotic_table

HONEYCOMB = Path(__file__).parent / "data" / "honeycomb.json"


def test_sphere_integral_constants():
    one = theta_const(1.0)
    assert sphere_integral(one, 1.0, 1) == pytest.approx(2.0)
    assert sphere_integral(one, 2.5, 2) == pytest.approx(2.0 * math.pi, rel=1e-10)
    assert sphere_integral(one, 1.0, 3) == pytest.approx(4.0 * math.pi, rel=1e-10)


def test_gamma_matches_scalar_quadrature_oracle():
    # independent oracle: int dk / (lam - (2 - 2 cos k))_- with lam = -1
    oracle, err = quad(lambda k: 1.0 / (3.0 - 2.0 * math.cos(k)), -math.pi, math.pi, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    assert oracle == pytest.approx(2.0 * math.pi / math.sqrt(5.0), abs=1e-10)
    bands = band_structure(square_lattice(1), 64)
    res = gamma_coefficient(bands, -1.0, 1.0, "-", theta_const(1.0))
    expected = oracle * 2.0 / (2.0 * math.pi)
    assert res.value == pytest.approx(expected, abs=1e-10)


def test_gamma_rejects_dimension_4_before_its_torus_sweeps(monkeypatch):
    bands = band_structure(square_lattice(4), 4)

    def no_sweep(graph, M, fold):
        raise AssertionError("torus sweep ran before the dimension check")

    monkeypatch.setattr(floquet, "_sweep", no_sweep)
    with pytest.raises(GammaError, match="unsupported dimension d=4"):
        gamma_coefficient(bands, -1.0, 1.0, "-", theta_const(1.0))


def test_gamma_plus_vanishes_below_spectrum():
    bands = band_structure(square_lattice(1), 32)
    res = gamma_coefficient(bands, -1.0, 1.0, "+", theta_const(1.0))
    assert res.value == 0.0


def test_gamma_zero_profile():
    bands = band_structure(square_lattice(1), 32)
    assert gamma_coefficient(bands, -1.0, 1.0, "-", theta_const(0.0)).value == 0.0


def test_gamma_rejects_lambda_inside_band():
    bands = band_structure(square_lattice(1), 32)
    with pytest.raises(GammaError):
        gamma_coefficient(bands, 2.0, 1.0, "-", theta_const(1.0))


def test_gamma_monotone_in_lambda_below_spectrum():
    bands = band_structure(square_lattice(1), 32)
    vals = [
        gamma_coefficient(bands, lam, 1.0, "-", theta_const(1.0)).value
        for lam in (-1.0, -2.0, -3.0)
    ]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_gamma_homogeneity_in_theta():
    bands = band_structure(square_lattice(2), 16)
    p = 1.5
    base = gamma_coefficient(bands, -1.0, p, "-", theta_const(1.0)).value
    scaled = gamma_coefficient(bands, -1.0, p, "-", theta_const(3.0)).value
    assert scaled == pytest.approx(3.0**p * base, rel=1e-12)


def test_edge_integral_kappa_zero_exact():
    bands = band_structure(square_lattice(2), 16)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    rep = edge_integral(bands, edge, 0.0)
    assert rep.verdict == "convergent"
    np.testing.assert_allclose(rep.estimates, (2.0 * math.pi) ** 2)


def test_edge_integral_kappa_zero_counts_the_bands_beyond_the_edge():
    # (Lambda - E_s)_{+/-}^0 is 1 only where the signed part is positive: one band
    # of the dimer lies beyond each edge of its interior gap (2, 4), both beyond an outer edge.
    graph = dimer_chain()
    bands = band_structure(graph, 64)
    lower, interior, upper = find_gaps(bands)
    cases = [(interior, "lower", 1), (interior, "upper", 1), (lower, "upper", 2), (upper, "lower", 2)]
    for gap, which, beyond in cases:
        edge = gap_edge(gap, which, graph.nu)
        rep = edge_integral(bands, edge, 0.0)
        assert rep.verdict == "convergent"
        np.testing.assert_allclose(rep.estimates, beyond * 2.0 * math.pi, rtol=1e-15)
        sweep = edge_integral(bands, edge, 1e-12).estimates
        assert np.all(np.abs(rep.estimates - sweep) <= rep.estimates / np.array(rep.grids) * (1.0 + 1e-9))


def test_chain_edge_divergent():
    bands = band_structure(square_lattice(1), 64)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    rep = edge_integral(bands, edge, 1.0)
    assert rep.verdict == "divergent"
    # growth proportional to grid size
    assert rep.estimates[-1] / rep.estimates[-2] == pytest.approx(2.0, rel=0.2)


def test_cubic_lattice_edge_convergent():
    bands = band_structure(square_lattice(3), 16)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    rep = edge_integral(bands, edge, 1.0)
    assert rep.verdict == "convergent"


def test_weak_membership_chain_small_p():
    bands = band_structure(square_lattice(1), 64)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    rep = weak_edge_membership(bands, edge, 0.5)
    assert rep.weak_member is True
    assert rep.weak_sup is not None and rep.weak_sup > 0.0


def test_weak_membership_cubic_large_p_fails():
    bands = band_structure(square_lattice(3), 16)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    rep = weak_edge_membership(bands, edge, 3.0)
    assert rep.weak_member is False


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(bad):
    bands = band_structure(square_lattice(1), 16)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    theta = theta_const(1.0)
    calls = [
        lambda: sphere_integral(theta, bad, 1),
        lambda: gamma_coefficient(bands, -1.0, bad, "-", theta),
        lambda: gamma_coefficient(bands, bad, 1.0, "-", theta),
        lambda: weak_edge_membership(bands, edge, bad),
        lambda: edge_integral(bands, edge, bad),
    ]
    for call in calls:
        with pytest.raises(GammaError, match="finite"):
            call()


def test_default_kappa():
    assert default_kappa(2.0) == 2.0
    assert default_kappa(0.5) == 1.0
    with pytest.raises(ValueError):
        default_kappa(1.0)


def test_gamma_at_edge_gated_on_divergence():
    bands = band_structure(square_lattice(1), 32)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    res = gamma_at_edge(bands, edge, 0.5, theta_const(1.0))
    assert res.report.verdict == "divergent"
    assert res.gamma is None


@pytest.mark.parametrize("ladder", [(32, 32), (0, 4), (32.5, 64), ()])
def test_edge_ladder_must_be_increasing_integer_grids(ladder):
    bands = band_structure(square_lattice(3), 16)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    with pytest.raises(GammaError, match="ladder"):
        edge_integral(bands, edge, 1.0, ladder)
    with pytest.raises(GammaError, match="ladder"):
        gamma_at_edge(bands, edge, 0.5, theta_const(1.0), ladder=ladder)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gamma_at_edge_rejects_a_non_finite_p_by_name(bad):
    bands = band_structure(square_lattice(3), 16)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    with pytest.raises(GammaError, match="p must be positive and finite"):
        gamma_at_edge(bands, edge, bad, theta_const(1.0))


def cubic_gamma_trapezoid(lam: float, p: float, M: int) -> float:
    """Gamma_p^-(lam) of square:3 with theta = 1: trapezoid sum of the closed-form band on M^3 points."""
    e1 = 2.0 - 2.0 * np.cos(-math.pi + 2.0 * math.pi * np.arange(M) / M)
    torus = 0.0
    for a in e1:  # one plane of the grid at a time
        part = a + e1[:, None] + e1[None, :] - lam
        with np.errstate(divide="ignore"):
            torus += float(np.where(part > 0.0, part ** (-p), 0.0).sum())
    torus *= (2.0 * math.pi / M) ** 3
    return torus * 4.0 * math.pi / (3.0 * (2.0 * math.pi) ** 3)


def test_interior_gamma_is_the_fine_trapezoid_sum():
    # The integrand is analytic and periodic, so the plain 2M sum is already
    # converged; extrapolating it with an O(M^-2) rate would move it away.
    res = gamma_coefficient(band_structure(square_lattice(3), 16), -0.5, 1.5, "-", theta_const(1.0))
    assert res.grids == (16, 32)
    assert res.value == pytest.approx(cubic_gamma_trapezoid(-0.5, 1.5, 64), rel=1e-9)
    assert res.value == pytest.approx(cubic_gamma_trapezoid(-0.5, 1.5, 32), rel=1e-13)
    coarse = cubic_gamma_trapezoid(-0.5, 1.5, 16)
    assert res.error == pytest.approx(abs(res.value - coarse), rel=1e-6)


def test_streamed_sweep_matches_full_grid(monkeypatch):
    graph = square_lattice(3)
    default = _band_power_sums(graph, -0.5, 1.5, "-", 12)
    monkeypatch.setattr(floquet, "_CHUNK", 100)
    blocks = list(torus_bands(graph, 12))
    # 12^2 > 100, so a block is a run of 8 rows of the middle axis (or the last 4) at one first index
    assert len(blocks) == 24 and max(b.shape[0] for b in blocks) == 96
    np.testing.assert_array_equal(np.concatenate(blocks), band_values(graph, torus_grid(3, 12)))
    axis = -math.pi + 2.0 * math.pi * np.arange(12) / 12
    mesh = np.meshgrid(axis, axis, axis, indexing="ij")
    np.testing.assert_array_equal(torus_grid(3, 12), np.stack([m.ravel() for m in mesh], axis=1))
    np.testing.assert_allclose(_band_power_sums(graph, -0.5, 1.5, "-", 12), default, rtol=1e-13)


def test_gamma_at_edge_convergent_reports_last_two_rungs():
    bands = band_structure(square_lattice(3), 16)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    res = gamma_at_edge(bands, edge, 0.5, theta_const(1.0), ladder=(16, 32, 64, 128))
    assert res.report.verdict == "convergent"
    assert res.gamma is not None
    assert res.gamma.grids == (64, 128)
    assert res.gamma.value == pytest.approx(cubic_gamma_trapezoid(0.0, 0.5, 128), rel=1e-12)
    assert 0.0 < res.gamma.error
    # At the edge the sums converge slowly, and the doubling difference
    # bounds the distance to the next rung.
    assert abs(res.gamma.value - cubic_gamma_trapezoid(0.0, 0.5, 256)) <= res.gamma.error


def full_grid_weak_check(graph, edge, p, M):
    """The weak check from one level value per grid point, concatenated and sorted."""
    levels = []
    for E in torus_bands(graph, M):
        part = np.maximum(edge.value - E, 0.0) if edge.sign == "+" else np.maximum(E - edge.value, 0.0)
        levels.append(1.0 / part[part > 0.0])
    F = np.concatenate(levels)
    sgrid = np.geomspace(1.0, max(float(F.max()), 2.0), 40)
    mes = (F.size - np.searchsorted(np.sort(F), sgrid, side="right")) * (2.0 * math.pi / M) ** graph.dim
    g = np.where(mes > 0.0, sgrid * mes ** (1.0 / p), 0.0)
    pos = g > 0.0
    sup = float(g[pos].max()) if pos.any() else 0.0
    member = True
    if np.count_nonzero(pos) >= 8:
        sg, gg = np.log(sgrid[pos]), np.log(g[pos])
        half = sg.size // 2
        member = bool(np.polyfit(sg[half:], gg[half:], 1)[0] < 0.15)
    return sup, member


@pytest.mark.parametrize(
    "graph, gap_index, which",
    [
        (square_lattice(1), 0, "upper"),
        (square_lattice(2), 0, "upper"),
        (square_lattice(2, 0.3), 0, "upper"),
        (square_lattice(3), 0, "upper"),
        (square_lattice(3), -1, "lower"),
        (dimer_chain(), 1, "lower"),
        (dimer_chain(), 1, "upper"),
    ],
    ids=["square1", "square2", "square2-Q0.3", "square3", "square3-top", "dimer-lower", "dimer-upper"],
)
def test_weak_membership_equals_the_full_grid_check(graph, gap_index, which):
    bands = band_structure(graph, 32)
    edge = gap_edge(find_gaps(bands)[gap_index], which, graph.nu)
    M = {1: 4096, 2: 512, 3: 96}[graph.dim]
    for p in (0.5, 1.0, 1.5, 3.0):
        rep = weak_edge_membership(bands, edge, p)
        assert (rep.weak_sup, rep.weak_member) == full_grid_weak_check(graph, edge, p, M)


def test_weak_membership_holds_no_grid():
    bands = band_structure(square_lattice(3), 16)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    tracemalloc.start()
    try:
        weak_edge_membership(bands, edge, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One float per point of the 96^3 grid alone takes 7 MB; with its sorted
    # copy and the sweep's blocks the full-grid check peaks near 24 MB.
    assert peak < 16e6


def test_edge_ladder_holds_one_block_at_a_time():
    bands = band_structure(square_lattice(3), 32)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    tracemalloc.start()
    try:
        edge_integral(bands, edge, 1.0, (128, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A block holds at most 2^16 points, about 1 MB of complex phases; blocks
    # of 2^18 points took the peak to 6.8 MB.
    assert peak < 4e6


# square:3 plus the self-orbit edge (1, 1, (1, 1, 0)): axis 2 alone is a mirror axis
PARTIAL_MIRROR = {
    "dim": 3,
    "vertices": [{"id": 1, "offset": [0.0, 0.0, 0.0], "Q": 0.2}],
    "edges": [{"from": 1, "to": 1, "cell": c} for c in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0])],
}


def full_grid_power_sums(graph, lam, power, sign, M):
    """The sums of _band_power_sums from every point of the full grid."""
    total = np.zeros(graph.nu)
    for E in torus_bands(graph, M):
        part = _signed_part(lam, E, sign)
        with np.errstate(divide="ignore"):
            total += np.where(part > 0.0, part ** (-power), 0.0).sum(axis=0)
    return total * (2.0 * math.pi / M) ** graph.dim


@pytest.mark.parametrize(
    "graph, M, chunk",
    [
        # axis-0 blocks: m = 0 alone, runs of whole slices from m = 1 cut at
        # the half boundary, then m = M/2 alone for even M
        (square_lattice(1), 64, 20),  # [0, 1), [1, 21), [21, 32), [32, 33)
        (square_lattice(1), 63, 20),  # [0, 1), [1, 21), [21, 32)
        (dimer_chain(), 33, 5),  # ..., [11, 16), [16, 17)
        (load_graph(HONEYCOMB), 16, 40),  # ..., [5, 7), [7, 8), [8, 9)
        (load_graph(HONEYCOMB), 15, 50),  # [0, 1), [1, 4), [4, 7), [7, 8)
        # every axis folded and swapped: slabs i = 0, 1, 2 of axis 0 (7^2, 6^2
        # and 5^2 points), then the box [3, 6]^3 left in one block
        (square_lattice(3), 12, 100),
        (square_lattice(3), 12, 20),  # slabs i = 0..4, the first three cut into runs of axis 1
        (square_lattice(3), 11, 500),  # the 6^3 folded box fits one block: [0, 1), [1, 6) of axis 0
        (square_lattice(2, 0.3), 16, 40),  # rows i = 0, 1, 2 of axis 0, then the box [3, 8]^2
        (build_graph(PARTIAL_MIRROR), 10, 100),  # axes 0 and 2 folded, axis 1 whole
    ],
    ids=["square1-even", "square1-odd", "dimer-odd", "honeycomb-even", "honeycomb-odd", "square3-even",
         "square3-cut-slabs", "square3-odd", "square2-even", "partial-mirror"],
)
def test_half_sweep_sums_match_the_full_grid(graph, M, chunk, monkeypatch):
    monkeypatch.setattr(floquet, "_CHUNK", chunk)
    ext = band_structure(graph, M).band_extrema
    cases = [(float(ext[:, 0].min()) - 0.5, 1.5, "-"), (float(ext[:, 1].max()) + 0.5, 1.0, "+")]
    # at a sampled band edge the integrand is singular; the edge's own points drop out
    cases += [(float(ext[0, 0]), 0.5, "-"), (float(ext[-1, 1]), 0.5, "+")]
    for lam, power, sign in cases:
        half = _band_power_sums(graph, lam, power, sign, M)
        np.testing.assert_allclose(half, full_grid_power_sums(graph, lam, power, sign, M), rtol=1e-13)


@st.composite
def mirrored_graphs(draw):
    """Connected graphs with nu <= 3, d <= 3 and cells in {-1, 0, 1}^d, their
    edges closed under the flips of a drawn set of axes, which are then mirror
    axes, and maybe under the swap of a drawn pair of axes, which then form
    a swap class if both flip; the others may or may not be either."""
    d = draw(st.integers(1, 3))
    nu = draw(st.integers(1, 3))
    cells = st.tuples(*[st.integers(-1, 1)] * d)
    vertex = st.integers(1, nu)
    vertices = [{"id": j, "offset": [0.0] * d, "Q": draw(st.floats(-2.0, 2.0))} for j in range(1, nu + 1)]
    edges = [(j, j + 1, draw(cells)) for j in range(1, nu)]
    edges += [(1, 1, tuple(int(b == a) for b in range(d))) for a in range(d)]  # the cycles e_a
    edges += [(draw(vertex), draw(vertex), draw(cells)) for _ in range(draw(st.integers(0, 4)))]
    flips = draw(st.sets(st.integers(0, d - 1)))
    pairs = st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True).map(sorted)
    swap = draw(st.none() | pairs) if d > 1 else None
    if swap:
        a, b = swap
        edges += [(j, jp, tuple(n[b] if c == a else n[a] if c == b else n[c] for c in range(d))) for j, jp, n in edges]
        if flips & {a, b}:
            flips |= {a, b}  # the flips, closed under the swap, keep the edges closed under it
    for a in flips:
        edges += [(j, jp, n[:a] + (-n[a],) + n[a + 1 :]) for j, jp, n in edges]
    doc = {"dim": d, "vertices": vertices, "edges": [{"from": j, "to": jp, "cell": list(n)} for j, jp, n in edges]}
    return build_graph(doc), flips, tuple(swap or ())


@settings(max_examples=40, deadline=None)
@given(case=mirrored_graphs(), data=st.data())
def test_reduced_sweep_sums_and_extrema_equal_the_full_sweeps(case, data):
    graph, flips, swap = case
    assert flips <= set(floquet._mirror_axes(graph.edges, graph.dim))
    if set(swap) <= flips:
        assert set(swap) <= set(floquet._swap_class(graph.edges, graph.dim))
    M = data.draw(st.integers(2, 9 if graph.dim < 3 else 6))
    chunk = data.draw(st.integers(1, M**graph.dim))
    with mock.patch.object(floquet, "_CHUNK", chunk):
        full = np.concatenate(list(torus_bands(graph, M)))
        extrema = band_structure(graph, M).band_extrema
        for lam, power, sign in [(float(full.min()) - 0.5, 1.5, "-"), (float(full.max()) + 0.5, 1.0, "+")]:
            sums = _band_power_sums(graph, lam, power, sign, M)
            np.testing.assert_allclose(sums, full_grid_power_sums(graph, lam, power, sign, M), rtol=1e-13)
    atol = 4.0 * np.finfo(float).eps * float(np.abs(full).max())
    np.testing.assert_allclose(extrema, np.stack([full.min(axis=0), full.max(axis=0)], axis=1), rtol=0.0, atol=atol)


def test_square2_gamma_equals_the_lattice_greens_function():
    # Gamma_1^-(lam) = pi G_2(4 - lam) on square:2 with theta = 1, where
    # G_2(z) = (2 / (pi z)) K(16 / z^2), K the complete elliptic integral of
    # the first kind in scipy's parameter convention (Economou, Green's
    # Functions in Quantum Physics)
    z = 4.0 - (-1.0)
    exact = math.pi * 2.0 / (math.pi * z) * float(ellipk(16.0 / z**2))
    res = gamma_coefficient(band_structure(square_lattice(2), 64), -1.0, 1.0, "-", theta_const(1.0))
    assert res.grids == (64, 128)
    assert res.value == pytest.approx(exact, rel=1e-15)


def test_square3_edge_ladder_equals_a_plain_full_grid_sum():
    bands = band_structure(square_lattice(3), 32)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    assert (edge.value, edge.sign) == (0.0, "-")
    rep = edge_integral(bands, edge, 1.0, (32, 64))
    for M, estimate in zip(rep.grids, rep.estimates):
        # 1 / E over the grid, E = 6 - 2 sum_a cos k_a, the point E = 0 dropped
        E = 6.0 - 2.0 * np.cos(torus_grid(3, M)).sum(axis=1)
        plain = float((1.0 / E[E > 16.0 * np.finfo(float).eps]).sum()) * (2.0 * math.pi / M) ** 3
        assert estimate == pytest.approx(plain, rel=1e-13)


def test_signed_part_takes_a_rounding_level_difference_as_zero():
    lam = 3.0
    floor = 16.0 * np.finfo(float).eps * lam
    E = np.array([lam - 0.5 * floor, lam + 0.5 * floor, lam - 2.0 * floor, lam + 2.0 * floor, 2.0, 4.0])
    np.testing.assert_array_equal(_signed_part(lam, E, "+"), [0.0, 0.0, lam - E[2], 0.0, 1.0, 0.0])
    np.testing.assert_array_equal(_signed_part(lam, E, "-"), [0.0, 0.0, 0.0, E[3] - lam, 0.0, 1.0])
    # below |lam| = 1 the floor stays at 16 eps
    np.testing.assert_array_equal(_signed_part(0.0, np.array([1e-15, 1e-14]), "-"), [0.0, 1e-14])


def test_honeycomb_lower_edge_ladder_converges_and_is_weak_member(capsys):
    # Two grid points that LAPACK put 2.2e-15 below the sampled edge
    # 2.987796716926364 used to rule the ladder (1.6e6, 4.1e5, ...).
    argv = ["edge-conditions", "--graph", str(HONEYCOMB), "--gap-index", "1", "--which", "lower"]
    assert main(argv + ["--kappa", "0.5", "--p", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["edge"] == {"value": 2.987796716926364, "sign": "+"}
    assert doc["verdict"] == "convergent"
    np.testing.assert_allclose(doc["estimates"], [44.40, 45.64, 46.02, 46.26], rtol=1e-3)
    assert doc["weak"]["member"] is True and doc["weak"]["sup"] < 400.0


def decorated_honeycomb():
    """The honeycomb of tests/data plus a third vertex, Q = 10, joined to vertex 1 in its own cell."""
    doc = json.loads(HONEYCOMB.read_text())
    doc["vertices"].append({"id": 3, "offset": [0.25, 0.25], "Q": 10.0})
    doc["edges"].append({"from": 1, "to": 3, "cell": [0, 0]})
    return build_graph(doc)


def test_rounding_floor_decides_a_ladder_at_a_lapack_band_edge():
    # nu = 3 bands come from eigvalsh, which puts valley points a few ulps
    # beyond the sampled edge; without the floor the ladder read
    # 4.2e4 at M = 256 and was inconclusive
    graph = decorated_honeycomb()
    bands = band_structure(graph, 32)
    gap = find_gaps(bands)[1]
    assert check_gap_edge_regularity(graph, gap, "lower").verdict == "regular"
    rep = edge_integral(bands, gap_edge(gap, "lower", graph.nu), 0.5)
    assert rep.verdict == "convergent"
    np.testing.assert_allclose(rep.estimates, [52.49, 54.18, 54.70, 55.02], rtol=1e-3)


def lieb_doc(d):
    """The Lieb lattice: a vertex at the cell corner and one at each axis-edge
    midpoint; bands 2..d are flat at 2, the edge of the gap (2, 4)."""
    axes = [[int(b == a) for b in range(d)] for a in range(d)]
    vertices = [{"id": 1, "offset": [0.0] * d, "Q": 0.0}]
    vertices += [{"id": a + 2, "offset": [0.5 * x for x in e], "Q": 0.0} for a, e in enumerate(axes)]
    edges = []
    for a, e in enumerate(axes):
        edges += [{"from": 1, "to": a + 2, "cell": [0] * d}, {"from": a + 2, "to": 1, "cell": e}]
    return {"dim": d, "vertices": vertices, "edges": edges}


def test_a_band_flat_at_the_edge_diverges_and_is_no_weak_member(tmp_path, capsys):
    # The flat band's values lie within the rounding floor of the sampled
    # lower edge 2.0000000000000018, so its signed part read 0 everywhere:
    # the ladder read 42.0/42.6/42.8/43.0 convergent and the edge a weak
    # member with sup 148, though the integrand is infinite on the whole band.
    graph = build_graph(lieb_doc(2))
    bands = band_structure(graph, 64)
    gap = find_gaps(bands)[1]
    assert (gap.lower, gap.upper) == (2.0000000000000018, 4.0)
    lower = gap_edge(gap, "lower", graph.nu)
    rep = edge_integral(bands, lower, 0.5)
    assert rep.verdict == "divergent" and np.all(rep.estimates == math.inf)
    assert weak_edge_membership(bands, lower, 0.5) == gamma.WeakMembership(math.inf, False)
    assert gamma_at_edge(bands, lower, 1.0, theta_const(1.0), kappa=0.5).gamma is None
    assert edge_integral(bands, lower, 0.0).verdict == "convergent"  # kappa = 0: the integrand is 1
    # the upper edge, with no flat band at it, keeps its ladder
    upper = edge_integral(bands, gap_edge(gap, "upper", graph.nu), 0.5)
    assert upper.verdict == "convergent"
    np.testing.assert_allclose(upper.estimates, [42.01, 42.55, 42.82, 42.96], rtol=1e-3)
    # the CLI writes the infinite estimates and sup as JSON null
    path = tmp_path / "lieb.json"
    path.write_text(json.dumps(lieb_doc(2)))
    argv = ["edge-conditions", "--graph", str(path), "--grid", "64", "--gap-index", "1", "--which", "lower"]
    assert main(argv + ["--kappa", "0.5", "--p", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "divergent" and doc["estimates"] == [None] * 4
    assert doc["weak"] == {"p": 0.5, "sup": None, "member": False}


def test_four_dimensions_fail_before_any_torus_sweep(monkeypatch, capsys):
    bands = band_structure(square_lattice(4), 4)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    calls = []
    sweep = floquet._sweep

    def spy(graph, M, *layout):
        calls.append(M)
        return sweep(graph, M, *layout)

    monkeypatch.setattr(floquet, "_sweep", spy)  # under torus_bands and the reduced sweep alike
    assert main(["gamma", "--graph", "square:4", "--lambda", "-1", "--p", "1", "--sign", "minus"]) == 2
    assert "unsupported dimension d=4" in capsys.readouterr().err
    with pytest.raises(GammaError, match="unsupported dimension d=4"):
        gamma_at_edge(bands, edge, 0.5, theta_const(1.0))
    with pytest.raises(GammaError, match="unsupported dimension d=4"):
        asymptotic_table(square_lattice(4), theta_const(1.0), 1.0, -1.0, "-", [1.0], [10])
    assert calls == []
    band_structure(square_lattice(1), 8)  # the spy does see the reduced sweep
    assert calls and set(calls) == {8}
