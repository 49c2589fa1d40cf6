import math

import numpy as np
import pytest
from scipy.integrate import quad

import gapcount.floquet as floquet
from gapcount.floquet import band_structure, find_gaps, gap_edge, torus_blocks, torus_grid
from gapcount.gamma import (
    GammaError,
    _band_power_sums,
    default_kappa,
    edge_integral,
    gamma_at_edge,
    gamma_coefficient,
    sphere_integral,
    weak_edge_membership,
)
from gapcount.periodic_graph import ThetaProfile, square_lattice, theta_const


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
    rep = weak_edge_membership(bands, edge, 0.5, grid=2048)
    assert rep.weak_member is True
    assert rep.weak_sup is not None and rep.weak_sup > 0.0


def test_weak_membership_cubic_large_p_fails():
    bands = band_structure(square_lattice(3), 16)
    edge = gap_edge(find_gaps(bands)[0], "upper", 1)
    rep = weak_edge_membership(bands, edge, 3.0, grid=64)
    assert rep.weak_member is False


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
    blocks = list(torus_blocks(3, 12))
    assert len(blocks) == 18 and max(b.shape[0] for b in blocks) == 100
    np.testing.assert_array_equal(np.concatenate(blocks), torus_grid(3, 12))
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
