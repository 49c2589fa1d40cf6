import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import gapcount.pdo_lab as pdo_lab
from gapcount.floquet import torus_grid
from gapcount.gamma import GammaError
from gapcount.pdo_lab import (
    PdoError,
    SymbolTriple,
    commutator_decay,
    cwikel_ratio,
    dp_vs_formula,
    fourier_modsq_coeffs,
    homogeneous_symbol,
    pdo_singular_values,
    tabulated_symbol,
    torus_exp,
    torus_half_indicator,
    torus_one,
    torus_trig,
)
from gapcount.periodic_graph import box_index, box_shift


def direct_section_svalues(f, g, W, M):
    K = torus_grid(W.dim, M)
    P = np.exp(1j * (K @ W.points.T)) / M ** (W.dim / 2.0)
    T = (np.asarray(f(K))[:, None] * P * W.values[None, :]) @ (
        P.conj().T * np.asarray(g(K))[None, :]
    )
    return np.sort(np.linalg.svd(T, compute_uv=False))[::-1]


def test_modsq_coeffs_constant():
    c = fourier_modsq_coeffs(torus_one(), 32, 4)
    np.testing.assert_allclose(c[4], 1.0, atol=1e-12)
    mask = np.ones(9, dtype=bool)
    mask[4] = False
    np.testing.assert_allclose(c[mask], 0.0, atol=1e-12)


def test_modsq_coeffs_unimodular_phase():
    c = fourier_modsq_coeffs(torus_exp(1), 32, 4)
    np.testing.assert_allclose(c[4], 1.0, atol=1e-12)


def test_modsq_coeffs_two_term():
    c = fourier_modsq_coeffs(torus_trig({0: 1.0, 1: 1.0}), 64, 4)
    np.testing.assert_allclose(c[4], 2.0, atol=1e-12)
    np.testing.assert_allclose(c[5], 1.0, atol=1e-12)
    np.testing.assert_allclose(c[3], 1.0, atol=1e-12)
    np.testing.assert_allclose(c[6], 0.0, atol=1e-12)


def test_modsq_coeffs_two_dimensional_lags():
    # |1 + e^{i(k_1 + 2 k_2)}|^2 = 2 + e^{i(k_1 + 2 k_2)} + e^{-i(k_1 + 2 k_2)}
    c = fourier_modsq_coeffs(torus_trig({(0, 0): 1.0, (1, 2): 1.0}), 32, 4, d=2)
    assert c.shape == (9, 9)
    expected = np.zeros((9, 9))
    expected[4, 4] = 2.0
    expected[4 + 1, 4 + 2] = expected[4 - 1, 4 - 2] = 1.0
    np.testing.assert_allclose(c, expected, atol=1e-12)


def test_modsq_aliasing_guard():
    with pytest.raises(PdoError):
        fourier_modsq_coeffs(torus_one(), 16, 8)


def test_multiplication_identity():
    W = homogeneous_symbol(1.0, 1.0, 1, 16)
    rep = pdo_singular_values(SymbolTriple(torus_one(), torus_one(), W, 1.0, 256))
    expect = np.sort(np.abs(W.values))[::-1]
    np.testing.assert_allclose(rep.svalues.values, expect, atol=1e-10)


def test_single_point_symbol_rank_one():
    W = tabulated_symbol(np.array([[3]]), np.array([2.0 - 1.0j]), 8)
    f = torus_trig({0: 1.0, 1: 0.5})
    g = torus_trig({0: 2.0})
    rep = pdo_singular_values(SymbolTriple(f, g, W, 1.0, 128))
    cf0 = fourier_modsq_coeffs(f, 128, 0)[0].real
    cg0 = fourier_modsq_coeffs(g, 128, 0)[0].real
    assert len(rep.svalues) == 1
    assert rep.svalues.values[0] == pytest.approx(abs(2.0 - 1.0j) * np.sqrt(cf0 * cg0), rel=1e-10)


def test_adjoint_symmetry():
    rng = np.random.default_rng(1)
    pts = np.array([[-2], [0], [3]])
    vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    W = tabulated_symbol(pts, vals, 4)
    Wadj = tabulated_symbol(pts, np.conj(vals), 4)
    f = torus_trig({1: 1.0, -1: 0.3j})
    g = torus_trig({0: 1.0, 2: 0.5})
    a = pdo_singular_values(SymbolTriple(f, g, W, 1.0, 64)).svalues.values
    b = pdo_singular_values(SymbolTriple(g, f, Wadj, 1.0, 64)).svalues.values
    np.testing.assert_allclose(a, b, atol=1e-10)


@pytest.mark.parametrize(
    "real_w, fg",
    [(False, "trig"), (True, "one"), (True, "symmetric-trig"), (False, "trig-g-one")],
    ids=["complex", "real-w-g-one", "real-w-symmetric-trig", "complex-w-g-one"],
)
def test_gram_matches_direct_construction(real_w, fg):
    # g = 1 makes BB* diagonal, and f = g = 1 makes the Gram pair diagonal
    # and takes the closed form; trigonometric f and g take the complex eigh route
    rng = np.random.default_rng(2)
    for _ in range(10):
        L, M = 8, 64
        npts = int(rng.integers(1, 8))
        pts = rng.choice(np.arange(-L, L + 1), size=npts, replace=False)[:, None]
        vals = rng.standard_normal(npts) + (0.0 if real_w else 1j * rng.standard_normal(npts))
        W = tabulated_symbol(pts, vals, L)
        a, b, c, e = rng.standard_normal(4)
        f, g = {
            "trig": (torus_trig({-1: a, 0: b}), torus_trig({0: c, 2: e})),
            "one": (torus_one(), torus_one()),
            "symmetric-trig": (torus_trig({-1: a, 0: b, 1: a}), torus_trig({-2: c, 0: e, 2: c})),
            "trig-g-one": (torus_trig({-1: a, 0: b}), torus_one()),
        }[fg]
        gram = pdo_singular_values(SymbolTriple(f, g, W, 1.0, M)).svalues.values
        direct = direct_section_svalues(f, g, W, M)[: gram.size]
        np.testing.assert_allclose(gram, direct, atol=1e-8 * max(1.0, direct.max()))


@pytest.mark.parametrize(
    "f, g, d, L, kept",
    [
        (torus_half_indicator(), torus_one(), 1, 128, 143),
        (torus_half_indicator(), torus_half_indicator(), 1, 64, 72),
        (torus_exp(1), torus_one(), 1, 64, 128),
        (torus_half_indicator(), torus_one(), 2, 4, 80),
    ],
    ids=["halftorus-one", "halftorus-halftorus", "exp1-one", "halftorus-d2"],
)
def test_gram_trim_keeps_what_a_dense_svd_resolves(f, g, d, L, kept):
    # The Gram routes square the conditioning, so they keep only values above
    # _GRAM_SV_TOL of the largest; a dense SVD at the same trim keeps the same.
    W = homogeneous_symbol(1.0, 1.0, d, L)
    gram = pdo_singular_values(SymbolTriple(f, g, W, 1.0, 8 * L)).svalues.values
    dense = direct_section_svalues(f, g, W, 8 * L)
    dense = dense[dense > pdo_lab._GRAM_SV_TOL * dense[0]]
    assert gram.size == dense.size == kept
    np.testing.assert_allclose(gram, dense, rtol=0.0, atol=1e-11 * dense[0])


def _no_dense_gram(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense Gram route taken")

    monkeypatch.setattr(pdo_lab, "_coeff_matrix", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)


@pytest.mark.parametrize("d, L", [(1, 8), (2, 3), (3, 1)])
@pytest.mark.parametrize("real_w", [True, False], ids=["real-w", "complex-w"])
@pytest.mark.parametrize("fg", ["one", "constant"])
def test_diagonal_gram_route_matches_a_dense_svd(monkeypatch, d, L, real_w, fg):
    # |f|^2 and |g|^2 with no coefficient off lag 0 make both Grams diagonal:
    # the singular values come in closed form, with no N x N array
    rng = np.random.default_rng([d, L, real_w])
    pts = pdo_lab.box_cells(d, L)
    pts = pts[rng.random(pts.shape[0]) < 0.8]
    vals = rng.standard_normal(pts.shape[0]) + (0.0 if real_w else 1j * rng.standard_normal(pts.shape[0]))
    W = tabulated_symbol(pts, vals, L)
    if fg == "one":
        f = g = torus_one()
    else:
        f, g = torus_trig({(0,) * d: 0.7 - 1.3j}), torus_trig({(0,) * d: -0.4 + 0.9j})
    M = 8 * L
    dense_pdo = direct_section_svalues(f, g, W, M)
    # with g = 1 the section of f Phi W Phi* has the singular values of f Phi W
    dense_fphiw = direct_section_svalues(f, torus_one(), W, M)
    _no_dense_gram(monkeypatch)
    gram_pdo = pdo_singular_values(SymbolTriple(f, g, W, 1.0, M)).svalues.values
    gram_fphiw = pdo_lab.fphiw_singular_values(f, W, M).values
    for gram, dense in ((gram_pdo, dense_pdo), (gram_fphiw, dense_fphiw)):
        assert gram.size == W.values.size
        np.testing.assert_allclose(gram, dense[: gram.size], rtol=0.0, atol=1e-12 * dense[0])
        np.testing.assert_array_less(dense[gram.size :], 1e-12 * dense[0])


def test_diagonal_gram_route_is_the_dense_eigensolve_bitwise():
    # the closed form repeats the dense route's float operations on the
    # diagonal, and eigvalsh of an exactly diagonal matrix is its sorted
    # diagonal, so the outputs agree to the last bit
    L, M = 512, 4096
    W = homogeneous_symbol(1.0, 1.0, 1, L)
    one = torus_one()
    cf = fourier_modsq_coeffs(one, M, 2 * L)
    AtA = pdo_lab._coeff_matrix(cf, W.points, 2 * L)
    assert np.count_nonzero(AtA - np.diag(np.diag(AtA))) == 0
    w = (W.values * cf[2 * L] * np.conj(W.values)).real
    order = np.argsort(w, kind="stable")
    r = np.sqrt(w[order])
    X = r[:, None] * AtA.real[np.ix_(order, order)] * r[None, :]
    G = np.conj(W.values)[:, None] * AtA * W.values[None, :]
    for gram, dense in (
        (pdo_singular_values(SymbolTriple(one, one, W, 1.0, M)).svalues.values, X),
        (pdo_lab.fphiw_singular_values(one, W, M).values, pdo_lab._real_if_exact(G)),
    ):
        ev = np.clip(np.linalg.eigvalsh(dense), 0.0, None)
        np.testing.assert_array_equal(gram, np.sqrt(ev)[::-1])


@pytest.mark.parametrize(
    "f, g, dense_calls",
    [
        (torus_trig({-1: 0.5, 0: 1.0}), torus_one(), 1),
        (torus_exp(1), torus_one(), 0),
        (torus_one(), torus_trig({0: 1.0, 2: 0.5}), 2),
    ],
    ids=["trig-g-one", "exp1-one", "one-trig"],
)
def test_gram_pairs_with_a_lag_off_zero_keep_the_dense_route(monkeypatch, f, g, dense_calls):
    # a trigonometric f or g keeps its dense Gram; exp:1, whose |e^{ik}|^2 is
    # 1 only to rounding on the grid, is the control: lag 0 only, no dense Gram
    calls = []
    coeff_matrix = pdo_lab._coeff_matrix

    def counted(*args):
        calls.append(1)
        return coeff_matrix(*args)

    monkeypatch.setattr(pdo_lab, "_coeff_matrix", counted)
    W = homogeneous_symbol(1.0, 1.0, 1, 16)
    gram = pdo_singular_values(SymbolTriple(f, g, W, 1.0, 128)).svalues.values
    assert len(calls) == dense_calls
    dense = direct_section_svalues(f, g, W, 128)[: gram.size]
    np.testing.assert_allclose(gram, dense, rtol=0.0, atol=1e-8 * dense[0])


@pytest.mark.parametrize("d, L", [(1, 4), (2, 2), (3, 1)])
def test_coeff_matrix_indexes_lag_differences(d, L):
    rng = np.random.default_rng(d)
    max_lag = 2 * L
    c = rng.standard_normal((2 * max_lag + 1,) * d)
    pts = pdo_lab.box_cells(d, L)
    expected = np.array([[c[tuple(a - b + max_lag)] for b in pts] for a in pts])
    np.testing.assert_array_equal(pdo_lab._coeff_matrix(c, pts, max_lag), expected)


def test_dp_in_two_dimensions_takes_no_dense_gram(monkeypatch):
    # 16,640 symbol points: one real N x N array of the dense route takes 2.2 GB
    _no_dense_gram(monkeypatch)
    est, formula = dp_vs_formula(torus_one(), 1.0, torus_one(), 1.0, L=64, M=512, d=2)
    assert formula == pytest.approx(np.pi, rel=1e-12)
    assert est.inf_est <= formula <= est.sup_est


def test_dp_half_torus_drops_gram_noise():
    est, formula = dp_vs_formula(torus_half_indicator(), 1.0, torus_one(), 1.0, 128, 1024)
    assert formula == pytest.approx(1.0, rel=1e-12)
    assert est.sup_est == pytest.approx(1.0647459194759885, rel=1e-9)
    assert est.inf_est == pytest.approx(1.0083393773751936, rel=1e-9)


def test_cwikel_regime_validation():
    W = homogeneous_symbol(1.0, 1.0, 1, 16)
    with pytest.raises(PdoError):
        cwikel_ratio(torus_one(), W, 1.0, 3.0, 16, 128)
    with pytest.raises(PdoError):
        cwikel_ratio(torus_one(), W, 3.0, 2.0, 16, 128)


@pytest.mark.parametrize("d, L", [(1, 0), (1, -2), (0, 8), (2, 0)])
def test_homogeneous_symbol_rejects_an_empty_box(d, L):
    with pytest.raises(PdoError, match="at least 1"):
        homogeneous_symbol(1.0, 1.0, d, L)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_p_and_q_rejected(bad):
    with pytest.raises(PdoError, match="finite"):
        homogeneous_symbol(1.0, bad, 1, 16)
    W = homogeneous_symbol(1.0, 2.0, 1, 16)
    with pytest.raises(PdoError, match="admissible"):
        cwikel_ratio(torus_one(), W, 2.0, bad, 16, 128)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_symbol_data_rejected(bad):
    with pytest.raises(PdoError, match="finite"):
        homogeneous_symbol(bad, 1.0, 1, 8)
    with pytest.raises(PdoError, match="finite"):
        homogeneous_symbol(lambda u: np.where(u[:, 0] > 0, bad, 1.0), 1.0, 1, 8)
    with pytest.raises(PdoError, match="finite"):
        tabulated_symbol(np.array([0, 1]), np.array([1.0, bad]), 4)
    W = homogeneous_symbol(1.0, 1.0, 1, 8)
    with pytest.raises(PdoError, match="finite"):
        commutator_decay({1: 1.0, 2: bad}, W, 1.0, 8)


def test_tabulated_symbol_needs_a_point():
    with pytest.raises(PdoError, match="at least one"):
        tabulated_symbol(np.array([], dtype=int), np.array([]), 4)


@pytest.mark.parametrize(
    "points", [np.array([1, 1]), np.array([[0, 2], [1, -1], [0, 2]])], ids=["d1", "d2"]
)
def test_tabulated_symbol_rejects_a_repeated_point(points):
    # W(1) would be 1, 2 or 3 depending on whether the two values are taken
    # as two sites, the last one, or their sum
    with pytest.raises(PdoError, match="must not repeat"):
        tabulated_symbol(points, np.arange(1.0, points.shape[0] + 1.0), 4)


def test_cwikel_scale_invariance():
    L, M = 32, 256
    W = homogeneous_symbol(1.0, 1.0, 1, L)
    W5 = homogeneous_symbol(5.0, 1.0, 1, L)
    r1 = cwikel_ratio(torus_one(), W, 1.0, 2.0, L, M)
    r5 = cwikel_ratio(torus_one(), W5, 1.0, 2.0, L, M)
    assert r5 == pytest.approx(r1, rel=1e-9)


def test_cwikel_finite_support_finite():
    W = tabulated_symbol(np.array([[1], [2]]), np.array([1.0, 0.5]), 8)
    r = cwikel_ratio(torus_one(), W, 1.0, 2.0, 8, 64)
    assert np.isfinite(r) and r > 0.0


def test_dp_formula_multiplication_case():
    est, formula = dp_vs_formula(torus_one(), 1.0, torus_one(), 1.0, 64, 512)
    assert formula == pytest.approx(2.0, abs=1e-10)
    assert 1.8 <= est.inf_est <= est.sup_est <= 2.2


def test_constant_modsq_has_exact_coefficients_in_any_dimension():
    # |2|^2 = 4 at every grid point: 4 at lag 0 and exact zeros, with no FFT rounding
    for d in (1, 2):
        c = fourier_modsq_coeffs(lambda K: np.full(K.shape[0], 2.0 + 0j), 28, 7, d)
        expected = np.zeros((15,) * d, dtype=complex)
        expected[(7,) * d] = 4.0
        np.testing.assert_array_equal(c, expected)


def test_dp_window_of_the_multiplication_case_is_exact_at_every_box():
    # The ties |W(n)| = |W(-n)| = 1/|n| stay exact pairs once |1|^2 has no
    # rounding-level coefficients off lag 0. L <= 4 has fewer than the 10
    # singular values a default window needs.
    off = []
    for L in range(5, 200):
        est, formula = dp_vs_formula(torus_one(), 1.0, torus_one(), 1.0, L, 8 * L)
        if max(abs(est.inf_est - 2.0), abs(est.sup_est - 2.0), abs(formula - 2.0)) > 1e-12:
            off.append((L, est.inf_est, est.sup_est))
    assert off == []


def test_dp_window_of_exp_lags_is_exact_at_every_box():
    # |e^{ik.t}|^2 is 1 only to rounding on the grid; taken as the constant 1,
    # the ties |W(n)| = |W(-n)| stay exact pairs, as with f = g = one
    off = []
    for f, g in ((torus_exp(1), torus_one()), (torus_one(), torus_exp(1)), (torus_exp(3), torus_exp(-2))):
        for L in range(5, 200):
            est, formula = dp_vs_formula(f, 1.0, g, 1.0, L, 8 * L)
            if max(abs(est.inf_est - 2.0), abs(est.sup_est - 2.0), abs(formula - 2.0)) > 1e-12:
                off.append((L, est.inf_est, est.sup_est))
    assert off == []


def test_dp_formula_zero_profile():
    est, formula = dp_vs_formula(torus_one(), 0.0, torus_one(), 1.0, 16, 128)
    assert formula == 0.0
    assert est.sup_est == 0.0


def test_dp_formula_half_torus():
    _, formula = dp_vs_formula(torus_half_indicator(), 1.0, torus_one(), 1.0, 32, 256)
    assert formula == pytest.approx(1.0, rel=1e-2)


def test_a_lag_of_the_wrong_length_is_a_pdo_error():
    # a one-component lag on the 3-torus, as `--g exp:1 --dim 3` builds it
    with pytest.raises(PdoError, match=r"lag \[1\] does not have one component per axis of the 3-torus"):
        dp_vs_formula(torus_one(), 1.0, torus_exp(1), 1.0, 2, 16, d=3)
    with pytest.raises(PdoError, match=r"lag \[1, 2\] does not have one component per axis of the 1-torus"):
        cwikel_ratio(torus_trig({(1, 2): 1.0}), homogeneous_symbol(1.0, 1.0, 1, 4), 1.0, 2.0, 4, 32)


def test_tabulated_symbol_one_dimensional_points():
    W = tabulated_symbol(np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]), 4)
    assert W.points.shape == (3, 1) and W.dim == 1
    np.testing.assert_array_equal(W.points[:, 0], [0, 1, 2])
    W2 = tabulated_symbol(np.array([[0, 1], [2, -1]]), np.array([1.0, 2.0]), 4)
    assert W2.points.shape == (2, 2) and W2.dim == 2


def test_commutator_constant_symbol_is_zero():
    W = homogeneous_symbol(1.0, 1.0, 1, 32)
    rep = commutator_decay({0: 2.0}, W, 1.0, 32)
    assert len(rep.svalues) == 0


def test_commutator_finite_support_finite_rank():
    W = tabulated_symbol(np.array([[0], [1]]), np.array([1.0, 2.0]), 16)
    rep = commutator_decay({1: 1.0}, W, 1.0, 16)
    assert 0 < len(rep.svalues) <= 4


@pytest.mark.parametrize(
    "d, coeffs, v",
    [
        (2, {(1, 0): 1.0, (0, -1): 0.5, (1, 1): 1j}, lambda u: 1.0 + 0.5 * u[:, 0] + 0.3j * u[:, 1]),
        (1, {1: 1.0}, lambda u: 1.0 + 0.5 * u[:, 0]),
        (1, {1: 1.0, -1: 0.5}, lambda u: 1.0 + 0.5 * u[:, 0]),
        (1, {1: 1.0, 2: 0.5j}, lambda u: 1.0 + 0.5 * u[:, 0]),
        (2, {(1, 0): 1.0}, 1.0),
        (2, {(1, 0): 1.0, (0, -1): 0.5, (1, 1): 1j}, 1.0),
    ],
    ids=["d2-three-lags", "d1-one-lag", "d1-two-long-blocks", "d1-one-block", "d2-one-lag-real-w", "d2-thin-blocks"],
)
def test_commutator_decay_matches_explicit_kernel(d, coeffs, v):
    # one lag gives only 1 x 1 blocks, lags 1 and -1 split the kernel into an
    # even and an odd block, and lags 1 and 2 join it into one; W(-n) != W(n)
    # in d = 1, so no entry of those blocks vanishes; a real W in d = 2 makes
    # entries vanish and leaves 1 x 2 and 2 x 1 blocks beside a large one
    L = 3
    W = homogeneous_symbol(v, 1.0, d, L)
    w = {tuple(int(c) for c in n): x for n, x in zip(W.points, W.values)}
    lags = {tuple(np.atleast_1d(t).tolist()): c for t, c in coeffs.items()}
    cells = list(itertools.product(range(-L, L + 1), repeat=d))
    K = np.zeros((len(cells), len(cells)), dtype=complex)
    for i, m in enumerate(cells):
        for j, n in enumerate(cells):
            t = tuple(b - a for a, b in zip(m, n))
            if t in lags:
                K[i, j] += lags[t] * (w.get(n, 0.0) - w.get(m, 0.0))
    sv = np.linalg.svd(K, compute_uv=False)
    sv = sv[sv > 1e-13 * sv[0]]
    rep = commutator_decay(coeffs, W, 1.0, L)
    assert len(rep.svalues) == sv.size > 0
    np.testing.assert_allclose(rep.svalues.values, sv, rtol=0.0, atol=1e-12)


def sparse_commutator_decay(f_coeffs, W, p, L):
    """Oracle: the commutator's s-values and products from a scipy.sparse kernel.

    Each lag's kernel is a CSR matrix added to the sum, which drops exact
    zeros; csgraph's connected components of the row-column pattern give the
    blocks, each with one SVD as in `commutator_decay`.
    """
    d = W.dim
    n = (2 * L + 1) ** d
    wfull = np.zeros(n, dtype=complex)
    wfull[box_index(W.points, L)] = W.values
    K = sp.csr_matrix((n, n), dtype=complex)
    for t, c in f_coeffs.items():
        i, j = box_shift(d, L, np.atleast_1d(np.asarray(t, dtype=int)))
        K = K + sp.csr_matrix((c * (wfull[j] - wfull[i]), (i, j)), shape=(n, n))
    K.eliminate_zeros()
    K = K.tocoo()
    i, j, x = K.row, K.col, K.data
    pattern = sp.coo_matrix((np.ones(x.size), (i, n + j)), shape=(2 * n, 2 * n))
    ncomp, label = connected_components(pattern, directed=False)
    comp = label[i]
    nrows, ncols = np.bincount(label[:n], minlength=ncomp), np.bincount(label[n:], minlength=ncomp)
    one = ((nrows == 1) & (ncols == 1))[comp]
    parts = [np.abs(x[one])]
    for c in np.unique(comp[~one]):
        e = comp == c
        rows, r = np.unique(i[e], return_inverse=True)
        cols, s = np.unique(j[e], return_inverse=True)
        block = np.zeros((rows.size, cols.size), dtype=x.dtype)
        block[r, s] = x[e]
        parts.append(np.linalg.svd(pdo_lab._real_if_exact(block), compute_uv=False))
    sv = pdo_lab._nonzero(np.sort(np.concatenate(parts))[::-1], pdo_lab._SV_TOL)
    return sv, sv * np.arange(1, sv.size + 1, dtype=float) ** (1.0 / p)


@pytest.mark.parametrize(
    "d, coeffs, v, L",
    [
        (1, {1: 1.0}, 1.0, 64),
        (1, {1: 1.0, 2: 0.5j, -1: 0.25}, lambda u: 1.0 + 0.5 * u[:, 0], 20),
        (1, {1: 1.0, (1,): 0.5}, lambda u: 1.0 + 0.5 * u[:, 0], 16),
        (1, {1: 2.0, (1,): -2.0, 2: 1.0}, 1.0, 16),
        (1, {1: 0.0, 2: 1.5}, 1.0, 12),
        (2, {(1, 0): 1.0}, lambda u: 1.0 + 0.5 * u[:, 0] + 0.3j * u[:, 1], 8),
        (2, {(1, 0): 1.0, (0, -1): 0.5, (1, 1): 1j}, 1.0, 6),
        (3, {(1, 0, 0): 1.0}, 1.0, 4),
        (3, {(1, 0, 0): 1.0, (0, 1, 0): 0.0, (0, 0, -1): 2.0 - 1.0j}, lambda u: 1.0 + u[:, 2] ** 2, 3),
    ],
    ids=["d1-one-lag", "d1-three-lags", "d1-lag-1-and-(1,)", "d1-lags-cancel", "d1-zero-coeff",
         "d2-one-lag", "d2-three-lags", "d3-one-lag", "d3-three-lags-zero-coeff"],
)
def test_commutator_decay_bitwise_equals_sparse_oracle(d, coeffs, v, L):
    # a lag given as 1 and as (1,) puts two entries at each key, summed in
    # lag order; lags whose coefficients cancel leave exact zeros to drop
    W = homogeneous_symbol(v, 1.3, d, L)
    sv, products = sparse_commutator_decay(coeffs, W, 1.3, L)
    rep = commutator_decay(coeffs, W, 1.3, L)
    assert rep.svalues.values.tobytes() == sv.tobytes()
    assert rep.products.tobytes() == products.tobytes()


@st.composite
def bipartite_edges(draw):
    """Vertex count and the ends of edges from rows [0, m) to columns [m, 2m), some repeated."""
    m = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=3 * m))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    a = np.array([r for r, _ in pairs], dtype=int)
    b = np.array([m + c for _, c in pairs], dtype=int)
    return 2 * m, a, b


@settings(max_examples=200, deadline=None)
@given(case=bipartite_edges())
@example(case=(6, np.empty(0, dtype=int), np.empty(0, dtype=int)))
def test_connected_components_match_csgraph(case):
    nv, a, b = case
    label = pdo_lab._connected_components(nv, a, b)
    ncomp, ref = connected_components(sp.coo_matrix((np.ones(a.size), (a, b)), shape=(nv, nv)), directed=False)
    smallest = np.full(ncomp, nv)
    np.minimum.at(smallest, ref, np.arange(nv))
    np.testing.assert_array_equal(label, smallest[ref])


def test_commutator_decay_trend():
    L = 128
    W = homogeneous_symbol(1.0, 1.0, 1, L)
    rep = commutator_decay({1: 1.0}, W, 1.0, L)
    prods = rep.products
    assert prods.size >= 60
    assert prods[9] > 2.0 * prods[49]


def test_homogeneous_symbol_values():
    W = homogeneous_symbol(1.0, 2.0, 1, 4)
    idx = {int(n): v for n, v in zip(W.points[:, 0], W.values)}
    assert 0 not in idx
    assert idx[2] == pytest.approx(2.0 ** (-0.5))
    assert idx[-3] == pytest.approx(3.0 ** (-0.5))


def test_dp_rejects_dimension_4_before_its_gram(monkeypatch):
    def no_gram(triple):
        raise AssertionError("Gram formed before the dimension check")

    monkeypatch.setattr(pdo_lab, "pdo_singular_values", no_gram)
    with pytest.raises(GammaError, match="unsupported dimension d=4"):
        dp_vs_formula(torus_one(), 1.0, torus_one(), 1.0, 3, 24, d=4)
