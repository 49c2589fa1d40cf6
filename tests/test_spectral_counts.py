import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gapcount.periodic_graph as pg
import gapcount.spectral_counts as sc
from gapcount.floquet import Gap, band_structure, find_gaps
from gapcount.gamma import GammaError
from gapcount.periodic_graph import (
    assemble_truncated,
    dimer_chain,
    load_graph,
    sample_potential,
    square_lattice,
    theta_const,
    theta_cos2,
)
from gapcount.spectral_counts import (
    CountingError,
    asymptotic_table,
    bs_matrix,
    counting_bs,
    counting_direct,
    default_lambda_ladder,
    edge_counting,
    eigencount_below,
    inertia,
)


def svals_count(A: np.ndarray, s: float) -> int:
    return int(np.count_nonzero(np.linalg.svd(A, compute_uv=False) > s))


# ---------------------------------------------------------------------------
# scalar model H=[2], V=[1]


def test_scalar_bs_matrix():
    X = bs_matrix(np.array([[2.0]]), np.array([1.0]), -1.0)
    np.testing.assert_allclose(X.eigenvalues, [-1.0 / 3.0])


def test_scalar_counting_both_routes():
    H = np.array([[2.0]])
    v = np.array([1.0])
    X = bs_matrix(H, v, -1.0)
    for tau in (1.0, 2.9, 3.1, 10.0):
        expected = 1 if tau > 3.0 else 0
        assert counting_bs(X, tau, "-").value == expected
        assert counting_direct(H, v, -1.0, tau, "-").value == expected
        assert counting_bs(X, tau, "+").value == 0
        assert counting_direct(H, v, -1.0, tau, "+").value == 0


def test_direct_route_flags_lambda_at_an_eigenvalue_of_the_perturbed_box():
    # lambda = 1 is an eigenvalue of H + tau V = diag(1, 2) at tau = 1, and of neither at tau = 1/2
    H = np.diag([0.0, 2.0])
    v = np.array([1.0, 0.0])
    X = bs_matrix(H, v, 1.0)
    assert counting_bs(X, 1.0, "+") == (0, True)
    assert counting_direct(H, v, 1.0, 1.0, "+") == (1, True)
    assert counting_bs(X, 0.5, "+") == (0, False)
    assert counting_direct(H, v, 1.0, 0.5, "+") == (0, False)


def test_empty_potential():
    H = np.diag([1.0, 3.0])
    X = bs_matrix(H, np.zeros(2), 2.0)
    assert X.eigenvalues.shape == (0,)
    assert counting_bs(X, 5.0, "-").value == 0
    assert counting_direct(H, np.zeros(2), 2.0, 5.0, "+").value == 0


@pytest.mark.parametrize("sign", ["+", "-"])
def test_an_empty_box_counts_zero_on_both_routes(sign):
    # reversal keeps the 0 x 0 box, which stays one empty block
    H, v = sp.csc_matrix((0, 0)), np.zeros(0)
    X = bs_matrix(H, v, 0.5)
    assert len(X.blocks) == 1 and X.eigenvalues.shape == (0,)
    assert counting_bs(X, 2.0, sign) == counting_direct(H, v, 0.5, 2.0, sign) == (0, False)
    gap = Gap(-math.inf, 1.0, "left-semi-infinite", None)
    assert edge_counting(H, v, gap, 2.0, "-").estimate == 0


def test_lambda_near_spectrum_rejected():
    H = np.diag([1.0, 3.0])
    with pytest.raises(CountingError, match="eigenvalue"):
        bs_matrix(H, np.ones(2), 1.0 + 1e-12)


def test_eigencount_below_tridiagonal_matches_dense():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        A = sp.diags([e, d, e], [-1, 0, 1]).tocsr()
        x = float(rng.standard_normal())
        dense = int(np.count_nonzero(np.linalg.eigvalsh(A.toarray()) < x))
        assert eigencount_below(A, x) == dense


def test_bs_identity_random_models():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        nlow = int(rng.integers(1, n))
        evs = np.concatenate([rng.uniform(0, 1, nlow), rng.uniform(2, 3, n - nlow)])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(evs) @ Q.T
        A = 0.5 * (A + A.T)
        v = rng.uniform(0, 2, n)
        v[rng.random(n) < 0.3] = 0.0
        lam = float(rng.uniform(1.2, 1.8))
        X = bs_matrix(A, v, lam)
        for sign in ("+", "-"):
            tau = float(rng.uniform(0.5, 8.0))
            t = tau if sign == "+" else -tau
            if np.min(np.abs(np.linalg.eigvalsh(A + t * np.diag(v)) - lam)) < 1e-6:
                continue
            assert counting_bs(X, tau, sign).value == counting_direct(A, v, lam, tau, sign).value


def test_counts_monotone_in_tau_and_rank_bounded():
    rng = np.random.default_rng(5)
    A = np.diag(np.linspace(0.0, 1.0, 10))
    v = np.zeros(10)
    v[:4] = rng.uniform(0.5, 1.5, 4)
    X = bs_matrix(A, v, 2.0)
    last = 0
    for tau in (0.5, 1.0, 2.0, 5.0, 20.0):
        c = counting_bs(X, tau, "+").value
        assert c >= last
        assert c <= 4  # rank bound: support size
        last = c


def test_singular_value_square_identity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        A = rng.standard_normal((int(rng.integers(2, 10)), int(rng.integers(2, 10))))
        s = float(rng.uniform(0.1, 3.0))
        n_sq = int(np.count_nonzero(np.linalg.eigvalsh(A.T @ A) > s))
        assert n_sq == svals_count(A, math.sqrt(s))


def test_fan_inequality():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = 8
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        A, B = 0.5 * (A + A.T), 0.5 * (B + B.T)
        for s in (0.2, 0.7, 1.5):
            for t in (0.3, 1.0):
                assert svals_count(A + B, s + t) <= svals_count(A, s) + svals_count(B, t)


def test_default_lambda_ladder_monotone():
    gap = Gap(1.0, 2.0, "interior", 2)
    up = default_lambda_ladder(gap, "+")
    down = default_lambda_ladder(gap, "-")
    assert np.all(np.diff(up) < 0) and up[0] < 2.0 and up[-1] > 1.0
    assert np.all(np.diff(down) > 0) and down[-1] < 2.0


def test_edge_counting_scalar_model():
    H = np.array([[2.0]])
    v = np.array([1.0])
    gap = Gap(-math.inf, 2.0, "left-semi-infinite", None)
    res = edge_counting(H, v, gap, tau=4.0, sign="-")
    assert res.estimate == 1
    assert res.counts[-1] == res.counts[-2]
    assert np.all(np.diff(res.counts) >= 0)


def test_edge_counting_ladder_nondecreasing_chain():
    graph = square_lattice(1)
    H = assemble_truncated(graph, 200)
    V = sample_potential(graph, theta_const(1.0), 1.0, 200)
    gap = find_gaps(band_structure(graph, 32))[0]
    res = edge_counting(H, V, gap, tau=10.0, sign="-")
    assert np.all(np.diff(res.counts) >= 0)


def test_edge_counting_certifies_the_ladder_with_two_counts(monkeypatch):
    graph = square_lattice(1)
    H = assemble_truncated(graph, 200)
    V = sample_potential(graph, theta_const(1.0), 1.0, 200)
    gap = find_gaps(band_structure(graph, 32))[0]
    calls = []
    factor = sc._factor
    monkeypatch.setattr(sc, "_factor", lambda A, x: calls.append(x) or factor(A, x))
    edge_counting(H, V, gap, tau=10.0, sign="-")
    # two resolvent counts for the whole ladder, then one shifted count per rung
    assert len(calls) == 2 + sc._LADDER_DEPTH


def test_edge_counting_bisects_a_ladder_around_an_eigenvalue():
    H = np.diag([-1.0, 0.6, 2.0])
    v = np.array([1.0, 0.0, 1.0])
    gap = Gap(0.0, 1.0, "interior", 2)
    lams = default_lambda_ladder(gap, "-")
    assert lams[0] < 0.6 < lams[1]  # the eigenvalue lies inside the ladder's span
    A = sc._symmetric_matrix(H)
    want = [sc._direct_count(A, v, lam, -3.0, sc._resolvent_counts(A, [lam])[0]) for lam in lams]
    np.testing.assert_array_equal(edge_counting(H, v, gap, tau=3.0, sign="-").counts, want)
    np.testing.assert_array_equal(sc._resolvent_counts(A, lams), [1] + [2] * (lams.size - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-8, 8), min_size=1, max_size=12),
    st.lists(st.integers(-10, 10), min_size=1, max_size=14),
)
def test_resolvent_counts_match_a_dense_oracle(eigenvalues, lambdas):
    # quarter steps, some shifted by 0.1: each lambda is on an eigenvalue or
    # at least 0.1 from every one, and a ladder may straddle several
    ev = np.array(eigenvalues) / 4.0
    lams = np.array(lambdas) / 4.0 + 0.1 * (np.array(lambdas) % 3 == 1)
    A = sc._symmetric_matrix(np.diag(ev))
    on = [lam for lam in lams if np.any(ev == lam)]
    if on:
        # the first lambda on the spectrum, in the order given
        with pytest.raises(CountingError, match=f"lambda={on[0]} is within"):
            sc._resolvent_counts(A, lams)
    else:
        np.testing.assert_array_equal(sc._resolvent_counts(A, lams), [np.count_nonzero(ev < lam) for lam in lams])


def test_edge_counting_rejects_a_rung_on_an_eigenvalue():
    H = np.diag([-1.0, 0.75, 2.0])
    v = np.array([1.0, 0.0, 1.0])
    gap = Gap(0.0, 1.0, "interior", 2)
    with pytest.raises(CountingError, match=r"lambda=0\.75 is within"):
        edge_counting(H, v, gap, tau=3.0, sign="-")


def test_asymptotic_table_schema_and_identity():
    table = asymptotic_table(
        square_lattice(1),
        theta_const(1.0),
        p=1.0,
        lam=-1.0,
        sign="-",
        tau_list=(5.0, 10.0),
        L_list=(50, 100, 200),
        grid=32,
    )
    assert all(r.N_bs == r.N_direct for r in table.rows)
    assert all(r.ratio >= 0.0 for r in table.rows)
    assert len(table.rows) == 2


def test_asymptotic_table_assembles_each_box_once(monkeypatch):
    calls = []

    def spy(graph, L):
        calls.append(L)
        return assemble_truncated(graph, L)

    monkeypatch.setattr(pg, "assemble_truncated", spy)
    monkeypatch.setattr(sc, "assemble_truncated", spy)
    asymptotic_table(
        square_lattice(1), theta_const(1.0), p=1.0, lam=-1.0, sign="-",
        tau_list=(2.0,), L_list=(20, 40), grid=32,
    )
    assert sorted(calls) == [20, 40]


def test_asymptotic_table_counts_n_bs_once_per_tau(monkeypatch):
    direct, bs = [], []
    count_direct, count_bs = sc._direct_count, sc.counting_bs

    def direct_spy(A, v, lam, t, below):
        direct.append((A.shape[0], abs(t)))
        return count_direct(A, v, lam, t, below)

    def bs_spy(X, tau, sign):
        bs.append((X.H.shape[0], tau))
        return count_bs(X, tau, sign)

    monkeypatch.setattr(sc, "_direct_count", direct_spy)
    monkeypatch.setattr(sc, "counting_bs", bs_spy)
    table = asymptotic_table(
        square_lattice(1), theta_const(1.0), p=1.0, lam=-1.0, sign="-",
        tau_list=(2.0, 4.0, 2.0), L_list=(20, 40, 80), grid=32,
    )
    assert [(r.tau, r.L, r.N_bs, r.flags) for r in table.rows] == [(2.0, 80, 1, ()), (4.0, 80, 3, ()), (2.0, 80, 1, ())]
    assert all(r.N_bs == r.N_direct for r in table.rows)
    # N_direct from the largest box down, each distinct tau once per box; the
    # top pair settles both taus, so the box of 41 sites counts none
    assert direct == [(161, 4.0), (161, 2.0), (81, 4.0), (81, 2.0)]
    # N_bs once per distinct tau, on its row's box, widest threshold first
    assert bs == [(161, 4.0), (161, 2.0)]


def test_asymptotic_table_skips_the_tails_of_settled_boxes(monkeypatch):
    built, counted = [], []
    build, count = sc.bs_matrix, sc.BSBlock.count

    def build_spy(H, V, lam):
        X = build(H, V, lam)
        built.append(X.H.shape[0])
        return X

    def count_spy(self, *args):
        counted.append(self.size)
        return count(self, *args)

    monkeypatch.setattr(sc, "bs_matrix", build_spy)
    monkeypatch.setattr(sc.BSBlock, "count", count_spy)
    runs = _spy_tail_runs(monkeypatch)
    table = asymptotic_table(
        square_lattice(1), theta_const(1.0), p=1.0, lam=-1.0, sign="-",
        tau_list=(2.0, 4.0), L_list=(20, 40, 80), grid=32,
    )
    # the boxes L = 40 and 80 agree for both taus, so only the even and odd
    # blocks of L = 80, of 81 and 80 sites, count, and each runs one tail at
    # the widest threshold
    assert [(r.L, r.N_bs, r.flags) for r in table.rows] == [(80, 1, ()), (80, 3, ())]
    assert built == [41, 81, 161]
    assert counted == [81, 80, 81, 80]
    assert runs == [(81, 1.0 / 4.0), (80, 1.0 / 4.0)]


_BOXES = (10, 20, 40, 80)


def _fake_direct_counts(monkeypatch, ndir):
    """Make _direct_count return ndir[tau][k] on the k-th box of _BOXES and
    record the (box, tau) pairs it is asked for."""
    calls = []
    box = {2 * L + 1: k for k, L in enumerate(_BOXES)}

    def fake(A, v, lam, t, below):
        k = box[A.shape[0]]
        calls.append((_BOXES[k], abs(t)))
        return ndir[abs(t)][k]

    monkeypatch.setattr(sc, "_direct_count", fake)
    return calls


def _reference_rows(graph, ndir, gamma):
    """Rows by taking the larger box of the last pair of consecutive boxes
    whose N_direct agree, or the largest box, unstabilized, and counting N_bs
    on that box."""
    rows = []
    for tau, counts in ndir.items():
        same = [k + 1 for k in range(len(_BOXES) - 1) if counts[k] == counts[k + 1]]
        k = same[-1] if same else len(_BOXES) - 1
        L = _BOXES[k]
        H, v = assemble_truncated(graph, L), sample_potential(graph, theta_const(1.0), 1.0, L)
        cb = counting_bs(bs_matrix(H, v, -1.0), tau, "-")
        flags = ("unstabilized",) * (not same) + ("boundary",) * cb.boundary + ("mismatch",) * (cb.value != counts[k])
        rows.append((tau, L, cb.value, counts[k], flags, cb.value / (tau * gamma)))
    return rows


def test_asymptotic_table_counts_small_boxes_only_for_unsettled_taus(monkeypatch):
    graph = square_lattice(1)
    # the true N_bs is 0, 1, 3 and 7 on every box
    ndir = {
        1.0: [1, 0, 0, 0],  # the top pair agrees: row L = 80
        2.0: [0, 1, 1, 2],  # L = 20 and 40 agree: row L = 40
        4.0: [3, 3, 2, 1],  # only L = 10 and 20 agree: row L = 20
        8.0: [4, 5, 6, 8],  # no pair agrees: row L = 80, unstabilized, and 8 != 7
    }
    calls = _fake_direct_counts(monkeypatch, ndir)
    bs = []
    count_bs = sc.counting_bs

    def bs_spy(X, tau, sign):
        bs.append(((X.H.shape[0] - 1) // 2, tau))
        return count_bs(X, tau, sign)

    monkeypatch.setattr(sc, "counting_bs", bs_spy)
    table = asymptotic_table(graph, theta_const(1.0), p=1.0, lam=-1.0, sign="-", tau_list=tuple(ndir), L_list=_BOXES)
    rows = [(r.tau, r.L, r.N_bs, r.N_direct, r.flags, r.ratio) for r in table.rows]
    assert rows == _reference_rows(graph, ndir, table.gamma.value)
    assert [r.flags for r in table.rows] == [(), (), (), ("unstabilized", "mismatch")]
    # N_direct from the largest box down, widest threshold first, unsettled
    # taus only
    assert calls == [
        (80, 8.0), (80, 4.0), (80, 2.0), (80, 1.0),
        (40, 8.0), (40, 4.0), (40, 2.0), (40, 1.0),
        (20, 8.0), (20, 4.0), (20, 2.0),
        (10, 8.0), (10, 4.0),
    ]
    # N_bs once per tau, on its row's box, widest threshold first
    assert bs == [(80, 8.0), (20, 4.0), (40, 2.0), (80, 1.0)]


def _oracle_rows(graph, theta, p, lam, sign, tau_list, L_list, gamma):
    """Rows by counting N_bs and N_direct on every box and taking the larger
    box of the last pair of consecutive boxes whose N_bs agree, or the largest
    box, unstabilized.  The two routes must agree on every box."""
    counts = []
    for L in L_list:
        H, v = assemble_truncated(graph, L), sample_potential(graph, theta, p, L)
        X = bs_matrix(H, v, lam)
        counts.append({tau: (counting_bs(X, tau, sign), counting_direct(H, v, lam, tau, sign).value) for tau in tau_list})
    rows = []
    for tau in tau_list:
        nbs = [c[tau][0].value for c in counts]
        assert nbs == [c[tau][1] for c in counts]
        same = [k + 1 for k in range(len(L_list) - 1) if nbs[k] == nbs[k + 1]]
        k = same[-1] if same else len(L_list) - 1
        cb, ndir = counts[k][tau]
        flags = ("unstabilized",) * (not same) + ("boundary",) * cb.boundary + ("mismatch",) * (cb.value != ndir)
        rows.append(sc.CountRow(tau, L_list[k], cb.value, ndir, cb.value / (tau**p * gamma), flags))
    return tuple(rows)


_HONEYCOMB = load_graph(Path(__file__).parent / "data" / "honeycomb.json")


@pytest.mark.parametrize(
    "graph, theta, p, lam, sign, tau_list, L_list, rows_L",
    [
        (square_lattice(1), theta_const(1.0), 1.0, -1.0, "-", (5.0, 10.0, 20.0), (2, 3, 4, 6, 200), [200, 6, 200]),
        (square_lattice(1), theta_const(1.0), 2.0, -1.0, "-", (2.0, 3.0), (2, 3, 4, 90), [90, 3]),
        (dimer_chain(), theta_const(1.0), 1.0, 3.0, "-", (3.0, 6.0), (2, 3, 4, 60), [60, 4]),
        (dimer_chain(), theta_const(1.0), 1.0, 3.0, "+", (3.0, 6.0), (2, 3, 4, 6, 60), [60, 4]),
        (_HONEYCOMB, theta_const(1.0), 1.0, 3.5, "-", (4.0, 9.0), (1, 2, 3, 30), [30, 30]),
        (_HONEYCOMB, theta_const(1.0), 1.0, 3.5, "+", (4.0, 9.0), (1, 2, 3, 30), [3, 30]),
        (square_lattice(2), theta_cos2(), 1.0, -1.0, "-", (4.0, 8.0), (1, 2, 3, 30), [30, 30]),
    ],
    ids=["square1-p1", "square1-p2", "dimer-minus", "dimer-plus", "honeycomb-minus", "honeycomb-plus", "square2-cos2"],
)
def test_asymptotic_table_matches_the_n_bs_rule_on_every_box(graph, theta, p, lam, sign, tau_list, L_list, rows_L):
    # boxes small enough that some rows settle below the top pair, or not at all
    table = asymptotic_table(graph, theta, p, lam, sign, tau_list, L_list, grid=32)
    assert table.rows == _oracle_rows(graph, theta, p, lam, sign, tau_list, L_list, table.gamma.value)
    assert [r.L for r in table.rows] == rows_L


def test_asymptotic_table_checks_a_box_whose_tails_it_skips(monkeypatch):
    check = sc._resolvent_counts

    def reject_smallest(A, lams):
        if A.shape[0] == 2 * _BOXES[0] + 1:
            raise CountingError(f"lambda={lams[0]} is within 1e-8 of the spectrum")
        return check(A, lams)

    monkeypatch.setattr(sc, "_resolvent_counts", reject_smallest)
    # the boxes L = 40 and 80 agree for tau = 2, so L = 10 needs no count
    with pytest.raises(CountingError, match="within 1e-8"):
        asymptotic_table(
            square_lattice(1), theta_const(1.0), p=1.0, lam=-1.0, sign="-",
            tau_list=(2.0,), L_list=_BOXES, grid=32,
        )


@pytest.mark.parametrize(
    "tau_list, L_list, match",
    [
        ((), (20, 40), "tau_list"),
        ((2.0,), (40.5, 60), "integers"),
        ((2.0,), (-5, 40), "integers"),
        # checked before sorting, which raised a bare TypeError on the first
        # two; True is an int, but not a box radius
        ((2.0,), (10, None), "integers"),
        ((2.0,), (10, "20"), "integers"),
        ((2.0,), (True, 40), "integers"),
    ],
    ids=["no-tau", "fractional-L", "negative-L", "none-L", "string-L", "bool-L"],
)
def test_asymptotic_table_rejects_inputs_before_the_bands(monkeypatch, tau_list, L_list, match):
    def no_bands(*args):
        raise AssertionError("bands computed for inputs the table rejects")

    monkeypatch.setattr(sc, "band_structure", no_bands)
    with pytest.raises(CountingError, match=match):
        asymptotic_table(
            square_lattice(1), theta_const(1.0), p=1.0, lam=-1.0, sign="-",
            tau_list=tau_list, L_list=L_list, grid=32,
        )


@pytest.mark.parametrize("L_list", [(20, 20), ()], ids=["repeated", "empty"])
def test_asymptotic_table_rejects_repeated_or_missing_radii(monkeypatch, L_list):
    def no_bands(*args):
        raise AssertionError("bands computed for inputs the table rejects")

    monkeypatch.setattr(sc, "band_structure", no_bands)
    with pytest.raises(CountingError, match="at least one box radius and no repeats"):
        asymptotic_table(
            square_lattice(1), theta_const(1.0), p=1.0, lam=-1.0, sign="-",
            tau_list=(2.0,), L_list=L_list, grid=32,
        )


@pytest.mark.parametrize(
    "graph, lam, below", [(square_lattice(1), -1.0, 0), (dimer_chain(), 3.0, 81)], ids=["square1", "dimer"]
)
def test_bs_matrix_keeps_the_count_below_lambda(graph, lam, below):
    H = assemble_truncated(graph, 40)
    X = bs_matrix(H, sample_potential(graph, theta_const(1.0), 1.0, 40), lam)
    assert X.below == eigencount_below(H, lam) == below
    assert H.nsites == 81 * graph.nu


def test_asymptotic_table_rejects_small_box():
    with pytest.raises(CountingError, match="support heuristic"):
        asymptotic_table(
            square_lattice(1),
            theta_const(1.0),
            p=1.0,
            lam=-1.0,
            sign="-",
            tau_list=(50.0,),
            L_list=(10, 20),
            grid=32,
        )


def test_asymptotic_table_rejects_lambda_in_band(monkeypatch):
    assembled = []
    monkeypatch.setattr(sc, "assemble_truncated", lambda *args: assembled.append(args))
    with pytest.raises(GammaError, match="inside band"):
        asymptotic_table(
            square_lattice(1),
            theta_const(1.0),
            p=1.0,
            lam=2.0,
            sign="-",
            tau_list=(1.0,),
            L_list=(10, 20),
            grid=32,
        )
    assert assembled == []


def dense_count(A, x: float) -> int:
    A = A.toarray() if sp.issparse(A) else np.asarray(A)
    return int(np.count_nonzero(np.linalg.eigvalsh(A) < x))


# ---------------------------------------------------------------------------
# the sparse LDL^T inertia primitive against a dense eigensolve


@pytest.mark.parametrize("L", [1, 2, 8, 24])
def test_inertia_exact_zero_pivots(L):
    # square:2, lambda=-1, tau=5: the diagonal of H - 5V + 1 is exactly 0 at
    # the origin and its 4 neighbours; a minimum-degree LDL^T pivots off the
    # diagonal there and miscounts, so the primitive must not report it.
    graph = square_lattice(2)
    H = assemble_truncated(graph, L)
    v = sample_potential(graph, theta_const(1.0), 1.0, L)
    A = H.matrix - 5.0 * sp.diags(v)
    res = inertia(A, -1.0)
    assert res.below == dense_count(A, -1.0)
    assert res.route != "mmd"
    # H_L >= 0 has no eigenvalue below -1.
    assert counting_direct(H, v, -1.0, 5.0, "-").value == res.below


def _lattice_matrix(draw) -> np.ndarray:
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = a * b
    A = np.zeros((n, n))
    for i in range(a):
        for j in range(b):
            k = i * b + j
            if i + 1 < a:
                A[k, k + b] = A[k + b, k] = -1.0
            if j + 1 < b:
                A[k, k + 1] = A[k + 1, k] = -1.0
    A[np.diag_indices(n)] = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    return A


def _indefinite_matrix(draw) -> np.ndarray:
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = sp.random(n, n, density=draw(st.floats(0.05, 0.5)), random_state=rng).toarray()
    B = np.round(4.0 * (B - 0.5 * (B != 0)), draw(st.sampled_from([0, 1, 8])))
    return B + B.T + np.diag(np.round(rng.normal(0.0, 2.0, n)))


def _tridiagonal_matrix(draw) -> np.ndarray:
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = rng.standard_normal(n - 1)
    return np.diag(rng.standard_normal(n)) + np.diag(e, 1) + np.diag(e, -1)


@st.composite
def symmetric_with_shift(draw):
    kind = draw(st.sampled_from([_indefinite_matrix, _lattice_matrix, _tridiagonal_matrix]))
    A = kind(draw)
    # Shifts at a diagonal entry put exact zeros on the diagonal of A - xI.
    x = draw(st.one_of(st.floats(-10.0, 10.0), st.sampled_from(sorted(set(np.diag(A))))))
    w = np.linalg.eigvalsh(A)
    assume(np.min(np.abs(w - x)) >= 1e-8)
    return A, float(x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symmetric_with_shift())
def test_inertia_matches_dense_count(case):
    A, x = case
    assert inertia(sp.csr_matrix(A), x).below == dense_count(A, x)


# ---------------------------------------------------------------------------
# the matrix-free partial BS spectrum against the dense formed X


def _dense_bs_eigenvalues(H, v, lam):
    """The eigenvalues of S (lambda I - H_L)^{-1} S, S = V^{1/2} on the support
    of V, by numpy from the dense H_L: an oracle that shares no code with
    bs_matrix."""
    A = (H.matrix if isinstance(H, pg.FiniteHamiltonian) else sp.csr_matrix(H)).toarray()
    s = np.flatnonzero(v > 0.0)
    X = np.sqrt(v[s])[:, None] * np.linalg.solve(lam * np.eye(A.shape[0]) - A, np.eye(A.shape[0])[:, s])[s]
    X *= np.sqrt(v[s])[None, :]
    return np.linalg.eigvalsh(0.5 * (X + X.T))


def _bs_against_dense(H, v, lam, sign, taus, *, dense=False):
    """Check counting_bs against the dense oracle; `dense` says whether the
    counts must come from the dense X_b of every block (True) or from block
    Lanczos (False)."""
    w = _dense_bs_eigenvalues(H, v, lam)
    X = bs_matrix(H, v, lam)
    for tau in taus:
        thr = 1.0 / tau
        expected = (
            int(np.count_nonzero(w > thr)) if sign == "+" else int(np.count_nonzero(w < -thr)),
            bool(np.min(np.abs(w - thr if sign == "+" else w + thr)) <= 1e-10),
        )
        assert tuple(counting_bs(X, tau, sign)) == expected
    assert all((b._eigenvalues is not None) == dense for b in X.blocks)  # whether a dense X_b was formed
    return w


def test_bs_partial_spectrum_below_the_spectrum():
    graph = square_lattice(1)
    H = assemble_truncated(graph, 300)
    v = sample_potential(graph, theta_const(1.0), 1.0, 300)
    w = _bs_against_dense(H, v, -1.0, "-", (5.0, 40.0, 20.0, 100.0))
    assert np.count_nonzero(w < -1.0 / 100.0) > 2 * sc._BLOCK
    _bs_against_dense(H, v, -1.0, "+", (5.0, 100.0))


def test_bs_partial_spectrum_interior_gap_both_signs():
    graph = dimer_chain()
    H = assemble_truncated(graph, 150)
    v = sample_potential(graph, theta_const(1.0), 1.0, 150)
    lam = 3.0  # inside the interior gap (2, 4): X is indefinite
    w = _dense_bs_eigenvalues(H, v, lam)
    assert w[0] < -0.1 and w[-1] > 0.1
    # Thresholds 5e-11 inside an eigenvalue set the boundary flag.
    neg_edge = 1.0 / (-w[3] - 5e-11)
    pos_edge = 1.0 / (w[-4] - 5e-11)
    _bs_against_dense(H, v, lam, "-", (10.0, neg_edge, 60.0))
    _bs_against_dense(H, v, lam, "+", (10.0, pos_edge, 60.0))
    assert counting_bs(bs_matrix(H, v, lam), neg_edge, "-") == (4, True)
    assert counting_bs(bs_matrix(H, v, lam), pos_edge, "+") == (4, True)


def test_bs_partial_spectrum_small_support_both_signs():
    # 162 sites: a small support, on which block Lanczos still decides a short tail
    graph = dimer_chain()
    H = assemble_truncated(graph, 40)
    v = sample_potential(graph, theta_const(1.0), 1.0, 40)
    for sign in "+-":
        _bs_against_dense(H, v, 3.0, sign, (10.0, 5.0))
    assert counting_bs(bs_matrix(H, v, 3.0), 10.0, "-") == (12, False)
    assert counting_bs(bs_matrix(H, v, 3.0), 10.0, "+") == (13, False)
    # 52 and 51 eigenvalues lie beyond 1/40: the basis fills before they settle.
    for sign in "+-":
        _bs_against_dense(H, v, 3.0, sign, (40.0,), dense=True)


def test_a_dense_fallback_keeps_only_the_spectrum():
    graph = dimer_chain()
    X = bs_matrix(assemble_truncated(graph, 40), sample_potential(graph, theta_const(1.0), 1.0, 40), 3.0)
    assert [counting_bs(X, 40.0, s) for s in "-+"] == [(52, False), (51, False)]
    (block,) = X.blocks
    assert block._eigenvalues is not None  # the block went dense
    assert not any(np.ndim(a) == 2 for a in vars(block).values())


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "top",
    [
        lambda rng: np.linspace(3.0, 1.5, 10),
        # runs of 3, 5, 2 and 4 eigenvalues within 1e-9 of each other
        lambda rng: np.repeat([3.0, 2.5, 2.0, 1.6], [3, 5, 2, 4]) + rng.uniform(0.0, 1e-9, 14),
    ],
    ids=["separated", "clustered"],
)
def test_lanczos_residuals_certify_the_tail(seed, top):
    # a random symmetric 200 x 200 operator: the eigenvalues `top`, and the
    # rest drawn from [-1, 1]
    rng = np.random.default_rng(seed)
    lead = top(rng)
    Q = np.linalg.qr(rng.standard_normal((200, 200)))[0]
    A = (Q * np.concatenate([lead, rng.uniform(-1.0, 1.0, 200 - lead.size)])) @ Q.T
    A = 0.5 * (A + A.T)
    ev = np.linalg.eigvalsh(A)
    slack = 1e-12 * np.abs(ev).max()
    returned = 0
    for threshold in (2.2, 1.4, 1.2):
        found = sc._lanczos_pass(lambda Y: A @ Y, A.shape[0], threshold)
        if found is None:  # the basis filled up; the dense X_b decides then
            continue
        returned += 1
        w, e = found
        # every Ritz value has an eigenvalue within its residual
        assert np.all(np.abs(ev[None, :] - w[:, None]).min(axis=1) <= e + slack)
        assert np.count_nonzero(w > threshold) == np.count_nonzero(ev > threshold)
        assert w[-1] < threshold - 1e-10 and np.all(w[:-1] >= threshold - 1e-10)
    assert returned


def test_bs_partial_spectrum_multiplicity_above_the_block():
    # 24 uncoupled copies of the L = 15 box: every eigenvalue of X is 24-fold,
    # more than one block Krylov space holds.  Reversing the site order keeps
    # the box, and splits each eigenspace into 12 even and 12 odd copies,
    # which block Lanczos decides on each block of the fold.
    graph = square_lattice(1)
    copies = 24
    H = sp.kron(sp.identity(copies), assemble_truncated(graph, 15).matrix)
    v = np.tile(sample_potential(graph, theta_const(1.0), 1.0, 15), copies)
    w = _bs_against_dense(H, v, -1.0, "-", (5.0,), dense=False)
    tail = w[w < -1.0 / 5.0]
    assert tail.size == 120
    assert np.ptp(tail.reshape(-1, copies), axis=1).max() < 1e-12


def _spy_tail_runs(monkeypatch):
    """Record the block size and threshold of every BSBlock.tail run."""
    runs = []
    tail = sc.BSBlock.tail

    def spy(self, s, threshold):
        runs.append((self.size, threshold))
        return tail(self, s, threshold)

    monkeypatch.setattr(sc.BSBlock, "tail", spy)
    return runs


def test_one_tail_run_serves_every_tau(monkeypatch):
    graph = square_lattice(1)
    L = 2000  # the box of acceptance criterion 5
    X = bs_matrix(assemble_truncated(graph, L), sample_potential(graph, theta_const(1.0), 1.0, L), -1.0)
    runs = _spy_tail_runs(monkeypatch)
    counts = [counting_bs(X, tau, "-").value for tau in (200.0, 100.0, 50.0, 25.0)]
    assert counts == [179, 89, 45, 23]
    # one run per block, at the widest threshold
    assert runs == [(b.size, 1.0 / 200.0) for b in X.blocks] and len(runs) == 2


def test_a_wider_threshold_replaces_the_one_tail_per_sign(monkeypatch):
    graph = square_lattice(1)
    H = assemble_truncated(graph, 300)
    v = sample_potential(graph, theta_const(1.0), 1.0, 300)
    runs = _spy_tail_runs(monkeypatch)
    w = _dense_bs_eigenvalues(H, v, -1.0)
    X = bs_matrix(H, v, -1.0)
    # narrow, wide, then narrow again: in each block the wide run replaces
    # the first tail and serves the last threshold
    for tau in (5.0, 100.0, 5.0):
        assert counting_bs(X, tau, "-") == (np.count_nonzero(w < -1.0 / tau), False)
    assert sorted(runs) == sorted((b.size, thr) for b in X.blocks for thr in (1.0 / 5.0, 1.0 / 100.0))
    assert all(b._eigenvalues is None for b in X.blocks)
    assert [b._tails["-"].start for b in X.blocks] == [1.0 / 100.0] * 2


# ---------------------------------------------------------------------------
# the even and odd blocks of a box that reversing the site order keeps


def _blocks_against_dense(H, v, lam, blocks):
    """counting_bs of both signs against the dense oracle, at thresholds between
    eigenvalues and 5e-11 inside one (boundary flag set), for X with the
    given number of blocks; returns X."""
    X = bs_matrix(H, v, lam)
    assert len(X.blocks) == blocks
    w = _dense_bs_eigenvalues(H, v, lam)
    for sign, mu in (("+", w[::-1]), ("-", -w)):
        j = np.flatnonzero(mu[12:-1] - mu[13:] > 1e-6)[0] + 12  # between two distinct eigenvalues
        thresholds = [mu[5] - 5e-11, 0.5 * (mu[j] + mu[j + 1]), mu[2] - 5e-11, 1.0 / 5.0]
        for thr in (t for t in thresholds if t > 0.0):
            d = mu - thr
            expected = (int(np.count_nonzero(d > 0.0)), bool(np.min(np.abs(d)) <= 1e-10))
            assert tuple(counting_bs(X, 1.0 / thr, sign)) == expected
    return X


def _box(graph, L, theta=None):
    return assemble_truncated(graph, L), sample_potential(graph, theta or theta_const(1.0), 1.0, L)


def _square_box(d, L, theta=None):
    return _box(square_lattice(d), L, theta)


def _centre_free_box(L):
    # V = 1/|n|, 0 at the centre: a support of even size 2L
    graph = square_lattice(1)

    def v(pos):
        r = np.linalg.norm(pos, axis=1)
        return np.where(r >= 1.0, 1.0 / np.maximum(r, 1.0), 0.0)

    V = pg.potential_from_function(graph, v, L)
    assert np.count_nonzero(V) == 2 * L
    return assemble_truncated(graph, L), V


def _copies_box(copies):
    # uncoupled copies of the 31-site L = 15 box, reversed as a whole by J
    H = sp.kron(sp.identity(copies), assemble_truncated(square_lattice(1), 15).matrix)
    return H, np.tile(sample_potential(square_lattice(1), theta_const(1.0), 1.0, 15), copies)


@pytest.mark.parametrize(
    "box",
    [
        lambda: _square_box(1, 300),
        lambda: _centre_free_box(300),
        lambda: _square_box(2, 20, pg.theta_cos2()),
        lambda: _square_box(3, 6),
        lambda: _copies_box(24),
    ],
    ids=["square1", "square1-even-support", "square2-cos2", "square3", "even-sites"],
)
def test_the_fold_keeps_the_spectrum_and_the_inertia_of_the_box(box):
    H, v = box()
    A = sc._symmetric_matrix(H)
    blocks = sc._fold(A, v)
    n, h = A.shape[0], A.shape[0] // 2
    assert [B.shape[0] for B, _ in blocks] == [n - h, h]
    assert all(np.array_equal(vb, v[: B.shape[0]]) for B, vb in blocks)
    ev = np.linalg.eigvalsh(A.toarray())
    folded = np.sort(np.concatenate([np.linalg.eigvalsh(B.toarray()) for B, _ in blocks]))
    np.testing.assert_allclose(folded, ev, rtol=0.0, atol=1e-12 * np.abs(ev).max())
    below = bs_matrix(H, v, -1.0).below
    assert sum(inertia(B, -1.0).below for B, _ in blocks) == below == dense_count(A, -1.0)


@pytest.mark.parametrize(
    "box, lam",
    [
        (lambda: _square_box(1, 300), -1.0),  # a support of odd size 601
        (lambda: _centre_free_box(300), -1.0),
        (lambda: _square_box(2, 20, pg.theta_cos2()), -1.0),
        (lambda: _square_box(3, 6), -1.0),
    ],
    ids=["square1", "square1-even-support", "square2-cos2", "square3"],
)
def test_reversal_invariant_boxes_split_into_two_halves(box, lam):
    H, v = box()
    X = _blocks_against_dense(H, v, lam, blocks=2)
    assert all(b._eigenvalues is None for b in X.blocks)


def test_a_tail_with_one_dense_half_is_complete_only_down_to_its_threshold(monkeypatch):
    H, v = _square_box(1, 300)
    w = _dense_bs_eigenvalues(H, v, -1.0)
    lanczos, passes = sc._lanczos_pass, []

    def odd_goes_dense(op, m, thr):
        passes.append(m)
        return None if m == 300 else lanczos(op, m, thr)

    # the odd block, of 300 columns, goes dense; the even one, of 301, runs block Lanczos
    monkeypatch.setattr(sc, "_lanczos_pass", odd_goes_dense)
    X = bs_matrix(H, v, -1.0)
    even, odd = X.blocks
    for tau in (5.0, 100.0):
        assert counting_bs(X, tau, "-") == (np.count_nonzero(w < -1.0 / tau), False)
        assert (even._tails["-"].start, odd._tails["-"].start) == (1.0 / tau, -math.inf)
    # the dense spectrum of the odd block decides every threshold: it runs once
    assert passes.count(300) == 1 and passes.count(301) == 2


def _nudged_square_box():
    H, v = _square_box(1, 300)
    v[100] = np.nextafter(v[100], np.inf)  # one ulp off the mirror image of site 500
    return H, v


@pytest.mark.parametrize(
    "box, lam",
    [
        (lambda: _box(dimer_chain(), 150), 3.0),
        (lambda: _honeycomb_box(10), 3.5),
        (_nudged_square_box, -1.0),
        # V = 1 is unchanged by reversal, but the dimer swaps its Q = 0 and Q = 2 vertices
        (lambda: (assemble_truncated(dimer_chain(), 150), np.ones(602)), 3.0),
    ],
    ids=["dimer", "honeycomb", "square1-one-ulp-off", "dimer-constant-V"],
)
def test_boxes_that_reversal_changes_keep_one_sector(box, lam):
    H, v = box()
    _blocks_against_dense(H, v, lam, blocks=1)


def test_one_ulp_off_keeps_the_counts_of_the_split_box():
    taus = (5.0, 20.0, 100.0)
    split = bs_matrix(*_square_box(1, 300), -1.0)
    whole = bs_matrix(*_nudged_square_box(), -1.0)
    assert (len(split.blocks), len(whole.blocks)) == (2, 1)
    assert [counting_bs(split, t, "-") for t in taus] == [counting_bs(whole, t, "-") for t in taus]


@pytest.mark.parametrize(
    "box",
    [
        lambda: _square_box(1, 20),  # blocks of 21 and 20 sites: no room for a Lanczos block
        # 40 uncoupled copies of the L = 15 box: each eigenvalue of X is 40-fold,
        # 20 copies in each block of the fold, more than a block Krylov space holds
        lambda: _copies_box(40),
    ],
    ids=["small-support", "multiplicity-above-the-block-per-half"],
)
def test_halves_fall_back_to_their_dense_compressions(box):
    H, v = box()
    X = _blocks_against_dense(H, v, -1.0, blocks=2)
    # every block went dense, from its own X_b
    assert all(b._tails["-"].start == -math.inf and b._eigenvalues is not None for b in X.blocks)


# ---------------------------------------------------------------------------
# one trusted factor of H_L - lambda for both routes

# Staggered honeycomb, bands 3.5 +/- sqrt(1/4 + |1 + e^{ik_1} + e^{ik_2}|^2),
# gap (3, 4).  At lambda = 3.5 and L = 20 a threshold-pivoted LU of
# lambda - H_L leaves the diagonal and grows its entries by 1e18, so a solve
# through it is garbage; the BS route must solve through a trusted factor.
def _honeycomb_box(L: int):
    graph = load_graph(Path(__file__).parent / "data" / "honeycomb.json")
    return assemble_truncated(graph, L), sample_potential(graph, theta_const(1.0), 1.0, L)


def test_honeycomb_bs_apply_matches_a_dense_solve():
    H, v = _honeycomb_box(20)
    (X,) = bs_matrix(H, v, 3.5).blocks  # reversal changes the box: one block, H_L itself
    Y = np.random.default_rng(0).standard_normal((X.support.size, 16))
    n = H.matrix.shape[0]
    rhs = np.zeros((n, 16))
    rhs[X.support] = X.sqrtv[:, None] * Y
    ref = X.sqrtv[:, None] * np.linalg.solve(3.5 * np.eye(n) - H.matrix.toarray(), rhs)[X.support]
    assert np.linalg.norm(X.apply(Y) - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("tau, sign, expected", [(4.0, "+", 9), (9.0, "+", 20), (4.0, "-", 9), (9.0, "-", 21)])
def test_honeycomb_routes_agree_in_the_gap(tau, sign, expected):
    H, v = _honeycomb_box(20)
    X = bs_matrix(H, v, 3.5)
    assert counting_bs(X, tau, sign) == counting_direct(H, v, 3.5, tau, sign) == (expected, False)


@pytest.mark.parametrize("tau", [4.0, 9.0])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_honeycomb_routes_match_a_dense_oracle(tau, sign):
    H, v = _honeycomb_box(10)
    A = H.matrix.toarray()
    t = tau if sign == "+" else -tau
    shift = dense_count(A + t * np.diag(v), 3.5) - dense_count(A, 3.5)
    expected = -shift if sign == "+" else shift
    assert counting_bs(bs_matrix(H, v, 3.5), tau, sign).value == expected
    assert counting_direct(H, v, 3.5, tau, sign).value == expected


def test_untrusted_factors_fall_back_to_dense(monkeypatch):
    graph = dimer_chain()
    H = assemble_truncated(graph, 150)
    v = sample_potential(graph, theta_const(1.0), 1.0, 150)  # 602 sites: block Lanczos
    expected = [(counting_bs(bs_matrix(H, v, 3.0), 10.0, s), counting_direct(H, v, 3.0, 10.0, s)) for s in "+-"]
    monkeypatch.setattr(sc, "_PIVOT_GROWTH", 0.0)  # no sparse factor is trusted
    X = bs_matrix(H, v, 3.0)
    assert [b.route for b in X.blocks] == ["dense"]
    assert [(counting_bs(X, 10.0, s), counting_direct(H, v, 3.0, 10.0, s)) for s in "+-"] == expected
    assert X.blocks[0]._eigenvalues is None  # block Lanczos, not the dense X, counted


def test_bs_matrix_rejects_a_factor_that_miscounts(monkeypatch):
    graph = square_lattice(1)
    H = assemble_truncated(graph, 20)
    v = sample_potential(graph, theta_const(1.0), 1.0, 20)
    factor = sc._factor

    def miscount(A, x):
        below, route, solve = factor(A, x)
        return (below + 1, route, solve) if x == -1.0 else (below, route, solve)

    monkeypatch.setattr(sc, "_factor", miscount)
    with pytest.raises(CountingError, match="negative pivots"):
        bs_matrix(H, v, -1.0)


def test_asymptotic_table_flags_a_mismatch(monkeypatch):
    direct = sc._direct_count
    monkeypatch.setattr(sc, "_direct_count", lambda *args: direct(*args) + 1)
    table = asymptotic_table(
        square_lattice(1), theta_const(1.0), p=1.0, lam=-1.0, sign="-",
        tau_list=(2.0,), L_list=(20, 40), grid=32,
    )
    assert [r.N_direct - r.N_bs for r in table.rows] == [1]
    assert "mismatch" in table.rows[0].flags


# ---------------------------------------------------------------------------
# counting_direct preconditions and matrix inputs


def test_counting_direct_rejects_negative_potential():
    H = np.diag([1.0, 3.0])
    with pytest.raises(CountingError, match="nonnegative"):
        counting_direct(H, np.array([1.0, -0.5]), 2.0, 1.0, "-")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_counting_rejects_a_non_finite_potential(bad):
    graph = square_lattice(1)
    H = assemble_truncated(graph, 30)
    v = sample_potential(graph, theta_const(1.0), 1.0, 30)
    v[5] = bad
    gap = find_gaps(band_structure(graph, 32))[0]
    with pytest.raises(CountingError, match="potential must be finite"):
        bs_matrix(H, v, -1.0)
    with pytest.raises(CountingError, match="potential must be finite"):
        counting_direct(H, v, -1.0, 5.0, "-")
    with pytest.raises(CountingError, match="potential must be finite"):
        edge_counting(H, v, gap, 5.0, "-")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_counting_rejects_a_non_finite_matrix(bad):
    graph = square_lattice(1)
    A = assemble_truncated(graph, 30).matrix.tolil()
    A[4, 4] = bad
    v = sample_potential(graph, theta_const(1.0), 1.0, 30)
    with pytest.raises(CountingError, match="entries must be finite"):
        inertia(A, -1.0)
    with pytest.raises(CountingError, match="entries must be finite"):
        bs_matrix(A, v, -1.0)
    with pytest.raises(CountingError, match="entries must be finite"):
        counting_direct(A, v, -1.0, 5.0, "-")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inertia_rejects_a_non_finite_shift(bad):
    # before the check, nan counted 0 and inf 3 after a dense fallback
    A = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(CountingError, match="must be finite"):
        inertia(A, bad)
    with pytest.raises(CountingError, match="must be finite"):
        eigencount_below(A, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_counting_rejects_a_non_finite_lambda_or_tau(bad):
    graph = square_lattice(1)
    H = assemble_truncated(graph, 30)
    v = sample_potential(graph, theta_const(1.0), 1.0, 30)
    with pytest.raises(CountingError, match="lambda"):
        bs_matrix(H, v, bad)
    with pytest.raises(CountingError, match="lambda"):
        counting_direct(H, v, bad, 5.0, "-")
    with pytest.raises(CountingError, match="tau"):
        counting_bs(bs_matrix(H, v, -1.0), bad, "-")
    with pytest.raises(CountingError, match="tau"):
        counting_direct(H, v, -1.0, bad, "-")


def test_counting_direct_raises_on_negative_difference(monkeypatch):
    H = np.diag([1.0, 3.0])
    true_inertia = sc._inertia

    def undercount_shifted(A, x):  # wrong only for H - tau V, whose diagonal starts 0.5
        res = true_inertia(A, x)
        return res._replace(below=res.below - 1) if A.diagonal()[0] != 1.0 else res

    monkeypatch.setattr(sc, "_inertia", undercount_shifted)
    with pytest.raises(CountingError, match="negative inertia difference"):
        counting_direct(H, np.array([1.0, 0.0]), 2.0, 0.5, "-")


def test_counting_apis_accept_matrices():
    graph = square_lattice(1)
    H = assemble_truncated(graph, 60)
    v = sample_potential(graph, theta_const(1.0), 1.0, 60)
    gap = find_gaps(band_structure(graph, 32))[0]
    want_bs = counting_bs(bs_matrix(H, v, -1.0), 20.0, "-")
    want_direct = counting_direct(H, v, -1.0, 20.0, "-")
    want_edge = edge_counting(H, v, gap, 20.0, "-").counts
    for A in (H.matrix, H.matrix.tocsc(), sp.csr_array(H.matrix), H.matrix.toarray()):
        assert counting_bs(bs_matrix(A, v, -1.0), 20.0, "-") == want_bs
        assert counting_direct(A, v, -1.0, 20.0, "-") == want_direct
        np.testing.assert_array_equal(edge_counting(A, v, gap, 20.0, "-").counts, want_edge)
        assert eigencount_below(A, -1e-9) == 0
    assert want_direct.value > 0


def test_counting_rejects_nonsymmetric_matrix():
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(CountingError, match="symmetric"):
        counting_direct(A, np.ones(2), -1.0, 1.0, "-")
    with pytest.raises(CountingError, match="symmetric"):
        bs_matrix(A, np.ones(2), -1.0)


def _matrix_checks(monkeypatch, call) -> int:
    seen = []
    check = sc._symmetric_matrix

    def spy(H):
        seen.append(H)
        return check(H)

    monkeypatch.setattr(sc, "_symmetric_matrix", spy)
    call()
    monkeypatch.setattr(sc, "_symmetric_matrix", check)
    return len(seen)


def test_each_public_call_checks_the_matrix_once(monkeypatch):
    graph = square_lattice(1)
    H = assemble_truncated(graph, 60)
    v = sample_potential(graph, theta_const(1.0), 1.0, 60)
    gap = find_gaps(band_structure(graph, 32))[0]
    assert _matrix_checks(monkeypatch, lambda: counting_direct(H, v, -1.0, 20.0, "-")) == 1
    assert _matrix_checks(monkeypatch, lambda: bs_matrix(H, v, -1.0)) == 1
    assert _matrix_checks(monkeypatch, lambda: inertia(H, -1.0)) == 1
    assert _matrix_checks(monkeypatch, lambda: edge_counting(H, v, gap, 20.0, "-")) == 1
    table = lambda: asymptotic_table(  # noqa: E731
        graph, theta_const(1.0), p=1.0, lam=-1.0, sign="-", tau_list=(1.0, 2.0, 3.0), L_list=(30, 40), grid=32
    )
    assert _matrix_checks(monkeypatch, table) == 2


@pytest.mark.parametrize("tau, sign", [(0.0, "-"), (-1.0, "+"), (1.0, "plus")])
def test_counting_entries_reject_bad_tau_and_sign(tau, sign):
    graph = square_lattice(1)
    H = assemble_truncated(graph, 20)
    v = sample_potential(graph, theta_const(1.0), 1.0, 20)
    gap = Gap(-2.0, 0.0, "interior", 2)  # both edges finite, so either sign has a ladder
    with pytest.raises(CountingError, match="tau|sign"):
        counting_direct(H, v, -1.0, tau, sign)
    with pytest.raises(CountingError, match="tau|sign"):
        counting_bs(bs_matrix(H, v, -1.0), tau, sign)
    with pytest.raises(CountingError, match="tau|sign"):
        edge_counting(H, v, gap, tau, sign)
    with pytest.raises(CountingError, match="tau|sign"):
        asymptotic_table(graph, theta_const(1.0), p=1.0, lam=-1.0, sign=sign, tau_list=(tau,), L_list=(10, 20))


# ---------------------------------------------------------------------------
# the main asymptotic in d = 2


def test_asymptotic_table_square2_large_coupling():
    table = asymptotic_table(
        square_lattice(2),
        theta_const(1.0),
        p=1.0,
        lam=-1.0,
        sign="-",
        tau_list=(10.0, 20.0, 30.0),
        L_list=(20, 40, 60),
        grid=32,
    )
    assert all(r.N_bs == r.N_direct for r in table.rows)
    assert not any("unstabilized" in r.flags for r in table.rows)
    assert 0.8 <= table.rows[-1].ratio <= 1.2


# ---------------------------------------------------------------------------
# one BLAS


def test_counting_takes_no_numpy_blas_route():
    """Every dense product and eigensolve goes through scipy.linalg, whose
    OpenBLAS SuperLU also links, so that the OpenBLAS copies that NumPy and
    SciPy each bundle never alternate their thread pools in one count."""
    found = []
    for node in ast.walk(ast.parse(Path(sc.__file__).read_text())):
        if isinstance(getattr(node, "op", None), ast.MatMult):
            found.append(("@", node.lineno))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else ""
            numpy_blas = owner in ("np", "numpy") and node.attr in ("linalg", "matmul", "inner", "tensordot")
            if node.attr == "dot" or numpy_blas:
                found.append((f"{owner}.{node.attr}", node.lineno))
        elif isinstance(node, ast.Import):
            found += [(a.name, node.lineno) for a in node.names if a.name.startswith("numpy.linalg")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = [f"{node.module}.{a.name}" for a in node.names]
            found += [(n, node.lineno) for n in names if n.startswith("numpy.linalg")]
    assert not found
