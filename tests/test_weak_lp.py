import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcount.errors import GapcountError
from gapcount.weak_lp import (
    WeightedSequence,
    distribution,
    dp_window,
    membership_verdicts,
    weak_quasinorm,
)

finite_values = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_subnormal=False),
    min_size=1,
    max_size=50,
)
exponents = st.floats(min_value=0.25, max_value=4.0)


def sweep_oracle(seq: WeightedSequence, p: float) -> float:
    best = 0.0
    for a in np.unique(seq.values[seq.values > 0.0]):
        s = float(np.nextafter(a, 0.0))
        if s > 0.0:
            best = max(best, s * distribution(seq, s) ** (1.0 / p))
    return best


def test_sequence_sorted_and_validated():
    seq = WeightedSequence([1.0, 3.0, 2.0])
    assert seq.values.tolist() == [3.0, 2.0, 1.0]
    with pytest.raises(ValueError):
        WeightedSequence([-1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_rejected(bad):
    seq = WeightedSequence(1.0 / np.arange(1, 33))
    calls = [
        lambda: WeightedSequence([1.0, bad]),
        lambda: distribution(seq, bad),
        lambda: weak_quasinorm(seq, bad),
        lambda: dp_window(seq, bad, (0.1, 0.5)),
        lambda: membership_verdicts(seq, bad),
    ]
    for call in calls:
        with pytest.raises(GapcountError, match="finite"):
            call()


def test_distribution_examples():
    seq = WeightedSequence([3.0, 2.0, 1.0])
    assert distribution(seq, 1.5) == 2
    assert distribution(seq, 10.0) == 0
    assert distribution(WeightedSequence([1.0, 1.0, 1.0]), 1.0) == 0


def test_quasinorm_examples():
    assert weak_quasinorm(WeightedSequence([5.0]), 1.0) == 5.0
    seq = WeightedSequence([1.0, 0.5, 0.25, 0.125])
    assert weak_quasinorm(seq, 1.0) == 1.0


def test_quasinorm_power_sequence_exact_one():
    m = np.arange(1, 500, dtype=float)
    for p in (0.5, 1.0, 2.0):
        assert weak_quasinorm(WeightedSequence(1.0 / m ** (1.0 / p)), p) == 1.0


@given(finite_values, exponents)
@settings(max_examples=200)
def test_quasinorm_matches_sweep_oracle(values, p):
    seq = WeightedSequence(values)
    q = weak_quasinorm(seq, p)
    o = sweep_oracle(seq, p)
    assert o <= q + 1e-12 * (1.0 + q)
    assert o >= q * (1.0 - 1e-9)


@given(finite_values, st.floats(min_value=0.01, max_value=100.0), exponents)
def test_quasinorm_homogeneity(values, c, p):
    seq = WeightedSequence(values)
    assert weak_quasinorm(WeightedSequence(seq.values * c), p) == pytest.approx(c * weak_quasinorm(seq, p), rel=1e-12)


@given(finite_values, st.floats(min_value=0.0, max_value=1e6), exponents)
def test_quasinorm_monotone_under_append(values, extra, p):
    base = weak_quasinorm(WeightedSequence(values), p)
    grown = weak_quasinorm(WeightedSequence(values + [extra]), p)
    assert grown >= base - 1e-12 * (1.0 + base)


@given(finite_values, finite_values, exponents)
@settings(max_examples=100)
def test_quasi_triangle_on_merge(a, b, p):
    qa = weak_quasinorm(WeightedSequence(a), p)
    qb = weak_quasinorm(WeightedSequence(b), p)
    qm = weak_quasinorm(WeightedSequence(a + b), p)
    assert qm <= 2.0 ** (1.0 / p) * (qa + qb) + 1e-9 * (1.0 + qa + qb)


def test_dp_window_reciprocal_sequence():
    M = 200
    seq = WeightedSequence([1.0 / m for m in range(1, M + 1)])
    est = dp_window(seq, 1.0, (2.0 / M, 0.5))
    assert 0.9 <= est.inf_est <= est.sup_est <= 1.1
    assert est.sample_count > 0


def test_dp_window_scaling():
    seq = WeightedSequence([1.0 / m for m in range(1, 101)])
    base = dp_window(seq, 2.0, (0.02, 0.5))
    scaled = dp_window(WeightedSequence(seq.values * 3.0), 2.0, (0.06, 1.5))
    assert scaled.sup_est == pytest.approx(9.0 * base.sup_est, rel=1e-12)
    assert scaled.inf_est == pytest.approx(9.0 * base.inf_est, rel=1e-12)


@given(
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.5]) | st.floats(0.0, 5.0), min_size=1, max_size=60),
    exponents,
    st.floats(0.01, 2.0),
    st.floats(1.0, 3.0),
)
def test_dp_window_matches_per_jump_count(values, p, s_lo, width):
    # reference: #{values >= a} counted separately at each jump point a
    seq = WeightedSequence(values)
    window = (s_lo, s_lo + width)
    est = dp_window(seq, p, window)
    jumps = np.unique(seq.values[seq.values > 0.0])
    inside = jumps[(jumps > window[0]) & (jumps < window[1])]
    assert est.sample_count == inside.size
    if inside.size:
        samples = inside**p * np.array([np.count_nonzero(seq.values >= a) for a in inside], dtype=float)
        assert (est.sup_est, est.inf_est) == (samples.max(), samples.min())


def test_dp_window_empty_window_flagged():
    seq = WeightedSequence([1.0, 1.0, 1.0])
    est = dp_window(seq, 1.0, (0.1, 0.5))
    assert est.sample_count == 0
    assert est.sup_est == est.inf_est == 0.0


def test_membership_weak_but_not_small_o():
    m = np.arange(1, 2001, dtype=float)
    v = membership_verdicts(WeightedSequence(1.0 / m), 1.0)
    assert v.weak is True
    assert v.small_o is False


def test_membership_weak_and_small_o():
    m = np.arange(1, 2001, dtype=float)
    v = membership_verdicts(WeightedSequence(1.0 / (m * np.log(2.0 + m))), 1.0)
    assert v.weak is True
    assert v.small_o is True


def test_membership_not_weak():
    m = np.arange(1, 2001, dtype=float)
    v = membership_verdicts(WeightedSequence(1.0 / np.sqrt(m)), 1.0)
    assert v.weak is False
