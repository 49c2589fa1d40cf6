"""Weak-lp functionals on finite nonnegative sequences.

Distribution functions, the weak quasinorm sup_s s * mu(s)^(1/p), and
empirical window estimates of the small-s coefficient s^p * n(s).  The
counting convention is strict: mu(s) = #{values > s}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GapcountError

# Smallest rank of the membership checkpoints; a verdict needs twice as many values.
_MIN_TAIL = 8


@dataclass(frozen=True)
class WeightedSequence:
    """A finite list of nonnegative magnitudes, sorted descending."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise GapcountError("expected a one-dimensional sequence")
        if not np.all(np.isfinite(v)):
            raise GapcountError("sequence values must be finite")
        if v.size and v.min() < 0.0:
            raise GapcountError("sequence values must be nonnegative")
        object.__setattr__(self, "values", np.sort(v)[::-1].copy())

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class DpWindowEstimate:
    sup_est: float
    inf_est: float
    sample_count: int  # jump points inside the window; 0 leaves both estimates 0


@dataclass(frozen=True)
class MembershipVerdict:
    weak: bool
    small_o: bool


def distribution(seq: WeightedSequence, s: float) -> int:
    """#{values > s} (strict inequality)."""
    if not 0 < s < np.inf:
        raise GapcountError("s must be positive and finite")
    # values sorted descending: count of entries strictly above s
    return int(np.searchsorted(-seq.values, -s, side="left"))


def weak_quasinorm(seq: WeightedSequence, p: float) -> float:
    """sup_{s>0} s * mu(s)^{1/p}; exact for finite sequences.

    Equals max_m a_(m) * m^{1/p} over the descending rearrangement.
    """
    if not 0 < p < np.inf:
        raise GapcountError("p must be positive and finite")
    n = len(seq)
    if n == 0:
        return 0.0
    m = np.arange(1, n + 1, dtype=float)
    return float(np.max(seq.values * m ** (1.0 / p)))


def dp_window(seq: WeightedSequence, p: float, window: tuple[float, float]) -> DpWindowEstimate:
    """Empirical sup/inf of s^p n(s) over a window of s values.

    Samples at the jump points of the distribution function inside the
    open window, evaluating the left limit s^p n(s-0) where the
    supremum over each constancy interval is attained.
    """
    if not 0 < p < np.inf:
        raise GapcountError("p must be positive and finite")
    s_lo, s_hi = window
    if not (0.0 < s_lo < s_hi):
        raise GapcountError("window must satisfy 0 < s_lo < s_hi")
    vals = seq.values
    distinct = np.unique(vals[vals > 0.0])
    inside = distinct[(distinct > s_lo) & (distinct < s_hi)]
    if inside.size == 0:
        return DpWindowEstimate(0.0, 0.0, 0)
    # left limit of the count at a jump: #{values >= a}, values descending
    counts = np.searchsorted(-vals, -inside, side="right").astype(float)
    samples = inside**p * counts
    return DpWindowEstimate(float(samples.max()), float(samples.min()), int(inside.size))


def membership_verdicts(seq: WeightedSequence, p: float) -> MembershipVerdict:
    """Heuristic weak-lp / small-o verdicts from the product profile.

    weak: the running profile a_(m) * m^{1/p} does not trend upward
    across geometric checkpoints.  small_o: the tail profile decays
    toward zero.
    """
    if not 0 < p < np.inf:
        raise GapcountError("p must be positive and finite")
    n = len(seq)
    if n < 2 * _MIN_TAIL:
        raise GapcountError("sequence too short for a trend verdict")
    m = np.arange(1, n + 1, dtype=float)
    products = seq.values * m ** (1.0 / p)
    # geometric checkpoints over [_MIN_TAIL, n]
    ks = np.unique(np.geomspace(_MIN_TAIL, n, num=24).astype(int)) - 1
    cp = products[ks]
    weak = bool(cp[-1] <= 1.5 * cp[0] + 1e-300)
    tail = cp[len(cp) // 2 :]
    decreasing = bool(np.all(np.diff(tail) <= 1e-12 * (1.0 + tail[:-1])))
    small = bool(decreasing and tail[-1] <= 0.75 * cp.max())
    return MembershipVerdict(weak=weak, small_o=weak and small)
