"""Asymptotic coefficients Gamma_p(lambda) and gap-edge integrability checks.

Gamma_p^{+/-}(lambda) = (d (2 pi)^d)^{-1} * sum_s int_{T^d} (lambda - E_s(k))_{+/-}^{-p} dk
                        * int_{S^{d-1}} theta^p dS,

with the convention that (f)_{+/-}^{-p} vanishes wherever (f)_{+/-} = 0.
Torus integrals use the uniform trapezoid rule on grids M and 2M: the
finer value is reported and the difference serves as the error estimate.
Away from the bands the integrand is analytic and periodic, so the rule
converges geometrically in M.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GapcountError
from .floquet import BandStructure, GapEdge, _reduced_torus_bands, torus_bands
from .floquet import band_values  # noqa: F401  unused; perfbench/test_perfbench.py asserts this binding
from .periodic_graph import PeriodicGraph, ThetaProfile

# Sphere nodes: equispaced angles on S^1; Gauss-Legendre polar nodes on S^2,
# with twice as many equispaced azimuths.
_CIRCLE_POINTS = 512
_POLAR_POINTS = 64
# The weak-membership check: log-spaced levels s >= 1, and its torus grid
# per dimension d, 64 for d > 3.
_WEAK_LEVELS = 40
_WEAK_GRID = {1: 4096, 2: 512, 3: 96}
# A signed part |lam - E| <= _ROUNDING_FLOOR * max(1, |lam|) is taken as 0: at
# a sampled gap edge, band values that equal the edge in exact arithmetic
# land a few ulps to either side of it, and 1/part would blow them up.
_ROUNDING_FLOOR = 16.0 * float(np.finfo(float).eps)


class GammaError(GapcountError):
    """Evaluation point or parameter incompatible with the requested quantity."""


@dataclass(frozen=True)
class GammaResult:
    torus_integrals: np.ndarray  # per band, on the finer grid
    sphere_integral: float
    value: float
    grids: tuple[int, int]  # (coarse, fine); value and torus_integrals come from fine
    error: float  # |value on fine - value on coarse|


@dataclass(frozen=True)
class EdgeIntegralReport:
    grids: tuple[int, ...]
    estimates: np.ndarray  # summed over bands, one per grid
    verdict: str  # "convergent" | "divergent" | "inconclusive"


@dataclass(frozen=True)
class WeakMembership:
    weak_sup: float  # sup_s s * mes{F > s}^{1/p} over the levels
    weak_member: bool


@dataclass(frozen=True)
class EdgeGammaResult:
    report: EdgeIntegralReport
    gamma: GammaResult | None


# ---------------------------------------------------------------------------
# sphere quadrature


def check_dimension(d: int) -> None:
    """Reject a lattice dimension that the sphere quadrature, and so Gamma, does not cover."""
    if d not in (1, 2, 3):
        raise GammaError(f"unsupported dimension d={d}")


def sphere_integral(theta: ThetaProfile | Callable, p: float, d: int) -> float:
    """int_{S^{d-1}} theta(w)^p dS(w) for d in {1, 2, 3}."""
    if not 0 < p < math.inf:
        raise GammaError("p must be positive and finite")
    fn = theta if callable(theta) else None
    if fn is None:
        raise TypeError("theta must be callable")
    check_dimension(d)
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
        vals = np.asarray(fn(dirs), dtype=float)
        return float(np.sum(vals**p))
    if d == 2:
        n = _CIRCLE_POINTS
        phi = 2.0 * math.pi * np.arange(n) / n
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        vals = np.asarray(fn(dirs), dtype=float)
        return float(np.sum(vals**p) * (2.0 * math.pi / n))
    # d == 3
    npol = _POLAR_POINTS
    nazi = 2 * npol
    t, w = np.polynomial.legendre.leggauss(npol)  # polar cosine
    phi = 2.0 * math.pi * np.arange(nazi) / nazi
    st = np.sqrt(1.0 - t**2)
    dirs = np.stack(
        [
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.repeat(t, nazi),
        ],
        axis=1,
    )
    vals = np.asarray(fn(dirs), dtype=float).reshape(npol, nazi)
    return float(np.sum(w @ vals) * (2.0 * math.pi / nazi))


# ---------------------------------------------------------------------------
# torus quadrature


def _signed_part(lam: float, E: np.ndarray, sign: str) -> np.ndarray:
    """(lam - E)_{+/-}: positive part for '+', negative part for '-', 0 within the rounding floor."""
    if sign == "+":
        part = lam - E
    elif sign == "-":
        part = E - lam
    else:
        raise GammaError("sign must be '+' or '-'")
    part[part <= _ROUNDING_FLOOR * max(1.0, abs(lam))] = 0.0
    return part


def _flat_at(bands: BandStructure, value: float) -> bool:
    """Whether a band's sampled minimum and maximum both lie within the
    rounding floor of value, which makes its signed part 0 at every grid point.

    Such a band is flat at value: det(h(k) - value) is a trigonometric
    polynomial, so a band equal to value on a set of positive measure equals
    it everywhere (Kuchment 2016), and (value - E_s)^{-kappa} is infinite on
    the whole torus.
    """
    floor = _ROUNDING_FLOOR * max(1.0, abs(value))
    return bool(np.any(np.all(np.abs(bands.band_extrema - value) <= floor, axis=1)))


def _band_power_sums(graph: PeriodicGraph, lam: float, power: float, sign: str, M: int) -> np.ndarray:
    """(2 pi / M)^d * sum over the grid of (lam - E_s)_{+/-}^{-power}, per band.

    Grid points where the signed part vanishes contribute zero. The sum
    runs over the reduced sweep, each point weighted by its mirror count
    and, on the axes that swap, its class share (see `floquet`). The
    shares 3 and 3/2 are not powers of 2, so the sum equals the full
    grid's to rounding, not bitwise.
    """
    weight = (2.0 * math.pi / M) ** graph.dim
    total = np.zeros(graph.nu)
    for w, E in _reduced_torus_bands(graph, M):
        part = _signed_part(lam, E, sign)
        np.power(part, -power, out=part, where=part > 0.0)  # vanishing parts stay 0
        part *= w[..., None]
        part = part.reshape(-1, graph.nu)
        # one band at a time: numpy's column sums of an (n, 2) array are
        # several times slower
        total += weight * np.array([part[:, s].sum() for s in range(graph.nu)])
    return total


def _gamma_on_grids(
    graph: PeriodicGraph, lam: float, p: float, sign: str, theta: ThetaProfile, grids: tuple[int, int]
) -> GammaResult:
    """Gamma from the trapezoid sums on two grids: the finer value, their difference as error."""
    sphere = sphere_integral(theta, p, graph.dim)  # first: it rejects d > 3 before the sweeps
    coarse, fine = (_band_power_sums(graph, lam, p, sign, M) for M in grids)
    norm = graph.dim * (2.0 * math.pi) ** graph.dim
    value = fine.sum() * sphere / norm
    error = abs(fine.sum() - coarse.sum()) * sphere / norm
    return GammaResult(fine, sphere, float(value), grids, float(error))


def gamma_coefficient(
    bands: BandStructure,
    lam: float,
    p: float,
    sign: str,
    theta: ThetaProfile,
) -> GammaResult:
    """Gamma_p^{sign}(lambda) at a point strictly outside every band."""
    if not 0 < p < math.inf:
        raise GammaError("p must be positive and finite")
    if not math.isfinite(lam):
        raise GammaError(f"lambda={lam} must be finite")
    for s, (lo, hi) in enumerate(bands.band_extrema):
        if lo - 1e-12 <= lam <= hi + 1e-12:
            raise GammaError(
                f"lambda={lam} lies inside band {s+1} [{lo}, {hi}]; integrand singular on positive measure"
            )
    return _gamma_on_grids(bands.graph, lam, p, sign, theta, (bands.M, 2 * bands.M))


# ---------------------------------------------------------------------------
# edge conditions (1.16) / (1.17)


def edge_integral(
    bands: BandStructure,
    edge: GapEdge,
    kappa: float,
    ladder: tuple[int, ...] = (32, 64, 128, 256),
) -> EdgeIntegralReport:
    """Per-grid estimates of sum_s int (Lambda - E_s)_{+/-}^{-kappa} dk.

    The ladder is at least two strictly increasing integer grids, each >= 2.
    Convergent if the last two ladder rungs differ by < 1%; divergent if
    the estimates keep growing; inconclusive otherwise.  For kappa > 0, a
    band flat at the edge makes every estimate infinite and the verdict
    divergent, with no sweep.
    """
    if not 0 <= kappa < math.inf:
        raise GammaError("kappa must be >= 0 and finite")
    ladder = _check_ladder(ladder)
    graph = bands.graph
    if kappa == 0.0:  # integrand 1 on the bands on the far side of the edge from the gap, else 0
        beyond = edge.band_index + 1 if edge.sign == "+" else graph.nu - edge.band_index
        est = np.full(len(ladder), beyond * (2.0 * math.pi) ** graph.dim)
        return EdgeIntegralReport(ladder, est, "convergent")
    if _flat_at(bands, edge.value):
        return EdgeIntegralReport(ladder, np.full(len(ladder), math.inf), "divergent")
    sums = np.array(
        [_band_power_sums(graph, edge.value, kappa, edge.sign, M).sum() for M in ladder]
    )
    verdict = _ladder_verdict(sums)
    return EdgeIntegralReport(ladder, sums, verdict)


def _check_ladder(ladder) -> tuple[int, ...]:
    """The ladder as a tuple of ints, checked to be at least two strictly
    increasing integer grids, each >= 2."""
    try:
        grids = tuple(operator.index(M) for M in ladder)
    except TypeError:
        grids = ()
    if len(grids) < 2 or grids[0] < 2 or any(b <= a for a, b in zip(grids, grids[1:])):
        raise GammaError(f"ladder {ladder!r} must be at least two strictly increasing integer grids >= 2")
    return grids


def _ladder_verdict(est: np.ndarray) -> str:
    if est[-1] == 0.0:
        return "inconclusive"
    rel = abs(est[-1] - est[-2]) / abs(est[-1])
    if rel < 0.01:
        return "convergent"
    growing = np.all(np.diff(est) > 0.0)
    if growing and est[-1] > 1.2 * est[-2]:
        return "divergent"
    return "inconclusive"


def weak_edge_membership(bands: BandStructure, edge: GapEdge, p: float) -> WeakMembership:
    """Weak-L_{p,infty} membership check for F = (Lambda - E_s)_{+/-}^{-1}.

    Estimates sup_s s * mes{k : F(k) > s}^{1/p} by level-set counting
    over a logarithmic s-grid spanning [1, resolution-limited max].  No
    level is below 1, so only the values F > 1 of the sweep are kept.  A
    band flat at the edge makes F infinite on the whole torus: the sup is
    infinite and the edge no member, with no sweep.
    """
    if not 0 < p < math.inf:
        raise GammaError("p must be positive and finite")
    if _flat_at(bands, edge.value):
        return WeakMembership(math.inf, False)
    graph = bands.graph
    d = graph.dim
    M = _WEAK_GRID.get(d, 64)
    above = []
    for E in torus_bands(graph, M):
        part = _signed_part(edge.value, E, edge.sign)
        above.append(1.0 / part[(part > 0.0) & (part < 1.0)])  # 1/part > 1 exactly there
    F = np.sort(np.concatenate(above))
    cell = (2.0 * math.pi / M) ** d
    # The largest F sets the top level only when it exceeds 2.
    sgrid = np.geomspace(1.0, max(float(F[-1]) if F.size else 0.0, 2.0), _WEAK_LEVELS)
    counts = F.size - np.searchsorted(F, sgrid, side="right")
    mes = counts * cell
    g = np.where(mes > 0.0, sgrid * mes ** (1.0 / p), 0.0)
    pos = g > 0.0
    weak_sup = float(g[pos].max()) if pos.any() else 0.0
    # trend over the upper half of the usable s-range
    member = True
    if np.count_nonzero(pos) >= 8:
        sg, gg = np.log(sgrid[pos]), np.log(g[pos])
        half = sg.size // 2
        slope = np.polyfit(sg[half:], gg[half:], 1)[0]
        member = bool(slope < 0.15)
    return WeakMembership(weak_sup, member)


def default_kappa(p: float) -> float:
    """The exponent kappa attached to p by the finiteness conditions.

    For p = 1 the conditions require some kappa > 1 without fixing one;
    callers must choose explicitly in that case.
    """
    if p > 1.0:
        return p
    if p < 1.0:
        return 1.0
    raise GammaError("for p = 1 the exponent kappa > 1 must be supplied explicitly")


def gamma_at_edge(
    bands: BandStructure,
    edge: GapEdge,
    p: float,
    theta: ThetaProfile,
    *,
    kappa: float | None = None,
    ladder: tuple[int, ...] = (32, 64, 128, 256),
) -> EdgeGammaResult:
    """Edge evaluation of Gamma, gated on a convergent integrability verdict."""
    if not 0 < p < math.inf:
        raise GammaError("p must be positive and finite")
    if kappa is None:
        kappa = default_kappa(p)
    check_dimension(bands.graph.dim)  # before the ladder's sweeps
    report = edge_integral(bands, edge, kappa, ladder)
    if report.verdict != "convergent":
        return EdgeGammaResult(report, None)
    gamma = _gamma_on_grids(bands.graph, edge.value, p, edge.sign, theta, report.grids[-2:])
    return EdgeGammaResult(report, gamma)
