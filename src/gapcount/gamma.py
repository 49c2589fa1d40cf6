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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .floquet import BandStructure, GapEdge, band_values, torus_blocks, torus_grid
from .periodic_graph import PeriodicGraph, ThetaProfile


class GammaError(ValueError):
    """Evaluation point incompatible with the requested coefficient."""


@dataclass(frozen=True)
class GammaResult:
    lam: float
    p: float
    sign: str
    torus_integrals: np.ndarray  # per band, on the finer grid
    sphere_integral: float
    value: float
    grids: tuple[int, int]  # (coarse, fine); value and torus_integrals come from fine
    error: float  # |value on fine - value on coarse|


@dataclass(frozen=True)
class EdgeIntegralReport:
    edge: GapEdge
    kappa: float | None
    grids: tuple[int, ...]
    estimates: np.ndarray  # summed over bands, one per grid
    verdict: str  # "convergent" | "divergent" | "inconclusive"
    weak_sup: float | None = None
    weak_member: bool | None = None


@dataclass(frozen=True)
class EdgeGammaResult:
    report: EdgeIntegralReport
    gamma: GammaResult | None


# ---------------------------------------------------------------------------
# sphere quadrature


def sphere_integral(theta: ThetaProfile | Callable, p: float, d: int, resolution: int = 0) -> float:
    """int_{S^{d-1}} theta(w)^p dS(w) for d in {1, 2, 3}."""
    if p <= 0:
        raise ValueError("p must be positive")
    fn = theta if callable(theta) else None
    if fn is None:
        raise TypeError("theta must be callable")
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
        vals = np.asarray(fn(dirs), dtype=float)
        return float(np.sum(vals**p))
    if d == 2:
        n = resolution or 512
        phi = 2.0 * math.pi * np.arange(n) / n
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        vals = np.asarray(fn(dirs), dtype=float)
        return float(np.sum(vals**p) * (2.0 * math.pi / n))
    if d == 3:
        npol = resolution or 64
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
    raise ValueError(f"unsupported dimension d={d}")


# ---------------------------------------------------------------------------
# torus quadrature


def _signed_part(lam: float, E: np.ndarray, sign: str) -> np.ndarray:
    """(lam - E)_{+/-}: positive part for '+', negative part for '-'."""
    diff = lam - E
    if sign == "+":
        return np.maximum(diff, 0.0)
    if sign == "-":
        return np.maximum(-diff, 0.0)
    raise ValueError("sign must be '+' or '-'")


def _band_power_sums(graph: PeriodicGraph, lam: float, power: float, sign: str, M: int) -> np.ndarray:
    """(2 pi / M)^d * sum over the grid of (lam - E_s)_{+/-}^{-power}, per band.

    Grid points where the signed part vanishes contribute zero.
    """
    weight = (2.0 * math.pi / M) ** graph.dim
    total = np.zeros(graph.nu)
    for K in torus_blocks(graph.dim, M):
        part = _signed_part(lam, band_values(graph, K), sign)
        with np.errstate(divide="ignore"):
            integrand = np.where(part > 0.0, part ** (-power), 0.0)
        total += weight * integrand.sum(axis=0)
    return total


def _gamma_on_grids(
    graph: PeriodicGraph, lam: float, p: float, sign: str, theta: ThetaProfile, grids: tuple[int, int]
) -> GammaResult:
    """Gamma from the trapezoid sums on two grids: the finer value, their difference as error."""
    coarse, fine = (_band_power_sums(graph, lam, p, sign, M) for M in grids)
    sphere = sphere_integral(theta, p, graph.dim)
    norm = graph.dim * (2.0 * math.pi) ** graph.dim
    value = fine.sum() * sphere / norm
    error = abs(fine.sum() - coarse.sum()) * sphere / norm
    return GammaResult(lam, p, sign, fine, sphere, float(value), grids, float(error))


def gamma_coefficient(
    bands: BandStructure,
    lam: float,
    p: float,
    sign: str,
    theta: ThetaProfile,
) -> GammaResult:
    """Gamma_p^{sign}(lambda) at a point strictly outside every band."""
    if p <= 0:
        raise ValueError("p must be positive")
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

    Convergent if the last two ladder rungs differ by < 1%; divergent if
    the estimates keep growing; inconclusive otherwise.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    graph = bands.graph
    if kappa == 0.0:
        vol = (2.0 * math.pi) ** graph.dim
        est = np.full(len(ladder), graph.nu * vol)
        return EdgeIntegralReport(edge, kappa, tuple(ladder), est, "convergent")
    sums = np.array(
        [_band_power_sums(graph, edge.value, kappa, edge.sign, M).sum() for M in ladder]
    )
    verdict = _ladder_verdict(sums)
    return EdgeIntegralReport(edge, kappa, tuple(ladder), sums, verdict)


def _ladder_verdict(est: np.ndarray) -> str:
    if est.size < 2 or est[-1] == 0.0:
        return "inconclusive"
    rel = abs(est[-1] - est[-2]) / abs(est[-1])
    if rel < 0.01:
        return "convergent"
    growing = np.all(np.diff(est) > 0.0)
    if growing and est[-1] > 1.2 * est[-2]:
        return "divergent"
    return "inconclusive"


def weak_edge_membership(
    bands: BandStructure,
    edge: GapEdge,
    p: float,
    *,
    grid: int | None = None,
    s_points: int = 40,
) -> EdgeIntegralReport:
    """Weak-L_{p,infty} membership check for (Lambda - E_s)_{+/-}^{-1}.

    Estimates sup_s s * mes{k : F(k) > s}^{1/p} by level-set counting
    over a logarithmic s-grid spanning [1, resolution-limited max].
    """
    if p <= 0:
        raise ValueError("p must be positive")
    graph = bands.graph
    d = graph.dim
    M = grid or {1: 4096, 2: 512, 3: 96}.get(d, 64)
    K = torus_grid(d, M)
    E = band_values(graph, K)
    part = _signed_part(edge.value, E, edge.sign)
    with np.errstate(divide="ignore"):
        F = np.where(part > 0.0, 1.0 / part, 0.0).ravel()
    F = F[F > 0.0]
    cell = (2.0 * math.pi / M) ** d
    smax = float(F.max())
    sgrid = np.geomspace(1.0, max(smax, 2.0), s_points)
    Fs = np.sort(F)
    counts = F.size - np.searchsorted(Fs, sgrid, side="right")
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
    return EdgeIntegralReport(edge, None, (M,), np.array([weak_sup]), "inconclusive", weak_sup, member)


def default_kappa(p: float) -> float:
    """The exponent kappa attached to p by the finiteness conditions.

    For p = 1 the conditions require some kappa > 1 without fixing one;
    callers must choose explicitly in that case.
    """
    if p > 1.0:
        return p
    if p < 1.0:
        return 1.0
    raise ValueError("for p = 1 the exponent kappa > 1 must be supplied explicitly")


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
    if kappa is None:
        kappa = default_kappa(p)
    report = edge_integral(bands, edge, kappa, ladder)
    if report.verdict != "convergent":
        return EdgeGammaResult(report, None)
    gamma = _gamma_on_grids(bands.graph, edge.value, p, edge.sign, theta, tuple(ladder[-2:]))
    return EdgeGammaResult(report, gamma)
