"""Fiber matrices h(k), band structure, gaps and edge regularity.

The Floquet fiber of the periodic operator is the nu x nu Hermitian
matrix h(k), assembled from the canonical edge list:

    h(k)_{jj}  = degree(j) + Q(j) - sum over self-orbit edges 2 cos(k.n)
    h(k)_{jj'} -= e^{i k.n}   for each stored edge (j, j', n), j != j'
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .periodic_graph import PeriodicGraph

_CHUNK = 1 << 18


class EigenError(ValueError):
    """Input violates the Hermitian eigensolver contract."""


@dataclass(frozen=True)
class FiberMatrix:
    k: np.ndarray
    entries: np.ndarray  # (nu, nu) complex Hermitian


@dataclass(frozen=True)
class BandStructure:
    graph: PeriodicGraph
    M: int
    kpoints: np.ndarray  # (M^d, d)
    bands: np.ndarray  # (M^d, nu) ascending per row
    band_extrema: np.ndarray  # (nu, 2) min/max over the grid

    @property
    def grid_step(self) -> float:
        return 2.0 * math.pi / self.M


@dataclass(frozen=True)
class Gap:
    lower: float  # Lambda_+ or -inf
    upper: float  # Lambda_- or +inf
    kind: str  # "interior" | "left-semi-infinite" | "right-semi-infinite"
    band_index: int | None  # N for interior gaps (1-based band above the gap)
    grid_step: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class GapEdge:
    """One endpoint of a gap.

    sign '+' marks a left edge Lambda_+ (a band maximum below the gap);
    sign '-' marks a right edge Lambda_- (a band minimum above it).
    """

    value: float
    sign: str  # '+' | '-'
    band_index: int  # 0-based index of the band attaining the edge


@dataclass(frozen=True)
class RegularityReport:
    edge: GapEdge
    extremizers: tuple[np.ndarray, ...]
    hessians: tuple[np.ndarray, ...]
    verdict: str  # "regular" | "non-regular" | "inconclusive"


# ---------------------------------------------------------------------------
# fiber assembly and eigensolver


def fiber_matrix(graph: PeriodicGraph, k: Sequence[float]) -> FiberMatrix:
    k = np.asarray(k, dtype=float)
    if k.shape != (graph.dim,):
        raise ValueError("quasimomentum has wrong dimension")
    h = _fiber_batch(graph, k[None, :])[0]
    return FiberMatrix(k, h)


def _fiber_batch(graph: PeriodicGraph, K: np.ndarray) -> np.ndarray:
    """Assemble h(k) for a batch of quasimomenta K of shape (npts, d)."""
    npts = K.shape[0]
    nu = graph.nu
    h = np.zeros((npts, nu, nu), dtype=complex)
    diag = graph.degrees + graph.Q
    for j in range(nu):
        h[:, j, j] = diag[j]
    for e in graph.edges:
        phase = K @ np.asarray(e.cell, dtype=float)
        if e.j == e.jp:
            h[:, e.j - 1, e.j - 1] -= 2.0 * e.mult * np.cos(phase)
        else:
            w = e.mult * np.exp(1j * phase)
            h[:, e.j - 1, e.jp - 1] -= w
            h[:, e.jp - 1, e.j - 1] -= np.conj(w)
    return h


def hermitian_eigen(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending and orthonormal eigenvectors of a Hermitian matrix."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise EigenError("expected a square matrix")
    scale = np.linalg.norm(M)
    if np.linalg.norm(M - M.conj().T) > 1e-12 * max(scale, 1e-300):
        raise EigenError("matrix is not Hermitian within 1e-12 relative tolerance")
    w, v = np.linalg.eigh(M)
    return w, v


def band_values(graph: PeriodicGraph, K: np.ndarray) -> np.ndarray:
    """Sorted band energies E_1..E_nu at each row of K, in blocks of _CHUNK rows."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    blocks = []
    for start in range(0, K.shape[0], _CHUNK):
        h = _fiber_batch(graph, K[start : start + _CHUNK])
        blocks.append(h[:, 0, 0].real[:, None] if graph.nu == 1 else np.linalg.eigvalsh(h))
    return np.concatenate(blocks, axis=0)


def band_sampler(graph: PeriodicGraph, band_index: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized sampler k -> E_s(k) for a single band (0-based index)."""

    def sampler(K: np.ndarray) -> np.ndarray:
        return band_values(graph, K)[:, band_index]

    return sampler


# ---------------------------------------------------------------------------
# grid sweeps


def torus_grid(dim: int, M: int) -> np.ndarray:
    """Uniform grid k_m = -pi + 2 pi m / M per axis, C order, (M^d, d)."""
    return np.concatenate(list(torus_blocks(dim, M)), axis=0)


def torus_blocks(dim: int, M: int) -> Iterator[np.ndarray]:
    """The rows of torus_grid(dim, M) in C-order blocks of at most _CHUNK rows."""
    axis = -math.pi + 2.0 * math.pi * np.arange(M) / M
    npts = M**dim
    for start in range(0, npts, _CHUNK):
        index = np.unravel_index(np.arange(start, min(start + _CHUNK, npts)), (M,) * dim)
        yield np.stack([axis[i] for i in index], axis=1)


def band_structure(graph: PeriodicGraph, M: int) -> BandStructure:
    if M < 2:
        raise ValueError("grid size must be >= 2")
    K = torus_grid(graph.dim, M)
    bands = band_values(graph, K)
    extrema = np.stack([bands.min(axis=0), bands.max(axis=0)], axis=1)
    return BandStructure(graph, M, K, bands, extrema)


def find_gaps(bands: BandStructure) -> list[Gap]:
    """Semi-infinite gaps plus grid-certified interior gaps."""
    ext = bands.band_extrema
    step = bands.grid_step
    lam_min = float(ext[:, 0].min())
    lam_max = float(ext[:, 1].max())
    gaps = [Gap(-math.inf, lam_min, "left-semi-infinite", None, step)]
    running_max = float(ext[0, 1])
    for s in range(1, bands.graph.nu):
        lo = float(ext[s, 0])
        if running_max < lo:
            gaps.append(Gap(running_max, lo, "interior", s + 1, step))
        running_max = max(running_max, float(ext[s, 1]))
    gaps.append(Gap(lam_max, math.inf, "right-semi-infinite", None, step))
    return gaps


def gap_edge(gap: Gap, which: str, nu: int) -> GapEdge:
    """Resolve one endpoint of a gap to a GapEdge.

    which: "lower" for the finite Lambda_+ endpoint, "upper" for Lambda_-.
    """
    if which == "lower":
        if not math.isfinite(gap.lower):
            raise ValueError("gap has no finite lower edge")
        band = (gap.band_index - 2) if gap.kind == "interior" else nu - 1
        return GapEdge(gap.lower, "+", band)
    if which == "upper":
        if not math.isfinite(gap.upper):
            raise ValueError("gap has no finite upper edge")
        band = (gap.band_index - 1) if gap.kind == "interior" else 0
        return GapEdge(gap.upper, "-", band)
    raise ValueError("which must be 'lower' or 'upper'")


# ---------------------------------------------------------------------------
# gap-edge regularity


def _wrap_torus(k: np.ndarray) -> np.ndarray:
    return (k + math.pi) % (2.0 * math.pi) - math.pi


def _torus_dist(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(_wrap_torus(a - b)))


def _pattern_search(f: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, h0: float, sign: float) -> np.ndarray:
    """Maximize sign * f by coordinate pattern search with halving steps."""
    d = x0.size
    x = x0.astype(float).copy()
    best = sign * float(f(x[None, :])[0])
    h = h0
    while h > 1e-11:
        cand = np.concatenate([x + h * np.eye(d), x - h * np.eye(d)], axis=0)
        vals = sign * f(_wrap_torus(cand))
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            x = _wrap_torus(cand[i])
        else:
            h *= 0.5
    return x


def _fd_hessian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float) -> np.ndarray:
    d = x.size
    H = np.zeros((d, d))
    f0 = float(f(x[None, :])[0])
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        fp = float(f((x + ei)[None, :])[0])
        fm = float(f((x - ei)[None, :])[0])
        H[i, i] = (fp + fm - 2.0 * f0) / h**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            fpp = float(f((x + ei + ej)[None, :])[0])
            fpm = float(f((x + ei - ej)[None, :])[0])
            fmp = float(f((x - ei + ej)[None, :])[0])
            fmm = float(f((x - ei - ej)[None, :])[0])
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h**2)
    return H


def check_edge_regularity(
    band: Callable[[np.ndarray], np.ndarray],
    edge: GapEdge,
    dim: int,
    *,
    coarse_grid: int = 24,
    fd_step: float = 1e-2,
    hessian_tol: float = 1e-6,
    max_extremizers: int = 64,
) -> RegularityReport:
    """Locate edge extremizers and test for nondegenerate definite Hessians.

    `band` is a vectorized sampler k (npts, d) -> E(k); synthetic band
    samplers are accepted on the same footing as graph bands.
    """
    sign = 1.0 if edge.sign == "+" else -1.0  # maximize at a '+' edge
    K = torus_grid(dim, coarse_grid)
    vals = np.asarray(band(K), dtype=float)
    spread = float(vals.max() - vals.min()) or 1.0
    target = float(vals.max()) if edge.sign == "+" else float(vals.min())
    tol0 = 1e-4 * spread + 1e-12
    cand = K[np.abs(vals - target) <= tol0]

    # greedy torus clustering at ~1.5 grid steps
    step = 2.0 * math.pi / coarse_grid
    clusters: list[np.ndarray] = []
    for pt in cand:
        for c in clusters:
            if _torus_dist(pt, c) < 1.6 * step:
                break
        else:
            clusters.append(pt)
    if len(clusters) > max_extremizers:
        return RegularityReport(edge, tuple(clusters), (), "non-regular")

    refined: list[np.ndarray] = []
    for c in clusters:
        x = _pattern_search(band, c, step, sign)
        for r in refined:
            if _torus_dist(x, r) < 1e-6:
                break
        else:
            refined.append(x)

    hessians: list[np.ndarray] = []
    verdict = "regular"
    for x in refined:
        d1 = _fd_hessian(band, x, fd_step)
        d2 = _fd_hessian(band, x, fd_step / 2.0)
        d3 = _fd_hessian(band, x, fd_step / 4.0)
        r1 = (4.0 * d2 - d1) / 3.0
        r2 = (4.0 * d3 - d2) / 3.0
        scale = max(1.0, float(np.abs(r2).max()))
        if np.abs(r1 - r2).max() > 1e-3 * scale:
            verdict = "inconclusive"
        hessians.append(r2)
        eigs = np.linalg.eigvalsh(r2)
        if edge.sign == "+":
            definite = eigs.max() < 0.0 and abs(eigs.max()) >= hessian_tol * abs(eigs.min())
        else:
            definite = eigs.min() > 0.0 and abs(eigs.min()) >= hessian_tol * abs(eigs.max())
        if not definite and verdict != "inconclusive":
            verdict = "non-regular"
    if not refined:
        verdict = "inconclusive"
    return RegularityReport(edge, tuple(refined), tuple(hessians), verdict)


def check_gap_edge_regularity(graph: PeriodicGraph, gap: Gap, which: str, **kwargs) -> RegularityReport:
    edge = gap_edge(gap, which, graph.nu)
    return check_edge_regularity(band_sampler(graph, edge.band_index), edge, graph.dim, **kwargs)


# ---------------------------------------------------------------------------
# CSV emission


def format_real(x: float) -> str:
    return f"{x:.17g}"


def bands_to_csv(bands: BandStructure) -> str:
    d = bands.graph.dim
    nu = bands.graph.nu
    header = ",".join([f"k_{i+1}" for i in range(d)] + [f"E_{s+1}" for s in range(nu)])
    lines = [header]
    for k, e in zip(bands.kpoints, bands.bands):
        lines.append(",".join(format_real(x) for x in (*k, *e)))
    return "\n".join(lines) + "\n"
