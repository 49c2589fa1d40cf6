"""Fiber matrices h(k), band structure, gaps and edge regularity.

The Floquet fiber of the periodic operator is the nu x nu Hermitian
matrix h(k), assembled from the canonical edge list and one phase
z_e = e^{i k.n} per edge (j, j', n):

    h(k)_{jj}  = degree(j) + Q(j) - sum over self-orbit edges 2 Re z_e
    h(k)_{jj'} -= z_e   for each stored edge (j, j', n), j != j'

`_assemble` is the one place that builds this matrix, and
`_band_energies` the one place that takes its eigenvalues: in real
arithmetic for nu = 1, by the closed form m +- hypot((a - d)/2, |b|) for
nu = 2, by LAPACK for nu >= 3. At scattered quasimomenta (`fiber_matrix`,
`band_values`) the phases are e^{i K.n}. On the uniform M^d torus grid,
`_sweep` never forms k-points: e^{i k.n} is the product over axes of
the tables e^{i n_a k_a}, each of length M, so a block's phase is a
broadcast product of table slices. Blocks are boxes of index ranges,
never more than _CHUNK points, so a block's float arrays stay in a
per-core L2 cache; they follow the C order of the swept box, `torus_grid`
for `torus_bands`: whole trailing axes, a run of the next axis, and fixed
indices on the leading axes.

Reduced sweep. Edge multiplicities are integers and Q is real, so every
edge weight is real and h(-k) = conj h(k): each band is even,
E_s(-k) = E_s(k). An axis a is a mirror axis when flipping n_a -> -n_a
maps the canonical edge multiset onto itself (`_mirror_axes`); then
h(R_a k) = h(k), R_a the flip of k_a, and each band is even in k_a
alone. The grid -pi + 2 pi m / M maps onto itself under k_a -> -k_a
(m -> -m mod M), so `band_structure` and Gamma's torus sums read only
m = 0..M//2 on every mirror axis and on the first other axis (by
k -> -k), and every index on the rest (`_fold_axes`). Each point is
weighted by its mirror count, the product over the folded axes of 1 for
m = 0 and, for even M, m = M/2 (each its own mirror) and 2 for the rest.

Mirror axes that swap. When swapping n_a <-> n_b also maps the edge
multiset onto itself for any two axes of a class of mirror axes
(`_swap_class`), h(P k) = h(k) for every permutation P of the class, and
the folded box maps onto itself under P. The sweep then keeps the points
where the class's first axis holds the class minimum, each weighted by
its mirror count times |class| / (the number of class entries at that
minimum): one slab per index of the first class axis, until the points
left form a box of one block (`_grid_blocks`). On square:3 the weights
are 3, 3/2 or 1 on top of the mirror counts, and at M = 256 the sweep
holds 765,765 points instead of the folded box's 129^3 = 2,146,689.
square:2 fits its whole folded box in one block up to M = 511.

The folded values equal the full grid's up to rounding. square:d folds
every axis and swaps them all; a graph with no mirror axis, or with
d = 1, folds axis 0 alone and swaps none. A graph with complex edge
weights would break these symmetries.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import GapcountError
from .periodic_graph import Edge, PeriodicGraph, _canonical

# Points per sweep block. A block's float arrays (512 KB each) then stay in a
# 2 MB per-core L2 cache: on a 2-vCPU Xeon host, 2^16 ran the bands-3d sweeps
# faster than 2^18 did, 2^15 was no faster, and at 2^14 a d = 3 block of the
# unswapped sweeps is a single grid line and its per-block cost shows.
_CHUNK = 1 << 16
_EPS = float(np.finfo(float).eps)

# check_edge_regularity: coarse search grid per axis, finite-difference step
# of the coarsest Hessian, relative definiteness tolerance, and the number of
# extremizer clusters beyond which an edge counts as non-regular.
_COARSE_GRID = 24
_FD_STEP = 1e-2
_HESSIAN_TOL = 1e-6
_MAX_EXTREMIZERS = 64


class EigenError(GapcountError):
    """Input violates the contract of the fiber, band or gap routines."""


@dataclass(frozen=True)
class BandStructure:
    graph: PeriodicGraph
    M: int
    band_extrema: np.ndarray  # (nu, 2) min/max over the M^d torus grid


@dataclass(frozen=True)
class Gap:
    lower: float  # Lambda_+ or -inf
    upper: float  # Lambda_- or +inf
    kind: str  # "interior" | "left-semi-infinite" | "right-semi-infinite"
    band_index: int | None  # N for interior gaps (1-based band above the gap)

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


def fiber_matrix(graph: PeriodicGraph, k: Sequence[float]) -> np.ndarray:
    """The (nu, nu) complex Hermitian fiber h(k)."""
    k = np.asarray(k, dtype=float)
    if k.shape != (graph.dim,):
        raise EigenError("quasimomentum has wrong dimension")
    return _assemble(graph, _phases(graph, k), ())


def _phases(graph: PeriodicGraph, K: np.ndarray) -> list[np.ndarray]:
    """e^{i K.n} per edge at scattered quasimomenta K of shape (..., d)."""
    return [np.exp(1j * (K @ np.asarray(e.cell, dtype=float))) for e in graph.edges]


def _assemble(graph: PeriodicGraph, phases: Sequence[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """h(k) over a batch of the given shape, from one phase array per edge broadcastable to it."""
    nu = graph.nu
    h = np.zeros(shape + (nu, nu), dtype=complex)
    diag = graph.degrees + graph.Q
    for j in range(nu):
        h[..., j, j] = diag[j]
    for e, z in zip(graph.edges, phases):
        if e.j == e.jp:
            h[..., e.j - 1, e.j - 1] -= 2.0 * e.mult * z.real
        else:
            w = e.mult * z
            h[..., e.j - 1, e.jp - 1] -= w
            h[..., e.jp - 1, e.j - 1] -= np.conj(w)
    return h


def _pair_eigvals(a: np.ndarray, d: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues m - r <= m + r of the Hermitian [[a, b], [conj b, d]], broadcast over arrays.

    m = (a + d)/2 and r = hypot((a - d)/2, |b|). An r <= eps |m| is taken
    as 0, as LAPACK deflates it, so touching bands do not split by rounding.
    """
    m = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), np.abs(b))
    r = np.where(r <= _EPS * np.abs(m), 0.0, r)
    return m - r, m + r


def _band_energies(graph: PeriodicGraph, phases: Sequence[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Sorted eigenvalues of h(k) over a batch of the given shape, one row per point in C order.

    For nu <= 2 the fiber is never formed: its diagonal is accumulated in
    real arithmetic, in the same operations as `_assemble`, so a scalar
    band is bitwise the diagonal that `_assemble` would build, and a pair
    of bands comes from `_pair_eigvals`. Larger fibers go to LAPACK.
    """
    nu = graph.nu
    if nu > 2:
        return np.linalg.eigvalsh(_assemble(graph, phases, shape).reshape(-1, nu, nu))
    diag: list = list(graph.degrees + graph.Q)
    b = 0j
    for e, z in zip(graph.edges, phases):
        if e.j == e.jp:
            diag[e.j - 1] = diag[e.j - 1] - 2.0 * e.mult * z.real
        else:  # build_graph stores edges with j <= j', so this one is (1, 2)
            b = b - e.mult * z
    if nu == 1:
        E = diag[0]  # a fresh array once the phases span the block
        return (E if np.shape(E) == shape else np.broadcast_to(E, shape).copy()).reshape(-1, 1)
    E = np.empty(shape + (2,))
    E[..., 0], E[..., 1] = _pair_eigvals(diag[0], diag[1], b)
    return E.reshape(-1, 2)


def band_values(graph: PeriodicGraph, K: np.ndarray) -> np.ndarray:
    """Sorted band energies E_1..E_nu at each row of K, in blocks of _CHUNK rows."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    blocks = []
    for start in range(0, K.shape[0], _CHUNK):
        Kb = K[start : start + _CHUNK]
        blocks.append(_band_energies(graph, _phases(graph, Kb), (Kb.shape[0],)))
    return np.concatenate(blocks, axis=0)


# ---------------------------------------------------------------------------
# grid sweeps


def _torus_axis(M: int) -> np.ndarray:
    return -math.pi + 2.0 * math.pi * np.arange(M) / M


def torus_grid(dim: int, M: int) -> np.ndarray:
    """Uniform grid k_m = -pi + 2 pi m / M per axis, C order, (M^d, d)."""
    mesh = np.meshgrid(*(_torus_axis(M),) * dim, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _grid_blocks(
    M: int, dim: int, fold: Sequence[int], swap: Sequence[int] = ()
) -> Iterator[tuple[tuple[range, ...], np.ndarray]]:
    """(block, w) over the blocks of the reduced sweep of the M^dim grid.

    The swept box runs m = 0..M//2 on the axes in `fold` and m = 0..M-1 on
    the rest. A block is its per-axis index ranges, at most _CHUNK points.
    w, broadcastable to the block, is each point's weight, its mirror count
    at least: the product over the folded axes of 1 at m = 0 and, for even
    M, m = M/2 (each its own mirror), and 2 elsewhere.

    With no swap class (fewer than two axes in `swap`) the blocks follow
    the C order of the box (`_box_blocks`). A class, its axes all in
    `fold`, cuts the box to the points where swap[0] holds the class
    minimum: one rectangular slab per index i of swap[0], the other class
    axes running i..M//2, cut into blocks in its own C order. A slab
    point's weight is its mirror count times |class| / (the number of class
    entries equal to i). The points whose class indices are all >= i0 form
    a box that the swaps map onto itself, so the slabs stop at i0 and that
    box is swept whole, at mirror counts alone. i0 is the first index where
    it fits one block: the slabs past it are small, and there a block's
    fixed cost outweighs the points the fold saves.
    """
    count = np.full(M, 2.0)  # mirror count of each index: 1 where m = -m mod M
    count[0] = 1.0
    if M % 2 == 0:
        count[M // 2] = 1.0
    half = M // 2 + 1
    box = tuple(range(half) if a in fold else range(M) for a in range(dim))
    slabs = 0
    if len(swap) > 1:
        # i0 of the docstring, the number of slabs
        rest = math.prod(len(r) for a, r in enumerate(box) if a not in swap)
        slabs = next(i for i in range(half + 1) if (half - i) ** len(swap) * rest <= _CHUNK)
        along = [[half if b == a else 1 for b in range(dim)] for a in range(dim)]
        # the mirror counts of the folded axes after swap[0], by index m
        counts = math.prod((count[:half].reshape(along[a]) for a in fold if a != swap[0]), start=np.ones(()))
        # the class share times the count of swap[0] (1 or 2), by m - i on the class axes after the first
        ties = sum(np.arange(half).reshape(along[c]) == 0 for c in swap[1:])
        shares = {c: c * len(swap) / (1.0 + ties) for c in (1.0, 2.0)}

    def on_class(s: slice) -> tuple[slice, ...]:  # s on the class axes after the first, all else whole
        return tuple(s if a in swap[1:] else slice(None) for a in range(dim))

    for i in range(slabs):
        slab = tuple(range(i, i + 1) if a == swap[0] else range(i, half) if a in swap else r for a, r in enumerate(box))
        w = counts[on_class(slice(i, half))] * shares[count[i]][on_class(slice(half - i))]
        for block, _ in _box_blocks(slab, count, ()):
            yield block, w[tuple(slice(r.start - s.start, r.stop - s.start) if n > 1 else slice(None)
                                 for r, s, n in zip(block, slab, w.shape))]
    if slabs < half:
        yield from _box_blocks(tuple(range(slabs, half) if a in swap else r for a, r in enumerate(box)), count, fold)


def _box_blocks(
    box: tuple[range, ...], count: np.ndarray, fold: Sequence[int]
) -> Iterator[tuple[tuple[range, ...], np.ndarray]]:
    """(block, mirror counts) over the C-order blocks of a box of index ranges.

    A block holds the last `whole` axes entirely, a run of the axis before
    them, and one index on each axis before that. A run stops where its
    axis's count changes, at m = 1 and m = M/2, so the counts vary only
    along the whole axes, and their product is formed once.
    """
    dim, M = len(box), count.size
    whole, size = 0, 1
    while whole < dim - 1 and size * len(box[dim - 1 - whole]) <= _CHUNK:
        size *= len(box[dim - 1 - whole])
        whole += 1
    cut = dim - 1 - whole  # the axis cut into runs
    tail = math.prod(
        (count[box[a].start : box[a].stop].reshape((-1,) + (1,) * (dim - 1 - a)) for a in range(cut + 1, dim)
         if a in fold),
        start=np.ones(()),
    )
    span = box[cut]
    steps = {1, (M + 1) // 2} if cut in fold else set()
    bounds = sorted({span.start, span.stop} | {b for b in steps if span.start < b < span.stop})
    run = _CHUNK // size
    for fixed in itertools.product(*box[:cut]):
        lead = math.prod(count[i] for a, i in enumerate(fixed) if a in fold)
        for lo, hi in zip(bounds, bounds[1:]):
            w = lead * (count[lo] if cut in fold else 1.0) * tail
            for start in range(lo, hi, run):
                yield tuple(range(i, i + 1) for i in fixed) + (range(start, min(start + run, hi)),) + box[cut + 1 :], w


def _maps_onto_itself(edges: tuple[Edge, ...], move: Callable[[tuple[int, ...]], tuple[int, ...]]) -> bool:
    """Whether moving each edge's cell n to move(n), each vertex fixed, maps the edge multiset onto itself.

    A graph's edges are canonical and distinct; a moved edge is
    canonicalized again, (j, j', n) as (j', j, -n), and the multiplicities
    are compared as integers, so the check is exact.
    """
    canonical = {(e.j, e.jp, e.cell): e.mult for e in edges}
    moved: Counter = Counter()
    for (j, jp, n), mult in canonical.items():
        moved[_canonical(j, jp, move(n))] += mult
    return moved == canonical


def _mirror_axes(edges: tuple[Edge, ...], dim: int) -> tuple[int, ...]:
    """The axes a whose flip n_a -> -n_a maps the edge multiset onto itself, each vertex fixed.

    On such an axis h(R_a k) = h(k) entrywise, R_a k the flip of k_a, and
    every band is even in k_a.
    """
    return tuple(a for a in range(dim) if _maps_onto_itself(edges, lambda n: n[:a] + (-n[a],) + n[a + 1 :]))


@functools.lru_cache(maxsize=64)
def _fold_axes(edges: tuple[Edge, ...], dim: int) -> tuple[int, ...]:
    """The axes the reduced sweep folds: every mirror axis and the first other axis, by E(-k) = E(k).

    Cached by edge set: every Gamma sum and ladder rung asks again.
    """
    mirrors = _mirror_axes(edges, dim)
    return tuple(sorted(mirrors + tuple(a for a in range(dim) if a not in mirrors)[:1]))


@functools.lru_cache(maxsize=64)
def _swap_class(edges: tuple[Edge, ...], dim: int) -> tuple[int, ...]:
    """The largest class of two or more mirror axes, any two of which swap
    n_a <-> n_b to map the edge multiset onto itself, each vertex fixed; ()
    when no two mirror axes swap.

    Swaps that map the edges onto themselves form a group, so an axis
    joins a class when it swaps with the class's first axis. On a class,
    h(P k) = h(k) for every permutation P of its axes, and every band is
    symmetric in them. Cached by edge set, as `_fold_axes` is.
    """

    def swaps(a: int, b: int) -> bool:
        return _maps_onto_itself(edges, lambda n: tuple(n[{a: b, b: a}.get(c, c)] for c in range(dim)))

    classes: list[list[int]] = []
    for a in _mirror_axes(edges, dim):
        for c in classes:
            if swaps(c[0], a):
                c.append(a)
                break
        else:
            classes.append([a])
    largest = max(classes, key=len, default=[])
    return tuple(largest) if len(largest) > 1 else ()


def _sweep(
    graph: PeriodicGraph, M: int, fold: Sequence[int], swap: Sequence[int] = ()
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(w, E) over the blocks of `_grid_blocks(M, graph.dim, fold, swap)`, w the weights of the block.

    E holds the sorted band energies, shape (block shape) + (nu,). Each
    edge phase e^{i k.n} is the broadcast product of the per-axis tables
    e^{i n_a k_a}, built once, indexed by the block, so no block forms
    k-points.
    """
    if M < 2:
        raise EigenError("grid size must be >= 2")
    axis, d = _torus_axis(M), graph.dim
    # each table shaped to broadcast along its own axis, so a block takes a view of it
    tables = [
        [(a, np.exp(1j * (n * axis)).reshape((M,) + (1,) * (d - 1 - a))) for a, n in enumerate(e.cell) if n]
        for e in graph.edges
    ]
    for block, w in _grid_blocks(M, d, fold, swap):
        shape = tuple(map(len, block))
        phases = [math.prod((t[block[a].start : block[a].stop] for a, t in edge), start=1.0 + 0j) for edge in tables]
        yield w, _band_energies(graph, phases, shape).reshape(shape + (graph.nu,))


def torus_bands(graph: PeriodicGraph, M: int) -> Iterator[np.ndarray]:
    """Sorted band energies at the rows of torus_grid(graph.dim, M), in C-order blocks."""
    for _, E in _sweep(graph, M, ()):
        yield E.reshape(-1, graph.nu)


def _reduced_torus_bands(graph: PeriodicGraph, M: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """`_sweep` over the folded axes and the swap class of the graph (see the module docstring).

    Summing w * f(E) over the blocks gives the sum of f(E) over the whole
    M^d grid, and the blocks hold every band value up to rounding.
    """
    return _sweep(graph, M, _fold_axes(graph.edges, graph.dim), _swap_class(graph.edges, graph.dim))


def band_structure(graph: PeriodicGraph, M: int) -> BandStructure:
    """Per-band min and max over the M^d torus grid, taken block by block over its reduced sweep."""
    lo = np.full(graph.nu, np.inf)
    hi = np.full(graph.nu, -np.inf)
    for _, E in _reduced_torus_bands(graph, M):
        E = E.reshape(-1, graph.nu)
        lo = np.minimum(lo, E.min(axis=0))
        hi = np.maximum(hi, E.max(axis=0))
    return BandStructure(graph, M, np.stack([lo, hi], axis=1))


def find_gaps(bands: BandStructure) -> list[Gap]:
    """Semi-infinite gaps plus grid-certified interior gaps."""
    ext = bands.band_extrema
    lam_min = float(ext[:, 0].min())
    lam_max = float(ext[:, 1].max())
    gaps = [Gap(-math.inf, lam_min, "left-semi-infinite", None)]
    running_max = float(ext[0, 1])
    for s in range(1, bands.graph.nu):
        lo = float(ext[s, 0])
        if running_max < lo:
            gaps.append(Gap(running_max, lo, "interior", s + 1))
        running_max = max(running_max, float(ext[s, 1]))
    gaps.append(Gap(lam_max, math.inf, "right-semi-infinite", None))
    return gaps


def gap_edge(gap: Gap, which: str, nu: int) -> GapEdge:
    """Resolve one endpoint of a gap to a GapEdge.

    which: "lower" for the finite Lambda_+ endpoint, "upper" for Lambda_-.
    """
    if which == "lower":
        if not math.isfinite(gap.lower):
            raise EigenError("gap has no finite lower edge")
        band = (gap.band_index - 2) if gap.kind == "interior" else nu - 1
        return GapEdge(gap.lower, "+", band)
    if which == "upper":
        if not math.isfinite(gap.upper):
            raise EigenError("gap has no finite upper edge")
        band = (gap.band_index - 1) if gap.kind == "interior" else 0
        return GapEdge(gap.upper, "-", band)
    raise EigenError("which must be 'lower' or 'upper'")


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


def _fd_hessians(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, steps: Sequence[float]) -> np.ndarray:
    """Central-difference Hessians of f at x, one per step, from a single call of f.

    The unit stencil is the centre, +-e_i, then +-e_i +- e_j for each i < j;
    each step scales it about x.
    """
    d, n = x.size, len(steps)
    e = np.eye(d)
    i, j = np.triu_indices(d, 1)
    unit = np.concatenate([np.zeros((1, d)), e, -e] + [s * e[i] + t * e[j] for s in (1, -1) for t in (1, -1)])
    vals = np.asarray(f(np.concatenate([x + h * unit for h in steps])), dtype=float).reshape(n, -1)
    h2 = np.array([[h**2] for h in steps])
    f0, fp, fm = vals[:, :1], vals[:, 1 : d + 1], vals[:, d + 1 : 2 * d + 1]
    fpp, fpm, fmp, fmm = np.split(vals[:, 2 * d + 1 :], 4, axis=1)
    H = np.zeros((n, d, d))
    H[:, range(d), range(d)] = (fp + fm - 2.0 * f0) / h2
    H[:, i, j] = H[:, j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h2)
    return H


def check_edge_regularity(
    band: Callable[[np.ndarray], np.ndarray],
    edge: GapEdge,
    dim: int,
) -> RegularityReport:
    """Locate edge extremizers and test for nondegenerate definite Hessians.

    `band` is a vectorized sampler k (npts, d) -> E(k); synthetic band
    samplers are accepted on the same footing as graph bands.
    """
    sign = 1.0 if edge.sign == "+" else -1.0  # maximize at a '+' edge
    K = torus_grid(dim, _COARSE_GRID)
    vals = np.asarray(band(K), dtype=float)
    spread = float(vals.max() - vals.min()) or 1.0
    target = float(vals.max()) if edge.sign == "+" else float(vals.min())
    tol0 = 1e-4 * spread + 1e-12
    cand = K[np.abs(vals - target) <= tol0]

    # greedy torus clustering at ~1.5 grid steps; a flat band makes every
    # grid point a candidate, so stop at the first cluster beyond the cap
    step = 2.0 * math.pi / _COARSE_GRID
    clusters: list[np.ndarray] = []
    for pt in cand:
        for c in clusters:
            if _torus_dist(pt, c) < 1.6 * step:
                break
        else:
            clusters.append(pt)
            if len(clusters) > _MAX_EXTREMIZERS:
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
        d1, d2, d3 = _fd_hessians(band, x, (_FD_STEP, _FD_STEP / 2.0, _FD_STEP / 4.0))
        r1 = (4.0 * d2 - d1) / 3.0
        r2 = (4.0 * d3 - d2) / 3.0
        scale = max(1.0, float(np.abs(r2).max()))
        if np.abs(r1 - r2).max() > 1e-3 * scale:
            verdict = "inconclusive"
        hessians.append(r2)
        curv = -sign * np.linalg.eigvalsh(r2)  # positive along every axis of a strict extremum
        definite = curv.min() > 0.0 and curv.min() >= _HESSIAN_TOL * abs(curv).max()
        if not definite and verdict != "inconclusive":
            verdict = "non-regular"
    if not refined:
        verdict = "inconclusive"
    return RegularityReport(edge, tuple(refined), tuple(hessians), verdict)


def check_gap_edge_regularity(graph: PeriodicGraph, gap: Gap, which: str) -> RegularityReport:
    edge = gap_edge(gap, which, graph.nu)
    return check_edge_regularity(lambda K: band_values(graph, K)[:, edge.band_index], edge, graph.dim)
