"""Counting functions N_{+/-}(lambda, tau) on truncated lattices.

Two routes, neither of which forms a dense n x n array, share one trusted
factor of a shifted matrix A - xI: a sparse symmetric LDL^T from SuperLU
with diagonal pivoting and a minimum-degree ordering, whose negative pivots
count the eigenvalues of A below x (Sylvester's law of inertia).  A factor
that left the diagonal or grew its pivots is retried in natural order, then
replaced by a dense eigensolve and, where a solve is needed, a dense LU.

* Birman-Schwinger: eigenvalue counting for the fixed compact matrix
  X(lambda) = V^{1/2} (lambda I - H_L)^{-1} V^{1/2}, so that
  N_+ = #{eig X > 1/tau} and N_- = #{eig X < -1/tau}.  When reversing the
  site order leaves H_L and V exactly unchanged, as it does on every box of
  a one-vertex lattice with a potential even in n, H_L folds into an even
  and an odd block of half the size, and X into the direct sum of their BS
  matrices; otherwise H_L is the one block.  Each block's X_b is applied
  through the factor of H_b - lambda, and the negative pivots of the block
  factors must add up to the count of H_L below lambda.  Only the
  eigenvalues beyond a threshold are computed, by one block Lanczos run
  per block with full reorthogonalization: the basis grows by a block of
  16 columns until the Ritz values down to the first one inside the
  threshold have settled and their explicit residuals alone decide the
  count and the boundary flag.  The spectrum of the dense X_b decides
  instead, and only that spectrum is kept, when its support is smaller
  than two blocks, when the basis has no room for another block, and when
  16 or more returned Ritz values agree within their residuals, since a
  block Krylov space holds at most 16 vectors of an eigenspace.  The block
  tails merge, and one partial spectrum per sign is kept and serves every
  narrower threshold; a wider one replaces it.
* Direct spectral inertia: difference of eigenvalue counts below lambda
  between H_L and H_L +/- tau V, each from the factor's negative pivots.

Each lambda is first certified a resolvent point of H_L, at least 1e-8
from its spectrum, by Sylvester counts below lambda -/+ 1e-8.  A ladder of
lambdas toward a gap edge needs only one such pair, below its lowest rung
and above its highest: equal counts leave no eigenvalue anywhere in the
ladder's span, and only an eigenvalue inside it makes the rungs bisect.

The asymptotic table picks each tau's box by the stabilization of N_bs
and counts N_direct on that box only; it and `gapcount count` flag
`mismatch` on disagreement.  Its one Gamma, kept on the table and not on
the rows, rejects a lambda within 1e-12 of a band before any box is built.
Every box is built and its lambda checked, but the BS tails run from the
largest box down and, below the two largest, only for the taus that no
agreeing pair above has settled.

Every counting function takes H_L either as a FiniteHamiltonian or as a
symmetric matrix, sparse or dense, and V as a float array of site values.
Each public call converts and checks H_L, V, tau and sign once, and the
steps below it take the checked CSC matrix.

All dense linear algebra here (products by dgemm, eigensolves, norms) goes
through scipy.linalg, whose OpenBLAS is the one SuperLU links: NumPy bundles
a second OpenBLAS with its own thread pool, and a Lanczos run that switched
between the two kept both pools spinning, twice as many threads as cores.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy import linalg as sla
from scipy.linalg.blas import dgemm
from scipy.sparse.linalg import splu

from .errors import GapcountError
from .floquet import Gap, band_structure
from .gamma import GammaResult, check_dimension, gamma_coefficient
from .periodic_graph import (
    FiniteHamiltonian,
    PeriodicGraph,
    ThetaProfile,
    assemble_truncated,
    sample_potential,
)

_BOUNDARY_TOL = 1e-10
_RESOLVENT_TOL = 1e-8
# An LDL^T whose entries grew beyond this factor over those of A - xI is not
# trusted for its signs.  Growth near 1/delta comes from a shift delta from
# the spectrum; below 1/sqrt(eps) the backward error eps/delta stays below delta.
_PIVOT_GROWTH = 1e7
# Columns the block Lanczos basis grows by at each step.
_BLOCK = 16
# A Ritz value has settled once a step moves it by less than this fraction
# of its distance from the threshold; only then are its residuals formed.
_SETTLED = 1e-3
# Blocks per chunk of the stored Lanczos basis.
_CHUNK = 8
# Directions of a new block that Gram-Schmidt reduced below this fraction of
# the block's norm are rounding noise, replaced by random ones; so are those
# below _RANK_TOL of the block's largest singular value.
_BREAKDOWN = 1e-12
_RANK_TOL = 1e-6
# Rungs of the default lambda ladder toward a gap edge.
_LADDER_DEPTH = 12
# Support guard of the asymptotic table: the largest box needs
# L >= _SUPPORT_C tau^{p/d}.
_SUPPORT_C = 10.0


class CountingError(GapcountError):
    """Precondition violation in a counting operation."""


class Count(NamedTuple):
    value: int
    boundary: bool  # threshold within 1e-10 of an eigenvalue


class Inertia(NamedTuple):
    below: int  # eigenvalues strictly below the shift
    route: str  # "mmd", "natural" or "dense"


Matrix = FiniteHamiltonian | sp.spmatrix | sp.sparray | np.ndarray


@dataclass(frozen=True)
class CountRow:
    tau: float
    L: int
    N_bs: int
    N_direct: int
    ratio: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CountingTable:
    rows: tuple[CountRow, ...]
    gamma: GammaResult


@dataclass(frozen=True)
class EdgeCountResult:
    estimate: int
    counts: np.ndarray  # one per rung of default_lambda_ladder


# ---------------------------------------------------------------------------
# operands


def _symmetric_matrix(H: Matrix) -> sp.csc_matrix:
    """H_L as a sparse CSC matrix, checked square, finite and symmetric."""
    A = H.matrix if isinstance(H, FiniteHamiltonian) else H
    A = sp.csc_matrix(A, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise CountingError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A.data)):
        raise CountingError("matrix entries must be finite")
    asym = abs(A - A.T)
    if asym.nnz and asym.max() > 1e-12 * abs(A).max():
        raise CountingError("matrix must be symmetric")
    return A


def _potential(V: np.ndarray, nsites: int) -> np.ndarray:
    v = np.asarray(V, dtype=float)
    if v.shape != (nsites,):
        raise CountingError("potential not sampled on the same box as H_L")
    if not np.all(np.isfinite(v)):
        raise CountingError("potential must be finite")
    if v.size and v.min() < 0.0:
        raise CountingError("potential must be nonnegative")
    return v


def _coupling(tau: float, sign: str) -> float:
    """The signed coupling +tau or -tau of H_L +/- tau V."""
    if not 0.0 < tau < math.inf:
        raise CountingError("tau must be positive and finite")
    if sign not in ("+", "-"):
        raise CountingError("sign must be '+' or '-'")
    return tau if sign == "+" else -tau


# ---------------------------------------------------------------------------
# eigenvalue counting below a shift


def _factor(A: sp.csc_matrix, x: float):
    """#eigenvalues of A strictly below x, the route that counted them, and a
    solve for A - xI, from one trusted factor.

    With diagonal pivoting P (A - xI) P^T = L U, and diag(U) is the D of an
    LDL^T, so its negative entries count the eigenvalues below x.  A factor
    that left the diagonal, has a non-finite pivot or grew its entries beyond
    _PIVOT_GROWTH is not trusted; minimum-degree order is retried in natural
    order, then a dense eigensolve counts and a dense LU, formed on the first
    solve, solves.
    """
    n = A.shape[0]
    M = (A - x * sp.identity(n, format="csc")).tocsc()
    for ordering, route in (("MMD_AT_PLUS_A", "mmd"), ("NATURAL", "natural")) if n else ():
        try:
            lu = splu(M, permc_spec=ordering, diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError:  # an exactly zero pivot column
            continue
        pivots = lu.U.diagonal()
        trusted = np.array_equal(lu.perm_r, lu.perm_c) and np.all(np.isfinite(pivots))
        if trusted and np.abs(lu.U.data).max() <= _PIVOT_GROWTH * np.abs(M.data).max():
            return int(np.count_nonzero(pivots < 0.0)), route, lu.solve
    dense = functools.cache(lambda: sla.lu_factor(M.toarray()))
    w = sla.eigvalsh(A.toarray(), driver="evd")
    return int(np.count_nonzero(w < x)), "dense", lambda rhs: sla.lu_solve(dense(), rhs)


def inertia(A: Matrix, x: float) -> Inertia:
    """#eigenvalues of the symmetric matrix A strictly below x, and the route."""
    if not math.isfinite(x):
        raise CountingError(f"shift x={x} must be finite")
    return _inertia(_symmetric_matrix(A), x)


def _inertia(A: sp.csc_matrix, x: float) -> Inertia:
    """inertia() of a matrix already checked by _symmetric_matrix."""
    return Inertia(*_factor(A, x)[:2])


def eigencount_below(A: Matrix, x: float) -> int:
    """#eigenvalues of the symmetric matrix A strictly below x."""
    return inertia(A, x).below


def _resolvent_counts(A: sp.csc_matrix, lams) -> np.ndarray:
    """#eigenvalues of A below each lambda, rejecting any lambda within 1e-8
    of the spectrum of A.

    By Sylvester's law of inertia, equal counts below min(lams) - 1e-8 and
    max(lams) + 1e-8 leave no eigenvalue in the span, and every lambda gets
    that count.  Otherwise the sorted lambdas split in half, each half
    certified the same way from the counts at its ends; a single lambda is
    rejected when A has more eigenvalues below lambda + 1e-8 than below
    lambda - 1e-8.  Of several rejected lambdas the error names the first in
    the order given.
    """
    lams = np.asarray(lams, dtype=float)
    for lam in lams:
        if not math.isfinite(lam):
            raise CountingError(f"lambda={lam} must be finite")
    order = np.argsort(lams, kind="stable")
    x = lams[order]
    counts = np.empty(x.size, dtype=int)
    rejected = []

    def certify(i: int, j: int, lo: int, hi: int) -> None:
        # x[i:j], with lo and hi the counts below x[i] - tol and x[j - 1] + tol
        if j - i > 1 and lo != hi:
            m = (i + j) // 2
            certify(i, m, lo, _inertia(A, x[m - 1] + _RESOLVENT_TOL).below)
            certify(m, j, _inertia(A, x[m] - _RESOLVENT_TOL).below, hi)
        elif hi > lo:
            rejected.append(order[i])
        else:
            counts[i:j] = lo

    if x.size:
        lo = _inertia(A, x[0] - _RESOLVENT_TOL).below
        certify(0, x.size, lo, _inertia(A, x[-1] + _RESOLVENT_TOL).below)
    if rejected:
        raise CountingError(
            f"lambda={lams[min(rejected)]} is within {_RESOLVENT_TOL} of an eigenvalue of H_L"
        )
    out = np.empty_like(counts)
    out[order] = counts
    return out


# ---------------------------------------------------------------------------
# Birman-Schwinger route


@dataclass(frozen=True)
class _Tail:
    """Eigenvalues mu of s X (s = +/-1) with error bounds, complete down to start."""

    mu: np.ndarray
    err: np.ndarray
    start: float

    def decides(self, threshold: float) -> bool:
        """Whether mu settles both the count beyond the threshold and the
        boundary flag there, exactly as the true eigenvalues would."""
        if threshold < self.start:
            return False
        d = np.abs(self.mu - threshold)
        return not np.any((d < self.err) | (np.abs(d - _BOUNDARY_TOL) < self.err))


@dataclass
class BSBlock:
    """X_b = V_b^{1/2} (lambda I - H_b)^{-1} V_b^{1/2} on the support of V_b,
    for one block H_b of H_L and its diagonal potential V_b.

    X_b is applied through the trusted factor of H_b - lambda.  `tail` finds
    only the eigenvalues beyond a threshold, by one block Lanczos run whose
    explicit residuals alone decide the tail.  The dense eigenvalues stand in
    for that run when the support is smaller than two blocks, when the basis
    fills up, and when _BLOCK or more Ritz values agree within their
    residuals; `eigenvalues` forms the dense X_b on first access and keeps
    only its spectrum.
    """

    support: np.ndarray  # indices into H_b with V_b > 0
    sqrtv: np.ndarray  # V_b^{1/2} on the support
    size: int  # rows of H_b
    route: str  # of the factor of H_b - lambda: "mmd", "natural" or "dense"
    _solve: object = field(repr=False)  # solves (H_b - lambda) Z = R
    _eigenvalues: np.ndarray | None = field(default=None, repr=False)

    def apply(self, Y: np.ndarray) -> np.ndarray:
        """X_b @ Y for a vector or a block of columns on the support."""
        Y = np.asarray(Y, dtype=float)
        rhs = np.zeros((self.size,) + Y.shape[1:])
        rhs[self.support] = (self.sqrtv * Y.T).T
        return -(self.sqrtv * self._solve(rhs)[self.support].T).T

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            if self.support.size:
                X = self.apply(np.eye(self.support.size))
                self._eigenvalues = sla.eigvalsh(0.5 * (X + X.T), driver="evd")
            else:
                self._eigenvalues = np.zeros(0)
        return self._eigenvalues

    def tail(self, s: float, threshold: float) -> _Tail:
        """The eigenvalues of s X_b (s = +/-1) down to the threshold."""
        m = self.support.size
        found = _lanczos_pass(lambda Y: s * self.apply(Y), m, threshold)
        # A block Krylov space holds at most _BLOCK vectors of an eigenspace,
        # so a run of that many Ritz values that agree within their residuals
        # may hide more copies: the dense X_b decides then, as it does when
        # the basis has no room for a block.
        if found is not None and _longest_cluster(*found) < _BLOCK:
            return _Tail(*found, threshold)
        return _Tail(s * self.eigenvalues, np.zeros(m), -math.inf)


@dataclass
class BSMatrix:
    """X = V^{1/2} (lambda I - H_L)^{-1} V^{1/2} on the V-support, as the
    direct sum of its blocks.

    When reversing the site order leaves H_L and V exactly unchanged,
    bs_matrix folds them into an even and an odd block and X is the direct
    sum of their BSBlocks; otherwise the one block is H_L itself.  The
    negative pivots of the blocks' factors must number `below`, the count
    of H_L below lambda.  `eigenvalues` is the sorted union of the block
    spectra; `tail` merges the block tails and keeps one such tail per
    sign, replaced when a threshold it cannot decide needs new runs.
    """

    support: np.ndarray  # site indices with V > 0
    H: sp.csc_matrix  # H_L as checked by bs_matrix, for the direct route to reuse
    below: int  # eigenvalues of H_L below lambda
    blocks: list[BSBlock]  # the even and odd blocks of a reversal-invariant box; else one
    _tails: dict[str, _Tail] = field(default_factory=dict, repr=False)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.sort(np.concatenate([b.eigenvalues for b in self.blocks]))

    def tail(self, sign: str, threshold: float) -> np.ndarray:
        """Eigenvalues of +X ('+') or -X ('-') that include every one beyond
        threshold - 1e-10, accurate enough to decide the count beyond the
        threshold and whether one lies within 1e-10 of it."""
        t = self._tails.get(sign)
        if t is None or not t.decides(threshold):
            t = self._tails[sign] = self._partial_spectrum(1.0 if sign == "+" else -1.0, threshold)
        return t.mu

    def _partial_spectrum(self, s: float, threshold: float) -> _Tail:
        """The block tails merged, complete down to the highest of their starts."""
        tails = [b.tail(s, threshold) for b in self.blocks]
        mu = np.concatenate([t.mu for t in tails])
        order = np.argsort(-mu, kind="stable")
        err = np.concatenate([t.err for t in tails])[order]
        return _Tail(mu[order], err, max(t.start for t in tails))


def _longest_cluster(theta: np.ndarray, err: np.ndarray) -> int:
    """Length of the longest run of consecutive sorted values that agree
    within their error bounds."""
    close = np.abs(np.diff(theta)) <= err[:-1] + err[1:]
    breaks = np.flatnonzero(np.concatenate([[True], ~close, [True]]))
    return int(np.diff(breaks).max())


class _Basis:
    """Orthonormal columns of m rows, stored in column-major chunks of
    _CHUNK blocks.

    Gram-Schmidt against the whole basis then takes a few large products,
    and memory is committed only for the columns filled so far.
    """

    def __init__(self, m: int):
        self.m = m
        self.k = 0  # columns filled
        self._chunks: list[np.ndarray] = []

    def _filled(self):
        width = _CHUNK * _BLOCK
        for i, chunk in enumerate(self._chunks):
            yield i * width, chunk[:, : min(width, self.k - i * width)]

    def append(self, Q: np.ndarray) -> None:
        width = _CHUNK * _BLOCK
        if self.k == len(self._chunks) * width:
            self._chunks.append(np.empty((self.m, width), order="F"))
        j = self.k % width
        self._chunks[-1][:, j : j + Q.shape[1]] = Q
        self.k += Q.shape[1]

    def project_out(self, W: np.ndarray) -> np.ndarray:
        """Subtract from W, in place, its components along the basis; return
        their coefficients."""
        C = np.concatenate(
            [dgemm(1.0, S, W, trans_a=True) for _, S in self._filled()] or [np.zeros((0, W.shape[1]))]
        )
        for i, S in self._filled():
            W -= dgemm(1.0, S, C[i : i + S.shape[1]])
        return C

    def combine(self, Y: np.ndarray) -> np.ndarray:
        """The vectors whose coefficients in the basis are the columns of Y."""
        out = np.zeros((self.m, Y.shape[1]))
        for i, S in self._filled():
            out += dgemm(1.0, S, Y[i : i + S.shape[1]])
        return out


def _orthonormalize(W: np.ndarray, scale: float, rng: np.random.Generator):
    """Q with orthonormal columns and B with W = Q B, from the eigenvectors
    of W^T W (Stathopoulos & Wu 2002).

    Directions whose singular value is below _RANK_TOL of the largest, which
    the Gram matrix cannot resolve, or below _BREAKDOWN * scale, which are
    rounding noise, are dropped from W and random unit columns take their
    place in Q.
    """
    s2, V = sla.eigh(dgemm(1.0, W, W, trans_a=True), driver="evd")
    s = np.sqrt(np.maximum(s2, 0.0))
    keep = s > max(_RANK_TOL * s[-1], _BREAKDOWN * scale)
    Q = dgemm(1.0, W, V[:, keep] / s[keep])
    B = (V[:, keep] * s[keep]).T
    lost = int(np.count_nonzero(~keep))
    if lost:
        R = rng.standard_normal((W.shape[0], lost))
        Q = np.hstack([Q, R / sla.norm(R, axis=0)])
        B = np.vstack([B, np.zeros((lost, B.shape[1]))])
    return Q, B


def _next_block(W: np.ndarray, basis: _Basis, rng: np.random.Generator):
    """Q with orthonormal columns, orthogonal to the basis, and C with
    W = basis C + Q B for some B, up to the directions that _orthonormalize
    replaces.  W is overwritten.

    Block classical Gram-Schmidt applied twice, with an orthonormalization
    after each pass (Barlow & Smoktunowicz 2013).  Random columns that stand
    in for lost directions let a Krylov space that has become invariant go
    on into the rest of the space.
    """
    scale = sla.norm(W.ravel("K"))  # 1-D, so that BLAS nrm2 forms it
    C = basis.project_out(W)
    Q, B = _orthonormalize(W, scale, rng)
    C2 = basis.project_out(Q)
    Q, _ = _orthonormalize(Q, 1.0, rng)
    return Q, C + dgemm(1.0, C2, B)


def _lanczos_pass(op, m: int, threshold: float):
    """Block Lanczos with full reorthogonalization (Golub & Underwood 1977)
    for the largest eigenvalues of the symmetric op on R^m.

    Returns the Ritz values from the largest down to the first one below
    threshold - 1e-10 and their explicit residuals ||op w - theta w|| / ||w||,
    once those residuals decide the count and the boundary flag at the
    threshold.  Returns None when the basis has no room left for a block,
    which holds from the start when m is smaller than two blocks.
    """
    b = _BLOCK
    rng = np.random.default_rng(0)
    basis = _Basis(m)
    Q = _next_block(rng.standard_normal((m, b)), basis, rng)[0]
    T = np.zeros((0, 0))
    prev = np.zeros(0)
    while (k := basis.k + b) + b <= m:
        basis.append(Q)
        Q, C = _next_block(op(Q), basis, rng)
        # T = basis^T op basis grows by the block column C.
        grown = np.empty((k, k))
        grown[: k - b, : k - b] = T
        grown[:, k - b :] = C
        grown[k - b :, : k - b] = C[: k - b].T
        grown[k - b :, k - b :] = 0.5 * (C[k - b :] + C[k - b :].T)
        T = grown
        theta = sla.eigvalsh(T, driver="evd")[::-1]
        inside = np.flatnonzero(theta < threshold - _BOUNDARY_TOL)
        if inside.size and inside[0] < prev.size:
            r = inside[0] + 1
            moved = np.abs(theta[:r] - prev[:r])
            if np.all(moved <= _SETTLED * np.abs(theta[:r] - threshold)):
                # all of T's eigenvectors by one divide-and-conquer call, which
                # is faster than the r of them by dsyevr
                w, Y = sla.eigh(T, driver="evd")
                w, Y = w[k - r :][::-1], Y[:, k - r :][:, ::-1]
                e = np.empty(r)
                for i in range(0, r, b):
                    Z = basis.combine(Y[:, i : i + b])
                    e[i : i + b] = sla.norm(op(Z) - Z * w[i : i + b], axis=0)
                    e[i : i + b] /= sla.norm(Z, axis=0)
                if _Tail(w, e, threshold).decides(threshold):
                    return w, e
        prev = theta
    return None


def _fold(A: sp.csc_matrix, v: np.ndarray) -> list[tuple[sp.csc_matrix, np.ndarray]]:
    """The blocks (H_b, V_b) of X: an even and an odd block when reversing the
    site order J keeps H_L and V exactly, else H_L and V themselves.

    A J-invariant H_L is block diagonal in the orthonormal basis
    (e_i +/- e_{n-1-i}) / sqrt 2, i < n // 2, with the middle unit vector of
    an odd n in the even block (Cantoni & Butler 1976).  The block of parity
    s holds A[i, j] + s A[i, n-1-j], its middle row and column scaled by
    1/sqrt 2, and the diagonal V, even under J, is v[:size] in each block.
    """
    n = A.shape[0]
    if not (np.array_equal(v[::-1], v) and (A != A[::-1, ::-1]).nnz == 0):
        return [(A, v)]
    h = n // 2
    blocks = []
    for s, m in ((1.0, n - h), (-1.0, h)):
        B = (A[:m, :m] + s * A[:m, n - 1 - np.arange(m)]).tocsc()
        if m > h:  # the middle site, its own mirror image, came in twice
            B.data[B.indices == h] *= math.sqrt(0.5)
            B.data[B.indptr[h] :] *= math.sqrt(0.5)  # column h, the last
        if m:
            blocks.append((B, v[:m]))
    return blocks


def bs_matrix(H: Matrix, V: np.ndarray, lam: float) -> BSMatrix:
    """X = V^{1/2} (lambda I - H_L)^{-1} V^{1/2} on the support of V."""
    A = _symmetric_matrix(H)
    v = _potential(V, A.shape[0])
    below = int(_resolvent_counts(A, [lam])[0])
    blocks, negative = [], 0
    for B, vb in _fold(A, v):
        count, route, solve = _factor(B, lam)
        support = np.flatnonzero(vb > 0.0)
        blocks.append(BSBlock(support, np.sqrt(vb[support]), B.shape[0], route, solve))
        negative += count
    if negative != below:
        raise CountingError(f"factors of H_L - lambda have {negative} negative pivots, not {below}")
    return BSMatrix(np.flatnonzero(v > 0.0), A, below, blocks)


def counting_bs(X: BSMatrix, tau: float, sign: str) -> Count:
    """n_{+/-}(1/tau, X): eigenvalues of X beyond the threshold 1/tau."""
    _coupling(tau, sign)  # checks tau and sign
    thr = 1.0 / tau
    mu = X.tail(sign, thr)  # eigenvalues of +X or -X
    value = int(np.count_nonzero(mu > thr))
    boundary = bool(mu.size and np.min(np.abs(mu - thr)) <= _BOUNDARY_TOL)
    return Count(value, boundary)


# ---------------------------------------------------------------------------
# direct inertia route


def counting_direct(H: Matrix, V: np.ndarray, lam: float, tau: float, sign: str) -> Count:
    """Inertia difference between H_L and H_L +/- tau V below lambda.

    The boundary flag marks lambda within 1e-10 of an eigenvalue of
    H_L +/- tau V, seen as a change of its count across lambda -/+ 1e-10.
    """
    t = _coupling(tau, sign)
    A = _symmetric_matrix(H)
    v = _potential(V, A.shape[0])
    value = _direct_count(A, v, lam, t, int(_resolvent_counts(A, [lam])[0]))
    B = A + sp.diags(t * v)
    boundary = _inertia(B, lam - _BOUNDARY_TOL).below != _inertia(B, lam + _BOUNDARY_TOL).below
    return Count(value, boundary)


def _direct_count(A: sp.csc_matrix, v: np.ndarray, lam: float, t: float, below: int) -> int:
    """counting_direct() for checked operands, the signed coupling t = +/-tau
    and the count of A below lambda from _resolvent_counts or bs_matrix."""
    shifted = _inertia(A + sp.diags(t * v), lam).below
    value = below - shifted if t > 0 else shifted - below
    if value < 0:
        raise CountingError(
            f"negative inertia difference {value} at lambda={lam}, tau={abs(t)}: "
            "impossible for V >= 0, so a count is wrong"
        )
    return value


# ---------------------------------------------------------------------------
# edge limits and the asymptotic table


def default_lambda_ladder(gap: Gap, sign: str) -> np.ndarray:
    """Geometric approach lambda_k = Lambda -/+ width 2^{-k} toward the edge.

    sign '+' approaches the lower edge Lambda_+ from above; sign '-'
    approaches the upper edge Lambda_- from below.  Semi-infinite gaps
    use a unit width scale.
    """
    width = gap.width if math.isfinite(gap.width) else 1.0
    ks = np.arange(1, _LADDER_DEPTH + 1)
    if sign == "+":
        if not math.isfinite(gap.lower):
            raise CountingError("gap has no finite lower edge")
        return gap.lower + width * 2.0 ** (-ks)
    if sign == "-":
        if not math.isfinite(gap.upper):
            raise CountingError("gap has no finite upper edge")
        return gap.upper - width * 2.0 ** (-ks)
    raise CountingError("sign must be '+' or '-'")


def edge_counting(H: Matrix, V: np.ndarray, gap: Gap, tau: float, sign: str) -> EdgeCountResult:
    """Monotone lambda-limit of the counting function at a gap edge.

    One pair of Sylvester counts, below the lowest rung - 1e-8 and the
    highest + 1e-8, certifies every rung as a resolvent point of H_L when
    they agree; when an eigenvalue lies inside the ladder's span, the rungs
    are bisected until each part is certified or a rung is rejected.  Each
    rung then costs one count of H_L +/- tau V.
    """
    lams = default_lambda_ladder(gap, sign)
    t = _coupling(tau, sign)
    A = _symmetric_matrix(H)
    v = _potential(V, A.shape[0])
    below = _resolvent_counts(A, lams)
    counts = np.array([_direct_count(A, v, lam, t, b) for lam, b in zip(lams, below)])
    return EdgeCountResult(int(counts[-1]), counts)


def asymptotic_table(
    graph: PeriodicGraph,
    theta: ThetaProfile,
    p: float,
    lam: float,
    sign: str,
    tau_list: Sequence[float],
    L_list: Sequence[int],
    *,
    grid: int = 64,
) -> CountingTable:
    """Stabilization-in-L counting table compared against tau^p Gamma.

    Each tau's row takes the larger box of the last pair of consecutive boxes
    whose N_bs agree, or the largest box, flagged unstabilized, when no pair
    agrees.  Every box is built and its lambda checked as a resolvent point,
    but the BS tails run from the largest box down: the two largest count
    every tau, a smaller box only the taus that no pair above it has settled,
    and none once every tau has settled.  N_direct is counted once per tau,
    on its row's box.
    """
    tau_list = list(tau_list)
    if not tau_list:
        raise CountingError("tau_list must not be empty")
    couplings = [_coupling(tau, sign) for tau in tau_list]
    L_list = sorted(L_list)
    if not L_list or len(set(L_list)) < len(L_list):
        raise CountingError(f"L_list must hold at least one box radius and no repeats, got {L_list}")
    if any(not isinstance(L, (int, np.integer)) or L < 0 for L in L_list):
        raise CountingError(f"box radii must be integers >= 0, got {L_list}")
    Lmax = L_list[-1]
    for tau in tau_list:
        need = _SUPPORT_C * tau ** (p / graph.dim)
        if Lmax < need:
            raise CountingError(
                f"largest L={Lmax} below the support heuristic {need:.1f} for tau={tau}"
            )
    # rejects d > 3 before the band sweep, and a lambda within 1e-12 of a band
    # before any box is built
    check_dimension(graph.dim)
    gamma = gamma_coefficient(band_structure(graph, grid), lam, p, sign, theta)

    # Per box: V and its BSMatrix, which holds the checked H_L, the count below
    # lambda and the factor of H_L - lambda.
    boxes = []
    for L in L_list:
        V = sample_potential(graph, theta, p, L)
        # public, so perfbench times it; checks H_L, V and lambda for both routes
        boxes.append((V, bs_matrix(assemble_truncated(graph, L), V, lam)))

    # BS counts by (box, tau), from the largest box down.  Box i settles a tau
    # at box i + 1 when the two agree; unsettled taus go widest threshold
    # first, so that one partial spectrum per box serves them all.
    top = len(boxes) - 1
    cbs, settled = {}, {}
    unsettled = sorted(set(tau_list), reverse=True)
    for i in range(top, -1, -1):
        if not unsettled:
            break
        for tau in unsettled:
            cbs[i, tau] = counting_bs(boxes[i][1], tau, sign)
        if i < top:
            settled.update((tau, i + 1) for tau in unsettled if cbs[i, tau].value == cbs[i + 1, tau].value)
            unsettled = [tau for tau in unsettled if tau not in settled]

    rows = []
    for tau, t in zip(tau_list, couplings):
        i = settled.get(tau, top)
        V, X = boxes[i]
        cb, ndir = cbs[i, tau], _direct_count(X.H, V, lam, t, X.below)
        flags = ["unstabilized"] * (tau not in settled) + ["boundary"] * cb.boundary + ["mismatch"] * (cb.value != ndir)
        denom = tau**p * gamma.value
        ratio = cb.value / denom if denom > 0 else math.inf
        rows.append(CountRow(tau, L_list[i], cb.value, ndir, ratio, tuple(flags)))
    return CountingTable(tuple(rows), gamma)
