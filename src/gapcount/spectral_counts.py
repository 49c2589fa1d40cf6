"""Counting functions N_{+/-}(lambda, tau) on truncated lattices.

Two independent routes, neither of which forms a dense n x n array:

* Birman-Schwinger: eigenvalue counting for the fixed compact matrix
  X(lambda) = V^{1/2} (lambda I - H_L)^{-1} V^{1/2}, so that
  N_+ = #{eig X > 1/tau} and N_- = #{eig X < -1/tau}.  X is applied
  through one sparse LU of lambda I - H_L, and only the eigenvalues
  beyond a threshold are computed, by implicitly restarted Lanczos
  (ARPACK `eigsh`): k grows until the innermost Ritz value lies inside
  the threshold by more than its residual, and Ritz vectors beyond it are
  locked and searched past until a pass finds none.  One such partial
  spectrum serves every narrower threshold.  Small supports use the
  dense formed X.
* Direct spectral inertia: difference of eigenvalue counts below lambda
  between H_L and H_L +/- tau V.  Each count is the number of negative
  pivots of a sparse symmetric LDL^T of A - x I (Sylvester's law of
  inertia), from SuperLU with diagonal pivoting and a minimum-degree
  ordering; a factorization that left the diagonal or grew its pivots is
  retried in natural order, then replaced by a dense eigensolve.

Every counting function takes H_L either as a FiniteHamiltonian or as a
symmetric matrix, sparse or dense, and V as a float array of site values.
Each public call converts and checks H_L, V, tau and sign once, and the
steps below it take the checked CSC matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .errors import GapcountError
from .floquet import Gap, band_structure, find_gaps
from .gamma import GammaResult, gamma_coefficient
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
# Supports up to this size get the dense formed X; larger ones use eigsh.
_DENSE_SUPPORT = 400
_EIGSH_START_K = 8
# ARPACK's tolerance relative to each Ritz value's distance from the
# threshold; explicit residuals, not this, bound the eigenvalues.
_EIGSH_TOL = 1e-2
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
    lam: float
    tau: float
    L: int
    N_bs: int
    N_direct: int
    gamma: float
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
    stabilized: bool


# ---------------------------------------------------------------------------
# operands


def _symmetric_matrix(H: Matrix) -> sp.csc_matrix:
    """H_L as a sparse CSC matrix, checked square and symmetric."""
    A = H.matrix if isinstance(H, FiniteHamiltonian) else H
    A = sp.csc_matrix(A, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise CountingError(f"matrix must be square, got shape {A.shape}")
    asym = abs(A - A.T)
    if asym.nnz and asym.max() > 1e-12 * abs(A).max():
        raise CountingError("matrix must be symmetric")
    return A


def _potential(V: np.ndarray, nsites: int) -> np.ndarray:
    v = np.asarray(V, dtype=float)
    if v.shape != (nsites,):
        raise CountingError("potential not sampled on the same box as H_L")
    if v.size and v.min() < 0.0:
        raise CountingError("potential must be nonnegative")
    return v


def _coupling(tau: float, sign: str) -> float:
    """The signed coupling +tau or -tau of H_L +/- tau V."""
    if tau <= 0:
        raise CountingError("tau must be positive")
    if sign not in ("+", "-"):
        raise CountingError("sign must be '+' or '-'")
    return tau if sign == "+" else -tau


# ---------------------------------------------------------------------------
# eigenvalue counting below a shift


def _ldlt_negative_pivots(M: sp.csc_matrix, ordering: str) -> int | None:
    """#negative pivots of a diagonally pivoted LDL^T of M, None if untrusted."""
    try:
        lu = splu(M, permc_spec=ordering, diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:  # an exactly zero pivot column
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):  # left the diagonal
        return None
    pivots = lu.U.diagonal()
    if not np.all(np.isfinite(pivots)):
        return None
    if np.abs(lu.U.data).max() > _PIVOT_GROWTH * np.abs(M.data).max():
        return None
    return int(np.count_nonzero(pivots < 0.0))


def inertia(A: Matrix, x: float) -> Inertia:
    """#eigenvalues of the symmetric matrix A strictly below x, and the route."""
    return _inertia(_symmetric_matrix(A), x)


def _inertia(A: sp.csc_matrix, x: float) -> Inertia:
    """inertia() of a matrix already checked by _symmetric_matrix.

    With diagonal pivoting P (A - xI) P^T = L U, and diag(U) is the D of an
    LDL^T, so its negative entries count the eigenvalues below x.
    """
    n = A.shape[0]
    M = (A - x * sp.identity(n, format="csc")).tocsc()
    if n:
        for ordering, route in (("MMD_AT_PLUS_A", "mmd"), ("NATURAL", "natural")):
            below = _ldlt_negative_pivots(M, ordering)
            if below is not None:
                return Inertia(below, route)
    w = np.linalg.eigvalsh(A.toarray())
    return Inertia(int(np.count_nonzero(w < x)), "dense")


def eigencount_below(A: Matrix, x: float) -> int:
    """#eigenvalues of the symmetric matrix A strictly below x."""
    return inertia(A, x).below


def _check_resolvent_point(A: sp.csc_matrix, lam: float) -> int:
    """Reject lambda within 1e-8 of the spectrum of A; else #eigenvalues below it."""
    below = _inertia(A, lam - _RESOLVENT_TOL).below
    if _inertia(A, lam + _RESOLVENT_TOL).below > below:
        raise CountingError(
            f"lambda={lam} is within {_RESOLVENT_TOL} of an eigenvalue of H_L"
        )
    return below


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
class BSMatrix:
    """V^{1/2} (lambda I - H_L)^{-1} V^{1/2} restricted to the V-support.

    X is applied through one sparse LU of lambda I - H_L.  `matrix` and
    `eigenvalues` form the dense X on first access; `tail` computes only
    the eigenvalues beyond a threshold and caches them per sign.
    """

    support: np.ndarray  # site indices with V > 0
    sqrtv: np.ndarray  # V^{1/2} on the support
    H: sp.csc_matrix  # H_L as checked by bs_matrix, for the direct route to reuse
    below: int  # eigenvalues of H_L below lambda
    _lu: object | None = field(default=None, repr=False)
    _matrix: np.ndarray | None = field(default=None, repr=False)
    _eigenvalues: np.ndarray | None = field(default=None, repr=False)
    _tails: dict[str, list[_Tail]] = field(default_factory=dict, repr=False)

    def apply(self, Y: np.ndarray) -> np.ndarray:
        """X @ Y for a vector or a block of columns on the support."""
        Y = np.asarray(Y, dtype=float)
        rhs = np.zeros((self.H.shape[0],) + Y.shape[1:])
        rhs[self.support] = (self.sqrtv * Y.T).T
        return (self.sqrtv * self._lu.solve(rhs)[self.support].T).T

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            X = self.apply(np.eye(self.support.size)) if self.support.size else np.zeros((0, 0))
            self._matrix = 0.5 * (X + X.T)
        return self._matrix

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            if self.matrix.size:
                self._eigenvalues = np.linalg.eigvalsh(self.matrix)
            else:
                self._eigenvalues = np.zeros(0)
        return self._eigenvalues

    def tail(self, sign: str, threshold: float) -> np.ndarray:
        """Eigenvalues of +X ('+') or -X ('-') that include every one beyond
        threshold - 1e-10, accurate enough to decide the count beyond the
        threshold and whether one lies within 1e-10 of it."""
        tails = self._tails.setdefault(sign, [])
        for t in tails:
            if t.decides(threshold):
                return t.mu
        t = self._partial_spectrum(1.0 if sign == "+" else -1.0, threshold)
        tails.append(t)
        return t.mu

    def _dense_tail(self, s: float) -> _Tail:
        return _Tail(s * self.eigenvalues, np.zeros(self.support.size), -math.inf)

    def _partial_spectrum(self, s: float, threshold: float) -> _Tail:
        m = self.support.size
        if m <= _DENSE_SUPPORT:
            return self._dense_tail(s)

        # Lanczos on A = s X - threshold: ARPACK accepts a Ritz value once its
        # residual is below tol times its distance from the threshold, so the
        # eigenvalues that accumulate at 0 need not be resolved.
        def shifted(Y):
            return s * self.apply(Y) - threshold * Y

        # Ritz vectors beyond the threshold are locked into U, and each pass
        # runs on A with U moved far inside, from a fresh start vector, until
        # a pass finds nothing beyond.  A lone Krylov space holds one vector
        # per distinct eigenvalue, so the passes also catch repeated ones.
        rng = np.random.default_rng(0)
        U, theta, err = np.zeros((m, 0)), np.zeros(0), np.zeros(0)
        k = _EIGSH_START_K
        while U.shape[1] + 2 * k + 1 < m:
            push = 1.0 + float(np.abs(theta).max(initial=0.0))

            def deflated(y, U=U, push=push):
                c = U.T @ y
                z = shifted(y - U @ c)
                return z - U @ (U.T @ z) - push * (U @ c)

            op = LinearOperator((m, m), matvec=deflated, dtype=float)
            try:
                w, W = eigsh(op, k, which="LA", v0=rng.standard_normal(m), tol=_EIGSH_TOL)
            except ArpackError:
                break
            # For symmetric X each Ritz value lies within its residual norm
            # of an eigenvalue.
            e = np.linalg.norm(shifted(W) - W * w, axis=0)
            beyond = w >= -_BOUNDARY_TOL - e
            if not beyond.any():
                tail = _Tail(theta + threshold, err, threshold)
                return tail if tail.decides(threshold) else self._dense_tail(s)
            U = np.hstack([U, W[:, beyond]])
            theta, err = np.concatenate([theta, w[beyond]]), np.concatenate([err, e[beyond]])
            if beyond.all():
                k = max(k, int(1.25 * _tail_rank(theta + threshold, threshold)) + 8 - theta.size)
            else:
                k = _EIGSH_START_K
        return self._dense_tail(s)


def _tail_rank(mu: np.ndarray, threshold: float) -> float:
    """Rank at which eigenvalues continuing the power law through ranks k/2
    and k of mu (k = mu.size) reach the threshold; 2k without such a law."""
    mu = np.sort(mu)[::-1]
    k = mu.size
    hi, lo = mu[(k - 1) // 2], mu[-1]
    if lo > threshold > 0.0 and hi > lo:
        return k * (lo / threshold) ** (math.log(2.0) / math.log(hi / lo))
    return 2.0 * k


def bs_matrix(H: Matrix, V: np.ndarray, lam: float) -> BSMatrix:
    """X = V^{1/2} (lambda I - H_L)^{-1} V^{1/2} on the support of V."""
    A = _symmetric_matrix(H)
    n = A.shape[0]
    v = _potential(V, n)
    below = _check_resolvent_point(A, lam)
    support = np.flatnonzero(v > 0.0)
    X = BSMatrix(support, np.sqrt(v[support]), A, below)
    if support.size:
        X._lu = splu((lam * sp.identity(n, format="csc") - A).tocsc(), permc_spec="MMD_AT_PLUS_A")
    return X


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


def counting_direct(
    H: Matrix,
    V: np.ndarray,
    lam: float,
    tau: float,
    sign: str,
    *,
    base: int | None = None,
) -> Count:
    """Inertia difference between H_L and H_L +/- tau V below lambda.

    `base`, when given, is the number of eigenvalues of H_L below lambda,
    counted by a caller that has already checked lambda against sigma(H_L).
    The boundary flag marks lambda within 1e-10 of an eigenvalue of
    H_L +/- tau V, seen as a change of its count across lambda -/+ 1e-10.
    """
    t = _coupling(tau, sign)
    A = _symmetric_matrix(H)
    v = _potential(V, A.shape[0])
    value = _direct_count(A, v, lam, t, base)
    B = A + sp.diags(t * v)
    boundary = _inertia(B, lam - _BOUNDARY_TOL).below != _inertia(B, lam + _BOUNDARY_TOL).below
    return Count(value, boundary)


def _direct_count(A: sp.csc_matrix, v: np.ndarray, lam: float, t: float, base: int | None = None) -> int:
    """counting_direct() for checked operands and the signed coupling t = +/-tau."""
    if base is None:
        base = _check_resolvent_point(A, lam)
    shifted = _inertia(A + sp.diags(t * v), lam).below
    value = base - shifted if t > 0 else shifted - base
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
    """Monotone lambda-limit of the counting function at a gap edge."""
    lams = default_lambda_ladder(gap, sign)
    t = _coupling(tau, sign)
    A = _symmetric_matrix(H)
    v = _potential(V, A.shape[0])
    counts = np.array([_direct_count(A, v, lam, t) for lam in lams])
    stabilized = counts.size >= 2 and counts[-1] == counts[-2]
    return EdgeCountResult(int(counts[-1]), counts, bool(stabilized))


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
    """Stabilization-in-L counting table compared against tau^p Gamma."""
    tau_list = list(tau_list)
    couplings = [_coupling(tau, sign) for tau in tau_list]
    L_list = sorted(L_list)
    if not L_list or any(b <= a for a, b in zip(L_list, L_list[1:])):
        raise CountingError("L_list must be strictly increasing")
    Lmax = L_list[-1]
    for tau in tau_list:
        need = _SUPPORT_C * tau ** (p / graph.dim)
        if Lmax < need:
            raise CountingError(
                f"largest L={Lmax} below the support heuristic {need:.1f} for tau={tau}"
            )
    bands = band_structure(graph, grid)
    gaps = find_gaps(bands)
    if not any(g.lower - 1e-12 <= lam <= g.upper + 1e-12 for g in gaps):
        raise CountingError(f"lambda={lam} is not inside a detected gap")
    gamma = gamma_coefficient(bands, lam, p, sign, theta)

    per_L: dict[int, tuple[list[int], list[int], list[bool]]] = {}
    for L in L_list:
        V = sample_potential(graph, theta, p, L)
        # public, so perfbench times it; checks H_L, V and lambda for both routes
        X = bs_matrix(assemble_truncated(graph, L), V, lam)
        # Widest threshold first, so that one partial spectrum serves every tau.
        cbs = {tau: counting_bs(X, tau, sign) for tau in sorted(tau_list, reverse=True)}
        nbs, ndir, bnd = [], [], []
        for tau, t in zip(tau_list, couplings):
            nbs.append(cbs[tau].value)
            ndir.append(_direct_count(X.H, V, lam, t, X.below))
            bnd.append(cbs[tau].boundary)
        per_L[L] = (nbs, ndir, bnd)

    rows = []
    for it, tau in enumerate(tau_list):
        chosen_L = L_list[-1]
        stabilized = False
        for a, b in zip(L_list, L_list[1:]):
            if per_L[a][0][it] == per_L[b][0][it]:
                chosen_L = b
                stabilized = True
        nbs, ndir, bnd = (per_L[chosen_L][i][it] for i in range(3))
        flags = []
        if not stabilized:
            flags.append("unstabilized")
        if bnd:
            flags.append("boundary")
        denom = tau**p * gamma.value
        ratio = nbs / denom if denom > 0 else math.inf
        rows.append(CountRow(lam, tau, chosen_L, nbs, ndir, gamma.value, ratio, tuple(flags)))
    return CountingTable(tuple(rows), gamma)
