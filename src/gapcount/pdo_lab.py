"""Finite sections of discrete pseudodifferential operators.

Operators of the form f Phi W Phi* g (multiplication in quasimomentum
composed with multiplication on the lattice), their singular values,
Cwikel-type ratio experiments, the small-s coefficient comparison
against the quadrature formula, and commutator-decay experiments.
Scalar symbols only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GapcountError
from .floquet import torus_grid
from .gamma import sphere_integral
from .periodic_graph import box_cells, box_index, box_shift
from .weak_lp import DpWindowEstimate, WeightedSequence, dp_window, weak_quasinorm

# Singular values kept, relative to the largest: a direct SVD resolves them
# to rounding, but a Gram eigenvalue is a squared singular value, so below
# about sqrt(eps) ~ 1.5e-8 of the largest the Gram routes return noise.
_SV_TOL = 1e-13
_GRAM_SV_TOL = 1e-7


class PdoError(GapcountError):
    """Invalid symbol data or regime mismatch."""


TorusFunction = Callable[[np.ndarray], np.ndarray]


def torus_one() -> TorusFunction:
    return lambda K: np.ones(K.shape[0], dtype=complex)


def _lag_phase(tv: np.ndarray, K: np.ndarray) -> np.ndarray:
    """e^{i K.t} at the rows of K, after checking that the lag t has one component per axis."""
    if tv.size != K.shape[1]:
        raise PdoError(f"lag {tv.astype(int).tolist()} does not have one component per axis of the {K.shape[1]}-torus")
    return np.exp(1j * (K @ tv))


def torus_exp(t: tuple[int, ...] | int) -> TorusFunction:
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    return lambda K: _lag_phase(tv, K)


def torus_half_indicator() -> TorusFunction:
    """Indicator of {k_1 in [0, pi]}."""
    return lambda K: (K[:, 0] >= 0.0).astype(complex)


def torus_trig(coeffs: dict[tuple[int, ...] | int, complex]) -> TorusFunction:
    items = [(np.atleast_1d(np.asarray(t, dtype=float)), c) for t, c in coeffs.items()]

    def fn(K: np.ndarray) -> np.ndarray:
        out = np.zeros(K.shape[0], dtype=complex)
        for tv, c in items:
            out += c * _lag_phase(tv, K)
        return out

    return fn


def parse_torus_function(spec: str) -> TorusFunction:
    if spec == "one":
        return torus_one()
    if spec == "halftorus":
        return torus_half_indicator()
    if spec.startswith("exp:"):
        try:
            lags = tuple(int(x) for x in spec.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise PdoError(f"bad lag in torus function preset {spec!r}") from exc
        return torus_exp(lags)
    raise PdoError(f"unknown torus function preset {spec!r}")


# ---------------------------------------------------------------------------
# lattice symbols


@dataclass(frozen=True)
class LatticeSymbol:
    """W on the truncated lattice: support points (N, d) and values (N,)."""

    points: np.ndarray
    values: np.ndarray
    L: int

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def homogeneous_symbol(
    v: Callable[[np.ndarray], np.ndarray] | float, p: float, d: int, L: int
) -> LatticeSymbol:
    """W(n) = v(n/|n|) |n|^{-d/p}, W(0) = 0, truncated to |n|_inf <= L."""
    if not 0 < p < math.inf:
        raise PdoError("p must be positive and finite")
    if d < 1 or L < 1:
        raise PdoError(f"dimension d={d} and truncation radius L={L} must be at least 1")
    pts = box_cells(d, L)
    r = np.linalg.norm(pts, axis=1)
    nz = r > 0.0
    pts = pts[nz]
    r = r[nz]
    if callable(v):
        ang = np.asarray(v(pts / r[:, None]), dtype=complex)
    else:
        ang = np.full(pts.shape[0], complex(v))
    if not np.isfinite(ang).all():
        raise PdoError("the angular factor v must be finite")
    vals = ang * r ** (-d / p)
    keep = np.abs(vals) > 0.0
    return LatticeSymbol(pts[keep], vals[keep], L)


def tabulated_symbol(points: np.ndarray, values: np.ndarray, L: int) -> LatticeSymbol:
    """W from support points (N, d), or (N,) for d = 1, and their values (N,)."""
    points = np.asarray(points, dtype=int)
    points = points[:, None] if points.ndim == 1 else np.atleast_2d(points)
    values = np.asarray(values, dtype=complex)
    if points.shape[0] != values.shape[0]:
        raise PdoError("points/values length mismatch")
    if points.shape[0] == 0:
        raise PdoError("a tabulated symbol needs at least one support point")
    if not np.isfinite(values).all():
        raise PdoError("symbol values must be finite")
    if np.max(np.abs(points)) > L:
        raise PdoError("symbol support exceeds the truncation radius")
    if np.unique(points, axis=0).shape[0] < points.shape[0]:
        raise PdoError("symbol support points must not repeat")
    keep = np.abs(values) > 0.0
    return LatticeSymbol(points[keep], values[keep], L)


@dataclass(frozen=True)
class SymbolTriple:
    f: TorusFunction
    g: TorusFunction
    W: LatticeSymbol
    p: float
    M: int


@dataclass(frozen=True)
class SingularValueReport:
    svalues: WeightedSequence


def _nonzero(sv: np.ndarray, tol: float) -> np.ndarray:
    """Descending singular values above tol relative to the largest."""
    return sv[sv > tol * max(sv[0], 1e-300)] if sv.size else sv


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """a's real part when every imaginary part is exactly 0, else a itself."""
    return a if a.imag.any() else a.real


# ---------------------------------------------------------------------------
# Fourier plumbing


def fourier_modsq_coeffs(h: TorusFunction, M: int, max_lag: int, d: int = 1) -> np.ndarray:
    """Coefficients c_r of |h|^2: (2 pi)^{-d} int |h(k)|^2 e^{-i r.k} dk.

    Returned as an array of shape (2*max_lag+1,)*d, centered indexing
    c[r + max_lag].  Requires max_lag <= M/4 as an anti-aliasing margin.
    A |h|^2 whose grid samples all lie within 4 eps F[0] of the first, F[0]
    (|e^{ik.t}|^2 is 1 only to rounding), gets the exact coefficients F[0]
    at lag 0 and 0 elsewhere, which the FFT would only reach to rounding.
    """
    if max_lag > M // 4:
        raise PdoError(f"max_lag={max_lag} violates the aliasing margin M/4={M // 4}")
    K = torus_grid(d, M)
    F = np.abs(np.asarray(h(K), dtype=complex)) ** 2
    if np.all(np.abs(F - F[0]) <= 4.0 * np.finfo(float).eps * F[0]):
        c = np.zeros((2 * max_lag + 1,) * d, dtype=complex)
        c[(max_lag,) * d] = F[0]
        return c
    F = F.reshape((M,) * d)
    hat = np.fft.fftn(F) / M**d
    r = np.arange(-max_lag, max_lag + 1)
    # the grid starts at -pi, so lag r picks up the phase e^{i pi (r_1 + ... + r_d)}
    phase = np.exp(1j * math.pi * sum(np.ix_(*(r,) * d)))
    return phase * hat[np.ix_(*(r % M,) * d)]


def _coeff_matrix(c: np.ndarray, points: np.ndarray, max_lag: int) -> np.ndarray:
    """Toeplitz-like matrix c[n_i - n_j] over the support points."""
    idx = tuple(x[:, None] - x[None, :] + max_lag for x in points.T)
    return c[idx]


def _gram_svalues(ev: np.ndarray) -> WeightedSequence:
    """Singular values kept from a Gram's ascending eigenvalues ev."""
    return WeightedSequence(_nonzero(np.sqrt(np.clip(ev, 0.0, None))[::-1], _GRAM_SV_TOL))


def _lag0(c: np.ndarray) -> float | None:
    """The lag-0 coefficient of c when every other lag's is exactly 0, else None."""
    c0 = c[(c.shape[0] // 2,) * c.ndim]
    return float(c0.real) if np.count_nonzero(c) == np.count_nonzero(c0) else None


def pdo_singular_values(triple: SymbolTriple) -> SingularValueReport:
    """Nonzero singular values of the finite section of f Phi W Phi* g.

    Computed from the N x N Gram pair: (A*A)_{nm} = c^f_{n-m},
    (BB*)_{nm} = W(n) c^g_{n-m} conj(W(m)). With BB* = U w U*, the squared
    singular values are the eigenvalues of R* (A*A) R for R = U w^{1/2}.
    When |g|^2 has no coefficient at a nonzero lag (g = 1), BB* is diagonal
    and R is diag(w^{1/2}) with w in ascending order, as eigh would give it:
    the order decides how the graded Gram's small eigenvalues round. When
    |f|^2 has none either (f = g = 1), A*A = c^f_0 I and the squared singular
    values are the diagonal r c^f_0 r itself, sorted, with no N x N array and
    no eigensolve; they are the eigenvalues the dense route returns, bitwise.
    A matrix whose imaginary parts are all exactly 0 goes to the real solver.
    """
    W = triple.W
    max_lag = 2 * W.L
    cf = fourier_modsq_coeffs(triple.f, triple.M, max_lag, W.dim)
    cg = fourier_modsq_coeffs(triple.g, triple.M, max_lag, W.dim)
    cf0, cg0 = _lag0(cf), _lag0(cg)
    if cg0 is None:
        BBt = W.values[:, None] * _coeff_matrix(cg, W.points, max_lag) * np.conj(W.values)[None, :]
        w, U = np.linalg.eigh(BBt)
        R = U * np.sqrt(np.clip(w, 0.0, None))
        AtA = _real_if_exact(_coeff_matrix(cf, W.points, max_lag))
        X = R.conj().T @ AtA @ R
    else:
        w = (W.values * cg0 * np.conj(W.values)).real
        order = np.argsort(w, kind="stable")
        r = np.sqrt(w[order])
        if cf0 is not None:
            return SingularValueReport(_gram_svalues(np.sort(r * cf0 * r)))
        AtA = _real_if_exact(_coeff_matrix(cf, W.points, max_lag))
        X = r[:, None] * AtA[np.ix_(order, order)] * r[None, :]
    return SingularValueReport(_gram_svalues(np.linalg.eigvalsh(_real_if_exact(X))))


def fphiw_singular_values(f: TorusFunction, W: LatticeSymbol, M: int) -> WeightedSequence:
    """Singular values of the section of f Phi W from the support Gram.

    The Gram is conj(W(n)) c^f_{n-m} W(m). When |f|^2 has no coefficient at
    a nonzero lag (f = 1) it is diagonal, and its sorted diagonal stands in
    for the eigensolve, bitwise, with no N x N array.
    """
    max_lag = 2 * W.L
    cf = fourier_modsq_coeffs(f, M, max_lag, W.dim)
    cf0 = _lag0(cf)
    if cf0 is not None:
        return _gram_svalues(np.sort((np.conj(W.values) * cf0 * W.values).real))
    G = np.conj(W.values)[:, None] * _coeff_matrix(cf, W.points, max_lag) * W.values[None, :]
    return _gram_svalues(np.linalg.eigvalsh(_real_if_exact(G)))


# ---------------------------------------------------------------------------
# experiments


def _lq_norm(f: TorusFunction, q: float, d: int, M: int) -> float:
    K = torus_grid(d, M)
    vals = np.abs(np.asarray(f(K)))
    return float((np.sum(vals**q) * (2.0 * math.pi / M) ** d) ** (1.0 / q))


def cwikel_ratio(f: TorusFunction, W: LatticeSymbol, p: float, q: float, L: int, M: int) -> float:
    """Observed constant in the Cwikel-type estimate for f Phi W.

    ratio = || s-values ||_{weak-p} / (||f||_{L_q} ||W||_{weak-lp}).
    Admissible regimes: q = p for p > 2; q = 2 for p < 2; q > 2 for p = 2.
    """
    if p > 2.0:
        ok = q == p
    elif p < 2.0:
        ok = q == 2.0
    else:
        ok = q > 2.0
    if not ok or not math.isfinite(q):
        raise PdoError(f"(p={p}, q={q}) outside the admissible regimes")
    if W.L != L:
        raise PdoError("symbol truncation radius does not match L")
    sv = fphiw_singular_values(f, W, M)
    num = weak_quasinorm(sv, p)
    den = _lq_norm(f, q, W.dim, M) * weak_quasinorm(WeightedSequence(np.abs(W.values)), p)
    if den == 0.0:
        raise PdoError("zero denominator: trivial symbol")
    return num / den


def default_dp_window(sv: WeightedSequence) -> tuple[float, float]:
    """Mid-spectrum window in jump-index terms: [s at 0.75 rank, s at 0.1 rank]."""
    rank = len(sv)
    if rank < 10:
        raise PdoError("too few singular values for a window estimate")
    lo = float(sv.values[min(rank - 1, int(rank * 0.75))])
    hi = float(sv.values[int(rank * 0.1)])
    return lo, hi


def dp_vs_formula(
    f: TorusFunction,
    v: Callable[[np.ndarray], np.ndarray] | float,
    g: TorusFunction,
    p: float,
    L: int,
    M: int,
    d: int = 1,
) -> tuple[DpWindowEstimate, float]:
    """Empirical s^p n(s) window estimate against the quadrature formula

    (d (2 pi)^d)^{-1} int_{T^d} |f(k) g(k)|^p dk int_{S^{d-1}} |v|^p dS.
    """
    W = homogeneous_symbol(v, p, d, L)
    if callable(v):
        vfn = lambda u: np.abs(np.asarray(v(u)))
    else:
        vfn = lambda u, _c=abs(v): np.full(u.shape[0], _c)
    sphere = sphere_integral(vfn, p, d)  # before the Gram: it rejects d > 3
    report = pdo_singular_values(SymbolTriple(f, g, W, p, M))
    if len(report.svalues) == 0:
        return DpWindowEstimate(0.0, 0.0, 0), 0.0
    est = dp_window(report.svalues, p, default_dp_window(report.svalues))
    K = torus_grid(d, M)
    fg = np.abs(np.asarray(f(K)) * np.asarray(g(K))) ** p
    torus = float(np.sum(fg) * (2.0 * math.pi / M) ** d)
    formula = torus * sphere / (d * (2.0 * math.pi) ** d)
    return est, formula


@dataclass(frozen=True)
class CommutatorReport:
    svalues: WeightedSequence
    products: np.ndarray  # m^{1/p} s_m


def _connected_components(nv: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label of each of nv vertices, the smallest vertex of its component; edge k joins a[k] and b[k].

    Min-label hooking with pointer jumping: each round hooks the larger root
    of every edge whose ends lie in two trees under the smaller root, then
    points every vertex at its root. A root only hooks under a smaller one,
    so no cycle forms, and each round merges every tree that an edge leaves
    with at least one other, so the rounds are logarithmic in nv.
    """
    root = np.arange(nv)
    while True:
        ra, rb = root[a], root[b]
        cross = ra != rb
        if not cross.any():
            return root
        np.minimum.at(root, np.maximum(ra, rb)[cross], np.minimum(ra, rb)[cross])
        while not np.array_equal(up := root[root], root):
            root = up


def _blockwise_svals(n: int, keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Singular values of the n x n kernel with entries x at keys = row * n + col, descending.

    Entries at one key are summed in their order in x, and sums that are
    exactly 0 dropped. Rows and columns are separate vertices joined by each
    entry, so each connected component is a block of the kernel up to a
    permutation: a block with one entry is 1 x 1 and its singular value is
    |x|, while a larger block takes a dense SVD.
    """
    keys, at = np.unique(keys, return_inverse=True)
    total = np.empty(keys.size, dtype=complex)
    total.real = np.bincount(at, x.real, keys.size)
    total.imag = np.bincount(at, x.imag, keys.size)
    nz = total != 0
    i, j, x = keys[nz] // n, keys[nz] % n, total[nz]
    comp = _connected_components(2 * n, i, n + j)[i]
    one = np.bincount(comp)[comp] == 1
    parts = [np.abs(x[one])]
    for c in np.unique(comp[~one]):
        e = comp == c
        rows, r = np.unique(i[e], return_inverse=True)
        cols, s = np.unique(j[e], return_inverse=True)
        block = np.zeros((rows.size, cols.size), dtype=x.dtype)
        block[r, s] = x[e]
        parts.append(np.linalg.svd(_real_if_exact(block), compute_uv=False))
    return np.sort(np.concatenate(parts))[::-1]


def commutator_decay(
    f_coeffs: dict[tuple[int, ...] | int, complex],
    W: LatticeSymbol,
    p: float,
    L: int,
) -> CommutatorReport:
    """s-values of the finite section of the commutator [f, Phi W Phi*].

    f must be a trigonometric polynomial given by its lag coefficients
    {t: c} with f(k) = sum c e^{i t.k}; the commutator kernel is
    c_{t} (W(m) - W(n)) supported on n - m = -t. The kernel is kept as
    (row, column, value) triplets and its SVD taken block by block
    (`_blockwise_svals`): one lag gives only 1 x 1 blocks, while several
    lags in d >= 2 usually give one block as large as the box.
    """
    if W.L != L:
        raise PdoError("symbol truncation radius does not match L")
    d = W.dim
    n = (2 * L + 1) ** d
    wfull = np.zeros(n, dtype=complex)
    wfull[box_index(W.points, L)] = W.values
    # no lags at all give no entries
    keys, vals = [np.empty(0, dtype=int)], [np.empty(0, dtype=complex)]
    for t, c in f_coeffs.items():
        tv = np.atleast_1d(np.asarray(t, dtype=int))
        if tv.shape != (d,):
            raise PdoError("lag vector has wrong dimension")
        if not np.isfinite(c):
            raise PdoError(f"the coefficient {c} of lag {t} must be finite")
        # pairs with n_i - n_j = -t, i.e. n_j = n_i + t
        i, j = box_shift(d, L, tv)
        keys.append(i * n + j)
        vals.append(c * (wfull[j] - wfull[i]))
    seq = WeightedSequence(_nonzero(_blockwise_svals(n, np.concatenate(keys), np.concatenate(vals)), _SV_TOL))
    m = np.arange(1, len(seq) + 1, dtype=float)
    return CommutatorReport(seq, seq.values * m ** (1.0 / p))
