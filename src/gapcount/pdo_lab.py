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

from .floquet import torus_grid
from .gamma import sphere_integral
from .periodic_graph import box_cells
from .weak_lp import DpWindowEstimate, WeightedSequence, dp_window, weak_quasinorm

_SV_TOL = 1e-13


class PdoError(ValueError):
    """Invalid symbol data or regime mismatch."""


TorusFunction = Callable[[np.ndarray], np.ndarray]


def torus_one() -> TorusFunction:
    return lambda K: np.ones(K.shape[0], dtype=complex)


def torus_exp(t: tuple[int, ...] | int) -> TorusFunction:
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    return lambda K: np.exp(1j * (K @ tv))


def torus_half_indicator() -> TorusFunction:
    """Indicator of {k_1 in [0, pi]}."""
    return lambda K: (K[:, 0] >= 0.0).astype(complex)


def torus_trig(coeffs: dict[tuple[int, ...] | int, complex]) -> TorusFunction:
    items = [(np.atleast_1d(np.asarray(t, dtype=float)), c) for t, c in coeffs.items()]

    def fn(K: np.ndarray) -> np.ndarray:
        out = np.zeros(K.shape[0], dtype=complex)
        for tv, c in items:
            out += c * np.exp(1j * (K @ tv))
        return out

    return fn


def parse_torus_function(spec: str) -> TorusFunction:
    if spec == "one":
        return torus_one()
    if spec == "halftorus":
        return torus_half_indicator()
    if spec.startswith("exp:"):
        lags = tuple(int(x) for x in spec.split(":", 1)[1].split(","))
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
    if p <= 0:
        raise PdoError("p must be positive")
    pts = box_cells(d, L)
    r = np.linalg.norm(pts, axis=1)
    nz = r > 0.0
    pts = pts[nz]
    r = r[nz]
    if callable(v):
        ang = np.asarray(v(pts / r[:, None]), dtype=complex)
    else:
        ang = np.full(pts.shape[0], complex(v))
    vals = ang * r ** (-d / p)
    keep = np.abs(vals) > 0.0
    return LatticeSymbol(pts[keep], vals[keep], L)


def tabulated_symbol(points: np.ndarray, values: np.ndarray, L: int) -> LatticeSymbol:
    points = np.atleast_2d(np.asarray(points, dtype=int))
    values = np.asarray(values, dtype=complex)
    if points.shape[0] != values.shape[0]:
        raise PdoError("points/values length mismatch")
    if np.max(np.abs(points)) > L:
        raise PdoError("symbol support exceeds the truncation radius")
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
    L: int
    M: int


# ---------------------------------------------------------------------------
# Fourier plumbing


def fourier_modsq_coeffs(h: TorusFunction, M: int, max_lag: int, d: int = 1) -> np.ndarray:
    """Coefficients c_r of |h|^2: (2 pi)^{-d} int |h(k)|^2 e^{-i r.k} dk.

    Returned as an array of shape (2*max_lag+1,)*d, centered indexing
    c[r + max_lag].  Requires max_lag <= M/4 as an anti-aliasing margin.
    """
    if max_lag > M // 4:
        raise PdoError(f"max_lag={max_lag} violates the aliasing margin M/4={M // 4}")
    K = torus_grid(d, M)
    F = np.abs(np.asarray(h(K), dtype=complex)) ** 2
    F = F.reshape((M,) * d)
    hat = np.fft.fftn(F) / M**d
    side = 2 * max_lag + 1
    out = np.empty((side,) * d, dtype=complex)
    for idx in np.ndindex(*(side,) * d):
        r = tuple(i - max_lag for i in idx)
        phase = np.exp(1j * math.pi * sum(r))
        out[idx] = phase * hat[tuple(ri % M for ri in r)]
    return out


def _coeff_matrix(c: np.ndarray, points: np.ndarray, max_lag: int) -> np.ndarray:
    """Toeplitz-like matrix c[n_i - n_j] over the support points."""
    diffs = points[:, None, :] - points[None, :, :]
    idx = tuple(diffs[..., a] + max_lag for a in range(points.shape[1]))
    return c[idx]


def pdo_singular_values(triple: SymbolTriple) -> SingularValueReport:
    """Nonzero singular values of the finite section of f Phi W Phi* g.

    Computed from the N x N Gram pair: (A*A)_{nm} = c^f_{n-m},
    (BB*)_{nm} = W(n) c^g_{n-m} conj(W(m)), as eigenvalues of
    (BB*)^{1/2} (A*A) (BB*)^{1/2}.
    """
    W = triple.W
    max_lag = 2 * W.L
    cf = fourier_modsq_coeffs(triple.f, triple.M, max_lag, W.dim)
    cg = fourier_modsq_coeffs(triple.g, triple.M, max_lag, W.dim)
    AtA = _coeff_matrix(cf, W.points, max_lag)
    BBt = W.values[:, None] * _coeff_matrix(cg, W.points, max_lag) * np.conj(W.values)[None, :]
    w, U = np.linalg.eigh(BBt)
    root = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T
    core = root @ AtA @ root
    ev = np.clip(np.linalg.eigvalsh(core), 0.0, None)
    sv = np.sqrt(ev)[::-1]
    sv = sv[sv > _SV_TOL * max(sv[0], 1e-300)] if sv.size else sv
    return SingularValueReport(WeightedSequence(sv), W.L, triple.M)


def fphiw_singular_values(f: TorusFunction, W: LatticeSymbol, M: int) -> WeightedSequence:
    """Singular values of the section of f Phi W from the support Gram."""
    max_lag = 2 * W.L
    cf = fourier_modsq_coeffs(f, M, max_lag, W.dim)
    G = np.conj(W.values)[:, None] * _coeff_matrix(cf, W.points, max_lag) * W.values[None, :]
    ev = np.clip(np.linalg.eigvalsh(G), 0.0, None)
    sv = np.sqrt(ev)[::-1]
    sv = sv[sv > _SV_TOL * max(sv[0], 1e-300)] if sv.size else sv
    return WeightedSequence(sv)


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
    if not ok:
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
    window: tuple[float, float] | None = None,
    d: int = 1,
) -> tuple[DpWindowEstimate, float]:
    """Empirical s^p n(s) window estimate against the quadrature formula

    (d (2 pi)^d)^{-1} int_{T^d} |f(k) g(k)|^p dk int_{S^{d-1}} |v|^p dS.
    """
    W = homogeneous_symbol(v, p, d, L)
    report = pdo_singular_values(SymbolTriple(f, g, W, p, M))
    if len(report.svalues) == 0:
        zero = DpWindowEstimate(p, (0.0, 1.0), 0.0, 0.0, 0)
        return zero, 0.0
    win = window or default_dp_window(report.svalues)
    est = dp_window(report.svalues, p, win)
    K = torus_grid(d, M)
    fg = np.abs(np.asarray(f(K)) * np.asarray(g(K))) ** p
    torus = float(np.sum(fg) * (2.0 * math.pi / M) ** d)
    if callable(v):
        vfn = lambda u: np.abs(np.asarray(v(u)))
    else:
        vfn = lambda u, _c=abs(v): np.full(u.shape[0], _c)
    sphere = sphere_integral(vfn, p, d)
    formula = torus * sphere / (d * (2.0 * math.pi) ** d)
    return est, formula


@dataclass(frozen=True)
class CommutatorReport:
    svalues: WeightedSequence
    products: np.ndarray  # m^{1/p} s_m


def commutator_decay(
    f_coeffs: dict[tuple[int, ...] | int, complex],
    W: LatticeSymbol,
    p: float,
    L: int,
) -> CommutatorReport:
    """s-values of the finite section of the commutator [f, Phi W Phi*].

    f must be a trigonometric polynomial given by its lag coefficients
    {t: c} with f(k) = sum c e^{i t.k}; the commutator kernel is
    c_{t} (W(m) - W(n)) supported on n - m = -t.
    """
    if W.L != L:
        raise PdoError("symbol truncation radius does not match L")
    d = W.dim
    pts = box_cells(d, L)
    wfull = np.zeros(pts.shape[0], dtype=complex)
    side = 2 * L + 1
    strides = side ** np.arange(d - 1, -1, -1)
    flat = (W.points + L) @ strides
    wfull[flat] = W.values
    n = pts.shape[0]
    Kmat = np.zeros((n, n), dtype=complex)
    for t, c in f_coeffs.items():
        tv = np.atleast_1d(np.asarray(t, dtype=int))
        if tv.shape != (d,):
            raise PdoError("lag vector has wrong dimension")
        # pairs with n_i - n_j = -t, i.e. n_j = n_i + t
        target = pts + tv
        inside = np.all(np.abs(target) <= L, axis=1)
        i = np.flatnonzero(inside)
        j = (target[inside] + L) @ strides
        Kmat[i, j] += c * (wfull[j] - wfull[i])
    sv = np.linalg.svd(Kmat, compute_uv=False)
    sv = sv[sv > _SV_TOL * max(sv[0], 1e-300)] if sv.size else sv
    seq = WeightedSequence(sv)
    m = np.arange(1, len(seq) + 1, dtype=float)
    return CommutatorReport(seq, seq.values * m ** (1.0 / p))
