"""Self-contained verification suite.

Each criterion is a function returning a CriterionResult; `run_all`
executes every criterion (or a subset) and aggregates the outcome.
The CLI `verify` command and the test suite both call into here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GapcountError
from .floquet import (
    GapEdge,
    band_structure,
    band_values,
    check_edge_regularity,
    check_gap_edge_regularity,
    fiber_matrix,
    find_gaps,
    gap_edge,
    torus_bands,
    torus_grid,
)
from .gamma import edge_integral, gamma_coefficient, weak_edge_membership
from .pdo_lab import (
    SymbolTriple,
    commutator_decay,
    cwikel_ratio,
    dp_vs_formula,
    homogeneous_symbol,
    pdo_singular_values,
    tabulated_symbol,
    torus_one,
    torus_trig,
)
from .periodic_graph import (
    assemble_truncated,
    build_graph,
    potential_from_function,
    square_lattice,
    theta_const,
)
from .spectral_counts import (
    asymptotic_table,
    bs_matrix,
    counting_bs,
    counting_direct,
    edge_counting,
)
from .weak_lp import WeightedSequence, distribution, weak_quasinorm


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# criteria


def criterion_01_band_extrema() -> tuple[bool, str]:
    msgs = []
    ok = True
    for d, top in ((1, 4.0), (2, 8.0)):
        lo, hi = band_structure(square_lattice(d), 256).band_extrema[0].tolist()
        ok = ok and abs(lo) <= 1e-10 and abs(hi - top) <= 1e-10
        msgs.append(f"d={d}: extrema ({lo:.3e}, {hi:.17g}) vs (0, {top})")
    return ok, "; ".join(msgs)


def _random_periodic_graph(rng: np.random.Generator, mirrored: bool):
    """A vertex chain in cell 0, a self-orbit edge per axis, random edges with cells in {-1, 0, 1}^d and
    random Q; a mirrored graph also has each edge's image on every axis, so the sweep folds every axis."""
    d, nu = int(rng.integers(1, 4)), int(rng.integers(1, 13))
    edges = [(j, j + 1, [0] * d) for j in range(1, nu)]
    edges += [(j, j, [int(a == b) for b in range(d)]) for a, j in enumerate(rng.integers(1, nu + 1, d).tolist())]
    edges += [(j, jp, rng.integers(-1, 2, d).tolist()) for j, jp in rng.integers(1, nu + 1, (nu, 2)).tolist()]
    for a in range(d) if mirrored else ():
        edges += [(j, jp, n[:a] + [-n[a]] + n[a + 1 :]) for j, jp, n in edges]
    vertices = [{"id": j + 1, "offset": [0.0] * d, "Q": q} for j, q in enumerate(rng.uniform(-2.0, 2.0, nu).tolist())]
    return build_graph({"dim": d, "vertices": vertices, "edges": [{"from": j, "to": jp, "cell": n} for j, jp, n in edges]})


def criterion_02_band_energies() -> tuple[bool, str]:
    # band_values at random k, the torus sweep and the folded extrema, each
    # deviation relative to ||h(k)||_2 = max |E(k)|
    rng = np.random.default_rng(2024)
    dev: dict[str, list[float]] = {"eigvalsh": [], "sigma_min": [], "torus sweep": [], "extrema": []}
    for draw in range(200):
        graph = _random_periodic_graph(rng, mirrored=draw % 2 == 1)
        K = rng.uniform(-math.pi, math.pi, (8, graph.dim))
        E, h = band_values(graph, K), np.stack([fiber_matrix(graph, k) for k in K])
        ref = np.linalg.eigvalsh(h)
        norms = np.abs(ref).max(axis=1, keepdims=True)
        smin = np.linalg.svd(h[:, None] - E[..., None, None] * np.eye(graph.nu), compute_uv=False)[..., -1]
        dev["eigvalsh"].append((np.abs(E - ref) / norms).max())
        dev["sigma_min"].append((smin / norms).max())
        M = int(rng.integers(4, 8))
        full = band_values(graph, torus_grid(graph.dim, M))
        norms = np.abs(full).max(axis=1, keepdims=True)
        dev["torus sweep"].append((np.abs(np.concatenate(list(torus_bands(graph, M))) - full) / norms).max())
        extrema = np.stack([full.min(axis=0), full.max(axis=0)], axis=1)
        dev["extrema"].append(np.abs(band_structure(graph, M).band_extrema - extrema).max() / norms.max())
    worst = {name: float(max(d)) for name, d in dev.items()}
    detail = ", ".join(f"{name} {w:.1e}" for name, w in worst.items())
    return max(worst.values()) <= 1e-10, f"200 random graphs, worst relative deviation: {detail}"


def criterion_03_gamma_closed_form() -> tuple[bool, str]:
    bands = band_structure(square_lattice(1), 64)
    res = gamma_coefficient(bands, -1.0, 1.0, "-", theta_const(1.0))
    target = 2.0 / math.sqrt(5.0)
    err = abs(res.value - target)
    return err <= 1e-6, f"gamma={res.value:.12f}, |error|={err:.2e} vs 2/sqrt(5)"


def _random_gapped_model(rng: np.random.Generator):
    n = int(rng.integers(4, 61))
    nlow = int(rng.integers(1, n))
    evs = np.concatenate([rng.uniform(0.0, 1.0, nlow), rng.uniform(2.0, 3.0, n - nlow)])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = Q @ np.diag(evs) @ Q.T
    H = 0.5 * (H + H.T)
    v = rng.uniform(0.0, 2.0, n)
    v[rng.random(n) < 0.3] = 0.0
    if not np.any(v > 0.0):
        v[0] = 1.0
    lam = float(rng.uniform(1.1, 1.9))
    sign = "+" if rng.random() < 0.5 else "-"
    return H, v, lam, sign


def criterion_04_bs_identity() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    mismatches = 0
    checked = 0
    while checked < 200:
        H, v, lam, sign = _random_gapped_model(rng)
        X = bs_matrix(H, v, lam)
        for _ in range(50):
            tau = float(rng.uniform(0.1, 10.0))
            t = tau if sign == "+" else -tau
            wsh = np.linalg.eigvalsh(H + t * np.diag(v))
            if np.min(np.abs(wsh - lam)) <= 1e-6:
                continue
            cb = counting_bs(X, tau, sign)
            if cb.boundary:
                continue
            break
        else:
            continue
        if cb.value != counting_direct(H, v, lam, tau, sign).value:
            mismatches += 1
        checked += 1
    return mismatches == 0, f"{checked} random models, {mismatches} mismatches"


def criterion_05_large_coupling_ratio() -> tuple[bool, str]:
    table = asymptotic_table(
        square_lattice(1),
        theta_const(1.0),
        p=1.0,
        lam=-1.0,
        sign="-",
        tau_list=(25.0, 50.0, 100.0, 200.0),
        L_list=(500, 1000, 2000),
        grid=64,
    )
    ratios = [r.ratio for r in table.rows]
    flags = [f for r in table.rows for f in r.flags]
    devs = [abs(r - 1.0) for r in ratios[-3:]]
    ok = (
        0.8 <= ratios[-1] <= 1.2
        and all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
        and "unstabilized" not in flags
    )
    return ok, f"ratios={[f'{r:.4f}' for r in ratios]}, flags={flags or 'none'}"


def criterion_06_small_o_trend() -> tuple[bool, str]:
    graph = square_lattice(1)
    L = 2000
    H = assemble_truncated(graph, L)

    def w(pos: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pos, axis=1)
        rr = np.maximum(r, 1.0)
        return 1.0 / (rr * np.log(2.0 + r))

    V = potential_from_function(graph, w, L)
    gap = find_gaps(band_structure(graph, 64))[0]  # (-inf, 0)
    taus = [25.0, 50.0, 100.0, 200.0]
    rates = []
    counts = []
    for tau in taus:
        res = edge_counting(H, V, gap, tau, "-")
        counts.append(res.estimate)
        rates.append(res.estimate / tau)
    ok = all(b < a for a, b in zip(rates, rates[1:]))
    return ok, f"counts={counts}, N/tau={[f'{r:.4f}' for r in rates]}"


def criterion_07_edge_regularity() -> tuple[bool, str]:
    msgs = []
    ok = True
    for d in (2, 3):
        graph = square_lattice(d)
        gap = find_gaps(band_structure(graph, 24))[0]
        rep = check_gap_edge_regularity(graph, gap, "upper")
        hess_ok = bool(
            rep.hessians
            and all(np.abs(h - 2.0 * np.eye(d)).max() <= 1e-6 for h in rep.hessians)
        )
        good = rep.verdict == "regular" and hess_ok
        ok = ok and good
        msgs.append(f"d={d}: {rep.verdict}, {len(rep.extremizers)} extremizer(s)")

    def quartic(K: np.ndarray) -> np.ndarray:
        a = 2.0 - 2.0 * np.cos(K[:, 0])
        b = 2.0 - 2.0 * np.cos(K[:, 1])
        return -(a**2) - b

    rep = check_edge_regularity(quartic, GapEdge(0.0, "+", 0), 2)
    ok = ok and rep.verdict == "non-regular"
    msgs.append(f"degenerate synthetic band: {rep.verdict}")
    return ok, "; ".join(msgs)


def criterion_08_edge_conditions() -> tuple[bool, str]:
    msgs = []
    bands3 = band_structure(square_lattice(3), 16)
    edge3 = gap_edge(find_gaps(bands3)[0], "upper", 1)
    rep3 = edge_integral(bands3, edge3, 1.0)
    weak3 = weak_edge_membership(bands3, edge3, 1.5)
    msgs.append(f"d=3 kappa=1: {rep3.verdict}, weak p=3/2 member={weak3.weak_member}")

    bands1 = band_structure(square_lattice(1), 64)
    edge1 = gap_edge(find_gaps(bands1)[0], "upper", 1)
    rep1 = edge_integral(bands1, edge1, 1.0)
    growth = rep1.estimates[-1] / rep1.estimates[-2]
    msgs.append(f"d=1 kappa=1: {rep1.verdict}, last growth factor {growth:.3f}")
    ok = (
        rep3.verdict == "convergent"
        and weak3.weak_member is True
        and rep1.verdict == "divergent"
        and abs(growth - 2.0) <= 0.4
    )
    return ok, "; ".join(msgs)


def _sweep_oracle(seq: WeightedSequence, p: float) -> float:
    best = 0.0
    for a in np.unique(seq.values[seq.values > 0.0]):
        s = np.nextafter(a, 0.0)
        best = max(best, s * distribution(seq, float(s)) ** (1.0 / p))
    return best


def criterion_09_quasinorm_exactness() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        seq = WeightedSequence(rng.uniform(0.0, 5.0, n))
        p = float(rng.uniform(0.3, 4.0))
        q = weak_quasinorm(seq, p)
        o = _sweep_oracle(seq, p)
        worst = max(worst, abs(q - o) / max(q, 1e-300))
    m = np.arange(1, 1001, dtype=float)
    vals = {p: weak_quasinorm(WeightedSequence(1.0 / m ** (1.0 / p)), p) for p in (0.5, 1.0, 2.0)}
    ok = worst <= 1e-9 and all(q == 1.0 for q in vals.values())
    return ok, f"sweep worst rel diff {worst:.1e}; m^(-1/p) quasinorms {vals}"


def _direct_section_svalues(f, g, W, M: int) -> np.ndarray:
    """Independent quadrature construction of the section of f Phi W Phi* g."""
    K = torus_grid(W.dim, M)
    P = np.exp(1j * (K @ W.points.T)) / M ** (W.dim / 2.0)
    T = (np.asarray(f(K))[:, None] * P * W.values[None, :]) @ (P.conj().T * np.asarray(g(K))[None, :])
    return np.linalg.svd(T, compute_uv=False)


def criterion_10_pdo_formula() -> tuple[bool, str]:
    est, formula = dp_vs_formula(torus_one(), 1.0, torus_one(), p=1.0, L=512, M=4096)
    formula_ok = abs(formula - 2.0) <= 1e-8
    window_ok = 1.8 <= est.inf_est <= est.sup_est <= 2.2

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        L, M = 8, 64
        npts = int(rng.integers(1, 11))
        pts = rng.choice(np.arange(-L, L + 1), size=npts, replace=False)[:, None]
        vals = rng.standard_normal(npts) + 1j * rng.standard_normal(npts)
        W = tabulated_symbol(pts, vals, L)
        f = torus_trig({t: rng.standard_normal() + 1j * rng.standard_normal() for t in (-2, 0, 1)})
        g = torus_trig({t: rng.standard_normal() + 1j * rng.standard_normal() for t in (-1, 0, 3)})
        gram = pdo_singular_values(SymbolTriple(f, g, W, 1.0, M)).svalues.values
        direct = np.sort(_direct_section_svalues(f, g, W, M))[::-1][: gram.size]
        scale = max(float(direct.max(initial=0.0)), 1e-300)
        worst = max(worst, float(np.abs(gram - direct).max()) / scale)
    gram_ok = worst <= 1e-8
    return formula_ok and window_ok and gram_ok, (
        f"formula={formula:.12f}, window=[{est.inf_est:.4f},{est.sup_est:.4f}], "
        f"gram-vs-direct worst rel {worst:.1e}"
    )


def criterion_11_cwikel_stability() -> tuple[bool, str]:
    ratios = []
    for L in (64, 128, 256):
        W = homogeneous_symbol(1.0, 1.0, 1, L)
        ratios.append(cwikel_ratio(torus_one(), W, 1.0, 2.0, L, 8 * L))
    drifts = [abs(b / a - 1.0) for a, b in zip(ratios, ratios[1:])]
    ok = all(dr < 0.1 for dr in drifts)
    return ok, f"ratios={[f'{r:.6f}' for r in ratios]}, drifts={[f'{d:.2%}' for d in drifts]}"


def criterion_12_commutator_decay() -> tuple[bool, str]:
    L = 512
    W = homogeneous_symbol(1.0, 1.0, 1, L)
    rep = commutator_decay({1: 1.0}, W, 1.0, L)
    prods = rep.products
    decay_ok = prods.size >= 200 and prods[9] >= 2.0 * prods[199]

    zero = commutator_decay({0: 3.0}, W, 1.0, L)
    zero_ok = len(zero.svalues) == 0
    msg = (
        f"m*s_m at m=10: {prods[9]:.4f}, at m=200: {prods[199]:.4f}"
        if prods.size >= 200
        else f"rank {prods.size} < 200"
    )
    return decay_ok and zero_ok, msg + f"; constant symbol rank={len(zero.svalues)}"


# ---------------------------------------------------------------------------
# runner

_CRITERIA: tuple[tuple[int, str, Callable[[], tuple[bool, str]]], ...] = (
    (1, "band extrema on the d=1 and d=2 lattices", criterion_01_band_extrema),
    (2, "band energies against the fiber eigensolver", criterion_02_band_energies),
    (3, "closed-form asymptotic coefficient", criterion_03_gamma_closed_form),
    (4, "counting-route agreement on random models", criterion_04_bs_identity),
    (5, "large-coupling ratio trend", criterion_05_large_coupling_ratio),
    (6, "summable-potential small-o trend", criterion_06_small_o_trend),
    (7, "gap-edge regularity verdicts", criterion_07_edge_regularity),
    (8, "edge integrability ladders", criterion_08_edge_conditions),
    (9, "weak quasinorm exactness", criterion_09_quasinorm_exactness),
    (10, "pseudodifferential coefficient formula", criterion_10_pdo_formula),
    (11, "Cwikel-type ratio stability", criterion_11_cwikel_stability),
    (12, "commutator singular-value decay", criterion_12_commutator_decay),
)


def run_all(only: Sequence[int] | None = None) -> list[CriterionResult]:
    wanted = set(only) if only else None
    unknown = sorted(set(only or ()) - {number for number, _, _ in _CRITERIA})
    if unknown:
        numbers = ", ".join(map(str, unknown))
        raise GapcountError(f"unknown criterion number(s) {numbers}; criteria are 1-{len(_CRITERIA)}")
    results = []
    for number, name, fn in _CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(number, name, passed, detail, time.perf_counter() - t0))
    return results


def format_results(results: Sequence[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        lines.append(f"{status} [{r.number:2d}] {r.name} ({r.seconds:.1f}s)")
        lines.append(f"       {r.detail}")
    npass = sum(r.passed for r in results)
    lines.append(f"{npass}/{len(results)} criteria passed")
    return "\n".join(lines)
