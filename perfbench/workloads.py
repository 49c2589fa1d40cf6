"""The benchmark workloads: seeded inputs, one pass, output checks.

A workload chains parts, each a group of public gapcount calls: counting
runs asym-1d, edge-1d and count-2d, and bands-pdo runs bands-3d then
pdo-1d. Each part fixes its problem sizes. The seed varies
input values only (lambda inside the gap, the tau values, symbol
coefficients); seed 0 reproduces the configuration of gapcount's
acceptance suite exactly.

A workload is a set of operations, the public gapcount calls whose
results are checked. `run` performs one pass and returns its outputs;
`check` runs outside the timed region and returns, per operation, None
or the reason it failed.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


class SetupError(RuntimeError):
    """The checkout holds no gapcount sources to benchmark."""


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[str, ...]
    inputs: Callable[[Any, int], dict]
    run: Callable[[Any, dict], Any]
    check: Callable[[Any, dict, Any, int], list]


def _jitter(seed: int) -> np.random.Generator | None:
    """None at seed 0 (the acceptance configuration), else a seeded generator."""
    return None if seed == 0 else np.random.default_rng(seed)


def _gap_lambda(rng: np.random.Generator | None) -> float:
    # Every lambda here lies in the gap (-inf, 0) of square:d, at least 0.5
    # from sigma(H_L), which sits inside [0, 4d].
    return -1.0 if rng is None else -float(rng.uniform(0.5, 1.5))


def _scaled(base: tuple[float, ...], rng, lo: float, hi: float) -> tuple[float, ...]:
    if rng is None:
        return base
    return tuple(sorted(t * float(rng.uniform(lo, hi)) for t in base))


# ---------------------------------------------------------------------------
# asym-1d and count-2d: the asymptotic table, both counting routes


def _table_check(expected_rows: int, reference: list[int], ref_L: int | None):
    def check(gc, inp, table, seed):
        rows = table.rows
        if len(rows) != expected_rows:
            return [f"{len(rows)} rows, expected {expected_rows}"] * expected_rows
        out = []
        for i, r in enumerate(rows):
            msg = None
            if r.N_bs != r.N_direct:
                msg = f"tau={r.tau}: N_bs={r.N_bs} != N_direct={r.N_direct}"
            elif seed == 0 and (r.N_bs != reference[i] or (ref_L and r.L != ref_L)):
                msg = f"seed 0 row {i}: N={r.N_bs} at L={r.L}, reference {reference[i]}"
            out.append(msg)
        return out

    return check


def _asym_1d_inputs(gc, seed):
    rng = _jitter(seed)
    # tau <= 200 keeps L=2000 above the support heuristic 10 tau^(p/d).
    return dict(
        graph=gc.square_lattice(1),
        theta=gc.theta_const(1.0),
        lam=_gap_lambda(rng),
        taus=_scaled((25.0, 50.0, 100.0, 200.0), rng, 0.8, 1.0),
    )


def _asym_1d_run(gc, inp):
    return gc.asymptotic_table(
        inp["graph"], inp["theta"], p=1.0, lam=inp["lam"], sign="-",
        tau_list=inp["taus"], L_list=(500, 1000, 2000), grid=64,
    )


def _count_2d_inputs(gc, seed):
    rng = _jitter(seed)
    # tau <= 5.76 keeps L=24 above the support heuristic 10 tau^(p/d).
    return dict(
        graph=gc.square_lattice(2),
        theta=gc.theta_const(1.0),
        lam=_gap_lambda(rng),
        taus=_scaled((4.0, 5.0), rng, 0.9, 1.1),
    )


def _count_2d_run(gc, inp):
    return gc.asymptotic_table(
        inp["graph"], inp["theta"], p=1.0, lam=inp["lam"], sign="-",
        tau_list=inp["taus"], L_list=(8, 16, 24), grid=32,
    )


# ---------------------------------------------------------------------------
# edge-1d: many shifted inertia counts on one box, no BS matrix


def _summable(pos: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(pos, axis=1)
    return 1.0 / (np.maximum(r, 1.0) * np.log(2.0 + r))


def _edge_1d_inputs(gc, seed):
    rng = _jitter(seed)
    return dict(graph=gc.square_lattice(1), taus=_scaled((25.0, 50.0, 100.0, 200.0), rng, 0.8, 1.2))


def _edge_1d_run(gc, inp):
    graph, L = inp["graph"], 2000
    H = gc.assemble_truncated(graph, L)
    V = gc.potential_from_function(graph, _summable, L)
    gap = gc.find_gaps(gc.band_structure(graph, 64))[0]
    return [gc.edge_counting(H, V, gap, tau, "-") for tau in inp["taus"]]


_EDGE_1D_REFERENCE = [121, 171, 243, 339]


def _edge_1d_check(gc, inp, results, seed):
    out = []
    prev = -1
    for i, res in enumerate(results):
        counts = [int(c) for c in res.counts]
        msg = None
        # V >= 0 and H_L >= 0: N_-(lambda, tau) grows as lambda rises to the
        # edge 0 and as tau grows.
        if any(b < a for a, b in zip(counts, counts[1:])) or min(counts) < 0:
            msg = f"tau={inp['taus'][i]}: ladder counts not nondecreasing: {counts}"
        elif res.estimate < prev:
            msg = f"tau={inp['taus'][i]}: estimate {res.estimate} below the smaller-tau one {prev}"
        elif seed == 0 and res.estimate != _EDGE_1D_REFERENCE[i]:
            msg = f"seed 0: estimate {res.estimate}, reference {_EDGE_1D_REFERENCE[i]}"
        prev = res.estimate
        out.append(msg)
    return out


# ---------------------------------------------------------------------------
# bands-3d: band sampling, Gamma quadrature and edge ladders, no counting


def _bands_3d_inputs(gc, seed):
    return dict(graph=gc.square_lattice(3), theta=gc.theta_const(1.0), lam=_gap_lambda(_jitter(seed)))


def _bands_3d_run(gc, inp):
    graph = inp["graph"]
    bands = gc.band_structure(graph, 32)
    gamma = gc.gamma_coefficient(bands, inp["lam"], 1.5, "-", inp["theta"])
    gap = gc.find_gaps(bands)[0]
    edge = gc.gap_edge(gap, "upper", graph.nu)
    ladder = gc.edge_integral(bands, edge, 1.0, (32, 64, 128, 256))
    weak = gc.weak_edge_membership(bands, edge, 1.5)
    regularity = gc.check_gap_edge_regularity(graph, gap, "upper")
    return gamma, ladder, weak, regularity


def _gamma_oracle_3d(lam: float, p: float, M: int = 64) -> float:
    """Gamma_p^-(lam) for square:3 with theta = 1 from the closed-form band.

    The integrand is analytic and periodic for lam < 0, so the plain
    trapezoid rule converges geometrically.
    """
    axis = -math.pi + 2.0 * math.pi * np.arange(M) / M
    e1 = 2.0 - 2.0 * np.cos(axis)
    E = e1[:, None, None] + e1[None, :, None] + e1[None, None, :]
    torus = float(np.sum((E - lam) ** (-p))) * (2.0 * math.pi / M) ** 3
    return torus * 4.0 * math.pi / (3.0 * (2.0 * math.pi) ** 3)


def _bands_3d_check(gc, inp, out, seed):
    gamma, ladder, weak, regularity = out
    oracle = _gamma_oracle_3d(inp["lam"], 1.5)
    msgs = [None, None, None, None]
    if abs(gamma.value - oracle) > 1e-9 * oracle:
        msgs[0] = f"Gamma={gamma.value!r}, trapezoid oracle {oracle!r}"
    elif seed == 0 and round(gamma.value, 12) != 0.324896887306:
        msgs[0] = f"seed 0: Gamma={gamma.value!r}, reference 0.324896887306"
    if ladder.verdict != "convergent":
        msgs[1] = f"ladder verdict {ladder.verdict}"
    if weak.weak_member is not True:
        msgs[2] = f"weak membership {weak.weak_member}"
    hess_ok = bool(regularity.hessians) and all(
        np.abs(h - 2.0 * np.eye(3)).max() <= 1e-6 for h in regularity.hessians
    )
    if regularity.verdict != "regular" or not hess_ok:
        msgs[3] = f"regularity {regularity.verdict}, Hessians within 1e-6 of 2I: {hess_ok}"
    return msgs


# ---------------------------------------------------------------------------
# pdo-1d: the pseudodifferential lab and weak-lp functionals


_CWIKEL_REFERENCE = 0.398942  # scale-free, so the same at every seed


def _pdo_1d_inputs(gc, seed):
    rng = _jitter(seed)
    return dict(
        amplitude=1.0 if rng is None else float(rng.uniform(0.5, 2.0)),
        lag_coeff=1.0 if rng is None else float(rng.uniform(0.5, 2.0)),
    )


def _pdo_1d_run(gc, inp):
    from gapcount.pdo_lab import torus_one

    c = inp["amplitude"]
    est, formula = gc.dp_vs_formula(torus_one(), c, torus_one(), p=1.0, L=512, M=4096)
    ratios = []
    for L in (64, 128, 256):
        W = gc.homogeneous_symbol(c, 1.0, 1, L)
        ratios.append(gc.cwikel_ratio(torus_one(), W, 1.0, 2.0, L, 8 * L))
    W = gc.homogeneous_symbol(c, 1.0, 1, 512)
    commutator = gc.commutator_decay({1: inp["lag_coeff"]}, W, 1.0, 512)
    return est, formula, ratios, commutator


def _direct_section_svalues(f, g, W, M: int) -> np.ndarray:
    """Dense quadrature section of f Phi W Phi* g, for d = 1."""
    k = (-math.pi + 2.0 * math.pi * np.arange(M) / M)[:, None]
    P = np.exp(1j * (k @ W.points.T)) / math.sqrt(M)
    T = (np.asarray(f(k))[:, None] * P * W.values[None, :]) @ (P.conj().T * np.asarray(g(k))[None, :])
    return np.sort(np.linalg.svd(T, compute_uv=False))[::-1]


def _gram_oracle_error(gc, seed: int, trials: int = 5) -> float:
    """Worst relative gap between Gram and dense singular values (criterion 10)."""
    from gapcount.pdo_lab import SymbolTriple, torus_trig

    rng = np.random.default_rng([seed, 10])
    L, M = 8, 64
    worst = 0.0
    for _ in range(trials):
        npts = int(rng.integers(1, 11))
        pts = rng.choice(np.arange(-L, L + 1), size=npts, replace=False)[:, None]
        vals = rng.standard_normal(npts) + 1j * rng.standard_normal(npts)
        W = gc.tabulated_symbol(pts, vals, L)
        f = torus_trig({t: complex(*rng.standard_normal(2)) for t in (-2, 0, 1)})
        g = torus_trig({t: complex(*rng.standard_normal(2)) for t in (-1, 0, 3)})
        gram = gc.pdo_singular_values(SymbolTriple(f, g, W, 1.0, M)).svalues.values
        direct = _direct_section_svalues(f, g, W, M)[: gram.size]
        scale = max(float(direct.max(initial=0.0)), 1e-300)
        worst = max(worst, float(np.abs(gram - direct).max(initial=0.0)) / scale)
    return worst


def _pdo_1d_check(gc, inp, out, seed):
    est, formula, ratios, commutator = out
    target = 2.0 * inp["amplitude"]  # (2 pi)^-1 * 2 pi * |c| * #S^0
    msgs = [None] * 6
    if abs(formula - target) > 1e-8:
        msgs[0] = f"formula {formula!r}, closed form {target!r}"
    elif not 0.9 * target <= est.inf_est <= est.sup_est <= 1.1 * target:
        msgs[0] = f"window [{est.inf_est}, {est.sup_est}] outside 0.9..1.1 x {target}"
    for i, r in enumerate(ratios):
        if abs(r - _CWIKEL_REFERENCE) > 5e-7:
            msgs[1 + i] = f"Cwikel ratio {r!r}, reference {_CWIKEL_REFERENCE}"
    prods = commutator.products
    if prods.size < 200 or prods[9] < 2.0 * prods[199]:
        msgs[4] = f"commutator products do not decay: rank {prods.size}"
    worst = _gram_oracle_error(gc, seed)
    if not worst <= 1e-8:
        msgs[5] = f"Gram vs dense singular values: worst relative gap {worst:.1e}"
    return msgs


PARTS = {
    w.name: w
    for w in (
        Workload("asym-1d", ("row1", "row2", "row3", "row4"), _asym_1d_inputs, _asym_1d_run,
                 _table_check(4, [23, 45, 89, 179], None)),
        Workload("edge-1d", ("tau1", "tau2", "tau3", "tau4"), _edge_1d_inputs, _edge_1d_run,
                 _edge_1d_check),
        Workload("count-2d", ("row1", "row2"), _count_2d_inputs, _count_2d_run,
                 _table_check(2, [3, 4], 24)),
        Workload("bands-3d", ("gamma", "ladder", "weak", "regularity"), _bands_3d_inputs,
                 _bands_3d_run, _bands_3d_check),
        Workload("pdo-1d", ("dp-window", "cwikel64", "cwikel128", "cwikel256", "commutator",
                            "gram-oracle"), _pdo_1d_inputs, _pdo_1d_run, _pdo_1d_check),
    )
}


def _chain(name: str, *parts: Workload) -> Workload:
    """One workload whose pass runs the parts in order; inputs and outputs are per part."""

    def inputs(gc, seed):
        return {w.name: w.inputs(gc, seed) for w in parts}

    def run(gc, inp):
        return {w.name: w.run(gc, inp[w.name]) for w in parts}

    def check(gc, inp, out, seed):
        return [m for w in parts for m in w.check(gc, inp[w.name], out[w.name], seed)]

    ops = tuple(f"{w.name}.{op}" for w in parts for op in w.ops)
    return Workload(name, ops, inputs, run, check)


# Two workloads, so that each run can be long enough to average over a
# shared host's slow phases: the counting pipeline in one, the band and
# PDO labs, which do no counting, in the other.
WORKLOADS = {
    w.name: w
    for w in (
        _chain("counting", PARTS["asym-1d"], PARTS["edge-1d"], PARTS["count-2d"]),
        _chain("bands-pdo", PARTS["bands-3d"], PARTS["pdo-1d"]),
    )
}


def import_gapcount():
    """Import gapcount from this checkout's sources."""
    if not (SRC / "gapcount" / "__init__.py").is_file():
        raise SetupError(f"no gapcount package under {SRC}")
    sys.path.insert(0, str(SRC))
    gc = importlib.import_module("gapcount")
    if Path(gc.__file__).resolve().parent != SRC / "gapcount":
        raise SetupError(f"imported gapcount from {gc.__file__}, not from {SRC}")
    return gc


def setup(name: str, seed: int) -> tuple[Any, dict]:
    """Import gapcount and build a workload's inputs."""
    gc = import_gapcount()
    return gc, WORKLOADS[name].inputs(gc, seed)
