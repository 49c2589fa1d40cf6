"""Command-line surface: band structure, gaps, counting experiments, verification.

Subcommands: bands | gaps | regularity | gamma | edge-conditions | count |
asymptotics | pdo | weaklp | verify.  Exit codes: 0 success, 1 verification
failure, 2 a usage error or any other violated gapcount precondition.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import GapcountError
from .floquet import (
    band_structure,
    check_gap_edge_regularity,
    find_gaps,
    gap_edge,
    torus_bands,
    torus_grid,
)
from .gamma import check_dimension, edge_integral, gamma_coefficient, weak_edge_membership
from .pdo_lab import commutator_decay, cwikel_ratio, dp_vs_formula, homogeneous_symbol, parse_torus_function
from .periodic_graph import (
    assemble_truncated,
    dimer_chain,
    load_graph,
    parse_theta,
    sample_potential,
    square_lattice,
)
from .weak_lp import WeightedSequence, membership_verdicts, weak_quasinorm


class UsageError(GapcountError):
    """Bad flags or configuration; maps to exit code 2."""


def _load_graph(token: str):
    """A path to a JSON graph document, or a builtin: square:<d>[:Q] | dimer."""
    if token == "dimer":
        return dimer_chain()
    if token.startswith("square:"):
        parts = token.split(":")
        try:
            d = int(parts[1])
            q = float(parts[2]) if len(parts) > 2 else 0.0
        except (IndexError, ValueError) as exc:
            raise UsageError(f"bad builtin graph token {token!r}") from exc
        return square_lattice(d, q)
    path = Path(token)
    if not path.exists():
        raise UsageError(f"graph file not found: {token}")
    return load_graph(path)


def _parse_sign(s: str) -> str:
    if s in ("plus", "+"):
        return "+"
    if s in ("minus", "-"):
        return "-"
    raise UsageError(f"sign must be plus or minus, got {s!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_csv(header: str, rows, out: str | None) -> None:
    """The header line, then one line per row: floats as 17-significant-digit decimals, the rest by str."""
    lines = [header] + [",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) for row in rows]
    _emit("\n".join(lines) + "\n", out)


def _write_json(doc, out: str | None) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", out)


def _finite_or_none(x) -> float | None:
    """x as a JSON number, or null when infinite."""
    return float(x) if math.isfinite(x) else None


def _gap_json(g, grid: int) -> dict:
    return {
        "lower": _finite_or_none(g.lower),
        "upper": _finite_or_none(g.upper),
        "kind": g.kind,
        "band_index": g.band_index,
        "grid_step": 2.0 * math.pi / grid,
    }


def _indexed_gap(graph, args):
    """The band structure on --grid and its gap number --gap-index."""
    bands = band_structure(graph, args.grid)
    gaps = find_gaps(bands)
    if not 0 <= args.gap_index < len(gaps):
        raise UsageError(f"gap index {args.gap_index} out of range (found {len(gaps)} gaps)")
    return bands, gaps[args.gap_index]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_bands(args) -> int:
    """One row per point of the torus grid: the k components, then E_1..E_nu."""
    graph = _load_graph(args.graph)
    E = np.concatenate(list(torus_bands(graph, args.grid)))
    header = ",".join([f"k_{i+1}" for i in range(graph.dim)] + [f"E_{s+1}" for s in range(graph.nu)])
    _write_csv(header, np.hstack([torus_grid(graph.dim, args.grid), E]).tolist(), args.out)
    return 0


def _cmd_gaps(args) -> int:
    graph = _load_graph(args.graph)
    gaps = find_gaps(band_structure(graph, args.grid))
    _write_json([_gap_json(g, args.grid) for g in gaps], args.out)
    return 0


def _cmd_regularity(args) -> int:
    graph = _load_graph(args.graph)
    _, gap = _indexed_gap(graph, args)
    rep = check_gap_edge_regularity(graph, gap, args.which)
    doc = {
        "edge": {"value": rep.edge.value, "sign": rep.edge.sign, "band_index": rep.edge.band_index},
        "verdict": rep.verdict,
        "extremizers": [list(map(float, x)) for x in rep.extremizers],
        "hessians": [[list(map(float, row)) for row in h] for h in rep.hessians],
    }
    _write_json(doc, args.out)
    return 0


def _cmd_gamma(args) -> int:
    graph = _load_graph(args.graph)
    check_dimension(graph.dim)  # before the band sweep
    bands = band_structure(graph, args.grid)
    theta = parse_theta(args.theta)
    sign = _parse_sign(args.sign)
    res = gamma_coefficient(bands, args.lam, args.p, sign, theta)
    torus_sum = float(res.torus_integrals.sum())
    row = (args.lam, args.p, sign, res.value, torus_sum, res.sphere_integral, res.grids[-1], res.error)
    _write_csv("lambda,p,sign,gamma,torus_sum,sphere,grid,error", [row], args.out)
    return 0


def _cmd_edge_conditions(args) -> int:
    graph = _load_graph(args.graph)
    bands, gap = _indexed_gap(graph, args)
    edge = gap_edge(gap, args.which, graph.nu)
    rep = edge_integral(bands, edge, args.kappa)
    doc = {
        "edge": {"value": edge.value, "sign": edge.sign},
        "kappa": args.kappa,
        "grids": list(rep.grids),
        "estimates": [_finite_or_none(x) for x in rep.estimates],
        "verdict": rep.verdict,
    }
    if args.p is not None:
        weak = weak_edge_membership(bands, edge, args.p)
        doc["weak"] = {"p": args.p, "sup": _finite_or_none(weak.weak_sup), "member": weak.weak_member}
    _write_json(doc, args.out)
    return 0


# The counting and verify handlers import spectral_counts and acceptance
# themselves: those load scipy.sparse and scipy.linalg, which the other
# subcommands never need and which would more than double their start-up time.


def _cmd_count(args) -> int:
    from .spectral_counts import bs_matrix, counting_bs, counting_direct

    graph = _load_graph(args.graph)
    theta = parse_theta(args.theta)
    sign = _parse_sign(args.sign)
    H = assemble_truncated(graph, args.L)
    V = sample_potential(graph, theta, args.p, args.L)
    X = bs_matrix(H, V, args.lam)
    cb = counting_bs(X, args.tau, sign)
    cd = counting_direct(H, V, args.lam, args.tau, sign)
    flags = ["boundary"] * (cb.boundary or cd.boundary) + ["mismatch"] * (cb.value != cd.value)
    row = (args.lam, args.tau, args.L, cb.value, cd.value, ";".join(flags))
    _write_csv("lambda,tau,L,N_bs,N_direct,flags", [row], args.out)
    return 0


def _cmd_asymptotics(args) -> int:
    from .spectral_counts import asymptotic_table

    table = asymptotic_table(
        _load_graph(args.graph), parse_theta(args.theta), p=args.p, lam=args.lam, sign=_parse_sign(args.sign),
        tau_list=args.tau, L_list=args.L, grid=args.grid,
    )
    gamma = table.gamma.value
    rows = [(args.lam, r.tau, r.L, r.N_bs, r.N_direct, gamma, r.ratio, ";".join(r.flags)) for r in table.rows]
    _write_csv("lambda,tau,L,N_bs,N_direct,gamma,ratio,flags", rows, args.out)
    return 0


# The optional flags that each pdo mode reads, with their defaults; None is a
# default that the mode computes from --L or --p.  A mode rejects the others.
_PDO_FLAGS = {
    "dp": {"f": "one", "g": "one", "M": None},
    "cwikel": {"f": "one", "q": None, "M": None},
    "commutator": {"coeffs": '{"1": 1.0}'},
}


def _cmd_pdo(args) -> int:
    reads = _PDO_FLAGS[args.mode]
    for flag in (flag for flags in _PDO_FLAGS.values() for flag in flags):
        if flag not in reads and getattr(args, flag) is not None:
            raise UsageError(f"--{flag} does not apply to --mode {args.mode}")
    opt = {flag: default if getattr(args, flag) is None else getattr(args, flag) for flag, default in reads.items()}
    if args.mode == "commutator":
        # the commutator's symbol comes from --coeffs alone, on the box itself
        W = homogeneous_symbol(args.v, args.p, args.dim, args.L)
        # one integer per axis, comma-separated: "1" in d = 1, "1,0" in d = 2
        try:
            coeffs = {tuple(map(int, t.split(","))): complex(c) for t, c in json.loads(opt["coeffs"]).items()}
        except (ValueError, TypeError, AttributeError) as exc:
            raise UsageError(f"--coeffs must map lags like \"1,0\" to numbers: {exc}") from exc
        rep = commutator_decay(coeffs, W, args.p, args.L)
        rows = zip(range(1, len(rep.svalues) + 1), rep.svalues.values.tolist(), rep.products.tolist())
        _write_csv("m,s_m,m^{1/p}s_m", rows, args.out)
        return 0
    f = parse_torus_function(opt["f"])
    M = 8 * args.L if opt["M"] is None else opt["M"]
    if args.mode == "dp":
        g = parse_torus_function(opt["g"])
        est, formula = dp_vs_formula(f, args.v, g, args.p, args.L, M, d=args.dim)
        _write_csv("L,M,dp_sup,dp_inf,formula", [(args.L, M, est.sup_est, est.inf_est, formula)], args.out)
        return 0
    # cwikel
    if opt["q"] is None and args.p == 2.0:
        raise UsageError("--p 2 needs an explicit --q > 2")
    W = homogeneous_symbol(args.v, args.p, args.dim, args.L)
    q = opt["q"] if opt["q"] is not None else (args.p if args.p > 2 else 2.0)
    ratio = cwikel_ratio(f, W, args.p, q, args.L, M)
    _write_csv("p,q,L,ratio", [(args.p, q, args.L, ratio)], args.out)
    return 0


def _cmd_weaklp(args) -> int:
    try:
        values = np.loadtxt(args.values).ravel()
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read values file: {exc}") from exc
    seq = WeightedSequence(values)
    q = weak_quasinorm(seq, args.p)
    doc = {"count": len(seq), "p": args.p, "weak_quasinorm": q}
    if len(seq) >= 16:
        v = membership_verdicts(seq, args.p)
        doc["weak_member"] = v.weak
        doc["small_o"] = v.small_o
    _write_json(doc, args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    results = acceptance.run_all(args.only)
    text = acceptance.format_results(results) + "\n"
    _emit(text, args.out)
    if args.out:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gapcount", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, graph=True):
        if graph:
            p.add_argument("--graph", required=True, help="graph JSON path or builtin (square:<d>[:Q], dimer)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    def add_coupling(p):
        p.add_argument("--lambda", dest="lam", type=float, required=True)
        p.add_argument("--p", type=float, required=True)
        p.add_argument("--sign", required=True, help="plus | minus")
        p.add_argument("--theta", default="const:1")

    p = sub.add_parser("bands", help="sample band functions on a torus grid")
    add_common(p)
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(fn=_cmd_bands)

    p = sub.add_parser("gaps", help="detect spectral gaps")
    add_common(p)
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(fn=_cmd_gaps)

    p = sub.add_parser("regularity", help="check gap-edge regularity")
    add_common(p)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--gap-index", type=int, default=0)
    p.add_argument("--which", choices=("lower", "upper"), default="upper")
    p.set_defaults(fn=_cmd_regularity)

    p = sub.add_parser("gamma", help="asymptotic coefficient at a point in a gap")
    add_common(p)
    p.add_argument("--grid", type=int, default=64)
    add_coupling(p)
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("edge-conditions", help="integrability ladder at a gap edge")
    add_common(p)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--gap-index", type=int, default=0)
    p.add_argument("--which", choices=("lower", "upper"), default="upper")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--p", type=float, default=None, help="also run the weak membership check")
    p.set_defaults(fn=_cmd_edge_conditions)

    p = sub.add_parser("count", help="counting function at one (lambda, tau)")
    add_common(p)
    add_coupling(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--L", type=int, required=True)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("asymptotics", help="counting table against tau^p * Gamma")
    add_common(p)
    add_coupling(p)
    p.add_argument("--tau", type=float, nargs="+", required=True)
    p.add_argument("--L", type=int, nargs="+", required=True)
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(fn=_cmd_asymptotics)

    p = sub.add_parser("pdo", help="finite-section pseudodifferential experiments")
    add_common(p, graph=False)
    p.add_argument("--mode", choices=("dp", "cwikel", "commutator"), required=True)
    p.add_argument("--f", help="torus function preset (one | halftorus | exp:<lags>), default one; dp and cwikel only")
    p.add_argument("--g", help="torus function preset, default one; dp only")
    p.add_argument("--v", type=float, default=1.0, help="constant angular factor of the lattice symbol")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, help="default p for p > 2, 2 for p < 2; cwikel only")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--M", type=int, help="torus grid per axis, default 8 L; dp and cwikel only")
    p.add_argument("--dim", type=int, default=1, help="lattice dimension d of the symbol, in every mode")
    p.add_argument("--coeffs", help='JSON map of lags ("1" or "1,0") to coefficients, default {"1": 1.0}; commutator only')
    p.set_defaults(fn=_cmd_pdo)

    p = sub.add_parser("weaklp", help="weak-lp functionals of a sampled sequence")
    add_common(p, graph=False)
    p.add_argument("--values", required=True, help="whitespace-separated values file")
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(fn=_cmd_weaklp)

    p = sub.add_parser("verify", help="run the full verification suite")
    add_common(p, graph=False)
    p.add_argument("--only", type=int, nargs="+", default=None, help="criterion numbers to run")
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (GapcountError, OSError) as exc:
        print(f"gapcount: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
