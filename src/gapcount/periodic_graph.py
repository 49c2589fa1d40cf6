"""Z^d-periodic graphs, truncated Hamiltonians and decaying potentials.

A periodic graph is declared by its fundamental-cell vertices (with a
periodic on-site potential Q) and a list of translated edges
(j, j', n) identifying vertex x_j with x_{j'} + n.  The combinatorial
Laplacian convention: loops with n = 0 drop out entirely; a self-orbit
edge (j, j, n), n != 0, contributes 2 to degree(j).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp


class GraphError(ValueError):
    """Malformed graph specification or invalid potential data."""


# ---------------------------------------------------------------------------
# specification documents


@dataclass(frozen=True)
class VertexSpec:
    id: int
    offset: tuple[float, ...]
    Q: float = 0.0


@dataclass(frozen=True)
class EdgeSpec:
    from_id: int
    to_id: int
    cell: tuple[int, ...]


@dataclass(frozen=True)
class GraphSpec:
    """JSON-schema document: dim, vertices [{id, offset, Q}], edges."""

    dim: int
    vertices: tuple[VertexSpec, ...]
    edges: tuple[EdgeSpec, ...]

    @classmethod
    def from_dict(cls, doc: dict) -> "GraphSpec":
        try:
            dim = int(doc["dim"])
            vertices = tuple(
                VertexSpec(int(v["id"]), tuple(float(x) for x in v["offset"]), float(v.get("Q", 0.0)))
                for v in doc["vertices"]
            )
            edges = tuple(
                EdgeSpec(int(e["from"]), int(e["to"]), tuple(int(c) for c in e["cell"]))
                for e in doc["edges"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed graph document: {exc}") from exc
        return cls(dim, vertices, edges)

    @classmethod
    def from_json(cls, path: str | Path) -> "GraphSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class Edge:
    """Canonical undirected edge (j, jp, cell) with multiplicity."""

    j: int
    jp: int
    cell: tuple[int, ...]
    mult: int = 1


@dataclass(frozen=True)
class PeriodicGraph:
    dim: int
    nu: int
    offsets: np.ndarray  # (nu, dim)
    edges: tuple[Edge, ...]
    degrees: np.ndarray  # (nu,)
    Q: np.ndarray  # (nu,)


@dataclass(frozen=True)
class FiniteHamiltonian:
    """Compression of H to the box |n|_inf <= L (full degrees kept)."""

    graph: PeriodicGraph
    L: int
    matrix: sp.csr_matrix
    cells: np.ndarray  # (nsites, dim) integer translations
    vertex_ids: np.ndarray  # (nsites,) values in 1..nu
    positions: np.ndarray  # (nsites, dim) embedded x_j + n

    @property
    def nsites(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


# ---------------------------------------------------------------------------
# angular profiles


@dataclass(frozen=True)
class ThetaProfile:
    """Angular profile theta on S^{d-1}: callable on unit directions."""

    fn: Callable[[np.ndarray], np.ndarray]
    sup: float
    name: str = "theta"

    def __call__(self, directions: np.ndarray) -> np.ndarray:
        u = np.atleast_2d(np.asarray(directions, dtype=float))
        out = np.asarray(self.fn(u), dtype=float)
        return out


def theta_const(c: float) -> ThetaProfile:
    return ThetaProfile(lambda u: np.full(u.shape[0], float(c)), float(c), f"const:{c}")


def theta_cos2() -> ThetaProfile:
    return ThetaProfile(lambda u: u[:, 0] ** 2, 1.0, "cos2")


def theta_table(path: str | Path) -> ThetaProfile:
    """Whitespace-separated rows: d direction components then a value.

    Lookup is nearest-direction piecewise constant.
    """
    rows = np.loadtxt(path, ndmin=2)
    dirs = rows[:, :-1]
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0):
        raise GraphError("zero direction in theta table")
    dirs = dirs / norms[:, None]
    vals = rows[:, -1]

    def fn(u: np.ndarray) -> np.ndarray:
        idx = np.argmax(u @ dirs.T, axis=1)
        return vals[idx]

    return ThetaProfile(fn, float(vals.max()), f"table:{path}")


def parse_theta(spec: str) -> ThetaProfile:
    if spec.startswith("const:"):
        return theta_const(float(spec.split(":", 1)[1]))
    if spec == "cos2":
        return theta_cos2()
    if spec.startswith("table:"):
        return theta_table(spec.split(":", 1)[1])
    raise GraphError(f"unknown theta preset {spec!r}")


@dataclass(frozen=True)
class DecayingPotential:
    """Sampled V(x_j + n) on a box, aligned with FiniteHamiltonian sites."""

    p: float
    theta: ThetaProfile | None
    L: int
    values: np.ndarray  # (nsites,) nonnegative


# ---------------------------------------------------------------------------
# operations


def _canonical(e: EdgeSpec) -> tuple[int, int, tuple[int, ...]]:
    j, jp, n = e.from_id, e.to_id, e.cell
    neg = tuple(-c for c in n)
    if jp < j or (jp == j and neg < n):
        return jp, j, neg
    return j, jp, n


def build_graph(spec: GraphSpec) -> PeriodicGraph:
    """Validate, canonicalize edges, compute degrees, check connectivity."""
    if spec.dim < 1:
        raise GraphError("dimension must be >= 1")
    ids = [v.id for v in spec.vertices]
    nu = len(ids)
    if sorted(ids) != list(range(1, nu + 1)):
        raise GraphError("vertex ids must be exactly 1..nu with no duplicates")
    offsets = np.zeros((nu, spec.dim))
    Q = np.zeros(nu)
    for v in spec.vertices:
        if len(v.offset) != spec.dim:
            raise GraphError(f"vertex {v.id}: offset has wrong dimension")
        if any(not (0.0 <= x < 1.0) for x in v.offset):
            raise GraphError(f"vertex {v.id}: offset outside [0,1)^d")
        offsets[v.id - 1] = v.offset
        Q[v.id - 1] = v.Q

    counts: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for e in spec.edges:
        if e.from_id not in range(1, nu + 1) or e.to_id not in range(1, nu + 1):
            raise GraphError(f"edge ({e.from_id},{e.to_id},{e.cell}) references unknown vertex id")
        if len(e.cell) != spec.dim:
            raise GraphError("edge cell vector has wrong dimension")
        if e.from_id == e.to_id and all(c == 0 for c in e.cell):
            continue  # n = 0 loop: no Laplacian contribution
        counts[_canonical(e)] = counts.get(_canonical(e), 0) + 1

    edges = tuple(Edge(j, jp, cell, m) for (j, jp, cell), m in sorted(counts.items()))
    degrees = np.zeros(nu, dtype=int)
    for e in edges:
        if e.j == e.jp:
            degrees[e.j - 1] += 2 * e.mult  # both periodic copies are neighbors
        else:
            degrees[e.j - 1] += e.mult
            degrees[e.jp - 1] += e.mult
    if nu and degrees.min() < 1:
        raise GraphError("graph has an isolated vertex")

    graph = PeriodicGraph(spec.dim, nu, offsets, edges, degrees, Q)
    _check_connectivity(graph)
    return graph


def _check_connectivity(graph: PeriodicGraph) -> None:
    """Connectivity of the infinite graph (Sunada, Topological Crystallography).

    The infinite graph is connected iff the quotient graph on the nu cell
    vertices is connected and the net cell vectors of its cycles generate
    Z^d. A spanning-tree potential t puts vertex j in cell t[j]; each edge
    (j, j', n) then closes a cycle with net cell vector t[j] + n - t[j'].
    """
    adj: dict[int, list[tuple[int, tuple[int, ...]]]] = defaultdict(list)
    for e in graph.edges:
        adj[e.j].append((e.jp, e.cell))
        adj[e.jp].append((e.j, tuple(-c for c in e.cell)))
    t = {1: (0,) * graph.dim}
    stack = [1]
    while stack:
        j = stack.pop()
        for jp, n in adj[j]:
            if jp not in t:
                t[jp] = tuple(a + b for a, b in zip(t[j], n))
                stack.append(jp)
    if len(t) < graph.nu:
        raise GraphError(f"graph is disconnected ({graph.nu - len(t)} of {graph.nu} cell vertices unreachable)")
    cycles = [[a + b - c for a, b, c in zip(t[e.j], e.cell, t[e.jp])] for e in graph.edges]
    if not _generates_lattice(cycles, graph.dim):
        raise GraphError("graph is disconnected: the cell vectors of its cycles do not generate Z^d")


def _generates_lattice(rows: list[list[int]], d: int) -> bool:
    """Whether integer vectors generate Z^d: Hermite reduction, every pivot +-1."""
    for col in range(d):
        live = [r for r in rows if r[col] != 0]
        while len(live) > 1:  # Euclid on the column, by unimodular row operations
            pivot = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not pivot:
                    q = r[col] // pivot[col]
                    r[:] = [a - q * b for a, b in zip(r, pivot)]
            live = [r for r in live if r[col] != 0]
        if not live or abs(live[0][col]) != 1:
            return False
        rows = [r for r in rows if r[col] == 0]
    return True


def box_cells(dim: int, L: int) -> np.ndarray:
    """Integer translations |n|_inf <= L in lexicographic order."""
    axis = np.arange(-L, L + 1)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def assemble_truncated(graph: PeriodicGraph, L: int) -> FiniteHamiltonian:
    """Compression E H E to the box |n|_inf <= L.

    Full-graph degrees stay on the diagonal; couplings leaving the box
    are dropped.
    """
    if L < 0:
        raise GraphError("truncation radius must be >= 0")
    d, nu = graph.dim, graph.nu
    cells = box_cells(d, L)
    ncells = cells.shape[0]
    nsites = ncells * nu
    side = 2 * L + 1
    strides = side ** np.arange(d - 1, -1, -1)

    def cell_flat(c: np.ndarray) -> np.ndarray:
        return (c + L) @ strides

    diag = np.tile(graph.degrees + graph.Q, ncells).reshape(ncells, nu)
    # site index = cell_flat * nu + (j - 1)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for e in graph.edges:
        shift = np.asarray(e.cell, dtype=int)
        target = cells + shift
        inside = np.all(np.abs(target) <= L, axis=1)
        src = np.flatnonzero(inside)
        dst = cell_flat(target[inside])
        a = src * nu + (e.j - 1)
        b = dst * nu + (e.jp - 1)
        w = np.full(a.shape, -float(e.mult))
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((w, w))
    rows.append(np.arange(nsites))
    cols.append(np.arange(nsites))
    vals.append(diag.ravel())
    mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nsites, nsites),
    )
    mat.sum_duplicates()
    cell_arr = np.repeat(cells, nu, axis=0)
    vid = np.tile(np.arange(1, nu + 1), ncells)
    positions = graph.offsets[vid - 1] + cell_arr
    return FiniteHamiltonian(graph, L, mat, cell_arr, vid, positions)


def sample_potential(graph: PeriodicGraph, theta: ThetaProfile, p: float, L: int) -> DecayingPotential:
    """V(x) = |x|^{-d/p} theta(x/|x|) for |x| >= 1, capped at sup theta inside."""
    if p <= 0:
        raise GraphError("p must be positive")
    H = assemble_truncated(graph, L)
    pos = H.positions
    r = np.linalg.norm(pos, axis=1)
    values = np.full(pos.shape[0], theta.sup, dtype=float)
    far = r >= 1.0
    if np.any(far):
        dirs = pos[far] / r[far, None]
        tv = theta(dirs)
        if tv.min() < 0.0:
            raise GraphError("theta takes negative values; potential must satisfy V >= 0")
        values[far] = r[far] ** (-graph.dim / p) * tv
    if theta.sup < 0.0:
        raise GraphError("theta takes negative values; potential must satisfy V >= 0")
    return DecayingPotential(p, theta, L, values)


def potential_from_function(graph: PeriodicGraph, fn: Callable[[np.ndarray], np.ndarray], L: int) -> DecayingPotential:
    """Tabulate an arbitrary nonnegative potential fn(position rows) on the box."""
    H = assemble_truncated(graph, L)
    values = np.asarray(fn(H.positions), dtype=float)
    if values.shape != (H.positions.shape[0],):
        raise GraphError("potential function must return one value per site")
    if values.min() < 0.0:
        raise GraphError("potential must be nonnegative")
    return DecayingPotential(math.nan, None, L, values)


# ---------------------------------------------------------------------------
# builtin graphs


def square_lattice(d: int, Q: float = 0.0) -> PeriodicGraph:
    """The Z^d lattice: one vertex per cell, nearest-neighbor edges."""
    edges = []
    for axis in range(d):
        cell = [0] * d
        cell[axis] = 1
        edges.append(EdgeSpec(1, 1, tuple(cell)))
    spec = GraphSpec(d, (VertexSpec(1, (0.0,) * d, Q),), tuple(edges))
    return build_graph(spec)


def dimer_chain(Q: tuple[float, float] = (0.0, 2.0)) -> PeriodicGraph:
    """1D two-vertex chain: edges (1,2,[0]) and (2,1,[1])."""
    spec = GraphSpec(
        1,
        (VertexSpec(1, (0.0,), Q[0]), VertexSpec(2, (0.5,), Q[1])),
        (EdgeSpec(1, 2, (0,)), EdgeSpec(2, 1, (1,))),
    )
    return build_graph(spec)
