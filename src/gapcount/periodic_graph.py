"""Z^d-periodic graphs, truncated Hamiltonians and decaying potentials.

A periodic graph is declared by its fundamental-cell vertices (with a
periodic on-site potential Q) and a list of translated edges
(j, j', n) identifying vertex x_j with x_{j'} + n.  The combinatorial
Laplacian convention: loops with n = 0 drop out entirely; a self-orbit
edge (j, j, n), n != 0, contributes 2 to degree(j).

The box |n|_inf <= L is ordered here and nowhere else: `box_cells` lists
its cells lexicographically, `box_index` maps cells to their rows in that
list, and `box_shift` pairs the rows of cells a fixed shift apart.  Site
x_j + n of a truncated Hamiltonian or a sampled potential has index
(cell row) * nu + j - 1; `box_sites` gives the cells and positions of the
sites in that order.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from collections import defaultdict
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import GapcountError

if TYPE_CHECKING:
    import scipy.sparse as sp


class GraphError(GapcountError):
    """Malformed graph document or invalid potential data."""


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

    matrix: sp.csr_matrix  # sites in `box_sites` order

    @property
    def nsites(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# angular profiles


_NEGATIVE_THETA = "theta takes negative values; potential must satisfy V >= 0"


@dataclass(frozen=True)
class ThetaProfile:
    """Angular profile theta >= 0 on S^{d-1}: callable on unit directions.

    A negative or NaN sup, or value returned, raises GraphError.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    sup: float

    def __post_init__(self):
        if not self.sup >= 0.0:
            raise GraphError(_NEGATIVE_THETA)

    def __call__(self, directions: np.ndarray) -> np.ndarray:
        u = np.atleast_2d(np.asarray(directions, dtype=float))
        out = np.asarray(self.fn(u), dtype=float)
        if not np.all(out >= 0.0):
            raise GraphError(_NEGATIVE_THETA)
        return out


def theta_const(c: float) -> ThetaProfile:
    return ThetaProfile(lambda u: np.full(u.shape[0], float(c)), float(c))


def theta_cos2() -> ThetaProfile:
    return ThetaProfile(lambda u: u[:, 0] ** 2, 1.0)


def theta_table(path: str | Path) -> ThetaProfile:
    """Whitespace-separated rows: d direction components then a value.

    Lookup is nearest-direction piecewise constant.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's "no data" warning; rejected below
            rows = np.loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise GraphError(f"malformed theta table {path}: {exc}") from exc
    if rows.shape[0] == 0:
        raise GraphError(f"theta table {path} has no rows")
    dirs = rows[:, :-1]
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0):
        raise GraphError("zero direction in theta table")
    dirs = dirs / norms[:, None]
    vals = rows[:, -1]

    def fn(u: np.ndarray) -> np.ndarray:
        if u.shape[1] != dirs.shape[1]:
            raise GraphError(f"theta table {path}: {dirs.shape[1]}-component directions in dimension {u.shape[1]}")
        idx = np.argmax(u @ dirs.T, axis=1)
        return vals[idx]

    return ThetaProfile(fn, float(vals.max()))


def parse_theta(spec: str) -> ThetaProfile:
    if spec.startswith("const:"):
        try:
            c = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise GraphError(f"bad theta constant in {spec!r}") from exc
        return theta_const(c)
    if spec == "cos2":
        return theta_cos2()
    if spec.startswith("table:"):
        return theta_table(spec.split(":", 1)[1])
    raise GraphError(f"unknown theta preset {spec!r}")


# ---------------------------------------------------------------------------
# operations


def _canonical(j: int, jp: int, n: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    neg = tuple(-c for c in n)
    if jp < j or (jp == j and neg < n):
        return jp, j, neg
    return j, jp, n


def build_graph(doc: dict) -> PeriodicGraph:
    """Build a graph from its document {dim, vertices: [{id, offset, Q}], edges: [{from, to, cell}]}.

    Q defaults to 0.  Coerces and validates the document, canonicalizes
    the edges, computes degrees and checks connectivity.
    """
    try:
        dim = int(doc["dim"])
        vertices = [
            (int(v["id"]), [float(x) for x in v["offset"]], float(v.get("Q", 0.0))) for v in doc["vertices"]
        ]
        edges = [(int(e["from"]), int(e["to"]), tuple(int(c) for c in e["cell"])) for e in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc
    if dim < 1:
        raise GraphError("dimension must be >= 1")
    nu = len(vertices)
    if nu == 0:
        raise GraphError("graph has no vertices")
    if sorted(j for j, _, _ in vertices) != list(range(1, nu + 1)):
        raise GraphError("vertex ids must be exactly 1..nu with no duplicates")
    offsets = np.zeros((nu, dim))
    Q = np.zeros(nu)
    for j, offset, q in vertices:
        if len(offset) != dim:
            raise GraphError(f"vertex {j}: offset has wrong dimension")
        if any(not (0.0 <= x < 1.0) for x in offset):
            raise GraphError(f"vertex {j}: offset outside [0,1)^d")
        if not np.isfinite(q):
            raise GraphError(f"vertex {j}: Q must be finite")
        offsets[j - 1] = offset
        Q[j - 1] = q

    counts: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for j, jp, n in edges:
        if j not in range(1, nu + 1) or jp not in range(1, nu + 1):
            raise GraphError(f"edge ({j},{jp},{n}) references unknown vertex id")
        if len(n) != dim:
            raise GraphError("edge cell vector has wrong dimension")
        if j == jp and all(c == 0 for c in n):
            continue  # n = 0 loop: no Laplacian contribution
        key = _canonical(j, jp, n)
        counts[key] = counts.get(key, 0) + 1

    edges = tuple(Edge(j, jp, cell, m) for (j, jp, cell), m in sorted(counts.items()))
    degrees = np.zeros(nu, dtype=int)
    for e in edges:
        if e.j == e.jp:
            degrees[e.j - 1] += 2 * e.mult  # both periodic copies are neighbors
        else:
            degrees[e.j - 1] += e.mult
            degrees[e.jp - 1] += e.mult
    if degrees.min() < 1:
        raise GraphError("graph has an isolated vertex")

    graph = PeriodicGraph(dim, nu, offsets, edges, degrees, Q)
    _check_connectivity(graph)
    return graph


def load_graph(path: str | Path) -> PeriodicGraph:
    """build_graph() of the JSON graph document in a file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise GraphError(f"graph file is not JSON: {exc}") from exc
    return build_graph(doc)


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


def box_index(cells: np.ndarray, L: int) -> np.ndarray:
    """Row in `box_cells(dim, L)` of each cell, a row of `cells` inside the box."""
    strides = (2 * L + 1) ** np.arange(cells.shape[1] - 1, -1, -1)
    return (cells + L) @ strides


def box_shift(dim: int, L: int, shift) -> tuple[np.ndarray, np.ndarray]:
    """Rows (a, b) of `box_cells(dim, L)` with cell_b = cell_a + shift, both in the box."""
    target = box_cells(dim, L) + np.asarray(shift, dtype=int)
    inside = np.all(np.abs(target) <= L, axis=1)
    return np.flatnonzero(inside), box_index(target[inside], L)


def box_sites(graph: PeriodicGraph, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells n and positions x_j + n of the box sites; site = cell row * nu + j - 1."""
    if L < 0:
        raise GraphError("truncation radius must be >= 0")
    box = box_cells(graph.dim, L)
    cells = np.repeat(box, graph.nu, axis=0)
    return cells, np.tile(graph.offsets, (box.shape[0], 1)) + cells


def assemble_truncated(graph: PeriodicGraph, L: int) -> FiniteHamiltonian:
    """Compression E H E to the box |n|_inf <= L.

    Full-graph degrees stay on the diagonal; couplings leaving the box
    are dropped.
    """
    import scipy.sparse as sp  # here, not at the top: only the counting path builds H_L

    nu, nsites = graph.nu, box_sites(graph, L)[0].shape[0]
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for e in graph.edges:
        src, dst = box_shift(graph.dim, L, e.cell)
        a = src * nu + (e.j - 1)
        b = dst * nu + (e.jp - 1)
        w = np.full(a.shape, -float(e.mult))
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((w, w))
    rows.append(np.arange(nsites))
    cols.append(np.arange(nsites))
    vals.append(np.tile(graph.degrees + graph.Q, nsites // nu))
    mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nsites, nsites),
    )
    mat.sum_duplicates()
    return FiniteHamiltonian(mat)


def sample_potential(graph: PeriodicGraph, theta: ThetaProfile, p: float, L: int) -> np.ndarray:
    """V(x) = |x|^{-d/p} theta(x/|x|) at the box sites for |x| >= 1, capped at sup theta inside."""
    if not 0 < p < np.inf:
        raise GraphError("p must be positive and finite")
    _, pos = box_sites(graph, L)
    r = np.linalg.norm(pos, axis=1)
    values = np.full(pos.shape[0], theta.sup, dtype=float)
    far = r >= 1.0
    if np.any(far):
        values[far] = r[far] ** (-graph.dim / p) * theta(pos[far] / r[far, None])
    return values


def potential_from_function(graph: PeriodicGraph, fn: Callable[[np.ndarray], np.ndarray], L: int) -> np.ndarray:
    """Tabulate an arbitrary nonnegative potential fn(position rows) at the box sites."""
    _, pos = box_sites(graph, L)
    values = np.asarray(fn(pos), dtype=float)
    if values.shape != (pos.shape[0],):
        raise GraphError("potential function must return one value per site")
    if not np.all(np.isfinite(values)):
        raise GraphError("potential must be finite")
    if values.min() < 0.0:
        raise GraphError("potential must be nonnegative")
    return values


# ---------------------------------------------------------------------------
# builtin graphs


def square_lattice(d: int, Q: float = 0.0) -> PeriodicGraph:
    """The Z^d lattice: one vertex per cell, nearest-neighbor edges."""
    edges = [{"from": 1, "to": 1, "cell": [int(b == a) for b in range(d)]} for a in range(d)]
    return build_graph({"dim": d, "vertices": [{"id": 1, "offset": [0.0] * d, "Q": Q}], "edges": edges})


def dimer_chain(Q: tuple[float, float] = (0.0, 2.0)) -> PeriodicGraph:
    """1D two-vertex chain: edges (1,2,[0]) and (2,1,[1])."""
    vertices = [{"id": 1, "offset": [0.0], "Q": Q[0]}, {"id": 2, "offset": [0.5], "Q": Q[1]}]
    edges = [{"from": 1, "to": 2, "cell": [0]}, {"from": 2, "to": 1, "cell": [1]}]
    return build_graph({"dim": 1, "vertices": vertices, "edges": edges})
