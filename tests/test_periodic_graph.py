import itertools
import json
import math
import warnings

import numpy as np
import pytest
from test_floquet import diagonal_two_vertex_graph, graph_doc

from gapcount.periodic_graph import (
    GraphError,
    ThetaProfile,
    assemble_truncated,
    box_cells,
    box_sites,
    build_graph,
    dimer_chain,
    load_graph,
    potential_from_function,
    sample_potential,
    square_lattice,
    theta_const,
    theta_cos2,
    theta_table,
)


def chain_doc():
    return graph_doc(1, [(1, (0.0,))], [(1, 1, (1,))])


def test_chain_graph():
    g = build_graph(chain_doc())
    assert g.nu == 1
    assert g.degrees.tolist() == [2]


def test_dimer_degrees():
    g = dimer_chain()
    assert g.degrees.tolist() == [2, 2]
    assert g.Q.tolist() == [0.0, 2.0]


def test_unknown_vertex_id_rejected():
    doc = graph_doc(1, [(1, (0.0,)), (2, (0.5,))], [(1, 3, (0,))])
    with pytest.raises(GraphError):
        build_graph(doc)


def test_offset_out_of_cell_rejected():
    doc = graph_doc(1, [(1, (1.0,))], [(1, 1, (1,))])
    with pytest.raises(GraphError):
        build_graph(doc)


def test_zero_cell_loop_dropped():
    doc = graph_doc(1, [(1, (0.0,))], [(1, 1, (0,)), (1, 1, (1,))])
    g = build_graph(doc)
    assert len(g.edges) == 1
    assert g.degrees.tolist() == [2]


def test_disconnected_patch_rejected():
    doc = graph_doc(1, [(1, (0.0,)), (2, (0.5,))], [(1, 1, (1,)), (2, 2, (1,))])
    with pytest.raises(GraphError, match="disconnected"):
        build_graph(doc)


def test_connectivity_of_the_infinite_graph():
    vertex = [(1, (0.0,))]
    # steps 2 and 3 reach every cell, though no single edge reaches the next one
    g = build_graph(graph_doc(1, vertex, [(1, 1, (2,)), (1, 1, (3,))]))
    assert g.degrees.tolist() == [4]
    with pytest.raises(GraphError, match="disconnected"):
        build_graph(graph_doc(1, vertex, [(1, 1, (2,))]))
    # the cycles of this 2-D graph span only Z x 2Z: vertex 1 sits in the
    # cells of even height, vertex 2 in those of odd height, and vice versa
    two = [(1, (0.0, 0.0)), (2, (0.5, 0.5))]
    edges = [(1, 2, (0, 1)), (2, 1, (0, 1)), (1, 1, (1, 0))]
    with pytest.raises(GraphError, match="disconnected"):
        build_graph(graph_doc(2, two, edges))
    build_graph(graph_doc(2, two, edges + [(2, 2, (0, 1))]))


def test_edge_reversal_canonicalization():
    vertices = [(1, (0.0,)), (2, (0.5,), 2.0)]
    edges = [(1, 2, (0,)), (2, 1, (1,))]
    reversed_edges = [(jp, j, tuple(-c for c in n)) for j, jp, n in edges]
    forward = build_graph(graph_doc(1, vertices, edges))
    assert forward.edges == build_graph(graph_doc(1, vertices, reversed_edges)).edges


def test_load_graph_roundtrip(tmp_path):
    doc = {
        "dim": 1,
        "vertices": [{"id": 1, "offset": [0.0], "Q": 0.5}],
        "edges": [{"from": 1, "to": 1, "cell": [1]}],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    g = load_graph(path)
    assert g.Q.tolist() == [0.5]


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_non_finite_Q_rejected(q):
    doc = graph_doc(1, [(1, (0.0,)), (2, (0.5,), q)], [(1, 2, (0,)), (2, 1, (1,))])
    with pytest.raises(GraphError, match="^vertex 2: Q must be finite$"):
        build_graph(doc)


def test_empty_vertex_list_rejected():
    for edges in ([], [(1, 1, (1,))]):
        with pytest.raises(GraphError, match="^graph has no vertices$"):
            build_graph(graph_doc(1, [], edges))


def test_truncated_chain_matrix():
    g = square_lattice(1)
    H = assemble_truncated(g, 1)
    expect = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    np.testing.assert_array_equal(H.matrix.toarray(), expect)


def test_truncated_single_site_keeps_full_degree():
    H = assemble_truncated(square_lattice(1), 0)
    np.testing.assert_array_equal(H.matrix.toarray(), [[2.0]])


def test_truncated_symmetry_bitwise():
    H = assemble_truncated(dimer_chain(), 2).matrix.toarray()
    assert np.array_equal(H, H.T)


def test_truncated_matrix_matches_loops_over_cells_and_edges():
    graph = diagonal_two_vertex_graph()
    L, nu = 2, graph.nu
    cells = list(itertools.product(range(-L, L + 1), repeat=2))
    row = {c: i for i, c in enumerate(cells)}
    A = np.diag(np.tile(graph.degrees + graph.Q, len(cells)))
    for c in cells:
        for e in graph.edges:
            n = (c[0] + e.cell[0], c[1] + e.cell[1])
            if n in row:
                a, b = row[c] * nu + e.j - 1, row[n] * nu + e.jp - 1
                A[a, b] -= e.mult
                A[b, a] -= e.mult
    np.testing.assert_array_equal(assemble_truncated(graph, L).matrix.toarray(), A)


def test_laplacian_annihilates_constants_in_interior():
    g = square_lattice(2)
    H = assemble_truncated(g, 2)
    u = np.ones(H.nsites)
    r = H.matrix @ u
    interior = np.all(np.abs(box_sites(g, 2)[0]) < 2, axis=1)
    assert np.allclose(r[interior], 0.0)
    assert r.min() >= -1e-12


def test_sample_potential_chain():
    g = square_lattice(1)
    V = sample_potential(g, theta_const(1.0), 1.0, 5)
    r = np.abs(box_sites(g, 5)[1][:, 0])
    far = r >= 1.0
    np.testing.assert_allclose(V[far], 1.0 / r[far])
    assert V[~far] == pytest.approx(1.0)


def test_potential_tail_decays():
    g = square_lattice(1)
    V = sample_potential(g, theta_const(1.0), 0.5, 200)
    r = np.abs(box_sites(g, 200)[1][:, 0])
    order = np.argsort(r)
    assert V[order][-1] < 1e-3


def test_negative_theta_rejected():
    with pytest.raises(GraphError):
        sample_potential(square_lattice(1), theta_const(-1.0), 1.0, 3)


def test_theta_profile_rejects_negative_or_nan_values(tmp_path):
    negative = "^theta takes negative values; potential must satisfy V >= 0$"
    for sup in (-1.0, math.nan):
        with pytest.raises(GraphError, match=negative):
            ThetaProfile(lambda u: np.ones(u.shape[0]), sup)
    u = np.array([[1.0, 0.0], [0.0, 1.0]])
    for value in (-1.0, math.nan):
        with pytest.raises(GraphError, match=negative):
            ThetaProfile(lambda u, value=value: np.array([1.0, value]), 1.0)(u)
    path = tmp_path / "theta.txt"
    path.write_text("1 0 1\n0 1 2\n")
    np.testing.assert_array_equal(theta_table(path)(u), [1.0, 2.0])
    with pytest.raises(GraphError, match="2-component directions in dimension 3"):
        theta_table(path)(np.eye(3))


@pytest.mark.parametrize("text", ["", "# directions, then a value\n\n"], ids=["empty", "comment-only"])
def test_theta_table_needs_a_row(text, tmp_path):
    path = tmp_path / "theta.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's own "no data" warning must not reach the caller
        with pytest.raises(GraphError, match="has no rows"):
            theta_table(path)


def test_potential_homogeneity_in_theta():
    g = square_lattice(2)
    v1 = sample_potential(g, theta_cos2(), 1.0, 3)
    two = theta_cos2()
    doubled = type(two)(lambda u: 2.0 * u[:, 0] ** 2, 2.0)
    v2 = sample_potential(g, doubled, 1.0, 3)
    np.testing.assert_allclose(v2, 2.0 * v1)


@pytest.mark.parametrize("graph", [dimer_chain(), diagonal_two_vertex_graph()], ids=["dimer", "2d-two-vertex"])
def test_potentials_line_up_with_the_hamiltonian_sites(graph):
    L = 3
    H = assemble_truncated(graph, L)
    cells, positions = box_sites(graph, L)
    # site = cell row * nu + j - 1, cells in box_cells order
    j = np.arange(H.nsites) % graph.nu
    np.testing.assert_array_equal(positions, graph.offsets[j] + cells)
    np.testing.assert_array_equal(cells[:: graph.nu], box_cells(graph.dim, L))
    r = np.linalg.norm(positions, axis=1)
    far = r >= 1.0
    expect = np.ones(H.nsites)
    expect[far] = r[far] ** (-graph.dim / 0.5) * (positions[far, 0] / r[far]) ** 2
    np.testing.assert_allclose(sample_potential(graph, theta_cos2(), 0.5, L), expect, rtol=1e-14)

    def fn(pos):
        return 1.0 + pos[:, 0] ** 2 + 2.0 * pos[:, -1] ** 2

    np.testing.assert_array_equal(potential_from_function(graph, fn, L), fn(positions))
    with pytest.raises(GraphError, match="radius"):
        assemble_truncated(graph, -1)
    with pytest.raises(GraphError, match="radius"):
        sample_potential(graph, theta_const(1.0), 1.0, -1)
    with pytest.raises(GraphError, match="radius"):
        potential_from_function(graph, fn, -1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_potential_from_function_rejects_non_finite_values(bad):
    graph = square_lattice(1)

    def fn(pos):
        values = np.ones(pos.shape[0])
        values[3] = bad
        return values

    with pytest.raises(GraphError, match="finite"):
        potential_from_function(graph, fn, 30)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_potential_rejects_a_non_finite_p(bad):
    with pytest.raises(GraphError, match="p must be positive and finite"):
        sample_potential(square_lattice(1), theta_const(1.0), bad, 10)
