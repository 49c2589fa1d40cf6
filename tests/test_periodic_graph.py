import json

import numpy as np
import pytest

from gapcount.periodic_graph import (
    EdgeSpec,
    GraphError,
    GraphSpec,
    VertexSpec,
    assemble_truncated,
    build_graph,
    dimer_chain,
    sample_potential,
    square_lattice,
    theta_const,
    theta_cos2,
)


def chain_spec():
    return GraphSpec(1, (VertexSpec(1, (0.0,)),), (EdgeSpec(1, 1, (1,)),))


def test_chain_graph():
    g = build_graph(chain_spec())
    assert g.nu == 1
    assert g.degrees.tolist() == [2]


def test_dimer_degrees():
    g = dimer_chain()
    assert g.degrees.tolist() == [2, 2]
    assert g.Q.tolist() == [0.0, 2.0]


def test_unknown_vertex_id_rejected():
    spec = GraphSpec(1, (VertexSpec(1, (0.0,)), VertexSpec(2, (0.5,))), (EdgeSpec(1, 3, (0,)),))
    with pytest.raises(GraphError):
        build_graph(spec)


def test_offset_out_of_cell_rejected():
    spec = GraphSpec(1, (VertexSpec(1, (1.0,)),), (EdgeSpec(1, 1, (1,)),))
    with pytest.raises(GraphError):
        build_graph(spec)


def test_zero_cell_loop_dropped():
    spec = GraphSpec(1, (VertexSpec(1, (0.0,)),), (EdgeSpec(1, 1, (0,)), EdgeSpec(1, 1, (1,))))
    g = build_graph(spec)
    assert len(g.edges) == 1
    assert g.degrees.tolist() == [2]


def test_disconnected_patch_rejected():
    spec = GraphSpec(
        1,
        (VertexSpec(1, (0.0,)), VertexSpec(2, (0.5,))),
        (EdgeSpec(1, 1, (1,)), EdgeSpec(2, 2, (1,))),
    )
    with pytest.raises(GraphError, match="disconnected"):
        build_graph(spec)


def test_connectivity_of_the_infinite_graph():
    vertex = (VertexSpec(1, (0.0,)),)
    # steps 2 and 3 reach every cell, though no single edge reaches the next one
    g = build_graph(GraphSpec(1, vertex, (EdgeSpec(1, 1, (2,)), EdgeSpec(1, 1, (3,)))))
    assert g.degrees.tolist() == [4]
    with pytest.raises(GraphError, match="disconnected"):
        build_graph(GraphSpec(1, vertex, (EdgeSpec(1, 1, (2,)),)))
    # the cycles of this 2-D graph span only Z x 2Z: vertex 1 sits in the
    # cells of even height, vertex 2 in those of odd height, and vice versa
    two = (VertexSpec(1, (0.0, 0.0)), VertexSpec(2, (0.5, 0.5)))
    edges = (EdgeSpec(1, 2, (0, 1)), EdgeSpec(2, 1, (0, 1)), EdgeSpec(1, 1, (1, 0)))
    with pytest.raises(GraphError, match="disconnected"):
        build_graph(GraphSpec(2, two, edges))
    build_graph(GraphSpec(2, two, edges + (EdgeSpec(2, 2, (0, 1)),)))


def test_edge_reversal_canonicalization():
    spec = GraphSpec(
        1,
        (VertexSpec(1, (0.0,)), VertexSpec(2, (0.5,), 2.0)),
        (EdgeSpec(1, 2, (0,)), EdgeSpec(2, 1, (1,))),
    )
    reversed_spec = GraphSpec(
        spec.dim,
        spec.vertices,
        tuple(EdgeSpec(e.to_id, e.from_id, tuple(-c for c in e.cell)) for e in spec.edges),
    )
    assert build_graph(spec).edges == build_graph(reversed_spec).edges


def test_from_json_roundtrip(tmp_path):
    doc = {
        "dim": 1,
        "vertices": [{"id": 1, "offset": [0.0], "Q": 0.5}],
        "edges": [{"from": 1, "to": 1, "cell": [1]}],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    g = build_graph(GraphSpec.from_json(path))
    assert g.Q.tolist() == [0.5]


def test_truncated_chain_matrix():
    g = square_lattice(1)
    H = assemble_truncated(g, 1)
    expect = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    np.testing.assert_array_equal(H.dense(), expect)


def test_truncated_single_site_keeps_full_degree():
    H = assemble_truncated(square_lattice(1), 0)
    np.testing.assert_array_equal(H.dense(), [[2.0]])


def test_truncated_symmetry_bitwise():
    H = assemble_truncated(dimer_chain(), 2).dense()
    assert np.array_equal(H, H.T)


def test_laplacian_annihilates_constants_in_interior():
    g = square_lattice(2)
    H = assemble_truncated(g, 2)
    u = np.ones(H.nsites)
    r = H.matrix @ u
    interior = np.all(np.abs(H.cells) < 2, axis=1)
    assert np.allclose(r[interior], 0.0)
    assert r.min() >= -1e-12


def test_sample_potential_chain():
    g = square_lattice(1)
    V = sample_potential(g, theta_const(1.0), 1.0, 5)
    r = np.abs(assemble_truncated(g, 5).positions[:, 0])
    far = r >= 1.0
    np.testing.assert_allclose(V.values[far], 1.0 / r[far])
    assert V.values[~far] == pytest.approx(1.0)


def test_potential_tail_decays():
    g = square_lattice(1)
    V = sample_potential(g, theta_const(1.0), 0.5, 200)
    r = np.abs(assemble_truncated(g, 200).positions[:, 0])
    order = np.argsort(r)
    assert V.values[order][-1] < 1e-3


def test_negative_theta_rejected():
    with pytest.raises(GraphError):
        sample_potential(square_lattice(1), theta_const(-1.0), 1.0, 3)


def test_potential_homogeneity_in_theta():
    g = square_lattice(2)
    v1 = sample_potential(g, theta_cos2(), 1.0, 3).values
    two = theta_cos2()
    doubled = type(two)(lambda u: 2.0 * u[:, 0] ** 2, 2.0, "2cos2")
    v2 = sample_potential(g, doubled, 1.0, 3).values
    np.testing.assert_allclose(v2, 2.0 * v1)
