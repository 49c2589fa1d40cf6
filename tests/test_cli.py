import json
import math

import numpy as np
import pytest

from gapcount.cli import main

CHAIN = {
    "dim": 1,
    "vertices": [{"id": 1, "offset": [0.0], "Q": 0.0}],
    "edges": [{"from": 1, "to": 1, "cell": [1]}],
}


@pytest.fixture
def chain_json(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN))
    return str(path)


def test_bands_csv_schema(chain_json, tmp_path):
    out = tmp_path / "bands.csv"
    assert main(["bands", "--graph", chain_json, "--grid", "64", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k_1,E_1"
    assert len(lines) == 65


def test_gamma_closed_form(chain_json, capsys):
    code = main(
        ["gamma", "--graph", chain_json, "--lambda", "-1", "--p", "1", "--sign", "minus", "--theta", "const:1"]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    gamma = float(out[1].split(",")[3])
    assert gamma == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-9)


def test_missing_graph_is_usage_error():
    assert main(["bands", "--grid", "8"]) == 2


def test_nonexistent_graph_file(tmp_path):
    assert main(["bands", "--graph", str(tmp_path / "nope.json"), "--grid", "8"]) == 2


def test_malformed_graph_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "vertices": [], "edges": [{"from": 1}]}))
    assert main(["bands", "--graph", str(path), "--grid", "8"]) == 2


def test_gaps_json(chain_json, capsys):
    assert main(["gaps", "--graph", chain_json, "--grid", "32"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 2
    assert doc[0]["lower"] is None and doc[0]["upper"] == pytest.approx(0.0, abs=1e-12)


def test_regularity_builtin_graph(capsys):
    assert main(["regularity", "--graph", "square:2", "--grid", "24", "--which", "upper"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "regular"


def test_count_routes_agree(chain_json, capsys):
    code = main(
        [
            "count",
            "--graph",
            chain_json,
            "--lambda",
            "-1",
            "--tau",
            "10",
            "--L",
            "150",
            "--p",
            "1",
            "--sign",
            "minus",
        ]
    )
    assert code == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert row[3] == row[4]  # N_bs == N_direct
    assert int(row[3]) > 0


def test_edge_conditions_divergent(chain_json, capsys):
    code = main(["edge-conditions", "--graph", chain_json, "--grid", "32", "--kappa", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "divergent"


def test_weaklp_report(tmp_path, capsys):
    vals = tmp_path / "vals.txt"
    m = np.arange(1, 101)
    vals.write_text("\n".join(str(1.0 / x) for x in m))
    assert main(["weaklp", "--values", str(vals), "--p", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weak_quasinorm"] == pytest.approx(1.0)
    assert doc["weak_member"] is True


def test_asymptotics_table(chain_json, tmp_path):
    out = tmp_path / "table.csv"
    code = main(
        [
            "asymptotics",
            "--graph",
            chain_json,
            "--lambda",
            "-1",
            "--p",
            "1",
            "--sign",
            "minus",
            "--tau",
            "5",
            "10",
            "--L",
            "50",
            "100",
            "--grid",
            "32",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("lambda,tau,L,")
    assert len(lines) == 3


def test_pdo_dp_mode(tmp_path):
    out = tmp_path / "dp.csv"
    code = main(["pdo", "--mode", "dp", "--p", "1", "--L", "32", "--out", str(out)])
    assert code == 0
    header, row = out.read_text().strip().split("\n")
    assert header == "L,M,dp_sup,dp_inf,formula"
    assert float(row.split(",")[-1]) == pytest.approx(2.0, abs=1e-9)


def test_determinism_across_runs(chain_json, tmp_path):
    outs = []
    for run in ("1", "2"):
        out = tmp_path / f"bands_{run}.csv"
        assert main(["bands", "--graph", chain_json, "--grid", "32", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_subset(capsys):
    assert main(["verify", "--only", "1", "3"]) == 0
    out = capsys.readouterr().out
    assert "2/2 criteria passed" in out
