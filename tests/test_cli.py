import json
import math

import numpy as np
import pytest

import gapcount.cli
from gapcount.cli import main
from gapcount.floquet import format_real
from gapcount.pdo_lab import commutator_decay, dp_vs_formula, homogeneous_symbol, torus_one

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


def test_gamma_prints_its_error_estimate(chain_json, capsys):
    code = main(
        ["gamma", "--graph", chain_json, "--lambda", "-1", "--p", "1", "--sign", "minus", "--theta", "const:1"]
    )
    assert code == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header.split(",") == ["lambda", "p", "sign", "gamma", "torus_sum", "sphere", "grid", "error"]
    error = float(row.split(",")[-1])
    assert 0.0 <= error < 1e-9


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


def test_pdo_commutator_vector_lag(capsys):
    code = main(["pdo", "--mode", "commutator", "--p", "1", "--dim", "2", "--L", "3", "--coeffs", '{"1,0": 1.0}'])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "m,s_m,m^{1/p}s_m"
    rep = commutator_decay({(1, 0): 1.0}, homogeneous_symbol(1.0, 1.0, 2, 3), 1.0, 3)
    printed = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(printed) == len(rep.svalues) > 0
    assert printed == rep.svalues.values.tolist()


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


def test_pdo_dp_mode_honours_dim(capsys):
    assert main(["pdo", "--mode", "dp", "--p", "1", "--L", "4", "--M", "32", "--dim", "2"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header == "L,M,dp_sup,dp_inf,formula"
    est, formula = dp_vs_formula(torus_one(), 1.0, torus_one(), 1.0, 4, 32, d=2)
    assert formula == pytest.approx(math.pi, rel=1e-12)
    assert row == ",".join(["4", "32", format_real(est.sup_est), format_real(est.inf_est), format_real(formula)])


def test_edge_conditions_weak_json(capsys):
    assert main(["edge-conditions", "--graph", "square:1", "--kappa", "1", "--p", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["edge", "kappa", "grids", "estimates", "verdict", "weak"]
    assert doc["weak"] == {"p": 0.5, "sup": 4.37792766328076, "member": True}


_GAMMA = ["gamma", "--lambda", "-1", "--sign", "minus"]
# Files named here are written to the working directory by the test.
PRECONDITION_CASES = {
    "gamma-negative-p": _GAMMA + ["--graph", "square:1", "--p", "-1"],
    "gamma-grid-1": _GAMMA + ["--graph", "square:1", "--p", "1", "--grid", "1"],
    "gamma-dimension-4": _GAMMA + ["--graph", "square:4", "--p", "1", "--grid", "4"],
    "gamma-theta-not-a-number": _GAMMA + ["--graph", "square:1", "--p", "1", "--theta", "const:abc"],
    "edge-negative-kappa": ["edge-conditions", "--graph", "square:1", "--kappa", "-1"],
    "edge-no-lower-edge": ["edge-conditions", "--graph", "square:1", "--kappa", "1", "--which", "lower"],
    "weaklp-negative-value": ["weaklp", "--values", "neg.txt", "--p", "1"],
    "weaklp-non-numeric-value": ["weaklp", "--values", "abc.txt", "--p", "1"],
    "weaklp-p-zero": ["weaklp", "--values", "good.txt", "--p", "0"],
    "pdo-coeffs-not-json": ["pdo", "--mode", "commutator", "--p", "1", "--L", "4", "--coeffs", "notjson"],
    "pdo-coeffs-bad-lag": ["pdo", "--mode", "commutator", "--p", "1", "--L", "4", "--coeffs", '{"x": 1}'],
    "graph-file-not-json": ["bands", "--graph", "notjson.json"],
}


@pytest.mark.parametrize("case", list(PRECONDITION_CASES))
def test_precondition_errors_exit_2(case, tmp_path, monkeypatch, capsys):
    (tmp_path / "notjson.json").write_text("not json {")
    (tmp_path / "neg.txt").write_text("1.0\n-2.0\n")
    (tmp_path / "abc.txt").write_text("1.0\nabc\n")
    (tmp_path / "good.txt").write_text("\n".join(str(1.0 / m) for m in range(1, 101)))
    monkeypatch.chdir(tmp_path)
    assert main(PRECONDITION_CASES[case]) == 2
    assert capsys.readouterr().err.startswith("gapcount: error: ")


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(bands):
        raise ValueError("shapes (3,) and (4,) not aligned")

    monkeypatch.setattr(gapcount.cli, "find_gaps", broken)
    with pytest.raises(ValueError, match="not aligned"):
        main(["gaps", "--graph", "square:1", "--grid", "8"])
