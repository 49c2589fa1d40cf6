import json
import math

import numpy as np
import pytest

import gapcount.cli
import gapcount.floquet
import gapcount.spectral_counts
from gapcount import acceptance
from gapcount.cli import main
from gapcount.floquet import band_values, torus_grid
from gapcount.pdo_lab import commutator_decay, dp_vs_formula, homogeneous_symbol, torus_exp, torus_one
from gapcount.periodic_graph import dimer_chain, square_lattice

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
    assert all(len(line.split(",")) == 2 for line in lines)


@pytest.mark.parametrize("graph, M", [("square:2", 12), ("dimer", 250)], ids=["square2", "dimer"])
def test_bands_rows_pair_k_with_its_energies_across_blocks(graph, M, monkeypatch, capsys):
    monkeypatch.setattr(gapcount.floquet, "_CHUNK", 100)
    assert main(["bands", "--graph", graph, "--grid", str(M)]) == 0
    rows = np.array([[float(x) for x in line.split(",")] for line in capsys.readouterr().out.strip().split("\n")[1:]])
    g = square_lattice(2) if graph == "square:2" else dimer_chain()
    K = torus_grid(g.dim, M)
    assert rows.shape == (M**g.dim, g.dim + g.nu)
    np.testing.assert_array_equal(rows[:, : g.dim], K)
    np.testing.assert_allclose(rows[:, g.dim :], band_values(g, K), rtol=0.0, atol=1e-12)


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


def test_count_flags_a_mismatch_between_the_routes(monkeypatch, capsys):
    direct = gapcount.spectral_counts._direct_count
    monkeypatch.setattr(gapcount.spectral_counts, "_direct_count", lambda *args: direct(*args) + 1)
    args = ["count", "--graph", "square:1", "--lambda", "-1", "--tau", "10", "--L", "150", "--p", "1", "--sign", "minus"]
    assert main(args) == 0
    assert capsys.readouterr().out.split("\n")[1] == "-1,10,150,9,10,mismatch"


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
    assert lines[0] == "lambda,tau,L,N_bs,N_direct,gamma,ratio,flags"
    assert len(lines) == 3


def test_pdo_dp_mode(tmp_path):
    out = tmp_path / "dp.csv"
    code = main(["pdo", "--mode", "dp", "--p", "1", "--L", "32", "--out", str(out)])
    assert code == 0
    header, row = out.read_text().strip().split("\n")
    assert header == "L,M,dp_sup,dp_inf,formula"
    assert float(row.split(",")[-1]) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize(
    "args",
    [
        ["--mode", "dp", "--L", "0"],
        ["--mode", "dp", "--L", "-2"],
        ["--mode", "cwikel", "--L", "0"],
        ["--mode", "dp", "--L", "8", "--dim", "0"],
        ["--mode", "commutator", "--L", "0"],
        ["--mode", "dp", "--L", "8", "--M", "0"],
        ["--mode", "cwikel", "--L", "8", "--M", "0"],
    ],
    ids=["dp-L0", "dp-L-2", "cwikel-L0", "dp-dim0", "commutator-L0", "dp-M0", "cwikel-M0"],
)
def test_pdo_rejects_an_empty_box_or_grid(args, capsys):
    assert main(["pdo", "--p", "1", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gapcount: error:")


@pytest.mark.parametrize(
    "flag", [["--M", "0"], ["--M", "64"], ["--f", "one"], ["--f", "nonsense"]], ids=["M0", "M64", "f-one", "f-nonsense"]
)
def test_pdo_commutator_rejects_the_flags_it_does_not_read(flag, capsys):
    assert main(["pdo", "--mode", "commutator", "--p", "1", "--L", "4", *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gapcount: error:") and f"{flag[0]} does not apply" in captured.err


@pytest.mark.parametrize(
    "mode, flag",
    [
        ("dp", ["--q", "5"]),
        ("dp", ["--coeffs", '{"2": 3}']),
        ("cwikel", ["--g", "nonsense"]),
        ("cwikel", ["--coeffs", '{"2": 3}']),
        ("commutator", ["--f", "one"]),
        ("commutator", ["--g", "one"]),
        ("commutator", ["--q", "3"]),
        ("commutator", ["--M", "8"]),
    ],
    ids=["dp-q", "dp-coeffs", "cwikel-g", "cwikel-coeffs", "commutator-f", "commutator-g", "commutator-q", "commutator-M"],
)
def test_pdo_rejects_every_flag_its_mode_does_not_read(mode, flag, capsys):
    assert main(["pdo", "--mode", mode, "--p", "1", "--L", "8", *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gapcount: error: {flag[0]} does not apply to --mode {mode}\n"


def test_pdo_exp_preset_matches_the_library(capsys):
    assert main(["pdo", "--mode", "dp", "--p", "1", "--L", "16", "--f", "exp:1"]) == 0
    est, formula = dp_vs_formula(torus_exp(1), 1.0, torus_one(), 1.0, 16, 128)
    assert capsys.readouterr().out == (
        f"L,M,dp_sup,dp_inf,formula\n16,128,{est.sup_est:.17g},{est.inf_est:.17g},{formula:.17g}\n"
    )
    assert main(["pdo", "--mode", "dp", "--p", "1", "--L", "16", "--f", "exp:x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gapcount: error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("mode", ["dp", "cwikel"])
def test_pdo_parses_f_in_the_modes_that_read_it(mode, capsys):
    assert main(["pdo", "--mode", mode, "--p", "1", "--L", "8", "--f", "nonsense"]) == 2
    assert capsys.readouterr().err.startswith("gapcount: error:")
    assert main(["pdo", "--mode", mode, "--p", "1", "--L", "8", "--f", "halftorus"]) == 0


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


@pytest.mark.parametrize("only", [["13"], ["0", "-5"], ["1", "13"]], ids=["13", "0-minus5", "1-13"])
def test_verify_rejects_unknown_criterion_numbers(only, monkeypatch, capsys):
    ran = []
    criteria = tuple((n, name, lambda n=n: ran.append(n) or (True, "")) for n, name, _ in acceptance._CRITERIA)
    monkeypatch.setattr(acceptance, "_CRITERIA", criteria)
    assert main(["verify", "--only", *only]) == 2
    captured = capsys.readouterr()
    assert ran == [] and captured.out == ""
    unknown = ", ".join(sorted((n for n in only if int(n) not in range(1, 13)), key=int))
    assert captured.err == f"gapcount: error: unknown criterion number(s) {unknown}; criteria are 1-12\n"


def test_pdo_dp_mode_honours_dim(capsys):
    assert main(["pdo", "--mode", "dp", "--p", "1", "--L", "4", "--M", "32", "--dim", "2"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header == "L,M,dp_sup,dp_inf,formula"
    est, formula = dp_vs_formula(torus_one(), 1.0, torus_one(), 1.0, 4, 32, d=2)
    assert formula == pytest.approx(math.pi, rel=1e-12)
    assert row == f"4,32,{est.sup_est:.17g},{est.inf_est:.17g},{formula:.17g}"


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
    "pdo-exp-lag-wrong-dimension": ["pdo", "--mode", "dp", "--p", "1", "--dim", "3", "--L", "5", "--g", "exp:1"],
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


NON_FINITE_CASES = {
    "gamma-lambda-nan": ["gamma", "--graph", "square:1", "--lambda", "nan", "--p", "1", "--sign", "minus"],
    "gamma-lambda-inf": ["gamma", "--graph", "square:1", "--lambda", "inf", "--p", "1", "--sign", "minus"],
    "gamma-lambda-minus-inf": ["gamma", "--graph", "square:1", "--lambda=-inf", "--p", "1", "--sign", "minus"],
    "gamma-p-nan": _GAMMA + ["--graph", "square:1", "--p", "nan"],
    "edge-kappa-nan": ["edge-conditions", "--graph", "square:1", "--kappa", "nan"],
    "pdo-cwikel-p-nan": ["pdo", "--mode", "cwikel", "--p", "nan", "--q", "3", "--L", "16"],
    "pdo-cwikel-v-inf": ["pdo", "--mode", "cwikel", "--p", "1", "--L", "16", "--v", "inf"],
    "pdo-dp-v-nan": ["pdo", "--mode", "dp", "--p", "1", "--L", "16", "--v", "nan"],
    "pdo-coeffs-inf": ["pdo", "--mode", "commutator", "--p", "1", "--L", "4", "--coeffs", '{"1": Infinity}'],
    "pdo-coeffs-nan": ["pdo", "--mode", "commutator", "--p", "1", "--L", "4", "--coeffs", '{"1": NaN}'],
    "weaklp-p-nan": ["weaklp", "--values", "good.txt", "--p", "nan"],
    "weaklp-nan-value": ["weaklp", "--values", "nan.txt", "--p", "1"],
}


@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_non_finite_inputs_exit_2(case, tmp_path, monkeypatch, capsys):
    (tmp_path / "good.txt").write_text("\n".join(str(1.0 / m) for m in range(1, 101)))
    (tmp_path / "nan.txt").write_text("1.0\nnan\n0.5\n")
    monkeypatch.chdir(tmp_path)
    assert main(NON_FINITE_CASES[case]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gapcount: error: ") and "finite" in captured.err


def test_pdo_cwikel_at_p_2_needs_q(capsys):
    assert main(["pdo", "--mode", "cwikel", "--p", "2", "--L", "16"]) == 2
    assert "--q" in capsys.readouterr().err
    assert main(["pdo", "--mode", "cwikel", "--p", "2", "--q", "3", "--L", "16"]) == 0
    header, row = capsys.readouterr().out.split()
    assert header == "p,q,L,ratio" and np.isfinite(float(row.split(",")[-1]))


_COUNT = ["count", "--lambda", "-1", "--tau", "10", "--L", "20", "--p", "1", "--sign", "minus"]
_NEGATIVE_THETA = "theta takes negative values; potential must satisfy V >= 0"
# Bad theta and graph inputs, each with the one error line it must print.
REJECTED_INPUTS = {
    "gamma-negative-theta": (
        _GAMMA + ["--graph", "square:2", "--p", "0.5", "--theta", "const:-1"],
        _NEGATIVE_THETA,
    ),
    "gamma-negative-theta-p1": (
        _GAMMA + ["--graph", "square:2", "--p", "1", "--theta", "const:-1"],
        _NEGATIVE_THETA,
    ),
    "count-theta-table-of-wrong-dimension": (
        _COUNT + ["--graph", "square:1", "--theta", "table:theta2.txt"],
        "theta table theta2.txt: 2-component directions in dimension 1",
    ),
    "gamma-theta-table-of-wrong-dimension": (
        _GAMMA + ["--graph", "square:3", "--grid", "8", "--p", "1", "--theta", "table:theta2.txt"],
        "theta table theta2.txt: 2-component directions in dimension 3",
    ),
    "count-graph-with-nan-Q": (_COUNT + ["--graph", "nanq.json"], "vertex 1: Q must be finite"),
    "gamma-empty-theta-table": (
        _GAMMA + ["--graph", "square:2", "--p", "1", "--theta", "table:empty.txt"],
        "theta table empty.txt has no rows",
    ),
}


@pytest.mark.parametrize("case", list(REJECTED_INPUTS))
def test_rejected_inputs_print_one_error_line(case, tmp_path, monkeypatch, capsys):
    (tmp_path / "theta2.txt").write_text("1 0 1\n0 1 2\n")
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "nanq.json").write_text(json.dumps({**CHAIN, "vertices": [{"id": 1, "offset": [0.0], "Q": math.nan}]}))
    monkeypatch.chdir(tmp_path)
    argv, message = REJECTED_INPUTS[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gapcount: error: {message}\n"


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(bands):
        raise ValueError("shapes (3,) and (4,) not aligned")

    monkeypatch.setattr(gapcount.cli, "find_gaps", broken)
    with pytest.raises(ValueError, match="not aligned"):
        main(["gaps", "--graph", "square:1", "--grid", "8"])


# Full stdout of one command per CSV writer path; "CHAIN" stands for the chain document.
GOLDEN = {
    "bands": (
        ["bands", "--graph", "square:1", "--grid", "4"],
        "k_1,E_1\n"
        "-3.1415926535897931,4\n"
        "-1.5707963267948966,1.9999999999999998\n"
        "0,0\n"
        "1.5707963267948966,1.9999999999999998\n",
    ),
    "gamma": (
        ["gamma", "--graph", "CHAIN", "--lambda", "-1", "--p", "1", "--sign", "minus", "--theta", "const:1"],
        "lambda,p,sign,gamma,torus_sum,sphere,grid,error\n"
        "-1,1,-,0.89442719099991586,2.8099258924162904,2,128,1.4135798584282297e-16\n",
    ),
    "count": (
        ["count", "--graph", "square:1", "--lambda", "-1", "--tau", "10", "--L", "150", "--p", "1", "--sign", "minus"],
        "lambda,tau,L,N_bs,N_direct,flags\n-1,10,150,9,9,\n",
    ),
    "asymptotics": (
        ["asymptotics", "--graph", "CHAIN", "--lambda", "-1", "--p", "1", "--sign", "minus"]
        + ["--tau", "5", "10", "--L", "50", "100", "--grid", "32"],
        "lambda,tau,L,N_bs,N_direct,gamma,ratio,flags\n"
        "-1,5,100,5,5,0.89442719099991597,1.1180339887498949,\n"
        "-1,10,100,9,9,0.89442719099991597,1.0062305898749053,\n",
    ),
    "pdo-cwikel": (
        ["pdo", "--mode", "cwikel", "--p", "1", "--L", "64"],
        "p,q,L,ratio\n1,2,64,0.3989422804014327\n",
    ),
    "pdo-commutator": (
        ["pdo", "--mode", "commutator", "--p", "1", "--L", "4"],
        "m,s_m,m^{1/p}s_m\n"
        "1,1,1\n"
        "2,1,2\n"
        "3,0.5,1.5\n"
        "4,0.5,2\n"
        "5,0.16666666666666669,0.83333333333333348\n"
        "6,0.16666666666666669,1\n"
        "7,0.083333333333333315,0.58333333333333326\n"
        "8,0.083333333333333315,0.66666666666666652\n",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_csv_output_is_unchanged(case, chain_json, capsys):
    argv, expected = GOLDEN[case]
    assert main([chain_json if a == "CHAIN" else a for a in argv]) == 0
    assert capsys.readouterr().out == expected
