"""gapcount loads SciPy only for counting.

The band, Gamma, edge, regularity, PDO and weak-lp paths, through the
library and through the command line, run on NumPy alone; the nine counting
names of the package load `spectral_counts`, and with it scipy.sparse and
scipy.linalg, when first used.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapcount

SRC = Path(__file__).resolve().parent.parent / "src"

COUNTING = (
    "BSMatrix",
    "CountingError",
    "asymptotic_table",
    "bs_matrix",
    "counting_bs",
    "counting_direct",
    "edge_counting",
    "eigencount_below",
    "inertia",
)

# Run in a fresh interpreter, since this test session has loaded SciPy long
# before. The library calls are those of the benchmark's bands-3d and pdo-1d
# parts; stdout carries one JSON line.
GUARD = r"""
import json, sys
from pathlib import Path

import gapcount
from gapcount.cli import main
from gapcount.pdo_lab import torus_one

tmp = Path(sys.argv[1])
graph = gapcount.square_lattice(3)
theta = gapcount.theta_const(1.0)
bands = gapcount.band_structure(graph, 32)
gapcount.gamma_coefficient(bands, -1.0, 1.5, "-", theta)
gap = gapcount.find_gaps(bands)[0]
edge = gapcount.gap_edge(gap, "upper", graph.nu)
gapcount.edge_integral(bands, edge, 1.0, (32, 64, 128))
gapcount.weak_edge_membership(bands, edge, 1.5)
gapcount.check_gap_edge_regularity(graph, gap, "upper")

gapcount.dp_vs_formula(torus_one(), 1.0, torus_one(), p=1.0, L=128, M=1024)
gapcount.cwikel_ratio(torus_one(), gapcount.homogeneous_symbol(1.0, 1.0, 1, 64), 1.0, 2.0, 64, 512)
gapcount.commutator_decay({1: 1.0}, gapcount.homogeneous_symbol(1.0, 1.0, 1, 128), 1.0, 128)

(tmp / "values.txt").write_text(" ".join(str(1.0 / k) for k in range(1, 41)))
codes = [
    main(argv + ["--out", str(tmp / "out")])
    for argv in (
        ["gamma", "--graph", "square:3", "--lambda", "-1", "--p", "1", "--sign", "minus", "--grid", "32"],
        ["gaps", "--graph", "square:2", "--grid", "32"],
        ["regularity", "--graph", "square:2", "--grid", "32"],
        ["pdo", "--mode", "commutator", "--p", "1", "--L", "64"],
        ["weaklp", "--values", str(tmp / "values.txt"), "--p", "1"],
    )
]
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.linalg")))

lazy = gapcount.asymptotic_table is gapcount.spectral_counts.asymptotic_table
H = gapcount.assemble_truncated(graph, 3)
V = gapcount.sample_potential(graph, theta, 1.0, 3)
direct = gapcount.counting_direct(H, V, -1.0, 50.0, "-")
bs = gapcount.counting_bs(gapcount.bs_matrix(H, V, -1.0), 50.0, "-")
print(json.dumps({"file": gapcount.__file__, "codes": codes, "loaded": loaded, "lazy": lazy,
                  "counts": [bs.value, direct.value]}))
"""


def test_band_gamma_pdo_and_weaklp_paths_load_no_scipy_sparse_or_linalg(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert Path(out["file"]).resolve().parent == SRC / "gapcount"
    assert out["codes"] == [0] * 5
    assert out["loaded"] == []
    assert out["lazy"] is True
    bs, direct = out["counts"]
    assert bs == direct > 0


def test_star_import_and_dir_show_the_counting_names():
    namespace = {}
    exec("from gapcount import *", namespace)
    assert set(COUNTING) <= set(namespace)
    assert namespace["asymptotic_table"] is gapcount.spectral_counts.asymptotic_table
    assert set(COUNTING) <= set(dir(gapcount))
    assert set(COUNTING) <= set(gapcount.__all__)
    assert {"band_structure", "commutator_decay", "weak_quasinorm", "GapcountError"} <= set(namespace)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        gapcount.no_such_name
