"""Tests of the benchmark itself: span arithmetic, absent layers, repeatable counts.

asym-1d and count-2d take over ten seconds a pass, so the repeat test runs
the three light parts; all five share the tracer and the check code.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import EXACT_COUNTS, Span, Tracer, metric_units
from workloads import PARTS, WORKLOADS, import_gapcount

HERE = Path(__file__).resolve().parent


def test_self_time_and_unattributed_from_spans():
    tr = Tracer()
    tr.spans = [
        Span("spectral_counts.asymptotic_table", 0.0, 10.0, None, 1),
        Span("spectral_counts.bs_matrix", 1.0, 4.0, 0, 1),
        Span("spectral_counts.bs_spectrum", 4.0, 9.0, 0, 1),
        Span("spectral_counts.bs_matrix", 20.0, 21.0, None, 2),
    ]
    m = tr.layer_metrics(1, wall_s=12.5)
    assert m["spectral_counts.asymptotic_table.s"] == 10.0
    assert m["spectral_counts.asymptotic_table.self_s"] == 2.0
    assert m["spectral_counts.bs_matrix.calls"] == 1
    assert m["spectral_counts.bs_spectrum.self_s"] == 5.0
    assert m["trace.unattributed_s"] == 2.5
    assert set(m) == set(metric_units())


def test_install_wraps_every_binding_and_uninstall_restores():
    import_gapcount()
    import gapcount.floquet as floquet
    import gapcount.gamma as gamma

    original = floquet.band_values
    tr = Tracer()
    tr.install()
    try:
        assert floquet.band_values is not original
        assert gamma.band_values is floquet.band_values
        assert tr.absent == []
    finally:
        tr.uninstall()
    assert floquet.band_values is original and gamma.band_values is original


def test_absent_function_reads_zero(monkeypatch):
    import_gapcount()
    import gapcount.spectral_counts as sc

    monkeypatch.delattr(sc, "edge_counting")
    tr = Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["spectral_counts.edge_counting"]
    assert tr.layer_metrics(1, 0.0)["spectral_counts.edge_counting.calls"] == 0


def _traced_pass(name, gc, inputs, pass_id, tracer):
    tracer.pass_id = pass_id
    tracer.install()
    try:
        out = PARTS[name].run(gc, inputs)
    finally:
        tracer.uninstall()
    return out, tracer.layer_metrics(pass_id, 0.0)


@pytest.mark.parametrize("name", ["edge-1d", "bands-3d", "pdo-1d"])
def test_traced_counts_repeat_and_seed0_outputs_check(name):
    gc = import_gapcount()
    inputs = PARTS[name].inputs(gc, 0)
    tracer = Tracer()
    out1, first = _traced_pass(name, gc, inputs, 1, tracer)
    out2, second = _traced_pass(name, gc, inputs, 2, tracer)
    assert {n: first[n] for n in EXACT_COUNTS} == {n: second[n] for n in EXACT_COUNTS}
    assert any(first[n] > 0 for n in EXACT_COUNTS)
    for out in (out1, out2):
        assert PARTS[name].check(gc, inputs, out, 0) == [None] * len(PARTS[name].ops)


def test_every_part_runs_in_exactly_one_workload():
    ops = [op for w in WORKLOADS.values() for op in w.ops]
    assert sorted(ops) == sorted(f"{name}.{op}" for name, part in PARTS.items() for op in part.ops)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bands-pdo", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    assert not lines or "correct" not in json.loads(lines[-1])
