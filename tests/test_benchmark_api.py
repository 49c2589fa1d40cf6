"""The benchmark in perfbench/ drives gapcount through its package namespace.

Only some of its parts run in the test suite, so this reads the workload
source and checks that every `gc.<name>` it uses, and every name it imports
from a gapcount module, still exists; and it runs the count-2d part, the
one that reads the asymptotic table's rows, against its own check.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import gapcount

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_workloads_use_only_existing_gapcount_names():
    source = WORKLOADS.read_text()
    used = set(re.findall(r"\bgc\.([A-Za-z_]\w*)", source))
    assert used, "no gc.<name> uses found"
    assert sorted(n for n in used if not hasattr(gapcount, n)) == []
    for module, names in re.findall(r"from gapcount\.(\w+) import ([\w, ]+)", source):
        mod = importlib.import_module(f"gapcount.{module}")
        for name in (n.strip() for n in names.split(",")):
            assert hasattr(mod, name), f"gapcount.{module}.{name}"


def test_count_2d_part_passes_its_check_at_seed_0(monkeypatch):
    # The one benchmark part that reads asymptotic_table rows in tier-1 time;
    # asym-1d runs the same code and check but takes seconds.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    gc = workloads.import_gapcount()
    part = workloads.PARTS["count-2d"]
    inputs = part.inputs(gc, 0)
    assert part.check(gc, inputs, part.run(gc, inputs), 0) == [None] * len(part.ops)
