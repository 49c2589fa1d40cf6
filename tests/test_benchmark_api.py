"""The benchmark in perfbench/ drives gapcount through its package namespace.

Only some of its parts run in the test suite, so this reads the workload
source and checks that every `gc.<name>` it uses, and every name it imports
from a gapcount module, still exists.
"""

import importlib
import re
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
