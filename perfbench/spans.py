"""Span recording around gapcount's public functions, from outside the package.

`Tracer.install` replaces each listed function at every gapcount module
binding that refers to it (so `gamma.band_values` and `floquet.band_values`
are both timed), plus the first `BSMatrix.eigenvalues` access of each BS
matrix. Spans are kept in memory; `layer_metrics` turns one pass's spans
into `<module>.<function>.<stat>` figures. A function missing from the
package is reported as absent rather than raising.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    pass_id: int
    error: bool = False


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Counts recorded at a boundary: (args, kwargs, result) -> {counter: amount}.
def _sites(args, kwargs, H):
    return {"periodic_graph.sites": H.nsites}


def _points(args, kwargs, _):
    return {"floquet.band_values.points": np.atleast_2d(_arg(args, kwargs, 1, "K")).shape[0]}


def _bs_dim(args, kwargs, X):
    return {"spectral_counts.bs_dim": X.support.size}


def _rows(args, kwargs, _):
    return {"spectral_counts.eigencount_below.rows": _arg(args, kwargs, 0, "A").shape[0]}


def _gram_triple(args, kwargs, _):
    return {"pdo_lab.gram_dim": _arg(args, kwargs, 0, "triple").W.values.size}


def _gram_symbol(args, kwargs, _):
    return {"pdo_lab.gram_dim": _arg(args, kwargs, 1, "W").values.size}


# (module, function, count hook or None), in report order.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("periodic_graph", "assemble_truncated", _sites),
    ("periodic_graph", "sample_potential", None),
    ("periodic_graph", "potential_from_function", None),
    ("floquet", "band_values", _points),
    ("floquet", "band_structure", None),
    ("floquet", "check_gap_edge_regularity", None),
    ("parallel", "map_ordered", None),
    ("gamma", "gamma_coefficient", None),
    ("gamma", "edge_integral", None),
    ("gamma", "weak_edge_membership", None),
    ("spectral_counts", "asymptotic_table", None),
    ("spectral_counts", "edge_counting", None),
    ("spectral_counts", "bs_matrix", _bs_dim),
    ("spectral_counts", "counting_bs", None),
    ("spectral_counts", "counting_direct", None),
    ("spectral_counts", "eigencount_below", _rows),
    ("pdo_lab", "fourier_modsq_coeffs", None),
    ("pdo_lab", "pdo_singular_values", _gram_triple),
    ("pdo_lab", "fphiw_singular_values", _gram_symbol),
    ("pdo_lab", "dp_vs_formula", None),
    ("pdo_lab", "cwikel_ratio", None),
    ("pdo_lab", "commutator_decay", None),
    ("weak_lp", "weak_quasinorm", None),
    ("weak_lp", "dp_window", None),
)

BS_SPECTRUM = "spectral_counts.bs_spectrum"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f, _ in TARGETS) + (BS_SPECTRUM,)
STATS = (("s", "s"), ("self_s", "s"), ("calls", "count"), ("errors", "count"))
COUNTERS = (
    ("periodic_graph.sites", "count"),
    ("floquet.band_values.points", "count"),
    ("parallel.map_ordered.items", "count"),
    ("parallel.map_ordered.pooled_items", "count"),
    ("spectral_counts.bs_dim", "count"),
    ("spectral_counts.eigencount_below.rows", "count"),
    ("spectral_counts.bs_spectrum.flops", "flop_computed"),
    ("pdo_lab.gram_dim", "count"),
)
PASS_STATS = (("trace.overhead_s", "s"), ("trace.unattributed_s", "s"))


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{n}.{stat}": unit for n in SPAN_NAMES for stat, unit in STATS}
    units.update(COUNTERS)
    units.update(PASS_STATS)
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.absent: list[str] = []
        self.pass_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _count(self, amounts: dict[str, float]) -> None:
        with self._lock:
            self.counts.setdefault(self.pass_id, Counter()).update(amounts)

    def _timed(self, name: str, call: Callable[[], Any]) -> Any:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.pass_id)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            return call()
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            if name == "parallel.map_ordered":
                args, kwargs = self._watch_pool(args, kwargs)
            result = self._timed(name, lambda: fn(*args, **kwargs))
            if hook is not None:
                self._count(hook(args, kwargs, result))
            return result

        return traced

    def _watch_pool(self, args, kwargs):
        """Count the items map_ordered runs on a thread other than its caller's."""
        fn, items = _arg(args, kwargs, 0, "fn"), _arg(args, kwargs, 1, "items")
        caller = threading.get_ident()
        pass_id = self.pass_id

        def watched(x):
            if threading.get_ident() != caller:
                with self._lock:
                    self.counts.setdefault(pass_id, Counter())["parallel.map_ordered.pooled_items"] += 1
            return fn(x)

        self._count({"parallel.map_ordered.items": len(items)})
        rest = {k: v for k, v in kwargs.items() if k not in ("fn", "items")}
        return (watched, items, *args[2:]), rest

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each gapcount module attribute bound to it."""
        self.absent = []
        for module, func, hook in TARGETS:
            name = f"{module}.{func}"
            try:
                mod = importlib.import_module(f"gapcount.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(mod, func, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, hook)
            for modname, m in list(sys.modules.items()):
                if m is None or not (modname == "gapcount" or modname.startswith("gapcount.")):
                    continue
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, wrapper)
        self._install_bs_spectrum()

    def _install_bs_spectrum(self) -> None:
        sc = sys.modules.get("gapcount.spectral_counts")
        cls = getattr(sc, "BSMatrix", None)
        prop = vars(cls).get("eigenvalues") if isinstance(cls, type) else None
        if not isinstance(prop, property):
            self.absent.append(BS_SPECTRUM)
            return
        marker = "_perfbench_spectrum_timed"

        def first_access(obj):
            if vars(obj).get(marker):
                return prop.fget(obj)
            w = self._timed(BS_SPECTRUM, lambda: prop.fget(obj))
            vars(obj)[marker] = True
            self._count({"spectral_counts.bs_spectrum.flops": 4.0 * w.size**3 / 3.0})
            return w

        self._restore.append((cls, "eigenvalues", prop))
        setattr(cls, "eigenvalues", property(first_access, doc=prop.__doc__))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, pass_id: int, wall_s: float) -> dict[str, float]:
        """Per-layer figures of one pass; absent functions read 0."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.pass_id == pass_id]
        child_time: Counter = Counter()
        for _, s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = {name: 0.0 for name in metric_units()}
        top = 0.0
        for i, s in spans:
            dur = s.end - s.start
            out[f"{s.name}.s"] += dur
            out[f"{s.name}.self_s"] += dur - child_time[i]
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.errors"] += int(s.error)
            if s.parent is None:
                top += dur
        for name, amount in self.counts.get(pass_id, Counter()).items():
            if name in out:
                out[name] += amount
        out["trace.unattributed_s"] = wall_s - top
        return out


# Figures that must repeat exactly between two traced passes at one seed.
EXACT_COUNTS = tuple(name for name, _ in COUNTERS) + tuple(f"{n}.calls" for n in SPAN_NAMES)
