"""An ordered map, kept only under the name the benchmark tracer targets.

`perfbench/spans.py` lists `parallel.map_ordered` among its traced
functions, and its tests require every target to exist. Nothing in
gapcount calls it: band sampling evaluates its blocks in a plain loop.
Delete this module together with that benchmark target.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def map_ordered(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Apply fn to items, in input order, on the calling thread."""
    return [fn(x) for x in items]
