"""Span timing: a hierarchical wall-clock profile of a run.

A *span* is a named wall-clock interval; spans opened while another span
is active nest under it, so a run builds a tree — experiment → phases →
inner loops — that answers "where did the time go" without a profiler.
Collection is explicit: spans are no-ops (a single module-level ``None``
check) until a :class:`SpanCollector` is installed, either with
:func:`collect_spans` (context manager) or :func:`set_collector`.

Repeated same-named spans under one parent merge into a single node with
a hit count, keeping trees from per-row instrumentation bounded.

The tree is the run's one profile, and a ``--jobs N`` run fills the same
one. Each pool worker times its unit under a fresh collector and returns
the unit's subtrees with its payload; the parent folds them under its
open span with :meth:`SpanCollector.merge`. Node names and counts are
then the serial run's (a ``--resume`` run's tree holds only the units
it executed). Below the experiment span, a sharded node's
``elapsed_s`` is its units' time summed across workers, so it can exceed
the experiment's own wall time.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
)

__all__ = [
    "SpanCollector",
    "SpanNode",
    "collect_spans",
    "get_collector",
    "set_collector",
    "span",
    "timed",
]


class SpanNode:
    """One node of the span tree: aggregated time of a named interval."""

    __slots__ = ("name", "elapsed_s", "count", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.elapsed_s = 0.0
        self.count = 0
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def to_dict(self) -> dict:
        """JSON-safe view, children ordered by descending elapsed time."""
        return {
            "name": self.name,
            "elapsed_s": self.elapsed_s,
            "count": self.count,
            "children": [
                child.to_dict()
                for child in sorted(
                    self.children.values(),
                    key=lambda n: n.elapsed_s,
                    reverse=True,
                )
            ],
        }


class SpanCollector:
    """Accumulates spans into a tree rooted at a synthetic ``run`` node."""

    def __init__(self, root_name: str = "run") -> None:
        self.root = SpanNode(root_name)
        self._stack: List[SpanNode] = [self.root]
        self._started_s = time.perf_counter()

    def open(self, name: str) -> SpanNode:
        node = self._stack[-1].child(name)
        self._stack.append(node)
        return node

    def close(self, node: SpanNode, elapsed_s: float) -> None:
        if self._stack[-1] is not node:
            raise RuntimeError(
                f"span {node.name!r} closed out of order "
                f"(top is {self._stack[-1].name!r})"
            )
        self._stack.pop()
        node.elapsed_s += elapsed_s
        node.count += 1

    def merge(self, trees: Iterable[Mapping]) -> None:
        """Fold subtrees (:meth:`SpanNode.to_dict` views) under the open
        span, adding ``elapsed_s`` and ``count`` node by node."""

        def fold(parent: SpanNode, data: Mapping) -> None:
            node = parent.child(data["name"])
            node.elapsed_s += data["elapsed_s"]
            node.count += data["count"]
            for child in data["children"]:
                fold(node, child)

        for tree in trees:
            fold(self._stack[-1], tree)

    def to_dict(self) -> dict:
        """The whole tree; the root's elapsed is the collector's lifetime."""
        self.root.elapsed_s = time.perf_counter() - self._started_s
        self.root.count = max(self.root.count, 1)
        return self.root.to_dict()


_collector: Optional[SpanCollector] = None


def get_collector() -> Optional[SpanCollector]:
    return _collector


def set_collector(
    collector: Optional[SpanCollector],
) -> Optional[SpanCollector]:
    """Install (or clear, with ``None``) the active collector."""
    global _collector
    previous = _collector
    _collector = collector
    return previous


@contextmanager
def collect_spans(root_name: str = "run") -> Iterator[SpanCollector]:
    """Collect spans for the duration of the ``with`` block."""
    collector = SpanCollector(root_name)
    previous = set_collector(collector)
    try:
        yield collector
    finally:
        set_collector(previous)


@contextmanager
def span(name: str) -> Iterator[None]:
    """Time a block as a span under the currently open one (no-op when
    no collector is installed)."""
    collector = _collector
    if collector is None:
        yield
        return
    node = collector.open(name)
    start = time.perf_counter()
    try:
        yield
    finally:
        collector.close(node, time.perf_counter() - start)


def timed(name: Optional[str] = None) -> Callable:
    """Decorator form of :func:`span`; defaults to the function's name."""

    def decorate(fn: Callable) -> Callable:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
