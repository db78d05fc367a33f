"""Span-timing semantics: nesting, merging, decorator, no-op behaviour,
and folding a worker's subtrees into the open span."""

import pytest

from repro.obs import (
    SpanCollector,
    collect_spans,
    get_collector,
    set_collector,
    span,
    timed,
)


class TestNesting:
    def test_nested_spans_build_a_tree(self):
        with collect_spans() as collector:
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner2"):
                    pass
        tree = collector.to_dict()
        assert tree["name"] == "run"
        (outer,) = tree["children"]
        assert outer["name"] == "outer"
        assert {c["name"] for c in outer["children"]} == {"inner", "inner2"}

    def test_repeated_spans_merge_with_counts(self):
        with collect_spans() as collector:
            for _ in range(5):
                with span("step"):
                    pass
        (step,) = collector.to_dict()["children"]
        assert step["count"] == 5
        assert step["elapsed_s"] >= 0.0

    def test_same_name_under_different_parents_stays_separate(self):
        with collect_spans() as collector:
            with span("a"):
                with span("leaf"):
                    pass
            with span("b"):
                with span("leaf"):
                    pass
        tree = collector.to_dict()
        names = {c["name"]: c for c in tree["children"]}
        assert [c["name"] for c in names["a"]["children"]] == ["leaf"]
        assert [c["name"] for c in names["b"]["children"]] == ["leaf"]

    def test_depth_tracks_open_spans(self):
        # A span nests under whichever span is open when it starts.
        with collect_spans() as collector:
            with span("a"):
                with span("b"):
                    pass
            with span("c"):
                pass
        tree = collector.to_dict()
        assert sorted(c["name"] for c in tree["children"]) == ["a", "c"]
        (a,) = [c for c in tree["children"] if c["name"] == "a"]
        assert [c["name"] for c in a["children"]] == ["b"]

    def test_elapsed_accumulates_time(self):
        import time

        with collect_spans() as collector:
            with span("sleepy"):
                time.sleep(0.01)
        (node,) = collector.to_dict()["children"]
        assert node["elapsed_s"] >= 0.005

    def test_exception_still_closes_span(self):
        with collect_spans() as collector:
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("x")
            with span("after"):
                pass
        tree = collector.to_dict()
        # "after" opened at the root, so "boom" was closed (and counted).
        assert {c["name"]: c["count"] for c in tree["children"]} == {
            "boom": 1, "after": 1,
        }


class TestNoCollector:
    def test_span_is_noop_without_collector(self):
        previous = set_collector(None)
        try:
            with span("free"):
                pass  # must not raise
            assert get_collector() is None
        finally:
            set_collector(previous)

    def test_collect_spans_restores_previous_collector(self):
        outer = SpanCollector()
        previous = set_collector(outer)
        try:
            with collect_spans() as inner:
                assert get_collector() is inner
            assert get_collector() is outer
        finally:
            set_collector(previous)


class TestTimedDecorator:
    def test_decorator_records_span(self):
        @timed("my.fn")
        def work(x):
            return x * 2

        with collect_spans() as collector:
            assert work(21) == 42
        (node,) = collector.to_dict()["children"]
        assert node["name"] == "my.fn"
        assert node["count"] == 1

    def test_decorator_defaults_to_qualname(self):
        @timed()
        def some_function():
            return 1

        with collect_spans() as collector:
            some_function()
        (node,) = collector.to_dict()["children"]
        assert "some_function" in node["name"]


class TestOutOfOrder:
    def test_out_of_order_close_raises(self):
        collector = SpanCollector()
        a = collector.open("a")
        collector.open("b")
        with pytest.raises(RuntimeError):
            collector.close(a, 0.0)


def _leaf(name, elapsed_s, count, children=()):
    return {"name": name, "elapsed_s": elapsed_s, "count": count,
            "children": list(children)}


class TestMerge:
    def test_adds_times_and_counts_under_the_open_span(self):
        with collect_spans() as collector:
            with span("fig14"):
                with span("memcon.simulate"):
                    pass
                collector.merge([
                    _leaf("memcon.simulate", 2.0, 3),
                    _leaf("memcon.simulate", 1.0, 2),
                ])
        (fig14,) = collector.to_dict()["children"]
        (node,) = fig14["children"]
        assert node["name"] == "memcon.simulate"
        assert node["count"] == 1 + 3 + 2
        assert 3.0 <= node["elapsed_s"] < 4.0

    def test_creates_missing_nodes_at_every_depth(self):
        with collect_spans() as collector:
            with span("fig15"):
                collector.merge([
                    _leaf("sim.run", 4.0, 2, [_leaf("sim.step", 1.5, 7)]),
                ])
        (fig15,) = collector.to_dict()["children"]
        assert fig15["count"] == 1
        (run,) = fig15["children"]
        assert (run["name"], run["elapsed_s"], run["count"]) == (
            "sim.run", 4.0, 2,
        )
        assert run["children"] == [_leaf("sim.step", 1.5, 7)]

    def test_merges_at_the_root_when_no_span_is_open(self):
        collector = SpanCollector()
        collector.merge([_leaf("unit", 0.5, 1)])
        collector.merge([_leaf("unit", 0.25, 1)])
        (unit,) = collector.to_dict()["children"]
        assert (unit["elapsed_s"], unit["count"]) == (0.75, 2)
