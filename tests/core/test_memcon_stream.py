"""The vectorised MEMCON pass agrees with both retired implementations.

``simulate_refresh_reduction`` builds its ``pril_quantum``,
``pril_grant``, ``test_*`` and ``ref_transition`` records from the
vectorised pass's arrays and emits them as one batch. The retired
per-page loop (``tests/oracles/memcon.py``) emits the same stream
one record at a time. Both streams are compared as compact JSON lines,
record for record, so a misplaced record, an ``int`` written where the
loop writes a ``float`` or a leaked numpy scalar fails the comparison.
The vectorised pass is also written by a ``JsonlTraceSink``, which
encodes the batch from its columns, and those bytes must be the
oracle's lines.
The event-driven controller in the same module must produce the same
report: every count equal, every time to rounding.
"""

import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.core.memcon import MemconConfig, simulate_refresh_reduction
from repro.traces.events import WriteTrace
from repro.traces.generator import generate_trace
from repro.traces.workloads import WORKLOADS
from tests.oracles.memcon import (
    MemconController,
    assert_reports_agree,
    simulate_refresh_reduction_loop,
)

FRACTIONS = (0.0, 0.3, 1.0)


def _stream(fn, trace, config, fraction, seed, forensics):
    """Run one implementation under a JSONL sink and a list sink.

    Returns (report, the records as JSON lines, the JSONL sink's text).
    """
    sink = obs.ListTraceSink()
    written = io.StringIO()
    previous_sink = obs.set_sink(
        obs.TeeSink(obs.JsonlTraceSink(written), sink)
    )
    previous_gate = obs.set_forensics(forensics)
    try:
        report = fn(trace, config, fraction, seed)
    finally:
        obs.set_forensics(previous_gate)
        obs.set_sink(previous_sink)
    for record in sink.records:
        for value in record.values():
            # json.dumps accepts np.float64 (a float subclass) and writes
            # it like a float, so pin the exact types as well.
            assert type(value) in (int, float, str), record
    lines = [json.dumps(r, separators=(",", ":")) for r in sink.records]
    return report, lines, written.getvalue()


def assert_streams_match(trace, config, fraction=0.0, seed=0,
                         forensics=False):
    report, lines, written = _stream(
        simulate_refresh_reduction, trace, config, fraction, seed, forensics
    )
    oracle_report, oracle_lines, _ = _stream(
        simulate_refresh_reduction_loop, trace, config, fraction, seed,
        forensics,
    )
    assert dataclasses.asdict(report) == dataclasses.asdict(oracle_report)
    assert len(lines) == len(oracle_lines)
    for index, (line, expected) in enumerate(zip(lines, oracle_lines)):
        assert line == expected, f"record {index} differs"
    written_lines = written.splitlines()
    assert len(written_lines) == len(oracle_lines)
    for index, (line, expected) in enumerate(zip(written_lines, oracle_lines)):
        assert line == expected, f"written record {index} differs"
    assert written == "".join(line + "\n" for line in oracle_lines)
    return lines


def _trace(writes, duration_ms, total_pages):
    return WriteTrace(
        duration_ms=duration_ms,
        writes={p: np.asarray(t, dtype=np.float64) for p, t in writes.items()},
        total_pages=total_pages,
        name="stream",
    )


def _config(quantum_ms=1000.0, test_duration_ms=64.0, read_only=True):
    return MemconConfig(quantum_ms=quantum_ms,
                        test_duration_ms=test_duration_ms,
                        test_read_only_pages=read_only)


forensics_modes = pytest.mark.parametrize("forensics", [False, True])
fractions = pytest.mark.parametrize("fraction", FRACTIONS)
read_only_modes = pytest.mark.parametrize("read_only", [False, True])


@forensics_modes
@fractions
@read_only_modes
@pytest.mark.parametrize("name", ["BlurMotion", "Netflix", "SystemMgt"])
def test_named_workloads(name, forensics, fraction, read_only):
    trace = generate_trace(WORKLOADS[name], seed=2, duration_ms=8_000.0)
    lines = assert_streams_match(
        trace, _config(read_only=read_only), fraction, seed=5,
        forensics=forensics,
    )
    assert any('"kind":"test_started"' in line for line in lines)


def assert_controller_agrees(trace, config, fraction=0.0, seed=0):
    controller = MemconController(trace.total_pages, config)
    assert_reports_agree(
        simulate_refresh_reduction(trace, config, fraction, seed),
        controller.run(trace, fraction, seed),
    )


@fractions
@read_only_modes
@pytest.mark.parametrize("name", ["BlurMotion", "Netflix", "SystemMgt"])
def test_controller_agrees_on_named_workloads(name, fraction, read_only):
    trace = generate_trace(WORKLOADS[name], seed=2, duration_ms=8_000.0)
    assert_controller_agrees(trace, _config(read_only=read_only), fraction,
                             seed=5)


@st.composite
def traces(draw):
    """Small traces on a coarse time grid, so instants tie often."""
    grid = 16.0
    quantum_ms = draw(st.sampled_from([64.0, 128.0, 256.0]))
    test_ms = draw(st.sampled_from([16.0, 64.0, 128.0, 256.0]))
    slots = draw(st.integers(3, 12)) * int(quantum_ms // grid)
    slots += draw(st.sampled_from([0, 0, 1, 3]))  # window off a boundary
    total_pages = draw(st.integers(1, 10))
    pages = draw(st.permutations(range(total_pages)))
    n_written = draw(st.integers(0, total_pages))
    writes = {}
    for page in pages[:n_written]:
        ticks = draw(st.lists(st.integers(0, slots - 1), max_size=8))
        writes[page] = [tick * grid for tick in sorted(ticks)]
    trace = _trace(writes, slots * grid, total_pages)
    config = _config(quantum_ms, test_ms, draw(st.booleans()))
    return trace, config


#: Read-only pages whose 256 ms test outlasts the 192 ms window: the
#: test is charged for the window only. Random draws reach this corner
#: of the grid rarely, so both generated-trace tests pin it.
OUTLASTING_TEST = (_trace({}, 192.0, 4), _config(64.0, 256.0, True))


class TestGeneratedTraces:
    @given(traces(), st.sampled_from(FRACTIONS), st.booleans(),
           st.integers(0, 3))
    @example(OUTLASTING_TEST, 0.3, False, 0)
    @settings(max_examples=150, deadline=None)
    def test_stream_matches_oracle(self, case, fraction, forensics, seed):
        trace, config = case
        assert_streams_match(trace, config, fraction, seed, forensics)

    @given(traces(), st.sampled_from(FRACTIONS), st.integers(0, 3))
    @example(OUTLASTING_TEST, 0.3, 0)
    @settings(max_examples=150, deadline=None)
    def test_controller_agrees(self, case, fraction, seed):
        trace, config = case
        assert_controller_agrees(trace, config, fraction, seed)


def _controller_run(trace, config, fraction, seed):
    controller = MemconController(trace.total_pages, config)
    return controller.run(trace, fraction, seed)


def _test_records(lines):
    """The tests' lifecycle records of a stream, parsed."""
    records = [json.loads(line) for line in lines]
    return [r for r in records
            if r["kind"].startswith("test_") or r["kind"] == "ref_transition"]


@fractions
def test_read_only_verdicts_end_with_the_window(fraction):
    # Four read-only pages, 256 ms tests, a 192 ms window: each test is
    # charged for the window only, so its verdict and the transition out
    # of TESTING are stamped at the window end, not at 256 ms.
    trace, config = OUTLASTING_TEST
    records = _test_records(assert_streams_match(trace, config, fraction))
    ended = [r for r in records
             if r["kind"] in ("test_passed", "test_failed")
             or r.get("from") == "testing"]
    assert len(ended) == 2 * trace.total_pages
    assert {r["t_ms"] for r in ended} == {trace.duration_ms}
    # The controller oracle ends the same tests at the same instants; it
    # emits page by page, so its records are put in time order first.
    _, controller_lines, _ = _stream(_controller_run, trace, config,
                                     fraction, 0, False)
    controller = _test_records(controller_lines)
    assert sorted(controller, key=lambda r: r["t_ms"]) == records


@forensics_modes
@fractions
@read_only_modes
class TestEdgeCases:
    def test_next_write_exactly_at_test_end(self, forensics, fraction,
                                            read_only):
        # Predicted at 2000, the test ends at 2064 and the page is
        # rewritten at exactly 2064: the test completes (idle ==
        # test_end is not an abort) and the page leaves LO-REF at once.
        trace = _trace({0: [100.0, 2064.0], 2: [10.0]}, 10_000.0, 4)
        lines = assert_streams_match(
            trace, _config(read_only=read_only), fraction, 1, forensics
        )
        assert not any("test_aborted" in line for line in lines)

    def test_prediction_boundary_on_window_end(self, forensics, fraction,
                                               read_only):
        # Page 0's prediction lands exactly on the window end (no test);
        # page 1's lands one quantum earlier, inside the window.
        trace = _trace({0: [1100.0], 1: [100.0]}, 3000.0, 3)
        lines = assert_streams_match(
            trace, _config(read_only=read_only), fraction, 2, forensics
        )
        started = [json.loads(line) for line in lines
                   if '"kind":"test_started"' in line]
        assert {r["page"] for r in started if r["t_ms"] > 0} == {1}

    def test_no_written_pages(self, forensics, fraction, read_only):
        trace = _trace({3: []}, 5000.0, 6)
        lines = assert_streams_match(
            trace, _config(read_only=read_only), fraction, 3, forensics
        )
        assert len(lines) == (4 * 6 if read_only else 0)

    def test_read_only_outcome_ties_with_quantum_boundary(
        self, forensics, fraction, read_only
    ):
        # A 2000 ms test: read-only verdicts land at 2000, the instant
        # PRIL predicts page 1 (write at 100, quantum 1000). Page 0's
        # test comes first in page order but starts later, at 3000.
        trace = _trace({0: [1100.0], 1: [100.0]}, 10_000.0, 5)
        lines = assert_streams_match(
            trace, _config(test_duration_ms=2000.0, read_only=read_only),
            fraction, 4, forensics,
        )
        at_boundary = [json.loads(line) for line in lines
                       if '"t_ms":2000.0' in line or "pril_quantum" in line]
        kinds = [(r["kind"], r.get("page")) for r in at_boundary]
        # PRIL's prediction, then page 1's test, then the read-only
        # verdicts: the loop tests written pages before read-only ones.
        assert kinds[0] == ("pril_quantum", None)
        started = kinds.index(("test_started", 1))
        assert all(page == 1 for _, page in kinds[1:started + 2])
        if read_only:
            assert {page for _, page in kinds[started + 2:]} >= {2, 3, 4}
