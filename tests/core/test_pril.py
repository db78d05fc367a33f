"""Tests for the PRIL predictor (Figure 13 workflow)."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.oracles.memcon import PrilPredictor


class TestFigure13Workflow:
    """Each numbered step of the paper's workflow diagram."""

    def test_step1_first_write_enters_buffer(self):
        pril = PrilPredictor()
        pril.observe_write(7)
        assert pril.current_buffer_size == 1
        assert pril.stats.first_writes == 1

    def test_step2_repeat_write_removed_from_buffer(self):
        pril = PrilPredictor()
        pril.observe_write(7)
        pril.observe_write(7)
        assert pril.current_buffer_size == 0
        assert pril.stats.repeat_write_drops == 1

    def test_step3_write_evicts_from_previous_buffer(self):
        pril = PrilPredictor()
        pril.observe_write(7)
        pril.end_quantum()          # 7 moves to the previous buffer
        pril.observe_write(7)       # written again -> interval < quantum
        assert pril.previous_buffer_size == 0
        assert pril.stats.cross_quantum_drops == 1
        assert pril.end_quantum() == []

    def test_step4_idle_page_predicted(self):
        pril = PrilPredictor()
        pril.observe_write(7)
        assert pril.end_quantum() == []       # candidate for next quantum
        assert pril.end_quantum() == [7]      # idle one full quantum

    def test_step5_buffers_swap_and_clear(self):
        pril = PrilPredictor()
        pril.observe_write(1)
        pril.end_quantum()
        pril.observe_write(2)
        predicted = pril.end_quantum()
        assert predicted == [1]
        # Page 2 is now in the previous buffer; a fresh quantum begins.
        assert pril.current_buffer_size == 0
        assert pril.previous_buffer_size == 1
        assert pril.end_quantum() == [2]

    def test_page_written_twice_never_predicted(self):
        pril = PrilPredictor()
        pril.observe_write(3)
        pril.observe_write(3)
        pril.end_quantum()
        assert pril.end_quantum() == []

    def test_third_write_same_quantum_stays_dropped(self):
        pril = PrilPredictor()
        for _ in range(3):
            pril.observe_write(3)
        pril.end_quantum()
        assert pril.end_quantum() == []

    def test_multiple_pages_predicted_sorted(self):
        pril = PrilPredictor()
        for page in (9, 2, 5):
            pril.observe_write(page)
        pril.end_quantum()
        assert pril.end_quantum() == [2, 5, 9]

    def test_prediction_consumed_once(self):
        pril = PrilPredictor()
        pril.observe_write(1)
        pril.end_quantum()
        assert pril.end_quantum() == [1]
        assert pril.end_quantum() == []


class TestBufferCapacity:
    def test_overflow_discards_new_page(self):
        pril = PrilPredictor(buffer_capacity=2)
        for page in (1, 2, 3):
            pril.observe_write(page)
        assert pril.current_buffer_size == 2
        assert pril.stats.buffer_overflow_drops == 1

    def test_discarded_page_never_predicted(self):
        pril = PrilPredictor(buffer_capacity=1)
        pril.observe_write(1)
        pril.observe_write(2)   # discarded
        pril.end_quantum()
        assert pril.end_quantum() == [1]

    def test_capacity_frees_after_repeat_write(self):
        pril = PrilPredictor(buffer_capacity=1)
        pril.observe_write(1)
        pril.observe_write(1)   # drops 1 from the buffer, freeing a slot
        pril.observe_write(2)
        assert pril.current_buffer_size == 1
        pril.end_quantum()
        assert pril.end_quantum() == [2]


class TestBookkeeping:
    def test_quantum_counter(self):
        pril = PrilPredictor()
        assert pril.quantum_index == 0
        pril.end_quantum()
        pril.end_quantum()
        assert pril.quantum_index == 2

    def test_stats_accumulate(self):
        pril = PrilPredictor()
        pril.observe_write(1)
        pril.observe_write(1)
        pril.observe_write(2)
        assert pril.stats.writes_observed == 3
        assert pril.stats.first_writes == 2
        assert pril.stats.repeat_write_drops == 1

    def test_negative_page_raises(self):
        with pytest.raises(ValueError):
            PrilPredictor().observe_write(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PrilPredictor(quantum_ms=0.0)
        with pytest.raises(ValueError):
            PrilPredictor(buffer_capacity=0)


class TestPredictionInvariants:
    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 9)),  # (quantum, page)
        min_size=1, max_size=60,
    ))
    @settings(max_examples=60, deadline=None)
    def test_predicted_pages_written_exactly_once_then_idle(self, events):
        """Property: a page predicted at the end of quantum q+1 was written
        exactly once in quantum q and not at all in quantum q+1."""
        events.sort(key=lambda e: e[0])
        max_quantum = max(q for q, _ in events)
        pril = PrilPredictor()
        writes_by_quantum = {}
        predictions = {}
        current = 0
        for quantum, page in events:
            while current < quantum:
                predictions[current] = pril.end_quantum()
                current += 1
            pril.observe_write(page)
            writes_by_quantum.setdefault(quantum, []).append(page)
        for _ in range(2):
            predictions[current] = pril.end_quantum()
            current += 1
        for boundary, pages in predictions.items():
            for page in pages:
                prev_writes = writes_by_quantum.get(boundary - 1, [])
                this_writes = writes_by_quantum.get(boundary, [])
                assert prev_writes.count(page) == 1
                assert page not in this_writes
