"""The bank-indexed FR-FCFS scheduler against the flat-list reference.

``FrFcfsScheduler`` reaches its picks through per-bank FIFOs, a ready-bank
list and cached minimum arrivals; ``tests/oracles/fr_fcfs.py`` states the
same rule over flat lists. Random scripts of enqueues (future arrivals
and full queues included), bank-state changes, clock advances and picks
drive both, and at every step they must agree: the same request picked,
the same enqueue refusals, the same queue depth and the same earliest
issue time.
"""

from hypothesis import given, settings, strategies as st

from repro.mc.bank import BankState
from repro.mc.request import Request, RequestKind
from repro.mc.scheduler import FrFcfsScheduler, SchedulerConfig
from tests.oracles.fr_fcfs import FlatFrFcfs

N_BANKS = 4

_enqueue = st.tuples(
    st.just("enqueue"),
    st.sampled_from(list(RequestKind)),
    st.integers(0, N_BANKS - 1),
    st.integers(0, 2),                  # row: few rows, so hits are common
    st.sampled_from([-20.0, 0.0, 0.0, 5.0, 40.0]),  # arrival - now
)
_bank = st.tuples(
    st.just("bank"),
    st.integers(0, N_BANKS - 1),
    st.sampled_from([-10.0, 0.0, 0.0, 15.0, 60.0]),  # ready - now
    st.one_of(st.none(), st.integers(0, 2), st.integers(0, 2)),  # open row
)
_pick = st.tuples(st.just("pick"))
_advance = st.tuples(st.just("advance"),
                     st.sampled_from([0.5, 1.25, 10.0, 50.0]))
_earliest = st.tuples(st.just("earliest"), st.sampled_from([0.0, 7.5, 30.0]))

# Repeated entries weight the draw: queues must fill and banks must hold
# open rows for hits in several banks to compete at one pick.
scripts = st.lists(
    st.one_of(_enqueue, _enqueue, _enqueue, _bank, _bank, _pick, _pick,
              _advance, _earliest),
    min_size=20, max_size=80,
)
configs = st.builds(
    SchedulerConfig,
    write_queue_drain_threshold=st.integers(1, 6),
    read_queue_capacity=st.integers(1, 6),
    write_queue_capacity=st.integers(1, 8),
)


@settings(max_examples=200, deadline=None)
@given(config=configs, script=scripts)
def test_matches_flat_reference(config, script):
    banks = [BankState() for _ in range(N_BANKS)]
    scheduler = FrFcfsScheduler(config)
    reference = FlatFrFcfs(config)
    now = 100.0
    for step in script:
        op = step[0]
        if op == "enqueue":
            _, kind, bank, row, offset = step
            request = Request(kind=kind, core=0, bank=bank, row=row,
                              arrival_ns=now + offset)
            assert scheduler.enqueue(request) == reference.enqueue(request)
        elif op == "bank":
            _, bank, offset, open_row = step
            banks[bank].ready_ns = now + offset
            banks[bank].open_row = open_row
        elif op == "pick":
            got = scheduler.next_request(banks, now)
            assert got is reference.next_request(banks, now)
            if got is not None:
                # As in service: the picked row is now the open one.
                banks[got.bank].open_row = got.row
        elif op == "advance":
            now += step[1]
        else:
            floor = now + step[1]
            assert (scheduler.earliest_issue_ns(banks, floor)
                    == reference.earliest_issue_ns(banks, floor))
        assert scheduler.pending == reference.pending
        assert (scheduler.earliest_issue_ns(banks, now)
                == reference.earliest_issue_ns(banks, now))


def test_reference_follows_the_documented_rule():
    """Spot checks that the reference itself states the rule."""
    banks = [BankState() for _ in range(N_BANKS)]
    banks[1].open_row = 7
    reference = FlatFrFcfs(SchedulerConfig(write_queue_drain_threshold=2))

    def request(kind, bank, row, arrival=0.0):
        made = Request(kind=kind, core=0, bank=bank, row=row,
                       arrival_ns=arrival)
        assert reference.enqueue(made)
        return made

    old_read = request(RequestKind.READ, 0, 3)
    hit_read = request(RequestKind.READ, 1, 7)
    future_hit = request(RequestKind.READ, 1, 7, arrival=50.0)
    test = request(RequestKind.TEST, 2, 0)
    # A row hit beats an older miss; a future arrival is not eligible.
    assert reference.next_request(banks, 10.0) is hit_read
    assert reference.next_request(banks, 10.0) is old_read
    assert reference.next_request(banks, 10.0) is test
    assert reference.earliest_issue_ns(banks, 10.0) == 50.0
    assert reference.next_request(banks, 50.0) is future_hit
    # Two writes reach the drain mark: they go ahead of a read.
    read = request(RequestKind.READ, 0, 1)
    first = request(RequestKind.WRITE, 2, 1)
    request(RequestKind.WRITE, 3, 1)
    assert reference.next_request(banks, 60.0) is first
    assert reference.next_request(banks, 60.0) is read


def test_default_drain_marks_match():
    """The default config's 16/8 write-drain marks, pick by pick."""
    banks = [BankState() for _ in range(N_BANKS)]
    scheduler, reference = FrFcfsScheduler(), FlatFrFcfs()
    requests = (
        [Request(kind=RequestKind.READ, core=0, bank=0, row=0,
                 arrival_ns=0.0)]
        + [Request(kind=RequestKind.WRITE, core=0, bank=i % N_BANKS,
                   row=i % 3, arrival_ns=0.0) for i in range(17)]
        + [Request(kind=RequestKind.TEST, core=-1, bank=1, row=0,
                   arrival_ns=0.0)]
    )
    for request in requests:
        assert scheduler.enqueue(request) and reference.enqueue(request)
    kinds = []
    while True:
        got = scheduler.next_request(banks, 10.0)
        assert got is reference.next_request(banks, 10.0)
        if got is None:
            break
        kinds.append(got.kind)
    # 17 writes cross the mark of 16: nine drain, down to 8, ahead of the
    # read; the other eight follow it, and test traffic goes last.
    assert kinds == (
        [RequestKind.WRITE] * 9 + [RequestKind.READ]
        + [RequestKind.WRITE] * 8 + [RequestKind.TEST]
    )
