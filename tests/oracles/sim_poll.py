"""The retired cycle-polling simulator loop: an equivalence oracle.

:meth:`repro.sim.system.SystemSimulator.run` is a discrete-event loop
that visits only the actors due at each instant. This module keeps the
loop it replaced, which polls every core and ticks every controller on
each iteration, including the historical global holdback in which one
refused request stops polling all remaining cores. The differential
suites hold the event loop to identical results and trace streams, and
the simulator benchmark times the two against each other.
"""

from __future__ import annotations

from typing import List

from repro import obs
from repro.mc.request import Request
from repro.sim.system import SystemResult, SystemSimulator


def poll_run(simulator: SystemSimulator, window_ns: float) -> SystemResult:
    """Simulate ``window_ns`` on a fresh simulator with the poll loop."""
    if window_ns <= 0:
        raise ValueError("window_ns must be positive")
    c_iterations = obs.get_registry().counter("sim.loop_iterations")
    controllers = simulator.controllers
    cores = simulator.cores
    completed = simulator._completed_reads
    now = 0.0
    guard = 0
    max_iterations = int(window_ns * 50)  # safety net, never binding
    holdback: List[Request] = []  # requests refused by a full queue
    tck = controllers[0].timing.tCK
    while now < window_ns:
        guard += 1
        c_iterations.inc()
        if guard > max_iterations:
            raise RuntimeError("simulator failed to make progress")
        # Retry requests that a full queue refused earlier.
        holdback = [
            r for r in holdback
            if not controllers[r.channel].scheduler.enqueue(r)
        ]
        # Pull any core requests that are due (with backpressure).
        for core in cores:
            while not holdback:
                request = core.next_request(now)
                if request is None:
                    break
                if not controllers[request.channel].scheduler.enqueue(
                    request
                ):
                    holdback.append(request)
        # One instant per controller: the historical tick.
        next_event = min(
            controller.drain(now, now + tck)[0] for controller in controllers
        )
        # Deliver completed reads to their cores.
        if completed:
            for request in completed:
                cores[request.core].complete_read(
                    request, request.completion_ns
                )
                simulator._reads_done[request.core].append(request)
            completed.clear()
        # Advance: to the next controller event, bounded by the next
        # core request arrival (cores generate work lazily).
        arrivals = [
            hint
            for hint in (core.next_arrival_hint(now) for core in cores)
            if hint is not None
        ]
        step_to = min([next_event] + arrivals) if arrivals else next_event
        now = max(now + tck, step_to)
    return simulator._collect_result(window_ns)
