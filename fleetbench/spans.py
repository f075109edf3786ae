"""Spans around the program's public calls, and a fleet call replayed as layers.

The benchmark records spans only from its own code: each span is (name,
start, end, parent, call id), kept in memory and written out at exit.  A
layer's self time is its span's duration minus the part its child spans
cover.

``run_fleet`` and ``run_mobile_fleet`` are single calls, so the traced run
replays one fleet run as the public calls it is made of -- schedule view,
timeline compile, first-hop seek, metric adds, the lockstep kernel or the
reference planner per distinct execution -- on a client draw this module
makes itself.  The replay must produce the same per-execution arrays as the
real call; :func:`replay_run` returns them so the caller can check.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.broadcast.client import ClientSession
from repro.broadcast.errors import LinkErrorModel
from repro.broadcast.schedule import BroadcastSchedule
from repro.broadcast.timeline import timeline_of
from repro.mobility import run_journey
from repro.queries.ground_truth import answer, matches_truth
from repro.sim.fleet import DEFAULT_MAX_PHASES
from repro.sim.fleet_kernel import (
    KernelUnsupported,
    simulate_window_fleet,
    simulate_window_journeys,
)
from repro.sim.metrics import DEFAULT_HISTOGRAM_LIMIT, ExperimentResult, MetricSummary
from repro.sim.runner import execute_query

#: Clients per draw batch, as the fleet simulator draws them.
DRAW_BATCH = 1 << 16

_NULL = contextlib.nullcontext()


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Tuple[str, float, float, Optional[int], str]] = []
        self.call_id = ""
        self._stack: List[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.call_id))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, call = self.spans[idx]
            self.spans[idx] = (name, start, time.perf_counter(), parent, call)

    def per_call(self, exclusive: bool) -> Dict[str, Dict[str, float]]:
        """``{call id: {span name: summed seconds}}``; ``exclusive`` leaves
        out the time child spans cover (self time)."""
        child = [0.0] * len(self.spans)
        if exclusive:
            for _, start, end, parent, _ in self.spans:
                if parent is not None:
                    child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, call) in enumerate(self.spans):
            out[call][name] += end - start - child[i]
        return out

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]


def draws(seed: int, n_clients: int, n_items: int):
    """``(item ids, tune-in fractions)`` batches of one seeded client draw."""
    rng = np.random.default_rng(seed)
    done = 0
    while done < n_clients:
        m = min(DRAW_BATCH, n_clients - done)
        yield rng.integers(0, n_items, size=m, dtype=np.int64), rng.random(m)
        done += m


def answers_correct(dataset: Any, answers: List[Tuple[Any, Any]]) -> bool:
    """Whether every ``(query, objects)`` answer equals ground truth."""
    return all(matches_truth(q, answer(dataset, q), objects) for q, objects in answers)


def reference_execution(
    bench: Any, index: Any, view: Any, key: int, n_phases: int, cycle: int
) -> Tuple[int, int, List[Tuple[Any, Any]]]:
    """One distinct execution on the reference planner.

    Returns latency and tuning bytes and the ``(query, objects)`` answer of
    each hop.  Runs the whole execution; the program collapses error-free
    phases that share an entry landmark, which gives the same numbers.
    """
    kwargs = bench.fleet_kwargs()
    theta = kwargs.get("error_theta")
    error_model = None
    if theta is not None:
        # The fleet's per-(query, phase) loss stream.
        error_model = LinkErrorModel(
            theta=theta, scope=kwargs.get("error_scope", "index"),
            seed=(kwargs["error_seed"] * 1_000_003 + key) & 0x7FFFFFFF,
        )
    item, phase = divmod(key, n_phases)
    start = (phase * cycle) // n_phases
    capacity = bench.config.packet_capacity
    if bench.spec.queries == "journeys":
        journey = bench.workload.journeys[item]
        out = run_journey(
            index, view, bench.config, journey, start_packet=start, error_model=error_model,
        )
        answers = [(s.query, hop.outcome.objects) for s, hop in zip(journey.steps, out.hops)]
        return out.total_latency_packets * capacity, out.total_tuning_bytes, answers
    query = bench.workload.trials[item].query
    session = ClientSession(view, bench.config, start_packet=start, error_model=error_model)
    outcome = execute_query(index, query, session)
    return (
        outcome.metrics.latency_packets * capacity, outcome.metrics.tuning_bytes,
        [(query, outcome.objects)],
    )


def replay_run(
    tracer: Tracer, bench: Any, index: Any, n_clients: int, seed: int
) -> Dict[str, Any]:
    """One fleet run of ``index``, replayed as its layer calls under spans.

    Returns the per-execution arrays (``keys``, ``latency``, ``tuning``,
    ``counts``) plus the view it ran on and how many executions took the
    reference planner and how many values went through the metric adds.
    """
    journeys = bench.spec.queries == "journeys"
    items = bench.workload.journeys if journeys else bench.workload.trials
    n_items = len(items)
    kwargs = bench.fleet_kwargs()
    capacity = bench.config.packet_capacity
    values_added = 0
    with tracer.span("fleet.call"):
        with tracer.span("schedule.view"):
            schedule = bench.schedule
            if schedule is None:
                schedule = BroadcastSchedule.for_config(index.program, bench.config)
            view = schedule.view()
        with tracer.span("timeline.compile"):
            timeline = timeline_of(view)
        cycle = view.cycle_packets
        n_phases = min(cycle, kwargs.get("max_phases", DEFAULT_MAX_PHASES))
        counts = np.zeros(n_items * n_phases, dtype=np.int64)
        waits = MetricSummary(
            exact=False, histogram_limit=max(DEFAULT_HISTOGRAM_LIMIT, min(cycle, 1 << 17))
        )
        for ids, fracs in draws(seed, n_clients, n_items):
            counts += np.bincount(
                ids * n_phases + (fracs * n_phases).astype(np.int64),
                minlength=n_items * n_phases,
            )
            positions = (fracs * cycle).astype(np.int64)
            with tracer.span("timeline.first_hop"):
                first = timeline.next_navigation_starts(positions)
            with tracer.span("metrics.wait_add"):
                waits.add_many((first - positions) * capacity)
            values_added += len(positions)
        keys = np.flatnonzero(counts)
        simulate = simulate_window_journeys if journeys else simulate_window_fleet
        with tracer.span("kernel.simulate"):
            try:
                lat, tun, _, _ = simulate(
                    index, view, bench.config, items, keys // n_phases, keys % n_phases,
                    n_phases=n_phases, cycle=cycle, verify=False, dataset=bench.dataset,
                    error_theta=kwargs.get("error_theta"),
                    error_scope=kwargs.get("error_scope", "index"),
                    error_seed=kwargs.get("error_seed", 0),
                )
                n_reference = 0
            except KernelUnsupported:
                lat = tun = None
        if lat is None:
            lat = np.empty(len(keys), dtype=np.int64)
            tun = np.empty(len(keys), dtype=np.int64)
            for i, key in enumerate(keys.tolist()):
                with tracer.span("reference.execute"):
                    lat[i], tun[i], _ = reference_execution(
                        bench, index, view, key, n_phases, cycle
                    )
            n_reference = len(keys)
        lat_by_key = np.zeros(n_items * n_phases)
        tun_by_key = np.zeros(n_items * n_phases)
        lat_by_key[keys] = lat
        tun_by_key[keys] = tun
        result = ExperimentResult.streaming(
            index_name=index.name, workload_name=bench.workload.name,
            histogram_limit=max(DEFAULT_HISTOGRAM_LIMIT, n_items * n_phases),
        )
        for ids, fracs in draws(seed, n_clients, n_items):
            key = ids * n_phases + (fracs * n_phases).astype(np.int64)
            with tracer.span("metrics.fanout"):
                result.latency.add_many(lat_by_key[key])
                result.tuning.add_many(tun_by_key[key])
            values_added += 2 * len(key)
    return {
        "keys": keys, "latency": np.asarray(lat, dtype=np.float64),
        "tuning": np.asarray(tun, dtype=np.float64), "counts": counts[keys],
        "view": view, "n_phases": n_phases, "cycle": cycle,
        "n_reference": n_reference, "values_added": values_added,
    }
