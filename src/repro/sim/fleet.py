"""Population-scale client fleets: millions of tune-ins in flat memory.

The paper's model is one server airing a cycle to an unbounded audience of
independent tuners.  :func:`run_fleet` simulates that audience at
population scale: ``n_clients`` seeded clients, each assigned one query of
a workload and one tune-in position, run in batch instead of as per-client
Python objects.

Two facts make this fast without changing the physics:

* **Broadcast determinism.**  A lossless broadcast is one-way: a client's
  outcome is a pure function of (query, tune-in packet).  A fleet of a
  million clients over ``Q`` queries therefore collapses onto at most
  ``Q x cycle`` distinct executions; the fleet simulates each *distinct*
  (query, phase) pair once with the real :class:`ClientSession` machinery
  and scatters the outcome to every client that drew it.  Link errors stay
  compatible with the dedup because every execution carries its own
  deterministically seeded
  :class:`~repro.broadcast.errors.LinkErrorModel`: clients sharing a query
  *and* a tune-in phase -- the unit the dedup collapses -- experience the
  same loss realisation, while distinct executions draw independent noise.
* **A population is two histograms.**  The seeded client draw runs once,
  in numpy batches, and is kept only as client counts per ``(query,
  phase)`` key and per exact tune-in packet.  The first-hop statistics (how
  long until the next index bucket after tune-in) seek once per occupied
  packet on the compiled timeline, never once per client.

When the cycle is longer than ``max_phases``, tune-in positions are
quantised to ``max_phases`` evenly spaced phases per query -- a controlled
approximation (phase spacing ``cycle / max_phases`` packets bounds the
tune-in rounding) that keeps the number of distinct executions independent
of both fleet size and cycle length.  With ``cycle <= max_phases`` the
simulation is exact per packet.

Metrics enter plain :class:`MetricSummary` objects as ``(value, client
count)`` pairs through :meth:`MetricSummary.add_weighted`: every percentile
is exact, the mean is the exact integer total over the population, and
memory stays O(unique executions + cycle) -- constant in ``n_clients``,
because a summary holds at most one value per distinct execution and
first-hop waits are shorter than one cycle.  The per-execution arrays
(``unique_latency`` / ``unique_tuning`` / ``unique_counts``) stay on the
result, so a caller can expand them into the per-client samples.

**One engine.**  Every path that executes queries is a view over
:func:`_run_executions`, which takes *items* -- the ``(query,
dwell_packets)`` steps one client walks on one session -- and explicit
keys: an ``(item id, phase, client count)`` triple per distinct execution,
with ``n_phases`` phases per cycle.  It runs the kernel dispatch, the
reference fan-out and the result assembly once for all of them:

* :func:`run_fleet` draws its keys (:func:`_run_population`: one seeded
  draw, at most ``max_phases`` phases, plus the first-hop waits) and runs
  each trial as a one-step item, cold;
* :func:`run_mobile_fleet` draws its keys the same way over
  :class:`~repro.mobility.trajectory.TrajectoryWorkload` journeys and runs
  them *warm* (the index's ``new_client_state()`` carried across hops, see
  :mod:`repro.mobility`);
* :func:`repro.sim.runner.run_workload` -- the paper's figure rows -- gives
  trial ``t`` one key of its own: its start packet as the phase, with one
  phase per packet (``n_phases = cycle``) and one client.

A key's losses come from the model seeded for ``item * n_phases + phase``,
so trial ``t`` of a replay keeps its key ``t * cycle + start``.  The
landmark collapse covers whole items: phases sharing the first hop's entry
landmark share the item's whole absolute trace (see
:func:`_simulate_item_batch`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..broadcast.client import ClientSession
from ..broadcast.config import SystemConfig
from ..broadcast.errors import LinkErrorModel, _session_seed
from ..broadcast.schedule import BroadcastSchedule
from ..broadcast.timeline import timeline_of
from ..purity import pure_mode
from ..queries.ground_truth import matches_truth
from ..queries.workload import Workload
from ..spatial.datasets import SpatialDataset
from .metrics import ExperimentResult, MetricSummary
from .parallel import default_processes, parallel_map

__all__ = [
    "FleetResult",
    "FleetSpec",
    "MobileFleetResult",
    "run_fleet",
    "run_mobile_fleet",
    "DEFAULT_MAX_PHASES",
]

#: Default tune-in phase resolution per query (exact when the cycle is
#: shorter; see module docstring).
DEFAULT_MAX_PHASES = 256

#: Clients are drawn in fixed-size batches so the random stream (and thus
#: the fleet) is independent of parallelism and of ``n_clients`` prefixes.
_DRAW_BATCH = 1 << 16


@dataclass(frozen=True)
class FleetSpec:
    """Validated fleet parameters (fail fast, not deep in the batch loop)."""

    n_clients: int
    seed: int = 0
    max_phases: int = DEFAULT_MAX_PHASES

    def __post_init__(self) -> None:
        if not isinstance(self.n_clients, int) or isinstance(self.n_clients, bool):
            raise TypeError(f"n_clients must be an int, got {type(self.n_clients).__name__}")
        if self.n_clients <= 0:
            raise ValueError(f"n_clients must be positive, got {self.n_clients}")
        if self.max_phases < 1:
            raise ValueError(f"max_phases must be at least 1, got {self.max_phases}")


@dataclass(kw_only=True)
class _PopulationView:
    """What :class:`FleetResult` and :class:`MobileFleetResult` share: the
    population's summaries, the engine that ran, throughput and a row's
    engine columns.

    ``result`` carries the population's exact latency/tuning summaries;
    ``first_index_wait`` is the population's exact per-client wait (bytes)
    from tune-in to the first navigation bucket, computed once per occupied
    tune-in packet and weighted by its clients.  The per-execution
    histogram (``unique_latency`` / ``unique_tuning`` / ``unique_counts``)
    supports exact cross-checks in O(executions) memory.
    """

    result: ExperimentResult
    n_clients: int
    n_executions: int
    n_phases: int
    cycle_packets: int
    quantized: bool
    elapsed_s: float
    first_index_wait: MetricSummary
    unique_latency: np.ndarray = field(repr=False)
    unique_tuning: np.ndarray = field(repr=False)
    unique_counts: np.ndarray = field(repr=False)
    #: Which engine simulated the distinct executions: ``"numpy"`` for the
    #: lockstep structure-of-arrays kernels (:mod:`repro.sim.fleet_kernel`),
    #: ``"reference"`` for the per-phase object-model path.
    backend: str = "reference"
    #: Which schedule the fleet tuned into: ``"flat"`` for the config-derived
    #: layout (one channel, or balanced stripes), ``"optimized"`` for a
    #: demand-aware :meth:`BroadcastSchedule.optimized` layout.
    schedule_policy: str = "flat"
    #: Why the reference path ran, when it did: the kernel's decline
    #: message (:class:`~repro.sim.fleet_kernel.KernelUnsupported`) or the
    #: REPRO_PURE note.  ``None`` on kernel runs -- surfaced as a sweep row
    #: column so perf cliffs are visible instead of silent.
    backend_reason: Optional[str] = None
    #: How many distinct executions had a hop that a planner's safety cap
    #: truncated (``iterations_capped`` on the DSI window and kNN planners'
    #: and the R-tree/HCI sweeps' results).  Always 0 on kernel runs (the
    #: kernels decline cap-bound lanes); nonzero means some answers may be
    #: inexact.
    capped_executions: int = 0

    @property
    def clients_per_sec(self) -> float:
        return self.n_clients / self.elapsed_s if self.elapsed_s > 0 else math.inf

    def _engine_columns(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Append accuracy (when verified), throughput and which engine ran."""
        checked = self.result.correct_trials + self.result.incorrect_trials
        if checked:
            row["accuracy"] = self.result.accuracy
        row["clients_per_sec"] = self.clients_per_sec
        row["backend"] = self.backend
        row["backend_reason"] = self.backend_reason or ""
        row["schedule_policy"] = self.schedule_policy
        if self.capped_executions:
            row["capped_executions"] = self.capped_executions
        return row


@dataclass(kw_only=True)
class FleetResult(_PopulationView):
    """Outcome of one fleet run: one sample per client (see
    :class:`_PopulationView` for the fields every fleet result carries)."""

    def as_row(self) -> Dict[str, Any]:
        from .report import metric_columns

        row: Dict[str, Any] = {
            "index": self.result.index_name,
            "workload": self.result.workload_name,
            "n_clients": self.n_clients,
        }
        row.update(metric_columns(self.result.latency, "latency"))
        row.update(metric_columns(self.result.tuning, "tuning"))
        return self._engine_columns(row)


# ---------------------------------------------------------------------------
# The population layer: one client draw, kept as histograms
# ---------------------------------------------------------------------------


def _draw_batches(spec: FleetSpec, n_items: int):
    """Yield ``(item_ids, tune_in_fractions)`` client draws in fixed batches.

    One seeded generator, consumed in a fixed order, so a fleet's clients
    are a pure function of its seed and size (see :func:`_draw_population`).
    """
    rng = np.random.default_rng(spec.seed)
    done = 0
    while done < spec.n_clients:
        m = min(_DRAW_BATCH, spec.n_clients - done)
        ids = rng.integers(0, n_items, size=m, dtype=np.int64)
        yield ids, rng.random(m)
        done += m


def _nav_starts_scalar(view: Any, positions: np.ndarray) -> Optional[np.ndarray]:
    """Earliest navigation-bucket starts via the scalar object model.

    The pure-python counterpart of
    :meth:`CompiledTimeline.next_navigation_starts`, used under
    ``REPRO_PURE``: ask the scalar ``next_occurrence_of_kind`` per position
    and navigation kind, take the elementwise minimum.  Returns ``None``
    when the layout airs no navigation bucket.
    """
    from ..broadcast.program import BucketKind

    best: Optional[np.ndarray] = None
    for kind in BucketKind:
        if not kind.is_navigation:
            continue
        try:
            starts = np.array(
                [view.next_occurrence_of_kind(kind, p)[1] for p in positions.tolist()],
                dtype=np.int64,
            )
        except KeyError:  # this kind is not aired at all
            continue
        best = starts if best is None else np.minimum(best, starts)
    return best


def _draw_population(
    spec: FleetSpec, n_items: int, n_phases: int, view: Any, timeline: Any, capacity: int
) -> Tuple[np.ndarray, MetricSummary]:
    """One pass over the seeded client draw, kept only as two histograms.

    Returns the client count of every ``(item, phase)`` key and the
    population's first-hop wait summary.  Clients are also counted per
    exact tune-in packet (no phase quantisation there), so the navigation
    seek runs once per *occupied packet* -- at most one cycle's worth, not
    once per client -- and each wait enters the summary weighted by its
    packet's clients.  Nothing per client outlives its draw batch.
    """
    cycle = view.cycle_packets
    counts = np.zeros(n_items * n_phases, dtype=np.int64)
    at_packet = np.zeros(cycle, dtype=np.int64)
    for ids, fracs in _draw_batches(spec, n_items):
        keys = ids * n_phases + (fracs * n_phases).astype(np.int64)
        counts += np.bincount(keys, minlength=counts.size)
        at_packet += np.bincount((fracs * cycle).astype(np.int64), minlength=cycle)
    wait = MetricSummary()
    positions = np.flatnonzero(at_packet)
    if timeline is not None:
        try:
            first = timeline.next_navigation_starts(positions)
        except KeyError:
            first = None
    else:
        first = _nav_starts_scalar(view, positions)
    if first is not None:
        wait.add_weighted((first - positions) * capacity, at_packet[positions])
    return counts, wait


# ---------------------------------------------------------------------------
# Unique-execution simulation (initializer-shared context, per-item batches)
# ---------------------------------------------------------------------------

#: Shared read-only simulation state, installed once per worker process by
#: the pool initializer (and once in-process on the serial path).  The task
#: tuples themselves carry only an item id and its phase keys.
_SIM_CTX: Dict[str, Any] = {}

#: One fleet item: the ``(query, dwell_packets)`` steps one client walks on
#: one session.  A stationary trial is a one-step item.
_Steps = Tuple[Tuple[Any, int], ...]


def _install_sim_ctx(ctx: Dict[str, Any]) -> None:
    """Pool initializer: install the shared state once per worker (and once
    in-process on the serial path).

    :func:`~repro.sim.parallel.parallel_map` forks its workers, so each one
    inherits ``ctx`` -- the view and the timeline compiled on its schedule
    included -- from the parent's memory, and every chunk after that ships
    integers only.
    """
    _SIM_CTX.clear()
    _SIM_CTX.update(ctx)


def _simulate_item_batch(iid: int, phases: Sequence[int]) -> List[Tuple[int, int, int, int]]:
    """Simulate every requested tune-in phase of one item (picklable).

    Each execution walks the item's steps on one fresh session, advancing
    through each step's radio-off dwell between queries.  With the
    context's ``warm`` flag (journeys) the index's ``new_client_state()``
    rides along every hop; without it (stationary trials) every query runs
    cold, because warm state is not neutral even on a first query -- an
    HCI node cache lets a kNN query's range sweep reuse nodes its leaf
    sweeps read.

    Batching by item keeps all per-item invariants -- the steps, their HC
    cover memos, the exact ground-truth answers when verifying -- warm
    across the whole phase sweep, and enables the *landmark collapse*: an
    error-free first hop's absolute trace is a pure function of its first
    entry-structure read (see :meth:`repro.api.protocol.AirIndex.
    entry_landmark`), so two phases sharing it leave the client in the
    identical absolute state -- clock, parked channel, accumulated
    knowledge -- at the end of hop 1.  Every later hop starts from that
    state after a fixed dwell and is therefore identical too; only the
    first hop's access latency differs, by exactly the tune-in offset.  One
    representative is simulated per landmark and its totals shifted per
    phase.  Link errors draw an independent loss realisation per (item,
    phase), so error runs keep one full simulation per phase.

    Returns ``(latency_bytes, tuning_bytes, correct_hops, capped_hops)``
    per phase, summed over the item's hops (``correct_hops`` is -1 when not
    verifying).
    """
    from .runner import execute_query

    ctx = _SIM_CTX
    index = ctx["index"]
    config = ctx["config"]
    view = ctx["view"]
    n_phases = ctx["n_phases"]
    cycle = ctx["cycle"]
    theta = ctx["error_theta"]
    scope = ctx["error_scope"]
    error_seed = ctx["error_seed"]
    knn_strategy = ctx["knn_strategy"]
    capacity = config.packet_capacity
    steps: _Steps = ctx["items"][iid]
    new_state = getattr(index, "new_client_state", None) if ctx["warm"] else None
    truths = None
    if ctx["verify"]:
        from ..queries.ground_truth import answer

        truths = [answer(ctx["dataset"], query) for query, _ in steps]

    def simulate(
        start_packet: int, error_model: Optional[LinkErrorModel]
    ) -> Tuple[int, int, int, int]:
        session = ClientSession(
            view, config, start_packet=start_packet, error_model=error_model
        )
        state = None if new_state is None else new_state()
        lat_packets = tun_bytes = capped_hops = 0
        correct_hops = -1 if truths is None else 0
        for hop, (query, dwell) in enumerate(steps):
            if hop:
                session.next_query(dwell)
            outcome = execute_query(
                index, query, session, knn_strategy=knn_strategy, state=state
            )
            lat_packets += outcome.metrics.latency_packets
            tun_bytes += outcome.metrics.tuning_bytes
            capped_hops += int(getattr(outcome, "iterations_capped", False))
            if truths is not None:
                correct_hops += int(matches_truth(query, truths[hop], outcome.objects))
        return lat_packets, tun_bytes, correct_hops, capped_hops

    landmark = getattr(index, "entry_landmark", None)
    switch = (
        getattr(config, "channel_switch_packets", 0)
        if getattr(view, "home_channel", None) is not None
        else 0
    )
    out: List[Tuple[int, int, int, int]] = []
    # landmark -> (p_rep, lat, tun, ok, capped)
    traces: Dict[Any, Tuple[int, int, int, int, int]] = {}
    for phase in phases:
        phase = int(phase)
        start_packet = (phase * cycle) // n_phases
        if theta is not None:
            # Every client sharing this (item, phase) execution experiences
            # the same loss realisation; distinct executions are independent.
            error_model = LinkErrorModel(
                theta=theta, scope=scope,
                seed=_session_seed(error_seed, iid * n_phases + phase),
            )
            lat_packets, tun_bytes, correct, capped = simulate(start_packet, error_model)
        else:
            mark = None if landmark is None else landmark(view, start_packet + 1, switch)
            if mark is None:
                lat_packets, tun_bytes, correct, capped = simulate(start_packet, None)
            else:
                trace = traces.get(mark)
                if trace is None:
                    lat_packets, tun_bytes, correct, capped = simulate(start_packet, None)
                    traces[mark] = (start_packet, lat_packets, tun_bytes, correct, capped)
                else:
                    # Same absolute trace as the representative execution;
                    # only the tune-in offset differs in latency.
                    p_rep, rep_lat, tun_bytes, correct, capped = trace
                    lat_packets = rep_lat - (start_packet - p_rep)
        out.append((lat_packets * capacity, tun_bytes, correct, capped))
    return out


def _schedule_view(
    index: Any, config: SystemConfig, schedule: Optional[BroadcastSchedule]
) -> Tuple[BroadcastSchedule, Any]:
    """The schedule a run airs and its view: ``schedule`` when given (it must
    air ``index``'s program), else the one ``config`` derives -- built once
    per program and channel count, so a repeated call reuses it and the
    timeline compiled on it."""
    if schedule is None:
        schedule = BroadcastSchedule.for_config(index.program, config)
    elif schedule.base_program is not index.program:
        raise ValueError("schedule was built for a different broadcast program")
    return schedule, schedule.view()


def _run_executions(
    index: Any,
    dataset: SpatialDataset,
    config: SystemConfig,
    view: Any,
    items: List[_Steps],
    key_ids: np.ndarray,
    key_phases: np.ndarray,
    key_counts: np.ndarray,
    n_phases: int,
    *,
    warm: bool,
    label: str,
    workload_name: str,
    error_theta: Optional[float],
    error_scope: str,
    error_seed: int,
    verify: bool,
    knn_strategy: str,
    parallel: bool,
    processes: Optional[int],
) -> Dict[str, Any]:
    """The one execution engine behind fleets, journey fleets and workload
    replays.

    Key ``i`` is item ``key_ids[i]`` tuned in at phase ``key_phases[i]`` of
    ``n_phases`` per cycle, shared by ``key_counts[i]`` clients; keys are
    distinct and sorted by item, and each loses what the model seeded for
    ``item * n_phases + phase`` loses.  Every key runs once -- on the
    lockstep kernels when they accept the run, else on
    :func:`_simulate_item_batch`, serially or sharded over a worker pool
    -- and its outcome is weighted by its clients.  ``warm`` carries the
    index's client state across hops on the reference path; the kernels
    read warmth from the items themselves (see
    :mod:`repro.sim.fleet_kernel`).  Returns the result fields every caller
    shares.
    """
    cycle = view.cycle_packets
    # The structure-of-arrays kernels advance every distinct execution in
    # lockstep as flat arrays, no per-phase python walk.  They decline
    # (KernelUnsupported) anything outside their proven-exact envelope; the
    # decline reason is kept on the result so sweeps can see why a run was
    # slow, and REPRO_PURE forces the reference path.
    backend = "reference"
    backend_reason: Optional[str] = None
    kernel_out = None
    if pure_mode():
        backend_reason = "REPRO_PURE forces the reference path"
    else:
        from .fleet_kernel import KernelUnsupported, _simulate_items

        try:
            kernel_out = _simulate_items(
                index, view, config, items, key_ids, key_phases,
                n_phases=n_phases, cycle=cycle, verify=verify, dataset=dataset,
                error_theta=error_theta, error_scope=error_scope,
                error_seed=error_seed, knn_strategy=knn_strategy,
            )
        except KernelUnsupported as exc:
            backend_reason = str(exc)

    if kernel_out is not None:
        lat_b, tun_b, correct_hops = kernel_out
        backend = "numpy"
        uniq_lat = lat_b.astype(np.float64)
        uniq_tun = tun_b.astype(np.float64)
        # The kernels decline any lane whose search would hit a planner's
        # safety cap, so kernel-run executions are never truncated.
        capped_hops = np.zeros(len(key_ids), dtype=np.int64)
    else:
        # Reference path, batched per item.  A lossless run keeps one task
        # per item: items are contiguous in key order, and one task keeps
        # one landmark collapse over the item's whole phase run, which a
        # cut would restart.  A lossy run has no collapse, so under a pool
        # its large phase runs are split so the pool has a few chunks per
        # worker to balance -- each task ships two ints and a phase list.
        # A 1-worker "pool" adds fork overhead for nothing, so the fan-out
        # degrades to the serial path (identical results either way).
        tasks: List[Tuple[int, List[int]]] = []
        n_workers = processes if processes is not None else default_processes()
        use_parallel = parallel and n_workers > 1
        max_chunk = len(key_ids)
        if use_parallel and error_theta is not None:
            max_chunk = -(-len(key_ids) // max(len(items), 2 * n_workers))
        starts = np.flatnonzero(np.diff(key_ids, prepend=-1))
        for i, start in enumerate(starts):
            stop = starts[i + 1] if i + 1 < len(starts) else len(key_ids)
            iid = int(key_ids[start])
            for at in range(int(start), int(stop), max_chunk):
                tasks.append((iid, key_phases[at:min(at + max_chunk, stop)].tolist()))
        ctx = dict(
            index=index, config=config, view=view, items=items, warm=warm,
            n_phases=n_phases, cycle=cycle, error_theta=error_theta,
            error_scope=error_scope, error_seed=error_seed, verify=verify,
            knn_strategy=knn_strategy,
        )
        if verify:
            ctx["dataset"] = dataset
        try:
            outs = parallel_map(
                _simulate_item_batch,
                tasks,
                processes=processes if use_parallel else 1,
                initializer=_install_sim_ctx,
                initargs=(ctx,),
            )
            sims = [t for out in outs for t in out]
        finally:
            _SIM_CTX.clear()
        uniq_lat = np.array([s[0] for s in sims], dtype=np.float64)
        uniq_tun = np.array([s[1] for s in sims], dtype=np.float64)
        correct_hops = np.array([s[2] for s in sims], dtype=np.int64)
        capped_hops = np.array([s[3] for s in sims], dtype=np.int64)

    # Each distinct execution's outcome, weighted by its clients.
    result = ExperimentResult(index_name=label, workload_name=workload_name)
    result.latency.add_weighted(uniq_lat, key_counts)
    result.tuning.add_weighted(uniq_tun, key_counts)
    if verify:
        n_hops = np.array([len(steps) for steps in items], dtype=np.int64)[key_ids]
        result.correct_trials = int(np.dot(key_counts, correct_hops))
        result.incorrect_trials = int(np.dot(key_counts, n_hops - correct_hops))
    return dict(
        result=result,
        n_executions=len(key_ids),
        unique_latency=uniq_lat,
        unique_tuning=uniq_tun,
        unique_counts=key_counts,
        backend=backend,
        backend_reason=backend_reason,
        capped_executions=int(np.count_nonzero(capped_hops)),
    )


def _run_population(
    index: Any,
    dataset: SpatialDataset,
    config: SystemConfig,
    spec: FleetSpec,
    items: List[_Steps],
    *,
    error_theta: Optional[float],
    schedule: Optional[BroadcastSchedule],
    **engine: Any,
) -> Dict[str, Any]:
    """The fleet front end of :func:`run_fleet` and :func:`run_mobile_fleet`.

    Draws the population once onto ``(item, phase)`` keys -- at most
    ``spec.max_phases`` phases per cycle -- with its first-hop waits, and
    runs the occupied keys on :func:`_run_executions` (``engine`` holds its
    keywords).  Returns the result fields both fleet results share.
    """
    if error_theta is not None and not (0.0 <= error_theta <= 1.0):
        raise ValueError("error_theta must be within [0, 1]")

    t0 = time.perf_counter()
    schedule, view = _schedule_view(index, config, schedule)
    timeline = None if pure_mode() else timeline_of(view)
    cycle = view.cycle_packets
    n_phases = min(cycle, spec.max_phases)
    counts, wait_summary = _draw_population(
        spec, len(items), n_phases, view, timeline, config.packet_capacity
    )
    keys = np.flatnonzero(counts)
    fields = _run_executions(
        index, dataset, config, view, items, keys // n_phases, keys % n_phases,
        counts[keys], n_phases, error_theta=error_theta, **engine,
    )
    fields.update(
        n_clients=spec.n_clients,
        n_phases=n_phases,
        cycle_packets=cycle,
        quantized=n_phases < cycle,
        elapsed_s=time.perf_counter() - t0,
        first_index_wait=wait_summary,
        schedule_policy=getattr(schedule, "policy", "flat"),
    )
    return fields


def run_fleet(
    index: Any,
    dataset: SpatialDataset,
    config: SystemConfig,
    workload: Workload,
    n_clients: int,
    *,
    seed: int = 0,
    max_phases: int = DEFAULT_MAX_PHASES,
    error_theta: Optional[float] = None,
    error_scope: str = "index",
    error_seed: int = 0,
    verify: bool = False,
    knn_strategy: str = "conservative",
    label: Optional[str] = None,
    parallel: bool = False,
    processes: Optional[int] = None,
    schedule: Optional[BroadcastSchedule] = None,
) -> FleetResult:
    """Run ``n_clients`` seeded tune-ins of ``workload`` against ``index``.

    Each trial is a cold one-step journey of the shared fleet engine.  The
    channel topology comes from ``config`` (the schedule the runner would
    air); an explicit ``schedule`` -- e.g. a demand-aware
    :meth:`BroadcastSchedule.optimized` layout of the same program --
    overrides the config-derived one.  Serial and parallel runs produce
    identical results.  See the module docstring for the simulation model.
    """
    spec = FleetSpec(n_clients, seed, max_phases)
    trials = list(workload)
    if not trials:
        raise ValueError(f"workload {workload.name!r} has no trials to assign to clients")
    fields = _run_population(
        index, dataset, config, spec, [((trial.query, 0),) for trial in trials],
        warm=False, label=label or getattr(index, "name", type(index).__name__),
        workload_name=workload.name, error_theta=error_theta,
        error_scope=error_scope, error_seed=error_seed, verify=verify,
        knn_strategy=knn_strategy, parallel=parallel, processes=processes,
        schedule=schedule,
    )
    return FleetResult(**fields)


@dataclass(kw_only=True)
class MobileFleetResult(_PopulationView):
    """Outcome of one moving-fleet run.

    ``result`` carries *journey-total* latency/tuning summaries (one sample
    per client, each the sum over its journey's hops); per-hop means and
    the spatial staleness derive from them through the known hop count and
    the motion model's speed.  The other shared fields are documented on
    :class:`_PopulationView`.
    """

    n_journeys: int
    n_steps: int
    speed: float
    capacity: int

    @property
    def mean_hop_latency_bytes(self) -> float:
        """Population mean access latency of one journey hop."""
        return self.result.latency.mean / self.n_steps

    @property
    def mean_hop_tuning_bytes(self) -> float:
        return self.result.tuning.mean / self.n_steps

    @property
    def mean_staleness(self) -> float:
        """Mean spatial result staleness: how far a client has travelled
        from the position its answer describes when the answer lands."""
        return self.speed * (self.mean_hop_latency_bytes / self.capacity)

    def as_row(self) -> Dict[str, Any]:
        from .report import metric_columns

        row: Dict[str, Any] = {
            "index": self.result.index_name,
            "workload": self.result.workload_name,
            "n_clients": self.n_clients,
            "steps": self.n_steps,
        }
        row.update(metric_columns(self.result.latency, "journey_latency"))
        row.update(metric_columns(self.result.tuning, "journey_tuning"))
        row["hop_latency_bytes"] = self.mean_hop_latency_bytes
        row["hop_tuning_bytes"] = self.mean_hop_tuning_bytes
        row["staleness"] = self.mean_staleness
        return self._engine_columns(row)


def run_mobile_fleet(
    index: Any,
    dataset: SpatialDataset,
    config: SystemConfig,
    trajectories: Any,
    n_clients: int,
    *,
    seed: int = 0,
    max_phases: int = DEFAULT_MAX_PHASES,
    error_theta: Optional[float] = None,
    error_scope: str = "index",
    error_seed: int = 0,
    verify: bool = False,
    knn_strategy: str = "conservative",
    label: Optional[str] = None,
    parallel: bool = False,
    processes: Optional[int] = None,
    schedule: Optional[BroadcastSchedule] = None,
) -> MobileFleetResult:
    """Run ``n_clients`` moving clients through a
    :class:`~repro.mobility.trajectory.TrajectoryWorkload`.

    Each client draws one journey and one tune-in phase and runs it warm;
    identical draws collapse onto distinct (journey, phase) executions, and
    error-free phase sweeps collapse further onto hop-1 entry landmarks (see
    :func:`_simulate_item_batch`), so simulation cost is bounded by the
    distinct warm journeys -- not the fleet size.  Serial and parallel runs
    produce identical results.
    """
    spec = FleetSpec(n_clients, seed, max_phases)
    journeys = list(trajectories)
    if not journeys:
        raise ValueError(
            f"trajectory workload {trajectories.name!r} has no journeys to assign"
        )
    fields = _run_population(
        index, dataset, config, spec,
        [tuple((step.query, step.dwell_packets) for step in j.steps) for j in journeys],
        warm=True, label=label or getattr(index, "name", type(index).__name__),
        workload_name=trajectories.name, error_theta=error_theta,
        error_scope=error_scope, error_seed=error_seed, verify=verify,
        knn_strategy=knn_strategy, parallel=parallel, processes=processes,
        schedule=schedule,
    )
    return MobileFleetResult(
        **fields,
        n_journeys=len(journeys),
        n_steps=trajectories.n_steps,
        speed=getattr(getattr(trajectories, "model", None), "speed", 0.0),
        capacity=config.packet_capacity,
    )
