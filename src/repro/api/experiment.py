"""The fluent experiment builder: declare a comparison, run it, get rows.

Every figure of the paper is "run the same workload against several indexes
while sweeping one parameter".  :class:`Experiment` captures that shape as
a small builder so new scenarios read like the sentence describing them::

    rows = (
        Experiment(dataset)
        .indexes("dsi", "rtree", "hci")
        .window_workload(n_queries=50, win_side_ratio=0.1, seed=42)
        .sweep(capacity=[64, 128, 256, 512])
        .run(parallel=True)
        .rows
    )

The figure drivers in :mod:`repro.sim.sweep` run on the builder, and a
single-point experiment compares several indexes on one workload.
Determinism rules are the same as the sweeps':
all randomness flows through explicit seeds carried by the declared
workloads, so serial and parallel runs produce bit-identical rows in
identical order.  Index builds go through the registry's build cache.

Sweep axes:

* ``capacity`` (or any :class:`SystemConfig` field name) varies the system
  configuration;
* ``channels`` varies the channel topology (declare with
  :meth:`Experiment.channels`): 1 is the classic single broadcast channel,
  ``k >= 2`` airs the index on a control channel and stripes data over
  ``k - 1`` data channels;
* ``fleet`` varies the client population (declare with
  :meth:`Experiment.fleet`): each cell then runs a population-scale
  fleet with exact population metrics instead of one client per trial,
  and rows gain ``n_clients`` plus percentile columns;
* ``win_side_ratio``, ``k``, ``n_queries``, ``seed`` vary the declared
  generated workloads;
* ``theta`` varies the link-error ratio (requires error parameters, or
  defaults to the paper's index-scope model).

Multiple axes form a cartesian product in declaration order.

Every cell -- per-trial, fleet or mobility -- runs through one cell runner
on the fleet engine (:mod:`repro.sim.fleet`).  Cells differ only in their
keys (one client per trial at its own tune-in packet, or a seeded fleet
draw), their items (trials run cold, mobility journeys warm) and their row
columns, and they read one channel: :meth:`Experiment.errors` resolves to
one ``(theta, scope, seed)`` per sweep point, seed 0 when none is given.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..broadcast.config import SystemConfig
from ..broadcast.errors import LinkErrorModel
from ..queries.workload import Workload, knn_workload, window_workload
from ..sim.metrics import ExperimentResult
from ..sim.parallel import parallel_map
from ..spatial.datasets import SpatialDataset
from .registry import IndexSpec, build_index, default_specs, index_entry, resolve_spec

__all__ = ["Axis", "Experiment", "ExperimentRun", "PointResult", "RunRecord"]


class Axis:
    """Marker referencing a sweep axis inside :meth:`Experiment.tag`.

    ``.tag(figure="11", capacity=Axis("capacity"), k=10)`` places the
    swept capacity between the static tags, which fixes the column order of
    the produced rows.  Axes not referenced by any tag are appended after
    the tags automatically.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Axis({self.name!r})"


#: Workload-generation parameters a sweep axis may override.
_WINDOW_PARAMS = ("n_queries", "win_side_ratio", "seed")
_KNN_PARAMS = ("n_queries", "k", "seed")


@dataclass(frozen=True)
class _WorkloadDecl:
    """One declared workload: a concrete instance or a seeded generator."""

    kind: str                      # "window" | "knn" | "fixed"
    label: str
    params: Tuple[Tuple[str, Any], ...] = ()
    workload: Optional[Workload] = None

    def realise(self, overrides: Dict[str, Any]) -> Workload:
        if self.kind == "fixed":
            touched = [k for k in overrides if k in _WINDOW_PARAMS + _KNN_PARAMS]
            if touched:
                raise ValueError(
                    f"cannot sweep {touched} over a fixed workload "
                    f"{self.workload.name!r}; declare the workload with "
                    "window_workload()/knn_workload() instead"
                )
            return self.workload
        allowed = _WINDOW_PARAMS if self.kind == "window" else _KNN_PARAMS
        merged = dict(self.params)
        merged.update({k: v for k, v in overrides.items() if k in allowed})
        maker = window_workload if self.kind == "window" else knn_workload
        return maker(**merged)


@dataclass(frozen=True)
class RunRecord:
    """One (workload, index) cell of a sweep point."""

    workload: str
    spec: IndexSpec
    result: ExperimentResult


@dataclass
class PointResult:
    """Everything measured at one sweep point."""

    params: Dict[str, Any]
    config: SystemConfig
    records: List[RunRecord] = field(default_factory=list)
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def by_index(self, workload: Optional[str] = None) -> "OrderedDict[str, ExperimentResult]":
        """Results keyed by index display name (optionally one workload)."""
        out: "OrderedDict[str, ExperimentResult]" = OrderedDict()
        for record in self.records:
            if workload is not None and record.workload != workload:
                continue
            out[record.spec.display_name] = record.result
        return out


@dataclass
class ExperimentRun:
    """The outcome of :meth:`Experiment.run`: one :class:`PointResult` per
    sweep point, plus the flattened figure rows."""

    points: List[PointResult]

    @property
    def rows(self) -> List[Dict[str, Any]]:
        return [row for point in self.points for row in point.rows]

    @property
    def kernel_coverage(self) -> "OrderedDict[str, Any]":
        """Backend coverage across the grid's fleet rows.

        Aggregates every row's ``backend``/``backend_reason`` (fleet and
        mobility cells tag them; figure cells are skipped) via
        :func:`repro.sim.report.kernel_coverage` -- the at-a-glance check
        that the structure-of-arrays kernels still carry the grid and the
        reference fallback only fires for its documented decline reasons.
        """
        from ..sim.report import kernel_coverage

        return kernel_coverage(self.rows)

    def results(self) -> "OrderedDict[str, ExperimentResult]":
        """Results of a single-point run keyed by index display name."""
        if len(self.points) != 1:
            raise ValueError(
                f"results() needs a single-point run, got {len(self.points)} points; "
                "use .points / .rows for sweeps"
            )
        return self.points[0].by_index()


class Experiment:
    """Fluent builder for index comparisons and parameter sweeps.

    All configuration methods mutate the builder and return ``self``; call
    :meth:`run` to execute.  See the module docstring for an example.
    """

    def __init__(self, dataset: SpatialDataset, name: Optional[str] = None) -> None:
        self.dataset = dataset
        self.name = name or f"experiment-{dataset.name}"
        self._specs: Optional[List[IndexSpec]] = None
        self._base_config: SystemConfig = SystemConfig()
        self._workloads: List[_WorkloadDecl] = []
        self._error_model: Optional[LinkErrorModel] = None
        self._error_params: Optional[Dict[str, Any]] = None
        self._verify: bool = False
        self._use_cache: bool = True
        self._axes: "OrderedDict[str, List[Any]]" = OrderedDict()
        self._tags: "OrderedDict[str, Any]" = OrderedDict()
        self._fleet_n: Optional[int] = None
        self._fleet_seed: int = 0
        self._fleet_max_phases: Optional[int] = None
        self._channels_n: Optional[int] = None
        self._mobility: Optional[Dict[str, Any]] = None
        self._mobility_steps: Optional[int] = None
        self._sched_policy: Optional[str] = None
        self._sched_budget: float = 1.5

    # -- declaration -----------------------------------------------------------

    def indexes(self, *specs: Union[str, IndexSpec]) -> "Experiment":
        """The contenders, as registered kind names or :class:`IndexSpec`."""
        if not specs:
            raise ValueError("indexes() needs at least one spec")
        self._specs = [resolve_spec(spec) for spec in specs]
        for spec in self._specs:
            index_entry(spec.kind)  # fail fast on unknown kinds
        return self

    def config(self, config: Optional[SystemConfig] = None, **overrides: Any) -> "Experiment":
        """The base system configuration (overridden per point by sweeps)."""
        base = config if config is not None else self._base_config
        if overrides:
            base = dataclasses.replace(base, **overrides)
        self._base_config = base
        return self

    def workload(self, workload: Workload, label: Optional[str] = None) -> "Experiment":
        """Add a concrete (pre-generated) workload."""
        self._workloads.append(
            _WorkloadDecl(kind="fixed", label=label or workload.name, workload=workload)
        )
        return self

    def window_workload(
        self, n_queries: int = 50, win_side_ratio: float = 0.1, seed: int = 42,
        label: str = "window",
    ) -> "Experiment":
        """Add a seeded window-query workload (regenerated per sweep point)."""
        params = (("n_queries", n_queries), ("win_side_ratio", win_side_ratio), ("seed", seed))
        self._workloads.append(_WorkloadDecl(kind="window", label=label, params=params))
        return self

    def knn_workload(
        self, n_queries: int = 50, k: int = 10, seed: int = 42, label: str = "knn"
    ) -> "Experiment":
        """Add a seeded kNN workload (regenerated per sweep point)."""
        params = (("n_queries", n_queries), ("k", k), ("seed", seed))
        self._workloads.append(_WorkloadDecl(kind="knn", label=label, params=params))
        return self

    def errors(
        self,
        model: Optional[LinkErrorModel] = None,
        *,
        theta: Optional[float] = None,
        scope: str = "index",
        seed: Optional[int] = None,
    ) -> "Experiment":
        """Make the channel lossy.

        Pass a :class:`LinkErrorModel` instance, or ``theta=``/``scope=``/
        ``seed=`` (the form a ``theta`` sweep axis varies).  Either way every
        cell -- per-trial, fleet or mobility -- runs on the same
        ``(theta, scope, seed)``: a model gives its own three fields, and a
        declaration without a seed uses seed 0, so a run's rows are a pure
        function of the declaration.  A loss depends only on the seed and
        the airing an execution reads (each execution runs on the model
        re-seeded for its own key), so rows do not depend on index order or
        on serial versus parallel runs.
        """
        if model is not None and theta is not None:
            raise ValueError("pass either a model instance or theta=, not both")
        self._error_model = model
        self._error_params = (
            None if model is not None
            else {"theta": theta, "scope": scope, "seed": seed}
        )
        return self

    def verify(self, flag: bool = True) -> "Experiment":
        """Check every answer against brute-force ground truth."""
        self._verify = bool(flag)
        return self

    def use_cache(self, flag: bool = True) -> "Experiment":
        """Toggle the registry's index-build cache (default on)."""
        self._use_cache = bool(flag)
        return self

    def channels(self, *counts: int) -> "Experiment":
        """The channel topology: one count fixes it, several sweep it.

        ``channels(4)`` airs every run over a control channel plus three
        striped data channels; ``channels(1, 2, 4)`` declares a ``channels``
        sweep axis.  See :class:`repro.broadcast.schedule.BroadcastSchedule`.
        """
        if not counts:
            raise ValueError("channels() needs at least one channel count")
        for n in counts:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValueError(f"channel counts must be positive ints, got {n!r}")
        if len(counts) == 1:
            # Kept as its own declaration (not folded into the base config)
            # so a later .config(...) call cannot silently discard it.
            self._channels_n = counts[0]
            self._axes.pop("channels", None)
        else:
            self._channels_n = None
            self.sweep(channels=list(counts))
        return self

    def schedule_policy(
        self,
        *policies: str,
        budget: float = 1.5,
    ) -> "Experiment":
        """How each cell's broadcast cycle is laid out on the air.

        ``schedule_policy("optimized")`` airs every cell demand-aware: the
        cell's realized workload is ground-truthed into a per-bucket
        :class:`~repro.broadcast.demand.DemandProfile` and the cycle is
        re-sequenced (hot frames repeated, evenly spaced) by the tree
        search in :mod:`repro.sched` under the given airtime ``budget``.
        ``schedule_policy("flat", "optimized")`` declares a
        ``schedule_policy`` sweep axis, so rows compare both layouts over
        identical fleets.  The default (no call) airs the flat layout.
        """
        if not policies:
            raise ValueError("schedule_policy() needs at least one policy")
        for policy in policies:
            if policy not in ("flat", "optimized"):
                raise ValueError(
                    f"policies must be 'flat' or 'optimized', got {policy!r}"
                )
        if budget < 1.0:
            raise ValueError(f"budget must be >= 1.0, got {budget}")
        self._sched_budget = budget
        if len(policies) == 1:
            self._sched_policy = policies[0]
            self._axes.pop("schedule_policy", None)
        else:
            self._sched_policy = None
            self.sweep(schedule_policy=list(dict.fromkeys(policies)))
        return self

    def fleet(
        self,
        *sizes: int,
        seed: int = 0,
        max_phases: Optional[int] = None,
    ) -> "Experiment":
        """Run each cell as a population-scale client fleet.

        ``fleet(100_000)`` fixes the population; ``fleet(1_000, 100_000)``
        declares a ``fleet`` sweep axis.  A cell without a fleet replays one
        client per trial, each at its own tune-in packet; a fleet cell runs
        the same engine on a seeded draw of that many clients over the
        declared workloads' queries (:func:`repro.sim.fleet.run_fleet`:
        exact summaries, memory flat in population).  ``seed`` drives the
        client draws and ``max_phases`` bounds the tune-in phase resolution.
        """
        if not sizes:
            raise ValueError("fleet() needs at least one population size")
        for n in sizes:
            if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
                raise ValueError(f"fleet sizes must be positive ints, got {n!r}")
        if max_phases is not None and max_phases < 1:
            raise ValueError(f"max_phases must be at least 1, got {max_phases}")
        self._fleet_seed = seed
        self._fleet_max_phases = max_phases
        if len(sizes) == 1:
            self._fleet_n = sizes[0]
            self._axes.pop("fleet", None)
        else:
            self._fleet_n = sizes[0]
            self.sweep(fleet=list(sizes))
        return self

    def mobility(
        self,
        *steps: int,
        model: Any = None,
        n_journeys: int = 16,
        query: str = "window",
        win_side_ratio: float = 0.1,
        k: int = 10,
        dwell_packets: Optional[int] = None,
        seed: int = 42,
    ) -> "Experiment":
        """Make every cell a *moving* fleet of journey-scale clients.

        ``mobility(5)`` fixes the journey length at five hops;
        ``mobility(2, 5, 10)`` declares a ``steps`` sweep axis.  Cells then
        draw their queries from a seeded
        :class:`~repro.mobility.trajectory.TrajectoryWorkload`
        (``n_journeys`` distinct journeys under ``model`` -- a
        :class:`~repro.mobility.motion.MotionModel` or a registered name --
        with ``query``/``win_side_ratio``/``k`` shaping the per-hop
        queries) instead of declared workloads, and run through
        :func:`repro.sim.fleet.run_mobile_fleet`; rows gain journey
        columns (``journey_latency_bytes``, ``journey_tuning_bytes``,
        ``hop_latency_bytes``, ``staleness``).  Requires fleet mode
        (:meth:`fleet`).
        """
        from ..mobility.trajectory import DEFAULT_DWELL_PACKETS

        if not steps:
            raise ValueError("mobility() needs at least one journey length")
        for n in steps:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValueError(f"journey lengths must be positive ints, got {n!r}")
        self._mobility = {
            "model": model,
            "n_journeys": n_journeys,
            "query": query,
            "win_side_ratio": win_side_ratio,
            "k": k,
            "dwell_packets": (
                DEFAULT_DWELL_PACKETS if dwell_packets is None else dwell_packets
            ),
            "seed": seed,
        }
        self._mobility_steps = steps[0]
        if len(steps) == 1:
            self._axes.pop("steps", None)
        else:
            self.sweep(steps=list(steps))
        return self

    def sweep(self, **axes: Iterable[Any]) -> "Experiment":
        """Declare sweep axes; multiple axes form a cartesian product."""
        for name, values in axes.items():
            values = list(values)
            if not values:
                raise ValueError(f"sweep axis {name!r} needs at least one value")
            self._axes[name] = values
        return self

    def tag(self, **tags: Any) -> "Experiment":
        """Constant row columns (or :class:`Axis` references) for reporting."""
        self._tags.update(tags)
        return self

    # -- execution -------------------------------------------------------------

    def run(self, processes: Optional[int] = None, parallel: bool = True) -> ExperimentRun:
        """Execute the experiment.

        Points fan out over worker processes via
        :func:`repro.sim.parallel.parallel_map` (``parallel=False`` or
        ``processes=1`` force a serial run); rows are identical either way.
        """
        if not self._workloads and self._mobility is None:
            raise ValueError("declare at least one workload (or mobility) before run()")
        self._validate_axes()
        points = self._expand_points()
        tasks = [(self, params) for params in points]
        per_point = parallel_map(
            _run_point, tasks, processes=1 if not parallel else processes
        )
        return ExperimentRun(points=list(per_point))

    # -- internals -------------------------------------------------------------

    def _expand_points(self) -> List[Dict[str, Any]]:
        if not self._axes:
            return [{}]
        names = list(self._axes)
        return [dict(zip(names, combo)) for combo in product(*self._axes.values())]

    def _config_at(self, params: Dict[str, Any]) -> SystemConfig:
        config = self._base_config
        if self._channels_n is not None:
            config = config.with_channels(self._channels_n)
        fields = {f.name for f in dataclasses.fields(SystemConfig)}
        for name, value in params.items():
            if name == "capacity":
                config = config.with_capacity(value)
            elif name == "channels":
                config = config.with_channels(value)
            elif name in fields:
                config = dataclasses.replace(config, **{name: value})
        return config

    def _specs_at(self, config: SystemConfig) -> List[IndexSpec]:
        specs = self._specs if self._specs is not None else default_specs()
        return [spec for spec in specs if index_entry(spec.kind).is_supported(config)]

    def _errors_at(self, params: Dict[str, Any]) -> Optional[Tuple[float, str, int]]:
        """The channel at one sweep point as ``(theta, scope, seed)``, or
        ``None`` when lossless -- the one error rule of every cell."""
        if self._error_model is not None:
            model = self._error_model
            return model.theta, model.scope, model.seed
        declared = self._error_params or {"theta": None, "scope": "index", "seed": None}
        theta = params.get("theta", declared["theta"])
        if theta is None:
            return None
        seed = declared["seed"]
        return theta, declared["scope"], 0 if seed is None else seed

    def _workloads_at(self, params: Dict[str, Any]) -> List[Tuple[str, Any]]:
        """``(label, workload)`` of every workload at one sweep point: the
        declared ones, or the one trajectory workload of mobility cells."""
        if self._mobility is None:
            return [(decl.label, decl.realise(params)) for decl in self._workloads]
        from ..mobility.trajectory import trajectory_workload

        trajectories = trajectory_workload(
            n_steps=params.get("steps", self._mobility_steps), **self._mobility
        )
        return [(trajectories.name, trajectories)]

    def _row_extras(self, params: Dict[str, Any]) -> "OrderedDict[str, Any]":
        extras: "OrderedDict[str, Any]" = OrderedDict()
        referenced = set()
        for key, value in self._tags.items():
            if isinstance(value, Axis):
                extras[key] = params[value.name]
                referenced.add(value.name)
            else:
                extras[key] = value
        for axis in self._axes:
            if axis not in referenced:
                extras[axis] = params[axis]
        return extras

    def _validate_axes(self) -> None:
        """Every axis must actually vary something -- a silently inert axis
        would label rows with values that were never applied."""
        fields = {f.name for f in dataclasses.fields(SystemConfig)}
        known = {
            "capacity", "channels", "fleet", "theta", "steps", "schedule_policy",
            *fields, *_WINDOW_PARAMS, *_KNN_PARAMS,
        }
        unknown = [a for a in self._axes if a not in known]
        if unknown:
            raise ValueError(
                f"unknown sweep axes {unknown}; axes must name a SystemConfig "
                "field (or 'capacity'/'channels'), a workload parameter, "
                "'fleet', 'steps', or 'theta'"
            )
        if "fleet" in self._axes and self._fleet_n is None:
            raise ValueError(
                "a 'fleet' sweep axis needs fleet mode; declare the sizes "
                "with .fleet(...) instead of sweep(fleet=...)"
            )
        if "steps" in self._axes and self._mobility is None:
            raise ValueError(
                "a 'steps' sweep axis needs mobility mode; declare the journey "
                "lengths with .mobility(...) instead of sweep(steps=...)"
            )
        if self._mobility is not None:
            if self._fleet_n is None:
                raise ValueError(
                    "mobility cells run as moving fleets; declare the "
                    "population with .fleet(...) before .mobility(...)"
                )
            if self._workloads:
                raise ValueError(
                    "mobility cells derive their queries from the trajectory "
                    "workload; do not declare workloads alongside .mobility(...)"
                )
            for value in self._axes.get("steps", ()):
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ValueError(
                        f"steps axis values must be positive ints, got {value!r}"
                    )
        # Axis values declared through raw sweep() get the same up-front
        # validation as the .fleet()/.channels() declarations, so a bad size
        # fails here instead of deep inside a forked point worker.
        for value in self._axes.get("schedule_policy", ()):
            if value not in ("flat", "optimized"):
                raise ValueError(
                    f"schedule_policy axis values must be 'flat' or "
                    f"'optimized', got {value!r}"
                )
        for axis, check, noun in (
            ("fleet", lambda v: v > 0, "positive ints"),
            ("channels", lambda v: v >= 1, "ints >= 1"),
        ):
            for value in self._axes.get(axis, ()):
                if not isinstance(value, int) or isinstance(value, bool) or not check(value):
                    raise ValueError(f"{axis} axis values must be {noun}, got {value!r}")
        if "theta" in self._axes and self._error_model is not None:
            raise ValueError(
                "a theta sweep cannot vary a shared LinkErrorModel instance; "
                "declare the channel with errors(theta=..., scope=..., seed=...) "
                "(or no errors() call at all) instead"
            )
        accepted = set()
        for decl in self._workloads:
            if decl.kind == "window":
                accepted.update(_WINDOW_PARAMS)
            elif decl.kind == "knn":
                accepted.update(_KNN_PARAMS)
        for axis in self._axes:
            if (
                axis in ("capacity", "channels", "fleet", "theta", "steps", "schedule_policy")
                or axis in fields
            ):
                continue
            if axis not in accepted:
                raise ValueError(
                    f"sweep axis {axis!r} is not consumed by any declared "
                    "workload; declare a matching window_workload()/"
                    "knn_workload() (fixed workloads cannot be swept)"
                )


def _optimized_schedule(
    experiment: Experiment,
    index: Any,
    config: SystemConfig,
    demand_queries: Sequence[Any],
):
    """A demand-aware schedule for one cell: the cell's queries ground-truth
    into a bucket demand profile, and the tree search lays the cycle out."""
    from ..broadcast.demand import DemandProfile
    from ..broadcast.schedule import BroadcastSchedule

    demand = DemandProfile.from_queries(
        index.program, experiment.dataset, demand_queries
    )
    return BroadcastSchedule.optimized(
        index.program,
        demand,
        channels=getattr(config, "n_channels", 1),
        budget=experiment._sched_budget,
    )


def _run_point(experiment: Experiment, params: Dict[str, Any]) -> PointResult:
    """Run one sweep point (module-level so it pickles into workers)."""
    config = experiment._config_at(params)
    point = PointResult(params=params, config=config)
    specs = experiment._specs_at(config)
    extras = experiment._row_extras(params)
    errors = experiment._errors_at(params)
    workloads = experiment._workloads_at(params)
    # One build per spec per point, even with several workloads and the
    # cache off (building is the dominant cost the build cache exists for).
    built = {
        spec: build_index(spec, experiment.dataset, config, use_cache=experiment._use_cache)
        for spec in specs
    }
    for label, workload in workloads:
        for spec in specs:
            row: Dict[str, Any] = {"index": spec.display_name}
            if len(workloads) > 1:
                row["workload"] = label
            row.update(extras)
            result = _run_cell(
                experiment, params, config, spec, built[spec], workload, errors, row
            )
            point.records.append(RunRecord(workload=label, spec=spec, result=result))
            point.rows.append(row)
    return point


def _run_cell(
    experiment: Experiment,
    params: Dict[str, Any],
    config: SystemConfig,
    spec: IndexSpec,
    index: Any,
    workload: Any,
    errors: Optional[Tuple[float, str, int]],
    row: Dict[str, Any],
) -> ExperimentResult:
    """One (workload, index) cell, on the fleet engine (:mod:`repro.sim.fleet`).

    Cells differ only in their keys -- explicit, one client per trial at its
    own tune-in packet (:func:`~repro.sim.runner.run_workload`), or drawn
    for a fleet -- in their items -- trials run cold, mobility journeys
    warm (:func:`~repro.sim.fleet.run_mobile_fleet`) -- and in the columns
    they add to ``row``.
    """
    from ..sim.fleet import DEFAULT_MAX_PHASES, run_fleet, run_mobile_fleet
    from ..sim.runner import run_workload

    mobility = experiment._mobility is not None
    policy = params.get("schedule_policy", experiment._sched_policy)
    schedule = None
    if policy == "optimized":
        # Journey hops are the demand source of a mobility cell: every
        # step's query weighs the buckets its ground-truth answer lives in.
        queries = (
            [step.query for journey in workload for step in journey.steps]
            if mobility else [trial.query for trial in workload]
        )
        schedule = _optimized_schedule(experiment, index, config, queries)
    theta, scope, seed = errors or (None, "index", 0)
    common = dict(
        verify=experiment._verify, knn_strategy=spec.knn_strategy,
        label=spec.display_name, schedule=schedule,
    )
    fleet_n = params.get("fleet", experiment._fleet_n)
    if fleet_n is None:
        result = run_workload(
            index, experiment.dataset, config, workload,
            error_model=None if errors is None else LinkErrorModel(theta, scope, seed),
            **common,
        )
        row["latency_bytes"] = result.mean_latency_bytes
        row["tuning_bytes"] = result.mean_tuning_bytes
        row["accuracy"] = result.accuracy
        if policy is not None:
            row["schedule_policy"] = "flat" if schedule is None else schedule.policy
        return result
    run = run_mobile_fleet if mobility else run_fleet
    out = run(
        index, experiment.dataset, config, workload, fleet_n,
        seed=experiment._fleet_seed,
        max_phases=experiment._fleet_max_phases or DEFAULT_MAX_PHASES,
        error_theta=theta, error_scope=scope, error_seed=seed, **common,
    )
    columns = out.as_row()
    # Rows must be bit-identical between serial and parallel runs; throughput
    # is wall-clock and stays on the fleet result.  A steps axis already
    # labels the row.
    for key in ("index", "workload", "clients_per_sec"):
        columns.pop(key, None)
    if "steps" in experiment._axes:
        columns.pop("steps", None)
    row.update(columns)
    return out.result
