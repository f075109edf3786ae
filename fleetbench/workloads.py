"""The fleet benchmark's workloads: what each one builds and which call it times.

A workload is a kind of input; a run builds several inputs of it.  Each
input's set-up goes from nothing to a built system (dataset, query
workload, indexes, broadcast schedule); its *call* is what a user of the
simulator repeats: one fleet run per index, serial (``parallel=False``),
on what the set-up built.  Every input is derived from the run's
``--seed``; the program only receives the generated objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.broadcast.config import SystemConfig
from repro.broadcast.schedule import BroadcastSchedule
from repro.mobility import trajectory_workload
from repro.queries.workload import knn_workload, skewed_workload, window_workload
from repro.sim.fleet import run_fleet, run_mobile_fleet
from repro.sim.runner import build_index
from repro.spatial.datasets import uniform_dataset

from spans import Tracer

PACKET_CAPACITY = 64


@dataclass(frozen=True)
class Spec:
    """Parameters of one workload (see README.md for why each exists)."""

    name: str
    index_kinds: Tuple[str, ...]
    n_objects: int
    n_channels: int
    queries: str  # "window", "knn", "hotspot" or "journeys"
    n_queries: int
    n_clients: int
    #: The engine every fleet run of the workload must report.
    backend: str
    #: Clients of the audit fleets rerun under ``REPRO_PURE=1``, split over
    #: the inputs.
    audit_clients: int
    #: Independent inputs (dataset, queries, fleet) built per run: their
    #: differences in work average out instead of setting the run's number.
    inputs: int
    optimized: bool = False
    #: Extra ``run_fleet`` / ``run_mobile_fleet`` keywords.
    fleet_kwargs: Dict[str, Any] = field(default_factory=dict)

    @property
    def lossless(self) -> bool:
        return "error_theta" not in self.fleet_kwargs


WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("dsi_window_4ch", ("dsi",), 600, 4, "window", 20, 100_000, "numpy", 2_000, 8),
        Spec(
            "dsi_knn_4ch", ("dsi",), 600, 4, "knn", 20, 100_000, "numpy", 400, 8,
            fleet_kwargs={"max_phases": 128},
        ),
        Spec(
            "dsi_journeys_4ch", ("dsi",), 600, 4, "journeys", 12, 100_000, "numpy", 800, 8,
            fleet_kwargs={"max_phases": 64},
        ),
        Spec(
            "hotspot_optimized_1ch", ("dsi",), 500, 1, "hotspot", 60, 100_000, "numpy",
            2_000, 8, optimized=True,
        ),
        Spec("tree_population_1m", ("rtree", "hci"), 600, 1, "window", 20, 1_000_000,
             "numpy", 2_000, 8),
        Spec(
            "lossy_reference_1ch", ("dsi",), 600, 1, "window", 20, 20_000, "reference",
            2_000, 6,
            fleet_kwargs={"error_theta": 0.05, "error_scope": "all", "max_phases": 64},
        ),
    )
}

#: Journeys: waypoint motion, five window hops, 1,500 packets of dwell.
JOURNEY_STEPS = 5
JOURNEY_DWELL = 1_500
#: Hotspot schedule: airtime budget of the demand-optimized layout.
HOTSPOT_BUDGET = 1.8


@dataclass(frozen=True)
class Seeds:
    """Independent seeds for each generated input of one run input."""

    dataset: int
    queries: int
    fleet: int
    error: int

    @classmethod
    def derive(cls, seed: int, k: int) -> "Seeds":
        """The seeds of input ``k`` of a run with ``--seed seed``."""
        return cls(*(int(s) for s in np.random.SeedSequence([seed, k]).generate_state(4)))


@dataclass
class Bench:
    """The inputs one set-up built, and the fleet call they serve."""

    spec: Spec
    seeds: Seeds
    dataset: Any
    config: SystemConfig
    workload: Any
    indexes: List[Any]
    #: The optimized layout the fleet airs, or ``None`` for the flat one
    #: ``run_fleet`` derives from the config in every call.
    schedule: Optional[BroadcastSchedule]

    def fleet_kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.spec.fleet_kwargs)
        if not self.spec.lossless:
            kwargs["error_seed"] = self.seeds.error
        return kwargs

    def run(self, index: Any, n_clients: int, seed: int, **extra: Any) -> Any:
        """One serial fleet run of ``index``."""
        kwargs = {**self.fleet_kwargs(), **extra, "parallel": False}
        if self.spec.queries == "journeys":
            return run_mobile_fleet(
                index, self.dataset, self.config, self.workload, n_clients,
                seed=seed, **kwargs,
            )
        return run_fleet(
            index, self.dataset, self.config, self.workload, n_clients,
            seed=seed, schedule=self.schedule, **kwargs,
        )

    def call(self) -> List[Any]:
        """The timed unit: one fleet run per index, on the run's fleet seed."""
        return [self.run(index, self.spec.n_clients, self.seeds.fleet) for index in self.indexes]


def _query_workload(spec: Spec, seed: int) -> Any:
    if spec.queries == "window":
        return window_workload(spec.n_queries, 0.1, seed=seed)
    if spec.queries == "knn":
        return knn_workload(spec.n_queries, k=10, seed=seed)
    if spec.queries == "hotspot":
        return skewed_workload(spec.n_queries, zipf_s=1.1, seed=seed)
    return trajectory_workload(
        spec.n_queries, JOURNEY_STEPS, "waypoint", query="window",
        win_side_ratio=0.1, dwell_packets=JOURNEY_DWELL, seed=seed,
    )


def build(spec: Spec, seeds: Seeds, tracer: Tracer) -> Bench:
    """Set up a workload from nothing, one span per layer."""
    config = SystemConfig(packet_capacity=PACKET_CAPACITY, n_channels=spec.n_channels)
    with tracer.span("spatial.dataset"):
        dataset = uniform_dataset(spec.n_objects, seed=seeds.dataset)
    with tracer.span("queries.workload"):
        workload = _query_workload(spec, seeds.queries)
    with tracer.span("index.build"):
        indexes = [build_index(kind, dataset, config, use_cache=False) for kind in spec.index_kinds]
    schedule = None
    with tracer.span("sched.build"):
        if spec.optimized:
            with tracer.span("sched.demand"):
                demand = workload.bucket_demand(indexes[0], dataset)
            with tracer.span("sched.optimize"):
                schedule = BroadcastSchedule.optimized(
                    indexes[0].program, demand, channels=spec.n_channels,
                    budget=HOTSPOT_BUDGET,
                )
        else:
            # Flat fleets derive their schedule inside every call; set-up
            # only records what building one costs.
            for index in indexes:
                BroadcastSchedule.for_config(index.program, config)
    return Bench(spec, seeds, dataset, config, workload, indexes, schedule)
