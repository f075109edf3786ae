"""The broadcast server: the paper's system, server side.

A :class:`BroadcastServer` owns a dataset, the broadcast system parameters
and one built air index, and airs the index's packet cycle.  It is the
entry point the examples and new scenarios read from: build a server,
attach :class:`~repro.api.client.MobileClient` instances to it, run
queries.  Index resolution goes through the registry, so any registered
strategy (built-in or third-party) can be aired::

    server = BroadcastServer(dataset, SystemConfig(packet_capacity=64), index="dsi")
    client = server.client(seed=42)
    result = client.window_query(rect)
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from ..broadcast.config import DEFAULT_CONFIG, SystemConfig
from ..broadcast.errors import LinkErrorModel
from ..broadcast.schedule import BroadcastSchedule
from ..spatial.datasets import SpatialDataset
from .protocol import ensure_air_index
from .registry import IndexSpec, build_index, resolve_spec

__all__ = ["BroadcastServer"]


class BroadcastServer:
    """A broadcast server airing one spatial index over one dataset.

    ``index`` may be a registered kind name (``"dsi"``, ``"rtree"``, ...),
    an :class:`~repro.api.registry.IndexSpec`, or an already-built index
    instance satisfying the :class:`~repro.api.protocol.AirIndex` protocol.
    Builds go through the registry's build cache by default.

    ``channels`` overrides the configuration's channel topology: 1 airs the
    classic single flat cycle, ``k >= 2`` airs the index on a fast control
    channel and stripes data frames across ``k - 1`` data channels (see
    :class:`~repro.broadcast.schedule.BroadcastSchedule`).

    ``schedule_policy="optimized"`` airs a demand-aware layout instead of
    the flat one: hot data frames (per ``demand``) repeat within the
    macro-cycle, spaced by the tree search in :mod:`repro.sched`.
    ``demand`` may be a :class:`~repro.broadcast.demand.DemandProfile`, a
    :class:`~repro.queries.workload.Workload` (its ground-truth bucket
    demand is extracted), or ``None`` (uniform demand over data buckets);
    ``budget`` bounds the replicated data airtime as a multiple of flat.
    """

    def __init__(
        self,
        dataset: SpatialDataset,
        config: Optional[SystemConfig] = None,
        index: Union[str, IndexSpec, Any] = "dsi",
        *,
        channels: Optional[int] = None,
        use_cache: bool = True,
        schedule_policy: str = "flat",
        demand: Optional[Any] = None,
        budget: float = 1.5,
    ) -> None:
        self.dataset = dataset
        self.config = config if config is not None else DEFAULT_CONFIG
        if channels is not None:
            self.config = self.config.with_channels(channels)
        if isinstance(index, (str, IndexSpec)):
            self.spec: Optional[IndexSpec] = resolve_spec(index)
            self.index = build_index(self.spec, dataset, self.config, use_cache=use_cache)
        else:
            self.spec = None
            self.index = ensure_air_index(index)
        self.schedule = BroadcastSchedule.for_config(self.index.program, self.config)
        if schedule_policy not in ("flat", "optimized"):
            raise ValueError(
                f"schedule_policy must be 'flat' or 'optimized', got {schedule_policy!r}"
            )
        if schedule_policy == "optimized":
            self.optimize_schedule(demand, budget=budget)

    # -- the aired program -----------------------------------------------------

    @property
    def program(self):
        """The flat broadcast program (packet cycle) this server airs.

        With a multi-channel schedule this is still the logical base cycle;
        :attr:`schedule` holds the per-channel layout.
        """
        return self.index.program

    @property
    def n_channels(self) -> int:
        return self.schedule.n_channels

    @property
    def schedule_policy(self) -> str:
        """``"flat"`` or ``"optimized"`` -- how the aired cycle is laid out."""
        return getattr(self.schedule, "policy", "flat")

    @property
    def knn_strategy(self) -> str:
        """The DSI kNN search every client and fleet of this server runs:
        the spec's ``knn_strategy``, else ``"conservative"`` (a prebuilt
        index has no spec).  Indexes other than DSI ignore it."""
        return self.spec.knn_strategy if self.spec is not None else "conservative"

    def optimize_schedule(
        self,
        demand: Optional[Any] = None,
        *,
        budget: float = 1.5,
    ) -> BroadcastSchedule:
        """Re-air the cycle on a demand-aware schedule (in place).

        ``demand`` as in the constructor.  Returns the new schedule; the
        optimizer never does worse than flat under its own cost model (the
        flat layout competes as a candidate), so with uniform demand this
        typically keeps the flat layout.
        """
        from ..broadcast.demand import DemandProfile
        from ..queries.workload import Workload

        if demand is None:
            demand = DemandProfile.uniform(self.program)
        elif isinstance(demand, Workload):
            demand = demand.bucket_demand(self.index, self.dataset)
        self.schedule = BroadcastSchedule.optimized(
            self.program,
            demand,
            channels=self.config.n_channels,
            budget=budget,
        )
        return self.schedule

    @property
    def cycle_packets(self) -> int:
        """Length of one broadcast cycle, in packets."""
        return self.program.cycle_packets

    @property
    def tune_cycle_packets(self) -> int:
        """Range of distinct tune-in positions (the longest channel cycle)."""
        return self.schedule.cycle_packets

    @property
    def cycle_bytes(self) -> int:
        """Length of one broadcast cycle, in bytes."""
        return self.program.cycle_bytes(self.config.packet_capacity)

    # -- reporting -------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """The index's build summary (see :meth:`AirIndex.describe`)."""
        return self.index.describe()

    def stats(self) -> Dict[str, object]:
        """Program-level statistics of the aired cycle."""
        stats: Dict[str, object] = {
            "index": getattr(self.index, "name", type(self.index).__name__),
            "dataset": self.dataset.name,
            "n_objects": len(self.dataset),
            "cycle_packets": self.cycle_packets,
            "cycle_bytes": self.cycle_bytes,
            "index_overhead": self.program.index_overhead_fraction(),
            "schedule_policy": self.schedule_policy,
        }
        if not self.schedule.is_single or self.schedule_policy != "flat":
            stats["channels"] = self.schedule.describe()
        return stats

    # -- clients ---------------------------------------------------------------

    def client(
        self,
        *,
        error_model: Optional[LinkErrorModel] = None,
        seed: Optional[int] = None,
    ) -> "MobileClient":
        """A new mobile client tuned to this server's channel.

        ``seed`` drives the client's default (random) tune-in positions;
        ``error_model`` makes the client's link lossy.
        """
        from .client import MobileClient

        return MobileClient(self, error_model=error_model, seed=seed)

    def fleet(self, n_clients: int, workload: Optional[Any] = None, **kwargs: Any):
        """Run a population of clients against this server.

        ``workload`` is a :class:`~repro.queries.workload.Workload`
        (defaults to a small seeded window workload); the clients tune into
        this server's :attr:`schedule` and run its :attr:`knn_strategy`.
        Remaining keywords are forwarded to :func:`repro.sim.fleet.run_fleet`
        (``seed=``, ``max_phases=``, ``error_theta=``, ``verify=``,
        ``parallel=``...), which validates them before any client runs.
        Returns the :class:`~repro.sim.fleet.FleetResult`.
        """
        from ..queries.workload import window_workload
        from ..sim.fleet import run_fleet

        if workload is None:
            workload = window_workload(20, seed=kwargs.get("seed", 0) + 1)
        return run_fleet(
            self.index, self.dataset, self.config, workload, n_clients,
            knn_strategy=self.knn_strategy, schedule=self.schedule, **kwargs,
        )

    def mobile_fleet(self, n_clients: int, trajectories: Optional[Any] = None, **kwargs: Any):
        """Run a population of *moving* clients against this server.

        ``trajectories`` is a
        :class:`~repro.mobility.trajectory.TrajectoryWorkload` (defaults to
        a small seeded random-waypoint workload); the clients tune into
        this server's :attr:`schedule` and run its :attr:`knn_strategy`.
        Remaining keywords are forwarded to
        :func:`repro.sim.fleet.run_mobile_fleet` (``seed=``,
        ``max_phases=``, ``error_theta=``, ``parallel=``...).  Returns the
        :class:`~repro.sim.fleet.MobileFleetResult`.
        """
        from ..mobility.trajectory import trajectory_workload
        from ..sim.fleet import run_mobile_fleet

        if trajectories is None:
            trajectories = trajectory_workload(seed=kwargs.get("seed", 0) + 1)
        return run_mobile_fleet(
            self.index, self.dataset, self.config, trajectories, n_clients,
            knn_strategy=self.knn_strategy, schedule=self.schedule, **kwargs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.index, "name", type(self.index).__name__)
        channels = "" if self.schedule.is_single else f", channels={self.n_channels}"
        return (
            f"BroadcastServer(index={name!r}, dataset={self.dataset.name!r}, "
            f"cycle_packets={self.cycle_packets}{channels})"
        )
