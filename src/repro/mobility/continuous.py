"""The continuous-query engine: one client, one session, many warm queries.

A :class:`ContinuousClient` binds together the three pieces of warm state a
moving client legitimately owns:

* its :class:`~repro.broadcast.client.ClientSession` -- the unwrapped
  packet clock and the channel its radio is parked on persist across
  queries (:meth:`ClientSession.next_query` advances through each radio-off
  dwell);
* its *index knowledge* -- whatever :meth:`AirIndex.new_client_state`
  returns (DSI's :class:`~repro.core.knowledge.ClientKnowledge`, a tree
  index's node cache), threaded through every query's ``state=``;
* its per-hop history -- :class:`HopRecord` entries carrying the paper
  metrics of each hop plus the journey metrics derived from them
  (cumulative tuning energy, per-hop latency, result staleness).

**Result staleness** is spatial: while a query is in flight for
``latency`` packets the client keeps travelling at the motion model's
``speed`` (distance per packet), so the answer describes a position
``speed * latency_packets`` behind the client when it lands.

This engine runs journeys one client at a time: the API's
:meth:`~repro.api.MobileClient.travel` goes through :func:`run_journey`.
Population-scale fleets (:func:`~repro.sim.fleet.run_mobile_fleet`),
stationary fleets and workload replays do not: the one fleet engine
(:func:`repro.sim.fleet._run_executions`) walks the same ``(query,
dwell)`` steps on one session per distinct execution (or on the lockstep
kernels of :mod:`repro.sim.fleet_kernel`), and the fleet brute-force
suites pin those numbers to :func:`run_journey`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from ..broadcast.client import AccessMetrics, ClientSession
from ..broadcast.errors import LinkErrorModel
from ..queries.types import Query
from .trajectory import Journey

__all__ = ["ContinuousClient", "HopRecord", "JourneyResult", "run_journey"]


@dataclass(frozen=True)
class HopRecord:
    """One executed hop: the query, its outcome and what it cost."""

    step: int
    query: Query
    outcome: Any
    metrics: AccessMetrics
    dwell_packets: int
    staleness: float  # distance drifted while the answer was in flight

    @property
    def objects(self) -> List[Any]:
        return self.outcome.objects


@dataclass
class JourneyResult:
    """Everything measured along one journey."""

    hops: List[HopRecord]

    @property
    def n_hops(self) -> int:
        return len(self.hops)

    @property
    def total_tuning_bytes(self) -> int:
        """Cumulative tuning energy of the whole journey."""
        return sum(h.metrics.tuning_bytes for h in self.hops)

    @property
    def total_latency_bytes(self) -> int:
        return sum(h.metrics.latency_bytes for h in self.hops)

    @property
    def total_latency_packets(self) -> int:
        return sum(h.metrics.latency_packets for h in self.hops)

    @property
    def mean_hop_latency_bytes(self) -> float:
        return self.total_latency_bytes / self.n_hops if self.hops else 0.0

    @property
    def mean_staleness(self) -> float:
        """Mean spatial staleness over the journey's answers."""
        return sum(h.staleness for h in self.hops) / self.n_hops if self.hops else 0.0

    @property
    def channel_switches(self) -> int:
        return sum(h.metrics.channel_switches for h in self.hops)

    def as_row(self) -> dict:
        return {
            "hops": self.n_hops,
            "journey_tuning_bytes": self.total_tuning_bytes,
            "journey_latency_bytes": self.total_latency_bytes,
            "hop_latency_bytes": self.mean_hop_latency_bytes,
            "staleness": self.mean_staleness,
            "channel_switches": self.channel_switches,
        }


class ContinuousClient:
    """One warm client executing a stream of queries over one session."""

    def __init__(
        self,
        index: Any,
        view: Any,
        config: Any,
        start_packet: int = 0,
        error_model: Optional[LinkErrorModel] = None,
        knn_strategy: str = "conservative",
        speed: float = 0.0,
    ) -> None:
        self.index = index
        self.config = config
        self.knn_strategy = knn_strategy
        self.speed = float(speed)
        self.session = ClientSession(
            view, config, start_packet=start_packet, error_model=error_model
        )
        new_state = getattr(index, "new_client_state", None)
        #: Warm per-client state (None = the index runs every query cold).
        self.state = new_state() if new_state is not None else None
        self.hops: List[HopRecord] = []

    def run(self, query: Query, dwell_packets: int = 0) -> HopRecord:
        """Travel ``dwell_packets`` radio-off, then execute ``query`` warm.

        The first query of a session starts at the tune-in position (its
        ``dwell_packets`` is ignored -- the client is already there).
        """
        from ..sim.runner import execute_query

        if self.hops:
            self.session.next_query(dwell_packets)
        outcome = execute_query(
            self.index, query, self.session,
            knn_strategy=self.knn_strategy, state=self.state,
        )
        metrics = outcome.metrics
        record = HopRecord(
            step=len(self.hops),
            query=query,
            outcome=outcome,
            metrics=metrics,
            dwell_packets=dwell_packets if self.hops else 0,
            staleness=self.speed * metrics.latency_packets,
        )
        self.hops.append(record)
        return record

    def result(self) -> JourneyResult:
        return JourneyResult(hops=list(self.hops))


def run_journey(
    index: Any,
    view: Any,
    config: Any,
    journey: Journey,
    start_packet: int = 0,
    error_model: Optional[LinkErrorModel] = None,
    knn_strategy: str = "conservative",
    speed: float = 0.0,
) -> JourneyResult:
    """Execute one :class:`Journey` end to end on a fresh warm client."""
    client = ContinuousClient(
        index, view, config,
        start_packet=start_packet, error_model=error_model,
        knn_strategy=knn_strategy, speed=speed,
    )
    for step in journey:
        client.run(step.query, dwell_packets=step.dwell_packets)
    return client.result()
