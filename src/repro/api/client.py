"""The mobile client: the paper's system, client side.

A :class:`MobileClient` is attached to a :class:`~repro.api.server.BroadcastServer`
and executes queries by tuning into the server's channel.  Each query runs
in its own :class:`~repro.broadcast.client.ClientSession` (one tune-in, one
query, as in the paper's model); the client keeps a per-query history and
cumulative latency/tuning totals across queries.

Tune-in positions default to a **seeded random** packet of the cycle (the
physical situation of a user switching the radio on at an arbitrary time);
``at=`` accepts an explicit packet position or a cycle fraction in
``[0, 1)``.  A pluggable :class:`~repro.broadcast.errors.LinkErrorModel`
makes the client's link lossy; each session the client opens runs on that
model re-seeded by the session's ordinal, so repeated queries draw
independent losses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Union

from ..broadcast.client import AccessMetrics, ClientSession
from ..broadcast.errors import LinkErrorModel, _session_model
from ..queries.types import KnnQuery, Query, WindowQuery
from ..queries.workload import Trial, Workload
from ..sim.metrics import ExperimentResult
from ..sim.runner import execute_query
from ..spatial.geometry import Point, Rect
from .server import BroadcastServer

__all__ = ["MobileClient", "QueryRecord"]


@dataclass(frozen=True)
class QueryRecord:
    """One executed query: what was asked, what came back, what it cost."""

    query: Query
    outcome: Any
    metrics: AccessMetrics

    @property
    def objects(self) -> List[Any]:
        return self.outcome.objects


class MobileClient:
    """A mobile client answering queries over a broadcast channel."""

    def __init__(
        self,
        server: BroadcastServer,
        *,
        error_model: Optional[LinkErrorModel] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.server = server
        self.config = server.config
        self.error_model = error_model
        self._rng = random.Random(seed)
        self._sessions = 0
        self.history: List[QueryRecord] = []

    # -- tuning in -------------------------------------------------------------

    def _start_packet(self, at: Optional[Union[int, float]]) -> int:
        """Resolve a tune-in position: ``None`` = seeded random, ``int`` =
        packet, ``float`` in [0, 1) = cycle fraction."""
        cycle = self.server.tune_cycle_packets
        if at is None:
            return self._rng.randrange(cycle)
        if isinstance(at, bool):
            raise TypeError("at must be an int packet position or a float fraction")
        if isinstance(at, int):
            return at
        if isinstance(at, float):
            if not 0.0 <= at < 1.0:
                raise ValueError("a fractional tune-in position must be in [0, 1)")
            return int(at * cycle) % cycle
        raise TypeError("at must be an int packet position or a float fraction")

    def _session_errors(self) -> Optional[LinkErrorModel]:
        """The link model of the next session this client opens: the
        client's model re-seeded by its session ordinal, so a query repeated
        at one position draws fresh losses (the tune-in stream is not
        touched)."""
        if self.error_model is None:
            return None
        self._sessions += 1
        return _session_model(self.error_model, self._sessions)

    def tune_in(self, at: Optional[Union[int, float]] = None) -> ClientSession:
        """Open a session on the channel.

        ``at=None`` picks a seeded-random packet of the cycle; an ``int`` is
        an explicit packet position (validated against the cycle length by
        :class:`ClientSession`); a ``float`` in ``[0, 1)`` is a cycle
        fraction, exactly as workload trials express tune-in positions.

        On a multi-channel server the session starts on the control channel
        and positions range over the longest channel cycle; with one channel
        (the default) this is exactly the legacy single-program session.
        """
        return ClientSession(
            self.server.schedule.view(),
            self.config,
            start_packet=self._start_packet(at),
            error_model=self._session_errors(),
        )

    # -- single queries ----------------------------------------------------------

    def window_query(self, window: Rect, *, at: Optional[Union[int, float]] = None) -> Any:
        """Run one window query (a fresh tune-in per query)."""
        return self._query(WindowQuery(window=window), at)

    def knn_query(
        self, point: Point, k: int = 1, *, at: Optional[Union[int, float]] = None
    ) -> Any:
        """Run one kNN query with the server's DSI search
        (:attr:`BroadcastServer.knn_strategy`)."""
        return self._query(KnnQuery(point=point, k=k), at)

    def run(self, query: Union[Query, Trial], *, at: Optional[Union[int, float]] = None) -> Any:
        """Run one :class:`WindowQuery` / :class:`KnnQuery` / :class:`Trial`."""
        if isinstance(query, Trial):
            if at is None:
                at = query.tune_in_fraction
            query = query.query
        return self._query(query, at)

    def _query(self, query: Query, at: Optional[Union[int, float]]) -> Any:
        """Run ``query`` on a fresh tune-in through :func:`execute_query`,
        the per-query dispatch of every reference path, and record it.  An
        unsupported query fails before the tune-in, so it moves neither the
        seeded tune-in stream nor the session ordinal."""
        if not isinstance(query, (WindowQuery, KnnQuery)):
            raise TypeError(f"unsupported query type {type(query)!r}")
        session = self.tune_in(at)
        outcome = execute_query(
            self.server.index, query, session, knn_strategy=self.server.knn_strategy
        )
        return self._record(query, outcome)

    # -- journeys ----------------------------------------------------------------

    def travel(
        self,
        model: Any = None,
        n_steps: int = 5,
        *,
        query: str = "window",
        win_side_ratio: float = 0.1,
        k: int = 10,
        dwell_packets: Optional[int] = None,
        at: Optional[Union[int, float]] = None,
        seed: Optional[int] = None,
    ) -> Any:
        """Travel ``n_steps`` hops, querying *warm* from each position.

        The moving-client scenario of the paper: the client tunes in once
        (``at=``, same conventions as :meth:`tune_in`), then alternates
        radio-off travel (``dwell_packets`` per hop, moving as ``model``
        dictates -- a :class:`~repro.mobility.motion.MotionModel` instance
        or a registered name like ``"waypoint"``/``"drift"``/
        ``"stationary"``) with a query issued from the new position
        (``query="window"`` centred on the client or ``query="knn"`` at
        it).  One persistent session and one warm index state serve the
        whole journey, so later hops reuse everything earlier hops paid
        for.

        ``seed`` fixes the trajectory (defaults to a draw from the
        client's own stream).  Every hop is appended to :attr:`history`;
        the returned :class:`~repro.mobility.continuous.JourneyResult`
        carries per-hop records plus the journey metrics (cumulative
        tuning energy, per-hop latency, spatial result staleness).
        """
        from ..mobility.continuous import run_journey
        from ..mobility.motion import resolve_motion_model
        from ..mobility.trajectory import DEFAULT_DWELL_PACKETS, trajectory_workload

        motion = resolve_motion_model(model)
        if dwell_packets is None:
            dwell_packets = DEFAULT_DWELL_PACKETS
        journey_seed = seed if seed is not None else self._rng.randrange(1 << 31)
        trajectory = trajectory_workload(
            1, n_steps, motion,
            query=query, win_side_ratio=win_side_ratio, k=k,
            dwell_packets=dwell_packets, seed=journey_seed,
        )
        result = run_journey(
            self.server.index,
            self.server.schedule.view(),
            self.config,
            trajectory.journeys[0],
            start_packet=self._start_packet(at),
            error_model=self._session_errors(),
            knn_strategy=self.server.knn_strategy,
            speed=motion.speed,
        )
        for hop in result.hops:
            self._record(hop.query, hop.outcome)
        return result

    # -- batched execution -------------------------------------------------------

    def run_batch(self, queries: Union[Workload, Iterable[Union[Query, Trial]]]) -> List[Any]:
        """Run a batch of queries (or a whole workload), one session each.

        Workload trials replay their recorded tune-in fractions, so the
        same workload run against clients of different servers is a paired
        comparison -- the setup behind every figure of the paper.
        """
        return [self.run(q) for q in queries]

    # -- metrics -----------------------------------------------------------------

    def _record(self, query: Query, outcome: Any) -> Any:
        self.history.append(QueryRecord(query=query, outcome=outcome, metrics=outcome.metrics))
        return outcome

    @property
    def queries_run(self) -> int:
        return len(self.history)

    @property
    def last(self) -> Optional[QueryRecord]:
        """The most recent query record (or ``None``)."""
        return self.history[-1] if self.history else None

    @property
    def total_latency_bytes(self) -> int:
        return sum(r.metrics.latency_bytes for r in self.history)

    @property
    def total_tuning_bytes(self) -> int:
        return sum(r.metrics.tuning_bytes for r in self.history)

    def summary(self, label: Optional[str] = None) -> ExperimentResult:
        """Cumulative per-client statistics as an :class:`ExperimentResult`."""
        result = ExperimentResult(
            index_name=label or getattr(self.server.index, "name", "index"),
            workload_name="client-session",
        )
        for record in self.history:
            result.record(record.metrics)
        return result

    def reset_metrics(self) -> None:
        """Forget the query history (cumulative totals restart at zero)."""
        self.history.clear()
