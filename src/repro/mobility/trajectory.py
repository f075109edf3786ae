"""Trajectory workloads: per-client streams of (position, dwell, query) steps.

A :class:`TrajectoryWorkload` is the moving-client counterpart of
:class:`repro.queries.workload.Workload`: instead of one-shot trials it
holds :class:`Journey` objects, each a sequence of :class:`JourneyStep`
``(position, dwell_packets, query)`` entries.  The same journey replayed
against different indexes is a paired comparison, exactly like workload
trials; the fleet simulator additionally assigns many clients to one
journey at different tune-in phases (see
:func:`repro.sim.fleet.run_mobile_fleet`).

Queries are derived from the positions the motion model produces: window
queries centred on the client (the "what is around me" of broadcast LBS)
or kNN queries at the client's position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

from ..queries.types import KnnQuery, Query, WindowQuery
from ..spatial.geometry import Point
from .motion import MotionModel, resolve_motion_model

__all__ = ["JourneyStep", "Journey", "TrajectoryWorkload", "trajectory_workload"]

QUERY_KINDS = ("window", "knn")

#: Default radio-off travel time between hops, in packets (~a third of a
#: typical reduced-scale broadcast cycle).
DEFAULT_DWELL_PACKETS = 2048


@dataclass(frozen=True)
class JourneyStep:
    """One hop of a journey: travel, then query from the new position.

    ``dwell_packets`` is the radio-off travel time *before* this query
    (0 for a journey's first step).
    """

    position: Point
    dwell_packets: int
    query: Query

    def __post_init__(self) -> None:
        if self.dwell_packets < 0:
            raise ValueError(f"dwell_packets must be >= 0, got {self.dwell_packets}")


@dataclass(frozen=True)
class Journey:
    """One client's journey: an ordered stream of steps."""

    jid: int
    steps: tuple  # Tuple[JourneyStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[JourneyStep]:
        return iter(self.steps)


class TrajectoryWorkload:
    """A reproducible set of journeys (the moving-client workload)."""

    def __init__(
        self,
        name: str,
        journeys: List[Journey],
        model: MotionModel,
        seed: Optional[int] = None,
    ) -> None:
        if not journeys:
            raise ValueError("a trajectory workload needs at least one journey")
        n_steps = len(journeys[0])
        for journey in journeys:
            if len(journey) != n_steps:
                raise ValueError(
                    "all journeys of a workload must have the same number of "
                    f"steps (journey {journey.jid} has {len(journey)}, "
                    f"expected {n_steps})"
                )
        self.name = name
        self.journeys = journeys
        self.model = model
        self.seed = seed
        self.n_steps = n_steps

    def __len__(self) -> int:
        return len(self.journeys)

    def __iter__(self) -> Iterator[Journey]:
        return iter(self.journeys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrajectoryWorkload({self.name!r}, n_journeys={len(self.journeys)}, "
            f"n_steps={self.n_steps}, model={self.model!r})"
        )


def _query_at(
    position: Point, query: str, win_side_ratio: float, k: int
) -> Query:
    if query == "window":
        return WindowQuery.centered(position, win_side_ratio)
    return KnnQuery(point=position, k=k)


def trajectory_workload(
    n_journeys: int = 16,
    n_steps: int = 5,
    model: Union[str, MotionModel, None] = None,
    *,
    query: str = "window",
    win_side_ratio: float = 0.1,
    k: int = 10,
    dwell_packets: int = DEFAULT_DWELL_PACKETS,
    seed: int = 42,
    name: Optional[str] = None,
) -> TrajectoryWorkload:
    """Generate a seeded trajectory workload.

    ``model`` is a :class:`MotionModel` instance or a registered name
    (``"waypoint"`` -- the default, ``"drift"``, ``"stationary"``);
    ``query`` picks the per-hop query family (``"window"`` centred on the
    client, or ``"knn"`` at the client).  All positions come from one
    vectorised :meth:`MotionModel.paths` call, so generation cost is
    O(n_journeys * n_steps) array work.
    """
    if n_journeys < 1:
        raise ValueError("n_journeys must be >= 1")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if query not in QUERY_KINDS:
        raise ValueError(f"query must be one of {QUERY_KINDS}, got {query!r}")
    motion = resolve_motion_model(model)
    paths = motion.paths(seed, n_journeys, n_steps, dwell_packets)
    journeys: List[Journey] = []
    for jid in range(n_journeys):
        steps = tuple(
            JourneyStep(
                position=(p := Point(float(x), float(y))),
                dwell_packets=0 if i == 0 else dwell_packets,
                query=_query_at(p, query, win_side_ratio, k),
            )
            for i, (x, y) in enumerate(paths[jid])
        )
        journeys.append(Journey(jid=jid, steps=steps))
    tag = f"{query}-r{win_side_ratio}" if query == "window" else f"{query}-k{k}"
    return TrajectoryWorkload(
        name=name or f"journey-{motion.name}-{tag}-s{n_steps}",
        journeys=journeys,
        model=motion,
        seed=seed,
    )
