"""``repro.mobility`` -- moving clients and warm continuous queries.

The paper's headline use case is location-based services for *moving*
clients: a traveller re-queries the broadcast as it goes, and DSI's
distributed index is precisely what lets it tune in anywhere along the way
and reuse everything it has already learned.  This package supplies the
missing pieces:

* :mod:`~repro.mobility.motion` -- motion models
  (:class:`RandomWaypoint`, :class:`LinearDrift`, :class:`Stationary`)
  generating journeys through the unit search space;
* :mod:`~repro.mobility.trajectory` -- :func:`trajectory_workload` /
  :class:`TrajectoryWorkload`, per-client streams of
  ``(position, dwell, query)`` steps replacing one-shot trials;
* :mod:`~repro.mobility.continuous` -- :class:`ContinuousClient` /
  :func:`run_journey`, the warm multi-query session engine with per-hop
  metrics (tuning energy, hop latency, result staleness).

Population-scale moving fleets live in :func:`repro.sim.fleet.run_mobile_fleet`
(the one fleet engine, where a stationary trial is a cold one-step journey,
with the entry-landmark collapse covering whole warm journeys); the public
faces are :meth:`repro.api.MobileClient.travel` and
:meth:`repro.api.Experiment.mobility`.
"""

from __future__ import annotations

from .continuous import ContinuousClient, HopRecord, JourneyResult, run_journey
from .motion import (
    LinearDrift,
    MotionModel,
    RandomWaypoint,
    Stationary,
    resolve_motion_model,
)
from .trajectory import Journey, JourneyStep, TrajectoryWorkload, trajectory_workload

__all__ = [
    "ContinuousClient",
    "HopRecord",
    "Journey",
    "JourneyResult",
    "JourneyStep",
    "LinearDrift",
    "MotionModel",
    "RandomWaypoint",
    "Stationary",
    "TrajectoryWorkload",
    "resolve_motion_model",
    "run_journey",
    "trajectory_workload",
]
