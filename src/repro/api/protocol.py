"""The :class:`AirIndex` protocol: what every air index must provide.

The paper evaluates three index structures (DSI, the STR-packed R-tree and
HCI) that all play the same role in the system: the server builds them over
a dataset, lays them out as a :class:`~repro.broadcast.program.BroadcastProgram`
and airs that program; a client answers window and kNN queries by paying
for bucket reads through a :class:`~repro.broadcast.client.ClientSession`.
This module captures that role as an abstract base class so new index
strategies plug into the registry, the server and the experiment builder
without touching :mod:`repro.sim`.

A conforming index provides:

* ``program`` -- the :class:`BroadcastProgram` the server airs (attribute
  or property);
* ``describe()`` -- a flat ``dict`` of human-readable build statistics;
* ``window_query(window, session)`` -- answer a window query through the
  given client session;
* ``knn_query(point, k, session, **kwargs)`` -- answer a kNN query through
  the given client session.

Query methods return an *outcome* carrying at least ``objects`` (the
matching :class:`~repro.spatial.datasets.DataObject` instances) and
``metrics`` (the session's :class:`~repro.broadcast.client.AccessMetrics`);
:class:`~repro.core.window.WindowQueryResult` and
:class:`~repro.broadcast.treeair.TreeQueryResult` are the built-in shapes.

Conformance is structural as well as nominal: ``issubclass``/``isinstance``
accept any class that defines the three query members, so third-party
indexes need not inherit from :class:`AirIndex` (though they may).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:  # pragma: no cover - import-time dependencies stay trivial
    from ..broadcast.client import ClientSession
    from ..broadcast.config import SystemConfig
    from ..broadcast.program import BroadcastProgram
    from ..spatial.datasets import SpatialDataset
    from ..spatial.geometry import Point, Rect

#: Members every air index must expose (``program`` is checked on instances
#: because some implementations assign it in ``__init__``).
REQUIRED_MEMBERS = ("describe", "window_query", "knn_query")


class AirIndex(ABC):
    """Abstract base class / structural protocol for an index on air.

    ``DsiIndex`` and ``TreeAirIndex`` (the base of ``RTreeAirIndex`` and
    ``HciAirIndex``) inherit from this class; custom indexes can either
    inherit or simply provide the same members (``issubclass`` recognises
    them through ``__subclasshook__``).
    """

    #: Human-readable name used as the default result label.
    name: str = "air-index"

    #: The broadcast program this index airs.  Implementations may define a
    #: property or assign an instance attribute during construction.
    program: "BroadcastProgram"

    @classmethod
    def build(cls, dataset: "SpatialDataset", config: "SystemConfig", spec: Any = None) -> "AirIndex":
        """Default factory: construct from ``(dataset, config)``.

        Indexes with extra knobs override this (or register a closure via
        :func:`repro.api.register_index`) to read them from ``spec``.
        """
        return cls(dataset, config)  # type: ignore[call-arg]

    @abstractmethod
    def describe(self) -> Dict[str, object]:
        """Flat summary of the built structure (sizes, overheads, ...)."""

    @abstractmethod
    def window_query(self, window: "Rect", session: "ClientSession") -> Any:
        """Answer a window query by reading buckets through ``session``."""

    @abstractmethod
    def knn_query(self, point: "Point", k: int, session: "ClientSession", **kwargs: Any) -> Any:
        """Answer a kNN query by reading buckets through ``session``."""

    def new_client_state(self) -> Any:
        """Fresh warm-session state for a *continuous* client, or ``None``.

        A moving client re-queries the same broadcast many times; whatever
        it has legitimately learned from paid bucket reads -- DSI index
        knowledge, received tree nodes -- stays valid because the broadcast
        content is static.  Indexes that support warm continuation return a
        new empty state object here; each query then receives it via the
        ``state=`` keyword of :meth:`window_query` / :meth:`knn_query` and
        mutates it in place.  ``None`` (the default) declares the index
        stateless: every query runs cold, which is always correct.
        """
        return None

    def entry_landmark(self, view: Any, position: int, switch_packets: int = 0) -> Any:
        """Identity of the first index-structure read from a tune-in position.

        Every built-in query algorithm starts the same way: an initial
        probe, then a seek to the next *entry structure* on air (a DSI index
        table, the next copy of a tree root).  Two error-free executions of
        the same query whose seeks land on the same entry read produce
        identical absolute traces -- only the tune-in offset differs in
        access latency.  The fleet simulator exploits that to collapse
        phase sweeps onto distinct landmarks (see ``repro.sim.fleet``).

        Returns a hashable key -- ``(bucket_index, unwrapped_start)`` for
        the built-ins -- or ``None`` to declare the index's traces
        non-collapsible (the safe default for third-party strategies).
        """
        return None

    @classmethod
    def __subclasshook__(cls, subclass: type) -> Any:
        if cls is not AirIndex:
            return NotImplemented
        for member in REQUIRED_MEMBERS:
            if not any(member in base.__dict__ for base in subclass.__mro__):
                return NotImplemented
        return True


def missing_members(index: Any) -> list:
    """The :class:`AirIndex` members ``index`` (an instance) lacks."""
    needed = REQUIRED_MEMBERS + ("program",)
    return [m for m in needed if not hasattr(index, m)]


def ensure_air_index(index: Any) -> Any:
    """Validate that ``index`` satisfies the :class:`AirIndex` protocol.

    Returns ``index`` unchanged on success; raises :class:`TypeError`
    naming the missing members otherwise.  Used by the registry so a
    mis-registered factory fails at build time with a clear message rather
    than deep inside a query.
    """
    missing = missing_members(index)
    if missing:
        raise TypeError(
            f"{type(index).__name__} does not satisfy the AirIndex protocol: "
            f"missing {', '.join(sorted(missing))}"
        )
    return index
