"""Reproduction of *DSI: A Fully Distributed Spatial Index for Wireless Data
Broadcast* (Lee & Zheng, 2005).

The package is organised as:

* :mod:`repro.api` -- the **public service layer**: the ``AirIndex``
  protocol, the pluggable index registry, ``BroadcastServer`` /
  ``MobileClient`` and the fluent ``Experiment`` builder;
* :mod:`repro.spatial` -- geometry, Hilbert curve and datasets;
* :mod:`repro.broadcast` -- the wireless broadcast system model (packets,
  programs, clients, link errors, tree-on-air layout);
* :mod:`repro.core` -- the paper's contribution: the DSI index, window and
  kNN query processing (their arrival-ordered walk is the paper's energy
  efficient forwarding) and broadcast reorganization;
* :mod:`repro.rtree`, :mod:`repro.hci` -- the two baselines evaluated in the
  paper (STR-packed R-tree and Hilbert Curve Index);
* :mod:`repro.queries` -- query types, workloads and ground truth;
* :mod:`repro.mobility` -- moving clients: motion models, trajectory
  workloads and the warm continuous-query engine;
* :mod:`repro.sim` -- the experiment runner, the (stationary and moving)
  client fleets and the sweeps behind every figure and table of the
  paper's evaluation.

Quickstart (see README.md for more)::

    from repro import BroadcastServer, SystemConfig, uniform_dataset
    from repro.spatial import Point, Rect

    dataset = uniform_dataset(2_000)
    server = BroadcastServer(dataset, SystemConfig(packet_capacity=64), index="dsi")
    client = server.client(seed=2005)
    result = client.knn_query(Point(0.4, 0.6), k=5)
    print(result.object_ids, result.metrics.tuning_bytes)
"""

from .broadcast import (
    BroadcastSchedule,
    ClientSession,
    DemandProfile,
    LinkErrorModel,
    PAPER_PACKET_CAPACITIES,
    SystemConfig,
)
from .core import DsiIndex, DsiParameters
from .hci import HciAirIndex
from .queries import KnnQuery, WindowQuery, knn_workload, skewed_workload, window_workload
from .rtree import RTreeAirIndex
from .sim import IndexSpec, build_index, run_fleet, run_workload
from .spatial import (
    HilbertCurve,
    Point,
    Rect,
    SpatialDataset,
    grid_dataset,
    real_surrogate_dataset,
    uniform_dataset,
)
from .api import (
    AirIndex,
    BroadcastServer,
    Experiment,
    MobileClient,
    available_indexes,
    cache_stats,
    clear_index_cache,
    create_index,
    register_index,
)

__version__ = "1.1.0"

__all__ = [
    "SystemConfig",
    "BroadcastSchedule",
    "DemandProfile",
    "ClientSession",
    "run_fleet",
    "LinkErrorModel",
    "PAPER_PACKET_CAPACITIES",
    "AirIndex",
    "BroadcastServer",
    "MobileClient",
    "Experiment",
    "register_index",
    "available_indexes",
    "create_index",
    "cache_stats",
    "clear_index_cache",
    "DsiIndex",
    "DsiParameters",
    "RTreeAirIndex",
    "HciAirIndex",
    "Point",
    "Rect",
    "HilbertCurve",
    "SpatialDataset",
    "uniform_dataset",
    "real_surrogate_dataset",
    "grid_dataset",
    "WindowQuery",
    "KnnQuery",
    "window_workload",
    "knn_workload",
    "skewed_workload",
    "IndexSpec",
    "build_index",
    "run_workload",
    "__version__",
]
