"""The paper's primary contribution: the Distributed Spatial Index (DSI)."""

from .structure import (
    DirectoryRecord,
    DsiAirView,
    DsiDirectory,
    DsiFrame,
    DsiIndex,
    DsiParameters,
    DsiTable,
    DsiTableEntry,
    FrameLayout,
    derive_frame_layout,
)
from .knowledge import ClientKnowledge
from .visit import FrameVisit, fetch_object, read_directory, read_table, visit_frame_for_ranges
from .window import WindowQueryResult, read_first_table, window_query
from .knn import KNN_STRATEGIES, KnnQueryResult, knn_query

__all__ = [
    "DsiIndex",
    "DsiParameters",
    "DsiAirView",
    "DsiTable",
    "DsiTableEntry",
    "DsiDirectory",
    "DirectoryRecord",
    "DsiFrame",
    "FrameLayout",
    "derive_frame_layout",
    "ClientKnowledge",
    "read_table",
    "read_directory",
    "FrameVisit",
    "fetch_object",
    "visit_frame_for_ranges",
    "WindowQueryResult",
    "window_query",
    "read_first_table",
    "KnnQueryResult",
    "knn_query",
    "KNN_STRATEGIES",
]
