"""Golden outputs: the paper's figure and Table 1 rows and a fleet grid, committed.

Three files under ``tests/golden/``, integers and strings only: a float is
stored as its ``float.as_integer_ratio()`` pair and an array as the sha256
of its int64 bytes, so a file fixes every value bit for bit and no float
repr is parsed back.  One row is one line, so the git diff of a rewrite is
the list of moved rows.

* ``figure_rows.json`` -- every figure (and Table 1) of both datasets at
  the benchmarks' reduced scale (``uniform_dataset(1_200, seed=7)`` and
  ``real_surrogate_dataset(1_000, seed=11)``, 20 queries, 10 per error
  table), computed serially with ``verify=True`` where the sweep takes it.
* ``figure_rows_paper.json`` -- the same twelve blocks at the benchmarks'
  full scale (10,000 and 5,848 objects, 100 queries, 40 per error table),
  selected with ``--paper``.
* ``fleet.json`` -- a grid of fleet and journey-fleet cells (every index
  family, 1 and 4 channels, windows, both kNN strategies, 3-hop journeys,
  lossless and lossy, optimized schedules, mixed workloads) plus the rows
  of one ``Experiment`` fleet sweep and one mobility sweep.  A cell keeps
  its engine, decline reason, capped and distinct execution counts,
  verify counts and digests of its per-execution arrays.

    PYTHONPATH=src python tests/golden.py --check           # figure rows + fleet
    PYTHONPATH=src python tests/golden.py --check --paper   # paper-scale rows
    PYTHONPATH=src python tests/golden.py --write           # rewrite the JSON
    PYTHONPATH=src python tests/golden.py --check uniform/table1 fleet/real

Under ``REPRO_PURE=1`` every engine is the reference, so ``--check``
compares every field but ``backend`` and ``backend_reason``.  ``--check``
also fails on a wrong answer whatever the committed rows say: every
recomputed ``accuracy`` must read 1 and every lossless fleet cell must
count no incorrect trial.  A change that moves an output on purpose
commits the rewritten JSON and names the moved blocks; tier-1
(``tests/test_golden.py``) recomputes the Table 1 and Figure 9-11 blocks
and a slice of the fleet grid, CI's ``golden`` job the reduced-scale
files and its ``golden-paper`` job the paper-scale rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "figure_rows.json"
PAPER_PATH = GOLDEN_DIR / "figure_rows_paper.json"
FLEET_PATH = GOLDEN_DIR / "fleet.json"


@dataclass(frozen=True)
class Scale:
    """The dataset and workload sizes of one set of figure blocks (the
    benchmarks' ``REDUCED`` and ``FULL`` scales)."""

    n_uniform: int
    n_real: int
    n_queries: int
    n_queries_errors: int
    small_capacities: Tuple[int, ...]


REDUCED = Scale(1_200, 1_000, 20, 10, (64, 256))
PAPER = Scale(10_000, 5_848, 100, 40, (64, 128, 256, 512))

CAPACITIES = (64, 128, 256, 512)
RATIOS = (0.02, 0.05, 0.1, 0.2)
KS = (1, 3, 10, 20)
THETAS = (0.1, 0.3)
SCOPES = ("index", "all", "data")

#: The figure blocks tier-1 recomputes (about 10 s serially); the rest run in CI.
TIER1_FIGURES = ("fig09", "fig10", "fig11", "table1")


def _dataset(name: str, scale: Scale) -> Any:
    from repro.spatial import real_surrogate_dataset, uniform_dataset

    if name == "uniform":
        return uniform_dataset(scale.n_uniform, seed=7)
    return real_surrogate_dataset(scale.n_real, seed=11)


def _fig08(ds: Any, scale: Scale) -> List[Dict[str, Any]]:
    from repro.sim.sweep import reorganization_sweep

    return reorganization_sweep(
        ds, CAPACITIES, n_queries=scale.n_queries, k=10, verify=True, processes=1
    )


def _fig09(ds: Any, scale: Scale) -> List[Dict[str, Any]]:
    from repro.sim.sweep import window_capacity_sweep

    return window_capacity_sweep(
        ds, CAPACITIES, n_queries=scale.n_queries, verify=True, processes=1
    )


def _fig10(ds: Any, scale: Scale) -> List[Dict[str, Any]]:
    from repro.sim.sweep import window_ratio_sweep

    return window_ratio_sweep(
        ds, RATIOS, capacity=64, n_queries=scale.n_queries, verify=True, processes=1
    )


def _fig11(ds: Any, scale: Scale) -> List[Dict[str, Any]]:
    from repro.sim.sweep import knn_capacity_sweep

    return [
        row
        for k in (1, 10)
        for row in knn_capacity_sweep(
            ds, scale.small_capacities, k=k, n_queries=scale.n_queries, verify=True,
            processes=1,
        )
    ]


def _fig12(ds: Any, scale: Scale) -> List[Dict[str, Any]]:
    from repro.sim.sweep import knn_k_sweep

    return knn_k_sweep(
        ds, KS, capacity=64, n_queries=scale.n_queries, verify=True, processes=1
    )


def _table1(ds: Any, scale: Scale) -> List[Dict[str, Any]]:
    from repro.sim.sweep import link_error_table

    return [
        {**row, "scope": scope}
        for scope in SCOPES
        for row in link_error_table(
            ds, THETAS, capacity=64, n_queries=scale.n_queries_errors, k=10,
            error_scope=scope, processes=1,
        )
    ]


FIGURES: Dict[str, Callable[[Any, Scale], List[Dict[str, Any]]]] = {
    "fig08": _fig08,
    "fig09": _fig09,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "table1": _table1,
}

BLOCKS = tuple(f"{ds}/{fig}" for ds in ("uniform", "real") for fig in FIGURES)


# ---------------------------------------------------------------------------
# The fleet grid
# ---------------------------------------------------------------------------

FLEET_DATASETS = {"uniform": (90, 5), "real": (120, 2)}
#: DSI with m = 1 and m = 2, the R-tree and HCI.
FLEET_INDEXES = ("dsi-original", "dsi", "rtree", "hci")
FLEET_CHANNELS = (1, 4)
FLEET_CLIENTS = 1_500
FLEET_PHASES = 20
FLEET_SEED = 3
FLEET_ERROR_SEED = 7
#: ``(name, theta, scope)`` of each link-error setting a cell runs under.
FLEET_ERRORS = (("lossless", None, "index"), ("index", 0.12, "index"), ("all", 0.12, "all"))

FLEET_BLOCKS = ("fleet/uniform", "fleet/real", "fleet/experiment")

#: The fleet cells tier-1 recomputes: the uniform grid's 1-channel DSI
#: (m = 2) and HCI cells.
TIER1_FLEET_CELLS = ("uniform/dsi/1ch/", "uniform/hci/1ch/")

#: Fields ``REPRO_PURE=1`` runs may differ in: which engine ran, and why.
ENGINE_FIELDS = ("backend", "backend_reason")


def _fleet_dataset(name: str) -> Any:
    from repro.spatial import real_surrogate_dataset, uniform_dataset

    n, seed = FLEET_DATASETS[name]
    make = uniform_dataset if name == "uniform" else real_surrogate_dataset
    return make(n, seed=seed)


def digest(values: Any) -> str:
    """The sha256 of an array's values as little-endian int64."""
    import numpy as np

    return hashlib.sha256(np.asarray(values).astype("<i8").tobytes()).hexdigest()


@dataclass(frozen=True)
class FleetCell:
    """One grid cell: a fleet (or journey fleet) of one index, channel
    count, workload and link-error setting."""

    name: str
    kind: str
    channels: int
    workload: str  # "window" | "knn" | "mixed" | "journey-window" | "journey-knn"
    theta: Optional[float]
    scope: str
    strategy: str = "conservative"
    optimized: bool = False


def fleet_cells(ds_name: str) -> List[FleetCell]:
    """Every grid cell over one dataset, in grid order."""
    cells: List[FleetCell] = []
    for kind in FLEET_INDEXES:
        dsi = kind.startswith("dsi")
        strategies = ("conservative", "aggressive") if dsi else ("conservative",)
        for channels in FLEET_CHANNELS:

            def add(name: str, workload: str, theta: Optional[float], scope: str, **extra):
                cells.append(FleetCell(
                    f"{ds_name}/{kind}/{channels}ch/{name}", kind, channels, workload,
                    theta, scope, **extra,
                ))

            for err, theta, scope in FLEET_ERRORS:
                add(f"window/{err}", "window", theta, scope)
                for strategy in strategies:
                    add(f"knn-{strategy}/{err}", "knn", theta, scope, strategy=strategy)
                for workload in ("journey-window", "journey-knn"):
                    add(f"{workload}/{err}", workload, theta, scope)
            add("mixed/lossless", "mixed", None, "index")
            for err, theta, scope in FLEET_ERRORS[:2]:
                add(f"optimized-window/{err}", "window", theta, scope, optimized=True)
    return cells


def _fleet_workloads() -> Dict[str, Any]:
    from repro.mobility import trajectory_workload
    from repro.queries.workload import knn_workload, mixed_workload, window_workload

    return {
        "window": window_workload(n_queries=6, win_side_ratio=0.2, seed=11),
        "knn": knn_workload(n_queries=6, k=4, seed=12),
        "mixed": mixed_workload(n_queries=6, win_side_ratio=0.2, k=4, seed=14),
        **{
            f"journey-{query}": trajectory_workload(
                n_journeys=5, n_steps=3, query=query, win_side_ratio=0.2, k=4, seed=13
            )
            for query in ("window", "knn")
        },
    }


def run_cell(cell: FleetCell, dataset: Any, workloads: Dict[str, Any]) -> Dict[str, Any]:
    """The golden record of one grid cell, freshly run."""
    from repro.broadcast import SystemConfig
    from repro.broadcast.demand import DemandProfile
    from repro.broadcast.schedule import BroadcastSchedule
    from repro.sim import build_index
    from repro.sim.fleet import run_fleet, run_mobile_fleet

    config = SystemConfig(packet_capacity=64, n_channels=cell.channels)
    index = build_index(cell.kind, dataset, config, use_cache=True)
    workload = workloads[cell.workload]
    common = dict(
        seed=FLEET_SEED, max_phases=FLEET_PHASES, error_theta=cell.theta,
        error_scope=cell.scope, error_seed=FLEET_ERROR_SEED, verify=True,
    )
    if cell.workload.startswith("journey"):
        out = run_mobile_fleet(index, dataset, config, workload, FLEET_CLIENTS, **common)
    else:
        schedule = None
        if cell.optimized:
            demand = DemandProfile.from_queries(
                index.program, dataset, [t.query for t in workload]
            )
            schedule = BroadcastSchedule.optimized(
                index.program, demand, channels=cell.channels, budget=2.0
            )
        out = run_fleet(
            index, dataset, config, workload, FLEET_CLIENTS,
            knn_strategy=cell.strategy, schedule=schedule, **common,
        )
    return {
        "cell": cell.name,
        "backend": out.backend,
        "backend_reason": out.backend_reason or "",
        "capped_executions": out.capped_executions,
        "n_executions": out.n_executions,
        "correct": out.result.correct_trials,
        "incorrect": out.result.incorrect_trials,
        "unique_latency": digest(out.unique_latency),
        "unique_tuning": digest(out.unique_tuning),
        "unique_counts": digest(out.unique_counts),
    }


def fleet_grid(ds_name: str, prefixes: Tuple[str, ...] = ()) -> List[Dict[str, Any]]:
    """The records of one dataset's grid (only the cells whose names start
    with one of ``prefixes``, if any are given)."""
    dataset = _fleet_dataset(ds_name)
    workloads = _fleet_workloads()
    return [
        run_cell(cell, dataset, workloads)
        for cell in fleet_cells(ds_name)
        if not prefixes or cell.name.startswith(prefixes)
    ]


def _experiment_rows() -> List[Dict[str, Any]]:
    """The rows of one ``Experiment`` fleet sweep and one mobility sweep."""
    from repro.api import Experiment

    fleet_rows = (
        Experiment(_fleet_dataset("uniform"))
        .indexes("dsi", "rtree", "hci")
        .window_workload(n_queries=6, win_side_ratio=0.2, seed=11)
        .knn_workload(n_queries=6, k=4, seed=12)
        .fleet(FLEET_CLIENTS, seed=FLEET_SEED, max_phases=FLEET_PHASES)
        .channels(1, 4)
        .sweep(theta=[0.0, 0.12])
        .verify()
        .run(parallel=False)
        .rows
    )
    mobility_rows = (
        Experiment(_fleet_dataset("real"))
        .indexes("dsi", "hci")
        .fleet(FLEET_CLIENTS, seed=FLEET_SEED, max_phases=FLEET_PHASES)
        .mobility(1, 3, n_journeys=5, win_side_ratio=0.2, seed=13)
        .errors(theta=0.12, scope="index", seed=FLEET_ERROR_SEED)
        .verify()
        .run(parallel=False)
        .rows
    )
    return [{"sweep": "fleet", **row} for row in fleet_rows] + [
        {"sweep": "mobility", **row} for row in mobility_rows
    ]


# ---------------------------------------------------------------------------
# Encoding, files and the command line
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """An int or a str as it is, a float as its exact ratio pair (a
    non-finite float as its repr string)."""
    if isinstance(value, bool):
        raise TypeError("golden rows hold no booleans")
    if isinstance(value, (int, str)):
        return value
    value = float(value)
    if not math.isfinite(value):
        return repr(value)
    return list(value.as_integer_ratio())


def compute(block: str, paper: bool = False) -> List[Dict[str, Any]]:
    """The encoded rows of one block, freshly computed (a figure block at
    the paper's scale with ``paper``)."""
    group, name = block.split("/")
    if group == "fleet":
        rows = _experiment_rows() if name == "experiment" else fleet_grid(name)
    else:
        scale = PAPER if paper else REDUCED
        rows = FIGURES[name](_dataset(group, scale), scale)
    return [{key: encode_value(value) for key, value in row.items()} for row in rows]


def path_of(block: str, paper: bool = False) -> Path:
    """The file that holds ``block``."""
    if block.startswith("fleet/"):
        return FLEET_PATH
    return PAPER_PATH if paper else GOLDEN_PATH


def load(path: Path = GOLDEN_PATH) -> Dict[str, List[Dict[str, Any]]]:
    return json.loads(path.read_text())


def dump(blocks: Dict[str, List[Dict[str, Any]]]) -> str:
    """The JSON text: one row per line, blocks in :data:`BLOCKS` /
    :data:`FLEET_BLOCKS` order."""
    names = [name for name in BLOCKS + FLEET_BLOCKS if name in blocks]
    lines = ["{"]
    for i, name in enumerate(names):
        rows = blocks[name]
        lines.append(f"  {json.dumps(name)}: [")
        lines.extend(
            f"    {json.dumps(row)}{',' if j < len(rows) - 1 else ''}"
            for j, row in enumerate(rows)
        )
        lines.append("  ]" + ("," if i < len(names) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def comparable(row: Dict[str, Any]) -> Dict[str, Any]:
    """``row`` less the fields a ``REPRO_PURE=1`` run may change."""
    from repro.purity import pure_mode

    if not pure_mode():
        return row
    return {key: value for key, value in row.items() if key not in ENGINE_FIELDS}


def diff(block: str, want: List[Dict[str, Any]], got: List[Dict[str, Any]]) -> List[str]:
    """Human-readable differences between a committed and a fresh block."""
    out = []
    if len(want) != len(got):
        out.append(f"{block}: {len(want)} committed rows, {len(got)} computed")
    for i, (old, new) in enumerate(zip(want, got)):
        if comparable(old) != comparable(new):
            out.append(f"{block}[{i}]: committed {json.dumps(old)}")
            out.append(f"{block}[{i}]:  computed {json.dumps(new)}")
    return out


def wrong_answers(block: str, rows: List[Dict[str, Any]]) -> List[str]:
    """Wrong answers among freshly computed rows, whatever the committed
    file says: a row that carries ``accuracy`` must read exactly 1, and a
    lossless fleet cell must count no incorrect trial."""
    out = []
    for i, row in enumerate(rows):
        if "accuracy" in row and row["accuracy"] != [1, 1]:
            out.append(f"{block}[{i}]: accuracy {json.dumps(row['accuracy'])}, not 1")
        if row.get("cell", "").endswith("/lossless") and row["incorrect"]:
            out.append(f"{block}[{i}]: {row['incorrect']} incorrect trials, lossless")
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="recompute and compare")
    mode.add_argument("--write", action="store_true", help="recompute and rewrite")
    parser.add_argument(
        "--paper", action="store_true",
        help="the figure blocks at the paper's scale (figure_rows_paper.json)",
    )
    parser.add_argument(
        "blocks", nargs="*",
        help=f"blocks (default all): {' '.join(BLOCKS + FLEET_BLOCKS)}",
    )
    args = parser.parse_args(argv)
    known = BLOCKS if args.paper else BLOCKS + FLEET_BLOCKS
    unknown = sorted(set(args.blocks) - set(known))
    if unknown:
        parser.error(f"unknown blocks {unknown}")
    names = args.blocks or list(known)
    fresh = {name: compute(name, args.paper) for name in names}
    paths = sorted({path_of(name, args.paper) for name in names})
    if args.write:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for path in paths:
            stored = load(path) if path.exists() else {}
            mine = {n: rows for n, rows in fresh.items() if path_of(n, args.paper) == path}
            path.write_text(dump({**stored, **mine}))
        print(f"wrote {sum(map(len, fresh.values()))} rows in {len(fresh)} blocks")
        return 0
    stored: Dict[str, List[Dict[str, Any]]] = {}
    for path in paths:
        if path.exists():
            stored.update(load(path))
    problems = [
        line
        for name in names
        for line in diff(name, stored.get(name, []), fresh[name])
        + wrong_answers(name, fresh[name])
    ]
    print("\n".join(problems) if problems else
          f"{sum(map(len, fresh.values()))} rows in {len(fresh)} blocks match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
