"""Golden outputs: the paper's figure and Table 1 rows, committed.

Every block is one figure (or Table 1) of one dataset at the benchmarks'
reduced scale (``uniform_dataset(1_200, seed=7)`` and
``real_surrogate_dataset(1_000, seed=11)``, 20 queries, 10 per error
table), computed serially with ``verify=True`` where the sweep takes it.
``tests/golden/figure_rows.json`` holds them as integers and strings only:
a float column is stored as its ``float.as_integer_ratio()`` pair, so the
file fixes every row bit for bit and no float repr is parsed back.  One
row is one line, so the git diff of a rewrite is the list of moved rows.

    PYTHONPATH=src python tests/golden.py --check   # recompute, compare
    PYTHONPATH=src python tests/golden.py --write   # rewrite the JSON
    PYTHONPATH=src python tests/golden.py --check uniform/table1

A change that moves an output on purpose commits the rewritten JSON and
names the moved blocks; tier-1 (``tests/test_golden.py``) recomputes the
Table 1 and Figure 9-11 blocks, CI's ``golden`` job all of them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "figure_rows.json"

N_UNIFORM = 1_200
N_REAL = 1_000
N_QUERIES = 20
N_QUERIES_ERRORS = 10
CAPACITIES = (64, 128, 256, 512)
SMALL_CAPACITIES = (64, 256)
RATIOS = (0.02, 0.05, 0.1, 0.2)
KS = (1, 3, 10, 20)
THETAS = (0.1, 0.3)
SCOPES = ("index", "all", "data")

#: The blocks tier-1 recomputes (about 10 s serially); the rest run in CI.
TIER1_FIGURES = ("fig09", "fig10", "fig11", "table1")


def _dataset(name: str) -> Any:
    from repro.spatial import real_surrogate_dataset, uniform_dataset

    if name == "uniform":
        return uniform_dataset(N_UNIFORM, seed=7)
    return real_surrogate_dataset(N_REAL, seed=11)


def _fig08(ds: Any) -> List[Dict[str, Any]]:
    from repro.sim.sweep import reorganization_sweep

    return reorganization_sweep(
        ds, CAPACITIES, n_queries=N_QUERIES, k=10, verify=True, processes=1
    )


def _fig09(ds: Any) -> List[Dict[str, Any]]:
    from repro.sim.sweep import window_capacity_sweep

    return window_capacity_sweep(
        ds, CAPACITIES, n_queries=N_QUERIES, verify=True, processes=1
    )


def _fig10(ds: Any) -> List[Dict[str, Any]]:
    from repro.sim.sweep import window_ratio_sweep

    return window_ratio_sweep(
        ds, RATIOS, capacity=64, n_queries=N_QUERIES, verify=True, processes=1
    )


def _fig11(ds: Any) -> List[Dict[str, Any]]:
    from repro.sim.sweep import knn_capacity_sweep

    return [
        row
        for k in (1, 10)
        for row in knn_capacity_sweep(
            ds, SMALL_CAPACITIES, k=k, n_queries=N_QUERIES, verify=True, processes=1
        )
    ]


def _fig12(ds: Any) -> List[Dict[str, Any]]:
    from repro.sim.sweep import knn_k_sweep

    return knn_k_sweep(ds, KS, capacity=64, n_queries=N_QUERIES, verify=True, processes=1)


def _table1(ds: Any) -> List[Dict[str, Any]]:
    from repro.sim.sweep import link_error_table

    return [
        {**row, "scope": scope}
        for scope in SCOPES
        for row in link_error_table(
            ds, THETAS, capacity=64, n_queries=N_QUERIES_ERRORS, k=10,
            error_scope=scope, processes=1,
        )
    ]


FIGURES: Dict[str, Callable[[Any], List[Dict[str, Any]]]] = {
    "fig08": _fig08,
    "fig09": _fig09,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "table1": _table1,
}

BLOCKS = tuple(f"{ds}/{fig}" for ds in ("uniform", "real") for fig in FIGURES)


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


def compute(block: str) -> List[Dict[str, Any]]:
    """The encoded rows of one block, freshly computed."""
    ds_name, fig = block.split("/")
    rows = FIGURES[fig](_dataset(ds_name))
    return [{key: encode_value(value) for key, value in row.items()} for row in rows]


def load() -> Dict[str, List[Dict[str, Any]]]:
    return json.loads(GOLDEN_PATH.read_text())


def dump(blocks: Dict[str, List[Dict[str, Any]]]) -> str:
    """The JSON text: one row per line, blocks in :data:`BLOCKS` order."""
    names = [name for name in BLOCKS if name in blocks]
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


def diff(block: str, want: List[Dict[str, Any]], got: List[Dict[str, Any]]) -> List[str]:
    """Human-readable differences between a committed and a fresh block."""
    out = []
    if len(want) != len(got):
        out.append(f"{block}: {len(want)} committed rows, {len(got)} computed")
    for i, (old, new) in enumerate(zip(want, got)):
        if old != new:
            out.append(f"{block}[{i}]: committed {json.dumps(old)}")
            out.append(f"{block}[{i}]:  computed {json.dumps(new)}")
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="recompute and compare")
    mode.add_argument("--write", action="store_true", help="recompute and rewrite")
    parser.add_argument("blocks", nargs="*", help=f"blocks (default all): {' '.join(BLOCKS)}")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.blocks) - set(BLOCKS))
    if unknown:
        parser.error(f"unknown blocks {unknown}")
    names = args.blocks or list(BLOCKS)
    stored = load() if GOLDEN_PATH.exists() else {}
    fresh = {name: compute(name) for name in names}
    if args.write:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(dump({**stored, **fresh}))
        print(f"wrote {sum(map(len, fresh.values()))} rows in {len(fresh)} blocks")
        return 0
    problems = [
        line for name in names for line in diff(name, stored.get(name, []), fresh[name])
    ]
    print("\n".join(problems) if problems else
          f"{sum(map(len, fresh.values()))} rows in {len(fresh)} blocks match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
