"""The committed golden outputs (``tests/golden/``) still hold.

Tier-1 recomputes the Table 1 and Figure 9-11 blocks of both datasets and
a slice of the fleet grid; CI's ``golden`` job runs ``python
tests/golden.py --check`` on every reduced-scale block, with and without
``REPRO_PURE=1``, and its ``golden-paper`` job checks the paper-scale
rows.  See ``tests/golden.py`` for the update rule.
"""

from __future__ import annotations

import pytest

import golden

TIER1_BLOCKS = [
    f"{ds}/{fig}" for ds in ("uniform", "real") for fig in golden.TIER1_FIGURES
]


@pytest.fixture(scope="module")
def committed():
    return golden.load()


def _integers_and_strings(blocks):
    for rows in blocks.values():
        for row in rows:
            for value in row.values():
                assert isinstance(value, (int, str, list)), value
                if isinstance(value, list):
                    assert len(value) == 2 and all(type(v) is int for v in value)


def test_golden_file_holds_every_block(committed):
    assert list(committed) == list(golden.BLOCKS)
    assert sum(map(len, committed.values())) == 172
    _integers_and_strings(committed)


def test_paper_and_fleet_files_hold_every_block():
    paper = golden.load(golden.PAPER_PATH)
    assert list(paper) == list(golden.BLOCKS)
    assert sum(map(len, paper.values())) == 196
    fleet = golden.load(golden.FLEET_PATH)
    assert list(fleet) == list(golden.FLEET_BLOCKS)
    for ds in ("uniform", "real"):
        assert [row["cell"] for row in fleet[f"fleet/{ds}"]] == [
            cell.name for cell in golden.fleet_cells(ds)
        ]
    _integers_and_strings(paper)
    _integers_and_strings(fleet)


@pytest.mark.parametrize("block", TIER1_BLOCKS)
def test_golden_rows_reproduce(block, committed):
    fresh = golden.compute(block)
    assert golden.diff(block, committed[block], fresh) == []
    assert golden.wrong_answers(block, fresh) == []


def test_golden_fleet_cells_reproduce():
    fresh = golden.fleet_grid("uniform", golden.TIER1_FLEET_CELLS)
    assert fresh
    cells = {row["cell"]: row for row in golden.load(golden.FLEET_PATH)["fleet/uniform"]}
    want = [cells[row["cell"]] for row in fresh]
    assert golden.diff("fleet/uniform", want, fresh) == []
    assert golden.wrong_answers("fleet/uniform", fresh) == []


def test_wrong_answers_flag_accuracy_and_lossless_cells():
    rows = [
        {"accuracy": [1, 1]},
        {"accuracy": [19, 20]},
        {"accuracy": "nan"},
        {"cell": "uniform/dsi/1ch/window/lossless", "incorrect": 0},
        {"cell": "uniform/dsi/1ch/window/lossless", "incorrect": 2},
        {"cell": "uniform/dsi/1ch/window/all", "incorrect": 2},
    ]
    flagged = [line.split(":")[0] for line in golden.wrong_answers("b", rows)]
    assert flagged == ["b[1]", "b[2]", "b[4]"]
