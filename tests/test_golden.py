"""The committed figure rows (``tests/golden/figure_rows.json``) still hold.

Tier-1 recomputes the Table 1 and Figure 9-11 blocks of both datasets;
CI's ``golden`` job runs ``python tests/golden.py --check`` on every block,
with and without ``REPRO_PURE=1``.  See ``tests/golden.py`` for the update
rule.
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


def test_golden_file_holds_every_block(committed):
    assert list(committed) == list(golden.BLOCKS)
    assert sum(map(len, committed.values())) == 172
    for rows in committed.values():
        for row in rows:
            for value in row.values():
                assert isinstance(value, (int, str, list)), value
                if isinstance(value, list):
                    assert len(value) == 2 and all(type(v) is int for v in value)


@pytest.mark.parametrize("block", TIER1_BLOCKS)
def test_golden_rows_reproduce(block, committed):
    fresh = golden.compute(block)
    assert golden.diff(block, committed[block], fresh) == []
