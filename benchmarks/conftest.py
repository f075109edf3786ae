"""Shared configuration of the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section (see DESIGN.md, per-experiment index).  By default the benchmarks
run at a reduced scale so the whole suite finishes in minutes; setting
``REPRO_FULL_SCALE=1`` switches to the paper's setup (10,000 uniform
objects, 5,848 clustered objects, more trials) at the cost of a much longer
run time.

Each benchmark prints the rows of its figure (one curve per index) so the
shape -- who wins, by roughly what factor, where the crossovers are -- can
be compared against the paper; EXPERIMENTS.md records that comparison.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np
import pytest

from repro.purity import pure_mode
from repro.sim.parallel import default_processes
from repro.spatial import real_surrogate_dataset, uniform_dataset

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "0") not in ("", "0", "false")

#: Smoke mode shrinks the perf microbenchmark so CI can run it on every push.
BENCH_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0", "false")

#: Record mode: the benches write their BENCH_*.json files and assert their
#: wall-clock floors only when ``REPRO_BENCH_RECORD=1`` (the CI perf jobs set
#: it).  A plain test run keeps the equality and figure-row assertions,
#: depends on no timing and leaves the working tree untouched.
BENCH_RECORD = os.environ.get("REPRO_BENCH_RECORD", "0") not in ("", "0", "false")


@dataclass(frozen=True)
class BenchScale:
    """Scale knobs shared by all benchmarks."""

    n_uniform: int
    n_real: int
    n_queries: int
    n_queries_errors: int
    capacities: tuple
    capacities_small: tuple


REDUCED = BenchScale(
    n_uniform=1_200,
    n_real=1_000,
    n_queries=20,
    n_queries_errors=10,
    capacities=(64, 128, 256, 512),
    capacities_small=(64, 256),
)

FULL = BenchScale(
    n_uniform=10_000,
    n_real=5_848,
    n_queries=100,
    n_queries_errors=40,
    capacities=(64, 128, 256, 512),
    capacities_small=(64, 128, 256, 512),
)


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return FULL if FULL_SCALE else REDUCED


@pytest.fixture(scope="session")
def processes() -> int:
    """Worker count for the parallel sweep executor.

    ``REPRO_PROCESSES`` overrides (``1`` forces serial, which also keeps the
    per-process index-build cache shared across figure benchmarks); the
    default is the capped CPU count.  Sweep rows are identical either way --
    parallelism only changes wall-clock time.
    """
    return default_processes()


@pytest.fixture(scope="session")
def uniform(scale):
    """The paper's UNIFORM dataset (reduced by default)."""
    return uniform_dataset(scale.n_uniform, seed=7)


@pytest.fixture(scope="session")
def real(scale):
    """Surrogate of the paper's REAL dataset (clustered points)."""
    return real_surrogate_dataset(scale.n_real, seed=11)


def emit(title: str, text: str) -> None:
    """Print a figure report (pytest shows it with -s / on benchmark runs)."""
    print(f"\n{'=' * 78}\n{title}\n{'=' * 78}\n{text}\n")


# ---------------------------------------------------------------------------
# BENCH JSON writer: rounded stages, no pure-noise rewrites
# ---------------------------------------------------------------------------

#: Significant digits kept on float stages (raw perf counters carry ~15
#: noise digits that churn the committed files on every run).
_BENCH_SIG_DIGITS = 5

#: Relative delta below which a float stage counts as measurement noise.
_BENCH_REL_NOISE = 0.10


def host_metadata() -> Dict:
    """Provenance of the machine a BENCH document was measured on.

    Stored under the ``host`` key of every BENCH JSON so a number can be
    traced to the hardware and software stack that produced it -- a
    clients-per-second figure from a 1-vCPU container and one from a 4-vCPU
    runner are different experiments.  ``kernel_backend`` records whether
    the batched numpy kernels were eligible (``REPRO_PURE=1`` forces the
    pure-python reference paths everywhere).
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "kernel_backend": "pure" if pure_mode() else "numpy",
    }


def _round_floats(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.{_BENCH_SIG_DIGITS}g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    return value


def _non_numeric(value):
    """The document with every numeric (non-bool) leaf dropped."""
    if isinstance(value, dict):
        out = {}
        for key, sub in value.items():
            if isinstance(sub, bool) or not isinstance(sub, (int, float)):
                out[key] = _non_numeric(sub)
        return out
    return value


def _within_noise(old: Dict, new: Dict, rel_noise: float, min_time: float) -> bool:
    """Whether two BENCH documents differ only by measurement noise.

    Classification mirrors ``compare_bench``: exact-count stages must match
    exactly, timing stages where both sides sit below ``min_time`` seconds
    are pure scheduler weather, and every other numeric stage may move by
    ``rel_noise`` relative.  Non-numeric leaves must be equal.
    """
    import compare_bench

    flat_old = compare_bench._flatten(old)
    flat_new = compare_bench._flatten(new)
    if set(flat_old) != set(flat_new):
        return False
    # Non-numeric leaves (smoke flag, labels) must agree exactly.
    if _non_numeric(old) != _non_numeric(new):
        return False
    for key, old_value in flat_old.items():
        new_value = flat_new[key]
        kind = compare_bench._classify(key)
        if kind == "exact":
            if old_value != new_value:
                return False
        elif kind == "time" and old_value < min_time and new_value < min_time:
            continue
        else:
            # Speedup ratios divide two micro-timings, so their run-to-run
            # variance is far above the plain stages'; a wider floor stops
            # them alone from churning the file (the benches assert hard
            # minimum speedups separately).
            floor = max(rel_noise, 0.5) if "speedup" in key else rel_noise
            scale = max(abs(old_value), abs(new_value), 1e-12)
            if abs(new_value - old_value) > floor * scale:
                return False
    return True


def write_bench(
    path: Path,
    doc: Dict,
    *,
    rel_noise: float = _BENCH_REL_NOISE,
    min_time: float = 0.2,
    meta: Optional[Dict] = None,
) -> bool:
    """Write a BENCH document, unless the change is pure measurement noise.

    Float stages are rounded to ``_BENCH_SIG_DIGITS`` significant digits,
    and when a committed file already exists whose stages all sit inside
    the noise floor the write is skipped outright -- back-to-back commits
    stop rewriting BENCH files with meaningless timing wiggle.  Returns
    ``True`` when the file was (re)written.  Every document is stamped with
    :func:`host_metadata` under ``host`` before writing; ``meta`` records
    experiment provenance (channel topology, schedule policy, workload
    shape) under the ``meta`` key so a number can be traced to the setup
    that produced it, not just the machine.  Outside record mode
    (``REPRO_BENCH_RECORD``) nothing is written.
    """
    if not BENCH_RECORD:
        print(f"{path.name}: not recorded (set REPRO_BENCH_RECORD=1 to write)")
        return False
    doc = dict(doc)
    if meta:
        doc["meta"] = {**doc.get("meta", {}), **meta}
    doc.setdefault("host", host_metadata())
    rounded = _round_floats(doc)
    if path.exists():
        try:
            old = json.loads(path.read_text())
        except (ValueError, OSError):
            old = None
        if old is not None and _within_noise(old, rounded, rel_noise, min_time):
            print(f"{path.name}: all stages within the noise floor -- not rewritten")
            return False
    path.write_text(json.dumps(rounded, indent=2, sort_keys=True) + "\n")
    return True
