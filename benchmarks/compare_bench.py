#!/usr/bin/env python
"""Benchmark regression gate: freshly emitted BENCH JSONs vs committed baselines.

Compares the per-stage numbers of ``BENCH_perf.json`` / ``BENCH_fleet.json``
against the baselines committed at the repository root (or any explicitly
given baseline files), prints a per-stage delta table and exits non-zero
when a stage regresses beyond the tolerance band.

Stage semantics are inferred from the key name:

* ``*_s``                -- wall-clock seconds, lower is better;
* ``*_clients_per_sec``  -- throughput, higher is better;
* ``*_speedup*``         -- ratio, higher is better;
* everything else numeric (counts, sizes) must match exactly;
* string-valued stages (``*_backend``) must match exactly -- a fleet stage
  silently falling off the numpy kernel onto the reference path is a
  regression even before the throughput number moves.

Timing stages are inherently noisy (shared CI runners, cold caches), so the
default tolerance allows a generous 50% slowdown before failing; tighten
with ``--tolerance`` for quieter machines, widen it for noisier ones.  CI's
perf-smoke job gates on this script, enforcing, with ``--tolerance 1.5``: a
stage more than 150% slower than its committed smoke baseline fails the
job.  ``--warn-only`` always exits 0, for surfacing deltas locally without
a verdict.

Usage::

    python benchmarks/compare_bench.py \
        [--fresh-perf BENCH_perf.json] [--fresh-fleet BENCH_fleet.json] \
        [--fresh-mobility BENCH_mobility.json] [--fresh-sched BENCH_sched.json] \
        [--baseline-perf <committed>] [--baseline-fleet <committed>] \
        [--baseline-mobility <committed>] [--baseline-sched <committed>] \
        [--tolerance 0.5] [--warn-only]

With no arguments the fresh files are read from the repository root and the
baselines from ``git show HEAD:<file>`` -- i.e. "did my working tree make
the benches worse than the last commit?".

Fresh files produced in smoke mode are compared against the committed
*smoke* baselines (``BENCH_*.smoke.json``) when those exist, so the CI
perf-smoke job gates like-for-like; a smoke fresh file with only a
full-scale baseline available degrades to an informational comparison (the
scales are incommensurable by construction).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Stage-key suffix -> (direction, kind); direction +1 = higher is better.
_EXACT_KEYS = (
    "executions", "n_clients", "n_objects", "n_queries", "n_encode", "bound",
    "n_journeys", "n_steps", "n_channels",
)


def _flatten(doc: Dict) -> Dict[str, float]:
    """Numeric leaves of a BENCH document (perf nests under "stages")."""
    flat: Dict[str, float] = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    flat[f"{key}.{sub}"] = float(v)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[key] = float(value)
    return flat


def _flatten_str(doc: Dict) -> Dict[str, str]:
    """String-valued stage leaves (``*_backend`` and friends).

    ``host`` and ``meta`` are provenance, not measurements -- they
    legitimately differ between the baseline's machine and this one.
    """
    flat: Dict[str, str] = {}
    for key, value in doc.items():
        if key in ("host", "meta"):
            continue
        if isinstance(value, dict):
            for sub, v in value.items():
                if isinstance(v, str):
                    flat[f"{key}.{sub}"] = v
        elif isinstance(value, str):
            flat[key] = value
    return flat


def _compare_strings(fresh: Dict[str, str], base: Dict[str, str]) -> List[str]:
    """Failures among the string stages (exact match; new stages pass)."""
    failures: List[str] = []
    for key in sorted(base):
        if key not in fresh:
            failures.append(f"{key}: missing from fresh run")
        elif fresh[key] != base[key]:
            failures.append(f"{key}: {base[key]!r} -> {fresh[key]!r}")
    return failures


def _classify(key: str) -> str:
    """"time" (lower better), "throughput" (higher better), "exact" or "info"."""
    base = key.rsplit(".", 1)[-1]
    if any(tag in base for tag in _EXACT_KEYS):
        return "exact"
    if base.endswith("_s"):
        return "time"
    if "clients_per_sec" in base or "speedup" in base:
        return "throughput"
    return "info"


def _load(path_or_none: Optional[str], default: Path) -> Tuple[str, Dict]:
    path = Path(path_or_none) if path_or_none else default
    return str(path), json.loads(path.read_text())


def _git_baseline(name: str) -> Optional[Dict]:
    proc = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "show", f"HEAD:{name}"],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def _sibling_time_key(key: str) -> Optional[str]:
    """The ``*_s`` wall-clock stage a throughput stage was derived from."""
    for suffix in ("_clients_per_sec", "_queries_per_sec"):
        if key.endswith(suffix):
            return key[: -len(suffix)] + "_s"
    return None


def _is_parallel_stage(key: str) -> bool:
    """Whether a stage measures multicore behaviour (speedups, parallel legs)."""
    base = key.rsplit(".", 1)[-1]
    return "speedup" in base or "parallel" in base


def compare(
    fresh: Dict[str, float],
    base: Dict[str, float],
    tolerance: float,
    min_time: float = 0.2,
    single_cpu: Optional[bool] = None,
) -> Tuple[List[Tuple[str, str, float, float, str]], List[str]]:
    """Per-stage rows ``(key, kind, baseline, fresh, verdict)`` and failures.

    Timing stages where both sides are below ``min_time`` seconds are
    reported but never fail: at that scale the numbers measure scheduler
    noise, allocator luck and cache weather, not the code.  The same floor
    shields the throughput stages *derived from* such timings (a
    clients-per-sec figure computed from a sub-noise wall clock is the same
    noise, inverted), and speedup ratios -- quotients of two micro-timings
    -- get twice the tolerance band.

    On a single-CPU host (``single_cpu``; autodetected from
    ``os.cpu_count()`` when ``None``) the parallel stages -- speedup ratios
    and ``*_parallel_*`` legs -- are reported but never gate: a process pool
    degraded to one worker measures fork overhead, not the sharding code,
    so comparing it against a multicore baseline is meaningless.
    """
    if single_cpu is None:
        single_cpu = (os.cpu_count() or 1) == 1
    rows: List[Tuple[str, str, float, float, str]] = []
    failures: List[str] = []
    for key in sorted(set(base) | set(fresh)):
        if single_cpu and _is_parallel_stage(key):
            rows.append(
                (key, "-", base.get(key, float("nan")),
                 fresh.get(key, float("nan")), "skipped (1 cpu)")
            )
            continue
        if key not in fresh:
            rows.append((key, "-", base[key], float("nan"), "missing"))
            failures.append(f"{key}: missing from fresh run")
            continue
        if key not in base:
            rows.append((key, "-", float("nan"), fresh[key], "new"))
            continue
        kind = _classify(key)
        b, f = base[key], fresh[key]
        verdict = "ok"
        if kind == "exact":
            if b != f:
                verdict = "CHANGED"
                failures.append(f"{key}: expected {b:g}, got {f:g}")
        elif kind == "time" and b > 0:
            ratio = f / b
            if ratio > 1.0 + tolerance:
                if b < min_time and f < min_time:
                    verdict = f"noisy x{ratio:.2f} (sub-{min_time:g}s)"
                else:
                    verdict = f"SLOWER x{ratio:.2f}"
                    failures.append(f"{key}: {b:.4f}s -> {f:.4f}s (x{ratio:.2f})")
            elif ratio < 1.0:
                verdict = f"faster x{b / max(f, 1e-12):.2f}"
        elif kind == "throughput" and b > 0:
            ratio = f / b
            band = 2.0 * tolerance if "speedup" in key else tolerance
            if ratio < 1.0 / (1.0 + band):
                sibling = _sibling_time_key(key)
                if sibling is not None and (
                    base.get(sibling, min_time) < min_time
                    and fresh.get(sibling, min_time) < min_time
                ):
                    verdict = f"noisy x{1.0 / ratio:.2f} (sub-{min_time:g}s basis)"
                else:
                    verdict = f"REGRESSED x{1.0 / ratio:.2f}"
                    failures.append(f"{key}: {b:,.0f} -> {f:,.0f} (x{ratio:.2f})")
            elif ratio > 1.0:
                verdict = f"better x{ratio:.2f}"
        rows.append((key, kind, b, f, verdict))
    return rows, failures


def _print_table(title: str, rows: List[Tuple[str, str, float, float, str]]) -> None:
    print(f"\n{title}")
    print(f"{'stage':44s} {'kind':10s} {'baseline':>14s} {'fresh':>14s}  verdict")
    print("-" * 100)
    for key, kind, b, f, verdict in rows:
        print(f"{key:44s} {kind:10s} {b:14.6g} {f:14.6g}  {verdict}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh-perf", default=None)
    parser.add_argument("--fresh-fleet", default=None)
    parser.add_argument("--fresh-mobility", default=None)
    parser.add_argument("--fresh-sched", default=None)
    parser.add_argument("--baseline-perf", default=None)
    parser.add_argument("--baseline-fleet", default=None)
    parser.add_argument("--baseline-mobility", default=None)
    parser.add_argument("--baseline-sched", default=None)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="fractional slowdown allowed before a timing stage fails (default 0.5)",
    )
    parser.add_argument(
        "--min-time",
        type=float,
        default=0.2,
        help="timing stages below this many seconds never fail (default 0.2)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="print deltas but always exit 0",
    )
    args = parser.parse_args(argv)

    all_failures: List[str] = []
    compared = 0
    for label, fresh_arg, base_arg in (
        ("BENCH_perf.json", args.fresh_perf, args.baseline_perf),
        ("BENCH_fleet.json", args.fresh_fleet, args.baseline_fleet),
        ("BENCH_mobility.json", args.fresh_mobility, args.baseline_mobility),
        ("BENCH_sched.json", args.fresh_sched, args.baseline_sched),
    ):
        fresh_path = Path(fresh_arg) if fresh_arg else REPO_ROOT / label
        if not fresh_path.exists():
            print(f"{label}: fresh file {fresh_path} not found -- skipped")
            continue
        fresh_doc = json.loads(fresh_path.read_text())
        if base_arg:
            base_doc = json.loads(Path(base_arg).read_text())
            base_src = base_arg
        else:
            base_doc = _git_baseline(label)
            base_src = f"git HEAD:{label}"
            if fresh_doc.get("smoke"):
                # A smoke-mode fresh run gates against the committed smoke
                # baseline when one exists (like for like).
                smoke_name = label.replace(".json", ".smoke.json")
                smoke_doc = _git_baseline(smoke_name)
                if smoke_doc is not None:
                    base_doc, base_src = smoke_doc, f"git HEAD:{smoke_name}"
            if base_doc is None:
                print(f"{label}: no committed baseline -- skipped")
                continue
        fresh_flat, base_flat = _flatten(fresh_doc), _flatten(base_doc)
        if fresh_doc.get("smoke") != base_doc.get("smoke") and "smoke" in base_doc:
            print(
                f"{label}: smoke-mode mismatch (baseline smoke={base_doc.get('smoke')}, "
                f"fresh smoke={fresh_doc.get('smoke')}) -- deltas are informational only"
            )
            rows, _ = compare(fresh_flat, base_flat, args.tolerance, args.min_time)
            _print_table(f"{label} ({fresh_path} vs {base_src})", rows)
            compared += 1
            continue
        rows, failures = compare(fresh_flat, base_flat, args.tolerance, args.min_time)
        _print_table(f"{label} ({fresh_path} vs {base_src})", rows)
        all_failures.extend(f"{label}: {msg}" for msg in failures)
        str_failures = _compare_strings(
            _flatten_str(fresh_doc), _flatten_str(base_doc)
        )
        for msg in str_failures:
            print(f"  {label} string stage: {msg}")
        all_failures.extend(f"{label}: {msg}" for msg in str_failures)
        compared += 1

    if not compared:
        print("nothing compared")
        return 0
    if all_failures:
        print(f"\n{len(all_failures)} regression(s) beyond tolerance:")
        for msg in all_failures:
            print(f"  - {msg}")
        if args.warn_only:
            print("(warn-only mode: exiting 0)")
            return 0
        return 1
    print("\nall stages within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
