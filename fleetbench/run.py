#!/usr/bin/env python3
"""Fleet benchmark: how fast the simulator produces the paper's outputs.

Run from the repository root::

    python3 fleetbench/run.py --workload dsi_knn_4ch --seed 1 --seconds 10 --trace 0
    python3 fleetbench/run.py --workload all --seed 1 --record set_a.jsonl
    python3 fleetbench/run.py compare set_a.jsonl set_b.jsonl

One run sets a workload up (median of several fresh set-ups), then issues
fleet calls back to back from this one process for ``--seconds`` (a closed
loop, serial, no process pool), then checks the outputs: every call must
return the first call's per-execution arrays on the declared engine, an
audit fleet must give the same numbers under ``REPRO_PURE=1`` (apart from
the known divergences README.md lists), and lossless workloads must answer
every query exactly.  It prints every
metric as ``name value unit`` and ends with one JSON line.  ``--trace 1``
makes a separate run that replays fleet calls as their layer calls and
reports per-layer self times instead (see README.md).

Timings are scaled to a reference host speed: a fixed calibration kernel
runs before every set-up and every timed call.  Its time over
``CAL_REF_MS`` is the host factor: each set-up is divided by the factor
measured just before it, and call throughput is multiplied by the median
factor of the timed loop.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Median calibration time, in ms, on the host the metrics are scaled to
#: (a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4).
CAL_REF_MS = 25.0
CAL_LOOP = 200_000
CAL_SORT_N = 100_000
#: Timed calls made even when they take longer than ``--seconds``.
MIN_CALLS = 3
#: Kernel executions rerun on the reference planner in a traced run.
REFERENCE_SAMPLE = 32
#: Candidate tail percentiles of the call time.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail_percentile(n: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least ten of ``n`` samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


class Calibrator:
    """A fixed pure-Python loop plus a numpy sort, timed per run phase."""

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).random(CAL_SORT_N)
        self.samples: Dict[str, List[float]] = {}

    def __call__(self, phase: str) -> float:
        """Run the kernel once; returns and records its time in seconds."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc = (acc * 1_103_515_245 + i) & 0x7FFFFFFF
        np.sort(self._array)
        elapsed = time.perf_counter() - t0
        self.samples.setdefault(phase, []).append(elapsed)
        return elapsed

    def factor(self, phase: str) -> float:
        """Median calibration time of a phase over the reference: above 1 on a
        slower host."""
        return statistics.median(self.samples[phase]) * 1000.0 / CAL_REF_MS


def check_call(results: List[Any], first: List[Any], backend: str) -> Optional[str]:
    """Why a fleet call's outputs are wrong, or ``None``."""
    for result, ref in zip(results, first):
        if result.backend != backend:
            return f"ran on {result.backend!r}, not {backend!r}: {result.backend_reason}"
        for name in ("unique_latency", "unique_tuning", "unique_counts"):
            if not np.array_equal(getattr(result, name), getattr(ref, name)):
                return f"{name} differs from the run's first call"
    return None


def known_divergence(bench: Any, kernel_tuning: float, reference_tuning: float,
                     answers: List[Any]) -> Optional[str]:
    """The known class of a kernel/reference difference, or ``None``.

    On lossless workloads the kernel sometimes reads a data bucket that the
    reference planner skips (README.md, "Defects the audit found").  When
    the skipped bucket held an answer object the reference answer is wrong
    (``reference_wrong``); otherwise both answers are right
    (``kernel_reads_more``).  Any other difference is unexplained.
    """
    from spans import answers_correct

    if not bench.spec.lossless or kernel_tuning <= reference_tuning:
        return None
    return "kernel_reads_more" if answers_correct(bench.dataset, answers) else "reference_wrong"


def audit(bench: Any, n_clients: int) -> Dict[str, int]:
    """Rerun a small fleet (fleet seed + 1) under ``REPRO_PURE=1`` and compare.

    Both runs verify every answer against ground truth.  Each execution
    whose numbers differ is rerun on the reference planner and counted under
    its :func:`known_divergence` class, or as ``mismatched``.
    """
    from repro.purity import PURE_ENV
    from spans import Tracer, reference_execution, replay_run

    out = {"executions": 0, "mismatched": 0, "reference_wrong": 0, "kernel_reads_more": 0,
           "wrong": 0, "checked": 0}
    seed = bench.seeds.fleet + 1
    for index in bench.indexes:
        fast = bench.run(index, n_clients, seed, verify=True)
        saved = os.environ.get(PURE_ENV)
        os.environ[PURE_ENV] = "1"
        try:
            ref = bench.run(index, n_clients, seed, verify=True)
        finally:
            if saved is None:
                del os.environ[PURE_ENV]
            else:
                os.environ[PURE_ENV] = saved
        out["executions"] += fast.n_executions
        out["wrong"] += fast.result.incorrect_trials
        out["checked"] += fast.result.correct_trials + fast.result.incorrect_trials
        if ref.backend != "reference" or not np.array_equal(fast.unique_counts, ref.unique_counts):
            out["mismatched"] += fast.n_executions
            continue
        differ = np.flatnonzero(
            (fast.unique_latency != ref.unique_latency) | (fast.unique_tuning != ref.unique_tuning)
        )
        if not len(differ):
            continue
        rep = replay_run(Tracer(enabled=False), bench, index, n_clients, seed)
        for i in differ.tolist():
            lat, tun, answers = reference_execution(
                bench, index, rep["view"], int(rep["keys"][i]), rep["n_phases"], rep["cycle"]
            )
            kind = None
            if (lat, tun) == (ref.unique_latency[i], ref.unique_tuning[i]):
                kind = known_divergence(bench, fast.unique_tuning[i], tun, answers)
            out[kind or "mismatched"] += 1
    return out


def _layer_metrics(tracer: Any, traced: List[Dict[str, Any]], steady: float,
                   cal: Calibrator, audit_executions: int) -> Dict[str, float]:
    """Per-layer metrics from a traced run's spans (times in reference ms).

    Times are medians over set-ups or traced calls of each layer's summed
    self time; counts are medians over the traced calls.
    """
    self_t = tracer.per_call(exclusive=True)
    total_t = tracer.per_call(exclusive=False)
    setups = [c for c in self_t if c.startswith("setup-")]
    calls = [c for c in self_t if c.startswith("call-")]

    def med(table, ids, name):
        return statistics.median(table[c].get(name, 0.0) for c in ids)

    def ms(seconds, phase="calls"):
        return seconds * 1000.0 / cal.factor(phase)

    def count(name):
        return statistics.median(t[name] for t in traced)

    call_s = med(total_t, calls, "fleet.call")
    out = {
        "spatial.dataset_ms": ms(med(self_t, setups, "spatial.dataset"), "setup"),
        "queries.workload_ms": ms(med(self_t, setups, "queries.workload"), "setup"),
        "index.build_ms": ms(med(self_t, setups, "index.build"), "setup"),
        "sched.build_ms": ms(med(total_t, setups, "sched.build"), "setup"),
        "fleet.cold_extra_ms": ms(med(total_t, setups, "fleet.cold"), "setup") - ms(steady),
    }
    for name in ("schedule.view", "timeline.compile", "timeline.first_hop",
                 "metrics.wait_add", "kernel.simulate", "metrics.fanout"):
        out[f"{name}_ms"] = ms(med(self_t, calls, name))
    out["reference.execute_ms"] = ms(statistics.median(tracer.durations("reference.execute")))
    out["fleet.call_ms"] = ms(call_s)
    out["fleet.self_ms"] = ms(med(self_t, calls, "fleet.call"))
    out["trace.overhead_pct"] = (statistics.median(t["wall"] for t in traced) / steady - 1) * 100
    out["fleet.executions"] = count("executions")
    out["fleet.collapse_ratio"] = statistics.median(t["clients"] / t["executions"] for t in traced)
    out["fleet.executions_per_s"] = count("executions") / ms(call_s) * 1000.0
    out["reference.executions"] = count("n_reference")
    out["audit.executions"] = audit_executions
    out["metrics.values_added"] = count("values_added")
    return out


def _reference_sample(tracer: Any, bench: Any, replays: List[Dict[str, Any]]) -> List[str]:
    """Rerun a sample of kernel executions on the reference planner.

    Returns a note per execution whose numbers differ, unless the
    difference is a :func:`known_divergence`.
    """
    from spans import reference_execution

    notes = []
    tracer.call_id = "sample"
    for index, rep in zip(bench.indexes, replays):
        n = len(rep["keys"])
        for i in sorted({(j * n) // REFERENCE_SAMPLE for j in range(REFERENCE_SAMPLE)}):
            key = int(rep["keys"][i])
            with tracer.span("reference.execute"):
                lat, tun, answers = reference_execution(
                    bench, index, rep["view"], key, rep["n_phases"], rep["cycle"]
                )
            if (lat, tun) != (rep["latency"][i], rep["tuning"][i]) and not known_divergence(
                bench, rep["tuning"][i], tun, answers
            ):
                notes.append(f"reference sample: execution {key} of {index.name} differs")
    return notes


def run_workload(
    spec: Any,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    max_calls: Optional[int] = None,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Measure one workload; returns metrics, info, call counts and failure notes."""
    from spans import Tracer, replay_run
    from workloads import Seeds, build

    tracer = Tracer(enabled=trace)
    cal = Calibrator()
    cal("warm-up")
    notes: List[str] = []

    # -- set-up: each input from nothing to its first fleet result ------------
    inputs = []
    setup_walls: List[float] = []
    setup_scaled: List[float] = []
    for k in range(spec.inputs):
        gc.collect()
        factor = cal("setup") * 1000.0 / CAL_REF_MS
        tracer.call_id = f"setup-{k}"
        t0 = time.perf_counter()
        bench = build(spec, Seeds.derive(seed, k), tracer)
        with tracer.span("fleet.cold"):
            first = bench.call()
        setup_walls.append(time.perf_counter() - t0)
        setup_scaled.append(setup_walls[-1] / factor)
        problem = check_call(first, first, spec.backend)
        if problem:
            notes.append(f"input {k}, first call: {problem}")
        inputs.append((bench, first))

    # -- timed calls, closed loop over the inputs; a traced run follows each
    # -- call with its replay --------------------------------------------------
    walls: List[List[float]] = [[] for _ in inputs]
    traced: List[Dict[str, Any]] = []
    last_replay = None
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        if max_calls is not None:
            if attempted >= max_calls:
                break
        elif attempted >= max(MIN_CALLS, len(inputs)) and time.perf_counter() >= deadline:
            break
        k = attempted % len(inputs)
        bench, first = inputs[k]
        attempted += 1
        cal("calls")
        t0 = time.perf_counter()
        try:
            results = bench.call()
        except Exception as exc:  # a failed call is counted, the run goes on
            failed += 1
            notes.append(f"call {attempted}: raised {exc!r}")
            continue
        wall = time.perf_counter() - t0
        problem = check_call(results, first, spec.backend)
        if problem:
            failed += 1
            notes.append(f"call {attempted}: {problem}")
            continue
        walls[k].append(wall)
        if trace:
            tracer.call_id = f"call-{attempted}"
            t0 = time.perf_counter()
            replays = [
                replay_run(tracer, bench, index, spec.n_clients, bench.seeds.fleet)
                for index in bench.indexes
            ]
            last_replay = (bench, replays)
            traced.append({
                "wall": time.perf_counter() - t0,
                "clients": spec.n_clients * len(replays),
                "executions": sum(len(r["keys"]) for r in replays),
                "n_reference": sum(r["n_reference"] for r in replays),
                "values_added": sum(r["values_added"] for r in replays),
            })
            for rep, res in zip(replays, results):
                if not (np.array_equal(rep["latency"], res.unique_latency)
                        and np.array_equal(rep["tuning"], res.unique_tuning)
                        and np.array_equal(rep["counts"], res.unique_counts)):
                    notes.append("trace replay differs from the fleet call it replays")
    walls = [ws for ws in walls if ws]
    if not walls:
        raise RuntimeError("no fleet call succeeded: " + "; ".join(notes))

    # The workload's memory, before the audit's own fleets run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- correctness: pure-reference audit and ground-truth answers -----------
    checks: Dict[str, int] = {}
    for bench, _ in inputs:
        for key, value in audit(bench, spec.audit_clients // len(inputs)).items():
            checks[key] = checks.get(key, 0) + value
    if checks["mismatched"]:
        notes.append(f"audit: {checks['mismatched']} executions differ from REPRO_PURE=1")
    if spec.lossless and checks["wrong"]:
        notes.append(f"{checks['wrong']} wrong answers on a lossless workload")
    if trace and not traced[-1]["n_reference"]:
        notes.extend(_reference_sample(tracer, *last_replay))

    # -- metrics: one pass over the inputs at their median call times ---------
    clients = spec.n_clients * len(spec.index_kinds) * len(walls)
    steady = statistics.median(w for ws in walls for w in ws)
    raw_cps = clients / sum(statistics.median(ws) for ws in walls)
    e2e = {
        "clients_per_s": raw_cps * cal.factor("calls"),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    call_ms = [w * 1000.0 for ws in walls for w in ws]
    info: Dict[str, Any] = {
        "clients_per_s_raw": (raw_cps, "clients/s"),
        "setup_s_raw": (statistics.median(setup_walls), "s"),
        "host_factor_setup": (cal.factor("setup"), "ratio"),
        "host_factor_calls": (cal.factor("calls"), "ratio"),
        "inputs": (len(inputs), "count"),
        "calls": (len(call_ms), "count"),
        "call_ms_p25": (float(np.percentile(call_ms, 25)), "ms"),
        "call_ms_p50": (float(np.percentile(call_ms, 50)), "ms"),
        "call_ms_p75": (float(np.percentile(call_ms, 75)), "ms"),
        "failed_frac": (failed / attempted, "fraction"),
        "audit_mismatch_frac": (checks["mismatched"] / max(checks["executions"], 1), "fraction"),
        "audit_reference_wrong": (checks["reference_wrong"], "count"),
        "audit_kernel_reads_more": (checks["kernel_reads_more"], "count"),
        "wrong_answer_frac": (checks["wrong"] / max(checks["checked"], 1), "fraction"),
    }
    tail = tail_percentile(len(call_ms))
    if tail is not None and tail > 50.0:
        info[f"call_ms_p{tail:g}"] = (float(np.percentile(call_ms, tail)), "ms")
    bench, first = inputs[0]
    for index, result in zip(bench.indexes, first):
        summary = result.result
        info[f"latency_mean_bytes.{index.name}"] = (summary.latency.mean, "bytes")
        info[f"latency_p95_bytes.{index.name}"] = (summary.latency.percentile(95), "bytes")
        info[f"tuning_mean_bytes.{index.name}"] = (summary.tuning.mean, "bytes")

    layers: Dict[str, float] = {}
    if trace:
        layers = _layer_metrics(tracer, traced, steady, cal, checks["executions"])
        if trace_out is not None:
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            trace_out.write_text(json.dumps({
                "workload": spec.name, "seed": seed,
                "host_factor": {phase: cal.factor(phase) for phase in ("setup", "calls")},
                "fields": ["name", "start", "end", "parent", "call"],
                "spans": tracer.spans,
            }))
    return {
        "e2e": e2e, "layers": layers, "info": info, "attempted": attempted,
        "failed": failed, "notes": notes, "correct": not notes and not failed,
    }


def report(out: Dict[str, Any], trace: bool, benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """Print metric and info lines; return the final JSON object."""
    declared = benchmark["per_layer" if trace else "end_to_end"]
    values = out["layers" if trace else "e2e"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError("measured metrics do not match BENCHMARK.json")
    for name, (value, unit) in out["info"].items():
        print(f"info {name} {value!r} {unit}")
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        print(f"{m['name']} {value!r} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for note in out["notes"]:
        print(f"FAIL {note}", file=sys.stderr)
    return {
        "correct": out["correct"], "attempted": out["attempted"],
        "failed": out["failed"], "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# compare: two sets of recorded runs, per (workload, metric)
# ---------------------------------------------------------------------------


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: Path, path_b: Path, benchmark: Dict[str, Any]) -> int:
    """Print each set's median and quartiles, the delta and a verdict."""
    sets = []
    for path in (path_a, path_b):
        runs: Dict[str, List[Dict[str, float]]] = {}
        for line in path.read_text().splitlines():
            rec = json.loads(line) if line.strip() else {"trace": 1}
            if not rec["trace"]:  # a traced run's timings include its replays
                runs.setdefault(rec["workload"], []).append(rec["metrics"])
        sets.append(runs)
    regressed = False
    print(f"{'workload':24} {'metric':14} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'delta':>8} {'bound':>6}  verdict")
    for workload in sorted(set(sets[0]) & set(sets[1])):
        for m in benchmark["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = []
            for runs in sets:
                vals = [r[name] for r in runs[workload] if name in r]
                stats.append(_quartiles(vals) if vals else None)
            if None in stats:
                continue
            (qa1, ma, qa3), (qb1, mb, qb3) = stats
            spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict, regressed = "regressed", True
            elif -worse > bound:
                verdict = "improved"
            else:
                verdict = "agree"
            print(f"{workload:24} {name:14} {ma:>12.5g} [{qa1:.5g}, {qa3:.5g}]"
                  f"{'':>2} {mb:>12.5g} [{qb1:.5g}, {qb3:.5g}]"
                  f"{'':>2} {worse * 100:>+7.2f}% {bound * 100:>5.0f}%  {verdict}")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Each workload in its own process; the last line combines them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", str(args.record)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("set_a", type=Path)
        parser.add_argument("set_b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.set_a, args.set_b, load_benchmark())

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-loop length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append this run's metrics to a JSON-lines set for 'compare'")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no simulator sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")

    trace_out = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
    out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                       trace_out=trace_out)
    final = report(out, bool(args.trace), benchmark)
    if args.record:
        values = {**out["e2e"], **out["layers"]}
        values.update({k: v for k, (v, _) in out["info"].items()})
        args.record.parent.mkdir(parents=True, exist_ok=True)
        with args.record.open("a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "metrics": values}) + "\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
