"""Smoke checks of the fleet benchmark: names, units, failure accounting.

Every workload runs at smoke size (:func:`smoke`) for a few timed calls,
so the whole file takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import run
import workloads

BENCHMARK = run.load_benchmark()


def smoke(name):
    """A workload at a size that runs in well under a second."""
    spec = workloads.WORKLOADS[name]
    return dataclasses.replace(
        spec,
        n_objects=min(spec.n_objects, 150),
        n_queries=min(spec.n_queries, 4),
        n_clients=min(spec.n_clients, 2_000),
        audit_clients=min(spec.audit_clients, 200),
        inputs=2,
    )


def _metric_lines(text: str):
    lines = text.strip().splitlines()
    pairs = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] != "info":
            pairs[parts[0]] = parts[2]
    return pairs, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_prints_declared_metrics(name, trace, capsys, tmp_path):
    spec = smoke(name)
    out = run.run_workload(spec, 1, 0.0, trace, max_calls=3,
                           trace_out=tmp_path / "trace.json")
    print(json.dumps(run.report(out, trace, BENCHMARK)))
    printed, final = _metric_lines(capsys.readouterr().out)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert printed == declared
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == declared
    assert final["correct"] and final["attempted"] == 3 and final["failed"] == 0
    if spec.lossless:
        assert out["info"]["wrong_answer_frac"][0] == 0.0
    if trace:
        spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
        assert {"fleet.call", "kernel.simulate", "metrics.fanout"} <= {s[0] for s in spans}


def test_perturbed_second_call_counts_as_failed(monkeypatch):
    spec = smoke("dsi_window_4ch")
    real_call = workloads.Bench.call
    made = []

    def call(self):
        results = real_call(self)
        made.append(results)
        if len(made) == 4:  # two set-up calls, then the second timed call
            results[0].unique_latency = results[0].unique_latency + 1.0
        return results

    monkeypatch.setattr(workloads.Bench, "call", call)
    out = run.run_workload(spec, 1, 0.0, False, max_calls=2)
    assert (out["attempted"], out["failed"]) == (2, 1)
    assert out["info"]["failed_frac"][0] == 0.5
    assert not out["correct"]


@pytest.mark.parametrize("n", [1, 19, 20, 39, 40, 60, 200, 1000, 20_000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    p = run.tail_percentile(n)
    if n < 20:
        assert p is None
        return
    assert n * (1 - p / 100) >= 10
    higher = [q for q in run.PERCENTILES if q > p]
    assert all(n * (1 - q / 100) < 10 for q in higher)


def test_compare_verdicts(tmp_path, capsys):
    def write(path, values):
        path.write_text("".join(
            json.dumps({"workload": "w", "seed": i, "trace": 0, "metrics": {
                "clients_per_s": v, "setup_s": 1.0, "peak_rss_mb": 100.0,
            }}) + "\n"
            for i, v in enumerate(values)
        ))

    base = tmp_path / "a.jsonl"
    write(base, [100.0, 101.0, 99.0, 100.5, 99.5])
    same = tmp_path / "b.jsonl"
    write(same, [100.2, 100.8, 99.4, 100.1, 99.9])
    slow = tmp_path / "c.jsonl"
    write(slow, list(np.array([100.0, 101.0, 99.0, 100.5, 99.5]) * 0.7))
    noisy = tmp_path / "d.jsonl"
    write(noisy, [50.0, 150.0, 100.0, 60.0, 140.0])

    def verdict(path):
        code = run.compare(base, path, BENCHMARK)
        rows = [line for line in capsys.readouterr().out.splitlines() if "clients_per_s" in line]
        return code, rows[0].split()[-1]

    assert verdict(same) == (0, "agree")
    assert verdict(slow) == (1, "regressed")
    assert verdict(noisy) == (0, "unresolved")
