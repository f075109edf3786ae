"""The fluent Experiment builder (repro.api.experiment)."""

from __future__ import annotations

import math

import pytest

from repro import Experiment, SystemConfig, uniform_dataset
from repro.api import Axis, IndexSpec, clear_index_cache
from repro.queries import window_workload
from repro.sim import build_index, run_workload


@pytest.fixture(scope="module")
def dataset():
    return uniform_dataset(160, seed=15)


class TestBuilderValidation:
    def test_requires_a_workload(self, dataset):
        with pytest.raises(ValueError, match="workload"):
            Experiment(dataset).run()

    def test_unknown_index_kind_fails_fast(self, dataset):
        with pytest.raises(ValueError, match="unknown index kind"):
            Experiment(dataset).indexes("btree")

    def test_unknown_sweep_axis_rejected(self, dataset):
        experiment = (
            Experiment(dataset).window_workload(n_queries=2).sweep(warp=[1, 2])
        )
        with pytest.raises(ValueError, match="unknown sweep axes"):
            experiment.run()

    def test_workload_axes_reject_fixed_workloads(self, dataset):
        experiment = (
            Experiment(dataset)
            .indexes("dsi")
            .workload(window_workload(n_queries=2, seed=1))
            .sweep(win_side_ratio=[0.1, 0.2])
        )
        with pytest.raises(ValueError, match="fixed workload"):
            experiment.run(parallel=False)

    def test_results_needs_single_point(self, dataset):
        run = (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=2, seed=1)
            .sweep(capacity=[64, 128])
            .run(parallel=False)
        )
        with pytest.raises(ValueError, match="single-point"):
            run.results()

    def test_errors_rejects_model_plus_theta(self, dataset):
        from repro import LinkErrorModel

        with pytest.raises(ValueError, match="either a model"):
            Experiment(dataset).errors(LinkErrorModel(theta=0.1), theta=0.2)

    def test_theta_axis_rejects_shared_model_instance(self, dataset):
        from repro import LinkErrorModel

        experiment = (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=2, seed=1)
            .errors(LinkErrorModel(theta=0.0, scope="index", seed=1))
            .sweep(theta=[0.0, 0.5])
        )
        with pytest.raises(ValueError, match="shared LinkErrorModel"):
            experiment.run(parallel=False)

    def test_inert_workload_axis_rejected(self, dataset):
        # Sweeping k with only a window workload would label rows with k
        # values that never changed anything.
        experiment = (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=2, seed=1)
            .sweep(k=[1, 10])
        )
        with pytest.raises(ValueError, match="not consumed by any declared"):
            experiment.run(parallel=False)


class TestRowsAndSweeps:
    def test_single_point_matches_manual_runner_calls(self, dataset):
        config = SystemConfig(packet_capacity=64)
        workload = window_workload(n_queries=5, seed=21)
        results = (
            Experiment(dataset)
            .config(config)
            .workload(workload)
            .verify(True)
            .run(parallel=False)
            .results()
        )
        clear_index_cache()
        for spec in (IndexSpec("dsi", label="DSI"), IndexSpec("rtree", label="R-tree"),
                     IndexSpec("hci", label="HCI")):
            index = build_index(spec, dataset, config)
            manual = run_workload(index, dataset, config, workload, verify=True)
            assert results[spec.display_name].mean_latency_bytes == manual.mean_latency_bytes
            assert results[spec.display_name].mean_tuning_bytes == manual.mean_tuning_bytes
            assert results[spec.display_name].accuracy == 1.0

    def test_capacity_sweep_prunes_unsupported_indexes(self, dataset):
        rows = (
            Experiment(dataset)
            .window_workload(n_queries=2, seed=3)
            .sweep(capacity=[32, 64])
            .run(parallel=False)
            .rows
        )
        at32 = {r["index"] for r in rows if r["capacity"] == 32}
        at64 = {r["index"] for r in rows if r["capacity"] == 64}
        assert at32 == {"DSI", "HCI"}  # no R-tree: an MBR entry cannot fit
        assert at64 == {"DSI", "R-tree", "HCI"}

    def test_axis_tags_fix_column_order(self, dataset):
        rows = (
            Experiment(dataset)
            .indexes("dsi")
            .knn_workload(n_queries=2, k=3, seed=4)
            .sweep(capacity=[64])
            .tag(figure="11", query="3NN", capacity=Axis("capacity"), k=3)
            .run(parallel=False)
            .rows
        )
        assert list(rows[0]) == [
            "index", "figure", "query", "capacity", "k",
            "latency_bytes", "tuning_bytes", "accuracy",
        ]
        assert rows[0]["capacity"] == 64

    def test_multiple_workloads_tag_rows(self, dataset):
        rows = (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=2, seed=5)
            .knn_workload(n_queries=2, k=2, seed=6)
            .run(parallel=False)
            .rows
        )
        assert [r["workload"] for r in rows] == ["window", "knn"]

    def test_parallel_and_serial_rows_identical(self, dataset):
        def sweep(parallel):
            return (
                Experiment(dataset)
                .window_workload(n_queries=3, seed=7)
                .verify(True)  # also keeps every row field NaN-free for ==
                .sweep(capacity=[64, 128, 256])
                .run(processes=2 if parallel else None, parallel=parallel)
                .rows
            )

        assert sweep(parallel=True) == sweep(parallel=False)

    def test_theta_axis_is_deterministic(self, dataset):
        def run_once():
            return (
                Experiment(dataset)
                .indexes("dsi")
                .window_workload(n_queries=3, seed=8)
                .errors(scope="index", seed=99)
                .sweep(theta=[0.0, 0.5])
                .run(parallel=False)
                .rows
            )

        first, second = run_once(), run_once()
        assert first == second
        lossless = [r for r in first if r["theta"] == 0.0][0]
        lossy = [r for r in first if r["theta"] == 0.5][0]
        assert lossy["tuning_bytes"] >= lossless["tuning_bytes"]
        assert all(not math.isnan(r["latency_bytes"]) for r in first)

    def test_verify_defaults_off(self, dataset):
        rows = (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=2, seed=9)
            .run(parallel=False)
            .rows
        )
        assert math.isnan(rows[0]["accuracy"])


class TestOneErrorRule:
    """Every cell -- per-trial, fleet or mobility -- reads one channel,
    ``(theta, scope, seed)``, resolved once per sweep point."""

    @staticmethod
    def lossy(fleet=None):
        experiment = (
            Experiment(uniform_dataset(300, seed=3))
            .indexes("dsi")
            .window_workload(n_queries=5, seed=1)
        )
        if fleet is not None:
            experiment.fleet(fleet, seed=1)
        return experiment

    def test_unseeded_errors_give_the_same_rows_every_run(self):
        def rows(**run):
            experiment = self.lossy().errors(theta=0.3).sweep(capacity=[64, 128])
            return repr(experiment.run(**run).rows)

        first = rows(parallel=False)
        assert rows(parallel=False) == first
        assert rows(processes=2) == first
        seeded = repr(
            self.lossy().errors(theta=0.3, seed=0).sweep(capacity=[64, 128])
            .run(parallel=False).rows
        )
        assert seeded == first
        # The fleet cell of the same declaration reads seed 0 too.
        fleet = self.lossy(fleet=2000).errors(theta=0.3).run(parallel=False).rows
        assert fleet[0]["latency_bytes"] == 461_667.136

    def test_shared_model_rows_equal_its_seeded_declaration(self):
        from repro.broadcast import LinkErrorModel

        shared = LinkErrorModel(theta=0.1, seed=1)
        for make in (
            lambda: self.lossy(fleet=500),
            lambda: Experiment(uniform_dataset(300, seed=3)).indexes("dsi", "hci")
            .fleet(500, seed=1).mobility(1, 3, n_journeys=4, seed=2),
        ):
            with_model = make().errors(shared).run(parallel=False).rows
            declared = make().errors(theta=0.1, seed=1).run(parallel=False).rows
            assert repr(with_model) == repr(declared)
            assert with_model[0]["backend"] == "numpy"


class TestKernelCoverage:
    def test_fleet_grid_coverage_counts_backends(self, dataset):
        run = (
            Experiment(dataset)
            .indexes("dsi", "rtree", "hci")
            .window_workload(n_queries=3, seed=12)
            .fleet(400, seed=1)
            .run(parallel=False)
        )
        stat = run.kernel_coverage
        assert stat["rows"] == 3
        assert stat["kernel_rows"] == 3
        assert stat["kernel_fraction"] == 1.0
        assert stat["backends"] == {"numpy": 3}
        assert stat["decline_reasons"] == {}

    def test_declines_surface_their_reasons(self, dataset):
        # scope="data" errors are outside every kernel's envelope, so all
        # three cells fall back -- and the reason rolls up verbatim.
        run = (
            Experiment(dataset)
            .indexes("dsi", "rtree")
            .window_workload(n_queries=3, seed=12)
            .errors(theta=0.2, scope="data", seed=5)
            .fleet(400, seed=1)
            .run(parallel=False)
        )
        stat = run.kernel_coverage
        assert stat["rows"] == 2
        assert stat["kernel_rows"] == 0
        assert stat["backends"] == {"reference": 2}
        assert len(stat["decline_reasons"]) == 1
        (reason, count), = stat["decline_reasons"].items()
        assert count == 2
        assert "reference path" in reason

    def test_knn_fleet_rows_run_on_the_kernel(self, dataset):
        run = (
            Experiment(dataset)
            .indexes("dsi")
            .knn_workload(n_queries=3, k=3, seed=13)
            .fleet(300, seed=2)
            .run(parallel=False)
        )
        stat = run.kernel_coverage
        assert stat["backends"] == {"numpy": 1}
        assert stat["kernel_fraction"] == 1.0

    def test_figure_rows_are_skipped(self, dataset):
        run = (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=2, seed=14)
            .run(parallel=False)
        )
        stat = run.kernel_coverage
        assert stat == {
            "rows": 0, "kernel_rows": 0, "kernel_fraction": 0.0,
            "backends": {}, "decline_reasons": {},
        }

    def test_report_renders_fraction_and_reasons(self):
        from repro.sim.report import kernel_coverage_report

        rows = [
            {"backend": "numpy", "backend_reason": ""},
            {"backend": "reference",
             "backend_reason": "link errors with scope='data' take the reference path"},
            {"latency_bytes": 1.0},  # figure row: no backend column
        ]
        text = kernel_coverage_report(rows)
        assert "1/2 rows on a kernel backend (50%)" in text
        assert "numpy: 1" in text
        assert "1x link errors with scope='data'" in text
