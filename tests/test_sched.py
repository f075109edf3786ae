"""Demand-aware scheduling: demand extraction, cost model, search, validity.

Three families of guarantees:

* **Demand extraction** -- skewed workload generators are seeded and
  distributionally sane; :class:`DemandProfile` maps ground-truth answers
  onto the data buckets that carry them.
* **Schedule validity** -- an optimized schedule airs every base bucket at
  least once per macro-cycle, keeps navigation on the control channel (in
  base order for N >= 2), never places one bucket on two channels, and
  respects the airtime budget.
* **Result equivalence** -- every query answered over an optimized
  schedule returns exactly the objects the flat schedule returns, across
  all three index families and both channel topologies; the compiled
  timeline's multiplicity-aware seek arithmetic agrees with the scalar
  object model on random positions (hypothesis).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast import (
    BroadcastSchedule,
    BucketKind,
    DemandProfile,
    ScheduleView,
    SystemConfig,
    bucket_oid_map,
    control_and_groups,
)
from repro.broadcast.timeline import timeline_of
from repro.queries.workload import skewed_workload, window_workload
from repro.sched import (
    build_optimized_schedule,
    expected_latency_packets,
    expected_tuning_packets,
    plan_multiplicities,
    schedule_cost,
)
from repro.sim.runner import build_index, run_workload
from repro.spatial import uniform_dataset

_SETTINGS = dict(max_examples=25, deadline=None)


@pytest.fixture(scope="module")
def dataset():
    return uniform_dataset(150, seed=3)


@pytest.fixture(scope="module")
def workload():
    return skewed_workload(n_queries=25, seed=5, zipf_s=1.2)


def _index(dataset, kind: str, n_channels: int):
    config = SystemConfig(packet_capacity=64, n_channels=n_channels)
    return build_index(kind, dataset, config, use_cache=True), config


# ---------------------------------------------------------------------------
# Skewed workload generator
# ---------------------------------------------------------------------------


class TestSkewedWorkload:
    def test_seed_provenance_and_reproducibility(self):
        a = skewed_workload(n_queries=40, seed=11)
        b = skewed_workload(n_queries=40, seed=11)
        assert a.seed == 11
        assert a.name == b.name
        assert [t.query for t in a] == [t.query for t in b]
        assert [t.tune_in_fraction for t in a] == [t.tune_in_fraction for t in b]
        c = skewed_workload(n_queries=40, seed=12)
        assert [t.query for t in a] != [t.query for t in c]

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            skewed_workload(kind="range")
        with pytest.raises(ValueError, match="n_queries"):
            skewed_workload(n_queries=0)
        with pytest.raises(ValueError, match="zipf_s"):
            skewed_workload(zipf_s=-1.0)
        with pytest.raises(ValueError, match="n_hotspots"):
            skewed_workload(n_hotspots=0)

    def test_knn_kind(self):
        from repro.queries.types import KnnQuery

        wl = skewed_workload(n_queries=10, kind="knn", k=7, seed=2)
        assert all(isinstance(t.query, KnnQuery) for t in wl)
        assert all(t.query.k == 7 for t in wl)
        assert "knn" in wl.name and "k7" in wl.name

    def test_queries_concentrate_on_hotspots(self):
        """Points cluster near the drawn centres, and the zipf head
        dominates: the hottest centre attracts the plurality of queries."""
        n, sigma = 2000, 0.03
        wl = skewed_workload(
            n_queries=n, seed=7, zipf_s=1.5, n_hotspots=6, hotspot_sigma=sigma
        )
        centers = np.random.default_rng(7).random((6, 2))
        pts = np.array(
            [[t.query.window.center.x, t.query.window.center.y] for t in wl]
        )
        d = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=-1)
        nearest = d.argmin(axis=1)
        # Gaussian spread: the bulk of points sit within a few sigma of a
        # centre (clipping at the unit square can only pull them closer).
        assert (d.min(axis=1) < 4 * sigma).mean() > 0.95
        counts = np.bincount(nearest, minlength=6)
        assert counts.argmax() == 0          # rank-0 centre is the head
        assert counts[0] > n / 6             # strictly above the uniform share

    def test_zipf_zero_is_uniform_over_hotspots(self):
        wl = skewed_workload(n_queries=3000, seed=9, zipf_s=0.0, n_hotspots=4,
                             hotspot_sigma=0.01)
        centers = np.random.default_rng(9).random((4, 2))
        pts = np.array(
            [[t.query.window.center.x, t.query.window.center.y] for t in wl]
        )
        d = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=-1)
        counts = np.bincount(d.argmin(axis=1), minlength=4)
        assert counts.min() > 3000 / 4 * 0.8  # all hotspots roughly equal


# ---------------------------------------------------------------------------
# Demand profiles
# ---------------------------------------------------------------------------


class TestDemandProfile:
    def test_uniform_covers_data_only(self, dataset):
        index, _ = _index(dataset, "dsi", 1)
        profile = DemandProfile.uniform(index.program)
        assert len(profile) == len(index.program)
        assert profile.weights.sum() == pytest.approx(1.0)
        for i, bucket in enumerate(index.program):
            if bucket.kind.is_navigation:
                assert profile.weights[i] == 0.0

    def test_bucket_oid_map_covers_every_object(self, dataset):
        for kind in ("dsi", "rtree", "hci"):
            index, _ = _index(dataset, kind, 1)
            mapping = bucket_oid_map(index.program)
            oids = {o.oid for o in dataset}
            assert set(mapping) == oids, kind

    def test_from_queries_weights_answering_buckets(self, dataset, workload):
        index, _ = _index(dataset, "dsi", 1)
        profile = workload.bucket_demand(index, dataset)
        assert profile.weights.sum() == pytest.approx(1.0)
        # Hot buckets exist (the workload is skewed), and every weighted
        # bucket is a data bucket.
        assert profile.skew() > 0.5
        for b in profile.top(5):
            assert not index.program[b].kind.is_navigation

    def test_query_weights_shift_the_profile(self, dataset, workload):
        index, _ = _index(dataset, "dsi", 1)
        n = len(workload.trials)
        flat = workload.bucket_demand(index, dataset)
        w = np.zeros(n)
        w[0] = 1.0  # all clients draw query 0
        focused = workload.bucket_demand(index, dataset, query_weights=w)
        assert focused.skew() >= flat.skew()
        assert (focused.weights > 0).sum() <= (flat.weights > 0).sum()

    def test_length_mismatch_rejected(self, dataset):
        index, _ = _index(dataset, "dsi", 1)
        bad = DemandProfile(np.ones(3))
        with pytest.raises(ValueError, match="buckets"):
            build_optimized_schedule(index.program, bad)


# ---------------------------------------------------------------------------
# Square-root-rule copy planning and the cost model
# ---------------------------------------------------------------------------


class TestPlanAndCost:
    def test_budget_respected_and_hot_gets_more(self):
        weights = np.array([8.0, 4.0, 2.0, 1.0, 1.0])
        lengths = np.array([4, 4, 4, 4, 4], dtype=np.int64)
        mults = plan_multiplicities(weights, lengths, budget=2.0)
        assert (mults >= 1).all()
        assert int(np.dot(mults, lengths)) <= 2.0 * lengths.sum()
        assert mults[0] == mults.max()
        # monotone: hotter groups never get fewer copies
        assert all(mults[i] >= mults[i + 1] for i in range(len(mults) - 1))

    def test_budget_one_means_flat(self):
        mults = plan_multiplicities(
            np.array([5.0, 1.0]), np.array([3, 3], dtype=np.int64), budget=1.0
        )
        assert mults.tolist() == [1, 1]

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            plan_multiplicities(np.ones(2), np.ones(2, dtype=np.int64), budget=0.5)

    def test_flat_single_channel_expected_wait_is_half_cycle(self, dataset):
        """One occurrence per bucket on one channel: E[wait] = C/2 exactly,
        for every bucket, hence for any demand mix."""
        index, _ = _index(dataset, "dsi", 1)
        schedule = BroadcastSchedule.single(index.program)
        demand = DemandProfile.uniform(index.program)
        cycle = index.program.cycle_packets
        assert expected_latency_packets(schedule, demand) == pytest.approx(cycle / 2)

    def test_expected_tuning_is_schedule_invariant(self, dataset, workload):
        index, _ = _index(dataset, "dsi", 4)
        demand = workload.bucket_demand(index, dataset)
        config = SystemConfig(packet_capacity=64, n_channels=4)
        flat = BroadcastSchedule.for_config(index.program, config)
        opt = BroadcastSchedule.optimized(index.program, demand, channels=4, budget=1.8)
        assert expected_tuning_packets(flat, demand) == pytest.approx(
            expected_tuning_packets(opt, demand)
        )

    def test_schedule_cost_keys(self, dataset):
        index, _ = _index(dataset, "dsi", 1)
        cost = schedule_cost(
            BroadcastSchedule.single(index.program),
            DemandProfile.uniform(index.program),
        )
        assert set(cost) >= {"latency_packets", "tuning_packets", "cycle_packets"}


# ---------------------------------------------------------------------------
# Optimized schedule validity
# ---------------------------------------------------------------------------


def _optimized(dataset, workload, kind: str, n_channels: int, budget: float = 1.8):
    index, config = _index(dataset, kind, n_channels)
    demand = workload.bucket_demand(index, dataset)
    schedule = BroadcastSchedule.optimized(
        index.program, demand, channels=n_channels, budget=budget
    )
    return index, config, demand, schedule


class TestOptimizedValidity:
    @pytest.mark.parametrize("kind", ["dsi", "rtree", "hci"])
    @pytest.mark.parametrize("n_channels", [1, 4])
    def test_every_bucket_airs_and_no_cross_channel_split(
        self, dataset, workload, kind, n_channels
    ):
        index, _, _, schedule = _optimized(dataset, workload, kind, n_channels)
        program = index.program
        seen = {}
        for channel in schedule.channels:
            for gid in channel.global_ids:
                seen.setdefault(gid, set()).add(channel.cid)
        assert set(seen) == set(range(len(program)))          # coverage
        assert all(len(cids) == 1 for cids in seen.values())  # one channel each

    @pytest.mark.parametrize("kind", ["dsi", "rtree", "hci"])
    def test_navigation_stays_on_control_in_base_order(self, dataset, workload, kind):
        index, _, _, schedule = _optimized(dataset, workload, kind, 4)
        program = index.program
        control = schedule.channels[0]
        assert control.role.carries_index
        nav_ids = [i for i, b in enumerate(program) if b.kind.is_navigation]
        aired_nav = [g for g in control.global_ids if program[g].kind.is_navigation]
        # every navigation bucket airs on the control channel, in base order
        dedup = list(dict.fromkeys(aired_nav))
        assert dedup == nav_ids

    @pytest.mark.parametrize("kind", ["dsi", "rtree", "hci"])
    @pytest.mark.parametrize("n_channels", [1, 4])
    def test_budget_bounds_replicated_airtime(
        self, dataset, workload, kind, n_channels
    ):
        budget = 1.8
        index, _, _, schedule = _optimized(
            dataset, workload, kind, n_channels, budget=budget
        )
        program = index.program
        flat_data = sum(b.n_packets for b in program if not b.kind.is_navigation)
        aired_data = sum(
            program[g].n_packets
            for ch in schedule.channels
            for g in ch.global_ids
            if not program[g].kind.is_navigation
        )
        assert aired_data <= budget * flat_data + 1e-9

    def test_policy_and_meta(self, dataset, workload):
        _, _, _, schedule = _optimized(dataset, workload, "dsi", 4)
        assert schedule.policy == "optimized"
        meta = schedule.policy_meta
        assert meta["expected_latency_packets"] <= meta["flat_latency_packets"]
        described = schedule.describe()
        assert described["policy"] == "optimized"
        assert described["max_multiplicity"] >= 1

    def test_never_worse_than_flat_under_cost_model(self, dataset):
        """Uniform demand has no hot frames to chase: the optimizer must not
        lose to the flat layout it competes against."""
        index, config = _index(dataset, "dsi", 4)
        demand = DemandProfile.uniform(index.program)
        opt = BroadcastSchedule.optimized(index.program, demand, channels=4)
        flat = BroadcastSchedule.for_config(index.program, config)
        assert expected_latency_packets(opt, demand) <= expected_latency_packets(
            flat, demand
        ) + 1e-9

    def test_control_and_groups_partitions_the_cycle(self, dataset):
        index, _ = _index(dataset, "dsi", 1)
        control_ids, groups = control_and_groups(index.program)
        flat = sorted(control_ids + [g for group in groups for g in group])
        assert flat == list(range(len(index.program)))


# ---------------------------------------------------------------------------
# Result equivalence: optimized answers == flat answers, bit for bit
# ---------------------------------------------------------------------------


class TestResultEquivalence:
    @pytest.mark.parametrize("kind", ["dsi", "rtree", "hci"])
    @pytest.mark.parametrize("n_channels", [1, 4])
    def test_per_query_answers_match_flat(self, dataset, workload, kind, n_channels):
        index, config, _, schedule = _optimized(dataset, workload, kind, n_channels)
        flat = run_workload(index, dataset, config, workload, verify=True)
        opt = run_workload(
            index, dataset, config, workload, verify=True, schedule=schedule
        )
        assert flat.accuracy == 1.0
        assert opt.accuracy == 1.0
        # tuning is near-invariant: clients doze through extra airings (a
        # sequentially traversing DSI client pays a small peek cost at
        # inserted copies, so "equal" is a 10% band, not bit-equality)
        assert opt.mean_tuning_bytes <= flat.mean_tuning_bytes * 1.10

    def test_foreign_schedule_rejected(self, dataset, workload):
        index, config = _index(dataset, "dsi", 1)
        other, _ = _index(dataset, "rtree", 1)
        schedule = BroadcastSchedule.single(other.program)
        with pytest.raises(ValueError, match="different broadcast program"):
            run_workload(index, dataset, config, workload, schedule=schedule)

    def test_fleet_rejects_foreign_schedule(self, dataset, workload):
        from repro.sim.fleet import run_fleet

        index, config = _index(dataset, "dsi", 1)
        other, _ = _index(dataset, "rtree", 1)
        with pytest.raises(ValueError, match="different broadcast program"):
            run_fleet(
                index, dataset, config, workload, 10,
                schedule=BroadcastSchedule.single(other.program),
            )


class TestTimelineMultiplicity:
    """The compiled timeline's replicated-occurrence seek arithmetic agrees
    with the scalar object model (which scans channel programs directly)."""

    @given(data=st.data())
    @settings(**_SETTINGS)
    def test_next_occurrences_matches_object_model(self, data):
        dataset = uniform_dataset(150, seed=3)
        workload = skewed_workload(n_queries=25, seed=5, zipf_s=1.2)
        n_channels = data.draw(st.sampled_from([1, 4]))
        budget = data.draw(st.sampled_from([1.2, 1.8, 2.5]))
        index, _, _, schedule = _optimized(
            dataset, workload, "dsi", n_channels, budget=budget
        )
        view = ScheduleView(schedule)
        timeline = timeline_of(view)
        n_buckets = len(view.buckets)
        horizon = 2 * view.cycle_packets
        ids = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_buckets - 1),
                    min_size=1, max_size=12,
                )
            ),
            dtype=np.int64,
        )
        positions = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=horizon),
                    min_size=len(ids), max_size=len(ids),
                )
            ),
            dtype=np.int64,
        )
        got = timeline.next_occurrences(ids, positions)
        expected = np.array(
            [view.next_occurrence(int(b), int(p)) for b, p in zip(ids, positions)],
            dtype=np.int64,
        )
        assert got.tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# HCI scale sensitivity: replication only wins in the wrap regime
# ---------------------------------------------------------------------------


class TestHciScaleSensitivity:
    """Pin the two access regimes behind HCI's scale-dependent gains.

    An HCI client walks a *contiguous arc* of the broadcast in curve order:
    after the initial index descent it reads forward until the last
    qualifying bucket.  That splits demand-aware replication's effect into
    two regimes, measured by mean flat latency against the flat cycle:

    * **Wrap regime** (mean latency > 1 cycle): the descent lands the
      client *past* some qualifying buckets, so it waits most of a cycle
      for them to come around again.  Nearest-copy replication shortens
      that wait directly -- large reductions (the smoke-scale bench shape
      shows ~50%).
    * **Span regime** (mean latency < 1 cycle): the walk is one forward
      sweep whose exit is pinned by the *position* of the last qualifying
      bucket.  Extra copies cannot move that endpoint; they only stretch
      the macro-cycle, so per-query ratios land at 1.00 +/- 0.06 and the
      mean reduction collapses to ~0 (the full-scale bench shape).

    This is a property of sequential-arc indexes, not a demand-extraction
    bug: the same optimizer, demand profile, and budget produce a 50%+ win
    the moment queries wrap.  DSI and R-tree clients re-seek per qualifying
    subtree, so every seek benefits from nearest copies at either scale.
    """

    @pytest.mark.parametrize(
        "n_objects, n_queries, regime",
        [(250, 30, "wrap"), (500, 60, "span")],
        ids=["wrap-smoke-shape", "span-full-shape"],
    )
    def test_replication_gain_tracks_wrap_regime(self, n_objects, n_queries, regime):
        from repro.sim.fleet import run_fleet

        dataset = uniform_dataset(n_objects, seed=7)
        workload = skewed_workload(n_queries, zipf_s=1.1, seed=9)
        index, config = _index(dataset, "hci", 4)
        demand = workload.bucket_demand(index, dataset)
        schedule = BroadcastSchedule.optimized(
            index.program, demand, channels=4, budget=1.8
        )
        flat = run_fleet(index, dataset, config, workload, 1000, seed=9, max_phases=8)
        opt = run_fleet(
            index, dataset, config, workload, 1000, seed=9, max_phases=8,
            schedule=schedule,
        )
        cycle_bytes = flat.cycle_packets * config.packet_capacity
        latency_cycles = flat.result.latency.mean / cycle_bytes
        reduction = 1.0 - opt.result.latency.mean / flat.result.latency.mean
        if regime == "wrap":
            assert latency_cycles > 1.05, latency_cycles
            assert reduction > 0.30, reduction
        else:
            assert latency_cycles < 0.85, latency_cycles
            assert abs(reduction) < 0.15, reduction
        # Either way the optimizer stays tuning-neutral: clients doze
        # through inserted copies.
        assert opt.result.tuning.mean <= flat.result.tuning.mean * 1.10


# ---------------------------------------------------------------------------
# Fleet plumbing: policy columns and demand extraction from realized draws
# ---------------------------------------------------------------------------


class TestFleetIntegration:
    def test_fleet_rows_carry_backend_and_policy(self, dataset, workload):
        from repro.sim.fleet import run_fleet

        index, config = _index(dataset, "dsi", 4)
        demand = workload.bucket_demand(index, dataset)
        schedule = BroadcastSchedule.optimized(
            index.program, demand, channels=4, budget=1.8
        )
        flat = run_fleet(index, dataset, config, workload, 2000, verify=True)
        opt = run_fleet(
            index, dataset, config, workload, 2000, verify=True, schedule=schedule
        )
        assert flat.schedule_policy == "flat"
        assert opt.schedule_policy == "optimized"
        assert flat.as_row()["schedule_policy"] == "flat"
        assert opt.as_row()["schedule_policy"] == "optimized"
        assert "backend" in opt.as_row()
        assert flat.result.accuracy == 1.0
        assert opt.result.accuracy == 1.0
        # the optimized fleet waits less on this skewed mix
        assert opt.result.latency.mean < flat.result.latency.mean

    def test_parallel_fleet_ships_explicit_schedule(self, dataset, workload):
        """Workers cannot rebuild an optimized layout from (program, config);
        serial and parallel runs over an explicit schedule must agree."""
        from repro.sim.fleet import run_fleet

        index, config = _index(dataset, "dsi", 4)
        demand = workload.bucket_demand(index, dataset)
        schedule = BroadcastSchedule.optimized(
            index.program, demand, channels=4, budget=1.8
        )
        serial = run_fleet(
            index, dataset, config, workload, 1000, schedule=schedule, parallel=False
        )
        para = run_fleet(
            index, dataset, config, workload, 1000, schedule=schedule,
            parallel=True, processes=2,
        )
        assert serial.result.latency.mean == para.result.latency.mean
        assert serial.result.tuning.mean == para.result.tuning.mean
