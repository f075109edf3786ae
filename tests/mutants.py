"""Committed mutation checks: evidence that the equality suites bite.

A *mutant* is one exact ``(file, old text, new text)`` replacement in the
package sources plus the test ids that must fail under it.  For each
mutant the runner copies ``src/`` to a temporary directory, applies the
replacement there (never in the checkout), and runs the mutant's tests in
a plain pytest subprocess with ``PYTHONPATH`` pointing at the copy.  The
run fails when a named test fails on the unmutated sources (its failure
under a mutant would show nothing), when a named test passes under its
mutant -- the suite no longer tells the mutant from the program -- and
when a mutant's old text no longer occurs exactly once, so that a rewrite
of a guarded region has to update or replace its mutant::

    python tests/mutants.py                 # every mutant
    python tests/mutants.py NAME [NAME ...] # the named ones
    python tests/mutants.py --list          # names and what each breaks

Run it from the repository root; it needs nothing beyond pytest.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_KERNEL = "repro/sim/fleet_kernel.py"
_VISITS = "tests/test_fleet_kernel.py::test_compiled_visits_match_replay"
_STRUCTURE = "repro/core/structure.py"
_CUTS = "tests/test_dsi_structure.py::TestFrameCuts"
_NEAREST = f"{_CUTS}::test_cuts_move_to_the_nearest_run_start"
_KT = "tests/test_fleet_kernel.py"
_SLOT_EDGES = f"{_KT}::test_slot_walker_edges_match_dense_hop_oracle"
_DSI_PARAMS = f"{_KT}::test_kernel_matches_reference_across_dsi_parameters"
_KNN_ROWS = f"{_KT}::test_knn_rows_match_partition_oracle"
_KNN_PAST_N = f"{_KT}::test_knn_k_at_and_past_the_object_count"
_BITS = f"{_KT}::test_position_bits_match_dense_oracles"
_WORDS = f"{_KT}::test_knn_fleets_across_word_boundaries"
_COVERS = f"{_KT}::test_cover_masks_match_piece_interval_oracle"
_PICK = f"{_KT}::test_read_nearest_matches_wait_matrix_oracle"
_HELPERS = f"{_KT}::test_lane_hop_matches_former_helpers"
_METRICS = "repro/sim/metrics.py"
_SUMMARY = "tests/test_streaming_metrics.py"
_FLEET = "repro/sim/fleet.py"
_POPULATION = "tests/test_fleet.py::TestPopulationHistograms"
_SERVER_SCHEDULE = ("tests/test_api_service.py::TestServerSchedule"
                    "::test_every_entry_point_airs_the_server_schedule")


@dataclass(frozen=True)
class Mutant:
    """One replacement of ``old`` by ``new`` in ``path`` (relative to
    ``src/``); every test in ``tests`` must fail under it."""

    name: str
    why: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]


MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        "visit-from-table-start",
        "a compiled visit starts where its table read starts, not where it ends",
        _KERNEL,
        "begin = geo.occ_rank[ranks] + geo.pk_of_rank[ranks]",
        "begin = geo.occ_rank[ranks]",
        (f"{_VISITS}[flat-1ch-lossless-stationary]",
         f"{_VISITS}[optimized-1ch-errors-journeys]"),
    ),
    Mutant(
        "every-read-static",
        "the divisibility test is dropped: every read of a visit counts as static",
        _KERNEL,
        "moving = modulus[on] % cycle != 0",
        "moving = modulus[on] % cycle < 0",
        (f"{_VISITS}[flat-2ch-lossless-stationary]",
         f"{_VISITS}[flat-4ch-errors-journeys]"),
    ),
    Mutant(
        "replicated-seek-compiled",
        "the replicated-seek fallback is dropped: a seek bucket airing more "
        "than once per cycle is compiled",
        _KERNEL,
        "replicated = copies is not None and bool((copies[b] != copies[b, :1]).any())",
        "replicated = False",
        (f"{_VISITS}[optimized-2ch-lossless-stationary]",
         f"{_VISITS}[optimized-4ch-lossless-stationary]"),
    ),
    Mutant(
        "final-channel-of-first-read",
        "a compiled visit ends on its first read's channel, not its last's",
        _KERNEL,
        "self.fch = chan",
        "self.fch = geo.bchan[self.vflat[self.voff]]",
        (f"{_VISITS}[split-directory-2ch-lossless-stationary]",
         f"{_VISITS}[split-directory-2ch-errors-journeys]"),
    ),
    Mutant(
        "knn-pick-no-wrap",
        "the kNN lowest-set-bit pick loses its wrap half: a lane whose "
        "candidates all aired before its clock reads no candidate of theirs",
        _KERNEL,
        "        both[words:] = bits\n",
        "        both[words:] = 0\n",
        (f"{_PICK}[20-60]", f"{_HELPERS}[knn-conservative-4-flat-None]"),
    ),
    Mutant(
        "view-kind-seek-no-switch",
        "a kind seek from a radio parked on another channel ignores the "
        "retune: a table airing during the switch counts as heard",
        "repro/broadcast/schedule.py",
        "earliest += switch_packets",
        "earliest += 0",
        ("tests/test_channel_schedule.py::TestScheduleView"
         "::test_kind_seek_from_a_data_channel_waits_for_the_retune",),
    ),
    Mutant(
        "program-kind-seek-no-wrap",
        "a kind seek past the cycle's last airing of the kind returns the "
        "first airing of the current cycle, which has already passed",
        "repro/broadcast/program.py",
        "return idxs[0], base + cycle + starts[0]",
        "return idxs[0], base + starts[0]",
        ("tests/test_channel_schedule.py::TestMultiChannelQueries"
         "::test_answers_identical_to_single_channel[2]",
         "tests/test_perf_fastpaths.py::TestProgramKindSeek::test_kind_seek_matches_scan"),
    ),
    Mutant(
        "cut-tie-goes-up",
        "a frame cut whose target lies halfway between two run starts takes "
        "the later one",
        _STRUCTURE,
        "runs[j + 1] - target < target - runs[j]",
        "runs[j + 1] - target <= target - runs[j]",
        (f"{_NEAREST}[runs1-4-sizes1]",),
    ),
    Mutant(
        "cut-always-below",
        "a frame cut takes the run start at or below its target even when "
        "the next one is nearer",
        _STRUCTURE,
        "if j + 1 < len(runs) and runs[j + 1] - target",
        "if False and runs[j + 1] - target",
        (f"{_NEAREST}[runs0-3-sizes0]",),
    ),
    Mutant(
        "cut-no-lower-clamp",
        "a frame cut may land on or before the previous cut, leaving a frame "
        "empty",
        _STRUCTURE,
        "min(max(j, first[-1] + 1), len(runs) - n_frames + rank)",
        "min(j, len(runs) - n_frames + rank)",
        (f"{_NEAREST}[runs2-2-sizes2]", f"{_NEAREST}[runs4-1-sizes4]"),
    ),
    Mutant(
        "cut-no-upper-clamp",
        "a frame cut may land so late that a later frame gets no run",
        _STRUCTURE,
        "min(max(j, first[-1] + 1), len(runs) - n_frames + rank)",
        "max(j, first[-1] + 1)",
        (f"{_NEAREST}[runs3-2-sizes3]",),
    ),
    Mutant(
        "frames-capped-at-n",
        "nF is capped at the object count N instead of the distinct-HC "
        "count D, so a layout can ask for more frames than HC values",
        _STRUCTURE,
        "n_frames = max(m, min(n_frames, distinct))",
        "n_frames = max(m, min(n_frames, n_objects))",
        ("tests/test_dsi_structure.py::TestFrameLayout::test_frames_capped_at_distinct_hc_values",
         f"{_NEAREST}[runs4-1-sizes4]",
         "tests/test_fleet_kernel.py::test_one_object_per_frame_caps_at_distinct_values"),
    ),
    Mutant(
        "check-frames-shared-value",
        "check_frames lets a frame start on the previous frame's largest HC "
        "value",
        _STRUCTURE,
        "if rank and frame.min_hc <= frames[rank - 1].max_hc:",
        "if rank and frame.min_hc < frames[rank - 1].max_hc:",
        (f"{_CUTS}::test_build_rejects_a_value_in_two_frames",),
    ),
    Mutant(
        "even-split",
        "frames are cut at the even split's targets again, inside equal-HC "
        "runs",
        _STRUCTURE,
        "cuts = [runs[j] for j in first] + [len(ordered)]",
        "cuts = [r * base + min(r, extra) for r in range(n_frames)] + [len(ordered)]",
        (f"{_NEAREST}[runs1-4-sizes1]",
         "tests/test_fleet_kernel.py::test_equal_hc_run_shares_one_frame",
         "tests/test_fleet_kernel.py::test_one_object_per_frame_caps_at_distinct_values"),
    ),
    Mutant(
        "knn-cover-chunk-ids-reversed",
        "a kNN cover chunk hands out its ids in reverse, so each new circle "
        "gets another circle's mask",
        _KERNEL,
        "cids[chunk] = np.arange(cid0, cid0 + len(chunk), dtype=np.int64)",
        "cids[chunk] = np.arange(cid0, cid0 + len(chunk), dtype=np.int64)[::-1]",
        ("tests/test_fleet_kernel.py::test_cover_masks_match_piece_interval_oracle",
         "tests/test_fleet_kernel.py::test_kernel_matches_reference_across_dsi_parameters[1-2-knn]"),
    ),
    Mutant(
        "client-knn-conservative",
        "a client's kNN query runs the conservative search whatever the "
        "server's strategy",
        "repro/api/client.py",
        "query, session, knn_strategy=self.server.knn_strategy",
        'query, session, knn_strategy="conservative"',
        ("tests/test_api_service.py::TestServerKnnStrategy"
         "::test_single_queries_run_the_server_strategy",),
    ),
    Mutant(
        "fill-tail-not-masked",
        "the kNN candidacy fill no longer counts the bits past the last "
        "position as known, so a segment's upward fill runs off the lane's "
        "end into the padding bits",
        _KERNEL,
        "        gate[-1] &= self.tail\n",
        "",
        (f"{_BITS}[100-2]", f"{_DSI_PARAMS}[3-2-knn]"),
    ),
    Mutant(
        "shift-carry-dropped",
        "an upward bitset shift drops its carry across a word boundary",
        _KERNEL,
        "out[q + 1:] |= x[: n - q - 1] >> np.uint64(_WORD - r)",
        "pass",
        (f"{_BITS}[100-2]", f"{_BITS}[192-3]",
         f"{_WORDS}[800-114-4-conservative-fleet]"),
    ),
    Mutant(
        "fill-down-stopper-unshifted",
        "the downward fill gates each move with the stopper at its target, "
        "not at its source: it stops short of a segment's known start and "
        "runs from a known start into the segment below",
        _KERNEL,
        "step = _shift_down(gate & down, d)",
        "step = gate & _shift_down(down, d)",
        (f"{_BITS}[64-2]", _COVERS),
    ),
    Mutant(
        "fill-one-round-short",
        "the candidacy fill runs one doubling round too few, so a long run "
        "of unknown positions is filled only in part",
        _KERNEL,
        "self.rounds = (n_frames // n_segments - 1).bit_length()",
        "self.rounds = (n_frames // n_segments - 1).bit_length() - 1",
        (f"{_BITS}[100-2]", f"{_BITS}[128-4]"),
    ),
    Mutant(
        "examined-at-rank",
        "a kNN lane marks the frame it read examined at the frame's rank, "
        "not at its broadcast position (equal only when m is 1)",
        _KERNEL,
        "pbits.mark(work.ew, pos)",
        "pbits.mark(work.ew, chosen)",
        (f"{_DSI_PARAMS}[3-2-knn]", f"{_WORDS}[400-66-1-conservative-fleet]",
         f"{_HELPERS}[knn-aggressive-4-flat-None]"),
    ),
    Mutant(
        "cover-rank-order",
        "a kNN cover compiles to a bitset in rank order, not position order",
        _KERNEL,
        "self.bits[:, n: n + k] = self.pbits.pack(ranks[:, self.rank_of_pos])",
        "self.bits[:, n: n + k] = self.pbits.pack(ranks)",
        (_COVERS, f"{_DSI_PARAMS}[3-2-knn]"),
    ),
    Mutant(
        "pick-after-not-at",
        "the kNN pick treats a candidate airing exactly at the lane's next "
        "position as passed",
        _KERNEL,
        "self.ahead = self.pack(positions[None, :-1] >= positions[:, None])",
        "self.ahead = self.pack(positions[None, :-1] > positions[:, None])",
        (f"{_PICK}[100-2700]", f"{_BITS}[63-1]"),
    ),
    Mutant(
        "slot-no-wrap",
        "a window slot with no candidate airing before its upper bound offers "
        "a rank past the bound instead of its first candidate a cycle later",
        _KERNEL,
        "np.copyto(cand, w.lo, where=wrap)",
        "pass",
        (f"{_SLOT_EDGES}[no-successor]", f"{_DSI_PARAMS}[1-2-window]"),
    ),
    Mutant(
        "slot-hi-inclusive",
        "a window slot's upper bound A counts as a candidate (<= A, not < A)",
        _KERNEL,
        "wrap = cand >= w.hi",
        "wrap = cand > w.hi",
        (f"{_SLOT_EDGES}[padding]", f"{_DSI_PARAMS}[1-2-window]"),
    ),
    Mutant(
        "slot-no-upper-update",
        "a table read no longer lowers a slot's upper bound to the next rank "
        "it teaches",
        _KERNEL,
        "np.minimum(w.hi, st.next_taught.take(at), out=w.hi)",
        "pass",
        (f"{_SLOT_EDGES}[every-frame]", f"{_DSI_PARAMS}[1-2-window]"),
    ),
    Mutant(
        "knn-k-uncapped",
        "k is no longer capped one past the object count, so a k past it reads "
        "beyond the candidate row",
        _KERNEL,
        "self.k_arr = np.minimum(k_arr, n_obj + 1)",
        "self.k_arr = k_arr",
        (f"{_KNN_PAST_N}[12-30-1-conservative]", f"{_KNN_PAST_N}[40-45-4-aggressive]"),
    ),
    Mutant(
        "knn-no-copy-drop",
        "a fetched object's estimate copy stays in the candidate row beside its "
        "exact distance",
        _KERNEL,
        "drop = was_est & (est <= front)",
        "drop = was_est & False",
        (f"{_KNN_ROWS}[1-conservative-fleet]",
         f"{_KT}::test_knn_equal_distance_grids_match_brute_force[6-1-conservative]"),
    ),
    Mutant(
        "knn-no-rebuild",
        "a row whose estimate copy left while its exact distance stayed out is "
        "not rebuilt, so it keeps a free slot it should not have",
        _KERNEL,
        "self._rebuild(lanes, rows[lost])",
        "pass",
        (f"{_KNN_ROWS}[4-aggressive-journey]", f"{_KT}::test_knn_rows_with_few_spares[0]"),
    ),
    Mutant(
        "window-cap-never-flagged",
        "the reference window planner never flags a capped execution",
        "repro/core/window.py",
        "iterations_capped=bool(pending) and iterations >= safety,",
        "iterations_capped=False,",
        (f"{_KT}::test_dsi_planner_guards_flag_capped_executions[window_guard]",),
    ),
    Mutant(
        "loss-key-bare-finalizer",
        "a link-error model keys its losses by the finalizer of the bare seed, "
        "not of splitmix64's first output, so it disagrees with the kernel's",
        "repro/broadcast/errors.py",
        "self._key = _mix64((self.seed + _GAMMA) & _M64)",
        "self._key = _mix64(self.seed)",
        ("tests/test_loss_rule.py::test_scalar_and_kernel_loss_tests_agree_bit_for_bit[0.05]",
         "tests/test_loss_rule.py::test_scalar_and_kernel_loss_tests_agree_bit_for_bit[0.5]"),
    ),
    Mutant(
        "weighted-add-unaggregated",
        "add_weighted hands its pairs to the merge without aggregating repeated "
        "values or sorting them",
        _METRICS,
        "        vals, inverse = np.unique(vals[present], return_inverse=True)\n"
        "        cnts = np.bincount(inverse, weights=cnts[present]).astype(np.int64)\n",
        "        vals, cnts = vals[present], cnts[present]\n",
        (f"{_SUMMARY}::TestWeightedAdds::test_matches_expanded_samples",
         f"{_POPULATION}::test_pinned_tune_ins"),
    ),
    Mutant(
        "bound-checked-after-replace",
        "the value array is replaced before the bound check, so an add that "
        "raises leaves the summary changed",
        _METRICS,
        "        held = np.insert(self._values, at[fresh], values[fresh])\n",
        "        self._values = held = np.insert(self._values, at[fresh], values[fresh])\n",
        (f"{_SUMMARY}::TestBound::test_every_add_raises_past_the_bound",),
    ),
    Mutant(
        "merge-every-value-fresh",
        "the merge inserts every value as fresh: the statistics hold, but a "
        "held value counts against the bound again",
        _METRICS,
        "fresh = np.append(self._values, np.nan)[at] != values",
        "fresh = np.ones(values.size, dtype=bool)",
        (f"{_SUMMARY}::TestBound::test_every_add_raises_past_the_bound",),
    ),
    Mutant(
        "percentile-upper-at-lower",
        "a percentile reads its upper order statistic at the lower index",
        _METRICS,
        "[lower, upper], side=",
        "[lower, lower], side=",
        (f"{_SUMMARY}::TestStreamingMode::test_small_samples_are_exact",
         f"{_SUMMARY}::TestExactMode::test_matches_numpy_interpolation"),
    ),
    Mutant(
        "wait-add-unweighted",
        "the first-hop waits enter the summary once per occupied packet, not "
        "once per client",
        _FLEET,
        "wait.add_weighted((first - positions) * capacity, at_packet[positions])",
        "wait.add_many((first - positions) * capacity)",
        ("tests/test_fleet.py::TestFleetExactness::test_first_index_wait_covers_every_client",
         f"{_POPULATION}::test_pinned_tune_ins"),
    ),
    Mutant(
        "serial-reference-chunks",
        "a serial reference run cuts each item's phases into chunks again, and "
        "each chunk restarts the item's landmark collapse",
        _FLEET,
        "        max_chunk = len(key_ids)\n",
        "        max_chunk = max(1, -(-len(key_ids) // max(len(items), 1)))\n",
        ("tests/test_fleet.py::test_serial_reference_run_collapses_each_item_once[hci]",
         "tests/test_fleet.py::test_serial_reference_run_collapses_each_item_once[rtree]"),
    ),
    Mutant(
        "pooled-lossless-chunks",
        "a pooled lossless reference run cuts each item's phases into chunks "
        "again, and each chunk restarts the item's landmark collapse",
        _FLEET,
        "if use_parallel and error_theta is not None:",
        "if use_parallel:",
        ("tests/test_fleet.py::test_pooled_reference_run_collapses_each_item_once[hci]",
         "tests/test_fleet.py::test_pooled_reference_run_collapses_each_item_once[dsi]"),
    ),
    Mutant(
        "server-fleet-flat-schedule",
        "a server's fleet tunes into the config's flat schedule, not the "
        "server's",
        "repro/api/server.py",
        "workload, n_clients,\n"
        "            knn_strategy=self.knn_strategy, schedule=self.schedule,",
        "workload, n_clients,\n"
        "            knn_strategy=self.knn_strategy, schedule=None,",
        (_SERVER_SCHEDULE,),
    ),
    Mutant(
        "server-mobile-fleet-flat-schedule",
        "a server's moving fleet tunes into the config's flat schedule, not "
        "the server's",
        "repro/api/server.py",
        "trajectories, n_clients,\n"
        "            knn_strategy=self.knn_strategy, schedule=self.schedule,",
        "trajectories, n_clients,\n"
        "            knn_strategy=self.knn_strategy,",
        (_SERVER_SCHEDULE,),
    ),
    Mutant(
        "client-tunes-into-base-program",
        "a client's session airs the server's one-channel base program, not "
        "its schedule's view",
        "repro/api/client.py",
        "ClientSession(\n            self.server.schedule.view(),",
        "ClientSession(\n            self.server.program,",
        (_SERVER_SCHEDULE,),
    ),
)


def _apply(mutant: Mutant, src: Path) -> None:
    """Apply ``mutant`` to the source copy rooted at ``src``."""
    target = src / mutant.path
    text = target.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(
            f"mutant {mutant.name}: its old text occurs {found} times in "
            f"{mutant.path}, not once -- update or replace the mutant"
        )
    target.write_text(text.replace(mutant.old, mutant.new))


def _failed_ids(output: str) -> List[str]:
    """Test ids of the ``FAILED`` lines of pytest's ``-rf`` summary."""
    return [line[len("FAILED "):].split(" - ")[0].strip()
            for line in output.splitlines() if line.startswith("FAILED ")]


def _pytest(src: Path, tests: Sequence[str]) -> Tuple[int, List[str], str]:
    """Run ``tests`` in a pytest subprocess importing the package from
    ``src``: ``(exit code, failed test ids, output)``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    output = proc.stdout + proc.stderr
    return proc.returncode, _failed_ids(proc.stdout), output


def run(mutant: Mutant) -> Tuple[bool, str]:
    """Run ``mutant``'s tests against a mutated copy of ``src/``: ``(killed,
    report)``, killed when every named test failed."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        _apply(mutant, src)
        code, failed, output = _pytest(src, mutant.tests)
    if code not in (0, 1):
        return False, f"pytest exited {code}:\n{output}"
    survived = [t for t in mutant.tests if t not in failed]
    if survived:
        return False, "passed under the mutant: " + ", ".join(survived)
    return True, f"{len(failed)} named test(s) failed"


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}: {m.why}")
        return 0
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] if args.names else list(MUTANTS)
    named = sorted({t for m in chosen for t in m.tests})
    code, _, output = _pytest(SRC, named)
    if code != 0:
        print(f"the named tests do not all pass on the unmutated sources:\n{output}")
        return 1
    survivors = 0
    for mutant in chosen:
        t0 = time.perf_counter()
        killed, report = run(mutant)
        survivors += not killed
        print(f"{'killed ' if killed else 'SURVIVED'} {mutant.name} "
              f"({time.perf_counter() - t0:.1f} s): {report}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
