"""Morning rush hour against a multi-channel city guide.

The city-guide broadcast from ``city_guide_broadcast.py``, at commuter
scale: tens of thousands of phones tune in within one broadcast period and
ask "what is around me?".  Two things carry the load:

* a **channel subsystem** -- the index airs on a fast control channel while
  the data frames are striped across data channels (``channels=4``), so a
  freshly tuned-in phone reaches navigation information quickly;
* a **client fleet** -- the population is simulated in batch over the
  vectorised seek machinery, and each distinct outcome enters an exact
  value->count summary weighted by its phones, so memory stays flat no
  matter how many phones show up.

The report compares the paper's single channel against the 4-channel
layout, for the fleet's mean and tail (P95) experience, then sweeps the
channel count through the ``Experiment`` builder.

Run with ``python examples/fleet_rush_hour.py``.
"""

from __future__ import annotations

from repro import BroadcastServer, Experiment, SystemConfig, real_surrogate_dataset
from repro.queries.workload import window_workload
from repro.sim import format_table

N_CLIENTS = 25_000


def main() -> None:
    dataset = real_surrogate_dataset(1_200, seed=11)
    config = SystemConfig(packet_capacity=128)
    rush = window_workload(n_queries=12, win_side_ratio=0.08, seed=8)

    print(
        f"Morning rush: {N_CLIENTS:,} phones, {len(dataset)} points of interest, "
        f"{config.packet_capacity}-byte packets\n"
    )

    rows = []
    for channels in (1, 4):
        server = BroadcastServer(dataset, config, index="dsi", channels=channels)
        result = server.fleet(
            N_CLIENTS, workload=rush, seed=2005, max_phases=128, parallel=True
        )
        latency = result.result.latency
        tuning = result.result.tuning
        rows.append(
            {
                "channels": channels,
                "mean wait (KB)": latency.mean / 1e3,
                "P95 wait (KB)": latency.percentile(95) / 1e3,
                "mean tuning (KB)": tuning.mean / 1e3,
                "first index hit (KB)": result.first_index_wait.mean / 1e3,
                "clients/s": f"{result.clients_per_sec:,.0f}",
            }
        )
    print(format_table(rows, title="DSI city guide: single channel vs control + 3 data channels"))
    print()

    sweep_rows = (
        Experiment(dataset, name="rush-hour")
        .config(config)
        .window_workload(n_queries=12, win_side_ratio=0.08, seed=8)
        .fleet(N_CLIENTS, seed=2005, max_phases=128)
        .channels(1, 4, 8)
        .run(parallel=True)
        .rows
    )
    table = [
        {
            "index": row["index"],
            "channels": row["channels"],
            "mean wait (KB)": row["latency_bytes"] / 1e3,
            "P95 wait (KB)": row["latency_p95_bytes"] / 1e3,
            "mean tuning (KB)": row["tuning_bytes"] / 1e3,
        }
        for row in sweep_rows
    ]
    print(format_table(table, title="Channel scaling, all indexes, same fleet"))


if __name__ == "__main__":
    main()
