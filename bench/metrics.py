"""The benchmark's metric tables: name, unit, direction, and where each
per-layer metric is measured.

``BENCHMARK.json`` carries name, unit and direction (its schema allows no
more); the layer and workload of every per-layer metric live here and in
``bench/README.md``.  ``bench/tests`` asserts the two agree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from bench.tracing import LAYERS, PACKAGES

WORKLOADS = ("fio_small_mixed", "fio_large_degraded", "func_recovery", "ycsb_lsm",
             "rack_tenancy")
ALL = WORKLOADS
FIO = ("fio_small_mixed", "fio_large_degraded")
SYSTEMS = FIO + ("func_recovery",)

#: (name, unit, better, bound).  Host-timed: setup_s, host_us_per_op,
#: peak_rss_mb.  The other six are simulated: they repeat exactly for a
#: seed and move with the seed, so each bound is about three times the
#: widest seed-to-seed spread of any workload (see README, "Bounds").
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("host_us_per_op", "us/op", "lower", 0.20),
    ("events_per_op", "count", "lower", 0.06),
    ("peak_rss_mb", "MiB", "lower", 0.08),
    ("sim_ops_per_s", "ops/sim_s", "higher", 0.15),
    ("sim_p50_us", "sim_us", "lower", 0.08),
    ("sim_p99_us", "sim_us", "lower", 0.25),
    ("host_nic_amp", "bytes/byte", "lower", 0.08),
    ("op_ok_share", "fraction", "higher", 0.03),
]

#: host-timed end-to-end metrics (medians over repeats); the rest must be
#: identical across the repeats of a run
HOST_TIMED = ("setup_s", "host_us_per_op", "peak_rss_mb")


def _per_layer() -> List[Tuple[str, str, str, Tuple[str, ...]]]:
    rows: List[Tuple[str, str, str, Tuple[str, ...]]] = []
    # 1. profile fold, every workload, from the traced run
    rows += [(f"{layer}.self_s", "s", "lower", ALL) for layer in LAYERS]
    rows += [(f"{package}.calls", "count", "lower", ALL) for package in PACKAGES]
    rows.append(("trace.overhead_x", "x", "lower", ALL))
    # 2. per-system split
    rows += [
        ("draid.host_us_per_op", "us/op", "lower", ALL),
        ("baselines.spdkraid.host_us_per_op", "us/op", "lower", SYSTEMS),
        ("baselines.mdraid.host_us_per_op", "us/op", "lower", FIO),
        ("sim.core.events_per_op.draid", "count", "lower", ALL),
        ("sim.core.events_per_op.spdk", "count", "lower", SYSTEMS),
        ("sim.core.events_per_op.linux", "count", "lower", FIO),
        ("draid.sim_ops_per_s", "ops/sim_s", "higher", ALL),
        ("baselines.spdkraid.sim_ops_per_s", "ops/sim_s", "higher", SYSTEMS),
        ("baselines.mdraid.sim_ops_per_s", "ops/sim_s", "higher", FIO),
        ("baselines.spdkraid.sim_p99_us", "sim_us", "lower", SYSTEMS),
        ("baselines.mdraid.sim_p99_us", "sim_us", "lower", FIO),
    ]
    # 3. datapath counters of the dRAID-family arrays
    rows += [(f"baselines.base.{key}", "count", "lower", ALL) for key in (
        "rmw_writes", "rcw_writes", "full_stripe_writes", "degraded_reads",
        "degraded_writes", "retries")]
    rows += [
        ("draid.reconstruction.remote", "count", "lower", ALL),
        ("raid.locks.contended_share", "fraction", "lower", ALL),
    ]
    # 4. simulated resources
    rows += [
        ("net.nic.host_amp.spdk", "bytes/byte", "lower", SYSTEMS),
        ("net.nic.host_amp.linux", "bytes/byte", "lower", FIO),
        ("net.nic.peer_amp", "bytes/byte", "lower", ALL),
        ("net.nic.host_tx_util", "fraction", "lower", ALL),
        ("net.nic.host_rx_util", "fraction", "lower", ALL),
        ("net.nic.server_util_max", "fraction", "lower", ALL),
        ("storage.drive.amp", "bytes/byte", "lower", ALL),
        ("storage.drive.ops_per_op", "count", "lower", ALL),
        ("storage.drive.util_mean", "fraction", "lower", ALL),
        ("storage.drive.util_max", "fraction", "lower", ALL),
        ("cluster.cpu.host_util", "fraction", "lower", ALL),
        ("cluster.cpu.server_util_max", "fraction", "lower", ALL),
    ]
    # 5. recovery
    only = ("func_recovery",)
    rows += [
        ("raid.rebuild.sim_ms", "sim_ms", "lower", only),
        ("raid.rebuild.sim_mb_s", "MB/sim_s", "higher", only),
        ("raid.scrub.bad_stripes", "count", "lower", only),
        ("storage.integrity.verify_fail", "count", "lower", only),
    ]
    # 6. rack / QoS
    only = ("rack_tenancy",)
    rows += [
        ("qos.busy_rejections", "count", "lower", only),
        ("qos.deadline_exceeded", "count", "lower", only),
        ("qos.shed_background", "count", "lower", only),
        ("workloads.openloop.late_completions", "count", "lower", only),
        ("rack.migrations", "count", "lower", only),
        ("rack.victim_retention", "fraction", "higher", only),
        ("rack.sim_p99_us.r050", "sim_us", "lower", only),
        ("rack.sim_p99_us.r080", "sim_us", "lower", only),
        ("rack.sim_p99_us.r130", "sim_us", "lower", only),
    ]
    # 7. apps
    only = ("ycsb_lsm",)
    rows += [
        ("apps.lsm.preload_s", "s", "lower", only),
        ("apps.lsm.flushes", "count", "lower", only),
        ("apps.lsm.compactions", "count", "lower", only),
        ("apps.lsm.cache_hit_share", "fraction", "higher", only),
        ("apps.lsm.sst_reads_per_get", "count", "lower", only),
        ("apps.blobfs.bytes_per_user_byte", "bytes/byte", "lower", only),
    ]
    # 8. isolation drivers, in the traced pass of the workload named
    only = ("fio_small_mixed",)
    rows += [
        ("sim.core.pingpong_ev_per_s", "1/s", "higher", only),
        ("sim.core.timeout_churn_ev_per_s", "1/s", "higher", only),
        ("sim.resources.bandwidth_sweep_ev_per_s", "1/s", "higher", only),
        ("net.fabric.send_us", "us", "lower", only),
        ("net.fabric.send_events", "count", "lower", only),
        ("storage.drive.io_us", "us", "lower", only),
        ("storage.drive.io_events", "count", "lower", only),
        ("nvmeof.cmd_us", "us", "lower", only),
        ("nvmeof.cmd_events", "count", "lower", only),
        ("raid.geometry.map_us", "us", "lower", only),
        ("raid.layout.declustered_map_us", "us", "lower", only),
        ("cluster.builder.build_ms", "ms", "lower", only),
    ]
    only = ("func_recovery",)
    rows += [(name, "MB/s", "higher", only) for name in (
        "ec.parity.xor_mb_s", "ec.parity.pq_mb_s", "ec.gf.mul_mb_s",
        "ec.rs.encode_mb_s", "ec.rs.decode_mb_s", "ec.lrc.encode_mb_s",
        "ec.lrc.local_repair_mb_s", "storage.integrity.crc32c_mb_s")]
    return rows


#: (name, unit, better, workloads it is measured on).  On any other
#: workload the metric is printed as 0: the contract wants every name on
#: every traced run.
PER_LAYER = _per_layer()

#: per-layer metrics timed on the host (medians); every other per-layer
#: metric is a count or a simulated value and repeats exactly
HOST_TIMED_LAYERS = frozenset(
    name for name, unit, _better, _where in PER_LAYER
    if unit in ("s", "us", "ms", "us/op", "1/s", "MB/s", "x")
)


def spec() -> Dict:
    """The metric part of ``BENCHMARK.json`` as these tables define it."""
    return {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _where in PER_LAYER
        ],
    }
