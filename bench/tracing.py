"""The traced run's two instruments: the cProfile fold by layer and the
isolation drivers that time each layer alone.

Both are driven from here; nothing in ``repro`` is instrumented.
"""

from __future__ import annotations

import pstats
import statistics
from pathlib import Path
from typing import Callable, Dict, Tuple

from bench.harness import scaled_seconds

ROOT = Path(__file__).resolve().parent.parent
REPRO = str(ROOT / "src" / "repro") + "/"

#: every layer a ``self_s`` row exists for
LAYERS = (
    "sim.core", "sim.resources", "net.fabric", "net.nic", "nvmeof",
    "storage.drive", "storage.integrity", "ec.gf", "ec.parity", "ec.rs", "ec.lrc",
    "raid.geometry", "raid.locks", "raid.rebuild", "raid.scrub",
    "baselines.base", "baselines.mdraid", "draid.host", "draid.bdev",
    "draid.reconstruction", "draid.ec_array", "qos", "rack", "workloads",
    "apps.lsm", "apps.blobfs", "faults", "cluster", "metrics", "numpy", "other",
)
#: every package a ``calls`` row exists for
PACKAGES = ("sim", "net", "nvmeof", "storage", "ec", "raid", "baselines", "draid",
            "qos", "rack", "workloads", "apps")

#: module (path under src/repro, no suffix) -> layer, where the layer is
#: not simply the module's own dotted name
_FOLDED = {
    "raid/layout": "raid.geometry", "raid/modes": "raid.geometry",
    "raid/bitmap": "raid.geometry",
    "raid/recovery": "raid.rebuild", "raid/resync": "raid.rebuild",
    "raid/scrubber": "raid.scrub",
    "storage/profiles": "storage.drive",
    "baselines/spdkraid": "baselines.base", "baselines/logstructured": "baselines.base",
    "draid/protocol": "draid.bdev", "draid/offload": "draid.host",
    "draid/stateless": "draid.host",
    "apps/objectstore": "apps.blobfs",
}


def layer_of(filename: str) -> Tuple[str, str]:
    """(layer, package) of a profiled Python frame's file."""
    if "/numpy/" in filename:
        return "numpy", ""
    if not filename.startswith(REPRO):
        return "other", ""
    module = filename[len(REPRO):].rsplit(".", 1)[0]
    package = module.split("/", 1)[0]
    module = module.replace("/__init__", "")
    layer = _FOLDED.get(module, module.replace("/", "."))
    if layer not in LAYERS:
        # whole-package layers (nvmeof, qos, rack, ...) and stray modules
        layer = package if package in LAYERS else {
            "sim": "sim.core", "raid": "raid.geometry", "storage": "storage.drive",
            "ec": "ec.gf", "net": "net.fabric", "draid": "draid.host",
            "baselines": "baselines.base", "apps": "apps.blobfs",
        }.get(package, "other")
    return layer, package if package in PACKAGES else ""


def fold_profile(profiler) -> Dict:
    """Self seconds per layer and call counts per package.

    A Python frame (generator frames included) is charged to the module
    that defines it.  A built-in has no module of its own: numpy's are
    charged to ``numpy``, any other to the layer of each caller, in
    proportion to the time spent under that caller.
    """
    stats = pstats.Stats(profiler).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(PACKAGES, 0)
    for (filename, _line, name), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        if filename != "~":
            layer, package = layer_of(filename)
            self_s[layer] += tottime
            if package:
                calls[package] += ncalls
        elif "numpy" in name:
            self_s["numpy"] += tottime
        else:
            charged = 0.0
            for (caller_file, _l, _n), (_nc, _cc2, caller_tt, _ct2) in callers.items():
                layer = "other" if caller_file == "~" else layer_of(caller_file)[0]
                self_s[layer] += caller_tt
                charged += caller_tt
            self_s["other"] += tottime - charged
    return {"self_s": self_s, "calls": calls, "total_s": sum(self_s.values())}


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    return statistics.median(scaled_seconds(fn) for _ in range(repeats))


def _kernel_drivers(scale: int) -> Dict[str, float]:
    """Each kernel-side layer alone: fixed inputs, public calls, timed."""
    from repro.cluster import ClusterConfig, build_cluster
    from repro.nvmeof import NvmeOfTarget, RemoteBdev
    from repro.raid.geometry import RaidGeometry, RaidLevel
    from repro.raid.layout import DeclusteredLayout
    from repro.sim import Environment, benchkit

    out: Dict[str, float] = {}
    repeats = 1 if scale > 1 else 3
    for workload, row in (("pingpong", "sim.core.pingpong_ev_per_s"),
                          ("timeout_churn", "sim.core.timeout_churn_ev_per_s"),
                          ("bandwidth_sweep", "sim.resources.bandwidth_sweep_ev_per_s")):
        seconds = _median_seconds(benchkit.KERNEL_WORKLOADS[workload], repeats)
        out[row] = benchkit.LAST_EVENT_COUNT / seconds
    count = 4000 // scale

    def per_call(env, make_event) -> Tuple[float, float]:
        """(host µs, calendar events) per call of 4 outstanding at a time."""
        def loop():
            for _ in range(count // 4):
                yield env.all_of([make_event() for _ in range(4)])

        eid = env._eid
        seconds = scaled_seconds(lambda: env.run(until=env.process(loop())))
        done = count // 4 * 4
        return seconds * 1e6 / done, (env._eid - eid) / done

    env = Environment()
    cluster = build_cluster(env, ClusterConfig(num_servers=2))
    end = cluster.host_end(0)
    out["net.fabric.send_us"], out["net.fabric.send_events"] = per_call(
        env, lambda: end.rdma_write(4096)
    )
    drive = cluster.drives()[0]
    out["storage.drive.io_us"], out["storage.drive.io_events"] = per_call(
        env, lambda: drive.read(0, 4096)
    )
    NvmeOfTarget(cluster.servers[1], cluster.server_end(1))
    bdev = RemoteBdev(cluster.host, cluster.host_end(1))
    out["nvmeof.cmd_us"], out["nvmeof.cmd_events"] = per_call(
        env, lambda: bdev.read(0, 4096)
    )

    maps = 20_000 // scale
    geometry = RaidGeometry(RaidLevel.RAID5, 8, 512 * 1024)
    stripe = geometry.stripe_data_bytes

    def map_extents():
        for i in range(maps):
            geometry.map_extent(i * 20_480, 131_072 if i % 4 else stripe)

    out["raid.geometry.map_us"] = _median_seconds(map_extents, repeats) * 1e6 / maps
    layout = DeclusteredLayout(8, 1, seed=3)

    def declustered():
        for i in range(maps):
            layout.stripe_drives(i)
            layout.parity_drives(i)

    out["raid.layout.declustered_map_us"] = (
        _median_seconds(declustered, repeats) * 1e6 / maps
    )
    out["cluster.builder.build_ms"] = _median_seconds(
        lambda: build_cluster(Environment(), ClusterConfig(num_servers=8)), repeats
    ) * 1e3
    return out


def _byte_drivers(scale: int) -> Dict[str, float]:
    """Real-byte kernels of functional mode, MB/s of data-shard bytes."""
    import numpy as np

    from repro.ec import raid6_pq, xor_blocks
    from repro.ec.gf import GF
    from repro.ec.lrc import LocalReconstructionCode
    from repro.ec.rs import ReedSolomon
    from repro.storage.integrity import crc32c

    repeats = 1 if scale > 1 else 3
    chunk = 64 * 1024
    rng = np.random.default_rng(7)
    shards = [rng.integers(0, 256, chunk, dtype=np.uint8) for _ in range(5)]
    data_mb = len(shards) * chunk / 1e6
    rs = ReedSolomon(5, 3)
    rs_all = dict(enumerate(shards + rs.encode(shards)))
    rs_survivors = {i: s for i, s in rs_all.items() if i not in (0, 2, 4)}
    lrc = LocalReconstructionCode(5, 2, 1)
    lrc_all = dict(enumerate(shards + lrc.encode(shards)))
    lrc_survivors = {i: s for i, s in lrc_all.items() if i != 1}
    loops = max(1, 8 // scale)

    def rate(fn: Callable[[], object], mb: float) -> float:
        def batch():
            for _ in range(loops):
                fn()

        return mb * loops / _median_seconds(batch, repeats)

    crc_block = shards[0][: 16 * 1024]
    return {
        "ec.parity.xor_mb_s": rate(lambda: xor_blocks(shards), data_mb),
        "ec.parity.pq_mb_s": rate(lambda: raid6_pq(shards), data_mb),
        "ec.gf.mul_mb_s": rate(lambda: GF.mul_bytes(29, shards[0]), chunk / 1e6),
        "ec.rs.encode_mb_s": rate(lambda: rs.encode(shards), data_mb),
        "ec.rs.decode_mb_s": rate(lambda: rs.decode(rs_survivors, chunk), data_mb),
        "ec.lrc.encode_mb_s": rate(lambda: lrc.encode(shards), data_mb),
        "ec.lrc.local_repair_mb_s": rate(
            lambda: lrc.decode_one(1, lrc_survivors, chunk), chunk / 1e6
        ),
        "storage.integrity.crc32c_mb_s": rate(
            lambda: crc32c(crc_block), len(crc_block) / 1e6
        ),
    }


#: workload -> its isolation drivers; the kernel rows ride with the
#: workload the kernel dominates, the byte rows with the one they dominate
_DRIVERS = {"fio_small_mixed": _kernel_drivers, "func_recovery": _byte_drivers}


def isolation_drivers(workload: str, scale: int) -> Dict[str, float]:
    driver = _DRIVERS.get(workload)
    return driver(scale) if driver is not None else {}
