"""Tests for workload generators (FIO, YCSB, open loop, tenants,
distributions), their one window protocol, and metrics."""

import math
import subprocess
import sys

import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.draid import DraidArray
from repro.metrics import LatencyRecorder
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sim import Environment
from repro.workloads import (
    FioWorkload,
    LatestGenerator,
    MultiTenantWorkload,
    OpenLoopWorkload,
    TenantSpec,
    UniformGenerator,
    YCSB_WORKLOADS,
    YcsbSpec,
    YcsbWorkload,
    ZipfianGenerator,
)

KB = 1024


def make_array(drives=5, chunk=64 * KB):
    env = Environment()
    cluster = build_cluster(env, ClusterConfig(num_servers=drives))
    return DraidArray(cluster, RaidGeometry(RaidLevel.RAID5, drives, chunk))


class TestLatencyRecorder:
    def test_summary_statistics(self):
        rec = LatencyRecorder()
        for v in [100, 200, 300, 400, 500]:
            rec.record(v)
        s = rec.summarize()
        assert s.count == 5
        assert s.mean_ns == 300
        assert s.p50_ns == 300
        assert s.max_ns == 500
        assert s.mean_us == pytest.approx(0.3)

    def test_percentile_interpolation(self):
        rec = LatencyRecorder()
        rec.record(0)
        rec.record(100)
        s = rec.summarize()
        assert s.p50_ns == 50
        assert s.p90_ns == 90

    def test_empty_summary(self):
        s = LatencyRecorder().summarize()
        assert s.count == 0
        assert s.mean_ns == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1)

    def test_reset(self):
        rec = LatencyRecorder()
        rec.record(5)
        rec.reset()
        assert len(rec) == 0


class TestGenerators:
    def test_uniform_bounds(self):
        gen = UniformGenerator(100, seed=1)
        values = [gen.next() for _ in range(1000)]
        assert min(values) >= 0
        assert max(values) < 100

    def test_zipfian_is_skewed(self):
        gen = ZipfianGenerator(10_000, seed=2)
        values = [gen.next() for _ in range(20_000)]
        assert all(0 <= v < 10_000 for v in values)
        # YCSB zipfian(0.99): the head of the keyspace dominates
        head = sum(1 for v in values if v < 100)
        assert head > len(values) * 0.3

    def test_zipfian_determinism(self):
        a = ZipfianGenerator(1000, seed=3)
        b = ZipfianGenerator(1000, seed=3)
        assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]

    def test_latest_prefers_recent(self):
        gen = LatestGenerator(1000, seed=4)
        values = [gen.next() for _ in range(5000)]
        recent = sum(1 for v in values if v > 900)
        assert recent > len(values) * 0.3

    def test_latest_insert_grows_keyspace(self):
        gen = LatestGenerator(10, seed=5)
        new_key = gen.record_insert()
        assert new_key == 10
        assert gen.count == 11

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UniformGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(100, theta=1.5)


class TestFio:
    def test_measures_bandwidth_and_latency(self):
        array = make_array()
        fio = FioWorkload(array, 64 * KB, read_fraction=1.0, queue_depth=8)
        result = fio.run(warmup_ns=1_000_000, measure_ns=5_000_000)
        assert result.bandwidth_mb_s > 0
        assert result.latency.count == result.ops_completed
        assert result.ops_completed > 10
        assert result.bandwidth_gbps == pytest.approx(result.bandwidth_mb_s * 8 / 1000)

    def test_read_write_mix_recorded_separately(self):
        array = make_array()
        fio = FioWorkload(array, 64 * KB, read_fraction=0.5, queue_depth=8)
        fio.run(warmup_ns=500_000, measure_ns=5_000_000)
        assert len(fio.reads) > 0
        assert len(fio.writes) > 0

    def test_deterministic_given_seed(self):
        def run():
            array = make_array()
            fio = FioWorkload(array, 64 * KB, read_fraction=0.3, queue_depth=4, seed=7)
            return fio.run(warmup_ns=500_000, measure_ns=3_000_000).ops_completed

        assert run() == run()

    def test_higher_qd_more_throughput_until_saturation(self):
        def bw(qd):
            array = make_array()
            fio = FioWorkload(array, 128 * KB, read_fraction=1.0, queue_depth=qd)
            return fio.run(warmup_ns=500_000, measure_ns=5_000_000).bandwidth_mb_s

        assert bw(8) > 1.5 * bw(1)

    def test_invalid_parameters(self):
        array = make_array()
        with pytest.raises(ValueError):
            FioWorkload(array, 0)
        with pytest.raises(ValueError):
            FioWorkload(array, 4096, read_fraction=2.0)
        with pytest.raises(ValueError):
            FioWorkload(array, 4096, queue_depth=0)


class _CountingStore:
    """KV stub recording which ops the YCSB driver issued."""

    def __init__(self, env):
        self.env = env
        self.ops = {"get": 0, "put": 0}

    def get(self, key):
        self.ops["get"] += 1
        return self.env.timeout(1000)

    def put(self, key):
        self.ops["put"] += 1
        return self.env.timeout(1000)


class TestYcsb:
    def test_workload_definitions_sum_to_one(self):
        for spec in YCSB_WORKLOADS.values():
            total = spec.read + spec.update + spec.insert + spec.rmw + spec.scan
            assert total == pytest.approx(1.0)

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            YcsbSpec("bad", read=0.5)

    def test_workload_a_mix(self):
        env = Environment()
        store = _CountingStore(env)
        ycsb = YcsbWorkload(store, YCSB_WORKLOADS["A"], num_keys=100, clients=4)
        result = ycsb.run(warmup_ns=10_000, measure_ns=2_000_000)
        assert result.ops_completed > 100
        total = store.ops["get"] + store.ops["put"]
        # A is 50/50 read/update
        assert 0.35 < store.ops["get"] / total < 0.65

    def test_workload_c_read_only(self):
        env = Environment()
        store = _CountingStore(env)
        ycsb = YcsbWorkload(store, YCSB_WORKLOADS["C"], num_keys=100, clients=4)
        ycsb.run(warmup_ns=10_000, measure_ns=1_000_000)
        assert store.ops["put"] == 0

    def test_workload_f_rmw_pairs(self):
        env = Environment()
        store = _CountingStore(env)
        ycsb = YcsbWorkload(store, YCSB_WORKLOADS["F"], num_keys=100, clients=2)
        ycsb.run(warmup_ns=10_000, measure_ns=1_000_000)
        # F: 50% read, 50% read-modify-write => gets ~ 3x puts
        assert store.ops["get"] > 2 * store.ops["put"]

    def test_kiops_accounting(self):
        env = Environment()
        store = _CountingStore(env)
        ycsb = YcsbWorkload(store, YCSB_WORKLOADS["C"], num_keys=10, clients=1)
        result = ycsb.run(warmup_ns=0, measure_ns=1_000_000)
        # each op takes 1 us => ~1000 ops in 1 ms => ~1000 KIOPS
        assert result.kiops == pytest.approx(1000, rel=0.1)


class TestWindowProtocol:
    """Every generator's ``run`` is the window driver over its protocol:
    driving ``start``/``open_window``/``close_window``/``snapshot`` by hand
    gives the same result."""

    @staticmethod
    def _by_hand(generator, warmup_ns, measure_ns):
        env = generator.env
        stop = generator.start()
        env.run(until=env.now + warmup_ns)
        generator.open_window()
        env.run(until=env.now + measure_ns)
        generator.close_window()
        settle = generator.settle_ns(measure_ns)
        if settle:
            env.run(until=env.now + settle)
        result = generator.snapshot(measure_ns)
        stop.succeed()
        env.run(until=env.now + 1)
        return result, env.now

    @pytest.mark.parametrize("kind", ["fio", "ycsb", "openloop"])
    def test_by_hand_equals_run(self, kind):
        def make():
            if kind == "fio":
                return FioWorkload(make_array(), 16 * KB, read_fraction=0.5, queue_depth=4)
            if kind == "ycsb":
                store = _CountingStore(Environment())
                return YcsbWorkload(store, YCSB_WORKLOADS["F"], num_keys=100, clients=3)
            return OpenLoopWorkload(
                make_array(), 16 * KB, rate_iops=50_000, read_fraction=0.5,
                deadline_ns=200_000, arrival="bursty",
            )

        ran = make()
        result = ran.run(warmup_ns=300_000, measure_ns=1_000_000)
        by_hand, now = self._by_hand(make(), 300_000, 1_000_000)
        assert result.ops_completed > 0
        assert by_hand == result
        assert ran.env.now == now

    def test_tenant_run_is_one_phase(self):
        from repro.rack import ArraySpec, RackConfig, build_rack

        def make():
            rack = build_rack(None, RackConfig(arrays=[
                ArraySpec(system="dRAID", servers=4, name="a0", export_bytes=1 << 24),
            ]))
            return MultiTenantWorkload(rack, [
                TenantSpec("a", 16 * KB, rate_iops=20_000, volume_bytes=1 << 22,
                           deadline_ns=500_000),
                TenantSpec("b", 64 * KB, rate_iops=5_000, volume_bytes=1 << 22,
                           read_fraction=0.3, arrival="diurnal"),
            ])

        one = make().run(warmup_ns=200_000, measure_ns=1_000_000)
        phases = make().run_phases([1_000_000], warmup_ns=200_000)
        assert one == {name: results[0] for name, results in phases.items()}
        assert one["a"].ops_completed > 0 and one["b"].ops_completed > 0


#: Closed loops against a fast reject: a ``Busy`` takes no simulated time,
#: so a worker re-issuing at once never advanced the clock.  Each probe
#: runs in a fresh interpreter under a wall-clock timeout, so a livelock
#: fails the test instead of hanging the suite.
_BUSY_PROBES = {
    "admission-bound": """
import repro
from repro.cluster import ClusterConfig
from repro.qos import OverloadConfig
from repro.workloads import FioWorkload
env, _, array = repro.build_testbed(
    "dRAID", config=ClusterConfig(overload=OverloadConfig(admission_depth=8))
)
fio = FioWorkload(array, 4096, read_fraction=1.0, queue_depth=16)
fio.run(warmup_ns=100_000, measure_ns=1_000_000)
print(env.now, fio.busy_rejections, fio.io_errors)
""",
    "volume-rate-limit": """
from repro.rack import ArraySpec, RackConfig, RackQosConfig, VolumeSpec, build_rack
from repro.workloads import FioWorkload
rack = build_rack(None, RackConfig(
    arrays=[ArraySpec(system="dRAID", servers=4, name="a0", export_bytes=1 << 26)],
    qos=RackQosConfig(),
))
volume = rack.volumes.create(VolumeSpec("v", 1 << 24, rate_limit_mb_s=50.0))
fio = FioWorkload(volume, 512 * 1024, read_fraction=0.0, queue_depth=8,
                  capacity=volume.size_bytes)
fio.run(warmup_ns=100_000, measure_ns=1_000_000)
print(rack.env.now, fio.busy_rejections, fio.io_errors)
""",
}


@pytest.mark.parametrize("probe", sorted(_BUSY_PROBES))
def test_closed_loop_survives_a_fast_reject(probe):
    out = subprocess.run(
        [sys.executable, "-c", _BUSY_PROBES[probe]],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    now, busy, io_errors = map(int, out)
    assert now == 100_000 + 1_000_000 + 1  # warm-up, window, stop
    assert busy > 0
    assert io_errors == 0


@pytest.mark.parametrize("kind", ["fio", "ycsb", "openloop", "trace"])
def test_every_generator_survives_a_typed_reject(kind):
    """One outcome rule: against an admission gate of 8 at a concurrency
    of 16, every generator's ``run`` returns and counts the rejects; none
    lets a ``Busy`` out of ``run``."""
    from repro import build_testbed
    from repro.apps.objectstore import HashObjectStore
    from repro.qos import OverloadConfig
    from repro.workloads.trace import TraceRecord, TraceWorkload

    env, _cluster, array = build_testbed(
        "dRAID", config=ClusterConfig(overload=OverloadConfig(admission_depth=8))
    )
    if kind == "trace":
        replay = TraceWorkload(
            array, [TraceRecord(0, "read", i * 4 * KB, 4 * KB) for i in range(16)]
        )
        result = replay.run()
        assert replay.busy_rejections == 8
        assert result.completed == 8 and result.peak_inflight == 16
        return
    if kind == "fio":
        generator = FioWorkload(array, 4 * KB, read_fraction=0.5, queue_depth=16)
    elif kind == "ycsb":
        store = HashObjectStore(array, object_size=4 * KB, num_objects=1000)
        generator = YcsbWorkload(store, YCSB_WORKLOADS["A"], num_keys=1000, clients=16)
    else:
        generator = OpenLoopWorkload(array, 4 * KB, rate_iops=400_000, read_fraction=0.5)
    result = generator.run(warmup_ns=100_000, measure_ns=1_000_000)
    assert generator.busy_rejections > 0
    assert generator.io_errors == 0
    assert result.ops_completed > 0
    assert env.now >= 1_100_000
