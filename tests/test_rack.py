"""Rack-scale composition: placement, tenant QoS, migration, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.experiments.runner import SweepPoint, run_points
from repro.experiments.tenancy import hotspot_point, noisy_point
from repro.nvmeof.messages import IoError
from repro.qos import OverloadConfig, WeightedFairQueue
from repro.qos.errors import Busy
from repro.qos.tokens import TokenBucket
from repro.rack import (
    ArraySpec,
    HotSpotBalancer,
    RackConfig,
    RackQosConfig,
    VolumeSpec,
    build_rack,
)
from repro.sim.core import Environment
from repro.workloads import MultiTenantWorkload, TenantSpec

KB = 1024
MB = 1_000_000
MS = 1_000_000


def _drain(env, event):
    env.run(until=event)
    return event.value


class TestClusterNamePrefix:
    def test_default_name_keeps_historic_names(self):
        cluster = build_cluster(Environment(), ClusterConfig(num_servers=2))
        assert cluster.host.name == "host"
        assert cluster.servers[0].name == "server0"
        assert cluster.servers[0].drive.name == "server0.nvme"

    def test_named_cluster_prefixes_every_component(self):
        cluster = build_cluster(
            Environment(), ClusterConfig(num_servers=2, name="a0")
        )
        assert cluster.host.name == "a0.host"
        assert cluster.host.nic.name == "a0.host.nic"
        assert cluster.servers[1].name == "a0.server1"
        assert cluster.servers[1].drive.name == "a0.server1.nvme"

    def test_two_named_clusters_share_one_environment(self):
        env = Environment()
        first = build_cluster(env, ClusterConfig(num_servers=2, name="a0"))
        second = build_cluster(env, ClusterConfig(num_servers=2, name="a1"))
        names = {s.name for s in first.servers} | {s.name for s in second.servers}
        assert names == {"a0.server0", "a0.server1", "a1.server0", "a1.server1"}


class TestWeightedFairQueue:
    def test_dispatch_shares_follow_weights(self):
        env = Environment()
        wfq = WeightedFairQueue(env, slots=1)
        wfq.register("heavy", weight=3.0, queue_limit=64)
        wfq.register("light", weight=1.0, queue_limit=64)
        for _ in range(40):
            wfq.acquire("heavy", 4096)
            wfq.acquire("light", 4096)
        for _ in range(40):
            wfq.release()
        # 40 dispatches past the first: heavy gets ~3/4 of them
        heavy, light = wfq.flow("heavy").dispatched, wfq.flow("light").dispatched
        assert heavy + light == 41
        assert heavy == pytest.approx(3 * light, abs=3)

    def test_full_flow_queue_fast_rejects(self):
        env = Environment()
        wfq = WeightedFairQueue(env, slots=1)
        wfq.register("t", weight=1.0, queue_limit=2)
        wfq.acquire("t", 100)  # goes straight into service
        wfq.acquire("t", 100)
        wfq.acquire("t", 100)
        with pytest.raises(Busy):
            wfq.acquire("t", 100)
        assert wfq.flow("t").rejected == 1

    def test_idle_flow_lends_capacity(self):
        env = Environment()
        wfq = WeightedFairQueue(env, slots=2)
        wfq.register("busy", weight=1.0)
        wfq.register("idle", weight=9.0)
        events = [wfq.acquire("busy", 100) for _ in range(4)]
        # both slots serve the only backlogged flow despite its low weight
        assert events[0].triggered and events[1].triggered
        assert not events[2].triggered
        wfq.release()
        assert events[2].triggered

    def test_duplicate_flow_rejected(self):
        wfq = WeightedFairQueue(Environment(), slots=1)
        wfq.register("t")
        with pytest.raises(ValueError):
            wfq.register("t")

    def test_release_without_acquire(self):
        with pytest.raises(RuntimeError):
            WeightedFairQueue(Environment(), slots=1).release()


class TestAcquireWithin:
    def _bucket(self, env, rate_mb_s=100.0, burst=64 * KB):
        return TokenBucket(env, rate_bytes_per_s=rate_mb_s * MB, burst_bytes=burst)

    def test_within_burst_admits_immediately(self):
        env = Environment()
        bucket = self._bucket(env)
        grant = bucket.acquire_within(64 * KB, max_delay_ns=0)
        assert grant is not None
        env.run(until=grant)
        assert bucket.throttle_events == 0

    def test_near_conformance_shapes(self):
        env = Environment()
        bucket = self._bucket(env)
        bucket.acquire_within(64 * KB, max_delay_ns=0)  # drain the burst
        grant = bucket.acquire_within(64 * KB, max_delay_ns=10 * MS)
        assert grant is not None
        start = env.now
        env.run(until=grant)
        assert env.now > start  # the grant waited for refill
        assert bucket.throttle_events == 1

    def test_past_horizon_polices(self):
        env = Environment()
        bucket = self._bucket(env)
        bucket.acquire_within(64 * KB, max_delay_ns=0)
        assert bucket.acquire_within(64 * KB, max_delay_ns=1000) is None
        assert bucket.throttle_events == 1
        # the policed I/O consumed no budget: a patient caller still gets in
        assert bucket.acquire_within(64 * KB, max_delay_ns=10 * MS) is not None


def _two_array_rack(qos=False, placement="least-loaded", export=4 * MB):
    return build_rack(
        None,
        RackConfig(
            arrays=[
                ArraySpec(system="dRAID", servers=4, name="a0", export_bytes=export),
                ArraySpec(system="dRAID", servers=4, name="a1", export_bytes=export),
            ],
            placement=placement,
            qos=RackQosConfig() if qos else None,
        ),
    )


class TestPlacement:
    def test_first_fit_packs_in_rack_order(self):
        rack = _two_array_rack(placement="first-fit")
        v0 = rack.volumes.create(VolumeSpec("v0", 1 * MB))
        v1 = rack.volumes.create(VolumeSpec("v1", 1 * MB))
        assert v0.home.name == "a0" and v1.home.name == "a0"

    def test_best_fit_picks_tightest_array(self):
        rack = _two_array_rack(placement="best-fit")
        rack.volumes.create(VolumeSpec("filler", 3 * MB), on="a0")
        v = rack.volumes.create(VolumeSpec("v", 1 * MB))
        assert v.home.name == "a0"  # 1 MB free beats 4 MB free
        v2 = rack.volumes.create(VolumeSpec("v2", 2 * MB))
        assert v2.home.name == "a1"  # a0 can no longer fit it

    def test_least_loaded_balances_demand(self):
        rack = _two_array_rack()
        rack.volumes.create(VolumeSpec("hot", 1 * MB, demand_mb_s=500.0))
        cool = rack.volumes.create(VolumeSpec("cool", 1 * MB, demand_mb_s=10.0))
        assert cool.home.name == "a1"
        third = rack.volumes.create(VolumeSpec("third", 1 * MB, demand_mb_s=5.0))
        assert third.home.name == "a1"  # 10 MB/s still below a0's 500

    def test_pin_overrides_policy(self):
        rack = _two_array_rack()
        rack.volumes.create(VolumeSpec("hot", 1 * MB, demand_mb_s=500.0), on="a0")
        pinned = rack.volumes.create(
            VolumeSpec("pinned", 1 * MB, demand_mb_s=1.0), on="a0"
        )
        assert pinned.home.name == "a0"

    def test_capacity_exhaustion_raises(self):
        rack = _two_array_rack()
        rack.volumes.create(VolumeSpec("big0", 4 * MB))
        rack.volumes.create(VolumeSpec("big1", 4 * MB))
        with pytest.raises(ValueError):
            rack.volumes.create(VolumeSpec("overflow", 1 * MB))

    def test_duplicate_volume_name_rejected(self):
        rack = _two_array_rack()
        rack.volumes.create(VolumeSpec("v", 1 * MB))
        with pytest.raises(ValueError):
            rack.volumes.create(VolumeSpec("v", 1 * MB))

    def test_placement_is_deterministic(self):
        def placements():
            rack = _two_array_rack()
            for i in range(6):
                rack.volumes.create(
                    VolumeSpec(f"v{i}", 1 * MB, demand_mb_s=float(i * 7 % 5))
                )
            return {v.name: v.home.name for v in rack.volumes.volumes.values()}

        assert placements() == placements()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            build_rack(None, RackConfig(placement="round-robin"))


class TestSingleArrayByteIdentity:
    def test_rack_fio_matches_direct_build(self):
        """A 1-array unnamed rack is the historic testbed, byte for byte."""
        from repro.experiments.common import fio_point, measure_window_ns
        from repro.workloads import FioWorkload

        direct = fio_point("dRAID", servers=4, fast=True)
        rack = build_rack(
            None, RackConfig(arrays=[ArraySpec(system="dRAID", servers=4)])
        )
        fio = FioWorkload(
            rack.arrays[0].array, 128 * KB, read_fraction=0.0,
            queue_depth=64, seed=1234,
        )
        via_rack = fio.run(measure_ns=measure_window_ns(True))
        assert via_rack == direct


class TestVolumeIo:
    def test_unarmed_volume_passthrough_and_bounds(self):
        rack = _two_array_rack()
        volume = rack.volumes.create(VolumeSpec("v", 1 * MB))
        env = rack.env
        _drain(env, volume.read(0, 64 * KB))
        _drain(env, volume.write(64 * KB, 64 * KB))
        with pytest.raises(ValueError):
            volume.read(1 * MB - 4 * KB, 64 * KB)  # crosses the end
        with pytest.raises(ValueError):
            volume.read(-1, 4 * KB)

    def test_rate_limited_volume_rejects_over_budget(self):
        rack = _two_array_rack(qos=True)
        volume = rack.volumes.create(
            VolumeSpec("v", 1 * MB, rate_limit_mb_s=10.0, burst_bytes=64 * KB)
        )
        env = rack.env
        _drain(env, volume.read(0, 64 * KB))  # consumes the whole burst
        with pytest.raises(Busy):
            # refill of another 64 KiB takes 6.5 ms >> the 2 ms horizon
            _drain(env, volume.read(0, 64 * KB))
        assert volume.qos_rejections == 1


class TestMigration:
    def _functional_rack(self):
        functional = ClusterConfig(functional_capacity=4 * MB)
        return build_rack(
            None,
            RackConfig(
                arrays=[
                    ArraySpec(
                        system="dRAID", servers=4, chunk_bytes=16 * KB,
                        name="a0", export_bytes=4 * MB, cluster=functional,
                    ),
                    ArraySpec(
                        system="dRAID", servers=4, chunk_bytes=16 * KB,
                        name="a1", export_bytes=4 * MB, cluster=functional,
                    ),
                ]
            ),
        )

    def test_functional_migration_preserves_bytes(self):
        rack = self._functional_rack()
        env = rack.env
        volume = rack.volumes.create(VolumeSpec("v", 256 * KB), on="a0")
        rng = np.random.default_rng(7)
        payload = rng.integers(0, 256, size=256 * KB, dtype=np.uint8)
        _drain(env, volume.write(0, 256 * KB, payload))
        done = rack.volumes.migrate(
            volume, rack.array("a1"), extent_bytes=64 * KB
        )
        env.run(until=done)
        assert volume.home.name == "a1"
        readback = _drain(env, volume.read(0, 256 * KB))
        assert np.array_equal(np.asarray(readback, dtype=np.uint8), payload)

    def test_migration_moves_capacity_accounting(self):
        rack = self._functional_rack()
        env = rack.env
        volume = rack.volumes.create(
            VolumeSpec("v", 256 * KB, demand_mb_s=42.0), on="a0"
        )
        src, dst = rack.array("a0"), rack.array("a1")
        assert src.allocated_bytes == 256 * KB and dst.allocated_bytes == 0
        env.run(until=rack.volumes.migrate(volume, dst, extent_bytes=64 * KB))
        assert src.allocated_bytes == 0 and dst.allocated_bytes == 256 * KB
        assert src.placed_demand_mb_s == 0.0
        assert dst.placed_demand_mb_s == 42.0
        assert volume in dst.volumes and volume not in src.volumes
        record = rack.volumes.migrations[0]
        assert (record.volume, record.source, record.destination) == ("v", "a0", "a1")
        assert record.moved_bytes == 256 * KB
        assert record.finished_ns > record.started_ns

    def test_migrate_to_current_home_rejected(self):
        rack = self._functional_rack()
        volume = rack.volumes.create(VolumeSpec("v", 256 * KB), on="a0")
        with pytest.raises(ValueError):
            rack.volumes.migrate(volume, rack.array("a0"))

    def _overloaded_source_rack(self):
        """a0 sheds background I/O as soon as one foreground I/O is in flight."""
        pressed = ClusterConfig(
            functional_capacity=4 * MB,
            overload=OverloadConfig(admission_depth=8, background_depth=1),
        )
        arrays = [
            ArraySpec(system="dRAID", servers=4, chunk_bytes=16 * KB, name=name,
                      export_bytes=4 * MB, cluster=cluster)
            for name, cluster in (("a0", pressed),
                                  ("a1", ClusterConfig(functional_capacity=4 * MB)))
        ]
        return build_rack(None, RackConfig(arrays=arrays, qos=RackQosConfig()))

    def test_migration_rides_out_a_shed_copy_read(self):
        rack = self._overloaded_source_rack()
        env = rack.env
        volume = rack.volumes.create(VolumeSpec("v", 256 * KB), on="a0")
        payload = np.random.default_rng(9).integers(0, 256, 256 * KB, dtype=np.uint8)
        _drain(env, volume.write(0, 256 * KB, payload))

        def tenant():
            for _ in range(40):
                yield volume.read(0, 64 * KB)

        tenant_done = env.process(tenant())
        env.run(until=env.now + 20_000)  # a tenant read now holds a0's bg slot
        done = rack.volumes.migrate(volume, rack.array("a1"), extent_bytes=64 * KB)
        env.run(until=done)  # used to raise Busy out of the simulation
        assert rack.array("a0").cluster.qos.stats.shed_background >= 1
        env.run(until=tenant_done)
        assert volume.home.name == "a1" and volume._migrating_to is None
        readback = _drain(env, volume.read(0, 256 * KB))
        assert np.array_equal(np.asarray(readback, dtype=np.uint8), payload)

    def test_failed_migration_unwinds(self):
        rack = self._overloaded_source_rack()
        env = rack.env
        volume = rack.volumes.create(VolumeSpec("v", 256 * KB), on="a0")
        src, dst = rack.array("a0"), rack.array("a1")

        def broken_write(*args, **kwargs):
            failed = env.event()
            failed.fail(IoError("a1: member gone"))
            return failed

        dst.array.write = broken_write
        with pytest.raises(IoError):
            env.run(until=rack.volumes.migrate(volume, dst, extent_bytes=64 * KB))
        assert volume.home is src and volume._migrating_to is None
        assert dst.allocated_bytes == 0 and src.allocated_bytes == 256 * KB
        with pytest.raises(KeyError):
            dst.wfq.flow("v")
        # the volume is movable again once the destination recovers
        del dst.array.write
        env.run(until=rack.volumes.migrate(volume, dst, extent_bytes=64 * KB))
        assert volume.home is dst

    def test_migration_is_reproducible(self):
        def records():
            result = hotspot_point("dRAID", migrate=True, fast=True)
            return result

        assert records() == records()


class TestBalancer:
    def test_requires_qos_armed_rack(self):
        with pytest.raises(ValueError):
            HotSpotBalancer(_two_array_rack(qos=False))

    def test_threshold_validation(self):
        rack = _two_array_rack(qos=True)
        with pytest.raises(ValueError):
            HotSpotBalancer(rack, high_backlog=8, low_backlog=8)
        with pytest.raises(ValueError):
            HotSpotBalancer(rack, interval_ns=0)

    def test_idle_rack_never_migrates(self):
        rack = _two_array_rack(qos=True)
        rack.volumes.create(VolumeSpec("v", 1 * MB))
        balancer = HotSpotBalancer(rack, interval_ns=1 * MS)
        rack.env.run(until=5 * MS)
        assert balancer.scans >= 4
        assert balancer.migrations_started == 0
        assert rack.volumes.migrations == []


class TestMultiTenant:
    def _run_once(self):
        rack = _two_array_rack(qos=True, export=64 * MB)
        workload = MultiTenantWorkload(
            rack,
            [
                TenantSpec("alpha", 64 * KB, 30_000.0, volume_bytes=8 * MB,
                           deadline_ns=5 * MS, weight=2.0),
                TenantSpec("beta", 64 * KB, 50_000.0, volume_bytes=8 * MB,
                           deadline_ns=5 * MS, arrival="diurnal"),
            ],
        )
        return workload.run(warmup_ns=1 * MS, measure_ns=4 * MS)

    def test_two_runs_identical(self):
        first, second = self._run_once(), self._run_once()
        assert first == second

    def test_duplicate_tenant_names_rejected(self):
        rack = _two_array_rack(qos=True)
        spec = TenantSpec("t", 64 * KB, 1000.0, volume_bytes=1 * MB)
        with pytest.raises(ValueError):
            MultiTenantWorkload(rack, [spec, spec])

    def test_seed_derivation_is_stable(self):
        a = TenantSpec("alpha", 64 * KB, 1000.0, volume_bytes=1 * MB)
        assert a.resolved_seed() == TenantSpec(
            "alpha", 4 * KB, 9.0, volume_bytes=2 * MB
        ).resolved_seed()
        assert a.resolved_seed() != TenantSpec(
            "beta", 64 * KB, 1000.0, volume_bytes=1 * MB
        ).resolved_seed()
        assert TenantSpec(
            "alpha", 64 * KB, 1000.0, volume_bytes=1 * MB, seed=7
        ).resolved_seed() == 7


class TestTenancyParallelIdentity:
    def test_serial_matches_parallel(self):
        points = [
            SweepPoint(noisy_point, dict(system="dRAID", qos=True, fast=True)),
            SweepPoint(hotspot_point, dict(system="dRAID", migrate=True, fast=True)),
        ]
        serial = run_points(points, jobs=1)
        parallel = run_points(points, jobs=2)
        assert serial == parallel
