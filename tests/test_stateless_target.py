"""Cross-variant equivalence for the stateless-target controller.

Three pins on the design-space claim (design-space axis 3):

* on an unarmed single-array testbed, full-stripe writes through the
  stateless-target controller produce a **FioResult equal** to stock
  dRAID's — the host-computed full-stripe path is shared, so the two
  variants are operation-for-operation identical for that traffic;
* the stateless target's bdevs are **pure data plane**: across healthy,
  partial-write and degraded traffic every command on the wire is a
  plain NVMe-oF READ or WRITE — never a PartialWrite/Parity/
  Reconstruction protocol command;
* with the verifier armed, a **mixed fault schedule** (the differential
  fuzzer's op/fault interleaving) runs protocol-checker clean and
  byte-exact against the shadow model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.draid.host import DraidArray
from repro.draid.stateless import StatelessTargetDraid
from repro.nvmeof.messages import NvmeOfCommand, Opcode
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sim import Environment
from repro.verify.fuzz import make_schedule, run_schedule
from repro.workloads import FioWorkload

KB = 1024
CHUNK = 16 * KB
DRIVES = 6
STRIPES = 16


def _build(cls, functional: bool):
    env = Environment()
    cluster = build_cluster(
        env,
        ClusterConfig(
            num_servers=DRIVES,
            functional_capacity=STRIPES * CHUNK if functional else 0,
        ),
    )
    geometry = RaidGeometry(RaidLevel.RAID5, DRIVES, CHUNK)
    return cls(cluster, geometry)


def test_full_stripe_fio_result_equal_to_stateful():
    """Full-stripe-aligned write workload: FioResult equality, field for
    field, between stock dRAID and the stateless-target variant."""
    results = []
    for cls in (DraidArray, StatelessTargetDraid):
        array = _build(cls, functional=False)
        g = array.geometry
        fio = FioWorkload(
            array,
            g.stripe_data_bytes,  # every I/O is exactly one full stripe
            read_fraction=0.0,
            queue_depth=8,
            capacity=STRIPES * g.stripe_data_bytes,
            seed=77,
        )
        results.append(fio.run(warmup_ns=1_000_000, measure_ns=8_000_000))
    stateful, stateless = results
    assert stateful == stateless
    assert stateful.ops_completed > 0


class _OpcodeSpy:
    """Transparent wrapper recording every command a host end sends."""

    def __init__(self, end, seen):
        self._end = end
        self._seen = seen

    def send(self, cmd):
        self._seen.append(cmd)
        return self._end.send(cmd)

    def __getattr__(self, name):
        return getattr(self._end, name)


def test_stateless_bdevs_see_only_plain_io():
    """Healthy, partial and degraded traffic: nothing but READ/WRITE on
    the wire — the target never holds protocol state."""
    array = _build(StatelessTargetDraid, functional=True)
    env = array.env
    g = array.geometry
    seen = []
    array.host_ends = [_OpcodeSpy(end, seen) for end in array.host_ends]
    rng = np.random.default_rng(3)
    capacity = STRIPES * g.stripe_data_bytes

    def payload(size):
        return rng.integers(0, 256, size=size, dtype=np.uint8)

    shadow = np.zeros(capacity, dtype=np.uint8)

    def write(offset, size):
        data = payload(size)
        env.run(until=array.write(offset, size, data))
        shadow[offset : offset + size] = data

    write(0, capacity)  # full stripes
    write(CHUNK // 2, CHUNK)  # partial, unaligned
    write(3 * g.stripe_data_bytes + CHUNK, 2 * CHUNK)  # partial RMW shape
    array.fail_drive(2)
    write(CHUNK, 3 * CHUNK)  # degraded write
    data = env.run(until=array.read(0, 5 * g.stripe_data_bytes))  # degraded read
    assert np.array_equal(data, shadow[: 5 * g.stripe_data_bytes])
    assert seen, "spy saw no traffic"
    for cmd in seen:
        assert isinstance(cmd, NvmeOfCommand)
        assert cmd.opcode in (Opcode.READ, Opcode.WRITE)


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_protocol_checker_clean_over_mixed_fault_schedule(seed):
    """Armed verifier + the fuzzer's op/fault interleaving on draid-st:
    no invariant violations, shadow-model byte equality, clean scrub."""
    schedule = make_schedule("draid-st", seed=seed, num_ops=14)
    assert any(op.kind == "fail" for op in schedule.ops), "no fault ops drawn"
    outcome = run_schedule(schedule)
    assert outcome.ok, outcome.detail
    assert outcome.verified and outcome.scrub_clean
    assert outcome.checked_messages > 0
