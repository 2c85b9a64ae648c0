"""Online rebuild onto a hot spare from the storage pool (§1, §6).

A drive fails; a replacement is drawn from the shared pool and the array
rebuilds the lost member's contents onto it *while serving writes*.  The
rebuilt-stripe record lets completed stripes treat the member as healthy again,
so concurrent writes land on the replacement directly and nothing is stale
when the rebuild finishes — verified byte-for-byte plus a full parity
scrub.

Run:  python examples/hot_spare_rebuild.py
"""

import numpy as np

from repro.cluster import ClusterConfig, build_cluster
from repro.draid import DraidArray
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.raid.rebuild import RebuildJob
from repro.raid.scrub import scrub_array
from repro.sim import Environment

KB = 1024
CHUNK = 64 * KB
STRIPES = 24


def main() -> None:
    env = Environment()
    cluster = build_cluster(
        env, ClusterConfig(num_servers=8, functional_capacity=STRIPES * CHUNK)
    )
    geometry = RaidGeometry(RaidLevel.RAID5, 8, CHUNK)
    array = DraidArray(cluster, geometry)
    capacity = STRIPES * geometry.stripe_data_bytes
    rng = np.random.default_rng(1)
    model = rng.integers(0, 256, capacity, dtype=np.uint8)
    env.run(until=array.write(0, capacity, model.copy()))
    print(f"primed {capacity // KB} KiB across {STRIPES} stripes")

    victim = 5
    array.fail_drive(victim)
    cluster.drives()[victim]._data[:] = 0  # the replacement arrives blank
    print(f"drive {victim} failed; blank replacement attached from the pool")

    job = RebuildJob(array, victim, num_stripes=STRIPES, throttle_ns=100_000)
    done = job.start()

    def foreground_writer():
        """Client traffic racing the rebuild."""
        for i in range(20):
            offset = int(rng.integers(0, capacity - 4 * KB))
            payload = rng.integers(0, 256, 4 * KB, dtype=np.uint8)
            yield array.write(offset, len(payload), payload)
            model[offset : offset + len(payload)] = payload
            yield env.timeout(80_000)

    writes = env.process(foreground_writer())
    stats = env.run(until=done)
    env.run(until=writes)
    print(f"rebuild finished in {stats.elapsed_ns / 1e6:.2f} ms at "
          f"{stats.rate_mb_s():.0f} MB/s "
          f"({stats.data_chunks_rebuilt} data + "
          f"{stats.parity_chunks_rebuilt} parity chunks), with 20 foreground "
          f"writes racing it")

    assert not array.degraded
    data = env.run(until=array.read(0, capacity))
    assert np.array_equal(data, model), "data diverged!"
    report = scrub_array(cluster.drives(), geometry, STRIPES)
    assert report.clean, f"inconsistent stripes {report.bad_stripes}"
    print("verified: byte-exact contents and consistent parity on all stripes")


if __name__ == "__main__":
    main()
