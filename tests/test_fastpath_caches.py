"""Differential oracle for ``CpuCore.execute``'s in-place one-server
schedule: the same completion times and counters as a core that is a
one-server ``BandwidthChannel`` behind ``transfer``.

The k-server scheduler itself (``FifoServers``, under NIC channels and
drive media) has its oracles in ``tests/test_fifo_servers.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BandwidthChannel, Environment
from repro.sim.resources import NS_PER_S

# NIC channels ride along so a degrade between charges, and the timers the
# channels interleave, are part of the compared history.


class _OracleCore:
    def __init__(self, env):
        self.env = env
        self._channel = BandwidthChannel(env, NS_PER_S)

    def execute(self, work_ns):
        if work_ns < 0:
            raise ValueError(f"negative work {work_ns}")
        if work_ns == 0:
            return self.env.timeout(0)
        return self._channel.transfer(int(work_ns))

    @property
    def busy_ns(self):
        return self._channel.busy_ns

    def utilization(self, elapsed_ns):
        return self._channel.utilization(elapsed_ns)


charge_steps = st.lists(
    st.one_of(
        st.tuples(st.just("execute"), st.sampled_from((0, 1, 700, 1_000, 3_300, 10**7))),
        st.tuples(st.just("transfer"), st.sampled_from((0, 64, 192, 4_160, 524_352))),
        st.tuples(st.just("reserve"), st.integers(0, 600_000)),
        st.tuples(st.just("degrade"), st.sampled_from((1.0, 0.5, 0.1))),
        st.tuples(st.just("restore"), st.none()),
        st.tuples(st.just("advance"), st.integers(1, 50_000)),
    ),
    max_size=60,
)


def _charge_history(steps, core_cls):
    from repro.net.nic import Nic

    env = Environment()
    core = core_cls(env)
    nic = Nic(env)
    history = []
    for action, arg in steps:
        if action == "execute":
            done = core.execute(arg)
            history.append((env.now + done.delay, done._value))
        elif action == "transfer":
            done = nic.tx.transfer(arg)
            history.append((env.now + done.delay, done._value))
        elif action == "reserve":
            history.append((nic.rx.reserve(arg), nic.rx.reserve(arg, extra_ns=7)))
        elif action == "degrade":
            nic.degrade(arg)
        elif action == "restore":
            nic.restore()
        else:
            env.run(until=env.now + arg)
        history.append((
            core.busy_ns, core.utilization(env.now + 1),
            nic.tx.bytes_transferred, nic.tx.ops, nic.tx.busy_ns,
            nic.rx.bytes_transferred, nic.rx.ops, nic.rx.busy_ns,
            nic.rx.queue_delay_ns(), nic.rx.backlog_ns(),
        ))
    env.run()
    history.append((env.now, env._eid))
    return history


class TestCpuChargeOracle:
    @given(steps=charge_steps)
    @settings(max_examples=150, deadline=None)
    def test_same_completion_times_and_counters(self, steps):
        from repro.cluster.machines import CpuCore

        assert _charge_history(steps, CpuCore) == _charge_history(steps, _OracleCore)
