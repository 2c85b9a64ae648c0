"""Tests for the NVMe-oF target/initiator pair and cluster assembly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, build_cluster
from repro.draid.bdev import DraidBdevServer
from repro.nvmeof.messages import RESPONSE_BYTES
from repro.nvmeof import IoError, NvmeOfCommand, NvmeOfCompletion, NvmeOfTarget, Opcode, RemoteBdev
from repro.obs.trace import Tracer
from repro.sim import Environment
from repro.storage.drive import DriveFailedError


def make_stack(num_servers=2, functional=0, **kwargs):
    env = Environment()
    config = ClusterConfig(num_servers=num_servers, functional_capacity=functional, **kwargs)
    cluster = build_cluster(env, config)
    bdevs = []
    targets = []
    for i, server in enumerate(cluster.servers):
        conn = cluster.host_connection(i)
        targets.append(NvmeOfTarget(server, conn.end_for(server.nic)))
        bdevs.append(RemoteBdev(cluster.host, conn.end_for(cluster.host.nic), name=f"bdev{i}"))
    return env, cluster, bdevs, targets


class TestCluster:
    def test_paper_default_shape(self):
        env, cluster, bdevs, _targets = make_stack(num_servers=8)
        assert cluster.num_servers == 8
        assert len(cluster.host_connections) == 8
        # full server mesh: 8 choose 2
        assert len(cluster._peer_connections) == 28

    def test_peer_connection_symmetry(self):
        env, cluster, _, _t = make_stack(num_servers=3)
        assert cluster.peer_connection(0, 2) is cluster.peer_connection(2, 0)
        with pytest.raises(ValueError):
            cluster.peer_connection(1, 1)

    def test_heterogeneous_nic_rates(self):
        env = Environment()
        config = ClusterConfig(num_servers=2, server_nic_rates=[1e9, 2e9])
        cluster = build_cluster(env, config)
        assert cluster.servers[0].nic.rate_bytes_per_s == 1e9
        assert cluster.servers[1].nic.rate_bytes_per_s == 2e9

    def test_rate_list_length_checked(self):
        env = Environment()
        with pytest.raises(ValueError):
            build_cluster(env, ClusterConfig(num_servers=3, server_nic_rates=[1e9]))


class TestRemoteIo:
    def test_functional_write_read_roundtrip(self):
        env, cluster, bdevs, _targets = make_stack(functional=1 << 20)
        payload = bytes(range(200)) * 10

        def proc():
            yield bdevs[0].write(4096, 2000, payload)
            data = yield bdevs[0].read(4096, 2000)
            return bytes(data)

        assert env.run(until=env.process(proc())) == payload

    def test_read_times_include_network_and_drive(self):
        env, cluster, bdevs, _targets = make_stack()

        def proc():
            yield bdevs[0].read(0, 128 * 1024)
            return env.now

        elapsed = env.run(until=env.process(proc()))
        # capsule + cpu + drive read (~41us transfer + 80us latency) +
        # response transfer (~11.4us at 11.5GB/s) + fabric overheads
        assert 100_000 < elapsed < 250_000

    def test_write_pulls_data_through_host_tx(self):
        env, cluster, bdevs, _targets = make_stack()
        size = 256 * 1024

        def proc():
            yield bdevs[0].write(0, size)

        env.run(until=env.process(proc()))
        host_nic = cluster.host.nic
        # host TX carries capsule + payload; RX only the completion
        assert host_nic.tx_bytes >= size
        assert host_nic.rx_bytes < 1024

    def test_read_pushes_data_through_host_rx(self):
        env, cluster, bdevs, _targets = make_stack()
        size = 256 * 1024

        def proc():
            yield bdevs[0].read(0, size)

        env.run(until=env.process(proc()))
        assert cluster.host.nic.rx_bytes >= size
        assert cluster.host.nic.tx_bytes < 1024

    def test_failed_drive_returns_error(self):
        env, cluster, bdevs, _targets = make_stack()
        cluster.servers[0].drive.fail()

        def proc():
            try:
                yield bdevs[0].read(0, 4096)
            except IoError:
                return "io-error"

        assert env.run(until=env.process(proc())) == "io-error"

    def test_concurrent_ios_to_different_servers(self):
        env, cluster, bdevs, _targets = make_stack(num_servers=4)
        done = []

        def proc(i):
            yield bdevs[i].read(0, 512 * 1024)
            done.append(env.now)

        for i in range(4):
            env.process(proc(i))
        env.run()
        # All four reads proceed in parallel on different servers; host RX
        # serializes the 4 responses but drive work overlaps.
        assert len(done) == 4
        assert max(done) < 4 * min(done)

    def test_stall_injection_delays_service(self):
        env, cluster, bdevs, _targets = make_stack()
        # the mechanism the fault layer's LinkStall uses
        cluster.host_connection(1).stall(5_000_000)

        def proc():
            yield bdevs[1].read(0, 4096)
            return env.now

        assert env.run(until=env.process(proc())) > 5_000_000

    def test_outstanding_tracking(self):
        env, cluster, bdevs, _targets = make_stack()

        def proc():
            ev = bdevs[0].read(0, 4096)
            assert bdevs[0].outstanding == 1
            yield ev
            assert bdevs[0].outstanding == 0

        env.run(until=env.process(proc()))


# -- the plain-command chain against the handler processes it replaced ---------
#
# ``serve_plain`` serves READ/WRITE as one callback chain for both
# ``NvmeOfTarget`` and ``DraidBdevServer``.  The generator handlers it
# replaced are kept here as the oracle: on any script of commands, drive
# faults and crashes both must send the same completions at the same
# nanoseconds and leave the same counters and spans behind.


class _HandlerProcessTarget(NvmeOfTarget):
    """``NvmeOfTarget`` serving each command in a handler process (oracle)."""

    def _serve(self, command):
        if self.env.now < self.down_until:
            return
        if self.queue_depth is None:
            self.env.process(self._handle(command))
            return
        if self.inflight >= self.queue_depth:
            self.busy_rejections += 1
            self._reject(command, "submission queue full", "busy")
            return
        self.inflight += 1
        self.env.process(self._handle_bounded(command))

    def _handle_bounded(self, command):
        try:
            yield from self._handle(command)
        finally:
            self.inflight -= 1

    def _handle(self, command):
        if command.deadline_ns is not None and self.env.now >= command.deadline_ns:
            self.deadline_rejections += 1
            self._reject(command, "deadline exceeded at target", "deadline")
            return
        cpu = self.server.cpu
        profile = self.server.cpu_profile
        tracer = cpu.tracer
        ctx = command.trace
        track = f"{self.server.name}.cpu"
        t0 = self.env.now
        yield cpu.execute(profile.cmd_handle_ns)
        if ctx is not None:
            tracer.record(ctx, "nvmf.parse", "compute", track, t0, self.env.now)

        try:
            if command.opcode is Opcode.READ:
                data = yield self.server.drive.read(
                    command.offset, command.length, ctx=ctx
                )
                t0 = self.env.now
                yield cpu.execute(profile.completion_ns)
                if ctx is not None:
                    tracer.record(ctx, "nvmf.complete", "compute", track, t0, self.env.now)
                self.host_end.send(
                    NvmeOfCompletion(command.cid, ok=True, data=data, trace=ctx),
                    payload_bytes=command.length,
                    header_bytes=RESPONSE_BYTES,
                )
            else:
                yield self.host_end.rdma_read(command.length, ctx=ctx)
                yield self.server.drive.write(
                    command.offset, command.length, command.data, ctx=ctx
                )
                t0 = self.env.now
                yield cpu.execute(profile.completion_ns)
                if ctx is not None:
                    tracer.record(ctx, "nvmf.complete", "compute", track, t0, self.env.now)
                self.host_end.send(
                    NvmeOfCompletion(command.cid, ok=True, trace=ctx),
                    payload_bytes=0,
                    header_bytes=RESPONSE_BYTES,
                )
        except (DriveFailedError, ValueError) as exc:
            self.host_end.send(
                NvmeOfCompletion(command.cid, ok=False, error=str(exc), trace=ctx),
                payload_bytes=0,
                header_bytes=RESPONSE_BYTES,
            )
        self.commands_served += 1


class _HandlerProcessBdev(DraidBdevServer):
    """``DraidBdevServer`` serving plain commands in a handler process (oracle)."""

    def _serve(self, end, message):
        if not isinstance(message, NvmeOfCommand) or self.env.now < self.down_until:
            return super()._serve(end, message)
        self.commands_served += 1
        kind = "read" if message.opcode is Opcode.READ else "write"
        bounded = end is self.host_end
        if bounded and self._fast_reject(message, end, kind):
            return
        slot = bounded and self.queue_depth is not None
        if slot:
            self.inflight += 1
        self.env.process(self._handle_bounded(message, end, slot))

    def _handle_bounded(self, cmd, origin, slot):
        try:
            yield from self._handle_plain(cmd, origin)
        finally:
            if slot:
                self.inflight -= 1

    def _span(self, work_event, ctx, name):
        """Yield a CPU charge, recording a compute span (ns) when traced."""
        if ctx is None:
            yield work_event
            return
        t0 = self.env.now
        yield work_event
        self.server.cpu.tracer.record(
            ctx, name, "compute", f"{self.server.name}.cpu", t0, self.env.now
        )

    def _handle_plain(self, cmd, origin):
        cpu = self.server.cpu
        profile = self.server.cpu_profile
        ctx = cmd.trace
        read = cmd.opcode is Opcode.READ
        yield from self._span(cpu.execute(profile.cmd_handle_ns), ctx, "draid.parse")
        try:
            if read:
                data = yield self.server.drive.read(cmd.offset, cmd.length, ctx=ctx)
            else:
                yield origin.rdma_read(cmd.length, ctx=ctx)
                yield self.server.drive.write(cmd.offset, cmd.length, cmd.data, ctx=ctx)
            yield from self._span(
                cpu.execute(profile.completion_ns), ctx, "draid.complete"
            )
            if read:
                self._complete(origin, cmd.cid, "read", data=data,
                               payload=cmd.length, ctx=ctx)
            else:
                self._complete(origin, cmd.cid, "write", ctx=ctx)
        except (DriveFailedError, ValueError) as exc:
            self._complete(origin, cmd.cid, "read" if read else "write",
                           ok=False, error=str(exc), ctx=ctx)


CAPACITY = 1 << 16
SERVERS = {
    "target": (NvmeOfTarget, _HandlerProcessTarget),
    "bdev": (DraidBdevServer, _HandlerProcessBdev),
}


def serve_script(kind, oracle, script, queue_depth=None, traced=False):
    """Run ``script`` — ``(at_ns, action, *args)`` rows — against server 0 and
    return everything an observer could tell the two servers apart by."""
    env = Environment()
    cluster = build_cluster(env, ClusterConfig(num_servers=2, functional_capacity=CAPACITY))
    cls = SERVERS[kind][oracle]
    if kind == "target":
        server = cls(cluster.servers[0], cluster.server_end(0), queue_depth=queue_depth)
    else:
        server = cls(cluster, 0, queue_depth=queue_depth)
    tracer = Tracer() if traced else None
    cluster.servers[0].cpu.tracer = tracer
    drive = cluster.servers[0].drive
    completions = []

    def receive(c):
        completions.append((
            env.now, c.cid, c.ok, c.status, c.error, getattr(c, "kind", None),
            None if c.data is None else bytes(c.data), c.trace is not None,
        ))

    cluster.host_end(0).inbox.consume(receive)

    def driver():
        for cid, (at, action, *args) in enumerate(script):
            yield env.timeout(at - env.now)
            if action in ("read", "write"):
                offset, length, deadline = args
                data = bytes([cid % 251]) * length if action == "write" else None
                command = NvmeOfCommand(
                    cid, Opcode(action), offset, length, data=data, deadline_ns=deadline,
                    trace=tracer.new_request() if traced else None,
                )
                cluster.host_end(0).send(command)
            elif action == "fail":
                drive.fail()
            elif action == "repair":
                drive.repair()
            elif action == "burst":
                drive.inject_error_burst(*args)
            else:
                server.crash(*args)

    env.process(driver())
    env.run()
    counters = {
        name: getattr(server, name)
        for name in ("commands_served", "inflight", "busy_rejections",
                     "deadline_rejections", "crashes", "down_until")
    }
    counters.update(
        now=env.now, cpu=cluster.servers[0].cpu.busy_ns,
        reads=drive.stats.read_ops, writes=drive.stats.write_ops,
        host_tx=cluster.host.nic.tx_bytes, host_rx=cluster.host.nic.rx_bytes,
        media=bytes(drive.peek(0, CAPACITY)),
    )
    spans = None if tracer is None else [
        (s.trace_id, s.parent_id, s.name, s.cat, s.track, s.start_ns, s.end_ns)
        for s in tracer.spans
    ]
    return completions, counters, spans, env._eid


def chain_matches_handler_processes(kind, script, **kwargs):
    chain = serve_script(kind, False, script, **kwargs)
    oracle = serve_script(kind, True, script, **kwargs)
    assert chain[:3] == oracle[:3]
    assert chain[3] <= oracle[3]  # the chain has no process end to schedule
    return chain


@pytest.mark.parametrize("kind", ["target", "bdev"])
class TestPlainCommandChain:
    def test_read_and_write(self, kind):
        completions, counters, _, _ = chain_matches_handler_processes(kind, [
            (0, "write", 4096, 512, None),
            (200_000, "read", 4096, 512, None),
        ])
        assert [c[2] for c in completions] == [True, True]
        assert completions[1][6] == bytes([0]) * 512
        assert counters["commands_served"] == 2

    def test_failed_drive_and_transient_error_answer_with_error_completions(self, kind):
        completions, _, _, _ = chain_matches_handler_processes(kind, [
            (0, "burst", 50_000),
            (10_000, "read", 0, 4096, None),
            (10_000, "write", 0, 4096, None),
            (100_000, "fail"),
            (110_000, "read", 0, 4096, None),
            (110_000, "write", 0, 4096, None),
            (200_000, "repair"),
            (210_000, "read", 0, 4096, None),
            (300_000, "read", CAPACITY, 4096, None),  # past the end: ValueError
        ])
        assert [c[2] for c in completions] == [False, False, False, False, True, False]
        assert "transient" in completions[0][4] and "failed" in completions[2][4]

    def test_deadline_expired_and_queue_full(self, kind):
        script = [(0, "read", 0, 4096, 1)]  # expired on arrival
        script += [(100_000, "read", 4096 * i, 4096, None) for i in range(4)]
        script += [(400_000, "write", 0, 4096, 10_000_000)]
        completions, counters, _, _ = chain_matches_handler_processes(
            kind, script, queue_depth=2
        )
        assert [c[3] for c in completions].count("busy") == 2
        assert counters["deadline_rejections"] == 1 and counters["inflight"] == 0

    def test_crash_mid_command(self, kind):
        completions, counters, _, _ = chain_matches_handler_processes(kind, [
            (0, "write", 0, 4096, None),
            (8_000, "crash", 100_000),   # the write is in service: it completes
            (20_000, "read", 0, 4096, None),  # arrives while down: lost
            (300_000, "read", 0, 4096, None),
        ], queue_depth=4)
        assert [c[1] for c in completions] == [0, 3]
        assert counters["crashes"] == 1 and counters["inflight"] == 0

    def test_traced_run_records_the_same_spans(self, kind):
        _, _, spans, _ = chain_matches_handler_processes(kind, [
            (0, "write", 0, 4096, None),
            (0, "read", 8192, 4096, None),
            (150_000, "fail"),
            (160_000, "read", 0, 4096, None),
        ], traced=True)
        prefix = "nvmf" if kind == "target" else "draid"
        names = [s[2] for s in spans if s[3] == "compute"]
        assert names.count(f"{prefix}.parse") == 3
        assert names.count(f"{prefix}.complete") == 2

    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from((0, 0, 7_000, 9_000, 30_000, 120_000)),
                st.sampled_from(("read", "read", "write", "fail", "repair", "burst", "crash")),
                st.sampled_from((0, 4096)),
                st.sampled_from((512, 4096)),
                st.sampled_from((None, None, 50_000, 10_000_000)),
            ),
            max_size=10,
        ),
        queue_depth=st.sampled_from((None, 1, 3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_scripts(self, kind, script, queue_depth):
        at = 0
        rows = []
        for gap, action, offset, length, deadline in script:
            at += gap
            if action in ("read", "write"):
                rows.append((at, action, offset, length, deadline))
            elif action in ("burst", "crash"):
                rows.append((at, action, 25_000))
            else:
                rows.append((at, action))
        chain_matches_handler_processes(kind, rows, queue_depth=queue_depth, traced=True)


# -- the contract both server sides share ----------------------------------------


def _contract_stack(kind, queue_depth=None):
    env = Environment()
    cluster = build_cluster(env, ClusterConfig(num_servers=2, functional_capacity=CAPACITY))
    if kind == "target":
        server = NvmeOfTarget(cluster.servers[0], cluster.server_end(0), queue_depth=queue_depth)
    else:
        server = DraidBdevServer(cluster, 0, queue_depth=queue_depth)
    completions = []
    cluster.host_end(0).inbox.consume(completions.append)
    return env, cluster, server, completions


@pytest.mark.parametrize("kind", ["target", "bdev"])
def test_server_sides_share_the_intake_and_crash_contract(kind):
    with pytest.raises(ValueError):
        _contract_stack(kind, queue_depth=0)
    env, cluster, server, completions = _contract_stack(kind)
    with pytest.raises(ValueError):
        server.crash(0)
    assert server.crashes == 0
    # two capsules reach the host end at one instant: the first rides the
    # consumer's wake, the second waits in the inbox; a crash drops both
    inbox = server.host_end.inbox
    inbox.put(NvmeOfCommand(1, Opcode.READ, 0, 4096))
    inbox.put(NvmeOfCommand(2, Opcode.READ, 4096, 4096))
    assert len(inbox) == 1
    server.crash(100_000)
    assert server.crashes == 1 and len(inbox) == 0

    def late():
        yield env.timeout(50_000)  # inside the down window: lost too
        cluster.host_end(0).send(NvmeOfCommand(3, Opcode.READ, 0, 4096))

    env.process(late())
    env.run()
    assert completions == [] and server.crashes == 1

    # a bounded server fast-rejects the command past its depth, typed
    env, cluster, server, completions = _contract_stack(kind, queue_depth=1)
    for cid in (4, 5):
        cluster.host_end(0).send(NvmeOfCommand(cid, Opcode.READ, 4096 * cid, 4096))
    env.run()
    assert sorted((c.cid, c.ok, c.status) for c in completions) == [
        (4, True, None), (5, False, "busy"),
    ]
    assert server.busy_rejections == 1 and server.inflight == 0
