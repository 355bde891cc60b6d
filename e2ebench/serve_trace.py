"""The traced run of the serve workload: per-layer metrics.

Two generated frame sets go through the server's layers: the churn set
of ingest-churn (batch-32 ``ingest_batch``, no round repeats, dedup
off) and a *recurring* set (16 monitors × 50 networks, single-round
``ingest``, about 98% of rounds repeat their predecessor, dedup on),
where the dedup references and the recurring-round shortcut fire.
Four parts, none of which edits the program:

1. *In-process replay.* Each set's exact frames go through the
   server's own steps, called directly on a temporary directory:
   ``decode_payload`` → request parsing → ``DurableMonitor.ingest_batch``
   or ``ingest`` → ``encode_frame`` of the response. An untraced and
   a traced pass run side by side, frame by frame; the traced pass
   wraps the calls the monitor makes into the journal and the tracker
   at their call sites.
   After the recurring set, ``OnlineFenrir.match`` answers its queries.
2. *Recovery.* Reopen the churn monitors the last traced pass left on
   disk, with the snapshot, journal and replay calls wrapped.
3. *Live.* A real ``repro serve`` answers the churn frames one at a
   time, each right after the same frame went through an in-process
   replay: the client-side ack time minus the in-process time is the
   wire (frame I/O, queue hand-off, scheduling). Timing the two side
   by side keeps the host's drift out of the difference.
4. *Routed.* ``repro serve --shards 2`` answers the recurring frames
   the same way, round by round alternately through the router and
   straight to the owning shard (address from ``topology``): the
   difference is the router hop.
"""

from __future__ import annotations

import shutil
import socket
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import gen
from common import Tally, connect, request
import repro.serve.monitor as monitor_module
from repro.core.online import OnlineFenrir
from repro.core.vector import RoutingVector
from repro.serve import protocol
from repro.serve.journal import JournalWriter
from repro.serve.monitor import DurableMonitor
from repro.serve.ring import HashRing
from repro.serve.server import _parse_rounds, _parse_time, _update_document
from procs import Server
from serve_bench import SNAPSHOT_EVERY, setup_server
from spans import Tracer, no_span

RECOVERY_REPEATS = 3
#: Repetitions of the recurring set's queries.
QUERY_REPEATS = 5
#: Shards of the routed live pass.
SHARDS = 2


def interleaved(workload: gen.Workload) -> list[tuple[str, int, bytes]]:
    """(monitor, request id, frame) in the order the closed loops send them."""
    return [
        (monitor, *frames[index])
        for index in range(len(workload.frames[0]))
        for monitor, frames in zip(workload.monitors, workload.frames)
    ]


class Replay:
    """One in-process pass over every frame, on a fresh directory."""

    def __init__(self, workload: gen.Workload, directory: Path) -> None:
        self.monitors = {
            name: DurableMonitor.create(
                directory,
                name,
                workload.networks,
                snapshot_every=SNAPSHOT_EVERY,
                dedup=workload.dedup,
            )
            for name in workload.monitors
        }
        self.response_bytes = 0
        self.client_s = 0.0

    def run(self, order: list[tuple[str, int, bytes]], span: Callable) -> float:
        """Seconds spent in the server's steps (the client's excluded)."""
        elapsed = 0.0
        for _, request_id, frame in order:
            started = time.perf_counter()
            with span("replay"):
                with span("protocol.decode"):
                    request = protocol.decode_payload(frame[4:])
                if request["cmd"] == "ingest_batch":
                    with span("server.dispatch"):
                        rounds, _ = _parse_rounds(request["rounds"])
                        monitor = self.monitors[request["monitor"]]
                    with span("monitor.ingest"):
                        updates = monitor.ingest_batch(rounds).updates
                    with span("protocol.encode"):
                        response = {
                            "id": request_id,
                            "ok": True,
                            "seq": monitor.seq,
                            "accepted": len(updates),
                            "results": [_update_document(u) for u in updates],
                            "failed": None,
                        }
                        reply = protocol.encode_frame(response)
                else:
                    with span("server.dispatch"):
                        when = _parse_time(request["time"])
                        states = request["states"]
                        if not all(
                            isinstance(k, str) and isinstance(v, str) for k, v in states.items()
                        ):
                            raise ValueError(f"malformed states in request {request_id}")
                        monitor = self.monitors[request["monitor"]]
                    with span("monitor.ingest"):
                        update = monitor.ingest(states, when)
                    with span("protocol.encode"):
                        response = {
                            "id": request_id,
                            "ok": True,
                            "seq": monitor.seq,
                            "update": _update_document(update),
                        }
                        reply = protocol.encode_frame(response)
            client_started = time.perf_counter()
            elapsed += client_started - started
            self.response_bytes += len(reply)
            protocol.encode_frame(request)
            protocol.decode_payload(reply[4:])
            self.client_s += time.perf_counter() - client_started
        return elapsed

    def close(self) -> None:
        for monitor in self.monitors.values():
            monitor.close()


@contextmanager
def ingest_layers(tracer: Tracer, counts: dict) -> Iterator[None]:
    """Wrap the monitor's calls into the journal and the tracker."""
    trusted = vars(RoutingVector)["_trusted"].__func__

    def counted_trusted(cls, *args, **kwargs):
        counts["shortcut"] += 1
        return trusted(cls, *args, **kwargs)

    tracer.wrap(monitor_module, "_canonical", "journal.encode")
    tracer.wrap(monitor_module, "record_line", "journal.encode")
    tracer.wrap(monitor_module, "ref_record_line", "journal.encode")
    tracer.wrap(JournalWriter, "append_lines", "journal.write")
    tracer.wrap(DurableMonitor, "checkpoint", "monitor.checkpoint")
    tracer.wrap(OnlineFenrir, "ingest_many", "online.apply")
    tracer.wrap(OnlineFenrir, "ingest", "online.apply")
    tracer.wrap(OnlineFenrir, "_match_mode", "online.match")
    tracer.patch(RoutingVector, "_trusted", classmethod(counted_trusted))
    try:
        yield
    finally:
        tracer.unwrap()


@contextmanager
def recovery_layers(tracer: Tracer) -> Iterator[None]:
    tracer.wrap(DurableMonitor, "open", "monitor.open")
    tracer.wrap(monitor_module, "read_snapshot", "journal.checkpoint_read")
    tracer.wrap(monitor_module, "read_journal", "journal.read")
    tracer.wrap(OnlineFenrir, "from_state", "online.restore")
    tracer.wrap(OnlineFenrir, "ingest_many", "online.replay")
    try:
        yield
    finally:
        tracer.unwrap()


@dataclass
class ReplaySet:
    """What alternating untraced and traced passes over one set measured."""

    workload: gen.Workload
    tracer: Tracer = field(default_factory=Tracer)
    counts: dict = field(default_factory=lambda: {"shortcut": 0})
    plain: list[float] = field(default_factory=list)  # seconds per untraced pass
    traced: int = 0
    response_bytes: int = 0
    client_s: float = 0.0
    deduped: int = 0
    modes: list[int] = field(default_factory=list)
    last: Replay | None = None  # the last traced pass, left on disk

    @property
    def rounds(self) -> int:
        return sum(len(rounds) for rounds in self.workload.rounds)


def replay_set(workload: gen.Workload, seconds: float, work: Path, tally: Tally) -> ReplaySet:
    """At least two traced passes, and more until ``seconds`` have passed.

    The last traced pass stays on disk under ``work / "fixture"``.
    """
    result = ReplaySet(workload)
    order = interleaved(workload)
    expected = gen.expected_timelines(workload)
    directory, fixture = work / "plain", work / "fixture"
    # One untimed pass first: the first pass in a process also pays for
    # growing the heap, which would bias whichever side ran first.
    warm = Replay(workload, directory)
    warm.run(order, no_span)
    warm.close()
    shutil.rmtree(directory)

    deadline = time.perf_counter() + seconds
    while result.traced < 2 or time.perf_counter() < deadline:
        # A traced and an untraced pass side by side, frame by frame,
        # each frame first on one side and then the other: the host's
        # drift lands on both alike.
        if fixture.exists():
            shutil.rmtree(fixture)
        plain, replay = Replay(workload, directory), Replay(workload, fixture)
        plain_s = 0.0
        for index, item in enumerate(order):
            if index % 2:
                plain_s += plain.run([item], no_span)
            with ingest_layers(result.tracer, result.counts):
                replay.run([item], result.tracer.span)
            if not index % 2:
                plain_s += plain.run([item], no_span)
        plain.close()
        shutil.rmtree(directory)
        replay.close()
        result.plain.append(plain_s)
        result.traced += 1
        result.response_bytes += replay.response_bytes
        result.client_s += replay.client_s
        result.last = replay
        for name, monitor in replay.monitors.items():
            result.deduped += monitor.deduped_records
            result.modes.append(monitor.tracker.num_modes)
            segments = gen.timeline(monitor.tracker)
            tally.check(segments == expected[name], f"replayed timeline of {name}")
    return result


def replay_metrics(result: ReplaySet, suffix: str = "") -> dict:
    """Per-round layer self times of a replay set, and their residual."""
    tracer = result.tracer
    traced_rounds = result.rounds * result.traced
    per_round = 1e6 / traced_rounds

    def self_us(name: str) -> float:
        return tracer.self_time.get(name, 0.0) * per_round

    order = interleaved(result.workload)
    metrics = {
        "protocol.decode_us_per_round": self_us("protocol.decode"),
        "server.dispatch_us_per_round": self_us("server.dispatch"),
        "monitor.ingest_us_per_round": tracer.total_time.get("monitor.ingest", 0.0) * per_round,
        "monitor.self_us_per_round": self_us("monitor.ingest"),
        "journal.encode_us_per_round": self_us("journal.encode"),
        "journal.write_us_per_round": self_us("journal.write"),
        "online.apply_us_per_round": self_us("online.apply"),
        "online.match_us_per_round": self_us("online.match"),
        "protocol.encode_us_per_round": self_us("protocol.encode"),
        "unattributed_us_per_round": self_us("replay"),
        "trace.replay_us_per_round": tracer.root_time * per_round,
        "trace.overhead_us_per_round": (
            tracer.root_time * per_round - statistics.fmean(result.plain) * 1e6 / result.rounds
        ),
        "protocol.request_bytes_per_round": sum(len(f) for _, _, f in order) / result.rounds,
        "protocol.response_bytes_per_round": result.response_bytes / traced_rounds,
        "client.us_per_round": result.client_s * per_round,
    }
    return {
        name + suffix: (value, "bytes" if name.endswith("bytes_per_round") else "us")
        for name, value in metrics.items()
    }


def match_queries(result: ReplaySet, tally: Tally) -> float:
    """Microseconds per ``OnlineFenrir.match`` of the set's queries.

    The queries run against the monitors of the last traced pass; each
    answer must equal that of an in-process OnlineFenrir fed the same
    rounds.
    """
    trackers = {name: monitor.tracker for name, monitor in result.last.monitors.items()}
    queries = [(trackers[name], states) for name, states in result.workload.queries]
    reference = gen.trackers(result.workload)
    for name, states in result.workload.queries:
        tally.check(
            trackers[name].match(states) == reference[name].match(states), f"match on {name}"
        )
    started = time.perf_counter()
    for _ in range(QUERY_REPEATS):
        for tracker, states in queries:
            tracker.match(states)
    return (time.perf_counter() - started) * 1e6 / (QUERY_REPEATS * len(queries))


class SideBySide:
    """Each frame's in-process time, taken right before it goes live."""

    def __init__(self, workload: gen.Workload, directory: Path) -> None:
        self.directory = directory
        self.replay = Replay(workload, directory)
        self.seconds: list[float] = []

    def __call__(self, item: tuple[str, int, bytes]) -> None:
        self.seconds.append(self.replay.run([item], no_span))

    def close(self) -> None:
        self.replay.close()
        shutil.rmtree(self.directory)


def live_ack_s(
    workload: gen.Workload, src: Path, work: Path, tally: Tally
) -> tuple[list[float], list[float]]:
    """Ack times of every frame sent one at a time to a real server,
    and the in-process times of the same frames."""
    server = setup_server(src, work / "live", work / "server.log", workload, tally)
    in_process = SideBySide(workload, work / "inline")
    acks = []
    try:
        with connect(server.address) as sock:
            for item in interleaved(workload):
                in_process(item)
                started = time.perf_counter()
                response = request(sock, item[2])
                acks.append(time.perf_counter() - started)
                tally.check(response.get("ok") is True, f"live ingest on {item[0]}")
    finally:
        server.kill()
        in_process.close()
    shutil.rmtree(work / "live")
    return acks, in_process.seconds


def routed_ack_s(
    workload: gen.Workload, src: Path, work: Path, tally: Tally
) -> tuple[list[float], list[float], list[float]]:
    """Ack times through the router and straight to the owning shard,
    and the in-process times of the same frames.

    Every frame goes one at a time; a monitor's rounds alternate
    between the two paths, so both carry the same requests.
    """
    expected = gen.expected_timelines(workload)
    server = Server(src, work / "routed", work / "server.log", shards=SHARDS)
    in_process = SideBySide(workload, work / "inline")
    direct: dict[int, socket.socket] = {}
    via_router: list[float] = []
    via_shard: list[float] = []
    try:
        with connect(server.address) as router:
            for name, frame in zip(workload.monitors, workload.create_frames):
                tally.check(request(router, frame).get("ok") is True, f"create {name}")
            topology = request(router, protocol.encode_frame({"cmd": "topology", "id": 1}))
            shards = {int(shard): tuple(address) for shard, address in topology["shards"].items()}
            ring = HashRing(shards, vnodes=topology["vnodes"])
            tally.check(ring.digest() == topology["ring_digest"], "ring digest from topology")
            direct = {shard: connect(address) for shard, address in shards.items()}
            sent = dict.fromkeys(workload.monitors, 0)
            for item in interleaved(workload):
                monitor = item[0]
                sent[monitor] += 1
                straight = sent[monitor] % 2 == 0
                sock = direct[ring.owner(monitor)] if straight else router
                in_process(item)
                started = time.perf_counter()
                response = request(sock, item[2])
                (via_shard if straight else via_router).append(time.perf_counter() - started)
                tally.check(
                    response.get("ok") is True and response.get("seq") == sent[monitor],
                    f"routed ingest on {monitor}",
                )
            for name in workload.monitors:
                frame = protocol.encode_frame({"cmd": "timeline", "id": 1, "monitor": name})
                response = request(router, frame)
                tally.check(
                    response.get("segments") == expected[name], f"routed timeline of {name}"
                )
    finally:
        for sock in direct.values():
            sock.close()
        server.stop()
        in_process.close()
    shutil.rmtree(work / "routed")
    return via_router, via_shard, in_process.seconds


def run_traced(
    kind: str, seed: int, seconds: float, src: Path, work: Path
) -> tuple[dict, dict, Tally]:
    tally = Tally()
    churn = replay_set(gen.churn(seed), seconds / 2, work, tally)
    workload = churn.workload
    per_monitor = len(workload.rounds[0])
    metrics = replay_metrics(churn)
    traced_rounds = churn.rounds * churn.traced
    metrics["monitor.checkpoint_ms_per_kround"] = (
        churn.tracer.self_time.get("monitor.checkpoint", 0.0) * 1e6 / traced_rounds, "ms"
    )
    metrics["online.modes"] = (statistics.fmean(churn.modes), "count")

    fixture = work / "fixture"
    recovery = Tracer()
    for _ in range(RECOVERY_REPEATS):
        with recovery_layers(recovery):
            for name in workload.monitors:
                monitor = DurableMonitor.open(fixture, name, snapshot_every=SNAPSHOT_EVERY)
                tally.check(monitor.seq == per_monitor, f"reopened seq of {name}")
                monitor.close()
    shutil.rmtree(fixture)
    for metric, span, table in (
        ("monitor.open_s", "monitor.open", recovery.total_time),
        ("monitor.open_self_s", "monitor.open", recovery.self_time),
        ("journal.read_s", "journal.read", recovery.self_time),
        ("journal.checkpoint_read_s", "journal.checkpoint_read", recovery.self_time),
        ("online.restore_s", "online.restore", recovery.self_time),
        ("online.replay_s", "online.replay", recovery.self_time),
    ):
        metrics[metric] = (table.get(span, 0.0) / RECOVERY_REPEATS, "s")
    acks, in_process = live_ack_s(workload, src, work, tally)
    metrics["server.wire_us_per_round"] = (
        (statistics.fmean(acks) - statistics.fmean(in_process)) * 1e6 / workload.frame_rounds,
        "us",
    )

    recurring = replay_set(gen.recurring(seed), seconds / 6, work, tally)
    metrics.update(replay_metrics(recurring, ".recurring"))
    recurring_rounds = recurring.rounds * recurring.traced
    metrics["journal.dedup_ratio"] = (recurring.deduped / recurring_rounds, "ratio")
    metrics["online.repeat_fraction"] = (recurring.counts["shortcut"] / recurring_rounds, "ratio")
    metrics["online.match_us_per_query"] = (match_queries(recurring, tally), "us")
    shutil.rmtree(fixture)
    via_router, via_shard, in_process = routed_ack_s(recurring.workload, src, work, tally)
    metrics["router.hop_us_per_request"] = (
        (statistics.fmean(via_router) - statistics.fmean(via_shard)) * 1e6, "us"
    )
    metrics["server.wire_us_per_round.recurring"] = (
        (statistics.fmean(via_shard) - statistics.fmean(in_process)) * 1e6, "us"
    )
    counts = {
        "traced_passes": churn.traced,
        "recurring_traced_passes": recurring.traced,
        "routed_requests": len(via_router) + len(via_shard),
    }
    return metrics, counts, tally
