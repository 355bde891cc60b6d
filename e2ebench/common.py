"""Helpers shared by the workloads: the failure tally, percentiles, sockets."""

from __future__ import annotations

import json
import socket
import time

from repro.serve import protocol


class Tally:
    """Operations attempted and failed over a run, with the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def connect(address: tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(address, timeout=60)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def request(sock: socket.socket, frame: bytes) -> dict:
    """Send one pre-encoded frame and return the decoded response."""
    sock.sendall(frame)
    return protocol.recv_frame(sock)


_PROBE_DOCUMENT = {"rounds": list(range(40)), "states": {f"n{i:03d}": "site07" for i in range(20)}}

#: The probe speed every reported timing is expressed at, in JSON round
#: trips per second. Any fixed value would do: it only sets the scale,
#: and it is close to the median this host's probe showed.
REFERENCE_SPEED = 45000.0
#: How long one probe of the host's speed runs.
PROBE_SECONDS = 0.25


def host_speed() -> float:
    """JSON round trips per second of a fixed document, in this process.

    The probe runs right before and after every sample phase; the
    phase's timings are then expressed at :data:`REFERENCE_SPEED` (see
    :func:`scale`), which takes the host's drift out of them.
    """
    started = time.perf_counter()
    count = 0
    while time.perf_counter() - started < PROBE_SECONDS:
        for _ in range(20):
            json.loads(json.dumps(_PROBE_DOCUMENT))
        count += 20
    return count / (time.perf_counter() - started)


def scale(*speeds: float) -> float:
    """How much faster than the reference the host ran, from its probes.

    A duration measured at this scale is ``duration * scale`` at the
    reference speed; a rate is ``rate / scale``.
    """
    return sum(speeds) / len(speeds) / REFERENCE_SPEED
