"""The ingest-churn load generator: one asyncio thread, one connection.

One closed loop per monitor sends that monitor's next pre-encoded frame
only after the previous one was acknowledged, so at most one request
per monitor is in flight; the loops share one pipelined connection.
The frames are sent in a few equal segments; between two segments
nothing is in flight, and the caller's ``between`` hook runs. Within a
segment the monitors join one after another (``STAGGER``).
"""

from __future__ import annotations

import asyncio
import struct
import time
from dataclasses import dataclass, field
from typing import Callable

from gen import Workload
from repro.serve.protocol import decode_payload

_LENGTH = struct.Struct(">I")
#: A load that takes this long has hung; the run fails instead.
LOAD_TIMEOUT = 120.0
#: Monitor m joins a segment after m * STAGGER acks of it. Started in
#: lockstep, all monitors would reach the checkpoint cadence in the same
#: round and their checkpoints would pile up into one burst per cycle;
#: staggered, each checkpoint is its own event.
STAGGER = 4


class Connection:
    """A pipelined connection: responses are paired with requests by id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: dict[int, asyncio.Future] = {}
        self.task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, address: tuple[str, int]) -> "Connection":
        reader, writer = await asyncio.open_connection(*address)
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while True:
                (length,) = _LENGTH.unpack(await self.reader.readexactly(_LENGTH.size))
                payload = await self.reader.readexactly(length)
                arrived = time.perf_counter()
                message = decode_payload(payload)
                self.pending.pop(message["id"]).set_result((arrived, message))
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            # The server went away: fail whatever still waits for it.
            for future in self.pending.values():
                future.set_exception(ConnectionError(f"server closed the connection: {exc}"))
            self.pending.clear()

    def send(self, request_id: int, frame: bytes) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        self.writer.write(frame)
        return future

    async def close(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, asyncio.IncompleteReadError, ConnectionError):
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


@dataclass
class LoadResult:
    """What one load measured; latencies in milliseconds."""

    wall_s: float = 0.0
    rounds: int = 0
    requests: int = 0
    failed: int = 0
    overloaded: int = 0
    ack_ms: list[float] = field(default_factory=list)


def _ingest_ok(message: dict, expected_seq: int, frame_rounds: int) -> bool:
    return (
        message.get("ok") is True
        and message.get("seq") == expected_seq
        and message.get("accepted") == frame_rounds
        and message.get("failed") is None
    )


async def run_load(
    address: tuple[str, int], workload: Workload, segments: int, between: Callable[[], None]
) -> list[LoadResult]:
    """Send every frame of ``workload`` once, in ``segments`` equal parts.

    ``between()`` runs before the first segment, between segments and
    after the last, while no request is in flight.
    """
    connection = await Connection.open(address)
    loop = asyncio.get_running_loop()
    frame_rounds = workload.frame_rounds
    per_monitor = len(workload.frames[0])
    bounds = [per_monitor * k // segments for k in range(segments + 1)]

    async def monitor_loop(
        frames: list[tuple[int, bytes]], first: int, result: LoadResult, gate: asyncio.Future
    ) -> None:
        await gate
        for index, (request_id, frame) in enumerate(frames, start=first):
            sent = time.perf_counter()
            arrived, message = await connection.send(request_id, frame)
            result.requests += 1
            if message.get("error") == "overloaded":
                result.overloaded += 1
            if _ingest_ok(message, (index + 1) * frame_rounds, frame_rounds):
                result.rounds += frame_rounds
                result.ack_ms.append((arrived - sent) * 1e3)
            else:
                result.failed += 1
            acks = result.requests
            if acks % STAGGER == 0 and acks // STAGGER < len(gates):
                gates[acks // STAGGER].set_result(None)

    results = []
    try:
        between()
        for start, stop in zip(bounds, bounds[1:]):
            result = LoadResult()
            gates = [loop.create_future() for _ in workload.frames]
            gates[0].set_result(None)
            started = time.perf_counter()
            loops = asyncio.gather(
                *(
                    monitor_loop(frames[start:stop], start, result, gate)
                    for frames, gate in zip(workload.frames, gates)
                )
            )
            await asyncio.wait_for(loops, LOAD_TIMEOUT)
            result.wall_s = time.perf_counter() - started
            results.append(result)
            between()
    finally:
        await connection.close()
    return results
