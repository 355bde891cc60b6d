"""Spawning, killing and measuring ``repro serve`` processes.

The benchmark drives the server as an operator would: through
``python -m repro serve`` and its readiness line on stdout. CPU time
and peak memory come from ``/proc``, so nothing inside the program has
to cooperate.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

#: The readiness line; with ``--shards`` it is the router's, printed
#: after one ``shard N ROLE listening on H:P pid=M`` line per child.
_LISTENING = re.compile(rb"(?m)^listening on ([\d.]+):(\d+)\n")
_SHARD_PID = re.compile(rb"(?m)^shard \d+ \w+ listening on [\d.]+:\d+ pid=(\d+)\n")
_TICK = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT = 60.0

#: Servers started and not yet reaped, so an aborted run can stop them.
_LIVE: set["Server"] = set()


class ServerError(RuntimeError):
    """The server did not come up as expected."""


class Server:
    """One ``repro serve`` at its CLI defaults, and its address.

    With ``shards`` the address is the router's, and ``shard_pids``
    holds the shard processes the supervisor started.
    """

    def __init__(self, src: Path, data_dir: Path, log: Path, shards: int = 0) -> None:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        argv += ["--data-dir", str(data_dir), "--exit-on-stdin-close"]
        if shards:
            argv += ["--shards", str(shards)]
        self.shard_pids: list[int] = []
        self._log = log.open("ab")
        self.process = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=dict(os.environ, PYTHONPATH=str(src)),
            bufsize=0,
        )
        _LIVE.add(self)
        try:
            self.address = self._await_ready(time.monotonic() + READY_TIMEOUT)
        except BaseException:
            self.kill()
            raise

    def _await_ready(self, deadline: float) -> tuple[str, int]:
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while (match := _LISTENING.search(buffer)) is None:
                left = deadline - time.monotonic()
                if left <= 0 or not selector.select(left):
                    raise ServerError("server did not report readiness in time")
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    raise ServerError("server exited before it was ready")
                buffer += chunk
        self.shard_pids = [int(pid) for pid in _SHARD_PID.findall(buffer)]
        return match.group(1).decode(), int(match.group(2))

    def cpu_seconds(self) -> float:
        """user+sys CPU time of the server so far."""
        fields = _stat_fields(self.process.pid)
        return (int(fields[11]) + int(fields[12])) / _TICK

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory (VmHWM), in MiB."""
        return vm_hwm_mb(str(self.process.pid))

    def kill(self) -> None:
        """SIGKILL the server (shards first) and reap it."""
        for pid in [pid for pid in self.shard_pids if _running(pid)] + [self.process.pid]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._reap()

    def stop(self) -> None:
        """Graceful shutdown: close stdin, as a supervisor going away does."""
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def _reap(self) -> None:
        _LIVE.discard(self)
        self.process.wait(timeout=30)
        for stream in (self.process.stdin, self.process.stdout, self._log):
            stream.close()
        # The shards are the supervisor's children, reaped by whoever
        # inherits them; wait until none is running any more.
        deadline = time.monotonic() + 30
        while any(_running(pid) for pid in self.shard_pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        self.shard_pids = []


def kill_all() -> None:
    """SIGKILL and reap every server this process started and still runs."""
    for server in list(_LIVE):
        server.kill()


def _running(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] != "Z"
    except (OSError, IndexError):
        return False


def _stat_fields(pid: int) -> list[str]:
    text = Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2 :].split()


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident memory (VmHWM) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ServerError(f"no VmHWM for process {pid}")


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())
