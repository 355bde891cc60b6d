"""Deterministic inputs for the serve workload and its traced run.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical request frames, so two runs (or two commits) send
the server exactly the same bytes. The server only ever sees these
generated frames; the seed itself never reaches it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from repro.core.online import OnlineFenrir
from repro.serve.protocol import encode_frame

START = datetime(2024, 1, 1)
STEP = timedelta(minutes=5)


@dataclass(frozen=True)
class ChurnShape:
    """ingest-churn: batched ingest where no two consecutive rounds match."""

    monitors: int = 8
    networks: int = 500
    sites: int = 16
    bases: int = 8  # base catchment maps the rounds are drawn around
    base_period: int = 40  # rounds spent near one base before moving on
    redraw: float = 0.02  # share of networks re-drawn in every round
    batch: int = 32  # rounds per ingest_batch frame
    # Rounds per monitor in one load: the monitors checkpoint at 1024
    # (the server's default cadence is 1000, checked after each batch)
    # and the last batch stays in the journal for recovery to replay.
    rounds: int = 1056


@dataclass(frozen=True)
class RecurringShape:
    """The traced run's second frame set: single-round ingest, dedup on.

    Each monitor holds one of ``maps`` catchment maps for 40-60 rounds,
    then switches, so about 98% of rounds repeat their predecessor
    exactly: the recurring-round shortcut and dedup references fire.
    """

    monitors: int = 16
    networks: int = 50
    sites: int = 8
    maps: int = 4
    hold: tuple = (40, 60)  # rounds one map is held, drawn per stretch
    rounds: int = 200  # per monitor; below the checkpoint cadence
    queries: int = 50  # `query` states per monitor: a map, 10% re-drawn


CHURN = ChurnShape()
RECURRING = RecurringShape()


@dataclass
class Workload:
    """Generated inputs for the serve tier.

    ``rounds[m]`` is monitor ``m``'s list of ``(states, time)``;
    ``frames[m]`` its ``(request id, pre-encoded frame)`` pairs, sent in
    order, each carrying ``frame_rounds`` rounds. ``queries`` are
    ``(monitor, states)`` pairs to match against the finished monitors;
    ``dedup`` is the monitors' dedup mode.
    """

    monitors: list[str]
    networks: list[str]
    rounds: list[list[tuple[dict, str]]]
    frames: list[list[tuple[int, bytes]]]
    frame_rounds: int
    create_frames: list[bytes]
    queries: list[tuple[str, dict]] = field(default_factory=list)
    dedup: bool = False


def _frames(
    m: int, monitor: str, rounds: list[tuple[dict, str]], batch: int
) -> list[tuple[int, bytes]]:
    """``ingest_batch`` frames of ``batch`` rounds, or single ``ingest``."""
    frames = []
    for start in range(0, len(rounds), batch):
        request_id = (m + 1) * 1_000_000 + start // batch
        if batch == 1:
            states, time = rounds[start]
            request = {"cmd": "ingest", "id": request_id, "monitor": monitor,
                       "time": time, "states": states}
        else:
            request = {
                "cmd": "ingest_batch",
                "id": request_id,
                "monitor": monitor,
                "rounds": [{"time": t, "states": s} for s, t in rounds[start : start + batch]],
            }
        frames.append((request_id, encode_frame(request)))
    return frames


def _create_frames(monitors: list[str], networks: list[str], dedup: bool) -> list[bytes]:
    frames = []
    for m, name in enumerate(monitors):
        request = {"cmd": "create", "id": m + 1, "monitor": name, "networks": networks}
        if dedup:
            request["dedup"] = True
        frames.append(encode_frame(request))
    return frames


def churn(seed: int) -> Workload:
    """Rounds that re-draw ``redraw`` of the networks around a cycling base map."""
    rng = random.Random(f"churn:{seed}")
    networks = [f"n{index:04d}" for index in range(CHURN.networks)]
    sites = [f"site{index:02d}" for index in range(CHURN.sites)]
    bases = [[rng.choice(sites) for _ in networks] for _ in range(CHURN.bases)]
    redraw = max(1, round(CHURN.redraw * CHURN.networks))
    monitors = [f"churn-{index:02d}" for index in range(CHURN.monitors)]
    all_rounds: list[list[tuple[dict, str]]] = []
    all_frames: list[list[tuple[int, bytes]]] = []
    for m, monitor in enumerate(monitors):
        rounds: list[tuple[dict, str]] = []
        previous = None
        for r in range(CHURN.rounds):
            base = bases[(r // CHURN.base_period + m) % CHURN.bases]
            while True:
                labels = list(base)
                for index in rng.sample(range(CHURN.networks), redraw):
                    labels[index] = rng.choice(sites)
                if labels != previous:
                    break
            previous = labels
            rounds.append((dict(zip(networks, labels)), (START + STEP * r).isoformat()))
        all_rounds.append(rounds)
        all_frames.append(_frames(m, monitor, rounds, CHURN.batch))
    create_frames = _create_frames(monitors, networks, dedup=False)
    return Workload(monitors, networks, all_rounds, all_frames, CHURN.batch, create_frames)


def recurring(seed: int) -> Workload:
    """Monitors that hold one of a few maps for a while, then switch."""
    rng = random.Random(f"recurring:{seed}")
    networks = [f"n{index:03d}" for index in range(RECURRING.networks)]
    sites = [f"site{index:02d}" for index in range(RECURRING.sites)]
    maps = [
        dict(zip(networks, (rng.choice(sites) for _ in networks))) for _ in range(RECURRING.maps)
    ]
    monitors = [f"recur-{index:02d}" for index in range(RECURRING.monitors)]
    all_rounds: list[list[tuple[dict, str]]] = []
    all_frames: list[list[tuple[int, bytes]]] = []
    queries: list[tuple[str, dict]] = []
    for m, monitor in enumerate(monitors):
        rounds: list[tuple[dict, str]] = []
        current = rng.randrange(RECURRING.maps)
        while len(rounds) < RECURRING.rounds:
            for _ in range(rng.randint(*RECURRING.hold)):
                rounds.append((maps[current], (START + STEP * len(rounds)).isoformat()))
            current = rng.choice([i for i in range(RECURRING.maps) if i != current])
        rounds = rounds[: RECURRING.rounds]
        all_rounds.append(rounds)
        all_frames.append(_frames(m, monitor, rounds, 1))
        for _ in range(RECURRING.queries):
            states = dict(rng.choice(maps))
            for network in rng.sample(networks, len(networks) // 10):
                states[network] = rng.choice(sites)
            queries.append((monitor, states))
    create_frames = _create_frames(monitors, networks, dedup=True)
    return Workload(monitors, networks, all_rounds, all_frames, 1, create_frames, queries, True)


def trackers(workload: Workload) -> dict[str, OnlineFenrir]:
    """Each monitor's in-process OnlineFenrir, fed the monitor's rounds."""
    result = {}
    for monitor, rounds in zip(workload.monitors, workload.rounds):
        tracker = OnlineFenrir(networks=workload.networks)
        tracker.ingest_many([(states, datetime.fromisoformat(t)) for states, t in rounds])
        result[monitor] = tracker
    return result


def timeline(tracker: OnlineFenrir) -> list[dict]:
    """A tracker's mode timeline as the ``timeline`` command answers it."""
    return [
        {"mode_id": mode_id, "start": start.isoformat(), "end": end.isoformat()}
        for mode_id, start, end in tracker.mode_timeline()
    ]


def expected_timelines(workload: Workload) -> dict[str, list[dict]]:
    """Each monitor's mode timeline from an in-process OnlineFenrir."""
    return {monitor: timeline(tracker) for monitor, tracker in trackers(workload).items()}
