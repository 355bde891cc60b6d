"""Tests of the benchmark itself: inputs, span arithmetic, names.

Run from the repository root:

    PYTHONPATH=src python -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import common  # noqa: E402
import gen  # noqa: E402
import offline  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _frames(workload: gen.Workload) -> list[bytes]:
    return workload.create_frames + [f for fs in workload.frames for _, f in fs]


def test_same_seed_gives_identical_request_frames():
    first, second, other = gen.churn(7), gen.churn(7), gen.churn(8)
    assert _frames(first) == _frames(second)
    assert _frames(first) != _frames(other)


def test_same_seed_gives_identical_recurring_frames_and_queries():
    first, second, other = gen.recurring(7), gen.recurring(7), gen.recurring(8)
    assert _frames(first) == _frames(second)
    assert first.queries == second.queries
    assert _frames(first) != _frames(other)


def test_recurring_rounds_mostly_repeat_their_predecessor():
    workload = gen.recurring(3)
    pairs = [(a[0], b[0]) for rounds in workload.rounds for a, b in zip(rounds, rounds[1:])]
    repeats = sum(a == b for a, b in pairs) / len(pairs)
    assert 0.95 < repeats < 1.0


def test_churn_rounds_never_repeat_their_predecessor():
    workload = gen.churn(3)
    for rounds in workload.rounds:
        assert all(a[0] != b[0] for a, b in zip(rounds, rounds[1:]))


def test_same_seed_gives_identical_series_files():
    first = offline.series_bytes(offline.generate("usc", 5))
    assert first == offline.series_bytes(offline.generate("usc", 5))
    assert offline.sha256(first) == offline.reference("analyze-studies", 5)["usc"]["series"]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_and_unattributed_on_a_synthetic_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock)
    # root [0, 10]: a [1, 5] holding b [2, 3] and b [3.5, 4.5]; c [6, 9].
    tracer.enter("root")
    clock.now = 1
    tracer.enter("a")
    for start, end in ((2, 3), (3.5, 4.5)):
        clock.now = start
        tracer.enter("b")
        clock.now = end
        tracer.exit()
    clock.now = 5
    tracer.exit()
    clock.now = 6
    tracer.enter("c")
    clock.now = 9
    tracer.exit()
    clock.now = 10
    tracer.exit()
    assert tracer.self_time == {"root": 3.0, "a": 2.0, "b": 2.0, "c": 3.0}
    assert tracer.total_time["a"] == 4.0
    assert tracer.calls["b"] == 2
    assert tracer.unattributed("root") == 3.0
    assert sum(tracer.self_time.values()) == tracer.root_time == 10.0


def test_recursive_spans_of_one_name_count_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("apply")
    clock.now = 1
    tracer.enter("apply")
    clock.now = 3
    tracer.exit()
    clock.now = 4
    tracer.exit()
    assert tracer.self_time["apply"] == 4.0
    assert tracer.root_time == 4.0


class Sample:
    def plain(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)

    @staticmethod
    def helper(x):
        return x * 2


def test_wrap_times_calls_and_unwrap_restores():
    tracer = Tracer()
    originals = {name: vars(Sample)[name] for name in ("plain", "build", "helper")}
    for name in originals:
        tracer.wrap(Sample, name, name)
    assert Sample().plain(1) == 2
    assert Sample.build(3) == (Sample, 3)
    assert Sample.helper(4) == 8
    assert dict(tracer.calls) == {"plain": 1, "build": 1, "helper": 1}
    tracer.unwrap()
    assert {name: vars(Sample)[name] for name in originals} == originals


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_and_units_are_well_formed():
    document = _declared()
    names = [w["name"] for w in document["workloads"]]
    metrics = document["end_to_end"] + document["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert set(names) >= set(run.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in document["end_to_end"])


def test_offline_layer_names_are_declared():
    per_layer = {m["name"] for m in _declared()["per_layer"]}
    for layers in offline.LAYERS.values():
        assert {offline.metric_name(name) for name in layers} <= per_layer


def test_serve_replay_layer_names_are_declared():
    import serve_trace

    result = serve_trace.ReplaySet(gen.recurring(1), traced=1, plain=[1.0])
    for suffix in ("", ".recurring"):
        run.check_declared(serve_trace.replay_metrics(result, suffix), trace=True)


def test_emitted_metrics_are_checked_against_the_declaration():
    run.check_declared({"setup_s": (1.0, "s"), "rounds_per_s": (2.0, "1/s")}, trace=False)
    with pytest.raises(ValueError):
        run.check_declared({"setup_s": (1.0, "ms")}, trace=False)
    with pytest.raises(ValueError):
        run.check_declared({"no_such_metric": (1.0, "s")}, trace=False)
    with pytest.raises(ValueError):
        run.check_declared({"setup_s": (1.0, "s")}, trace=True)


def test_every_declared_metric_is_printed():
    end_to_end = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    measured = {name: (1.0, unit) for name, unit in end_to_end.items()}
    assert run.complete(measured, trace=False) == measured
    with pytest.raises(ValueError):
        run.complete({"setup_s": (1.0, "s")}, trace=False)
    per_layer = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    layers = run.complete({"io.load_s": (2.0, "s")}, trace=True)
    assert list(layers) == list(per_layer)
    assert layers["io.load_s"] == (2.0, "s")
    assert layers["dns.queries"] == (0.0, "count")


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert common.percentile(values, 0.99) == 990
    assert common.percentile(values, 0.5) == 500
    assert common.percentile([5.0], 0.99) == 5.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "ingest-churn"]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == b""


def test_serve_timings_are_expressed_at_the_reference_speed():
    import serve_bench
    from load import LoadResult

    load = LoadResult(wall_s=2.0, rounds=1000, ack_ms=[10.0] * 1000)
    samples = {
        "loads": [load],
        "setup_s": [1.0],
        "recover_s": [[3.0, 5.0]],
        "cpu_s": [0.5],
        "rss_mb": [40.0],
        "journal_bytes": [2000],
        "rounds_per_cycle": 1000,
        "load_scale": [0.5],
        "recover_scale": [4.0],
    }
    raw, raw_figures, _ = serve_bench.summarize(samples, raw=True)
    adjusted, figures, _ = serve_bench.summarize(samples)
    assert raw["rounds_per_s"][0] == 500.0
    assert adjusted["rounds_per_s"][0] == 1000.0
    assert figures["ack_p99_ms"] == figures["ack_p50_ms"] == 5.0
    assert adjusted["cpu_us_per_round"][0] == 250.0
    assert adjusted["setup_s"][0] == raw["setup_s"][0] == 1.0
    assert figures["recover_s"] == 16.0
    assert figures["journal_bytes_per_round"] == raw_figures["journal_bytes_per_round"] == 2.0
    assert common.scale(common.REFERENCE_SPEED, 3 * common.REFERENCE_SPEED) == 2.0
