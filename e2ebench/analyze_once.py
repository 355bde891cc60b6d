"""One offline report in a fresh process, for the peak memory it takes.

    PYTHONPATH=src python3 e2ebench/analyze_once.py analyze-studies SEED FILE.jsonl...
    PYTHONPATH=src python3 e2ebench/analyze_once.py scenario-google SEED

Does what ``repro analyze --heatmap --events`` does on each series
file, or what ``repro demo google`` does for the seed's study, and
prints one JSON line: the process's peak resident memory (VmHWM) and
the sha256 of the rendered text. It imports only what that path needs,
so its high-water mark is the pipeline's, not the benchmark's.

The study sizes and seeds and the text rendering live here, and the
in-process workloads in ``offline.py`` use them too.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from datetime import timedelta

VARIANTS = 16

#: Study sizes. B-Root (8 states) and USC (88 states) sit on either
#: side of the Φ kernel's state-count choice; Google is the scenario
#: `repro demo google` generates.
SIZES = {
    "broot": ("repro.datasets.broot", {"num_blocks": 1500, "cadence": timedelta(days=3)}),
    "usc": ("repro.datasets.usc", {"num_blocks": 400, "cadence": timedelta(days=2)}),
    "google": ("repro.datasets.google", {"num_prefixes": 600, "cadence": timedelta(days=2)}),
}
BASE_SEEDS = {"broot": 20190901, "usc": 20240801, "google": 20240217}


def study_seed(study: str, seed: int) -> int:
    return BASE_SEEDS[study] + seed % VARIANTS


def generate(study: str, seed: int):
    """The study's series for the workload seed."""
    module, size = SIZES[study]
    return importlib.import_module(module).generate(seed=study_seed(study, seed), **size).series


def render(report, heatmap: bool, events: bool) -> str:
    """The text `repro analyze` prints, with the same flags."""
    parts = [report.summary(), "", report.mode_timeline()]
    if heatmap:
        parts += ["", report.heatmap(max_size=50)]
    if events and report.events:
        parts += ["", "events:"]
        parts += [
            f"  {e.start:%Y-%m-%d %H:%M} .. {e.end:%Y-%m-%d %H:%M} "
            f"max step change {e.max_change:.2f}"
            for e in report.events
        ]
    return "\n".join(parts)


def main(argv: list[str]) -> int:
    from repro.core.pipeline import Fenrir

    from procs import vm_hwm_mb

    workload, seed, files = argv[0], int(argv[1]), argv[2:]
    texts = []
    if workload == "analyze-studies":
        from repro.io import formats

        for path in files:
            with open(path) as stream:
                series = formats.read_series_jsonl(stream)
            texts.append(render(Fenrir().run(series), heatmap=True, events=True))
    else:
        texts.append(render(Fenrir().run(generate("google", seed)), heatmap=False, events=False))
    text = "\n".join(texts)
    print(
        json.dumps(
            {
                "peak_rss_mb": vm_hwm_mb(),
                "text_sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
