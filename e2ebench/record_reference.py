"""Record reference.json: what each offline study variant must produce.

Run from the repository root after a change that is meant to alter
the generated studies or the pipeline's results:

    python3 e2ebench/record_reference.py

For each of the ``VARIANTS`` study seeds it stores the sha256 of the
generated series file and of the modes and events Fenrir finds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from offline import REFERENCE, STUDIES, VARIANTS, digests, generate, series_bytes, sha256  # noqa: E402
from repro.core.pipeline import Fenrir  # noqa: E402


def main() -> None:
    document: dict = {}
    for workload, studies in STUDIES.items():
        document[workload] = {}
        for variant in range(VARIANTS):
            entry = {}
            for study in studies:
                series = generate(study, variant)
                entry[study] = {
                    "series": sha256(series_bytes(series)),
                    **digests(Fenrir().run(series)),
                }
            document[workload][str(variant)] = entry
            print(workload, variant, file=sys.stderr)
    REFERENCE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
