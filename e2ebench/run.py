"""One benchmark for the serve tier and the paper pipeline.

Run from the repository root:

    python3 e2ebench/run.py --workload ingest-churn --seed 1 --seconds 30 --trace 0

Workloads: ingest-churn, analyze-studies, scenario-google (README.md
says why each exists, and why ingest-routed was dropped). ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the separate traced
run and prints the per-layer metrics. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run's metadata (host,
versions, seed, workload parameters, sample counts, raw medians and
host-speed probes).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ingest-churn", "analyze-studies", "scenario-google")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def declared(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for the run."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in document["per_layer" if trace else "end_to_end"]}


def check_declared(metrics: dict, trace: bool) -> None:
    """Raise unless every metric is declared in BENCHMARK.json with its unit."""
    units = declared(trace)
    for name, (_, unit) in metrics.items():
        if units.get(name) != unit:
            raise ValueError(f"metric {name!r} in {unit!r} is not declared as such")


def complete(metrics: dict, trace: bool) -> dict:
    """Every declared metric of the run, in the declared order.

    An end-to-end metric must have been measured. A layer the traced
    run never called spent no time and did no work in this workload:
    the serve layers on the offline workloads, the pipeline layers on
    ingest-churn, and the other offline workload's layers. It reads 0.
    """
    check_declared(metrics, trace)
    units = declared(trace)
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        raise ValueError(f"end-to-end metrics not measured: {missing}")
    return {name: metrics.get(name, (0.0, unit)) for name, unit in units.items()}


def metadata(args: argparse.Namespace, parameters: dict, samples: dict) -> dict:
    import numpy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {name: os.environ.get(name, "unset") for name in BLAS_VARIABLES},
        "parameters": parameters,
        "samples": samples,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import procs

    work = ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "ingest-churn":
            import gen

            parameters = {"churn": vars(gen.CHURN)}
            if args.trace:
                import serve_trace as module

                parameters["recurring"] = vars(gen.RECURRING)
            else:
                import serve_bench as module
        else:
            import offline as module

            parameters = module.parameters(args.workload, args.seed)
        run = module.run_traced if args.trace else module.run
        metrics, counts, tally = run(args.workload, args.seed, args.seconds, SRC, work)
    finally:
        procs.kill_all()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    metrics = complete(metrics, bool(args.trace))
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"meta": metadata(args, parameters, counts)}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
