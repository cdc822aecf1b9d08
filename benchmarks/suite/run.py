"""Entry point of the repo's benchmark (the ``command`` of ``BENCHMARK.json``).

    python3 benchmarks/suite/run.py                      # all four workloads
    python3 benchmarks/suite/run.py --workload star_sparse --seed 3 --seconds 20 --trace 0
    python3 benchmarks/suite/run.py --tiny --trace 1     # the test suite's smoke run
    python3 benchmarks/suite/run.py --calibrate 5        # rewrite CALIBRATION.json

One workload runs in one process, re-executed with ``PYTHONHASHSEED=0`` and
``REPRO_KERNEL=python`` (the native kernel's ``.so`` is git-ignored, so
``auto`` would differ between a fresh checkout and a developer's tree).  A
run prints one ``workload metric value unit`` line per metric, writes
``benchmarks/suite/out/result.json`` and ends with the one-line JSON object
the contract asks for.  ``--trace 0`` measures the end-to-end metrics over 7
closed-loop and 7 open-loop passes; ``--trace 1`` runs 3 + 3 untraced passes
and 3 traced ones and reports the per-layer metrics.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(SUITE, "out")
RESULT = os.path.join(OUT, "result.json")
for _path in (SRC, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

ENVIRONMENT = {"PYTHONHASHSEED": "0", "REPRO_KERNEL": "python"}


def parse_args(argv: Optional[List[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads,
                        help="default: all four, one process each")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=int, default=20, help="measured seconds; sizes each pass")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced passes and per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="about 1 s per workload, 3 passes (smoke)")
    parser.add_argument("--calibrate", type=int, metavar="K",
                        help="run the full suite K times and write CALIBRATION.json")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    from benchmarks.suite.workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    if args.calibrate:
        return calibrate(args, list(WORKLOADS))
    if args.workload is None:
        return 0 if all(r["correct"] for r in run_all(args, list(WORKLOADS)).values()) else 1
    if any(os.environ.get(key) != value for key, value in ENVIRONMENT.items()):
        os.execve(sys.executable, child_command(args), {**os.environ, **ENVIRONMENT})
    return run_one(args)


def child_command(args: argparse.Namespace, workload: Optional[str] = None) -> List[str]:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload or args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    return command


def run_all(args: argparse.Namespace, workloads: List[str]) -> Dict[str, dict]:
    """Every workload in its own process (peak RSS is per process); merged result.json."""
    results: Dict[str, dict] = {}
    for name in workloads:
        completed = subprocess.run(child_command(args, name), env={**os.environ, **ENVIRONMENT})
        try:
            results[name] = read_result()["workloads"][name]
        except (OSError, KeyError, ValueError):
            results[name] = {"correct": False}
        if completed.returncode != 0:
            results[name]["correct"] = False
    write_result(results)
    return results


# ------------------------------------------------------------------ one workload
def run_one(args: argparse.Namespace) -> int:
    from benchmarks.suite import measure

    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        detail = measure.run_workload(
            args.workload, args.seed, 1 if args.tiny else args.seconds, bool(args.trace),
            args.tiny, out_dir=OUT, src_dir=SRC, scratch_dir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(git_sha=git_sha(), python=platform.python_version(), nproc=os.cpu_count(),
                  kernel_active=os.environ["REPRO_KERNEL"])
    reported = detail["per_layer"] if args.trace else detail["end_to_end"]
    for section in ("end_to_end", "per_layer"):
        for metric, entry in detail[section].items():
            print(f"{args.workload} {metric} {entry['value']:.6g} {entry['unit']}")
    write_result({args.workload: detail})
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted_ops"],
        "failed": detail["failed_ops"],
        "metrics": {metric: {"value": entry["value"], "unit": entry["unit"]}
                    for metric, entry in reported.items()},
    }))
    return 0 if detail["correct"] else 1


# ------------------------------------------------------------------ result files
def read_result() -> dict:
    with open(RESULT, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_result(workloads: Dict[str, dict]) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(RESULT, "w", encoding="utf-8") as handle:
        json.dump({"benchmark": "benchmarks/suite", "workloads": workloads}, handle, indent=1)
        handle.write("\n")


def git_sha() -> Optional[str]:
    """HEAD of the repository this file sits in, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), "r", encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), "r", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


# ------------------------------------------------------------------ calibration
def calibrate(args: argparse.Namespace, workloads: List[str]) -> int:
    """Run the full suite K times on the unchanged tree; record how far the values move."""
    runs: List[Dict[str, dict]] = []
    for index in range(args.calibrate):
        print(f"# calibration run {index + 1} of {args.calibrate}")
        runs.append(run_all(args, workloads))
        if not all(detail["correct"] for detail in runs[-1].values()):
            print("error: a calibration run failed; CALIBRATION.json left as it was",
                  file=sys.stderr)
            return 1
    table: Dict[str, Dict[str, dict]] = {}
    for name in workloads:
        table[name] = {}
        for metric, entry in runs[0][name]["end_to_end"].items():
            values = [run[name]["end_to_end"][metric]["value"] for run in runs]
            centre = statistics.median(values)
            table[name][metric] = {
                "unit": entry["unit"],
                "values": values,
                "max_relative_deviation": max(abs(value - centre) for value in values) / centre,
            }
    path = os.path.join(SUITE, "CALIBRATION.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": args.calibrate, "seed": args.seed, "seconds": args.seconds,
                   "git_sha": git_sha(), "python": platform.python_version(),
                   "nproc": os.cpu_count(), "workloads": table}, handle, indent=1)
        handle.write("\n")
    print(f"# wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
