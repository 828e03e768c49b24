"""The repo benchmark: absolute end-to-end and per-layer numbers.

One workload, as ``BENCHMARK.json``'s command runs it::

    python3 benchmarks/e2e/run.py --workload scan_heavy --seed 11 \\
        --seconds 8 --trace 0

prints every metric by name with its unit and ends with one JSON line
(``correct`` / ``attempted`` / ``failed`` / ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

All four workloads, each in its own sequential subprocess (so peak
memory is per workload and nothing runs concurrently), with a traced
phase after the untraced one::

    python3 benchmarks/e2e/run.py --seed 11 [--scale full] [--out FILE]

See README.md beside this file for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    """One BLAS thread, set before numpy is first imported.

    The sandbox has two cores and ``served_open`` already uses both
    (generator + serving worker); a BLAS pool on top would make every
    timing depend on how three or four threads happened to be scheduled.
    """
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="length of the timed phase")
    parser.add_argument("--trace", choices=("0", "1", "both"))
    parser.add_argument("--scale", choices=("tiny", "bench", "full"), default="bench")
    parser.add_argument("--out", help="also write the full result as JSON here")
    parser.add_argument(
        "--corrupt-answer",
        action="store_true",
        help="self-check: spoil one answer; the run must report it failed",
    )
    return parser.parse_args(argv)


def print_metrics(result: dict) -> None:
    env = result["environment"]
    shape = result["shape"]
    print(
        f"== {result['workload']}  seed={env['seed']} scale={env['scale']} "
        f"shape={shape['partitions']}x{shape['rows_per_partition']} "
        f"commit={env['commit'][:12]} nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']} blas_threads={env['blas_threads']}"
    )
    for section in ("end_to_end", "per_layer"):
        for name, entry in result[section].items():
            samples = f"  (n={entry['n']})" if "n" in entry else ""
            print(
                f"{section:10s} {name:40s} {entry['value']:14.6g} "
                f"{entry['unit']}{samples}"
            )
    step_line = (
        "step       rate={rate_qps:g}/s sent={sent} completed={completed} "
        "late_cancelled={late_cancelled} failed={failed} p50={p50_ms:.2f}ms "
        "p90={p90_ms:.2f}ms within_limit={within_limit_share:.3f} "
        "lateness_p90={lateness_p90_ms:.3f}ms valid={valid} passed={passed}"
    )
    for row in result.get("steps", []):
        print(step_line.format(**row))
    if result.get("trace", {}).get("missing"):
        print("trace.missing", ", ".join(result["trace"]["missing"]))
    for error in result["errors"]:
        print("error", error)
    print(
        f"checked {result['checked']} answers; "
        f"attempted={result['attempted']} failed={result['failed']}"
    )


def contract_line(result: dict, trace: str) -> str:
    """The driver's last line: exactly the metrics ``BENCHMARK.json`` names.

    A per-layer metric the workload does not exercise (``storage.*``
    outside ``ingest_mixed``, say) reads 0: the contract wants every
    name on every workload.
    """
    spec = json.loads(SPEC.read_text())
    section = "end_to_end" if trace == "0" else "per_layer"
    measured = {**result["per_layer"], **result["end_to_end"]}
    metrics = {}
    for declared in spec[section]:
        entry = measured.get(declared["name"])
        metrics[declared["name"]] = {
            "value": entry["value"] if entry else 0.0,
            "unit": declared["unit"],
        }
    return json.dumps(
        {
            "correct": result["failed"] == 0 and result["checked"] > 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import inputs
    import measure

    if args.workload not in inputs.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    trace = args.trace or "0"
    seconds = args.seconds or inputs.SCALES[args.scale].seconds
    result = measure.run_workload(
        args.workload, args.seed, args.scale, seconds, trace, args.corrupt_answer
    )
    rows = result.get("trace", {}).pop("rows", None)
    print_metrics(result)
    if args.out:
        if rows is not None:
            result["trace"]["rows"] = rows
        Path(args.out).write_text(json.dumps(result) + "\n")
    if trace != "both":
        print(contract_line(result, trace), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own subprocess, one after the other."""
    results, status = {}, 0
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    for name in (w["name"] for w in json.loads(SPEC.read_text())["workloads"]):
        out = work / f"result-{name}-{os.getpid()}.json"
        command = [sys.executable, str(HERE / "run.py"), "--workload", name]
        command += ["--seed", str(args.seed), "--scale", args.scale]
        command += ["--trace", args.trace or "both", "--out", str(out)]
        if args.seconds:
            command += ["--seconds", str(args.seconds)]
        done = subprocess.run(command)
        if done.returncode != 0 or not out.exists():
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(out.read_text())
        out.unlink()
        if results[name]["failed"]:
            status = 1
    if args.out:
        Path(args.out).write_text(json.dumps(results) + "\n")
    return status


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
