"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every measurement runs in a fresh
child process (``perfbench/workloads.py``) importing zerosum from the
checkout's ``src``.

``--trace 0`` prints the end-to-end metrics.  Set-up runs several times,
each in its own process, and ``setup_s`` is their median; one more
process times the workload and checks its outputs.  ``--trace 1`` prints
the per-layer metrics: one untraced and one traced process do the same
work, half of a ``--trace 0`` run's, and ``bench.trace_overhead`` is the
ratio of their ops per second.

Times are rescaled to the speed of a fixed reference kernel timed around
each chunk of work (see ``perfbench/workloads.py``); the raw figures are
printed with each metric's sample count.

Lines before the last describe the machine, the work done and each metric
with its sample count; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_RUNS = 7  # set-up samples per --trace 0 run, the timed process's included
# Ops are at most 120x120 and mostly 20x20, below the size where BLAS
# threads pay; one thread keeps timings steady and pool threads x BLAS
# threads <= nproc.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for name in BLAS_VARIABLES:
        env[name] = BLAS_THREADS
    return env


def _run_child(args, mode: str, deadline: float, seconds: int, extra=()) -> dict:
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--mode", mode, *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a measurement")
    launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd + ["--launch", repr(launch)], cwd=ROOT, env=_child_env(),
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise ChildFailed(f"{mode} process ran past the {DEADLINE_S:.0f} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _end_to_end(args, deadline: float):
    setups = [_run_child(args, "setup", deadline, args.seconds) for _ in range(SETUP_RUNS - 1)]
    run = _run_child(args, "run", deadline, args.seconds)
    setups.append(run)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": run["ops_per_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    samples = {
        "setup_s": f"median of {len(setups)} set-ups; raw "
                   f"{statistics.median(s['raw_setup_s'] for s in setups):.4g} s",
        "ops_per_s": f"{run['ops']} ops in {run['scaled_s']:.3f} s rescaled, "
                     f"{run['wall_s']:.3f} s raw ({run['raw_ops_per_s']:.4g} 1/s); "
                     "reference {:.1f}-{:.1f} ms".format(*run["reference_ms"]),
        "peak_rss_mb": "1 process",
    }
    return [run], values, samples


def _per_layer(args, deadline: float):
    seconds = max(1, args.seconds // 2)
    plain = _run_child(args, "run", deadline, seconds)
    traced = _run_child(args, "run", deadline, seconds, ("--trace",))
    values = dict(traced["layers"])
    values["bench.trace_overhead"] = plain["ops_per_s"] / traced["ops_per_s"]
    if plain["digest"] != traced["digest"]:
        traced["correct"] = False
        traced["problems"].append("traced and untraced runs wrote different outputs")
    samples = {name: f"{traced['ops']} ops traced" for name in values}
    samples["bench.trace_overhead"] = f"{plain['ops']} ops untraced / traced"
    return [plain, traced], values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one zerosum benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "zerosum" / "__init__.py").is_file():
        print(f"error: no zerosum source at {ROOT / 'src' / 'zerosum'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds < 1 or args.seed < 0:
        print("error: --seconds must be at least 1 and --seed non-negative", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    measure = _per_layer if args.trace else _end_to_end
    try:
        runs, values, samples = measure(args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(values) != {m["name"] for m in declared}:
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares "
              f"{sorted(m['name'] for m in declared)}", file=sys.stderr)
        return 1

    print("machine: " + json.dumps(runs[-1]["machine"], sort_keys=True))
    print("work: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "ops": runs[-1]["ops"],
        "csv_rows": runs[-1]["csv_rows"], "output_sha256": runs[-1]["digest"],
    }))
    for run in runs:
        for problem in run["problems"]:
            print(f"check failed: {problem}")
    for m in declared:
        print(f"{m['name']:<44} {values[m['name']]:>16.6g} {m['unit']:<12} ({samples[m['name']]})")
    latency = runs[-1].get("latency_ms")
    if latency is not None and not args.trace:
        # per-solve latency; reported, not gated: see perfbench/README.md
        for q in ("p50", "p90"):
            print(f"{'op_' + q + '_ms':<44} {latency[q]:>16.6g} {'ms':<12} ({latency['n']} solves)")
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
