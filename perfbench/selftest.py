"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that:

* every workload, traced and untraced, prints each metric BENCHMARK.json
  declares, with its unit, and that its outputs pass the checks;
* two traced runs of one seed give the same exact counts and the same
  output digest;
* one bad output (a NaN series in a grid op, a perturbed equilibrium
  strategy) is counted as one failed op, and a grid timed in several
  chunks keeps each outcome at its grid position;
* in a directory holding only BENCHMARK.json and perfbench, run.py
  exits non-zero without printing a result;
* every per-layer metric says which end-to-end metric and workloads it
  should move.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = list(workloads.WORKLOADS)  # nonoblivious-grid too, though BENCHMARK.json omits it
SEED = 7


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    work = next(json.loads(ln[len("work: "):]) for ln in lines if ln.startswith("work: "))
    return work, json.loads(lines[-1])


def test_every_metric_printed_with_unit():
    for workload in WORKLOAD_NAMES:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            _, result = parse(run_bench(workload, trace))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in declared}, (workload, trace)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name)


def test_exact_counts_repeat():
    for workload in WORKLOAD_NAMES:
        first_work, first = parse(run_bench(workload, 1))
        second_work, second = parse(run_bench(workload, 1))
        assert first_work["output_sha256"] == second_work["output_sha256"], workload
        for name in layers.EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, (workload, name, a, b)


def test_bad_grid_output_counts_as_failed():
    # chunks of 3 configs, so that outcome indices cross a chunk boundary
    w = dataclasses.replace(workloads.WORKLOADS["self-play"], chunk_ops=3)
    configs = w.setup(SEED, 1, tiny=True)
    out_dir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_build"))
    try:
        outcomes, csv_path, meter = w.timed(configs, out_dir)
        assert [out.index for out in outcomes] == list(range(len(configs))), outcomes
        assert all(out.config is c for out, c in zip(outcomes, configs))
        assert len(meter.reference) == 2 + -(-len(configs) // w.chunk_ops)  # chunks, emit_csv
        assert meter.wall > 0 and meter.scaled > 0
        failures = workloads.grid_failures(w, configs, outcomes, csv_path, [])
        assert not failures, failures
        outcomes[1].series["kl_to_ne"] = outcomes[1].series["kl_to_ne"].copy()
        outcomes[1].series["kl_to_ne"][3] = np.nan
        failures = workloads.grid_failures(w, configs, outcomes, csv_path, range(len(configs)))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    assert list(failures) == [1], failures


def test_perturbed_equilibrium_counts_as_failed():
    w = workloads.WORKLOADS["equilibrium"]
    games, certificate_games = w.setup(SEED, 1, tiny=True)
    games = games[:8]
    solutions, _, certificates, _ = w.timed(games, certificate_games)
    failures, failed_certificates = workloads.equilibrium_failures(games, solutions, certificates)
    assert not failures and not failed_certificates, (failures, failed_certificates)
    bad = 5  # a random 40x30 game of the block
    assert workloads.EQUILIBRIUM_BLOCK[bad][2] == "random"
    f = solutions[bad].f_star
    solutions[bad] = dataclasses.replace(solutions[bad], f_star=0.5 * f + 0.5 / f.size)
    failures, _ = workloads.equilibrium_failures(games, solutions, certificates)
    assert list(failures) == [bad], failures


def test_refuses_to_run_without_source():
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_build"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(WORKLOAD_NAMES[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert "correct" not in proc.stdout, proc.stdout


def test_every_layer_metric_has_a_target():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers.MOVES) == {m["name"] for m in SPEC["per_layer"]}
    for name, (metrics, targets) in layers.MOVES.items():
        assert set(metrics) <= e2e and set(targets) <= set(WORKLOAD_NAMES), name
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOAD_NAMES)


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    tests = [obj for name, obj in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
