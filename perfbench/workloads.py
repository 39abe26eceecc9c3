"""The benchmark's four workloads: inputs, timed sections and output checks.

``run.py`` starts this file once per measurement, in a fresh process:

    python3 perfbench/workloads.py --workload W --seed N --seconds S \
        --mode setup|run [--trace] [--tiny] --launch T

``--launch`` is the CLOCK_MONOTONIC time at which the parent started the
process, so set-up time includes interpreter start and imports.  Mode
``setup`` stops where the timed section would begin; mode ``run`` times
the section, checks every output and reruns a sample of configs alone.
The last line on stdout is one JSON object with the results.

All inputs are made from the workload seed.  The amount of work is fixed
by the seed and ``--seconds`` alone (never by a clock), so two runs of one
seed do the same work, write the same CSV and make the same calls.

The timed section runs in chunks of about a third of a second, and a
fixed reference kernel (numpy code of the same kind as zerosum's,
independent of it) is timed before the first chunk and after each one.
On a shared host the same code runs at speeds up to 1.8x apart, switching
within a second or lasting minutes; each chunk's time is rescaled by the reference's speed around it,
so the reported times are those of a machine running the reference in
``REFERENCE_S`` seconds.  The raw wall times are reported as well.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import zerosum  # run.py puts the checkout's src first on PYTHONPATH
from zerosum import cli, engine, nash
from zerosum.core import SIMPLEX_ATOL, MatrixGame

import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".bench_build" / "perfbench"  # the CSV a run writes; removed after its checks

# At least ten solve latencies lie beyond p90.
MIN_OPS = 100
TINY_HORIZON = 30
RANGE_ATOL = 1e-9
CSV_RTOL = 1e-11  # 12 significant digits round to within 5e-12 relative
GAP_MATCH_ATOL = 1e-12


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --- machine speed ------------------------------------------------------------

# The reference kernel's time on a 2-core Xeon while its CPU runs at the
# faster of its two speeds; rescaled times read about as they would there.
REFERENCE_S = 0.0135
_REFERENCE_LOSSES = np.random.default_rng(12345).random((20, 20))
_REFERENCE_TABLEAU = np.random.default_rng(54321).random((64, 96))


def _reference_kernel() -> float:
    """Small-vector multiplicative updates, then rank-one tableau updates."""
    x = np.full(20, 1 / 20)
    acc = 0.0
    for _ in range(1800):
        loss = _REFERENCE_LOSSES @ x
        x = x * np.exp(-0.1 * loss)
        x /= x.sum()
        acc += float(loss.min())
    t = _REFERENCE_TABLEAU.copy()
    for k in range(120):
        r = k % t.shape[0]
        c = int(np.argmax(t[r]))
        t -= np.outer(t[:, c] / t[r, c], t[r]) * 1e-3
    return acc + float(t.sum())


def reference_s() -> float:
    """Seconds that one run of the reference kernel takes now."""
    t0 = perf_counter()
    _reference_kernel()
    return perf_counter() - t0


class Meter:
    """Times chunks of work between runs of the reference kernel.

    ``wall`` is the chunks' raw time; ``scaled`` rescales each chunk by
    ``REFERENCE_S`` over the mean of the reference times before and after
    it.  Reference runs are outside both.
    """

    def __init__(self):
        self.reference = [reference_s()]
        self.wall = 0.0
        self.scaled = 0.0

    def scale(self) -> float:
        """Factor from the last chunk's raw time to its rescaled time."""
        return REFERENCE_S / (0.5 * (self.reference[-2] + self.reference[-1]))

    def time(self, fn):
        t0 = perf_counter()
        result = fn()
        elapsed = perf_counter() - t0
        self.reference.append(reference_s())
        self.wall += elapsed
        self.scaled += elapsed * self.scale()
        return result


def setup_times(launch: float) -> dict:
    """Set-up time so far, raw and rescaled by the median of three reference runs."""
    raw = _monotonic() - launch
    return {"setup_s": raw * REFERENCE_S / sorted(reference_s() for _ in range(3))[1],
            "raw_setup_s": raw}


# --- grid workloads -----------------------------------------------------------

# Bounds of the series whose range is defined; every series must be finite.
SERIES_RANGE = {
    "average_loss": (0.0, 1.0),
    "dynamic_regret": (0.0, math.inf),
    "average_dynamic_regret": (0.0, 1.0),
    "step_distance_l1": (0.0, 2.0),
    "exploitability": (0.0, 1.0),
    "kl_to_ne": (0.0, math.inf),
}


@dataclass(frozen=True)
class GridWorkload:
    name: str
    adversary: str
    agents: tuple
    etas: tuple
    metrics: tuple | None  # None: the default set of the run mode
    horizon: int
    parallel: bool
    # configs per grid_run call: all agents of one game, or more for the
    # thread pool; the shorter a chunk, the closer its reference runs
    chunk_ops: int
    # configs per second at the parent commit on a 2-core Xeon; sizes the
    # grid from --seconds so that a run measures about that long there
    nominal_ops_per_s: float

    def parallelism(self) -> int:
        return len(os.sched_getaffinity(0)) if self.parallel else 1

    def size(self, seconds: int, tiny: bool) -> tuple[int, int]:
        """(number of games, horizon)."""
        per_game = len(self.agents) * len(self.etas)
        if tiny:
            return 1, TINY_HORIZON
        games = max(math.ceil(MIN_OPS / per_game), round(seconds * self.nominal_ops_per_s / per_game))
        return games, self.horizon

    def _doc(self, agent, game_seed: int, eta, horizon: int) -> str:
        agent_doc = {k: getattr(agent, k) for k in ("kind", "eta", "alpha", "b", "name")}
        adversary_doc = {"kind": self.adversary}
        if eta is not None:
            adversary_doc["eta"] = eta
        doc = {
            "game": {"random": {"n": 20, "m": 20, "seed": game_seed}},
            "horizon": horizon,
            "agent": {k: v for k, v in agent_doc.items() if v is not None},
            "adversary": adversary_doc,
        }
        if self.metrics is not None:
            doc["metrics"] = list(self.metrics)
        return json.dumps(doc)

    def documents(self, seed: int, seconds: int, tiny: bool) -> tuple[list[str], str]:
        """(config documents of the timed grid, warm-up config document).

        The grid is ordered like the presets: eta, then game, then agent.
        Each eta has games of its own, so that a run's cost averages over
        many games.  The warm-up game's seed is not among the grid's.
        """
        games, horizon = self.size(seconds, tiny)
        base = seed * 1000
        docs = [
            self._doc(agent, base + 1 + e * games + g, eta, horizon)
            for e, eta in enumerate(self.etas)
            for g in range(games)
            for agent in self.agents
        ]
        return docs, self._doc(self.agents[0], base, self.etas[0], horizon)

    def setup(self, seed: int, seconds: int, tiny: bool):
        docs, warm_doc = self.documents(seed, seconds, tiny)
        configs = [cli.parse_config(doc) for doc in docs]
        warm = cli.parse_config(warm_doc)
        engine.grid_run([warm], self.parallelism())
        return configs

    def timed(self, configs, out_dir: Path):
        """What ``zerosum preset`` does: grid_run over the grid, then emit_csv.

        grid_run takes the grid a chunk at a time, each chunk timed by a
        ``Meter``; outcome indices are shifted back to grid positions.
        """
        csv_path = out_dir / f"{self.name}.csv"
        meter = Meter()
        outcomes = []
        for start in range(0, len(configs), self.chunk_ops):
            chunk = configs[start:start + self.chunk_ops]
            for out in meter.time(lambda: engine.grid_run(chunk, self.parallelism())):
                out.index += start
                outcomes.append(out)
        records = [
            cli.SeriesRecord(
                learner=out.config.agent.display_name,
                metric=metric,
                values=values,
                seed=out.config.game.seed,
                adversary_eta=out.config.adversary.eta,
            )
            for out in outcomes
            if out.error is None
            for metric, values in out.series.items()
        ]
        meter.time(lambda: cli.emit_csv(records, csv_path))
        return outcomes, csv_path, meter

    def run_alone(self, config) -> dict:
        if self.adversary == "self_play":
            return engine.run_self_play(config)[2]
        return engine.run_vs_adversary(config)[1]

    def sample(self, configs, seed: int) -> list[int]:
        """One config per agent, picked from the seed."""
        rng = np.random.default_rng([seed, 2])
        picks = []
        for agent in self.agents:
            mine = [i for i, c in enumerate(configs) if c.agent.display_name == agent.name]
            picks.append(mine[int(rng.integers(len(mine)))])
        return picks


def _series_problem(name: str, values, horizon: int) -> str | None:
    values = np.asarray(values)
    expected = horizon - 1 if name == "step_distance_l1" else horizon
    if values.shape != (expected,):
        return f"{name}: shape {values.shape}, expected ({expected},)"
    if not np.all(np.isfinite(values)):
        return f"{name}: non-finite values"
    lo, hi = SERIES_RANGE.get(name, (-math.inf, math.inf))
    if values.min() < lo - RANGE_ATOL or values.max() > hi + RANGE_ATOL:
        return f"{name}: values outside [{lo}, {hi}]"
    return None


def check_outcome(config, outcome) -> str | None:
    """Why a grid op's outcome is wrong, or None when it passes."""
    if outcome.error is not None:
        return outcome.error
    if set(outcome.series) != set(config.metrics):
        return f"series {sorted(outcome.series)} instead of {sorted(config.metrics)}"
    for name, values in outcome.series.items():
        problem = _series_problem(name, values, config.horizon)
        if problem is not None:
            return problem
    return None


def _csv_key(learner, metric, seed, eta) -> tuple:
    return (learner, metric, "" if seed is None else str(seed), "" if eta is None else f"{eta:.12g}")


def check_csv(csv_path: Path, outcomes) -> tuple[dict, list[str]]:
    """Check the CSV against the series; returns ({op index: problem}, problems).

    The header must be ``CSV_HEADER``, the row count the total length of
    all series, each series' rows numbered 1..T, and every value must
    parse back to the series at 12 significant digits.
    """
    problems = []
    expected = {}
    for out in outcomes:
        if out.error is None:
            for metric, values in out.series.items():
                key = _csv_key(out.config.agent.display_name, metric, out.config.game.seed,
                               out.config.adversary.eta)
                expected[key] = (out.index, np.asarray(values))
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = {}
        count = 0
        for count, line in enumerate(fh, start=1):
            try:
                t, learner, metric, value, seed, eta = line.rstrip("\n").split(",")
                rows.setdefault((learner, metric, seed, eta), []).append((int(t), float(value)))
            except ValueError:
                problems.append(f"CSV line {count + 1} does not parse: {line[:80]!r}")
                break
    if header != cli.CSV_HEADER:
        problems.append(f"CSV header {header!r}")
    total = sum(len(v) for _, v in expected.values())
    if count != total:
        problems.append(f"CSV has {count} rows, the series {total}")
    if set(rows) - set(expected):
        problems.append(f"CSV rows for unknown series {sorted(set(rows) - set(expected))[:3]}")
    bad_ops = {}
    for key, (index, values) in expected.items():
        got = rows.get(key)
        if got is None:
            bad_ops[index] = f"no CSV rows for {key}"
            continue
        ts = np.array([t for t, _ in got])
        parsed = np.array([v for _, v in got])
        if ts.shape != values.shape or not np.array_equal(ts, np.arange(1, values.size + 1)):
            bad_ops[index] = f"CSV rounds of {key} are not 1..{values.size}"
        elif not np.allclose(parsed, values, rtol=CSV_RTOL, atol=1e-300):
            bad_ops[index] = f"CSV values of {key} do not parse back to the series"
    return bad_ops, problems


# --- equilibrium --------------------------------------------------------------

# One block of solves, (rows, columns, kind); every run solves whole
# blocks.  Solve time grows steeply with size, so the block is five groups
# of similar solve time: 2 trivial, 5 small, 6 middle, 3 medium and 4 large
# games.  p50 then falls in the middle of the middle group and p90 in the
# middle of the large group, never on a boundary where it would jump.
EQUILIBRIUM_BLOCK = (
    # degenerate: a single row, a constant matrix, duplicated rows
    (1, 60, "random"), (60, 60, "constant"),
    (30, 30, "dup_rows"), (30, 30, "random"), (30, 40, "random"), (40, 30, "random"),
    (50, 50, "dup_rows"),
    (44, 44, "random"), (40, 56, "random"), (56, 40, "random"), (45, 45, "random"),
    (48, 48, "random"), (50, 50, "random"),
    (50, 70, "random"), (70, 50, "random"), (62, 62, "random"),
    (64, 96, "random"), (96, 64, "random"), (56, 112, "random"), (112, 56, "random"),
)
EQUILIBRIUM_CHUNK = 4  # solves per Meter chunk, five to a block
WARMUP_SHAPE = (45, 45)
CERTIFY_BELOW = 0.999  # AMWU, exploit rate 10: locally convergent
CERTIFY_ABOVE = 1.001  # MWU: locally divergent


def make_game(rng, n: int, m: int, kind: str) -> np.ndarray:
    if kind == "constant":
        return np.full((n, m), rng.random())
    if kind == "dup_rows":
        base = rng.random((n // 2, m))
        return np.vstack([base, base])[rng.permutation(n)]
    return rng.random((n, m))


@dataclass(frozen=True)
class EquilibriumWorkload:
    # blocks per second at the parent commit on a 2-core Xeon
    nominal_blocks_per_s: float = 0.61

    def size(self, seconds: int, tiny: bool) -> int:
        if tiny:
            return 1
        return max(math.ceil(MIN_OPS / len(EQUILIBRIUM_BLOCK)), round(seconds * self.nominal_blocks_per_s))

    def setup(self, seed: int, seconds: int, tiny: bool):
        rng = np.random.default_rng(seed)
        warm = MatrixGame(rng.random(WARMUP_SHAPE))
        games = [
            MatrixGame(make_game(rng, n, m, kind))
            for _ in range(self.size(seconds, tiny))
            for n, m, kind in EQUILIBRIUM_BLOCK
        ]
        certificate_games = [("matching_pennies", cli.MATCHING_PENNIES_UNIT)] + [
            (f"centered_3x3_{s}", cli.centered_random_game(3, 3, s)) for s in cli.CERTIFICATE_3X3_SEEDS
        ]
        nash.solve_zero_sum(warm)
        return games, certificate_games

    def timed(self, games, certificate_games):
        """Solve every game, timing each solve, then certify the preset games.

        Every ``EQUILIBRIUM_CHUNK`` solves are one ``Meter`` chunk; a solve's
        latency is rescaled like its chunk.
        """
        solutions, latencies = [], []
        meter = Meter()

        def solve_block(block):
            raw = []
            for game in block:
                s = perf_counter()
                try:
                    solution = nash.solve_zero_sum(game)
                except Exception as exc:  # noqa: BLE001 - a failed solve is a failed op
                    solution = exc
                raw.append(perf_counter() - s)
                solutions.append(solution)
            return raw

        for start in range(0, len(games), EQUILIBRIUM_CHUNK):
            raw = meter.time(lambda: solve_block(games[start:start + EQUILIBRIUM_CHUNK]))
            latencies += [d * meter.scale() for d in raw]
        certificates = meter.time(lambda: self.certify(certificate_games))
        return solutions, latencies, certificates, meter

    @staticmethod
    def certify(certificate_games):
        certificates = []
        for label, game in certificate_games:
            try:
                ne = nash.solve_zero_sum(game)
                radii = {
                    agent: nash.spectral_radius_at_ne(game, ne, cli.CERTIFICATE_ETA, alpha)
                    for agent, alpha in cli.CERTIFICATE_ALPHAS
                }
            except Exception as exc:  # noqa: BLE001 - a failed certificate is reported
                radii = exc
            certificates.append((label, radii))
        return certificates


def check_solution(game, solution) -> str | None:
    """Why a solve's result is wrong, or None when it passes."""
    if isinstance(solution, Exception):
        return f"{type(solution).__name__}: {solution}"
    a = game.payoff
    f = np.asarray(solution.f_star, dtype=float)
    y = np.asarray(solution.y_star, dtype=float)
    for label, v, size in (("f_star", f, a.shape[0]), ("y_star", y, a.shape[1])):
        if v.shape != (size,) or not np.all(np.isfinite(v)):
            return f"{label}: shape {v.shape} or non-finite entries"
        if v.min() < -SIMPLEX_ATOL or abs(v.sum() - 1.0) > SIMPLEX_ATOL:
            return f"{label}: not on the simplex (min {v.min()}, sum {v.sum()})"
    row_best = max(float(a[i] @ y) for i in range(a.shape[0]))
    col_best = min(float(f @ a[:, j]) for j in range(a.shape[1]))
    gap = row_best - col_best
    if gap > nash.GAP_TOL:
        return f"duality gap {gap} above {nash.GAP_TOL}"
    if abs(gap - solution.gap) > GAP_MATCH_ATOL:
        return f"reported gap {solution.gap} differs from recomputed {gap}"
    return None


def check_certificate(radii) -> str | None:
    if isinstance(radii, Exception):
        return f"{type(radii).__name__}: {radii}"
    if not radii.get("AMWU", math.inf) < CERTIFY_BELOW:
        return f"AMWU radius {radii.get('AMWU')} not below {CERTIFY_BELOW}"
    if not radii.get("MWU", -math.inf) > CERTIFY_ABOVE:
        return f"MWU radius {radii.get('MWU')} not above {CERTIFY_ABOVE}"
    return None


# --- the table of workloads ---------------------------------------------------

WORKLOADS = {
    "oblivious-grid": GridWorkload(
        name="oblivious-grid", adversary="oblivious_mwu", agents=cli.VS_ADVERSARY_AGENTS,
        etas=cli.ADVERSARY_ETA_GRID, metrics=None, horizon=400, parallel=False,
        chunk_ops=5, nominal_ops_per_s=13.4,
    ),
    "nonoblivious-grid": GridWorkload(
        name="nonoblivious-grid", adversary="nonoblivious_mwu", agents=cli.VS_ADVERSARY_AGENTS,
        etas=cli.ADVERSARY_ETA_GRID, metrics=("average_dynamic_regret",), horizon=400,
        parallel=True, chunk_ops=20, nominal_ops_per_s=17.8,
    ),
    "self-play": GridWorkload(
        name="self-play", adversary="self_play", agents=cli.LAST_ROUND_AGENTS, etas=(None,),
        metrics=("exploitability", "kl_to_ne"), horizon=800, parallel=False,
        chunk_ops=4, nominal_ops_per_s=12.8,
    ),
    "equilibrium": EquilibriumWorkload(),
}


# --- one measurement ----------------------------------------------------------

def machine_facts() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def grid_failures(w: GridWorkload, configs, outcomes, csv_path: Path, picks) -> dict:
    """Check a grid's outputs and rerun the picked configs alone.

    Returns {op index: problem}.  A malformed CSV fails every op.  A rerun
    must give exactly the grid's series: a config's result may not depend
    on its batch or on ``parallelism``.
    """
    failures = {}
    for config, outcome in zip(configs, outcomes):
        problem = check_outcome(config, outcome)
        if problem is not None:
            failures[outcome.index] = problem
    bad_rows, problems = check_csv(csv_path, outcomes)
    for index, problem in bad_rows.items():
        failures.setdefault(index, problem)
    if problems:  # the file that holds every op's series is malformed
        for out in outcomes:
            failures.setdefault(out.index, "; ".join(problems))
    for i in picks:
        try:
            series = w.run_alone(configs[i])
        except Exception as exc:  # noqa: BLE001 - recorded as a failed op
            failures.setdefault(i, f"alone: {type(exc).__name__}: {exc}")
            continue
        try:
            for name in configs[i].metrics:
                np.testing.assert_array_equal(series[name], outcomes[i].series.get(name))
        except (AssertionError, KeyError):
            failures.setdefault(i, "alone: series differ from the grid's")
    return failures


def equilibrium_failures(games, solutions, certificates):
    """({solve index: problem}, problems of the certificates)."""
    failures = {}
    for i, (game, solution) in enumerate(zip(games, solutions)):
        problem = check_solution(game, solution)
        if problem is not None:
            failures[i] = problem
    failed_certificates = []
    for label, radii in certificates:
        problem = check_certificate(radii)
        if problem is not None:
            failed_certificates.append(f"certificate {label}: {problem}")
    return failures, failed_certificates


def _result(ops, failures, extras, failed_extras, setup, meter, peak, digest, csv_rows) -> dict:
    """A measurement's result; ``extras`` are checked outputs that are not ops."""
    passed = ops - len(failures)
    return {
        "ops": ops,
        "attempted": ops + extras,
        "failed": len(failures) + len(failed_extras),
        "correct": not failures and not failed_extras,
        "problems": (failed_extras + [f"op {i}: {p}" for i, p in sorted(failures.items())])[:10],
        **setup,
        "wall_s": meter.wall,
        "scaled_s": meter.scaled,
        "ops_per_s": passed / meter.scaled,
        "raw_ops_per_s": passed / meter.wall,
        "reference_ms": [min(meter.reference) * 1e3, max(meter.reference) * 1e3],
        "peak_rss_mb": peak,
        "digest": digest,
        "csv_rows": csv_rows,
    }


def measure_grid(w: GridWorkload, args, launch: float, tracer) -> dict:
    configs = w.setup(args.seed, args.seconds, args.tiny)
    if args.mode == "setup":
        return setup_times(launch)
    parse = (0, 0.0)
    if tracer is not None:
        spans = tracer.spans("cli.parse_config")
        parse = (len(spans), sum(s.self_s for s in spans))
        tracer.reset()
    picks = w.sample(configs, args.seed)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=SCRATCH))
    try:
        setup = setup_times(launch)
        outcomes, csv_path, meter = w.timed(configs, out_dir)
        peak = _peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
        csv_bytes = csv_path.read_bytes()
        failures = grid_failures(w, configs, outcomes, csv_path, picks)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    csv_rows = csv_bytes.count(b"\n") - 1
    result = _result(len(configs), failures, 0, [], setup, meter, peak,
                     hashlib.sha256(csv_bytes).hexdigest(), csv_rows)
    if tracer is not None:
        rounds = sum(c.horizon for c in configs)
        result["layers"] = layers.layer_metrics(tracer, rounds, parse, csv_rows, len(csv_bytes))
    return result


def measure_equilibrium(w: EquilibriumWorkload, args, launch: float, tracer) -> dict:
    games, certificate_games = w.setup(args.seed, args.seconds, args.tiny)
    if args.mode == "setup":
        return setup_times(launch)
    if tracer is not None:
        tracer.reset()
    setup = setup_times(launch)
    solutions, latencies, certificates, meter = w.timed(games, certificate_games)
    peak = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    failures, failed_certificates = equilibrium_failures(games, solutions, certificates)
    digest = hashlib.sha256()
    for solution in solutions:
        if not isinstance(solution, Exception):
            digest.update(np.concatenate([solution.f_star, solution.y_star]).tobytes())
    result = _result(len(games), failures, len(certificates), failed_certificates, setup, meter,
                     peak, digest.hexdigest(), 0)
    result["latency_ms"] = {
        "p50": layers.percentile_ms(latencies, 50),
        "p90": layers.percentile_ms(latencies, 90),
        "n": len(latencies),
    }
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, 0, (0, 0.0), 0, 0)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    parser.add_argument("--launch", type=float, required=True)
    args = parser.parse_args(argv)
    source = Path(zerosum.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: imported zerosum from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        missing = layers.install(tracer)
        if missing:
            print(f"trace: sites not found, their metrics read 0: {missing}", file=sys.stderr)
    w = WORKLOADS[args.workload]
    measure = measure_equilibrium if isinstance(w, EquilibriumWorkload) else measure_grid
    result = measure(w, args, args.launch, tracer)
    if args.mode == "run":
        result["machine"] = machine_facts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
