"""Where the tracer wraps zerosum, and the per-layer metrics it yields.

Spans wrap functions called about once per config, solve or grid; they
are wrapped at every zerosum module (or class) where a caller can look
them up.  Kernels are called once or more per simulated round; they are
wrapped where the learners and the engine call them, so kernel calls made
inside a metric or inside the spectral certificate stay in that
function's self time.  A site that a later version of zerosum no longer
has is skipped, and the metrics built on it read zero.
"""
from __future__ import annotations

import hashlib

import numpy as np
import zerosum
from zerosum import cli, core, engine, learners, metrics, nash

LEARNER_CLASSES = ("Aftrl", "Mwu", "Omwu", "ProdBr")
METRIC_FUNCTIONS = (
    "average_loss",
    "external_regret",
    "dynamic_regret",
    "average_dynamic_regret",
    "forward_comparators",
    "step_distances",
    "exploitability_series",
    "kl_series",
)
# solve-time buckets by the larger side length; sizes below 30 (the
# self-play games and the certificate games) fall in none of them
SOLVE_BUCKETS = (("le60", 30, 60), ("le90", 61, 90), ("le120", 91, 120))
CHECKS = ("core.check_loss_vector", "core.check_strategy")
CONFIG_SPANS = ("engine.run_vs_adversary", "engine.run_self_play")

_MODULES = (zerosum, core, engine, learners, metrics, nash, cli)


def _replay_key(game, adversary_eta, horizon, recorder_eta=None):
    """What a recorded replay depends on: (game, eta, recorder_eta, T)."""
    digest = hashlib.sha1(np.ascontiguousarray(game.payoff).tobytes()).hexdigest()
    return (digest, game.payoff.shape, adversary_eta,
            adversary_eta if recorder_eta is None else recorder_eta, horizon)


def _larger_side(game):
    return max(game.n, game.m)


# (module that defines the function, attribute, span name, tag function)
_SPANS = [
    (engine, "record_oblivious_trace", "engine.record_oblivious_trace", _replay_key),
    (engine, "run_vs_adversary", "engine.run_vs_adversary", None),
    (engine, "run_self_play", "engine.run_self_play", None),
    (engine, "grid_run", "engine.grid_run", None),
    (nash, "solve_zero_sum", "nash.solve_zero_sum", _larger_side),
    (nash, "spectral_radius_at_ne", "nash.spectral_radius_at_ne", None),
    (cli, "parse_config", "cli.parse_config", None),
    (cli, "emit_csv", "cli.emit_csv", None),
] + [(metrics, fn, f"metrics.{fn}", None) for fn in METRIC_FUNCTIONS]

# (module, class defined there, method, span name)
_METHOD_SPANS = [
    (engine, "GameSpec", "resolve", "engine.resolve"),
    (core, "Trace", "from_rounds", "core.Trace.from_rounds"),
]

# (module where the caller looks the kernel up, attribute, kernel name)
_KERNELS = [
    (engine, "check_loss_vector", "core.check_loss_vector"),
    (learners, "check_loss_vector", "core.check_loss_vector"),
    (learners, "check_strategy", "core.check_strategy"),
    (learners, "regularized_argmin", "regularizers.regularized_argmin"),
    (learners, "bregman_prox", "regularizers.bregman_prox"),
    (engine, "amwu_step", "learners.amwu_step"),
]


def install(tracer) -> list[str]:
    """Wrap every site that exists; returns the sites that were not found."""
    missing = []
    for home, attribute, name, tag in _SPANS:
        original = vars(home).get(attribute)
        if original is None:
            missing.append(name)
            continue
        for module in _MODULES:
            if vars(module).get(attribute) is original:
                tracer.wrap(module, attribute, name, tag=tag)
    for module, cls_name, method, name in _METHOD_SPANS:
        cls = vars(module).get(cls_name)
        if cls is None or method not in vars(cls):
            missing.append(name)
            continue
        tracer.wrap(cls, method, name)
    for module, attribute, name in _KERNELS:
        if attribute not in vars(module):
            missing.append(f"{module.__name__}.{attribute}")
            continue
        tracer.wrap(module, attribute, name, kernel=True)
    for cls_name in LEARNER_CLASSES:
        cls = vars(learners).get(cls_name)
        if cls is None or "step" not in vars(cls):
            missing.append(f"learners.{cls_name}.step")
            continue
        tracer.wrap(cls, "step", f"learners.{cls_name}.step", kernel=True)
    return missing


def percentile_ms(durations, q) -> float:
    """The q-th percentile of durations given in seconds, in ms; 0 for none."""
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def layer_metrics(tracer, rounds: int, parse: tuple[int, float], csv_rows: int, csv_bytes: int) -> dict:
    """Per-layer values of one traced timed section.

    ``rounds`` is the number of simulated rounds in the section (the sum
    of the config horizons), ``parse`` the (calls, self seconds) of
    ``cli.parse_config`` during set-up, and ``csv_rows``/``csv_bytes``
    describe the CSV the section wrote.
    """
    out = {}

    def span_stats(name):
        spans = tracer.spans(name)
        return spans, len(spans), sum(s.self_s for s in spans)

    replays, calls, own = span_stats("engine.record_oblivious_trace")
    out["engine.record_oblivious_trace.calls"] = calls
    out["engine.record_oblivious_trace.self_s"] = own
    out["engine.replay_distinct_ratio"] = len({s.tag for s in replays}) / calls if calls else 0.0
    out["engine.run_vs_adversary.self_s"] = span_stats("engine.run_vs_adversary")[2]
    out["engine.run_self_play.self_s"] = span_stats("engine.run_self_play")[2]
    _, out["engine.resolve.calls"], out["engine.resolve.self_s"] = span_stats("engine.resolve")
    config_durations = [s.duration for name in CONFIG_SPANS for s in tracer.spans(name)]
    out["engine.config_p50_ms"] = percentile_ms(config_durations, 50)
    out["engine.config_p90_ms"] = percentile_ms(config_durations, 90)
    wall = sum(s.duration for s in tracer.spans("engine.grid_run"))
    busy = sum(config_durations)
    out["engine.grid_run.wall_s"] = wall
    out["engine.grid_run.busy_s"] = busy
    out["engine.grid_run.overlap"] = busy / wall if wall else 0.0

    for cls_name in LEARNER_CLASSES:
        calls, total, _ = tracer.kernel(f"learners.{cls_name}.step")
        out[f"learners.{cls_name}.step.calls"] = calls
        out[f"learners.{cls_name}.step.us_per_call"] = total / calls * 1e6 if calls else 0.0
    calls, total, _ = tracer.kernel("learners.amwu_step")
    out["learners.amwu_step.calls"] = calls
    out["learners.amwu_step.us_per_call"] = total / calls * 1e6 if calls else 0.0

    check_calls = sum(tracer.kernel(name)[0] for name in CHECKS)
    out["core.check.calls"] = check_calls
    out["core.check.self_s"] = sum(tracer.kernel(name)[2] for name in CHECKS)
    out["core.checks_per_round"] = check_calls / rounds if rounds else 0.0
    out["core.Trace.from_rounds.self_s"] = span_stats("core.Trace.from_rounds")[2]

    for name in ("regularized_argmin", "bregman_prox"):
        calls, _, own = tracer.kernel(f"regularizers.{name}")
        out[f"regularizers.{name}.calls"] = calls
        out[f"regularizers.{name}.self_s"] = own

    for fn in METRIC_FUNCTIONS:
        out[f"metrics.{fn}.self_s"] = span_stats(f"metrics.{fn}")[2]

    solves, out["nash.solve_zero_sum.calls"], out["nash.solve_zero_sum.self_s"] = span_stats(
        "nash.solve_zero_sum"
    )
    for label, lo, hi in SOLVE_BUCKETS:
        durations = [s.duration for s in solves if s.tag is not None and lo <= s.tag <= hi]
        out[f"nash.solve_zero_sum.p50_ms.{label}"] = percentile_ms(durations, 50)
    _, out["nash.spectral_radius_at_ne.calls"], out["nash.spectral_radius_at_ne.self_s"] = (
        span_stats("nash.spectral_radius_at_ne")
    )

    out["cli.parse_config.calls"], out["cli.parse_config.self_s"] = parse
    emits = tracer.spans("cli.emit_csv")
    emit_total = sum(s.duration for s in emits)
    out["cli.emit_csv.self_s"] = sum(s.self_s for s in emits)
    out["cli.emit_csv.rows"] = csv_rows
    out["cli.emit_csv.bytes"] = csv_bytes
    out["cli.emit_csv.rows_per_s"] = csv_rows / emit_total if emit_total else 0.0
    return out


# Which end-to-end metric, on which workloads, each layer metric should move.
GRIDS_VS = ("oblivious-grid", "nonoblivious-grid")
GRIDS = GRIDS_VS + ("self-play",)
ALL = GRIDS + ("equilibrium",)
MOVES = {
    "engine.record_oblivious_trace.calls": (("ops_per_s",), ("oblivious-grid",)),
    "engine.record_oblivious_trace.self_s": (("ops_per_s",), ("oblivious-grid",)),
    "engine.replay_distinct_ratio": (("ops_per_s",), ("oblivious-grid",)),
    "engine.run_vs_adversary.self_s": (("ops_per_s",), GRIDS_VS),
    "engine.run_self_play.self_s": (("ops_per_s",), ("self-play",)),
    "engine.resolve.calls": (("setup_s", "ops_per_s"), ALL),
    "engine.resolve.self_s": (("setup_s", "ops_per_s"), ALL),
    "engine.config_p50_ms": (("ops_per_s",), GRIDS),
    "engine.config_p90_ms": (("ops_per_s",), GRIDS),
    "engine.grid_run.wall_s": (("ops_per_s",), ("nonoblivious-grid",)),
    "engine.grid_run.busy_s": (("ops_per_s",), ("nonoblivious-grid",)),
    "engine.grid_run.overlap": (("ops_per_s",), ("nonoblivious-grid",)),
    **{
        f"learners.{cls_name}.step.{suffix}": (("ops_per_s",), GRIDS_VS)
        for cls_name in LEARNER_CLASSES
        for suffix in ("calls", "us_per_call")
    },
    "learners.amwu_step.calls": (("ops_per_s",), ("self-play",)),
    "learners.amwu_step.us_per_call": (("ops_per_s",), ("self-play",)),
    "core.check.calls": (("ops_per_s",), GRIDS_VS),
    "core.check.self_s": (("ops_per_s",), GRIDS_VS),
    "core.checks_per_round": (("ops_per_s",), GRIDS_VS),
    "core.Trace.from_rounds.self_s": (("ops_per_s",), GRIDS),
    "regularizers.regularized_argmin.calls": (("ops_per_s",), GRIDS_VS),
    "regularizers.regularized_argmin.self_s": (("ops_per_s",), GRIDS_VS),
    "regularizers.bregman_prox.calls": (("ops_per_s",), GRIDS_VS),
    "regularizers.bregman_prox.self_s": (("ops_per_s",), GRIDS_VS),
    "metrics.average_loss.self_s": (("ops_per_s",), ("oblivious-grid",)),
    "metrics.external_regret.self_s": (("ops_per_s",), ("oblivious-grid",)),
    "metrics.dynamic_regret.self_s": (("ops_per_s",), ("oblivious-grid",)),
    "metrics.average_dynamic_regret.self_s": (("ops_per_s",), GRIDS_VS),
    "metrics.forward_comparators.self_s": (("ops_per_s",), ("oblivious-grid",)),
    "metrics.step_distances.self_s": (("ops_per_s",), ("oblivious-grid",)),
    "metrics.exploitability_series.self_s": (("ops_per_s",), ("self-play",)),
    "metrics.kl_series.self_s": (("ops_per_s",), ("self-play",)),
    "nash.solve_zero_sum.calls": (("ops_per_s",), ("equilibrium", "self-play")),
    "nash.solve_zero_sum.self_s": (("ops_per_s",), ("equilibrium", "self-play")),
    **{
        f"nash.solve_zero_sum.p50_ms.{label}": (("ops_per_s",), ("equilibrium",))
        for label, _, _ in SOLVE_BUCKETS
    },
    "nash.spectral_radius_at_ne.calls": (("ops_per_s",), ("equilibrium",)),
    "nash.spectral_radius_at_ne.self_s": (("ops_per_s",), ("equilibrium",)),
    "cli.parse_config.calls": (("setup_s",), GRIDS),
    "cli.parse_config.self_s": (("setup_s",), GRIDS),
    "cli.emit_csv.self_s": (("ops_per_s",), GRIDS),
    "cli.emit_csv.rows": (("ops_per_s",), GRIDS),
    "cli.emit_csv.bytes": (("ops_per_s",), GRIDS),
    "cli.emit_csv.rows_per_s": (("ops_per_s",), GRIDS),
    # the cost of tracing itself: traced runs are slower by this factor
    "bench.trace_overhead": ((), ALL),
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT = tuple(name for name in MOVES if name.endswith((".calls", ".rows", ".bytes"))) + (
    "core.checks_per_round",
    "engine.replay_distinct_ratio",
)
