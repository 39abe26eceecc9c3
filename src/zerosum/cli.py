"""Config parsing, experiment presets, and CSV/JSON emission.

Configs are JSON documents; metric series go to CSV with the fixed header
``t,learner,metric,value,seed,adversary_eta`` (12 significant digits, rows
ordered by learner, metric, seed, round); each preset also writes a JSON
manifest recording the grid, seeds, and library version.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .core import MatrixGame
from .engine import (
    ADVERSARY_KINDS,
    AGENT_KINDS,
    AdversarySpec,
    AgentSpec,
    GameSpec,
    SimulationConfig,
    grid_run,
    make_random_game,
    run_config,
)
from .nash import solve_zero_sum, spectral_radius_at_ne
from .regularizers import REGULARIZERS

# Adversary learning-rate grid for the loss/regret presets.
ADVERSARY_ETA_GRID = tuple(round(0.5 - 0.05 * i, 2) for i in range(10))

# Self-play agents at the common learning rate, plus the eta=1 variant that
# matches AMWU's relative weight between the latest loss and the regularizer.
LAST_ROUND_AGENTS = (
    AgentSpec(kind="MWU", eta=0.01, name="MWU"),
    AgentSpec(kind="OMWU", eta=0.01, name="OMWU"),
    AgentSpec(kind="AMWU", eta=0.01, alpha=100.0, name="AMWU"),
    AgentSpec(kind="OMWU", eta=1.0, name="OMWU1"),
)

VS_ADVERSARY_AGENTS = (
    AgentSpec(kind="MWU", eta=0.01, name="MWU"),
    AgentSpec(kind="OMWU", eta=0.01, name="OMWU"),
    AgentSpec(kind="OMWU", eta=1.0, name="OMWU1"),
    AgentSpec(kind="AMWU", eta=0.01, alpha=100.0, name="AMWU"),
    AgentSpec(kind="ProdBR", name="ProdBR"),
)

OBLIVIOUS_HORIZON = 10_000
NONOBLIVIOUS_HORIZON = 10_000
LAST_ROUND_HORIZON = 100_000

# Spectral-certificate games: win/lose matching pennies plus centered random
# 3x3 games (seeds give a unique interior equilibrium).  The certificate is
# scale-sensitive, so these are certified exactly as constructed.
CERTIFICATE_ETA = 0.1
CERTIFICATE_ALPHAS = (("AMWU", 10.0), ("MWU", 0.0))
CERTIFICATE_3X3_SEEDS = (19, 38, 52, 192, 226)

MATCHING_PENNIES_UNIT = MatrixGame(np.array([[1.0, 0.0], [0.0, 1.0]]))


def centered_random_game(n: int, m: int, seed: int) -> MatrixGame:
    """A seeded game with i.i.d. uniform entries on [-1, 1]."""
    base = make_random_game(n, m, seed)
    return MatrixGame(2.0 * base.payoff - 1.0)


class ConfigError(ValueError):
    pass


_TOP_KEYS = {"game", "horizon", "agent", "adversary", "metrics", "output"}
_REQUIRED = {"horizon", "n", "m", "seed", "eta"}  # wherever they are read


def _reject_unknown(obj: dict, allowed, where: str):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        accepted = ", ".join(sorted(allowed))
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}; accepted: {accepted}")


def _require(obj: dict, key: str, prefix: str = ""):
    if key not in obj:
        raise ConfigError(f"{prefix}{key}: missing required key")
    return obj[key]


def _object(obj: dict, key: str, prefix: str = "") -> dict:
    value = _require(obj, key, prefix)
    if not isinstance(value, dict):
        raise ConfigError(f"{prefix}{key}: must be a JSON object, got {value!r}")
    return value


def _choice(value, key: str, table):
    if not isinstance(value, str) or value not in table:
        raise ConfigError(f"{key}: unknown value {value!r}; choose from {', '.join(table)}")
    return value


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key}: must be a string, got {value!r}")
    return value


def _number(value, key: str, low: float = -math.inf, above: bool = False, integer: bool = False):
    """``value`` if it is a number but not a bool, finite (or an integer,
    if ``integer``), and at least ``low`` (above it, if ``above``)."""
    try:
        ok = (
            isinstance(value, int if integer else (int, float))
            and not isinstance(value, bool)
            and (integer or math.isfinite(value))
            and (value > low if above else value >= low)
        )
    except OverflowError:  # an integer too large for a float
        ok = False
    if not ok:
        bound = "" if low == -math.inf else f" {'>' if above else '>='} {low:g}"
        want = "an integer" if integer else "a finite number"
        raise ConfigError(f"{key}: must be {want}{bound}, got {value!r}")
    return value if integer else float(value)


# How the value of each config key is checked, whichever object holds it.
_CHECKS = {
    **dict.fromkeys(("horizon", "n", "m"), lambda v, key: _number(v, key, 2, integer=True)),
    "seed": lambda v, key: _number(v, key, integer=True),
    **dict.fromkeys(("eta", "recorder_eta"), lambda v, key: _number(v, key, 0, above=True)),
    "alpha": lambda v, key: _number(v, key, 0),
    "b": _number,
    "regularizer": lambda v, key: _choice(v, key, REGULARIZERS),
    **dict.fromkeys(("name", "output"), _string),
}


def _fields(obj: dict, keys, prefix: str = "") -> dict:
    """The checked values of the ``keys`` that ``obj`` gives (or must give)."""
    return {
        key: _CHECKS[key](_require(obj, key, prefix), prefix + key)
        for key in keys
        if key in obj or key in _REQUIRED
    }


def _kind(obj: dict, where: str, table: dict, *common):
    """The kind named by ``obj`` and its table entry; ``obj`` may hold only
    the keys that kind reads and the ``common`` ones."""
    kind = _choice(_require(obj, "kind", f"{where}."), f"{where}.kind", table)
    _reject_unknown(obj, ("kind", *common, *table[kind].keys), f"{where} (kind {kind!r})")
    return kind, table[kind]


def parse_config(text: str) -> SimulationConfig:
    """Parse and validate a JSON simulation config.

    An agent or adversary may give only the keys its kind reads (the
    ``keys`` of ``engine.AGENT_KINDS`` and ``engine.ADVERSARY_KINDS``), and
    every error names the offending key.  Defaults: regularizer "entropy";
    metrics all metrics for the run mode; a kind with a free exploit rate
    takes ``alpha`` (default 0) or ``b``, which resolves to eta^(b-1).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")

    game_doc = _object(doc, "game")
    _reject_unknown(game_doc, {"random", "csv"}, "game")
    if len(game_doc) != 1:
        raise ConfigError("game: give one of 'random' or 'csv'")
    if "csv" in game_doc:
        game = GameSpec(kind="csv", path=_string(game_doc["csv"], "game.csv"))
    else:
        rnd = _object(game_doc, "random", "game.")
        _reject_unknown(rnd, {"n", "m", "seed"}, "game.random")
        game = GameSpec(kind="random", **_fields(rnd, ("n", "m", "seed"), "game.random."))
    top = _fields(doc, ("horizon", "output"))

    agent_doc = _object(doc, "agent")
    kind, rule = _kind(agent_doc, "agent", AGENT_KINDS, "name")
    fields = _fields(agent_doc, ("name", *rule.keys), "agent.")
    if "alpha" in fields and "b" in fields:
        raise ConfigError("agent.alpha: give either 'alpha' or 'b', not both")
    agent = AgentSpec(kind=kind, **fields)
    try:
        agent.resolved_alpha()
    except OverflowError:
        raise ConfigError(f"agent.b: eta^(b-1) overflows, b={agent.b!r}") from None

    adv_doc = _object(doc, "adversary")
    adv_kind, adv_rule = _kind(adv_doc, "adversary", ADVERSARY_KINDS)
    adversary = AdversarySpec(kind=adv_kind, **_fields(adv_doc, adv_rule.keys, "adversary."))
    if adv_kind == "self_play" and not rule.self_play:
        able = ", ".join(k for k, r in AGENT_KINDS.items() if r.self_play)
        raise ConfigError(f"agent.kind: self_play needs one of {able}, got {kind!r}")

    names = doc.get("metrics", [])
    if not isinstance(names, list):
        raise ConfigError(f"metrics: must be a list of metric names, got {names!r}")
    return SimulationConfig(
        game=game,
        horizon=top["horizon"],
        agent=agent,
        adversary=adversary,
        metrics=tuple(_choice(name, "metrics", adv_rule.metrics) for name in names),
        output=top.get("output"),
    )


def _given(obj, keys) -> dict:
    return {key: getattr(obj, key) for key in keys if getattr(obj, key) is not None}


def config_to_json(config: SimulationConfig) -> str:
    """Serialize a config back to its JSON document form, with only the
    keys each kind reads."""
    if config.game.kind == "random":
        game = {"random": _given(config.game, ("n", "m", "seed"))}
    else:
        game = {"csv": config.game.path}
    adversary = config.adversary
    doc = {
        "game": game,
        "agent": _given(config.agent, ("kind", "name", *config.agent.rule.keys)),
        "adversary": _given(adversary, ("kind", *ADVERSARY_KINDS[adversary.kind].keys)),
        "metrics": list(config.metrics),
        **_given(config, ("horizon", "output")),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


@dataclass(frozen=True)
class SeriesRecord:
    """One named metric series destined for a CSV row block."""

    learner: str
    metric: str
    values: np.ndarray
    seed: int | None = None
    adversary_eta: float | None = None


CSV_HEADER = "t,learner,metric,value,seed,adversary_eta"


def _fmt(x) -> str:
    return "" if x is None else f"{x:.12g}"


def emit_csv(records, path) -> None:
    """Write metric series rows with the fixed schema.

    Rows are ordered by (learner, metric, seed, t); values carry 12
    significant digits, so identical inputs produce byte-identical files.
    """
    records = sorted(
        records,
        key=lambda r: (
            r.learner,
            r.metric,
            r.seed if r.seed is not None else -1,
            r.adversary_eta if r.adversary_eta is not None else -1.0,
        ),
    )
    lines = [CSV_HEADER]
    for rec in records:
        seed_s = "" if rec.seed is None else str(rec.seed)
        eta_s = _fmt(rec.adversary_eta)
        prefix = f"{rec.learner},{rec.metric},"
        for t, v in enumerate(rec.values, start=1):
            lines.append(f"{t},{prefix}{v:.12g},{seed_s},{eta_s}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _records(config: SimulationConfig, series: dict) -> list[SeriesRecord]:
    learner, seed, eta = config.agent.display_name, config.game.seed, config.adversary.eta
    return [SeriesRecord(learner, metric, values, seed, eta) for metric, values in series.items()]


@dataclass(frozen=True)
class Preset:
    """A named experiment: its CSV file, what makes its records, its manifest grid."""

    csv: str
    records: Callable  # (seeds, parallelism) -> (records, failure lines)
    grid: dict


def _grid_preset(csv, agents, horizon, adversary, metric_names, etas=(None,)) -> Preset:
    """Each agent against ``adversary`` at each eta, on each seed's random 20x20 game."""

    def records(seeds, parallelism):
        configs = [
            SimulationConfig(
                game=GameSpec(kind="random", n=20, m=20, seed=seed),
                horizon=horizon,
                agent=agent,
                adversary=AdversarySpec(kind=adversary, eta=eta),
                metrics=metric_names,
            )
            for eta in etas
            for seed in seeds
            for agent in agents
        ]
        out, failures = [], []
        for outcome in grid_run(configs, parallelism):
            if outcome.error is not None:
                failures.append(f"config {outcome.index}: {outcome.error}")
            else:
                out += _records(outcome.config, outcome.series)
        return out, failures

    grid = {"agents": [a.display_name for a in agents], "horizon": horizon, "game": "random 20x20"}
    if etas != (None,):
        grid["adversary_eta"] = list(etas)
    return Preset(csv, records, grid)


_CERTIFICATE_GAMES = [("matching_pennies", None, MATCHING_PENNIES_UNIT)] + [
    (f"centered_3x3_{seed}", seed, centered_random_game(3, 3, seed))
    for seed in CERTIFICATE_3X3_SEEDS
]


def _certificate_records(seeds, parallelism):
    """Spectral radii of both update rules at each certificate game's equilibrium."""
    records, failures = [], []
    for label, seed, game in _CERTIFICATE_GAMES:
        try:
            ne = solve_zero_sum(game)
            for agent_name, alpha in CERTIFICATE_ALPHAS:
                rho = spectral_radius_at_ne(game, ne, CERTIFICATE_ETA, alpha)
                records.append(
                    SeriesRecord(agent_name, f"spectral_radius_{label}", np.array([rho]), seed)
                )
        except Exception as exc:  # noqa: BLE001 - recorded per game
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
    return records, failures


PRESETS = {
    "oblivious-loss": _grid_preset(
        "oblivious_loss.csv", VS_ADVERSARY_AGENTS, OBLIVIOUS_HORIZON,
        "oblivious_mwu", ("average_loss",), ADVERSARY_ETA_GRID,
    ),
    "nonoblivious-regret": _grid_preset(
        "nonoblivious_regret.csv", VS_ADVERSARY_AGENTS, NONOBLIVIOUS_HORIZON,
        "nonoblivious_mwu", ("average_dynamic_regret",), ADVERSARY_ETA_GRID,
    ),
    "last-round": _grid_preset(
        "last_round.csv", LAST_ROUND_AGENTS, LAST_ROUND_HORIZON,
        "self_play", ("exploitability", "kl_to_ne"),
    ),
    "spectral-certificate": Preset(
        "spectral_certificate.csv",
        _certificate_records,
        {
            "eta": CERTIFICATE_ETA,
            "alphas": dict(CERTIFICATE_ALPHAS),
            "games": [label for label, _, _ in _CERTIFICATE_GAMES],
        },
    ),
}


def run_preset(name: str, output_dir, seeds, parallelism: int = 4) -> int:
    """Expand a named preset grid, run it, and write CSV plus manifest.

    Returns the number of failed runs (0 means full success).
    """
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; valid presets: {', '.join(PRESETS)}")
    preset = PRESETS[name]
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = list(seeds)
    records, failures = preset.records(seeds, parallelism)
    emit_csv(records, out_dir / preset.csv)
    manifest = {
        "preset": name,
        "seeds": seeds,
        "version": __version__,
        "outputs": [preset.csv],
        "failures": failures,
        "grid": preset.grid,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return len(failures)


def _cmd_run(args) -> int:
    config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    series = run_config(config)
    if config.output is not None:
        emit_csv(_records(config, series), config.output)
    else:
        summary = {
            metric: {"final": float(v[-1]), "mean": float(np.mean(v)), "std": float(np.std(v))}
            for metric, v in series.items()
        }
        print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _cmd_preset(args) -> int:
    try:
        seeds = [int(tok) for tok in args.seeds.split(",")] if args.seeds else [1, 2, 3, 4, 5]
    except ValueError:
        raise ConfigError(f"--seeds: must be comma-separated integers, got {args.seeds!r}") from None
    failures = run_preset(args.name, args.out, seeds, parallelism=args.parallelism)
    return 1 if failures else 0


def _cmd_solve(args) -> int:
    game = MatrixGame.from_csv(args.matrix)
    ne = solve_zero_sum(game)
    print(
        json.dumps(
            {
                "f_star": [float(v) for v in ne.f_star],
                "y_star": [float(v) for v in ne.y_star],
                "value": ne.value,
                "gap": ne.gap,
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def _cmd_certify(args) -> int:
    _number(args.eta, "--eta", 0, above=True)
    _number(args.alpha, "--alpha", 0)
    game = MatrixGame.from_csv(args.matrix)
    ne = solve_zero_sum(game)
    rho = spectral_radius_at_ne(game, ne, args.eta, args.alpha)
    print(
        json.dumps(
            {"eta": args.eta, "alpha": args.alpha, "spectral_radius": rho},
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zerosum",
        description="Online learners and last-iterate convergence in zero-sum matrix games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a JSON config")
    p_run.add_argument("config", help="path to a JSON config document")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named experiment preset")
    p_preset.add_argument("name", help=f"one of: {', '.join(PRESETS)}")
    p_preset.add_argument("--out", required=True, help="output directory")
    p_preset.add_argument("--seeds", default=None, help="comma-separated seed list")
    p_preset.add_argument("--parallelism", type=int, default=4)
    p_preset.set_defaults(func=_cmd_preset)

    p_solve = sub.add_parser("solve", help="solve a matrix game from CSV, print the equilibrium")
    p_solve.add_argument("matrix", help="path to a payoff matrix CSV")
    p_solve.set_defaults(func=_cmd_solve)

    p_cert = sub.add_parser("certify", help="spectral radius of the self-play update at the NE")
    p_cert.add_argument("matrix", help="path to a payoff matrix CSV")
    p_cert.add_argument("--eta", type=float, required=True)
    p_cert.add_argument("--alpha", type=float, required=True)
    p_cert.set_defaults(func=_cmd_certify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
