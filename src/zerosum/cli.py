"""Config parsing, experiment presets, and CSV/JSON emission.

Configs are JSON documents that ``parse_config`` maps onto ``engine``'s specs,
which check every value and key.  Metric series go to CSV with the fixed header
``t,learner,metric,value,seed,adversary_eta`` (12 significant digits, rows
ordered by learner, metric, seed, adversary eta, round); each preset also
writes a JSON manifest recording the grid, the seeds it reads and the library version, and
``zerosum preset`` prints a ``<sha256>  <path>`` line for each of its two files.
``zerosum demo`` prints the last-iterate gaps of MWU, OMWU and AMWU in self-play
on one seeded random game, then that game's equilibrium and spectral certificates.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .core import MatrixGame, check_choice, check_keys, check_number
from .engine import (
    GAME_KINDS,
    AdversarySpec,
    AgentSpec,
    GameSpec,
    SimulationConfig,
    grid_run,
    make_random_game,
)
from .nash import solve_zero_sum, spectral_radius_at_ne

# Adversary learning-rate grid for the loss/regret presets.
ADVERSARY_ETA_GRID = tuple(round(0.5 - 0.05 * i, 2) for i in range(10))

# The presets' agents, each defined once: MWU, OMWU and AMWU at the common learning rate, the
# eta=1 OMWU that matches AMWU's relative weight between the latest loss and the regularizer,
# and ProdBR; a learner name means one agent in every grid preset and ``zerosum demo``.
AGENTS = {spec.name: spec for spec in (
    AgentSpec(kind="MWU", eta=0.01, name="MWU"),
    AgentSpec(kind="OMWU", eta=0.01, name="OMWU"),
    AgentSpec(kind="AMWU", eta=0.01, alpha=100.0, name="AMWU"),
    AgentSpec(kind="OMWU", eta=1.0, name="OMWU1"),
    AgentSpec(kind="ProdBR", name="ProdBR"),
)}
LAST_ROUND_AGENTS = tuple(AGENTS[name] for name in ("MWU", "OMWU", "AMWU", "OMWU1"))
VS_ADVERSARY_AGENTS = tuple(AGENTS[name] for name in ("MWU", "OMWU", "OMWU1", "AMWU", "ProdBR"))

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


def _require(obj: dict, key: str, prefix: str = ""):
    if key not in obj:
        raise ValueError(f"{prefix}{key}: missing required key")
    return obj[key]


def _object(obj: dict, key: str, prefix: str = "") -> dict:
    value = _require(obj, key, prefix)
    if not isinstance(value, dict):
        raise ValueError(f"{prefix}{key}: must be a JSON object, got {value!r}")
    return value


class _RepeatedKey(dict):
    """A JSON object that gives its key ``key`` more than once (the last value is kept)."""


def _json_object(pairs: list) -> dict:
    """``json.loads``' object hook: the pairs as a dict, a ``_RepeatedKey`` if a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj = _RepeatedKey(obj)
        obj.key = next(key for key, count in Counter(k for k, _ in pairs).items() if count > 1)
    return obj


def _reject_null_and_repeats(obj: dict, prefix: str = ""):
    """Reject a repeated key or a JSON null in ``obj`` or an object within it: a spec reads
    None as not given, and JSON alone keeps a repeated key's last value."""
    if isinstance(obj, _RepeatedKey):
        raise ValueError(f"{prefix}{obj.key}: repeated key")
    for key, value in obj.items():
        if value is None:
            raise ValueError(f"{prefix}{key}: must not be null")
        if isinstance(value, dict):
            _reject_null_and_repeats(value, f"{prefix}{key}.")


def _kind_spec(spec_class, obj: dict, where: str):
    """The spec ``obj`` gives, whose keys must be fields of ``spec_class``."""
    check_keys(obj, spec_class.__dataclass_fields__, where)
    _require(obj, "kind", f"{where}.")
    return spec_class(**obj)


def parse_config(text: str) -> SimulationConfig:
    """Parse a JSON simulation config into the engine's specs.

    Only JSON's own checks are made here: the document's shape, nulls, repeated
    keys, and keys that name no field; the specs check every value, and reject a key
    the kind does not read.  Each error names its key and is raised as a
    ``ConfigError``; a document that JSON cannot read, nested too deeply included,
    is ``malformed JSON``.  Defaults: the entropy, all metrics of the run mode,
    and a free exploit rate ``alpha`` 0 (or ``b``, for eta^(b-1)).
    """
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
    except (ValueError, RecursionError) as exc:  # bad syntax, too long an integer, too deep
        raise ConfigError(f"malformed JSON: {exc}") from None
    try:
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        check_keys(doc, SimulationConfig.__dataclass_fields__, "config")
        _reject_null_and_repeats(doc)
        game_doc = _object(doc, "game")
        check_keys(game_doc, GAME_KINDS, "game")
        if len(game_doc) != 1:
            raise ValueError("game: give one of 'random' or 'csv'")
        if "csv" in game_doc:
            game = GameSpec(kind="csv", path=game_doc["csv"])
        else:
            rnd = _object(game_doc, "random", "game.")
            check_keys(rnd, GAME_KINDS["random"], "game.random")
            game = GameSpec(kind="random", **rnd)
        agent = _kind_spec(AgentSpec, _object(doc, "agent"), "agent")
        adversary = _kind_spec(AdversarySpec, _object(doc, "adversary"), "adversary")
        return SimulationConfig(game, doc.get("horizon"), agent, adversary,
                                doc.get("metrics", ()), doc.get("output"))
    except RecursionError as exc:  # a nesting the decoder took but the null walk cannot
        raise ConfigError(f"malformed JSON: {exc}") from None
    except ValueError as exc:  # a check here or a spec's
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class SeriesRecord:
    """One named metric series destined for a CSV row block."""

    learner: str
    metric: str
    values: np.ndarray
    seed: int | None = None
    adversary_eta: float | None = None


CSV_HEADER = "t,learner,metric,value,seed,adversary_eta"


def emit_csv(records, path) -> None:
    """Write metric series rows with the fixed schema.

    Rows are ordered by (learner, metric, seed, adversary_eta, t); values
    carry 12 significant digits, so identical inputs produce byte-identical
    files.
    """
    records = sorted(records, key=lambda r: (
        r.learner, r.metric, -1 if r.seed is None else r.seed,
        -1.0 if r.adversary_eta is None else r.adversary_eta,
    ))
    with open(path, "wb") as fh:
        fh.write(f"{CSV_HEADER}\n".encode())
        for rec in records:
            # One % call formats the whole series: a call a row costs more than its digits.
            # On bytes, not str: str % calls that long raised a 1,500-series emit's peak RSS
            # by over 1 MB, and need an encode.  The names escape % (the rest are numbers).
            prefix = f"{rec.learner},{rec.metric},".replace("%", "%%")
            seed = "" if rec.seed is None else rec.seed
            eta = "" if rec.adversary_eta is None else f"{rec.adversary_eta:.12g}"
            values = rec.values.tolist()
            cells = [None] * (2 * len(values))  # t, value, t, value, ...
            cells[::2], cells[1::2] = range(1, len(values) + 1), values
            fh.write((f"%d,{prefix}%.12g,{seed},{eta}\n".encode() * len(values)) % tuple(cells))


def _records(config: SimulationConfig, series: dict) -> list[SeriesRecord]:
    learner, seed, eta = config.agent.display_name, config.game.seed, config.adversary.eta
    return [SeriesRecord(learner, metric, values, seed, eta) for metric, values in series.items()]


@dataclass(frozen=True)
class Preset:
    """A named experiment: its CSV file, what makes its records, its manifest grid."""

    csv: str
    records: Callable  # seeds -> (records, failure lines)
    grid: dict
    seeded: bool = True  # do the records read the seeds? if not, the manifest lists none


def _grid_preset(csv, agents, horizon, adversary, metric_names, etas=(None,)) -> Preset:
    """Each agent against ``adversary`` at each eta, on each seed's random 20x20 game."""

    def records(seeds):
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
        for outcome in grid_run(configs):
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


def _certificate_records(seeds):
    """Spectral radii of both update rules at each certificate game's equilibrium
    (fixed games: ``seeds`` is not read)."""
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
        seeded=False,
    ),
}


def run_preset(name: str, output_dir, seeds) -> int:
    """Expand a named preset grid, run it, and write CSV plus manifest.

    Returns the number of failed runs (0 means full success).
    """
    preset = PRESETS[check_choice(name, "preset", PRESETS)]
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = list(seeds)
    records, failures = preset.records(seeds)
    emit_csv(records, out_dir / preset.csv)
    manifest = {
        "preset": name,
        "seeds": seeds if preset.seeded else [],
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
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.config}: not UTF-8 text ({exc})") from None
    config = parse_config(text)
    if (out := config.output) is not None and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        raise ValueError(f"output: must be a file in an existing directory, got {out!r}")
    (outcome,) = grid_run([config])
    if outcome.error is not None:
        raise ValueError(outcome.error)
    if config.output is not None:
        emit_csv(_records(config, outcome.series), config.output)
    else:
        summary = {
            metric: {"final": float(v[-1]), "mean": float(np.mean(v)), "std": float(np.std(v))}
            for metric, v in outcome.series.items()
        }
        print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def parse_number(text: str, key: str, low: float = -math.inf, above=False, integer=False):
    """The number that a flag's ``text`` spells, checked by
    ``core.check_number``; ``key`` is the flag."""
    try:
        value = int(text) if integer else float(text)
    except ValueError:
        value = text  # not a number: check_number names it
    return check_number(value, key, low, above, integer)


def parse_seeds(text: str) -> list[int]:
    """The seeds of a ``--seeds`` flag, a non-empty comma-separated list
    without repeats (a repeated seed's rows could not be told apart)."""
    try:
        seeds = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds: must be comma-separated integers, got {text!r}") from None
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"--seeds: must not repeat a seed, got {text!r}")
    return seeds


def _cmd_preset(args) -> int:
    failures = run_preset(args.name, args.out, parse_seeds(args.seeds))
    out_dir = Path(args.out)
    for path in (out_dir / PRESETS[args.name].csv, out_dir / "manifest.json"):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")
    return 1 if failures else 0


def _cmd_solve(args) -> int:
    ne = solve_zero_sum(MatrixGame.from_csv(args.matrix))
    f, y = ne.f_star.tolist(), ne.y_star.tolist()
    doc = {"f_star": f, "y_star": y, "value": ne.value, "gap": ne.gap}
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_certify(args) -> int:
    eta = parse_number(args.eta, "--eta", 0, above=True)
    alpha = parse_number(args.alpha, "--alpha", 0)
    game = MatrixGame.from_csv(args.matrix)
    ne = solve_zero_sum(game)
    rho = spectral_radius_at_ne(game, ne, eta, alpha)
    doc = {"eta": eta, "alpha": alpha, "spectral_radius": rho}
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_demo(args) -> int:
    seed = parse_number(args.seed, "--seed", integer=True)
    size = parse_number(args.size, "--size", 2, integer=True)
    T = parse_number(args.horizon, "--horizon", 2, integer=True)
    game = GameSpec(kind="random", n=size, m=size, seed=seed)
    amwu = AGENTS["AMWU"]
    agents = [("MWU", AGENTS["MWU"]), ("OMWU", AGENTS["OMWU"]),
              (f"AMWU(alpha={amwu.alpha:g})", amwu)]
    outcomes = grid_run([
        SimulationConfig(game, T, spec, AdversarySpec(kind="self_play"), ("exploitability",))
        for _, spec in agents
    ])
    for outcome in outcomes:
        if outcome.error is not None:
            raise ValueError(outcome.error)
    unit = game.resolve().to_unit_range()  # the game the configs played
    ne = solve_zero_sum(unit)
    rhos = [spectral_radius_at_ne(unit, ne, CERTIFICATE_ETA, alpha)
            for _, alpha in CERTIFICATE_ALPHAS]

    checkpoints = sorted({c for c in (100, 1000, T // 2, T) if c <= T})
    print(f"random {size}x{size} game, seed {seed}, T={T}")
    print(f"{'agent':>18} " + " ".join(f"t={c:<8d}" for c in checkpoints))
    for (label, _), outcome in zip(agents, outcomes):
        gaps = " ".join(f"{outcome.series['exploitability'][c - 1]:<10.5f}" for c in checkpoints)
        print(f"{label:>18} {gaps}")
    print(f"\nequilibrium value {ne.value:.6f} (duality gap {ne.gap:.2e})")
    for (_, alpha), rho in zip(CERTIFICATE_ALPHAS, rhos):
        label = f"exploit rate {alpha:g}" if alpha else "plain"
        print(f"spectral radius at the equilibrium, {label}: {rho:.6f}")
    return 0


class ArgumentParser(argparse.ArgumentParser):
    """An argparse parser (and subparsers) whose bad-flag errors raise ValueError."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None) -> int:
    parser = ArgumentParser(
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
    p_preset.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seed list")
    p_preset.set_defaults(func=_cmd_preset)

    p_solve = sub.add_parser("solve", help="solve a matrix game from CSV, print the equilibrium")
    p_solve.add_argument("matrix", help="path to a payoff matrix CSV")
    p_solve.set_defaults(func=_cmd_solve)

    p_cert = sub.add_parser("certify", help="spectral radius of the self-play update at the NE")
    p_cert.add_argument("matrix", help="path to a payoff matrix CSV")
    p_cert.add_argument("--eta", required=True)
    p_cert.add_argument("--alpha", required=True)
    p_cert.set_defaults(func=_cmd_certify)

    p_demo = sub.add_parser("demo", help="last-iterate gaps of MWU, OMWU and AMWU in self-play")
    p_demo.add_argument("--seed", default="12", help="seed of the random game")
    p_demo.add_argument("--size", default="20", help="actions per side, at least 2")
    p_demo.add_argument("--horizon", default="20000", help="rounds, at least 2")
    p_demo.set_defaults(func=_cmd_demo)

    # A bad flag, or a ValueError or OSError from the command, ends in one error: line and exit
    # code 2.  numpy's warnings are silenced, as every result is checked before it is reported
    # (a finite payoff, a certified gap, a finite Jacobian, core.check_rounds).
    try:
        with np.errstate(all="ignore"):
            args = parser.parse_args(argv)
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
