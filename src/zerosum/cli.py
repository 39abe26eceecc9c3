"""Config parsing, experiment presets, and CSV/JSON emission.

Configs are JSON documents; metric series go to CSV with the fixed header
``t,learner,metric,value,seed,adversary_eta`` (12 significant digits, rows
ordered by learner, metric, seed, round); each preset also writes a JSON
manifest recording the grid, seeds, and library version.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import MatrixGame
from .engine import (
    ADVERSARY_METRICS,
    SELF_PLAY_METRICS,
    AdversarySpec,
    AgentSpec,
    GameSpec,
    SimulationConfig,
    grid_run,
    make_random_game,
    run_self_play,
    run_vs_adversary,
)
from .nash import solve_zero_sum, spectral_radius_at_ne

PRESET_NAMES = ("oblivious-loss", "nonoblivious-regret", "last-round", "spectral-certificate")

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


_AGENT_KEYS = {"kind", "eta", "alpha", "b", "regularizer", "name"}
_ADVERSARY_KEYS = {"kind", "eta", "recorder_eta"}
_TOP_KEYS = {"game", "horizon", "agent", "adversary", "metrics", "output"}
_AGENT_KINDS = {
    "FTRL", "OFTRL", "AFTRL", "AMD", "MWU", "OMWU", "AMWU",
    "BestResponse", "ProdBR", "DoublingAFTRL",
}
_ADVERSARY_KINDS = {"oblivious_mwu", "nonoblivious_mwu", "self_play"}


def _reject_unknown(obj: dict, allowed: set, where: str):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


def parse_config(text: str) -> SimulationConfig:
    """Parse and validate a JSON simulation config.

    Unknown keys are rejected and every error names the offending key.
    Defaults: regularizer "entropy"; metrics all metrics for the run mode.
    An AMWU/AFTRL agent may give ``b`` instead of ``alpha``, which resolves
    to alpha = eta^(b-1).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")

    game_doc = _require(doc, "game", "config")
    _reject_unknown(game_doc, {"random", "csv"}, "game")
    if "random" in game_doc and "csv" in game_doc:
        raise ConfigError("game: give either 'random' or 'csv', not both")
    if "random" in game_doc:
        rnd = game_doc["random"]
        _reject_unknown(rnd, {"n", "m", "seed"}, "game.random")
        n = _require(rnd, "n", "game.random")
        m = _require(rnd, "m", "game.random")
        seed = _require(rnd, "seed", "game.random")
        if not isinstance(n, int) or n < 2:
            raise ConfigError(f"game.random.n: must be an integer >= 2, got {n!r}")
        if not isinstance(m, int) or m < 2:
            raise ConfigError(f"game.random.m: must be an integer >= 2, got {m!r}")
        if not isinstance(seed, int):
            raise ConfigError(f"game.random.seed: must be an integer, got {seed!r}")
        game = GameSpec(kind="random", n=n, m=m, seed=seed)
    elif "csv" in game_doc:
        game = GameSpec(kind="csv", path=str(game_doc["csv"]))
    else:
        raise ConfigError("game: missing required key 'random' or 'csv'")

    horizon = _require(doc, "horizon", "config")
    if not isinstance(horizon, int) or horizon < 2:
        raise ConfigError(f"horizon: must be an integer >= 2, got {horizon!r}")

    agent_doc = _require(doc, "agent", "config")
    _reject_unknown(agent_doc, _AGENT_KEYS, "agent")
    kind = _require(agent_doc, "kind", "agent")
    if kind not in _AGENT_KINDS:
        raise ConfigError(f"agent.kind: unknown kind {kind!r}; choose from {sorted(_AGENT_KINDS)}")
    eta = agent_doc.get("eta")
    if eta is not None and (not isinstance(eta, (int, float)) or eta <= 0):
        raise ConfigError(f"agent.eta: must be positive, got {eta!r}")
    if eta is None and kind not in ("BestResponse", "ProdBR"):
        raise ConfigError(f"agent.eta: required for kind {kind!r}")
    alpha = agent_doc.get("alpha")
    b = agent_doc.get("b")
    if alpha is not None and b is not None:
        raise ConfigError("agent.alpha: give either 'alpha' or 'b', not both")
    if alpha is not None and alpha < 0:
        raise ConfigError(f"agent.alpha: must be nonnegative, got {alpha!r}")
    regularizer = agent_doc.get("regularizer", "entropy")
    if regularizer not in ("entropy", "squared_l2"):
        raise ConfigError(f"agent.regularizer: unknown regularizer {regularizer!r}")
    agent = AgentSpec(
        kind=kind,
        eta=float(eta) if eta is not None else None,
        alpha=float(alpha) if alpha is not None else None,
        b=float(b) if b is not None else None,
        regularizer=regularizer,
        name=agent_doc.get("name"),
    )

    adv_doc = _require(doc, "adversary", "config")
    _reject_unknown(adv_doc, _ADVERSARY_KEYS, "adversary")
    adv_kind = _require(adv_doc, "kind", "adversary")
    if adv_kind not in _ADVERSARY_KINDS:
        raise ConfigError(
            f"adversary.kind: unknown kind {adv_kind!r}; choose from {sorted(_ADVERSARY_KINDS)}"
        )
    adv_eta = adv_doc.get("eta")
    if adv_kind != "self_play" and (adv_eta is None or adv_eta <= 0):
        raise ConfigError(f"adversary.eta: must be positive for kind {adv_kind!r}")
    adversary = AdversarySpec(
        kind=adv_kind,
        eta=float(adv_eta) if adv_eta is not None else None,
        recorder_eta=(
            float(adv_doc["recorder_eta"]) if adv_doc.get("recorder_eta") is not None else None
        ),
    )

    metric_pool = SELF_PLAY_METRICS if adv_kind == "self_play" else ADVERSARY_METRICS
    metrics_names = doc.get("metrics")
    if metrics_names is None:
        metrics_names = metric_pool
    else:
        if not isinstance(metrics_names, list):
            raise ConfigError(f"metrics: must be a list of metric names, got {metrics_names!r}")
        for name in metrics_names:
            if name not in metric_pool:
                raise ConfigError(f"metrics: unknown metric {name!r}; choose from {metric_pool}")
    return SimulationConfig(
        game=game,
        horizon=horizon,
        agent=agent,
        adversary=adversary,
        metrics=tuple(metrics_names),
        output=doc.get("output"),
    )


def config_to_json(config: SimulationConfig) -> str:
    """Serialize a config back to its JSON document form."""
    if config.game.kind == "random":
        game = {"random": {"n": config.game.n, "m": config.game.m, "seed": config.game.seed}}
    else:
        game = {"csv": config.game.path}
    agent = {"kind": config.agent.kind}
    for key in ("eta", "alpha", "b"):
        val = getattr(config.agent, key)
        if val is not None:
            agent[key] = val
    agent["regularizer"] = config.agent.regularizer
    if config.agent.name is not None:
        agent["name"] = config.agent.name
    adversary = {"kind": config.adversary.kind}
    if config.adversary.eta is not None:
        adversary["eta"] = config.adversary.eta
    if config.adversary.recorder_eta is not None:
        adversary["recorder_eta"] = config.adversary.recorder_eta
    doc = {
        "game": game,
        "horizon": config.horizon,
        "agent": agent,
        "adversary": adversary,
        "metrics": list(config.metrics),
    }
    if config.output is not None:
        doc["output"] = config.output
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


def _vs_adversary_grid(kind: str, seeds, horizon: int) -> list[SimulationConfig]:
    configs = []
    for adv_eta in ADVERSARY_ETA_GRID:
        for seed in seeds:
            for agent in VS_ADVERSARY_AGENTS:
                configs.append(
                    SimulationConfig(
                        game=GameSpec(kind="random", n=20, m=20, seed=seed),
                        horizon=horizon,
                        agent=agent,
                        adversary=AdversarySpec(kind=kind, eta=adv_eta),
                        metrics=(
                            ("average_loss",) if kind == "oblivious_mwu"
                            else ("average_dynamic_regret",)
                        ),
                    )
                )
    return configs


def _collect_records(outcomes) -> tuple[list[SeriesRecord], list[str]]:
    records, failures = [], []
    for out in outcomes:
        if out.error is not None:
            failures.append(f"config {out.index}: {out.error}")
            continue
        for metric, values in out.series.items():
            records.append(
                SeriesRecord(
                    learner=out.config.agent.display_name,
                    metric=metric,
                    values=values,
                    seed=out.config.game.seed,
                    adversary_eta=out.config.adversary.eta,
                )
            )
    return records, failures


def run_preset(name: str, output_dir, seeds, parallelism: int = 4) -> int:
    """Expand a named preset grid, run it, and write CSV plus manifest.

    Returns the number of failed runs (0 means full success).
    """
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}")
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = list(seeds)
    manifest = {
        "preset": name,
        "seeds": seeds,
        "version": __version__,
        "outputs": [],
        "failures": [],
    }

    if name == "oblivious-loss":
        configs = _vs_adversary_grid("oblivious_mwu", seeds, OBLIVIOUS_HORIZON)
        records, failures = _collect_records(grid_run(configs, parallelism))
        csv_path = out_dir / "oblivious_loss.csv"
        emit_csv(records, csv_path)
        manifest["grid"] = {
            "adversary_eta": list(ADVERSARY_ETA_GRID),
            "agents": [a.display_name for a in VS_ADVERSARY_AGENTS],
            "horizon": OBLIVIOUS_HORIZON,
            "game": "random 20x20",
        }
        manifest["outputs"].append(csv_path.name)
        manifest["failures"] = failures
    elif name == "nonoblivious-regret":
        configs = _vs_adversary_grid("nonoblivious_mwu", seeds, NONOBLIVIOUS_HORIZON)
        records, failures = _collect_records(grid_run(configs, parallelism))
        csv_path = out_dir / "nonoblivious_regret.csv"
        emit_csv(records, csv_path)
        manifest["grid"] = {
            "adversary_eta": list(ADVERSARY_ETA_GRID),
            "agents": [a.display_name for a in VS_ADVERSARY_AGENTS],
            "horizon": NONOBLIVIOUS_HORIZON,
            "game": "random 20x20",
        }
        manifest["outputs"].append(csv_path.name)
        manifest["failures"] = failures
    elif name == "last-round":
        configs = [
            SimulationConfig(
                game=GameSpec(kind="random", n=20, m=20, seed=seed),
                horizon=LAST_ROUND_HORIZON,
                agent=agent,
                adversary=AdversarySpec(kind="self_play"),
                metrics=("exploitability", "kl_to_ne"),
            )
            for seed in seeds
            for agent in LAST_ROUND_AGENTS
        ]
        records, failures = _collect_records(grid_run(configs, parallelism))
        csv_path = out_dir / "last_round.csv"
        emit_csv(records, csv_path)
        manifest["grid"] = {
            "agents": [a.display_name for a in LAST_ROUND_AGENTS],
            "horizon": LAST_ROUND_HORIZON,
            "game": "random 20x20",
        }
        manifest["outputs"].append(csv_path.name)
        manifest["failures"] = failures
    else:  # spectral-certificate
        records = []
        failures = []
        games = [("matching_pennies", None, MATCHING_PENNIES_UNIT)]
        for seed in CERTIFICATE_3X3_SEEDS:
            games.append((f"centered_3x3_{seed}", seed, centered_random_game(3, 3, seed)))
        for label, seed, game in games:
            try:
                ne = solve_zero_sum(game)
                for agent_name, alpha in CERTIFICATE_ALPHAS:
                    rho = spectral_radius_at_ne(game, ne, CERTIFICATE_ETA, alpha)
                    records.append(
                        SeriesRecord(
                            learner=agent_name,
                            metric=f"spectral_radius_{label}",
                            values=np.array([rho]),
                            seed=seed,
                        )
                    )
            except Exception as exc:  # noqa: BLE001 - recorded per game
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
        csv_path = out_dir / "spectral_certificate.csv"
        emit_csv(records, csv_path)
        manifest["grid"] = {
            "eta": CERTIFICATE_ETA,
            "alphas": dict(CERTIFICATE_ALPHAS),
            "games": [g[0] for g in games],
        }
        manifest["outputs"].append(csv_path.name)
        manifest["failures"] = failures

    with open(out_dir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return len(manifest["failures"])


def _cmd_run(args) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    config = parse_config(text)
    if config.adversary.kind == "self_play":
        _, _, series, _ = run_self_play(config)
    else:
        _, series, _ = run_vs_adversary(config)
    records = [
        SeriesRecord(
            learner=config.agent.display_name,
            metric=metric,
            values=values,
            seed=config.game.seed,
            adversary_eta=config.adversary.eta,
        )
        for metric, values in series.items()
    ]
    if config.output is not None:
        emit_csv(records, config.output)
    else:
        summary = {
            metric: {"final": float(v[-1]), "mean": float(np.mean(v)), "std": float(np.std(v))}
            for metric, v in series.items()
        }
        print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _cmd_preset(args) -> int:
    seeds = [int(tok) for tok in args.seeds.split(",")] if args.seeds else [1, 2, 3, 4, 5]
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
    p_preset.add_argument("name", help=f"one of: {', '.join(PRESET_NAMES)}")
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
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
