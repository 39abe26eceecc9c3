"""Deterministic simulation loops: seeded games, adversaries, and grids.

All randomness flows from a SplitMix64 sequence generator so that a given
(config, seed) pair reproduces bit-identical runs.  Games are affinely
normalized into [0, 1] before play so every loss vector delivered to a
learner is a valid loss vector; the normalization never changes best
responses or equilibria.

Round timing is simultaneous-move: both sides commit their round-t
strategies before either observes the other's, and feedback arrives after
the round.  A non-oblivious adversary reacting to the agent therefore
sees only f_1 .. f_{t-1} when choosing y_t.

The play loops call the learners' unchecked ``update`` and validate every
round once the loop ends (``core.check_rounds``), at the same tolerances
as the per-vector checks.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import metrics, nash
from .core import MatrixGame, Trace, check_rounds, uniform
from .learners import (
    Aftrl,
    Amd,
    BestResponseLearner,
    DoublingAftrl,
    Mwu,
    Omwu,
    ProdBr,
    amwu_step,
)
from .regularizers import ENTROPY, from_name

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 sequence generator (published mixing constants).

    Uniform doubles are drawn from the top 53 bits, so identical seeds
    yield identical streams in any implementation of the same algorithm.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53


def make_random_game(n: int, m: int, seed: int) -> MatrixGame:
    """A game with i.i.d. uniform [0, 1] entries, filled row-major."""
    if n < 2 or m < 2:
        raise ValueError(f"need at least 2 actions per side, got {n}x{m}")
    rng = SplitMix64(seed)
    entries = [rng.next_double() for _ in range(n * m)]
    return MatrixGame(np.array(entries).reshape(n, m))


@dataclass(frozen=True)
class GameSpec:
    """Where the payoff matrix comes from: a seeded draw or a CSV file."""

    kind: str  # "random" | "csv"
    n: int | None = None
    m: int | None = None
    seed: int | None = None
    path: str | None = None

    def resolve(self) -> MatrixGame:
        if self.kind == "random":
            return make_random_game(self.n, self.m, self.seed)
        if self.kind == "csv":
            return MatrixGame.from_csv(self.path)
        raise ValueError(f"unknown game kind {self.kind!r}")


def _lookup(table: dict, name: str, what: str):
    """``table[name]``, or a ValueError that names the choices."""
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}; choose from {', '.join(table)}")
    return table[name]


class AgentKind(NamedTuple):
    """How one agent kind is built, and the agent config keys it reads.

    The learners are one family indexed by the exploit rate: ``alpha`` is
    the kind's fixed rate (FTRL/MWU 0, OFTRL/OMWU 1), or None; then a
    kind with ``alpha`` among its keys reads it from the config, as
    ``alpha`` or as ``b``, and a kind without uses none.
    """

    build: Callable  # (n, eta, alpha, regularizer, horizon) -> a loss-stream learner
    keys: tuple[str, ...]  # read besides kind and name; eta, when read, is required
    alpha: float | None = None
    self_play: bool = False


def _leader(n, eta, alpha, reg, horizon):
    return Aftrl(n, eta, alpha=alpha, reg=reg)


_FREE = ("eta", "alpha", "b", "regularizer")  # the keys of a kind with a free exploit rate

# The builders look the learner classes up when called, not at import.
AGENT_KINDS = {
    "FTRL": AgentKind(_leader, ("eta", "regularizer"), alpha=0.0),
    "OFTRL": AgentKind(_leader, ("eta", "regularizer"), alpha=1.0),
    "AFTRL": AgentKind(_leader, _FREE),
    "AMD": AgentKind(lambda n, eta, a, reg, T: Amd(n, eta, a, reg), _FREE),
    "MWU": AgentKind(lambda n, eta, *_: Mwu(n, eta), ("eta",), alpha=0.0, self_play=True),
    "OMWU": AgentKind(lambda n, eta, *_: Omwu(n, eta), ("eta",), alpha=1.0, self_play=True),
    # the multiplicative member of the leader family: it reads no
    # regularizer, so build_agent gives it the entropy
    "AMWU": AgentKind(_leader, ("eta", "alpha", "b"), self_play=True),
    "BestResponse": AgentKind(lambda n, *_: BestResponseLearner(n), ()),
    "ProdBR": AgentKind(lambda n, eta, a, reg, T: ProdBr(n, T, reg), ("regularizer",)),
    "DoublingAFTRL": AgentKind(lambda n, eta, a, reg, T: DoublingAftrl(n, eta, a, reg), _FREE),
}


@dataclass(frozen=True)
class AgentSpec:
    kind: str  # a key of AGENT_KINDS
    eta: float | None = None
    alpha: float | None = None
    b: float | None = None
    regularizer: str = "entropy"
    name: str | None = None

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.kind

    @property
    def rule(self) -> AgentKind:
        return _lookup(AGENT_KINDS, self.kind, "agent kind")

    def resolved_alpha(self) -> float:
        """The kind's fixed exploit rate, else alpha, else eta^(b-1), else 0."""
        if self.rule.alpha is not None:
            return self.rule.alpha
        if self.alpha is not None:
            return self.alpha
        if self.b is not None:
            if self.eta is None:
                raise ValueError("agent: b given without eta")
            return float(self.eta ** (self.b - 1.0))
        return 0.0


@dataclass(frozen=True)
class AdversarySpec:
    kind: str  # a key of ADVERSARY_KINDS
    eta: float | None = None
    recorder_eta: float | None = None  # oblivious recording partner; defaults to eta


def _kl_to_ne(game: MatrixGame, trace_max: Trace, trace_min: Trace) -> np.ndarray:
    ne = nash.solve_zero_sum(game)
    return metrics.kl_series((trace_max, trace_min), (ne.f_star, ne.y_star))


# Metric name -> series; the functions are looked up in ``metrics`` when called.
ADVERSARY_METRICS = {  # (agent's trace, agent)
    "average_loss": lambda trace, agent: metrics.average_loss(trace),
    "external_regret": lambda trace, agent: metrics.external_regret(trace),
    "dynamic_regret": lambda trace, agent: metrics.dynamic_regret(trace),
    "average_dynamic_regret": lambda trace, agent: metrics.average_dynamic_regret(trace),
    "forward_regret": lambda trace, agent: metrics.forward_regret(
        trace, getattr(agent, "reg", ENTROPY), getattr(agent, "eta", None) or 1.0
    ),
    "step_distance_l1": lambda trace, agent: metrics.step_distances(trace, 1),
}
SELF_PLAY_METRICS = {  # (unit game, max side's trace, min side's trace)
    "exploitability": lambda g, f, y: metrics.exploitability_series(g, f.strategies, y.strategies),
    "kl_to_ne": _kl_to_ne,
}


class AdversaryKind(NamedTuple):
    keys: tuple[str, ...]  # adversary config keys read besides kind; eta, when read, is required
    metrics: dict  # the metrics of its run mode


ADVERSARY_KINDS = {
    "oblivious_mwu": AdversaryKind(("eta", "recorder_eta"), ADVERSARY_METRICS),
    "nonoblivious_mwu": AdversaryKind(("eta",), ADVERSARY_METRICS),
    "self_play": AdversaryKind((), SELF_PLAY_METRICS),
}


def _series(table: dict, names, *args) -> dict:
    """Each named metric of ``table`` applied to ``args``."""
    return {name: _lookup(table, name, "metric")(*args) for name in names}


@dataclass(frozen=True)
class SimulationConfig:
    game: GameSpec
    horizon: int
    agent: AgentSpec
    adversary: AdversarySpec
    metrics: tuple[str, ...] = ()
    output: str | None = None

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError(f"horizon must be at least 2, got {self.horizon}")
        if not self.metrics:
            rule = _lookup(ADVERSARY_KINDS, self.adversary.kind, "adversary kind")
            object.__setattr__(self, "metrics", tuple(rule.metrics))


@dataclass
class RunOutcome:
    index: int
    config: SimulationConfig
    series: dict = field(default_factory=dict)
    error: str | None = None


def build_agent(spec: AgentSpec, n: int, horizon: int):
    """Instantiate the loss-stream learner named by an agent spec.

    A kind that reads no regularizer gets the entropy.
    """
    reg = from_name(spec.regularizer) if "regularizer" in spec.rule.keys else ENTROPY
    return spec.rule.build(n, spec.eta, spec.resolved_alpha(), reg, horizon)


def record_oblivious_trace(
    game: MatrixGame, adversary_eta: float, horizon: int, recorder_eta: float | None = None
) -> np.ndarray:
    """Strategy sequence of a column MWU player facing a fixed row MWU.

    Both third parties start uniform; the column player's strategies are
    recorded for later replay as an oblivious loss source.  The recording
    partner's rate defaults to the adversary's.  Both players' rounds are
    checked once the recording ends.
    """
    if adversary_eta <= 0.0:
        raise ValueError(f"adversary eta must be positive, got {adversary_eta}")
    unit, _, _ = game.to_unit_range()
    a = unit.payoff
    n, m = unit.n, unit.m
    row = Mwu(n, recorder_eta if recorder_eta is not None else adversary_eta)
    col = Mwu(m, adversary_eta)
    rs = np.empty((horizon, n))
    ys = np.empty((horizon, m))
    row_losses = np.empty((horizon, n))
    col_losses = np.empty((horizon, m))
    r = row.start()
    y = col.start()
    for t in range(horizon):
        rs[t] = r
        ys[t] = y
        row_loss = a @ y
        col_loss = 1.0 - a.T @ r  # the column player's loss is the negated gain, kept in [0, 1]
        row_losses[t] = row_loss
        col_losses[t] = col_loss
        r = row.update(row_loss)
        y = col.update(col_loss)
    check_rounds(rs, row_losses, context="replay row player round")
    check_rounds(ys, col_losses, context="replay round")
    return ys


def _record_replay(config: SimulationConfig, unit: MatrixGame) -> np.ndarray:
    adv = config.adversary
    return record_oblivious_trace(unit, adv.eta, config.horizon, adv.recorder_eta)


def run_vs_adversary(config: SimulationConfig, replay: np.ndarray | None = None):
    """Simulate one agent against a replayed or reactive adversary.

    Returns (trace, series, game) where the trace records the agent's
    strategies and the loss stream x_t = A y_t on the unit-normalized game.
    ``replay`` is an oblivious config's recorded adversary, as
    ``record_oblivious_trace`` returns it for this config's game, etas and
    horizon; it is recorded here when not given.
    """
    game = config.game.resolve()
    unit, _, _ = game.to_unit_range()
    a = unit.payoff
    n, m = unit.n, unit.m
    T = config.horizon
    adv = config.adversary

    col = None
    if adv.kind == "oblivious_mwu":
        if replay is None:
            replay = _record_replay(config, unit)
        if replay.shape[0] < T:
            raise ValueError(f"replay shorter than horizon: {replay.shape[0]} < {T}")
    elif adv.kind == "nonoblivious_mwu":
        if adv.eta is None or adv.eta <= 0.0:
            raise ValueError("nonoblivious_mwu adversary needs a positive eta")
        col = Mwu(m, adv.eta)
        adv_strategies = np.empty((T, m))
        adv_losses = np.empty((T, m))
    else:
        raise ValueError(f"run_vs_adversary cannot handle adversary kind {adv.kind!r}")
    agent = build_agent(config.agent, n, T)

    strategies = np.empty((T, n))
    losses = np.empty((T, n))
    f = agent.start()
    y = col.start() if col is not None else None
    for t in range(T):
        y_t = replay[t] if col is None else y
        x_t = a @ y_t
        strategies[t] = f
        losses[t] = x_t
        if col is not None:
            # reactive update: the adversary sees f_t only after the round
            adv_strategies[t] = y
            adv_losses[t] = 1.0 - a.T @ f
            y = col.update(adv_losses[t])
        f = agent.update(x_t)
    check_rounds(strategies, losses)
    if col is not None:
        check_rounds(adv_strategies, adv_losses, context="adversary round")
    trace = Trace.from_rounds(strategies, losses)
    return trace, _series(ADVERSARY_METRICS, config.metrics, trace, agent), unit


def run_self_play(config: SimulationConfig):
    """Mirror-play both sides of the game with the agent's update rule.

    Supports the kinds marked ``self_play`` in ``AGENT_KINDS`` (the
    multiplicative family).  Both players start uniform and the first two
    strategies coincide, after which each side updates from the
    opponent's current and previous strategies.  Both sides' rounds are
    checked once the loop ends.
    Returns (trace_max, trace_min, series, game).
    """
    if not config.agent.rule.self_play:
        able = "/".join(kind for kind, rule in AGENT_KINDS.items() if rule.self_play)
        raise ValueError(f"self-play supports {able}, got {config.agent.kind!r}")
    game = config.game.resolve()
    unit, _, _ = game.to_unit_range()
    a = unit.payoff
    n, m = unit.n, unit.m
    T = config.horizon
    eta = config.agent.eta
    alpha = config.agent.resolved_alpha()

    fs = np.empty((T, n))
    ys = np.empty((T, m))
    fs[0] = uniform(n)
    ys[0] = uniform(m)
    fs[1] = fs[0]
    ys[1] = ys[0]
    for t in range(2, T):
        fs[t] = amwu_step(fs[t - 1], unit, ys[t - 1], ys[t - 2], "max", eta, alpha)
        ys[t] = amwu_step(ys[t - 1], unit, fs[t - 1], fs[t - 2], "min", eta, alpha)

    loss_max = 1.0 - ys @ a.T
    loss_min = fs @ a
    check_rounds(fs, loss_max, context="max side round")
    check_rounds(ys, loss_min, context="min side round")
    trace_max = Trace.from_rounds(fs, loss_max)
    trace_min = Trace.from_rounds(ys, loss_min)
    series = _series(SELF_PLAY_METRICS, config.metrics, unit, trace_max, trace_min)
    return trace_max, trace_min, series, unit


def run_config(config: SimulationConfig, replay: np.ndarray | None = None) -> dict:
    """The metric series of one config, in the run mode of its adversary.

    ``replay`` is as for ``run_vs_adversary``; self-play has none.
    """
    if config.adversary.kind == "self_play":
        return run_self_play(config)[2]
    return run_vs_adversary(config, replay)[1]


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_one(index: int, config: SimulationConfig, replay: np.ndarray | None) -> RunOutcome:
    out = RunOutcome(index=index, config=config)
    try:
        out.series = run_config(config, replay)
    except Exception as exc:  # noqa: BLE001 - reported per config, others unaffected
        out.error = _error(exc)
    return out


def _replay_key(config: SimulationConfig):
    """What an oblivious config's replay depends on; None for other configs."""
    adv = config.adversary
    if adv.kind != "oblivious_mwu":
        return None
    recorder_eta = adv.eta if adv.recorder_eta is None else adv.recorder_eta
    return (config.game, adv.eta, recorder_eta, config.horizon)


def _replay_groups(configs) -> list[list[tuple[int, SimulationConfig]]]:
    """(index, config) pairs grouped by replay key, in order of first
    appearance; a config without a replay is a group of its own."""
    groups = {}
    for i, config in enumerate(configs):
        key = _replay_key(config)
        groups.setdefault(("alone", i) if key is None else key, []).append((i, config))
    return list(groups.values())


def _run_group(group) -> list[RunOutcome]:
    """Run one replay group, recording its replay (if any) once.

    The replay is dropped when the group ends.  If recording fails, every
    config of the group reports that error.
    """
    first = group[0][1]
    replay = None
    if _replay_key(first) is not None:
        try:
            unit, _, _ = first.game.resolve().to_unit_range()
            replay = _record_replay(first, unit)
        except Exception as exc:  # noqa: BLE001 - reported per config, other groups unaffected
            return [RunOutcome(index=i, config=c, error=_error(exc)) for i, c in group]
    return [_run_one(i, c, replay) for i, c in group]


def grid_run(configs, parallelism: int = 1) -> list[RunOutcome]:
    """Execute independent configs, preserving input order in the output.

    Configs that share a replay key (game, adversary eta, recorder eta,
    horizon) form one group, which records the oblivious replay once and
    runs its configs against it; a group is one unit of work for the
    serial loop and for the pool, so at most ``parallelism`` replays are
    held at once.  Each simulation is internally sequential and a pure
    function of its config, so results are identical for any parallelism
    level, grouping or grid order.
    """
    configs = list(configs)
    if parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")
    if not configs:
        return []
    groups = _replay_groups(configs)
    if parallelism == 1:
        done = [_run_group(g) for g in groups]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            done = list(pool.map(_run_group, groups))
    return sorted((out for outs in done for out in outs), key=lambda out: out.index)
