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

One two-player loop, ``_play``, runs the replay recording and reactive play
(both a row learner against a column MWU, ``_vs_mwu``) and self-play (one
``learners.Amwu`` per side); an oblivious agent is fed its replayed losses.
Both call the learners' unchecked ``update`` and validate every round once
the loop ends (``core.check_rounds``), at the same tolerances as the
per-vector checks.

Each spec checks itself when built, in Python as by ``cli.parse_config``: it
rejects a set field that the kind tables do not list for its kind, and checks
the others (``_FIELD_CHECK``); its errors name the config key.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import metrics, nash
from .core import (
    MatrixGame, Trace, check_choice, check_keys, check_number, check_rounds, check_string,
)
from .learners import Aftrl, Amd, Amwu, BestResponseLearner, DoublingAftrl, Mwu, ProdBr
from .regularizers import ENTROPY, REGULARIZERS

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


# How each spec field is checked, whichever spec holds it; ``key`` is its config key.
_FIELD_CHECK = {
    **dict.fromkeys(("horizon", "n", "m"), lambda v, key: check_number(v, key, 2, integer=True)),
    "seed": lambda v, key: check_number(v, key, integer=True),
    **dict.fromkeys(("eta", "recorder_eta"), lambda v, key: check_number(v, key, 0, above=True)),
    "alpha": lambda v, key: check_number(v, key, 0),
    "b": check_number,
    "regularizer": lambda v, key: check_choice(v, key, REGULARIZERS),
    **dict.fromkeys(("name", "output", "path"), check_string),
}
# The fields that may be None; the others are required where read.
_OPTIONAL = {"alpha", "b", "regularizer", "recorder_eta", "name", "output"}


def _check_field(spec, field_name: str, key: str) -> None:
    """Check field ``field_name`` of ``spec`` in place; ``key`` names it, None is not given."""
    value = getattr(spec, field_name)
    if value is not None:
        object.__setattr__(spec, field_name, _FIELD_CHECK[field_name](value, key))
    elif field_name not in _OPTIONAL:
        raise ValueError(f"{key}: missing required key")


def _check_kind_fields(spec, where: str, keys) -> None:
    """Reject a set field of ``spec`` other than ``kind`` and ``keys``, the fields
    its kind reads, then check each of ``keys``; ``where`` is the spec's config key."""
    given = [name for name in spec.__dataclass_fields__ if getattr(spec, name) is not None]
    check_keys(given, ("kind", *keys), f"{where} (kind {spec.kind!r})")
    for key in keys:
        _check_field(spec, key, f"{where}.{key}")


@dataclass(frozen=True)
class GameSpec:
    """Where the payoff matrix comes from: a seeded draw or a CSV file (``game.csv``)."""

    kind: str  # "random" | "csv"
    n: int | None = None
    m: int | None = None
    seed: int | None = None
    path: str | None = None

    def __post_init__(self):
        if check_choice(self.kind, "game.kind", ("random", "csv")) == "csv":
            _check_field(self, "path", "game.csv")
        else:
            for key in ("n", "m", "seed"):
                _check_field(self, key, f"game.random.{key}")

    def resolve(self) -> MatrixGame:
        if self.kind == "csv":
            return MatrixGame.from_csv(self.path)
        return make_random_game(self.n, self.m, self.seed)


class _Game:
    """A game in the unit range, resolved once for all the configs of a
    group; its equilibrium is solved on first use."""

    def __init__(self, spec: GameSpec):
        self.unit, _, _ = spec.resolve().to_unit_range()

    @cached_property
    def equilibrium(self) -> tuple[np.ndarray, np.ndarray]:
        ne = nash.solve_zero_sum(self.unit)
        return ne.f_star, ne.y_star


class AgentKind(NamedTuple):
    """How one agent kind is built, and the agent config keys it reads.

    The learners are one family indexed by the exploit rate: ``alpha`` is the
    kind's fixed rate (FTRL/MWU 0, OFTRL/OMWU 1, 0 for a kind with none), or
    for a kind that reads ``alpha`` or ``b`` the rate when neither is given.
    """

    build: Callable  # (n, eta, alpha, regularizer, horizon) -> a loss-stream learner
    keys: tuple[str, ...]  # the fields it reads besides kind and name; eta, if read, is required
    alpha: float = 0.0
    self_play: bool = False


def _leader(n, eta, alpha, reg, horizon):
    return Aftrl(n, eta, alpha=alpha, reg=reg)


def _multiplicative(n, eta, alpha, reg, horizon):
    return Mwu(n, eta, alpha)


_FREE = ("eta", "alpha", "b", "regularizer")  # the keys of a kind with a free exploit rate

# The builders look the learner classes up when called, not at import.
AGENT_KINDS = {
    "FTRL": AgentKind(_leader, ("eta", "regularizer"), alpha=0.0),
    "OFTRL": AgentKind(_leader, ("eta", "regularizer"), alpha=1.0),
    "AFTRL": AgentKind(_leader, _FREE),
    "AMD": AgentKind(lambda n, eta, a, reg, T: Amd(n, eta, a, reg), _FREE),
    "MWU": AgentKind(_multiplicative, ("eta",), self_play=True),
    "OMWU": AgentKind(_multiplicative, ("eta",), alpha=1.0, self_play=True),
    # the multiplicative member of the leader family: no regularizer but the entropy
    "AMWU": AgentKind(_leader, ("eta", "alpha", "b"), self_play=True),
    "BestResponse": AgentKind(lambda n, *_: BestResponseLearner(n), ()),
    "ProdBR": AgentKind(lambda n, eta, a, reg, T: ProdBr(n, T, reg), ("regularizer",)),
    "DoublingAFTRL": AgentKind(lambda n, eta, a, reg, T: DoublingAftrl(n, eta, a, reg), _FREE),
}


@dataclass(frozen=True)
class AgentSpec:
    """An agent: its kind, the keys that kind reads (None is not given) and a name."""

    kind: str  # a key of AGENT_KINDS
    eta: float | None = None
    alpha: float | None = None
    b: float | None = None
    regularizer: str | None = None  # the entropy if not given
    name: str | None = None

    def __post_init__(self):
        rule = AGENT_KINDS[check_choice(self.kind, "agent.kind", AGENT_KINDS)]
        _check_kind_fields(self, "agent", ("name", *rule.keys))
        if self.alpha is not None and self.b is not None:
            raise ValueError("agent.alpha: give either 'alpha' or 'b', not both")
        try:
            self.resolved_alpha()
        except OverflowError:
            raise ValueError(f"agent.b: eta^(b-1) overflows, b={self.b!r}") from None

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.kind

    @property
    def rule(self) -> AgentKind:
        return AGENT_KINDS[self.kind]

    def resolved_alpha(self) -> float:
        """eta^(b-1) if ``b`` is given, else ``alpha``, else the kind's rate."""
        if self.b is not None:
            return float(self.eta ** (self.b - 1.0))
        return self.alpha if self.alpha is not None else self.rule.alpha


@dataclass(frozen=True)
class AdversarySpec:
    """An adversary: its kind and the keys that kind reads (None is not given)."""

    kind: str  # a key of ADVERSARY_KINDS
    eta: float | None = None
    recorder_eta: float | None = None  # oblivious recording partner; defaults to eta

    def __post_init__(self):
        rule = ADVERSARY_KINDS[check_choice(self.kind, "adversary.kind", ADVERSARY_KINDS)]
        _check_kind_fields(self, "adversary", rule.keys)

    @property
    def rule(self) -> AdversaryKind:
        return ADVERSARY_KINDS[self.kind]


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
SELF_PLAY_METRICS = {  # (the game, max side's trace, min side's trace)
    "exploitability": lambda g, f, y: metrics.exploitability_series(
        g.unit, f.strategies, y.strategies
    ),
    "kl_to_ne": lambda g, f, y: metrics.kl_series((f, y), g.equilibrium),
}


class AdversaryKind(NamedTuple):
    keys: tuple[str, ...]  # the fields it reads besides kind; eta, when read, is required
    metrics: dict  # the metrics of its run mode


ADVERSARY_KINDS = {
    "oblivious_mwu": AdversaryKind(("eta", "recorder_eta"), ADVERSARY_METRICS),
    "nonoblivious_mwu": AdversaryKind(("eta",), ADVERSARY_METRICS),
    "self_play": AdversaryKind((), SELF_PLAY_METRICS),
}


def _series(table: dict, names, *args) -> dict:
    """Each named metric of ``table`` applied to ``args``."""
    return {name: table[name](*args) for name in names}


@dataclass(frozen=True)
class SimulationConfig:
    """One run; its ``metrics`` are of its run mode (none named: all of them)."""

    game: GameSpec
    horizon: int
    agent: AgentSpec
    adversary: AdversarySpec
    metrics: tuple[str, ...] = ()
    output: str | None = None

    def __post_init__(self):
        _check_field(self, "horizon", "horizon")
        _check_field(self, "output", "output")
        if self.adversary.kind == "self_play" and not self.agent.rule.self_play:
            able = ", ".join(kind for kind, rule in AGENT_KINDS.items() if rule.self_play)
            raise ValueError(f"agent.kind: self_play needs one of {able}, got {self.agent.kind!r}")
        table = self.adversary.rule.metrics
        names = tuple(check_choice(name, "metrics", table) for name in self.metrics)
        object.__setattr__(self, "metrics", names or tuple(table))


@dataclass
class RunOutcome:
    index: int
    config: SimulationConfig
    series: dict = field(default_factory=dict)
    error: str | None = None


def build_agent(spec: AgentSpec, n: int, horizon: int):
    """Instantiate the loss-stream learner named by an agent spec; the
    regularizer is the entropy where the spec gives none."""
    reg = REGULARIZERS[spec.regularizer or "entropy"]
    return spec.rule.build(n, spec.eta, spec.resolved_alpha(), reg, horizon)


def _play(row, col, T: int, row_loss: Callable, col_loss: Callable):
    """T simultaneous rounds of two loss-stream learners.

    In round t both commit their strategies f_t and y_t; then the row
    learner is fed ``row_loss(y_t)`` and the column learner
    ``col_loss(f_t)``.  Returns the blocks (f, row losses, y, column
    losses), one row per round.
    """
    f, y = row.start(), col.start()
    fs, xs = np.empty((T, f.size)), np.empty((T, f.size))
    ys, zs = np.empty((T, y.size)), np.empty((T, y.size))
    for t in range(T):
        fs[t], ys[t] = f, y
        x, z = row_loss(y), col_loss(f)
        xs[t], zs[t] = x, z
        f, y = row.update(x), col.update(z)
    return fs, xs, ys, zs


def _vs_mwu(row, unit: MatrixGame, eta: float, T: int, contexts: tuple[str, str]):
    """``_play``'s blocks of ``row``, fed A y_t, against ``Mwu(m, eta)`` fed 1 - A^T f_t
    (the negated gain, in [0, 1]) on a unit-range game; each side's rounds are
    then checked, with the context of the same index in ``contexts``."""
    a = unit.payoff
    blocks = _play(row, Mwu(unit.m, eta), T, lambda y: a @ y, lambda f: 1.0 - a.T @ f)
    check_rounds(*blocks[:2], context=contexts[0])
    check_rounds(*blocks[2:], context=contexts[1])
    return blocks


def record_oblivious_trace(
    game: MatrixGame, adversary_eta: float, horizon: int, recorder_eta: float | None = None
) -> np.ndarray:
    """Strategy sequence of a column MWU player facing a fixed row MWU.

    Both third parties start uniform; the column player's strategies are
    recorded for later replay as an oblivious loss source.  The recording
    partner's rate defaults to the adversary's.  Both players' rounds are
    checked once the recording ends.
    """
    unit, _, _ = game.to_unit_range()
    row = Mwu(unit.n, recorder_eta if recorder_eta is not None else adversary_eta)
    contexts = ("replay row player round", "replay round")
    return _vs_mwu(row, unit, adversary_eta, horizon, contexts)[2]


def run_vs_adversary(
    config: SimulationConfig, replay: np.ndarray | None = None, game: _Game | None = None
):
    """Simulate one agent against a replayed or reactive adversary.

    Returns (trace, series, game) where the trace records the agent's
    strategies and the loss stream x_t = A y_t on the unit-normalized game.
    ``replay`` is an oblivious config's recorded adversary, as
    ``record_oblivious_trace`` returns it for this config's game, etas and
    horizon, and ``game`` the config's game; each is made here when not given.
    """
    game = game or _Game(config.game)
    unit = game.unit
    a = unit.payoff
    T = config.horizon
    adv = config.adversary
    if adv.kind == "oblivious_mwu":
        if replay is None:
            replay = record_oblivious_trace(unit, adv.eta, T, adv.recorder_eta)
        if replay.shape[0] < T:
            raise ValueError(f"replay shorter than horizon: {replay.shape[0]} < {T}")
        agent = build_agent(config.agent, unit.n, T)
        # stacked products: each row is exactly a @ replay[t]
        losses = (a @ replay[:T, :, None])[..., 0]
        strategies = np.empty_like(losses)
        f = agent.start()
        for t, x in enumerate(losses):
            strategies[t] = f
            f = agent.update(x)
        check_rounds(strategies, losses)
    elif adv.kind == "nonoblivious_mwu":
        # reactive: the adversary sees f_t only after the round
        agent = build_agent(config.agent, unit.n, T)
        strategies, losses, _, _ = _vs_mwu(agent, unit, adv.eta, T, ("round", "adversary round"))
    else:
        raise ValueError(f"run_vs_adversary cannot handle adversary kind {adv.kind!r}")
    trace = Trace.from_rounds(strategies, losses)
    return trace, _series(ADVERSARY_METRICS, config.metrics, trace, agent), unit


def run_self_play(config: SimulationConfig, game: _Game | None = None):
    """Mirror-play both sides of the game with the agent's update rule.

    The agent's kind is marked ``self_play`` in ``AGENT_KINDS`` (the
    multiplicative family): each side is an ``Amwu``, the max side fed
    -A y_t and the min side A^T f_t.  Both start uniform and the first two
    strategies coincide, as ``Amwu``'s first update takes the round-1 loss
    as the previous one.  Both sides' rounds, with the losses 1 - A y_t
    and A^T f_t in [0, 1], are checked once the loop ends.  ``game`` is as
    for ``run_vs_adversary``.  Returns (trace_max, trace_min, series, game).
    """
    if config.adversary.kind != "self_play":
        raise ValueError(f"run_self_play cannot handle adversary kind {config.adversary.kind!r}")
    game = game or _Game(config.game)
    unit = game.unit
    a = unit.payoff
    rates = (config.agent.eta, config.agent.resolved_alpha())
    row, col = Amwu(unit, "max", *rates), Amwu(unit, "min", *rates)
    # round 2 repeats round 1 (each side's first update takes its round-1
    # loss as the previous one too), so the loop plays rounds 2 .. T
    fs, _, ys, _ = _play(row, col, config.horizon - 1, row.loss, col.loss)
    fs = np.concatenate((fs[:1], fs))
    ys = np.concatenate((ys[:1], ys))

    loss_max = 1.0 - ys @ a.T
    loss_min = fs @ a
    check_rounds(fs, loss_max, context="max side round")
    check_rounds(ys, loss_min, context="min side round")
    trace_max = Trace.from_rounds(fs, loss_max)
    trace_min = Trace.from_rounds(ys, loss_min)
    series = _series(SELF_PLAY_METRICS, config.metrics, game, trace_max, trace_min)
    return trace_max, trace_min, series, unit


def run_config(
    config: SimulationConfig, replay: np.ndarray | None = None, game: _Game | None = None
) -> dict:
    """The metric series of one config, in the run mode of its adversary.

    ``replay`` and ``game`` are as for ``run_vs_adversary``; self-play has none.
    """
    if config.adversary.kind == "self_play":
        return run_self_play(config, game)[2]
    return run_vs_adversary(config, replay, game)[1]


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_one(index: int, config: SimulationConfig, replay, game: _Game) -> RunOutcome:
    out = RunOutcome(index=index, config=config)
    try:
        out.series = run_config(config, replay, game)
    except Exception as exc:  # noqa: BLE001 - reported per config, others unaffected
        out.error = _error(exc)
    return out


def _group_key(config: SimulationConfig):
    """The game, and for an oblivious config the rest of what its replay
    depends on: adversary eta, recorder eta and horizon."""
    adv = config.adversary
    if adv.kind != "oblivious_mwu":
        return (config.game,)
    recorder_eta = adv.eta if adv.recorder_eta is None else adv.recorder_eta
    return (config.game, adv.eta, recorder_eta, config.horizon)


def _run_group(group) -> list[RunOutcome]:
    """Run one group, resolving its game and recording its replay (if any) once.

    Both are dropped when the group ends.  If either fails, every config
    of the group reports that error.
    """
    first = group[0][1]
    replay = None
    try:
        game = _Game(first.game)
        adv = first.adversary
        if adv.kind == "oblivious_mwu":
            replay = record_oblivious_trace(game.unit, adv.eta, first.horizon, adv.recorder_eta)
    except Exception as exc:  # noqa: BLE001 - reported per config, other groups unaffected
        return [RunOutcome(index=i, config=c, error=_error(exc)) for i, c in group]
    return [_run_one(i, c, replay, game) for i, c in group]


def grid_run(configs, parallelism: int = 1) -> list[RunOutcome]:
    """Execute independent configs, preserving input order in the output.

    Configs that share a group key (``_group_key``) form one group, which
    resolves the game once, solves its equilibrium at most once, records
    an oblivious replay once and runs its configs against them; a group is
    one unit of work for the serial loop and for the pool, so at most
    ``parallelism`` replays are held at once.  Each simulation is
    internally sequential and a pure function of its config, so results
    are identical for any parallelism level, grouping or grid order.
    """
    configs = list(configs)
    if parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")
    if not configs:
        return []
    groups = {}  # (index, config) pairs by group key, in order of first appearance
    for i, config in enumerate(configs):
        groups.setdefault(_group_key(config), []).append((i, config))
    if parallelism == 1:
        done = [_run_group(g) for g in groups.values()]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            done = list(pool.map(_run_group, groups.values()))
    return sorted((out for outs in done for out in outs), key=lambda out: out.index)
