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

Every loop steps a batch of configs, the rows of batch-native learners
(``learners``) with every product the stacked one, so that each row is bit
for bit its config run alone.  One two-player loop, ``_play``, runs the
replay recording and reactive play (a row learner against a column MWU,
``_vs_mwu``) and self-play (one ``learners.Amwu`` per side), calling the
learners' unchecked ``update``.  An oblivious agent plays its replay whole
(``play``): MWU(eta) recorded against MWU(eta) once per game and (eta, horizon)
(``_record``), kept as the (T, n) loss block x_t = A y_t.  Once a batch has
stepped, each config's rounds are validated on its own slice
(``core.check_rounds``), as the per-vector checks would.  A batch steps in runs
of as many configs as fit ``_BATCH_BYTES``, so memory does not grow with the grid.

Each spec checks itself when built, in Python as by ``cli.parse_config``: it
rejects a set field that the kind tables do not list for its kind, and checks
the others (``_FIELD_CHECK``); its errors name the config key.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from . import metrics, nash
from .core import (
    MatrixGame, Trace, check_choice, check_keys, check_number, check_rounds, check_string,
)
from .learners import PLAY_BLOCKS, Aftrl, Amd, Amwu, BestResponseLearner, DoublingAftrl, Mwu, ProdBr
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
    "eta": lambda v, key: check_number(v, key, 0, above=True),
    "alpha": lambda v, key: check_number(v, key, 0),
    "b": check_number,
    "regularizer": lambda v, key: check_choice(v, key, REGULARIZERS),
    **dict.fromkeys(("name", "output", "path"), check_string),
}
# The fields that may be None; the others are required where read.
_OPTIONAL = {"alpha", "b", "regularizer", "name", "output"}


def _check_field(spec, field_name: str, key: str) -> None:
    """Check field ``field_name`` of ``spec`` in place; ``key`` names it, None is not given."""
    value = getattr(spec, field_name)
    if value is not None:
        object.__setattr__(spec, field_name, _FIELD_CHECK[field_name](value, key))
    elif field_name not in _OPTIONAL:
        raise ValueError(f"{key}: missing required key")


def _check_kind_fields(spec, where: str, keys: dict) -> None:
    """Reject a set field of ``spec`` other than ``kind`` and the fields its kind
    reads (the keys of ``keys``), then check each of those under its config key
    (its value in ``keys``); ``where`` is the spec's config key."""
    given = [name for name in spec.__dataclass_fields__ if getattr(spec, name) is not None]
    check_keys(given, ("kind", *keys), f"{where} (kind {spec.kind!r})")
    for name, key in keys.items():
        _check_field(spec, name, key)


def _config_keys(where: str, names) -> dict:
    """Each field of ``names`` with its config key, ``where.name``."""
    return {name: f"{where}.{name}" for name in names}


# The fields each game kind reads, with their config keys.
GAME_KINDS = {
    "random": _config_keys("game.random", ("n", "m", "seed")),
    "csv": {"path": "game.csv"},
}


@dataclass(frozen=True)
class GameSpec:
    """Where the payoff matrix comes from: a seeded draw or a CSV file (``game.csv``)."""

    kind: str  # a key of GAME_KINDS
    n: int | None = None
    m: int | None = None
    seed: int | None = None
    path: str | None = None

    def __post_init__(self):
        kind = check_choice(self.kind, "game.kind", GAME_KINDS)
        _check_kind_fields(self, "game", GAME_KINDS[kind])

    def resolve(self) -> MatrixGame:
        if self.kind == "csv":
            return MatrixGame.from_csv(self.path)
        return make_random_game(self.n, self.m, self.seed)


class _Game:
    """A game in the unit range, resolved once for all the configs that
    play it; its equilibrium is solved on first use."""

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

    build: Callable  # (shape, eta, alpha, regularizer, horizon) -> a loss-stream learner
    keys: tuple[str, ...]  # the fields it reads besides kind and name; eta, if read, is required
    alpha: float = 0.0
    self_play: bool = False


def _leader(shape, eta, alpha, reg, horizon):
    return Aftrl(shape, eta, alpha=alpha, reg=reg)


def _multiplicative(shape, eta, alpha, reg, horizon):
    return Mwu(shape, eta, alpha)


_FREE = ("eta", "alpha", "b", "regularizer")  # the keys of a kind with a free exploit rate

# The builders look the learner classes up when called, not at import.
AGENT_KINDS = {
    "FTRL": AgentKind(_leader, ("eta", "regularizer"), alpha=0.0),
    "OFTRL": AgentKind(_leader, ("eta", "regularizer"), alpha=1.0),
    "AFTRL": AgentKind(_leader, _FREE),
    "AMD": AgentKind(lambda shape, eta, a, reg, T: Amd(shape, eta, a, reg), _FREE),
    "MWU": AgentKind(_multiplicative, ("eta",), self_play=True),
    "OMWU": AgentKind(_multiplicative, ("eta",), alpha=1.0, self_play=True),
    # the multiplicative member of the leader family: no regularizer but the entropy
    "AMWU": AgentKind(_leader, ("eta", "alpha", "b"), self_play=True),
    "BestResponse": AgentKind(lambda shape, *_: BestResponseLearner(shape), ()),
    "ProdBR": AgentKind(lambda shape, eta, a, reg, T: ProdBr(shape, T, reg), ("regularizer",)),
    "DoublingAFTRL": AgentKind(
        lambda shape, eta, a, reg, T: DoublingAftrl(shape, eta, a, reg), _FREE
    ),
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
        _check_kind_fields(self, "agent", _config_keys("agent", ("name", *rule.keys)))
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

    def __post_init__(self):
        rule = ADVERSARY_KINDS[check_choice(self.kind, "adversary.kind", ADVERSARY_KINDS)]
        _check_kind_fields(self, "adversary", _config_keys("adversary", rule.keys))

    @property
    def rule(self) -> AdversaryKind:
        return ADVERSARY_KINDS[self.kind]


# Metric name -> series; the functions are looked up in ``metrics`` when called.
ADVERSARY_METRICS = {  # (agent's trace, agent's regularizer, agent's eta)
    "average_loss": lambda trace, reg, eta: metrics.average_loss(trace),
    "external_regret": lambda trace, reg, eta: metrics.external_regret(trace),
    "dynamic_regret": lambda trace, reg, eta: metrics.dynamic_regret(trace),
    "average_dynamic_regret": lambda trace, reg, eta: metrics.average_dynamic_regret(trace),
    "forward_regret": lambda trace, reg, eta: metrics.forward_regret(trace, reg, eta),
    "step_distance_l1": lambda trace, reg, eta: metrics.step_distances(trace, 1),
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
    "oblivious_mwu": AdversaryKind(("eta",), ADVERSARY_METRICS),
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


# The most bytes of blocks that one step of a batch holds, its strategy and loss blocks or its
# learner's ``play``'s; a batch of more rows steps as several, as do a game's replays.
_BATCH_BYTES = 1 << 27


def _chunks(items: list, T: int, k: int) -> list:
    """``items`` in runs of as many rows of T rounds of k actions as fit ``_BATCH_BYTES``."""
    size = max(1, _BATCH_BYTES // (8 * T * k))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _column(values) -> np.ndarray:
    return np.array(values)[:, None]


def build_agent(specs, n: int, horizon: int):
    """One loss-stream learner of shape (B, n), a row for each of the B agent
    ``specs``; they share a builder and a regularizer (the entropy where they
    give none)."""
    rates = (_column([spec.eta for spec in specs]),  # None for a kind that reads no eta
             _column([spec.resolved_alpha() for spec in specs]))
    reg = REGULARIZERS[specs[0].regularizer or "entropy"]
    return specs[0].rule.build((len(specs), n), *rates, reg, horizon)


def _play(row, col, fs: np.ndarray, ys: np.ndarray, row_loss: Callable, col_loss: Callable):
    """Fill the (B, T, k) strategy blocks ``fs`` and ``ys`` with T simultaneous
    rounds of two batches of loss-stream learners: in round t both commit their
    B strategies f_t and y_t, then the row learner is fed ``row_loss(y_t)`` and
    the column learner ``col_loss(f_t)``."""
    f, y = row.start(), col.start()
    for t in range(fs.shape[1]):
        fs[:, t], ys[:, t] = f, y
        f, y = row.update(row_loss(y)), col.update(col_loss(f))


def _vs_mwu(row, unit: MatrixGame, etas, T: int):
    """Play the batch ``row``, fed A y_t, against a column MWU at ``etas`` fed
    1 - A^T f_t (the negated gain, in [0, 1]) on a unit-range game.  Returns a
    function of a row b and two contexts that checks both sides' rounds of row b,
    its losses recomputed to the same bits, and gives its (f, x, y) blocks."""
    a = unit.payoff
    row_loss = lambda y: (a @ y[..., None])[..., 0]  # noqa: E731
    col_loss = lambda f: 1.0 - (a.T @ f[..., None])[..., 0]  # noqa: E731
    fs, ys = np.empty((len(etas), T, unit.n)), np.empty((len(etas), T, unit.m))
    _play(row, Mwu((len(etas), unit.m), _column(etas)), fs, ys, row_loss, col_loss)

    def checked(b: int, contexts: tuple[str, str]):
        x = row_loss(ys[b])
        check_rounds(fs[b], x, context=contexts[0])
        check_rounds(ys[b], col_loss(fs[b]), context=contexts[1])
        return fs[b], x, ys[b]

    return checked


def _replay_key(config: SimulationConfig) -> tuple:
    """(eta, horizon): what an oblivious replay depends on besides the game."""
    return config.adversary.eta, config.horizon


def _record(unit: MatrixGame, keys) -> dict:
    """The replays of ``keys`` (``_replay_key``s of one horizon) on a unit-range game,
    recorded as one batch and each checked at once: per key its (T, n) loss block
    x_t = A y_t, or the error its check raised.  Only the loss blocks outlive the call."""
    etas, horizons = zip(*keys)
    checked = _vs_mwu(Mwu((len(keys), unit.n), _column(etas)), unit, etas, horizons[0])
    contexts = ("replay row player round", "replay round")
    replays = {}
    for b, key in enumerate(keys):
        try:
            replays[key] = checked(b, contexts)[1]
        except Exception as exc:  # noqa: BLE001 - the error of the configs that replay it
            replays[key] = exc.with_traceback(None)  # its frames would hold the recording
    return replays


def _vs_adversary_batch(game: _Game, configs, replays: dict) -> Callable:
    """Step configs that share a game, learner builder and regularizer, horizon
    and adversary kind as one batch; an oblivious agent plays its replay's loss
    block whole (at its ``_replay_key`` in ``replays``), and a batch that reads a
    failed replay raises its error.  Returns a function of a row b that checks
    config b's rounds and gives its (trace, series)."""
    T = configs[0].horizon
    agent = build_agent([c.agent for c in configs], game.unit.n, T)
    if configs[0].adversary.kind == "oblivious_mwu":
        losses = [replays[_replay_key(c)] for c in configs]
        if failed := [xs for xs in losses if isinstance(xs, Exception)]:
            raise failed[0]
        strategies = agent.play(np.stack(losses))

        def checked(b):
            check_rounds(strategies[b], losses[b])
            return strategies[b], losses[b]
    else:  # reactive: the adversary sees f_t only after the round
        reactive = _vs_mwu(agent, game.unit, [c.adversary.eta for c in configs], T)
        checked = lambda b: reactive(b, ("round", "adversary round"))[:2]  # noqa: E731
    reg = getattr(agent, "reg", ENTROPY)
    etas = np.broadcast_to(getattr(agent, "eta", 1.0), (len(configs), 1))

    def finish(b):
        trace = Trace.from_rounds(*checked(b))
        return trace, _series(ADVERSARY_METRICS, configs[b].metrics, trace, reg, etas[b, 0])

    return finish


def _self_play_batch(game: _Game, configs) -> Callable:
    """Step self-play configs that share a game and a horizon as one batch (as
    ``run_self_play`` describes).  Returns a function of a row b that checks
    config b's rounds and gives its (trace_max, trace_min, series)."""
    a = game.unit.payoff
    rates = (_column([c.agent.eta for c in configs]),
             _column([c.agent.resolved_alpha() for c in configs]))
    row, col = (Amwu(game.unit, side, *rates) for side in ("max", "min"))
    fs, ys = (np.empty((len(configs), configs[0].horizon, k)) for k in a.shape)
    # round 2 repeats round 1 (each side's first update takes its round-1
    # loss as the previous one too), so the loop plays rounds 2 .. T
    _play(row, col, fs[:, 1:], ys[:, 1:], row.loss, col.loss)
    fs[:, 0], ys[:, 0] = fs[:, 1], ys[:, 1]

    def finish(b):
        loss_max, loss_min = 1.0 - ys[b] @ a.T, fs[b] @ a
        check_rounds(fs[b], loss_max, context="max side round")
        check_rounds(ys[b], loss_min, context="min side round")
        traces = Trace.from_rounds(fs[b], loss_max), Trace.from_rounds(ys[b], loss_min)
        return (*traces, _series(SELF_PLAY_METRICS, configs[b].metrics, game, *traces))

    return finish


def run_vs_adversary(config: SimulationConfig):
    """Simulate one agent against a replayed or reactive adversary, as a batch of one.

    Returns (trace, series, game) where the trace records the agent's
    strategies and the loss stream x_t = A y_t on the unit-normalized game.
    """
    adv = config.adversary
    if adv.kind not in ("oblivious_mwu", "nonoblivious_mwu"):
        raise ValueError(f"run_vs_adversary cannot handle adversary kind {adv.kind!r}")
    game = _Game(config.game)
    replays = _record(game.unit, [_replay_key(config)]) if adv.kind == "oblivious_mwu" else {}
    return (*_vs_adversary_batch(game, [config], replays)(0), game.unit)


def run_self_play(config: SimulationConfig):
    """Mirror-play both sides of the game with the agent's update rule, as a batch of one.

    The agent's kind is marked ``self_play`` in ``AGENT_KINDS``: each side is
    an ``Amwu``, the max side fed -A y_t and the min side A^T f_t; the first
    two strategies coincide, as ``Amwu``'s first update takes the round-1 loss
    as the previous one.  Both sides' rounds, with the losses 1 - A y_t and
    A^T f_t in [0, 1], are checked.  Returns (trace_max, trace_min, series, game).
    """
    if config.adversary.kind != "self_play":
        raise ValueError(f"run_self_play cannot handle adversary kind {config.adversary.kind!r}")
    game = _Game(config.game)
    return (*_self_play_batch(game, [config])(0), game.unit)


def run_config(config: SimulationConfig) -> dict:
    """The metric series of one config, in the run mode of its adversary."""
    if config.adversary.kind == "self_play":
        return run_self_play(config)[2]
    return run_vs_adversary(config)[1]


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_batch(game: _Game, outcomes: list[RunOutcome], replays: dict) -> None:
    """Step the configs of ``outcomes``, one batch, then check each config and
    fill in its series or error on its own; if the batch raises, each config
    steps alone instead.  The blocks are dropped on return."""
    run = (partial(_self_play_batch, game) if outcomes[0].config.adversary.kind == "self_play"
           else partial(_vs_adversary_batch, game, replays=replays))
    configs = [out.config for out in outcomes]
    try:
        finish = run(configs)
    except Exception:  # noqa: BLE001 - alone, only the failing configs fail
        finish = lambda b: run(configs[b:b + 1])(0)  # noqa: E731
    for b, out in enumerate(outcomes):
        try:
            out.series = finish(b)[-1]
        except Exception as exc:  # noqa: BLE001 - this config's error
            out.error = _error(exc)


def _run_game(spec: GameSpec, batches) -> None:
    """Resolve one game, then step its batches of outcomes one after another,
    each in runs of as many rows as fit ``_BATCH_BYTES`` (an oblivious row's play
    holds ``PLAY_BLOCKS`` blocks of n actions); the oblivious ones against a run of
    replays at a time, as many as fit, recorded as one batch (one key at a time if
    that raises) and dropped after its configs have stepped.  If the game fails,
    each config reports that error."""
    try:
        game = _Game(spec)
    except Exception as exc:  # noqa: BLE001 - reported per config, other games unaffected
        for out in (out for batch in batches for out in batch):
            out.error = _error(exc)
        return
    n, m = game.unit.payoff.shape
    oblivious = [b for b in batches if b[0].config.adversary.kind == "oblivious_mwu"]

    def step(batch, replays, k=n + m):
        for rows in _chunks(batch, batch[0].config.horizon, k):
            _run_batch(game, rows, replays)

    def record(keys) -> dict:  # per key its loss block or error
        try:
            return _record(game.unit, keys)
        except Exception as exc:  # noqa: BLE001 - alone, only the failing keys fail
            if len(keys) == 1:
                return {keys[0]: exc.with_traceback(None)}
            return {key: record([key])[key] for key in keys}

    def step_replays(keys):  # its replays are dropped on return
        replays = record(keys)
        for batch in oblivious:
            if part := [out for out in batch if _replay_key(out.config) in replays]:
                step(part, replays, PLAY_BLOCKS * n)

    for batch in (b for b in batches if b[0].config.adversary.kind != "oblivious_mwu"):
        step(batch, {})
    keys = list(dict.fromkeys(_replay_key(out.config) for b in oblivious for out in b))
    for T in dict.fromkeys(key[1] for key in keys):
        for run in _chunks([key for key in keys if key[1] == T], T, n + m):
            step_replays(run)


def grid_run(configs, parallelism: int = 1) -> list[RunOutcome]:
    """Execute independent configs, preserving input order in the output.

    The configs of one game share one resolve, one equilibrium solve and the
    recording of each oblivious replay; those that also share a run mode, a
    horizon and (against an adversary) a learner builder and regularizer step
    together as one batch, one batch after another, in runs of as many configs
    as fit a fixed memory budget.  A config's series is bit for bit the config
    run alone, so results never depend on batching, grid order or
    ``parallelism`` (>= 1, otherwise unused).  A failing config fails alone:
    checks and metrics run per config after its batch's loop, and a batch
    whose loop raises reruns per config.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")
    outcomes = [RunOutcome(index=i, config=config) for i, config in enumerate(configs)]
    games = {}  # game spec -> batch key -> outcomes, in order of first appearance
    for out in outcomes:
        agent, mode, T = out.config.agent, out.config.adversary.kind, out.config.horizon
        learner = () if mode == "self_play" else (agent.rule.build, agent.regularizer or "entropy")
        games.setdefault(out.config.game, {}).setdefault((mode, T, *learner), []).append(out)
    for spec, batches in games.items():
        _run_game(spec, list(batches.values()))
    return outcomes
