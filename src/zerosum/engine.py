"""Deterministic simulation loops: seeded games, adversaries, and grids.

All randomness flows from the SplitMix64 sequence (``splitmix64``) so that a given
(config, seed) pair reproduces bit-identical runs.  Games are affinely
normalized into [0, 1] before play, so every loss vector fed to a learner
against an adversary, and every loss a trace records, lies in [0, 1]; in
self-play the max side is fed -A y in [-1, 0]: its trace's loss 1 - A y less
a constant, which no learner's update reads.  The affine map never changes
best responses or equilibria.

Round timing is simultaneous-move: both sides commit their round-t
strategies before either observes the other's, and feedback arrives after
the round.  A non-oblivious adversary reacting to the agent therefore
sees only f_1 .. f_{t-1} when choosing y_t.

Every loop steps a batch of configs, the rows of batch-native learners (``learners``) with
every product the stacked one, so that each row is bit for bit its config run alone.  One
two-player loop, ``_play``, runs the replay recording and reactive play (a row learner
against a column MWU, ``_vs_mwu``) and self-play (the kind's learner from ``build_agent``
on each side, any kind), calling the learners' unchecked ``update`` on the losses it takes as data
(``_losses`` of A and the offset 1, or in self-play -A and 0); it alone decides that on a
square game two sides of type exactly ``Mwu`` step together in ``Mwu.play_sides``, which
stacks their rows and restates ``update`` and ``_losses`` in one flat loop, bit for bit.  An
oblivious agent plays its replay whole (``play``): MWU(eta) recorded against MWU(eta) once
per game and (eta, horizon) (``_record``), kept as the (T, n) loss block x_t = A y_t.  One
runner, ``_each``, steps replays and configs as one batch, and records each row's trace checked
on its own slice (``core.Trace.from_rounds``), as the per-vector checks would.  Its one failure
rule: a batch that raises, a batch of one too, runs again one item at a time; a batch that
reads a failed replay raises the replay's error.  A batch steps in runs of as many configs as
fit ``_BATCH_BYTES``, so memory does not grow with the grid.  One per-game runner,
``_run_game``, resolves a game, records its replays, steps its configs and yields each one's
result or exception in turn; ``grid_run`` runs it on each game, and a config run alone
(``run_alone``, in the run mode its config names, or ``zerosum run``) is a grid of one.

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
from .learners import PLAY_BLOCKS, Aftrl, Amd, BestResponseLearner, DoublingAftrl, Mwu, ProdBr
from .regularizers import ENTROPY, REGULARIZERS

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of the SplitMix64 generator (published mixing
    constants) from ``seed``, as uint64, which wraps mod 2^64 as the algorithm does:
    identical seeds yield identical streams in any implementation of it."""
    z = np.uint64(seed & _MASK64) + np.uint64(0x9E3779B97F4A7C15) * np.arange(
        1, count + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def make_random_game(n: int, m: int, seed: int) -> MatrixGame:
    """A game with i.i.d. uniform [0, 1) entries, filled row-major: the top 53
    bits of each ``splitmix64`` output times 2^-53."""
    if n < 2 or m < 2:
        raise ValueError(f"need at least 2 actions per side, got {n}x{m}")
    return MatrixGame(((splitmix64(seed, n * m) >> np.uint64(11)) * 2.0 ** -53).reshape(n, m))


def _check_name(value, key: str) -> str:
    """A learner name: a string that fits one unquoted CSV field."""
    if any(c in check_string(value, key) for c in ',"\r\n'):
        raise ValueError(
            f"{key}: must not contain a comma, a double quote or a line break, got {value!r}")
    return value


# How each spec field is checked, whichever spec holds it; ``key`` is its config key.
_FIELD_CHECK = {
    **dict.fromkeys(("horizon", "n", "m"), lambda v, key: check_number(v, key, 2, integer=True)),
    "seed": lambda v, key: check_number(v, key, integer=True),
    "eta": lambda v, key: check_number(v, key, 0, above=True),
    "alpha": lambda v, key: check_number(v, key, 0),
    "b": check_number,
    "regularizer": lambda v, key: check_choice(v, key, REGULARIZERS),
    "name": _check_name,
    **dict.fromkeys(("output", "path"), check_string),
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
        self.unit = spec.resolve().to_unit_range()

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
    "MWU": AgentKind(_multiplicative, ("eta",)),
    "OMWU": AgentKind(_multiplicative, ("eta",), alpha=1.0),
    "AMWU": AgentKind(_multiplicative, ("eta", "alpha", "b")),
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
        if not isinstance(self.metrics, (list, tuple)):
            raise ValueError(f"metrics: must be a list of metric names, got {self.metrics!r}")
        table = self.adversary.rule.metrics
        names = tuple(check_choice(name, "metrics", table) for name in self.metrics)
        if repeated := [name for i, name in enumerate(names) if name in names[:i]]:
            raise ValueError(f"metrics: repeated metric {repeated[0]!r}")  # the series keeps one
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


def _losses(a: np.ndarray, offset: float, f, y):
    """Both sides' loss rows of the strategy rows f and y, one rule for every mode: the row's
    a y and the column's ``offset`` - a^T f.  Each row is the stacked product, exactly the 1-D
    ``a @ y``; a^T is a transposed view, as a contiguous copy has other bits."""
    row, col = np.matmul(a, y[..., None]), np.matmul(a.T, f[..., None])
    np.subtract(offset, col, out=col)
    return row[..., 0], col[..., 0]


def _play(row, col, a: np.ndarray, offset: float, T: int, first: int = 0):
    """Rounds ``first`` + 1 .. T of two unstepped batches of B loss-stream learners, the row's
    f_t and the column's y_t each committed before either side is fed its ``_losses`` of ``a``
    and ``offset``; returns the (B, T, k) strategy blocks fs and ys, after T - ``first`` - 1
    updates per side (round T's strategies are committed, not fed).  On a square game two
    sides of type exactly ``Mwu`` (not a subclass, whose update may differ) step in the row
    side's flat loop, ``Mwu.play_sides``, which stacks both sides' rows as one."""
    n, m = a.shape
    if n == m and type(row) is type(col) is Mwu:
        return row.play_sides(col, a, offset, T, first)
    f, y = row.start(), col.start()
    fs, ys = np.empty((len(f), T, n)), np.empty((len(y), T, m))
    for t in range(first, T - 1):
        fs[:, t], ys[:, t] = f, y
        row_loss, col_loss = _losses(a, offset, f, y)
        f, y = row.update(row_loss), col.update(col_loss)
    fs[:, T - 1], ys[:, T - 1] = f, y
    return fs, ys


def _vs_mwu(row, unit: MatrixGame, etas, T: int):
    """Play the batch ``row``, fed A y_t, against a column ``Mwu`` at ``etas`` fed 1 - A^T f_t
    (the negated gain, in [0, 1]) on a unit-range game: ``_play`` of A and the offset 1.
    Returns a function of a row b and two contexts that checks both sides' rounds of row b,
    its losses recomputed to the same bits, and gives the row side's trace."""
    a = unit.payoff
    fs, ys = _play(row, Mwu((len(etas), unit.m), _column(etas)), a, 1.0, T)

    def checked(b: int, contexts: tuple[str, str]) -> Trace:
        row_loss, col_loss = _losses(a, 1.0, fs[b], ys[b])
        trace = Trace.from_rounds(fs[b], row_loss, context=contexts[0])
        check_rounds(ys[b], col_loss, context=contexts[1])
        return trace

    return checked


def _replay_key(config: SimulationConfig) -> tuple:
    """(eta, horizon): what an oblivious replay depends on besides the game."""
    return config.adversary.eta, config.horizon


def _each(run: Callable, items: list):
    """Step ``items`` as one batch, ``run(items)``, a function of a row b, or, if that raises,
    each item again alone (a batch of one too); then yield each row's result or exception
    in turn, so that no finished row is kept while the next finishes.  An exception comes
    without its traceback, whose frames would hold the batch's blocks."""
    try:
        finish = run(items)
    except Exception:  # noqa: BLE001 - alone, only the failing items fail
        finish = lambda b: run(items[b:b + 1])(0)  # noqa: E731
    for b in range(len(items)):
        try:
            yield finish(b)
        except Exception as exc:  # noqa: BLE001 - this item's error
            yield exc.with_traceback(None)


def _record(unit: MatrixGame, keys) -> dict:
    """The replays of ``keys`` (``_replay_key``s of one horizon) on a unit-range game, each
    recorded (``_each``) and checked: per key its (T, n) loss block x_t = A y_t, or the
    error its recording raised.  Only the loss blocks outlive the call."""
    def run(part):
        etas, horizons = zip(*part)
        checked = _vs_mwu(Mwu((len(part), unit.n), _column(etas)), unit, etas, horizons[0])
        return lambda b: checked(b, ("replay row player round", "replay round")).losses

    return dict(zip(keys, _each(run, keys)))


def _vs_adversary_batch(game: _Game, configs, replays: dict) -> Callable:
    """Step configs that share a game, learner builder and regularizer, horizon
    and adversary kind as one batch; an oblivious agent plays its replay's loss
    block whole (at its ``_replay_key`` in ``replays``), and a failed replay's error
    is raised before the learner is built.  Returns a function of a row b that
    checks config b's rounds and gives its (trace, series, unit game)."""
    T, oblivious = configs[0].horizon, configs[0].adversary.kind == "oblivious_mwu"
    losses = [replays[_replay_key(c)] for c in configs] if oblivious else []
    for failed in (x for x in losses if isinstance(x, Exception)):
        raise failed
    agent = build_agent([c.agent for c in configs], game.unit.n, T)
    # the rate the learner was built with (DoublingAftrl lowers its eta in play)
    reg = getattr(agent, "reg", ENTROPY)
    etas = np.broadcast_to(getattr(agent, "eta", 1.0), (len(configs), 1))
    if oblivious:
        strategies = agent.play(np.stack(losses))
        checked = lambda b: Trace.from_rounds(strategies[b], losses[b])  # noqa: E731
    else:  # reactive: the adversary sees f_t only after the round
        reactive = _vs_mwu(agent, game.unit, [c.adversary.eta for c in configs], T)
        checked = lambda b: reactive(b, ("round", "adversary round"))  # noqa: E731

    def finish(b):
        trace = checked(b)
        series = _series(ADVERSARY_METRICS, configs[b].metrics, trace, reg, etas[b, 0])
        return trace, series, game.unit

    return finish


def _self_play_batch(game: _Game, configs) -> Callable:
    """Mirror-play both sides of the game with the update rule of each config (of any kind,
    sharing a game and a horizon), as one batch: each side is the learner of their rows that
    their kind builds (``build_agent``), fed its ``learners.side_loss``, the max side -A y_t and
    the min side A^T f_t (``_play`` of -A and the offset 0, the same bits, as rounding is
    symmetric under negation).  The first two strategies are equal, and the first update takes
    the round-1 losses as the previous ones, so for ``Mwu`` each round from 3 on is
    ``learners.amwu_step`` of the two rounds before it.  Both sides' rounds, with the losses
    1 - A y_t and A^T f_t in [0, 1], are checked.  Returns a function of a row b that checks
    config b's rounds and gives its (trace_max, trace_min, series, unit game)."""
    a, T, specs = game.unit.payoff, configs[0].horizon, [c.agent for c in configs]
    row, col = (build_agent(specs, k, T) for k in a.shape)
    loss = np.negative(a)  # the max side's loss matrix
    # The round-1 rule: rounds 1 and 2 play the starts.  The loop plays rounds 2 .. T, its
    # first update taking round 1's losses as x_{t-1} (``prev_loss``); round 1 copies round 2.
    row.prev_loss, col.prev_loss = _losses(loss, 0.0, row.start(), col.start())
    fs, ys = _play(row, col, loss, 0.0, T, first=1)
    fs[:, 0], ys[:, 0] = fs[:, 1], ys[:, 1]

    def finish(b):
        traces = (Trace.from_rounds(fs[b], 1.0 - ys[b] @ a.T, context="max side round"),
                  Trace.from_rounds(ys[b], fs[b] @ a, context="min side round"))
        return (*traces, _series(SELF_PLAY_METRICS, configs[b].metrics, game, *traces), game.unit)

    return finish


def _run_game(spec: GameSpec, batches):
    """Resolve one game, then step its batches of outcomes one after another (``_each``),
    each in runs of as many rows as fit ``_BATCH_BYTES`` (an oblivious row's play holds
    ``PLAY_BLOCKS`` blocks of n actions); the oblivious ones against a run of replays at a
    time, as many as fit, recorded as one batch (``_record``) and dropped after its configs
    have stepped.  Yields each outcome with its result, (*traces, series, unit game), or
    with its exception, in turn: the game's if it fails, else its own from ``_each``, its
    replay's if that failed (raised before its learner is built, so it plays no round)."""
    try:
        game = _Game(spec)
    except Exception as exc:  # noqa: BLE001 - reported per config, other games unaffected
        for out in (out for batch in batches for out in batch):
            yield out, exc
        return
    n, m = game.unit.payoff.shape
    oblivious = [b for b in batches if b[0].config.adversary.kind == "oblivious_mwu"]

    def step(batch, replays, k=n + m):
        run = (partial(_self_play_batch, game) if batch[0].config.adversary.kind == "self_play"
               else partial(_vs_adversary_batch, game, replays=replays))
        for rows in _chunks(batch, batch[0].config.horizon, k):
            results = _each(run, [out.config for out in rows])
            for out in rows:
                yield out, next(results)

    for batch in (b for b in batches if b[0].config.adversary.kind != "oblivious_mwu"):
        yield from step(batch, {})
    keys = list(dict.fromkeys(_replay_key(out.config) for b in oblivious for out in b))
    for T in dict.fromkeys(key[1] for key in keys):
        for run in _chunks([key for key in keys if key[1] == T], T, n + m):
            replays = _record(game.unit, run)
            for batch in oblivious:
                if part := [out for out in batch if _replay_key(out.config) in replays]:
                    yield from step(part, replays, PLAY_BLOCKS * n)
            del replays  # else the next run is recorded while this one is still held


def run_alone(config: SimulationConfig):
    """``config`` run as a grid of one (``_run_game``), its result or its exception raised:
    against an adversary (trace, series, unit game), the trace recording the agent's strategies
    and the loss stream x_t = A y_t; in self-play (trace_max, trace_min, series, unit game)."""
    ((_, result),) = _run_game(config.game, [[RunOutcome(0, config)]])
    if isinstance(result, Exception):
        raise result
    return result


# The names the benchmark harness (``perfbench/workloads.py``) still calls.
run_vs_adversary = run_self_play = run_alone


def grid_run(configs, parallelism: int = 1) -> list[RunOutcome]:
    """Execute independent configs, preserving input order in the output.

    The configs of one game share one resolve, one equilibrium solve and the recording
    of each oblivious replay; those that also share a run mode, a horizon, a learner
    builder and a regularizer step together as one batch, one batch after another, in
    runs of as many configs as fit a fixed memory budget.  A config's series is bit for
    bit the config run alone, as a grid of one, so results never depend on batching or
    grid order.  A failing config fails alone: checks and metrics run per config after
    its batch's loop, and a batch whose loop raises reruns per config.
    ``parallelism`` (>= 1) changes nothing; it is kept only because the
    benchmark harness (``perfbench/workloads.py``) still passes it.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")
    outcomes = [RunOutcome(index=i, config=config) for i, config in enumerate(configs)]
    games = {}  # game spec -> batch key -> outcomes, in order of first appearance
    for out in outcomes:
        agent, mode, T = out.config.agent, out.config.adversary.kind, out.config.horizon
        key = (mode, T, agent.rule.build, agent.regularizer or "entropy")
        games.setdefault(out.config.game, {}).setdefault(key, []).append(out)
    for spec, batches in games.items():
        for out, result in _run_game(spec, list(batches.values())):
            if isinstance(result, Exception):
                out.error = f"{type(result).__name__}: {result}"
            else:
                out.series = result[-2]  # of (*traces, series, unit game)
            del result  # drops the config's traces before the next config finishes
    return outcomes
