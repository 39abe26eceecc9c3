import json
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import engine, nash
from zerosum.cli import LAST_ROUND_AGENTS, VS_ADVERSARY_AGENTS, parse_config
from zerosum.core import MatrixGame, Trace, uniform
from zerosum.engine import (
    ADVERSARY_KINDS,
    ADVERSARY_METRICS,
    AGENT_KINDS,
    AdversarySpec,
    AgentSpec,
    GameSpec,
    SimulationConfig,
    grid_run,
    make_random_game,
    run_alone,
    splitmix64,
)
from zerosum.learners import LossStreamLearner, Mwu, amwu_step, side_loss
from zerosum.regularizers import ENTROPY

# First outputs of the published SplitMix64 algorithm, computed with an
# independent C implementation of the reference code.
SPLITMIX_REFERENCE = {
    0: [16294208416658607535, 7960286522194355700, 487617019471545679, 17909611376780542444],
    1: [10451216379200822465, 13757245211066428519, 17911839290282890590, 8196980753821780235],
    123456789: [2466975172287755897, 8832083440362974766, 3534771765162737125, 9592110948284743397],
}


def vs_config(seed=1, horizon=200, agent=None, adversary=None, metrics=()):
    return SimulationConfig(
        game=GameSpec(kind="random", n=6, m=6, seed=seed),
        horizon=horizon,
        agent=agent or AgentSpec(kind="MWU", eta=0.1),
        adversary=adversary or AdversarySpec(kind="oblivious_mwu", eta=0.5),
        metrics=metrics,
    )


def self_play_config(kind, eta, seed=3, metrics=(), **agent):
    return SimulationConfig(
        game=GameSpec(kind="random", n=6, m=6, seed=seed),
        horizon=20,
        agent=AgentSpec(kind=kind, eta=eta, **agent),
        adversary=AdversarySpec(kind="self_play"),
        metrics=metrics,
    )


def vs_document(horizon=200, agent=None, adversary=None, **top):
    """``vs_config``'s defaults as a JSON config document."""
    return json.dumps({
        "game": {"random": {"n": 6, "m": 6, "seed": 1}},
        "horizon": horizon,
        "agent": agent or {"kind": "MWU", "eta": 0.1},
        "adversary": adversary or {"kind": "oblivious_mwu", "eta": 0.5},
        **top,
    })


# The spec classes, their config keys, the fields every kind reads, and their kind tables.
SPEC_TABLES = [(AgentSpec, "agent", ("name",), AGENT_KINDS),
               (AdversarySpec, "adversary", (), ADVERSARY_KINDS)]
FIELD_VALUES = {"eta": 0.1, "alpha": 5.0, "b": 2.0, "regularizer": "entropy"}


def unread_field_cases():
    """For each (kind, field) that the kind tables leave unread: a spec of
    the kind with the field set, its JSON document, and the error text."""
    cases = []
    for spec_class, where, always, kinds in SPEC_TABLES:
        for kind, rule in kinds.items():
            read = ("kind", *always, *rule.keys)
            for name in spec_class.__dataclass_fields__:
                if name in read:
                    continue
                obj = {"kind": kind, **({"eta": 0.1} if "eta" in read else {}),
                       name: FIELD_VALUES[name]}
                text = (f"{where} (kind {kind!r}): unknown key {name!r}; "
                        f"accepted: {', '.join(sorted(read))}")
                build = lambda spec_class=spec_class, obj=obj: spec_class(**obj)  # noqa: E731
                cases.append(pytest.param(build, vs_document(**{where: obj}), text,
                                          id=f"{kind}-{name}"))
    return cases


class TestSpecChecks:
    """A spec built in Python raises, when built, the text that
    ``parse_config`` gives for the same JSON."""

    @pytest.mark.parametrize(
        "build,document,text",
        [
            pytest.param(lambda: AgentSpec(kind="AFTRL"), vs_document(agent={"kind": "AFTRL"}),
                         "agent.eta: missing required key", id="agent-eta"),
            pytest.param(lambda: AdversarySpec(kind="oblivious_mwu"),
                         vs_document(adversary={"kind": "oblivious_mwu"}),
                         "adversary.eta: missing required key", id="adversary-eta"),
            pytest.param(lambda: AgentSpec(kind="AMWU", eta=0.1, alpha=1.0, b=2.0),
                         vs_document(agent={"kind": "AMWU", "eta": 0.1, "alpha": 1.0, "b": 2.0}),
                         "agent.alpha: give either 'alpha' or 'b', not both", id="alpha-and-b"),
            pytest.param(lambda: AgentSpec(kind="MWU", eta=0.1, name="MWU,fast\nx"),
                         vs_document(agent={"kind": "MWU", "eta": 0.1, "name": "MWU,fast\nx"}),
                         "agent.name: must not contain a comma, a double quote or a line break,"
                         " got 'MWU,fast\\nx'",
                         id="name-not-one-csv-field"),
            *unread_field_cases(),
        ],
    )
    def test_same_text_as_parse_config(self, build, document, text):
        with pytest.raises(ValueError) as built:
            build()
        with pytest.raises(ValueError) as parsed:
            parse_config(document)
        assert str(built.value) == str(parsed.value) == text

    @pytest.mark.parametrize("spec_class,where,always,kinds", SPEC_TABLES,
                             ids=["agent", "adversary"])
    def test_every_field_is_read_by_some_kind(self, spec_class, where, always, kinds):
        read = {"kind", *always}.union(*(rule.keys for rule in kinds.values()))
        assert set(spec_class.__dataclass_fields__) == read

    def test_metric_of_another_run_mode_rejected_before_any_round(self, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "_play", lambda *args: calls.append("_play"))
        with pytest.raises(ValueError) as built:
            grid_run([vs_config(horizon=100_000, metrics=("kl_to_ne",))])
        with pytest.raises(ValueError) as parsed:
            parse_config(vs_document(horizon=100_000, metrics=["kl_to_ne"]))
        assert str(built.value) == str(parsed.value)
        assert str(built.value).startswith("metrics: unknown value 'kl_to_ne'; choose from ")
        assert calls == []

    @pytest.mark.parametrize("metrics", ["exploitability", 5, None, {"exploitability": 1}],
                             ids=["string", "number", "none", "object"])
    def test_metrics_must_be_a_list(self, metrics):
        # the spec makes the one type check, with parse_config's text for the JSON value
        text = f"metrics: must be a list of metric names, got {metrics!r}"
        with pytest.raises(ValueError) as built:
            vs_config(metrics=metrics)
        assert str(built.value) == text
        if metrics is not None:  # JSON's null is rejected as a null
            with pytest.raises(ValueError) as parsed:
                parse_config(vs_document(metrics=metrics))
            assert str(parsed.value) == text

    def test_repeated_metric_is_named(self):
        # the run's series is keyed by metric, so a second name would be dropped
        names = ["external_regret", "average_loss", "external_regret"]
        with pytest.raises(ValueError) as built:
            vs_config(metrics=tuple(names))
        with pytest.raises(ValueError) as parsed:
            parse_config(vs_document(metrics=names))
        assert str(built.value) == str(parsed.value) == "metrics: repeated metric 'external_regret'"

    def test_recorder_rate_is_an_unknown_key(self):
        # the replay is MWU(eta) recorded against MWU(eta): there is no second rate
        adversary = {"kind": "oblivious_mwu", "eta": 0.5, "recorder_eta": 0.2}
        with pytest.raises(ValueError) as parsed:
            parse_config(vs_document(adversary=adversary))
        assert str(parsed.value) == "adversary: unknown key 'recorder_eta'; accepted: eta, kind"
        with pytest.raises(TypeError, match="recorder_eta"):
            AdversarySpec(**adversary)

    @pytest.mark.parametrize("fields,text", [
        ({"kind": "random", "n": 3, "m": 3, "seed": 1, "path": "nowhere.csv"},
         "game (kind 'random'): unknown key 'path'; accepted: kind, m, n, seed"),
        ({"kind": "csv", "path": "x.csv", "n": 5},
         "game (kind 'csv'): unknown key 'n'; accepted: kind, path"),
    ], ids=["random-path", "csv-n"])
    def test_game_field_its_kind_does_not_read(self, fields, text):
        with pytest.raises(ValueError) as built:
            GameSpec(**fields)
        assert str(built.value) == text

    def test_numpy_scalars_are_numbers(self):
        game = GameSpec(kind="random", n=np.int64(4), m=np.int32(4), seed=np.uint8(3))
        agent = AgentSpec(kind="AMWU", eta=np.float32(0.5), alpha=np.int64(3))
        assert [type(v) for v in (game.n, game.m, game.seed)] == [int, int, int]
        assert (game.n, game.m, game.seed, agent.eta, agent.alpha) == (4, 4, 3, 0.5, 3.0)
        assert type(agent.eta) is float and type(agent.alpha) is float
        with pytest.raises(ValueError, match=r"^agent\.eta: must be a finite number > 0"):
            AgentSpec(kind="MWU", eta=np.bool_(True))


class TestSplitMix64:
    def test_reference_stream(self):
        for seed, expected in SPLITMIX_REFERENCE.items():
            assert splitmix64(seed, 4).tolist() == expected

    def test_doubles_in_unit_interval(self):
        xs = make_random_game(40, 25, seed=99).payoff
        assert xs.min() >= 0.0 and xs.max() < 1.0


class TestMakeRandomGame:
    def test_deterministic(self):
        a = make_random_game(5, 7, seed=42)
        b = make_random_game(5, 7, seed=42)
        np.testing.assert_array_equal(a.payoff, b.payoff)

    def test_range(self):
        g = make_random_game(20, 20, seed=3)
        assert g.payoff.shape == (20, 20)
        assert g.payoff.min() >= 0.0 and g.payoff.max() <= 1.0

    def test_empirical_mean(self):
        g = make_random_game(100, 100, seed=11)
        assert 0.49 <= g.payoff.mean() <= 0.51

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            make_random_game(1, 5, seed=0)


def replay(game, eta, horizon):
    """The loss block of the oblivious replay at (eta, horizon) on ``game``'s unit
    range; raises the error of its recording's check."""
    xs = engine._record(game.to_unit_range(), [(eta, horizon)])[eta, horizon]
    if isinstance(xs, Exception):
        raise xs
    return xs


class TestRecordObliviousTrace:
    """The oblivious replay recording, ``engine._record`` (the class keeps the name of the
    recorder that it replaced, so that its tests keep their names)."""

    def test_deterministic(self):
        g = make_random_game(4, 4, seed=5)
        np.testing.assert_array_equal(replay(g, 0.5, 50), replay(g, 0.5, 50))

    def test_zero_matrix_stays_uniform(self, tmp_path):
        # zero losses, so an agent fed the replay stays uniform
        path = tmp_path / "zero.csv"
        path.write_text("0,0,0\n0,0,0\n0,0,0\n")
        np.testing.assert_array_equal(replay(MatrixGame.from_csv(path), 0.5, 20), np.zeros((20, 3)))
        cfg = SimulationConfig(game=GameSpec(kind="csv", path=str(path)), horizon=20,
                               agent=AgentSpec(kind="MWU", eta=0.1),
                               adversary=AdversarySpec(kind="oblivious_mwu", eta=0.5))
        trace, _, _ = run_alone(cfg)
        np.testing.assert_array_equal(trace.losses, np.zeros((20, 3)))
        np.testing.assert_allclose(trace.strategies, np.full((20, 3), 1 / 3), atol=1e-12)

    def test_symmetric_fixed_point(self):
        # constant row sums keep both players uniform: every loss is 0.5
        g = MatrixGame(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(replay(g, 0.4, 30), np.full((30, 2), 0.5), atol=1e-12)

    def test_strategies_valid(self):
        # each round's loss A y_t, y_t on the simplex, lies between the row's extremes
        g = make_random_game(5, 5, seed=6)
        xs = replay(g, 0.3, 100)
        assert xs.shape == (100, 5)
        assert np.all(xs >= g.payoff.min(axis=1) - 1e-12)
        assert np.all(xs <= g.payoff.max(axis=1) + 1e-12)

    def test_recording_keeps_only_the_loss_blocks(self):
        # each replay is checked as it is recorded; its strategy blocks are dropped
        unit = make_random_game(20, 20, seed=3).to_unit_range()
        K, T = 10, 2000
        tracemalloc.start()
        try:
            keys = [(0.05 * (k + 1), T) for k in range(K)]
            replays = engine._record(unit, keys)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert K * T * unit.n * 8 <= held < 1.25 * K * T * unit.n * 8
        assert list(replays) == keys
        assert all(xs.shape == (T, unit.n) for xs in replays.values())

    # ``other_eta``: a second replay recorded in the same batch (None: recorded alone)
    @pytest.mark.parametrize("eta,other_eta", [(np.nan, None), (np.inf, None), (0.0, None),
                                               (0.5, np.nan), (0.5, -0.1), (True, None),
                                               ("0.5", None)])
    def test_rates_rejected_before_recording(self, eta, other_eta):
        # the recording MWU players check each row's rate when built, not at round 1;
        # the batch raises, so each key is recorded alone and only the bad one fails
        unit = make_random_game(4, 4, seed=5)
        keys = [(eta, 10)] + ([] if other_eta is None else [(other_eta, 10)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replays = engine._record(unit, keys)
        bad = keys[0] if other_eta is None else keys[1]
        assert isinstance(replays[bad], ValueError)
        assert str(replays[bad]).startswith("eta: must be a finite number > 0")
        assert all(xs.shape == (10, 4) for key, xs in replays.items() if key is not bad)


class TestRunVsAdversary:
    def test_deterministic(self):
        cfg = vs_config(agent=AgentSpec(kind="AFTRL", eta=0.05, alpha=2.0))
        t1, s1, _ = run_alone(cfg)
        t2, s2, _ = run_alone(cfg)
        np.testing.assert_array_equal(t1.strategies, t2.strategies)
        np.testing.assert_array_equal(s1["external_regret"], s2["external_regret"])

    def test_loss_range_contract(self):
        cfg = vs_config(agent=AgentSpec(kind="ProdBR"), horizon=150)
        trace, _, _ = run_alone(cfg)
        assert trace.losses.min() >= 0.0 and trace.losses.max() <= 1.0

    def test_best_response_vs_constant_adversary(self, tmp_path):
        # equal columns make every adversary strategy produce the same loss
        # vector; the best responder is per-round optimal from round 2 on
        path = tmp_path / "constant.csv"
        path.write_text("0.8,0.8,0.8\n0.1,0.1,0.1\n0.5,0.5,0.5\n")
        cfg = SimulationConfig(
            game=GameSpec(kind="csv", path=str(path)),
            horizon=50,
            agent=AgentSpec(kind="BestResponse"),
            adversary=AdversarySpec(kind="oblivious_mwu", eta=0.5),
            metrics=("dynamic_regret",),
        )
        _, series, _ = run_alone(cfg)
        increments = np.diff(series["dynamic_regret"])
        np.testing.assert_allclose(increments, np.zeros(49), atol=1e-12)

    def test_nonoblivious_causality(self):
        # two agents that differ only from round 2 face the same y_1, y_2;
        # the adversary's round-3 strategy reacts to f_2 and must differ
        adv = AdversarySpec(kind="nonoblivious_mwu", eta=0.4)
        cfg_a = vs_config(agent=AgentSpec(kind="MWU", eta=0.05), adversary=adv, horizon=5)
        cfg_b = vs_config(agent=AgentSpec(kind="MWU", eta=0.4), adversary=adv, horizon=5)
        ta, _, ga = run_alone(cfg_a)
        tb, _, gb = run_alone(cfg_b)
        # identical first-round strategies (uniform), so x_1 and x_2 agree
        np.testing.assert_allclose(ta.losses[0], tb.losses[0], atol=1e-15)
        np.testing.assert_allclose(ta.losses[1], tb.losses[1], atol=1e-15)
        assert not np.allclose(ta.losses[2], tb.losses[2])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_oblivious_run_equals_a_per_round_step_loop(self, seed):
        T = 300
        for spec in VS_ADVERSARY_AGENTS:
            trace, _, unit = run_alone(vs_config(seed=seed, horizon=T, agent=spec))
            a = unit.payoff
            # the replay: an MWU row player fed A y_t against an MWU column
            # player fed 1 - A^T f_t, both at the adversary's eta, unbatched
            row, col = Mwu(unit.n, 0.5), Mwu(unit.m, 0.5)
            # the learner unbatched: one vector of n actions and its rates as numbers
            agent = spec.rule.build(unit.n, spec.eta, spec.resolved_alpha(), ENTROPY, T)
            strategies, losses = np.empty((T, unit.n)), np.empty((T, unit.n))
            f, r, y = agent.start(), row.start(), col.start()
            for t in range(T):
                strategies[t], losses[t] = f, a @ y
                f = agent.step(losses[t])
                r, y = row.step(a @ y), col.step(1.0 - a.T @ r)
            np.testing.assert_array_equal(trace.strategies, strategies, err_msg=spec.name)
            np.testing.assert_array_equal(trace.losses, losses, err_msg=spec.name)

    @pytest.mark.parametrize("kind", ["AFTRL", "DoublingAFTRL"])
    @pytest.mark.parametrize("adversary", ["oblivious_mwu", "nonoblivious_mwu"])
    def test_series_entry_t_depends_on_rounds_up_to_t(self, kind, adversary):
        # DoublingAFTRL lowers its eta as it restarts; forward_regret keeps the
        # rate it was built with, so a longer run only appends entries
        def series(horizon):
            config = SimulationConfig(
                game=GameSpec(kind="random", n=4, m=4, seed=3), horizon=horizon,
                agent=AgentSpec(kind=kind, eta=1.0, alpha=100.0),
                adversary=AdversarySpec(kind=adversary, eta=0.5))
            return run_alone(config)[1]

        short, long = series(100), series(2000)
        assert set(short) == set(ADVERSARY_METRICS)
        for name, values in short.items():
            np.testing.assert_array_equal(values, long[name][:len(values)], err_msg=name)

    def test_adversary_without_rate_rejected(self):
        with pytest.raises(ValueError, match=r"^adversary\.eta: missing required key$"):
            AdversarySpec(kind="nonoblivious_mwu", eta=None)


def _self_play_traces(monkeypatch, configs) -> dict:
    """``configs`` run by ``grid_run`` as one self-play batch: each config's
    (trace_max, trace_min) by the config's id."""
    traces, self_play_batch = {}, engine._self_play_batch

    def recording(game, batch):
        assert batch == configs
        finish = self_play_batch(game, batch)

        def each(b):
            result = finish(b)
            traces[id(batch[b])] = result[:2]
            return result
        return each

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_self_play_batch", recording)
        assert all(out.error is None for out in grid_run(configs))
    return traces


class TestRunSelfPlay:
    def test_first_two_rounds_uniform(self):
        cfg = SimulationConfig(
            game=GameSpec(kind="random", n=4, m=4, seed=2),
            horizon=10,
            agent=AgentSpec(kind="AMWU", eta=0.1, alpha=5.0),
            adversary=AdversarySpec(kind="self_play"),
            metrics=("exploitability",),
        )
        tf, ty, series, game = run_alone(cfg)
        np.testing.assert_allclose(tf.strategies[0], np.full(4, 0.25))
        np.testing.assert_allclose(tf.strategies[1], np.full(4, 0.25))
        np.testing.assert_allclose(ty.strategies[1], np.full(4, 0.25))
        assert len(series["exploitability"]) == 10

    def test_equilibrium_start_is_fixed(self, tmp_path):
        # unit matching pennies: the uniform start is the equilibrium, and
        # both players stay there for the whole run
        path = tmp_path / "mp.csv"
        path.write_text("1,0\n0,1\n")
        cfg = SimulationConfig(
            game=GameSpec(kind="csv", path=str(path)),
            horizon=40,
            agent=AgentSpec(kind="AMWU", eta=0.1, alpha=3.0),
            adversary=AdversarySpec(kind="self_play"),
            metrics=("exploitability",),
        )
        tf, ty, series, _ = run_alone(cfg)
        np.testing.assert_allclose(tf.strategies, np.full((40, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(ty.strategies, np.full((40, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(series["exploitability"], np.zeros(40), atol=1e-12)

    def test_b_exponent_resolution(self):
        spec = AgentSpec(kind="AMWU", eta=0.01, b=0.5)
        assert spec.resolved_alpha() == pytest.approx(10.0)

    @pytest.mark.parametrize("n,m", [(6, 6), (8, 6), (6, 8), (20, 20)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_the_amwu_step_reference(self, monkeypatch, seed, n, m):
        # two uniform rounds, then each side's exponential self-play update: each
        # config alone, and the four as one batch at alpha 0, 1 and 100 mixed
        T = 300
        configs = [SimulationConfig(
            game=GameSpec(kind="random", n=n, m=m, seed=seed), horizon=T, agent=spec,
            adversary=AdversarySpec(kind="self_play"), metrics=("exploitability",),
        ) for spec in LAST_ROUND_AGENTS]
        batched = _self_play_traces(monkeypatch, configs)
        for config in configs:
            tf, ty, _, unit = run_alone(config)
            eta, alpha = config.agent.eta, config.agent.resolved_alpha()
            fs, ys = np.empty((T, unit.n)), np.empty((T, unit.m))
            fs[0] = fs[1] = uniform(unit.n)
            ys[0] = ys[1] = uniform(unit.m)
            for t in range(2, T):
                fs[t] = amwu_step(fs[t - 1], unit, ys[t - 1], ys[t - 2], "max", eta, alpha)
                ys[t] = amwu_step(ys[t - 1], unit, fs[t - 1], fs[t - 2], "min", eta, alpha)
            for got_f, got_y in ((tf, ty), batched[id(config)]):
                for got, expected in ((got_f, fs), (got_y, ys)):
                    np.testing.assert_array_equal(got.strategies.view(np.int64),
                                                  expected.view(np.int64), config.agent.name)

    def test_kl_series_requested(self):
        cfg = SimulationConfig(
            game=GameSpec(kind="random", n=3, m=3, seed=4),
            horizon=50,
            agent=AgentSpec(kind="OMWU", eta=0.1),
            adversary=AdversarySpec(kind="self_play"),
            metrics=("exploitability", "kl_to_ne"),
        )
        _, _, series, _ = run_alone(cfg)
        assert set(series) == {"exploitability", "kl_to_ne"}
        assert np.all(series["kl_to_ne"] >= 0.0)


class TestOneLearnerPerKind:
    """AMWU is ``Mwu`` in every run mode: at alpha 1 it is OMWU, at alpha 0 MWU."""

    def test_multiplicative_kinds_build_one_mwu(self):
        specs = [AgentSpec(kind="MWU", eta=0.1), AgentSpec(kind="OMWU", eta=0.2),
                 AgentSpec(kind="AMWU", eta=0.3, alpha=5.0)]
        assert type(engine.build_agent(specs[2:], 4, 10)) is Mwu  # AMWU alone
        agent = engine.build_agent(specs, 4, 10)
        assert type(agent) is Mwu and agent.current.shape == (3, 4)
        np.testing.assert_array_equal(agent.alpha, [[0.0], [1.0], [5.0]])

    @pytest.mark.parametrize("mode", ["oblivious_mwu", "nonoblivious_mwu", "self_play"])
    @pytest.mark.parametrize("alpha,kind", [(1.0, "OMWU"), (0.0, "MWU")])
    def test_amwu_equals_its_fixed_rate_kind(self, mode, alpha, kind):
        def run(agent):
            config = SimulationConfig(
                game=GameSpec(kind="random", n=6, m=4, seed=5), horizon=300, agent=agent,
                adversary=AdversarySpec(kind=mode, **({} if mode == "self_play" else
                                                      {"eta": 0.3})))
            return run_alone(config)

        amwu = run(AgentSpec(kind="AMWU", eta=0.1, alpha=alpha))
        fixed = run(AgentSpec(kind=kind, eta=0.1))
        for got, expected in zip(amwu[:-2], fixed[:-2]):  # the traces
            np.testing.assert_array_equal(got.strategies, expected.strategies)
            np.testing.assert_array_equal(got.losses, expected.losses)
        assert set(amwu[-2]) == set(ADVERSARY_KINDS[mode].metrics)  # every series
        _assert_same_series(amwu[-2], fixed[-2])


class TestGridRun:
    def test_empty(self):
        assert grid_run([], parallelism=4) == []

    def test_order_and_parallel_determinism(self):
        configs = [
            vs_config(seed=s, horizon=60, agent=AgentSpec(kind="MWU", eta=e))
            for s in (1, 2) for e in (0.05, 0.2)
        ]
        seq = grid_run(configs, parallelism=1)
        par = grid_run(configs, parallelism=8)
        assert [o.index for o in seq] == [0, 1, 2, 3]
        assert [o.index for o in par] == [0, 1, 2, 3]
        for a, b in zip(seq, par):
            assert a.error is None and b.error is None
            for key in a.series:
                np.testing.assert_array_equal(a.series[key], b.series[key])

    def test_error_isolation(self):
        bad = SimulationConfig(
            game=GameSpec(kind="csv", path="/nonexistent/matrix.csv"),
            horizon=10,
            agent=AgentSpec(kind="MWU", eta=0.1),
            adversary=AdversarySpec(kind="oblivious_mwu", eta=0.5),
        )
        good = vs_config(horizon=30)
        outcomes = grid_run([bad, good], parallelism=2)
        assert outcomes[0].error is not None
        assert outcomes[1].error is None
        assert "average_loss" in outcomes[1].series

    @pytest.mark.parametrize("parallelism", [0, -1])
    def test_parallelism_below_one_is_rejected_before_any_config_steps(self, monkeypatch,
                                                                        parallelism):
        def stepped(spec, batches):
            raise AssertionError("a config stepped")

        monkeypatch.setattr(engine, "_run_game", stepped)
        with pytest.raises(ValueError,
                           match=rf"^parallelism must be positive, got {parallelism}$"):
            grid_run([vs_config(horizon=10)], parallelism)

    def test_grid_cardinality(self):
        configs = [
            vs_config(seed=s, horizon=20, adversary=AdversarySpec(kind="oblivious_mwu", eta=e))
            for e in np.linspace(0.05, 0.5, 10) for s in range(5)
        ]
        assert len(configs) == 50
        outcomes = grid_run(configs, parallelism=4)
        assert len(outcomes) == 50
        assert all(o.error is None for o in outcomes)


# Parameters for one agent of every kind the config parser accepts.
AGENT_PARAMS = {
    "FTRL": {"eta": 0.1},
    "OFTRL": {"eta": 0.1},
    "AFTRL": {"eta": 0.1, "alpha": 3.0},
    "AMD": {"eta": 0.1, "alpha": 2.0},
    "MWU": {"eta": 0.1},
    "OMWU": {"eta": 0.1},
    "AMWU": {"eta": 0.05, "alpha": 10.0},
    "BestResponse": {},
    "ProdBR": {},
    "DoublingAFTRL": {"eta": 0.5, "alpha": 2.0},
}
ALL_AGENTS = tuple(AgentSpec(kind=k, **p) for k, p in sorted(AGENT_PARAMS.items())) + (
    AgentSpec(kind="FTRL", eta=0.1, regularizer="squared_l2", name="FTRL-l2"),
)


class _LiveReplays:
    """``engine._record`` patched to count the replay loss blocks alive, their ``peak``,
    and the keys each call records (``runs``)."""

    def __init__(self, monkeypatch):
        self.live = self.peak = 0
        self.runs = []
        record = engine._record

        def tracked(unit, keys):
            replays = record(unit, keys)
            self.runs.append(len(keys))
            for xs in replays.values():  # each replay's loss block
                self.live += 1
                weakref.finalize(xs, self.release)
            self.peak = max(self.peak, self.live)
            return replays

        monkeypatch.setattr(engine, "_record", tracked)

    def release(self):
        self.live -= 1


class TestReplayGroups:
    def test_agent_table_covers_every_kind(self):
        assert set(AGENT_PARAMS) == set(AGENT_KINDS)

    def test_grid_series_equal_each_config_run_alone(self):
        adversaries = (
            AdversarySpec(kind="oblivious_mwu", eta=0.4),
            AdversarySpec(kind="oblivious_mwu", eta=0.2),
            AdversarySpec(kind="nonoblivious_mwu", eta=0.4),
        )
        configs = [
            vs_config(seed=seed, horizon=40, agent=agent, adversary=adv)
            for adv in adversaries
            for seed in (1, 2)
            for agent in ALL_AGENTS
        ]
        alone = [run_alone(c)[1] for c in configs]
        forward = list(range(len(configs)))
        for order in (forward, forward[::-1]):
            for parallelism in (1, 2):
                outcomes = grid_run([configs[i] for i in order], parallelism)
                assert [o.index for o in outcomes] == forward
                for out in outcomes:
                    assert out.error is None, out.error
                    expected = alone[order[out.index]]
                    assert set(out.series) == set(expected)
                    for name, values in expected.items():
                        np.testing.assert_array_equal(out.series[name], values)

    def test_played_config_alone_equals_it_in_a_mixed_grid(self):
        # each learner plays its replay whole, bit for bit whatever rows share
        # its batch (-0.0 and 0.0 differ), with 3 VS_ADVERSARY rows on each replay
        agents = ALL_AGENTS + VS_ADVERSARY_AGENTS + (
            AgentSpec(kind="ProdBR", regularizer="squared_l2", name="ProdBR-l2"),
            AgentSpec(kind="AFTRL", eta=0.1, b=0.5, name="AFTRL-b"),
        )
        configs = [
            vs_config(seed=seed, horizon=300, agent=agent,
                      adversary=AdversarySpec(kind="oblivious_mwu", eta=eta))
            for seed in (1, 2) for eta in (0.5, 0.2) for agent in agents
        ]
        for out, config in zip(grid_run(configs), configs):
            assert out.error is None, out.error
            alone = run_alone(config)[1]
            assert set(out.series) == set(alone)
            for name, values in alone.items():
                np.testing.assert_array_equal(out.series[name].view(np.int64),
                                              values.view(np.int64), err_msg=name)

    def test_one_recording_per_replay_key(self, monkeypatch):
        # each game's replays are recorded as one batch, each replay key once
        calls = []
        record = engine._record

        def counting(unit, keys):
            calls.append([(unit.payoff.tobytes(), *key) for key in keys])
            return record(unit, keys)

        monkeypatch.setattr(engine, "_record", counting)
        agents = (AgentSpec(kind="MWU", eta=0.1), AgentSpec(kind="ProdBR"))
        configs = [
            vs_config(seed=seed, horizon=30, agent=agent, adversary=adv)
            for agent in agents
            for seed in (1, 2, 3)
            for adv in (
                AdversarySpec(kind="oblivious_mwu", eta=0.3),
                AdversarySpec(kind="oblivious_mwu", eta=0.2),
                AdversarySpec(kind="nonoblivious_mwu", eta=0.3),
            )
        ]
        for parallelism in (1, 2):
            calls.clear()
            outcomes = grid_run(configs, parallelism)
            assert all(o.error is None for o in outcomes)
            keys = [key for call in calls for key in call]
            assert len(calls) == 3  # one recording per game
            assert len(keys) == len(set(keys)) == 6  # 3 games x 2 adversary etas

    def test_one_resolve_per_group(self, monkeypatch):
        calls = []
        resolve = GameSpec.resolve

        def counting(spec):
            calls.append(spec)
            return resolve(spec)

        monkeypatch.setattr(GameSpec, "resolve", counting)
        configs = [
            vs_config(seed=seed, horizon=30, agent=agent, adversary=adv)
            for agent in (AgentSpec(kind="MWU", eta=0.1), AgentSpec(kind="ProdBR"))
            for seed in (1, 2, 3)
            for adv in (
                AdversarySpec(kind="oblivious_mwu", eta=0.3),
                AdversarySpec(kind="oblivious_mwu", eta=0.2),
                AdversarySpec(kind="nonoblivious_mwu", eta=0.3),
            )
        ] + [self_play_config("OMWU", 0.1, seed=seed) for seed in (1, 2, 3)]
        for parallelism in (1, 2):
            calls.clear()
            outcomes = grid_run(configs, parallelism)
            assert all(o.error is None for o in outcomes)
            # one resolve per game, shared by all its configs
            assert len(calls) == 3
            assert {spec.seed for spec in calls} == {1, 2, 3}
        calls.clear()
        run_alone(configs[0])  # a config run alone resolves its own game
        assert len(calls) == 1

    def test_one_equilibrium_per_self_play_game(self, monkeypatch):
        calls = []
        solve = nash.solve_zero_sum

        def counting(game):
            calls.append(game)
            return solve(game)

        configs = [
            self_play_config(spec.kind, spec.eta, seed=seed, alpha=spec.alpha, name=spec.name,
                             metrics=("exploitability", "kl_to_ne"))
            for seed in (1, 2)
            for spec in LAST_ROUND_AGENTS
        ]
        alone = [run_alone(c)[2] for c in configs]
        monkeypatch.setattr(nash, "solve_zero_sum", counting)
        for parallelism in (1, 2):
            calls.clear()
            outcomes = grid_run(configs, parallelism)
            assert len(calls) == 2
            for out, expected in zip(outcomes, alone):
                assert out.error is None, out.error
                assert set(out.series) == set(expected)
                for name, values in expected.items():
                    np.testing.assert_array_equal(out.series[name], values)
        # solved only for a config that asks for kl_to_ne
        calls.clear()
        grid_run([self_play_config(spec.kind, spec.eta, alpha=spec.alpha,
                                   metrics=("exploitability",)) for spec in LAST_ROUND_AGENTS])
        assert calls == []

    def test_failed_replay_fails_only_its_group(self, monkeypatch):
        # a recording batch that fails is recorded again one replay at a time
        vs_mwu = engine._vs_mwu

        def failing_at_04(row, unit, etas, T):
            if 0.4 in etas:
                raise ValueError("replay failed")
            return vs_mwu(row, unit, etas, T)

        monkeypatch.setattr(engine, "_vs_mwu", failing_at_04)
        agents = (AgentSpec(kind="MWU", eta=0.1), AgentSpec(kind="OMWU", eta=0.1),
                  AgentSpec(kind="ProdBR"))
        bad_adv = AdversarySpec(kind="oblivious_mwu", eta=0.4)
        bad = [vs_config(horizon=30, agent=a, adversary=bad_adv) for a in agents]
        good = [vs_config(horizon=30, agent=a) for a in agents]
        configs = [c for pair in zip(bad, good) for c in pair]
        with pytest.raises(ValueError) as alone:
            run_alone(bad[0])
        for parallelism in (1, 2):
            outcomes = grid_run(configs, parallelism)
            assert [o.index for o in outcomes] == list(range(len(configs)))
            assert len({id(o) for o in outcomes}) == len(configs)
            for out, config in zip(outcomes[0::2], bad):
                assert out.config is config
                assert out.error == f"ValueError: {alone.value}"
                assert out.series == {}
            for out in outcomes[1::2]:
                assert out.error is None
                assert set(out.series) == set(ADVERSARY_METRICS)

    def test_replays_held_one_game_at_a_time(self, monkeypatch):
        # games run one after another: only one game's loss blocks are held at once
        replays = _LiveReplays(monkeypatch)
        configs = [
            vs_config(seed=seed, horizon=60, agent=AgentSpec(kind="MWU", eta=eta),
                      adversary=AdversarySpec(kind="oblivious_mwu", eta=adversary_eta))
            for seed in range(6)
            for eta in (0.05, 0.2)
            for adversary_eta in (0.5, 0.3)
        ]
        for parallelism in (1, 2):
            replays.peak = 0
            outcomes = grid_run(configs, parallelism)
            assert all(o.error is None for o in outcomes)
            assert replays.live == 0
            assert replays.peak == 2  # the two replays of one game

    def test_replays_held_one_run_at_a_time(self, monkeypatch):
        # a budget of two replays a run: a game's five replay keys record in three runs, and
        # each run is dropped before the next is recorded
        T, n, m = 60, 10, 10
        monkeypatch.setattr(engine, "_BATCH_BYTES", 2 * 8 * T * (n + m))
        replays = _LiveReplays(monkeypatch)
        configs = [SimulationConfig(
            game=GameSpec(kind="random", n=n, m=m, seed=1), horizon=T,
            agent=AgentSpec(kind="MWU", eta=0.1),
            adversary=AdversarySpec(kind="oblivious_mwu", eta=0.1 * (i + 1)),
            metrics=("average_loss",),
        ) for i in range(5)]
        assert all(o.error is None for o in grid_run(configs))
        assert replays.runs == [2, 2, 1]
        assert replays.live == 0
        assert replays.peak == 2  # one run's replays

    def test_failed_recording_batch_records_each_key_alone_once(self, monkeypatch):
        # a recording batch that raises is recorded again one key at a time, once;
        # every batch that reads the failed replay gets its error
        calls = []
        vs_mwu = engine._vs_mwu

        def failing_at_04(row, unit, etas, T):
            calls.append(list(etas))
            if 0.4 in etas:
                raise ValueError("replay failed")
            return vs_mwu(row, unit, etas, T)

        agents = (AgentSpec(kind="MWU", eta=0.1), AgentSpec(kind="OMWU", eta=0.1),
                  AgentSpec(kind="ProdBR"))
        configs = [vs_config(horizon=30, agent=agent,
                             adversary=AdversarySpec(kind="oblivious_mwu", eta=eta))
                   for eta in (0.4, 0.5) for agent in agents]
        clean = grid_run(configs[len(agents):])
        monkeypatch.setattr(engine, "_vs_mwu", failing_at_04)
        outcomes = grid_run(configs)
        assert calls == [[0.4, 0.5], [0.4], [0.5]]
        assert [o.error for o in outcomes[:len(agents)]] == ["ValueError: replay failed"] * 3
        for out, expected in zip(outcomes[len(agents):], clean):
            assert out.error is None, out.error
            assert set(out.series) == set(expected.series)
            for name, values in expected.series.items():
                np.testing.assert_array_equal(out.series[name], values, err_msg=name)

    def test_failed_replay_check_is_not_recorded_again(self, monkeypatch):
        # a replay whose check fails in a recording batch that returns keeps its
        # error: its configs report it and the batch is not recorded again
        calls = []
        record, vs_mwu = engine._record, engine._vs_mwu

        def counting(unit, keys):
            calls.append([eta for eta, _ in keys])
            return record(unit, keys)

        def failing_at_04(row, unit, etas, T):
            checked = vs_mwu(row, unit, etas, T)

            def check(b, contexts):
                if etas[b] == 0.4:
                    raise ValueError("replay check failed")
                return checked(b, contexts)
            return check

        agents = (AgentSpec(kind="MWU", eta=0.1), AgentSpec(kind="ProdBR"))
        configs = [vs_config(horizon=30, agent=agent,
                             adversary=AdversarySpec(kind="oblivious_mwu", eta=eta))
                   for eta in (0.4, 0.5) for agent in agents]
        clean = grid_run(configs[len(agents):])
        monkeypatch.setattr(engine, "_record", counting)
        monkeypatch.setattr(engine, "_vs_mwu", failing_at_04)
        outcomes = grid_run(configs)
        assert calls == [[0.4, 0.5]]
        assert [o.error for o in outcomes[:len(agents)]] == ["ValueError: replay check failed"] * 2
        for out, expected in zip(outcomes[len(agents):], clean):
            assert out.error is None, out.error
            for name, values in expected.series.items():
                np.testing.assert_array_equal(out.series[name], values, err_msg=name)

    def test_failed_replay_configs_do_not_step(self, monkeypatch):
        # a batch that reads a failed replay raises its error before it plays and runs
        # again one config at a time: the replay's configs take the error without
        # playing a round, and their batch-mates that read a good replay play alone
        sizes, played, current = [], [], []
        vs_adversary_batch, vs_mwu, play = engine._vs_adversary_batch, engine._vs_mwu, Mwu.play

        def counting(game, configs, replays):
            sizes.append(len(configs))
            current[:] = configs
            return vs_adversary_batch(game, configs, replays)

        def playing(self, losses):
            played.append([c.adversary.eta for c in current])
            return play(self, losses)

        def failing_at_04(row, unit, etas, T):
            checked = vs_mwu(row, unit, etas, T)

            def check(b, contexts):
                if etas[b] == 0.4:
                    raise ValueError("replay check failed")
                return checked(b, contexts)
            return check

        configs = [vs_config(horizon=30, agent=AgentSpec(kind=kind, eta=0.1),
                             adversary=AdversarySpec(kind="oblivious_mwu", eta=eta))
                   for eta in (0.4, 0.5) for kind in ("MWU", "OMWU")]
        clean = grid_run(configs[2:])
        monkeypatch.setattr(engine, "_vs_adversary_batch", counting)
        monkeypatch.setattr(engine, "_vs_mwu", failing_at_04)
        monkeypatch.setattr(engine.Mwu, "play", playing)
        outcomes = grid_run(configs)
        assert sizes == [4, 1, 1, 1, 1]
        assert played == [[0.5], [0.5]]
        assert [o.error for o in outcomes[:2]] == ["ValueError: replay check failed"] * 2
        for out, expected in zip(outcomes[2:], clean):
            assert out.error is None, out.error
            for name, values in expected.series.items():
                np.testing.assert_array_equal(out.series[name], values, err_msg=name)


def _mixed_grid():
    """Two games; MWU, OMWU, OMWU1, AMWU and ProdBR against oblivious MWUs at
    three replay keys and reactive MWUs at two etas, and the self-play agents;
    in a shuffled order."""
    adversaries = (
        AdversarySpec(kind="oblivious_mwu", eta=0.5),
        AdversarySpec(kind="oblivious_mwu", eta=0.3),
        AdversarySpec(kind="oblivious_mwu", eta=0.2),
        AdversarySpec(kind="nonoblivious_mwu", eta=0.4),
        AdversarySpec(kind="nonoblivious_mwu", eta=0.2),
    )
    configs = [
        vs_config(seed=seed, horizon=40, agent=agent, adversary=adv)
        for seed in (1, 2) for adv in adversaries for agent in VS_ADVERSARY_AGENTS
    ] + [
        self_play_config(spec.kind, spec.eta, seed=seed, alpha=spec.alpha, name=spec.name,
                         metrics=("exploitability", "kl_to_ne"))
        for seed in (1, 2) for spec in LAST_ROUND_AGENTS
    ]
    order = np.random.default_rng(7).permutation(len(configs))
    return [configs[i] for i in order]


def _assert_same_series(got: dict, expected: dict):
    assert set(got) == set(expected)
    for name, values in expected.items():
        np.testing.assert_array_equal(got[name], values, err_msg=name)


def _fault_mwu_rows(patch, faulty_rows):
    """Make the ``Mwu`` rows that ``faulty_rows(learner)`` marks, as a (B, 1) column (it may
    raise instead), play NaN from their first update on: in ``engine._play``, which every
    two-player loop goes through (the replay recordings, reactive play and self-play), and in
    ``Mwu.play``, oblivious play."""
    play_pair, play = engine._play, engine.Mwu.play

    def faulty_pair(row, col, a, offset, T, first=0):  # round by round
        marked = [faulty_rows(side)[:, 0] if isinstance(side, Mwu) else None for side in (row, col)]
        blocks = play_pair(row, col, a, offset, T, first)
        for block, rows in zip(blocks, marked):
            if rows is not None:
                block[rows, first + 1:] = np.nan
        return blocks

    def faulty_play(self, losses):  # all rounds at once
        rows, strategies = faulty_rows(self)[:, 0], play(self, losses)
        strategies[rows, 1:] = np.nan
        return strategies

    patch.setattr(engine, "_play", faulty_pair)
    patch.setattr(engine.Mwu, "play", faulty_play)


class TestBatches:
    def test_batched_series_equal_each_config_run_alone(self, monkeypatch):
        configs = _mixed_grid()
        rows = []  # the size of each batch built
        build = engine.build_agent
        monkeypatch.setattr(engine, "build_agent",
                            lambda specs, n, T: rows.append(len(specs)) or build(specs, n, T))
        outcomes = grid_run(configs)
        # per game and adversary kind: one Mwu batch (MWU, OMWU, OMWU1 and AMWU) and one
        # ProdBr; per game in self-play: one Mwu per side (``_play`` stacks them)
        assert sorted(rows) == sorted([4 * 3, 3, 4 * 2, 2, 4, 4] * 2)
        for out, config in zip(outcomes, configs):
            assert out.config is config and out.error is None, out.error
            (alone,) = grid_run([config])
            assert alone.error is None, alone.error
            _assert_same_series(out.series, alone.series)

    @pytest.mark.parametrize("fault", ["nan", "raise"])
    def test_failing_row_fails_only_its_config(self, monkeypatch, fault):
        # the rows at eta 0.2 go NaN (caught by the checks on each config's slice
        # after the loop) or raise (the batch is run again one config at a time)
        configs = [
            vs_config(horizon=30, agent=AgentSpec(kind="MWU", eta=eta), adversary=adv)
            for adv in (AdversarySpec(kind="oblivious_mwu", eta=0.5),
                        AdversarySpec(kind="nonoblivious_mwu", eta=0.5))
            for eta in (0.1, 0.2, 0.3)
        ]
        clean = grid_run(configs)

        def rows_at_02(learner):
            at_eta = np.asarray(learner.eta) == 0.2
            if at_eta.any() and fault == "raise":
                raise FloatingPointError("row at eta 0.2")
            return at_eta

        _fault_mwu_rows(monkeypatch, rows_at_02)
        outcomes = grid_run(configs)
        expected_error = {"nan": "ValueError: round 2 strategy: non-finite entries",
                          "raise": "FloatingPointError: row at eta 0.2"}[fault]
        for out, before in zip(outcomes, clean):
            if out.config.agent.eta == 0.2:
                assert out.error == expected_error and out.series == {}
            else:
                assert out.error is None, out.error
                _assert_same_series(out.series, before.series)

    @pytest.mark.parametrize("count,steps", [(1, [1, 1]), (2, [2, 1, 1])])
    def test_raising_batch_steps_each_config_once_alone(self, monkeypatch, count, steps):
        # a batch that raises steps each config again alone, a batch of one too;
        # each takes the error it raised alone
        sizes = []

        def failing(game, configs, replays):
            sizes.append(len(configs))
            raise FloatingPointError("batch failed")

        monkeypatch.setattr(engine, "_vs_adversary_batch", failing)
        configs = [vs_config(horizon=30, agent=AgentSpec(kind="MWU", eta=0.1 * (1 + i)))
                   for i in range(count)]
        outcomes = grid_run(configs)
        assert sizes == steps
        assert [o.error for o in outcomes] == ["FloatingPointError: batch failed"] * count

    @pytest.mark.parametrize("mode,count,per_row", [("self_play", 4, 2), ("oblivious_mwu", 5, 1)])
    def test_one_row_of_traces_alive_at_a_time(self, monkeypatch, mode, count, per_row):
        # one batch: each config keeps only its series, and its traces are gone
        # before the next config's are recorded
        live, peak = [0], [0]
        from_rounds = Trace.from_rounds.__func__

        def counted(cls, *args, **kwargs):
            trace = from_rounds(cls, *args, **kwargs)
            live[0] += 1
            peak[0] = max(peak[0], live[0])
            weakref.finalize(trace, lambda: live.__setitem__(0, live[0] - 1))
            return trace

        monkeypatch.setattr(Trace, "from_rounds", classmethod(counted))
        if mode == "self_play":
            configs = [self_play_config("AMWU", 0.05 * (i + 1), alpha=1.0) for i in range(count)]
        else:
            configs = [vs_config(agent=AgentSpec(kind="MWU", eta=0.05 * (i + 1)))
                       for i in range(count)]
        assert all(out.error is None and out.series for out in grid_run(configs))
        assert peak[0] == per_row and live[0] == 0

    @pytest.mark.parametrize("mode", ["oblivious_mwu", "nonoblivious_mwu", "self_play"])
    def test_memory_does_not_grow_with_batch_size(self, monkeypatch, mode):
        # a budget of 3 rows: 18 configs of one game (each with its own replay
        # when oblivious) step 3 at a time, so the traced peak stays that of 3
        T = 1000
        monkeypatch.setattr(engine, "_BATCH_BYTES", 3 * 8 * T * (10 + 10))

        def peak(count):
            configs = [SimulationConfig(
                game=GameSpec(kind="random", n=10, m=10, seed=1), horizon=T,
                agent=AgentSpec(kind="MWU", eta=0.01 * (1 + i)),
                adversary=AdversarySpec(kind=mode, **({} if mode == "self_play" else
                                                      {"eta": 0.1 + 0.02 * i})),
                metrics=("exploitability",) if mode == "self_play" else ("average_loss",),
            ) for i in range(count)]
            tracemalloc.start()
            try:
                assert all(out.error is None for out in grid_run(configs))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(18) < 1.5 * peak(3)


# The grid contract's draws: agents (every kind in every mode), games (a CSV game whose file
# is missing fails each of its configs), adversaries and horizons.  The multiplicative agents
# are those whose rows the fault below marks.
MULTIPLICATIVE_AGENTS = tuple(a for a in ALL_AGENTS if a.rule.build is AGENT_KINDS["MWU"].build)
CONTRACT_GAMES = (
    GameSpec(kind="random", n=6, m=6, seed=1), GameSpec(kind="random", n=6, m=6, seed=2),
    GameSpec(kind="random", n=5, m=7, seed=3), GameSpec(kind="random", n=7, m=5, seed=4),
    GameSpec(kind="csv", path="/nonexistent/matrix.csv"),
)
CONTRACT_ADVERSARIES = tuple(
    AdversarySpec(kind=kind, eta=eta) for kind in ("oblivious_mwu", "nonoblivious_mwu")
    for eta in (0.5, 0.2)
) + (AdversarySpec(kind="self_play"),)


@st.composite
def contract_grids(draw):
    """1 to 10 configs of the contract's draws, and a permutation of their indices."""
    configs = []
    for _ in range(draw(st.integers(1, 10))):
        adversary = draw(st.sampled_from(CONTRACT_ADVERSARIES))
        configs.append(SimulationConfig(
            game=draw(st.sampled_from(CONTRACT_GAMES)), horizon=draw(st.sampled_from((3, 17, 40))),
            agent=draw(st.sampled_from(ALL_AGENTS)), adversary=adversary,
        ))
    return configs, draw(st.permutations(range(len(configs))))


def _compared(out) -> tuple:
    """An outcome's error and its series as int64 views (-0.0 and 0.0 differ, NaNs compare)."""
    return out.error, {name: values.view(np.int64).tolist() for name, values in out.series.items()}


def _grid_permuted_alone(configs, order) -> tuple:
    """Each config's outcome (``_compared``) in the grid, in the grid permuted by ``order``
    and run alone."""
    permuted = [None] * len(configs)
    for i, out in zip(order, grid_run([configs[i] for i in order])):
        permuted[i] = _compared(out)
    return ([_compared(out) for out in grid_run(configs)], permuted,
            [_compared(grid_run([config])[0]) for config in configs])


class TestGridContract:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(drawn=contract_grids(), faulty_eta=st.sampled_from((0.1, 0.05, 0.5, 0.2)),
           raising=st.booleans())
    def test_config_is_the_same_in_a_grid_permuted_and_alone(self, drawn, faulty_eta, raising):
        # a config's series, bit for bit, and its error do not depend on the configs
        # beside it or their order; a fault in the Mwu rows at one eta (two agent rates,
        # two adversary rates), NaN rows or a raise for any batch that holds one, fails
        # only the multiplicative agents and the adversaries at that eta, alike in all three
        configs, order = drawn
        grid, permuted, alone = _grid_permuted_alone(configs, order)
        assert grid == permuted == alone

        def faulty_rows(learner):
            rows = np.asarray(learner.eta) == faulty_eta
            if raising and rows.any():
                raise FloatingPointError(f"a row at eta {faulty_eta}")
            return rows

        with pytest.MonkeyPatch.context() as patch:
            _fault_mwu_rows(patch, faulty_rows)
            faulted, permuted, alone = _grid_permuted_alone(configs, order)
        assert faulted == permuted == alone
        for config, clean, (error, series) in zip(configs, grid, faulted):
            faulty = ((config.agent in MULTIPLICATIVE_AGENTS and config.agent.eta == faulty_eta)
                      or config.adversary.eta == faulty_eta)
            if clean[0] is None and faulty:
                assert error is not None and series == {}
            else:
                assert (error, series) == clean


class TestNonSquareSelfPlay:
    def test_batch_equals_each_config_run_alone(self, monkeypatch):
        # the four last-round agents on an 8x6 and a 6x8 game, in one grid_run:
        # one batch per game, each row its config run alone
        T = 300
        configs = [SimulationConfig(
            game=GameSpec(kind="random", n=n, m=m, seed=4), horizon=T, agent=spec,
            adversary=AdversarySpec(kind="self_play"),
        ) for n, m in ((8, 6), (6, 8)) for spec in LAST_ROUND_AGENTS]
        batched, sizes = {}, []
        batch = engine._self_play_batch

        def recorded(game, part):
            sizes.append(len(part))
            finish = batch(game, part)
            return lambda b: batched.setdefault(id(part[b]), finish(b))

        monkeypatch.setattr(engine, "_self_play_batch", recorded)
        outcomes = grid_run(configs)
        assert sizes == [4, 4]
        monkeypatch.undo()
        for out, config in zip(outcomes, configs):
            assert out.error is None, out.error
            trace_max, trace_min, _, _ = batched[id(config)]
            n, m = config.game.n, config.game.m
            assert trace_max.strategies.shape == (T, n) and trace_min.strategies.shape == (T, m)
            alone = run_alone(config)
            for got, expected in zip((trace_max, trace_min), alone[:2]):
                np.testing.assert_array_equal(got.strategies, expected.strategies)
                np.testing.assert_array_equal(got.losses, expected.losses)
            _assert_same_series(out.series, alone[2])


@pytest.mark.parametrize("n,m", [(20, 20), (8, 6)])
def test_self_play_is_an_amwu_pair_a_round_later(n, m):
    # the round-1 rule: rounds 2 .. T are, bit for bit, an amwu_step pair's rounds 1 .. T-1,
    # whose first update takes the opponent's first strategy as its previous one too
    T, eta, alpha = 300, 0.05, 3.0
    trace_max, trace_min, _, unit = run_alone(SimulationConfig(
        game=GameSpec(kind="random", n=n, m=m, seed=4), horizon=T,
        agent=AgentSpec(kind="AMWU", eta=eta, alpha=alpha),
        adversary=AdversarySpec(kind="self_play")))
    fs, ys = [uniform(unit.n)], [uniform(unit.m)]
    for _ in range(T - 2):  # both step on the opponent's last two strategies
        f_prev, y_prev = fs[-2] if len(fs) > 1 else fs[-1], ys[-2] if len(ys) > 1 else ys[-1]
        fs, ys = (fs + [amwu_step(fs[-1], unit, ys[-1], y_prev, "max", eta, alpha)],
                  ys + [amwu_step(ys[-1], unit, fs[-1], f_prev, "min", eta, alpha)])
    for trace, want in ((trace_max, fs), (trace_min, ys)):
        np.testing.assert_array_equal(trace.strategies[1:].view(np.int64),
                                      np.array(want).view(np.int64))


@pytest.mark.parametrize("n,m", [(6, 6), (8, 6)])
def test_self_play_traces_hold_each_rounds_losses(monkeypatch, n, m):
    # every round's losses, round 1 included, are the 1-D products of the opponent's strategy
    # that round, 1 - A y_t for the max side and A^T f_t for the min side: one config run alone
    # and a mixed-alpha batch.  Within 1e-12, not bit for bit: the traces take them as GEMMs
    # of the whole run, which may sum in another order than a 1-D product
    configs = [SimulationConfig(
        game=GameSpec(kind="random", n=n, m=m, seed=5), horizon=300, agent=spec,
        adversary=AdversarySpec(kind="self_play"),
    ) for spec in LAST_ROUND_AGENTS]
    batched = _self_play_traces(monkeypatch, configs)
    alone = run_alone(configs[2])
    a = alone[3].payoff
    for trace_max, trace_min in [alone[:2], *batched.values()]:
        want_max = [1.0 - a @ y for y in trace_min.strategies]
        want_min = [a.T @ f for f in trace_max.strategies]
        np.testing.assert_allclose(trace_max.losses, want_max, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace_min.losses, want_min, rtol=0, atol=1e-12)


def _self_play(spec, n, m, T):
    """``spec`` in self-play on the seed-3 n x m game, run alone: (trace_max, trace_min,
    series, unit game), its one metric ``exploitability``."""
    return run_alone(SimulationConfig(
        game=GameSpec(kind="random", n=n, m=m, seed=3), horizon=T, agent=spec,
        adversary=AdversarySpec(kind="self_play"), metrics=("exploitability",)))


@pytest.mark.parametrize("n,m", [(6, 6), (8, 6), (20, 20)])
def test_ftrl_self_play_is_mwu(n, m):
    # the entropy leader of the cumulative loss is the multiplicative update's softmax, so
    # FTRL's self-play (two learners, an update a round) is MWU's (one flat loop on a square
    # game) up to rounding
    ftrl, mwu = (_self_play(AgentSpec(kind=kind, eta=0.1), n, m, 1000) for kind in ("FTRL", "MWU"))
    for got, want in zip(ftrl[:2], mwu[:2]):
        np.testing.assert_allclose(got.strategies, want.strategies, rtol=0, atol=1e-10)
    np.testing.assert_allclose(ftrl[2]["exploitability"], mwu[2]["exploitability"],
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("n,m", [(6, 6), (8, 6)])
@pytest.mark.parametrize("spec", ALL_AGENTS + (
    AgentSpec(kind="AMD", eta=0.1, alpha=2.0, regularizer="squared_l2", name="AMD-l2"),
), ids=lambda spec: spec.display_name)
def test_each_kind_self_plays_as_its_update_loop_on_unit_losses(spec, n, m):
    # the engine feeds the max side -A y_t; every learner's update reads a loss vector only up
    # to a constant added to each entry, so a per-round update loop fed its trace's losses
    # 1 - A y_t (and A^T f_t) plays the same rounds up to rounding, under the round-1 rule
    T = 1000
    trace_max, trace_min, _, unit = _self_play(spec, n, m, T)
    a = unit.payoff
    row, col = (engine.build_agent([spec], k, T) for k in a.shape)
    fs, ys = [row.start()] * 2, [col.start()] * 2  # rounds 1 and 2 play the starts
    row.prev_loss, col.prev_loss = 1.0 - ys[0] @ a.T, fs[0] @ a  # round 1's losses
    for _ in range(T - 2):
        f, y = fs[-1], ys[-1]
        fs.append(row.update(1.0 - y @ a.T).copy())
        ys.append(col.update(f @ a).copy())
    assert getattr(row, "restarts", []) == getattr(col, "restarts", []) == []  # no near-tie
    for trace, want in ((trace_max, fs), (trace_min, ys)):
        np.testing.assert_allclose(trace.strategies, np.vstack(want), rtol=0, atol=1e-10)


def test_undefined_kl_fails_alone_naming_its_side_and_round():
    # a best response plays a pure strategy from round 3 on, with zero mass on part of the
    # equilibrium's support: its config fails, naming the first such round, and the configs
    # beside it are as if run alone
    best_response = self_play_config("BestResponse", None, metrics=("kl_to_ne",))
    strategies = _self_play(best_response.agent, 6, 6, 20)[0].strategies
    pure = np.flatnonzero(strategies.max(axis=1) == 1.0)[0] + 1
    assert pure == 3
    others = [self_play_config("FTRL", 0.1), self_play_config("MWU", 0.1), vs_config(horizon=20)]
    bad, *good = grid_run([best_response, *others])
    assert bad.error == (f"ValueError: kl_divergence undefined: max side round {pure} has zero "
                         "mass on the support of p") and bad.series == {}
    for out, config in zip(good, others):
        (alone,) = grid_run([config])
        assert out.error is None and alone.error is None
        _assert_same_series(out.series, alone.series)


class TestLosses:
    """``engine._losses`` is one rule for every mode: the row a y, the column offset - a^T f."""

    @pytest.mark.parametrize("n,m", [(20, 20), (8, 6), (6, 8)])
    @pytest.mark.parametrize("B", [1, 4])
    def test_self_play_and_adversary_losses(self, n, m, B):
        # self-play's -A and 0 are side_loss's -A y and A^T f, the adversary's A and 1 the
        # stacked products; Mwu.play_sides writes the same products into its own buffers
        game = make_random_game(n, m, seed=12).to_unit_range()
        a, rng = game.payoff, np.random.default_rng(B * 100 + n)
        f, y = rng.dirichlet(np.ones(n), B), rng.dirichlet(np.ones(m), B)
        cases = [
            (engine._losses(np.negative(a), 0.0, f, y),
             (side_loss(game, "max")(y), side_loss(game, "min")(f))),
            (engine._losses(a, 1.0, f, y),
             ((a @ y[..., None])[..., 0], 1.0 - (a.T @ f[..., None])[..., 0])),
        ]
        for got, want in cases:
            for side, expected in zip(got, want):
                assert side.shape == expected.shape
                np.testing.assert_array_equal(side.view(np.int64), expected.view(np.int64))


class TestOneMwuForBothSides:
    """On a square game ``engine._play`` steps the two ``Mwu`` sides in the row side's flat loop
    (``Mwu.play_sides``), their 2B rows stacked, each round bit for bit two separate ``Mwu`` sides
    fed fresh loss rows by ``Mwu.update``; a non-square game, or a row of an ``Mwu``
    subclass, keeps the two.  Self-play and the recording/reactive loop (``_vs_mwu``), at
    B=1 and B=4, all rows at alpha 0 or at ``ALPHAS`` (B=1: alpha 100)."""

    ETAS, ALPHAS, COLUMN_ETAS = [0.01, 0.1, 0.05, 0.2], [100.0, 0.0, 1.0, 3.0], [0.4, 0.3, 0.2, 0.5]
    T = 200

    @staticmethod
    def two_sides(row, col, unit, row_loss, col_loss, first):
        """Rounds first + 1 .. T of two separate learners, each fed its fresh loss rows."""
        B, n, m, T = len(row.current), unit.n, unit.m, TestOneMwuForBothSides.T
        fs, ys = np.empty((B, T, n)), np.empty((B, T, m))
        f, y = row.start(), col.start()
        for t in range(first, T):
            fs[:, t], ys[:, t] = f, y
            f, y = row.update(row_loss(y)), col.update(col_loss(f))
        return fs, ys

    @staticmethod
    def played(monkeypatch, run):
        """The rows of each ``Mwu.update``, and both sides' rows in each ``Mwu.play_sides`` call,
        that ``run()`` makes, and the strategy blocks that its one ``engine._play`` returns."""
        rows, sides, calls = [], [], []
        update, play_sides, play = Mwu.update, Mwu.play_sides, engine._play
        monkeypatch.setattr(Mwu, "update", lambda self, x: rows.append(len(x)) or update(self, x))
        monkeypatch.setattr(Mwu, "play_sides", lambda self, col, *args: sides.append(
            (len(self.current), len(col.current))) or play_sides(self, col, *args))
        monkeypatch.setattr(engine, "_play", lambda *args, **kwargs: calls.append(
            play(*args, **kwargs)) or calls[-1])
        run()
        (blocks,) = calls
        return (rows, sides), blocks

    def stepped(self, n, m, B, first):
        """The ``update`` and the ``play_sides`` rows: on a square game one ``play_sides`` call
        of the two B-row sides and no ``update``, else no call and an ``update`` of B rows per
        side a round for rounds first + 1 .. T - 1 (round T's strategies are committed, not
        fed)."""
        return ([], [(B, B)]) if n == m else ([B] * (2 * (self.T - first - 1)), [])

    def rates(self, B, mixed):
        return engine._column(self.ETAS[:B]), engine._column(self.ALPHAS[:B] if mixed else [0.0] * B)

    @pytest.mark.parametrize("n,m", [(20, 20), (8, 6)])
    @pytest.mark.parametrize("B", [1, 4])
    @pytest.mark.parametrize("mixed", [False, True], ids=["alpha0", "mixed"])
    def test_self_play(self, monkeypatch, n, m, B, mixed):
        spec = GameSpec(kind="random", n=n, m=m, seed=12)
        etas, alphas = self.rates(B, mixed)
        configs = [SimulationConfig(
            game=spec, horizon=self.T, agent=AgentSpec(kind="AMWU", eta=eta, alpha=alpha),
            adversary=AdversarySpec(kind="self_play")) for eta, alpha in zip(etas[:, 0], alphas[:, 0])]
        game = engine._Game(spec)
        rows, (fs, ys) = self.played(monkeypatch, lambda: engine._self_play_batch(game, configs))
        assert rows == self.stepped(n, m, B, first=1)
        row, col = Mwu((B, n), etas, alphas), Mwu((B, m), etas, alphas)
        row_loss, col_loss = (side_loss(game.unit, side) for side in ("max", "min"))
        row.prev_loss, col.prev_loss = row_loss(col.start()), col_loss(row.start())
        expected = self.two_sides(row, col, game.unit, row_loss, col_loss, first=1)
        for got, want in zip((fs, ys), expected):
            np.testing.assert_array_equal(got[:, 1:].view(np.int64), want[:, 1:].view(np.int64))

    @pytest.mark.parametrize("n,m", [(20, 20), (8, 6)])
    @pytest.mark.parametrize("B", [1, 4])
    @pytest.mark.parametrize("mixed", [False, True], ids=["alpha0", "mixed"])
    def test_vs_mwu(self, monkeypatch, n, m, B, mixed):
        unit = make_random_game(n, m, seed=12).to_unit_range()
        a, (etas, alphas), column_etas = unit.payoff, self.rates(B, mixed), self.COLUMN_ETAS[:B]
        alphas = alphas if mixed else 0.0  # as the recording builds its row
        rows, (fs, ys) = self.played(monkeypatch, lambda: engine._vs_mwu(
            Mwu((B, n), etas, alphas), unit, column_etas, self.T))
        assert rows == self.stepped(n, m, B, first=0)
        expected = self.two_sides(
            Mwu((B, n), etas, alphas), Mwu((B, m), engine._column(column_etas)), unit,
            lambda y: (a @ y[..., None])[..., 0], lambda f: 1.0 - (a.T @ f[..., None])[..., 0],
            first=0)
        for got, want in zip((fs, ys), expected):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    class PrimedMwu(Mwu):
        """An ``Mwu`` whose first update also takes its loss as the previous one."""

        primed = False

        def update(self, observed):
            if not self.primed:
                self.prev_loss, self.primed = observed, True
            return super().update(observed)

    @pytest.mark.parametrize("B", [1, 4])
    def test_mwu_subclass_row_stays_two_learners(self, monkeypatch, B):
        # a PrimedMwu row's first update takes its loss as the previous one, not the zero
        # vector: on a square game it steps beside the column MWU, not as one Mwu with it
        n = 20
        unit = make_random_game(n, n, seed=12).to_unit_range()
        a, (etas, alphas), column_etas = unit.payoff, self.rates(B, True), self.COLUMN_ETAS[:B]
        rows, (fs, ys) = self.played(monkeypatch, lambda: engine._vs_mwu(
            self.PrimedMwu((B, n), etas, alphas), unit, column_etas, self.T))
        assert rows == ([B] * (2 * (self.T - 1)), [])
        expected = self.two_sides(
            self.PrimedMwu((B, n), etas, alphas), Mwu((B, n), engine._column(column_etas)), unit,
            lambda y: (a @ y[..., None])[..., 0], lambda f: 1.0 - (a.T @ f[..., None])[..., 0],
            first=0)
        for got, want in zip((fs, ys), expected):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class _OffSimplexAt:
    """A learner whose strategy for round k is scaled off the simplex."""

    play = LossStreamLearner.play  # start, then update round by round

    def __init__(self, inner, k):
        self.inner, self.k, self.round = inner, k, 1

    def start(self):
        return self.inner.start()

    def update(self, observed):
        self.round += 1
        f = self.inner.update(observed)
        return 1.5 * f if self.round == self.k else f


class TestRoundChecks:
    @pytest.mark.parametrize("kind", ["oblivious_mwu", "nonoblivious_mwu"])
    def test_bad_strategy_names_its_round(self, monkeypatch, kind):
        build = engine.build_agent
        monkeypatch.setattr(
            engine, "build_agent", lambda spec, n, horizon: _OffSimplexAt(build(spec, n, horizon), 9)
        )
        cfg = vs_config(horizon=20, adversary=AdversarySpec(kind=kind, eta=0.4))
        with pytest.raises(ValueError, match=r"^round 9 strategy: entries sum to"):
            run_alone(cfg)

    def test_bad_loss_names_its_round(self, monkeypatch):
        record = engine._record

        def corrupted(unit, keys):
            replays = record(unit, keys)
            for xs in replays.values():
                xs[5, 0] = 1.5  # above any loss of a unit-range game
            return replays

        monkeypatch.setattr(engine, "_record", corrupted)
        with pytest.raises(ValueError, match=r"^round 6 loss: entries outside \[0, 1\]"):
            run_alone(vs_config(horizon=20))

    def test_bad_replay_recording_names_its_round(self, monkeypatch):
        play = engine._play

        def drifting(*args):  # each side's third update, round 4, drifts off the simplex
            blocks = play(*args)
            for block in blocks:
                block[:, 3] += 1e-6
            return blocks

        monkeypatch.setattr(engine, "_play", drifting)
        with pytest.raises(ValueError, match=r"^replay row player round 4 strategy"):
            replay(make_random_game(4, 4, seed=1), 0.5, 10)


def _off_simplex_self_play_round(monkeypatch, eta, side, k):
    """Wrap ``engine._play`` so that the self-play run at ``eta`` gives ``side`` a strategy
    off the simplex in round k (its first update plays round 3), in the rows at ``eta``
    only: of the max side's block, the row learner's, or the min side's."""
    play = engine._play

    def off_at_k(row, col, *args, **kwargs):
        blocks = play(row, col, *args, **kwargs)
        learner, block = (row, blocks[0]) if side == "max" else (col, blocks[1])
        block[(learner.eta == eta)[:, 0], k - 1] += 1e-8
        return blocks

    monkeypatch.setattr(engine, "_play", off_at_k)


class TestSelfPlayRoundChecks:
    @pytest.mark.parametrize("side", ["max", "min"])
    def test_bad_strategy_names_its_round(self, monkeypatch, side):
        _off_simplex_self_play_round(monkeypatch, 0.2, side, 7)
        with pytest.raises(ValueError, match=rf"^{side} side round 7 strategy: entries sum to"):
            run_alone(self_play_config("OMWU", 0.2))

    def test_bad_round_fails_only_its_config(self, monkeypatch):
        configs = [
            self_play_config("MWU", 0.1),
            self_play_config("OMWU", 0.2),
            self_play_config("AMWU", 0.1, alpha=5.0),
        ]
        clean = grid_run(configs)
        for parallelism in (1, 2):
            with monkeypatch.context() as patch:
                _off_simplex_self_play_round(patch, 0.2, "max", 11)
                outcomes = grid_run(configs, parallelism)
            assert "max side round 11 strategy" in outcomes[1].error
            for i in (0, 2):
                assert outcomes[i].error is None
                for name, series in clean[i].series.items():
                    np.testing.assert_array_equal(outcomes[i].series[name], series)


def _missing_csv_game(monkeypatch, tmp_path):
    return SimulationConfig(game=GameSpec(kind="csv", path=str(tmp_path / "missing.csv")),
                            horizon=20, agent=AgentSpec(kind="MWU", eta=0.1),
                            adversary=AdversarySpec(kind="oblivious_mwu", eta=0.5))


def _failed_replay_check(monkeypatch, tmp_path):
    vs_mwu = engine._vs_mwu

    def failing_at_04(row, unit, etas, T):
        checked = vs_mwu(row, unit, etas, T)

        def check(b, contexts):
            if etas[b] == 0.4:
                raise ValueError("replay check failed")
            return checked(b, contexts)
        return check

    monkeypatch.setattr(engine, "_vs_mwu", failing_at_04)
    return vs_config(horizon=30, adversary=AdversarySpec(kind="oblivious_mwu", eta=0.4))


def _off_simplex_round(monkeypatch, tmp_path):
    config = vs_config(horizon=20, adversary=AdversarySpec(kind="nonoblivious_mwu", eta=0.4))
    build = engine.build_agent

    def off_simplex(specs, n, horizon):  # the adversary config's learner, not self-play's
        agent = build(specs, n, horizon)
        return _OffSimplexAt(agent, 9) if specs[0] is config.agent else agent
    monkeypatch.setattr(engine, "build_agent", off_simplex)
    return config


def _unsolved_equilibrium(monkeypatch, tmp_path):
    def failing(game):
        raise ArithmeticError("no certified equilibrium")

    monkeypatch.setattr(nash, "solve_zero_sum", failing)
    return self_play_config("OMWU", 0.2, metrics=("kl_to_ne",))


class TestAloneIsAGridOfOne:
    @pytest.mark.parametrize("failure", [_missing_csv_game, _failed_replay_check,
                                         _off_simplex_round, _unsolved_equilibrium])
    def test_config_alone_fails_as_in_the_grid(self, monkeypatch, tmp_path, failure):
        # the type and message raised alone are the config's error in a grid, and a
        # config beside it that does not reach the fault is unaffected
        config = failure(monkeypatch, tmp_path)
        with pytest.raises(Exception) as alone:
            run_alone(config)
        bad, good = grid_run([config, self_play_config("MWU", 0.1, metrics=("exploitability",))])
        assert bad.error == f"{type(alone.value).__name__}: {alone.value}"
        assert bad.series == {}
        assert good.error is None and set(good.series) == {"exploitability"}

    @pytest.mark.parametrize("config", [
        vs_config(horizon=30),
        vs_config(horizon=30, adversary=AdversarySpec(kind="nonoblivious_mwu", eta=0.5)),
        self_play_config("OMWU", 0.1),
    ], ids=["oblivious_mwu", "nonoblivious_mwu", "self_play"])
    def test_one_runner_reads_the_mode_from_the_config(self, config):
        # against an adversary (trace, series, unit game); in self-play both sides' traces
        result = engine.run_alone(config)
        assert len(result) == (4 if config.adversary.kind == "self_play" else 3)
        (outcome,) = grid_run([config])
        assert result[-2].keys() == outcome.series.keys() == set(config.metrics)
        for name, values in outcome.series.items():
            np.testing.assert_array_equal(result[-2][name].view(np.int64), values.view(np.int64))
        assert engine.run_vs_adversary is engine.run_self_play is engine.run_alone

    @pytest.mark.parametrize("name,config,recorded", [
        ("run_vs_adversary", vs_config(horizon=30), [[(0.5, 30)]]),
        ("run_vs_adversary",
         vs_config(horizon=30, adversary=AdversarySpec(kind="nonoblivious_mwu", eta=0.5)), []),
        ("run_self_play", self_play_config("OMWU", 0.1), []),
    ])
    def test_config_alone_steps_through_the_grids_runner(self, monkeypatch, name, config,
                                                          recorded):
        # one game of one outcome, and a replay recorded only for an oblivious config
        games, recordings = [], []
        run_game, record = engine._run_game, engine._record
        monkeypatch.setattr(engine, "_run_game", lambda spec, batches: games.append(
            (spec, [[out.config for out in batch] for batch in batches])) or run_game(spec, batches))
        monkeypatch.setattr(engine, "_record", lambda unit, keys: recordings.append(list(keys))
                            or record(unit, keys))
        result = getattr(engine, name)(config)  # the names the benchmark harness calls
        assert games == [(config.game, [[config]])]
        assert recordings == recorded
        assert result[-2].keys() == set(config.metrics)
