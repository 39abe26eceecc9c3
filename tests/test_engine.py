import threading
import weakref

import numpy as np
import pytest

from zerosum import engine
from zerosum.core import MatrixGame
from zerosum.engine import (
    ADVERSARY_METRICS,
    AGENT_KINDS,
    AdversarySpec,
    AgentSpec,
    GameSpec,
    SimulationConfig,
    SplitMix64,
    grid_run,
    make_random_game,
    record_oblivious_trace,
    run_self_play,
    run_vs_adversary,
)
from zerosum.metrics import dynamic_regret

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


class TestSplitMix64:
    def test_reference_stream(self):
        for seed, expected in SPLITMIX_REFERENCE.items():
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(4)] == expected

    def test_doubles_in_unit_interval(self):
        rng = SplitMix64(99)
        xs = [rng.next_double() for _ in range(1000)]
        assert min(xs) >= 0.0 and max(xs) < 1.0


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


class TestRecordObliviousTrace:
    def test_deterministic(self):
        g = make_random_game(4, 4, seed=5)
        a = record_oblivious_trace(g, 0.5, 50)
        b = record_oblivious_trace(g, 0.5, 50)
        np.testing.assert_array_equal(a, b)

    def test_zero_matrix_stays_uniform(self):
        g = MatrixGame(np.zeros((3, 3)))
        ys = record_oblivious_trace(g, 0.5, 20)
        np.testing.assert_allclose(ys, np.full((20, 3), 1 / 3), atol=1e-12)

    def test_symmetric_fixed_point(self):
        # constant row sums keep both players uniform
        g = MatrixGame(np.array([[1.0, 0.0], [0.0, 1.0]]))
        ys = record_oblivious_trace(g, 0.4, 30)
        np.testing.assert_allclose(ys, np.full((30, 2), 0.5), atol=1e-12)

    def test_strategies_valid(self):
        g = make_random_game(5, 5, seed=6)
        ys = record_oblivious_trace(g, 0.3, 100)
        assert ys.min() >= 0.0
        np.testing.assert_allclose(ys.sum(axis=1), np.ones(100), atol=1e-9)


class TestRunVsAdversary:
    def test_deterministic(self):
        cfg = vs_config(agent=AgentSpec(kind="AFTRL", eta=0.05, alpha=2.0))
        t1, s1, _ = run_vs_adversary(cfg)
        t2, s2, _ = run_vs_adversary(cfg)
        np.testing.assert_array_equal(t1.strategies, t2.strategies)
        np.testing.assert_array_equal(s1["external_regret"], s2["external_regret"])

    def test_loss_range_contract(self):
        cfg = vs_config(agent=AgentSpec(kind="ProdBR"), horizon=150)
        trace, _, _ = run_vs_adversary(cfg)
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
        _, series, _ = run_vs_adversary(cfg)
        increments = np.diff(series["dynamic_regret"])
        np.testing.assert_allclose(increments, np.zeros(49), atol=1e-12)

    def test_nonoblivious_causality(self):
        # two agents that differ only from round 2 face the same y_1, y_2;
        # the adversary's round-3 strategy reacts to f_2 and must differ
        adv = AdversarySpec(kind="nonoblivious_mwu", eta=0.4)
        cfg_a = vs_config(agent=AgentSpec(kind="MWU", eta=0.05), adversary=adv, horizon=5)
        cfg_b = vs_config(agent=AgentSpec(kind="MWU", eta=0.4), adversary=adv, horizon=5)
        ta, _, ga = run_vs_adversary(cfg_a)
        tb, _, gb = run_vs_adversary(cfg_b)
        # identical first-round strategies (uniform), so x_1 and x_2 agree
        np.testing.assert_allclose(ta.losses[0], tb.losses[0], atol=1e-15)
        np.testing.assert_allclose(ta.losses[1], tb.losses[1], atol=1e-15)
        assert not np.allclose(ta.losses[2], tb.losses[2])

    def test_adversary_without_rate_rejected(self):
        cfg = vs_config(adversary=AdversarySpec(kind="nonoblivious_mwu", eta=None))
        with pytest.raises(ValueError, match="eta"):
            run_vs_adversary(cfg)


class TestRunSelfPlay:
    def test_first_two_rounds_uniform(self):
        cfg = SimulationConfig(
            game=GameSpec(kind="random", n=4, m=4, seed=2),
            horizon=10,
            agent=AgentSpec(kind="AMWU", eta=0.1, alpha=5.0),
            adversary=AdversarySpec(kind="self_play"),
            metrics=("exploitability",),
        )
        tf, ty, series, game = run_self_play(cfg)
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
        tf, ty, series, _ = run_self_play(cfg)
        np.testing.assert_allclose(tf.strategies, np.full((40, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(ty.strategies, np.full((40, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(series["exploitability"], np.zeros(40), atol=1e-12)

    def test_b_exponent_resolution(self):
        spec = AgentSpec(kind="AMWU", eta=0.01, b=0.5)
        assert spec.resolved_alpha() == pytest.approx(10.0)

    def test_kl_series_requested(self):
        cfg = SimulationConfig(
            game=GameSpec(kind="random", n=3, m=3, seed=4),
            horizon=50,
            agent=AgentSpec(kind="OMWU", eta=0.1),
            adversary=AdversarySpec(kind="self_play"),
            metrics=("exploitability", "kl_to_ne"),
        )
        _, _, series, _ = run_self_play(cfg)
        assert set(series) == {"exploitability", "kl_to_ne"}
        assert np.all(series["kl_to_ne"] >= 0.0)


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


def _replay_key(game, adversary_eta, horizon, recorder_eta=None):
    recorder = adversary_eta if recorder_eta is None else recorder_eta
    return (game.payoff.tobytes(), adversary_eta, recorder, horizon)


class TestReplayGroups:
    def test_agent_table_covers_every_kind(self):
        assert set(AGENT_PARAMS) == set(AGENT_KINDS)

    def test_grid_series_equal_each_config_run_alone(self):
        adversaries = (
            AdversarySpec(kind="oblivious_mwu", eta=0.4),
            AdversarySpec(kind="oblivious_mwu", eta=0.4, recorder_eta=0.2),
            AdversarySpec(kind="nonoblivious_mwu", eta=0.4),
        )
        configs = [
            vs_config(seed=seed, horizon=40, agent=agent, adversary=adv)
            for adv in adversaries
            for seed in (1, 2)
            for agent in ALL_AGENTS
        ]
        alone = [run_vs_adversary(c)[1] for c in configs]
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

    def test_one_recording_per_replay_key(self, monkeypatch):
        calls = []
        lock = threading.Lock()
        record = engine.record_oblivious_trace

        def counting(game, adversary_eta, horizon, recorder_eta=None):
            with lock:
                calls.append(_replay_key(game, adversary_eta, horizon, recorder_eta))
            return record(game, adversary_eta, horizon, recorder_eta)

        monkeypatch.setattr(engine, "record_oblivious_trace", counting)
        agents = (AgentSpec(kind="MWU", eta=0.1), AgentSpec(kind="ProdBR"))
        configs = [
            vs_config(seed=seed, horizon=30, agent=agent, adversary=adv)
            for agent in agents
            for seed in (1, 2, 3)
            for adv in (
                AdversarySpec(kind="oblivious_mwu", eta=0.3),
                # the recorder's rate defaults to the adversary's: same key
                AdversarySpec(kind="oblivious_mwu", eta=0.3, recorder_eta=0.3),
                AdversarySpec(kind="oblivious_mwu", eta=0.2),
                AdversarySpec(kind="nonoblivious_mwu", eta=0.3),
            )
        ]
        for parallelism in (1, 2):
            calls.clear()
            outcomes = grid_run(configs, parallelism)
            assert all(o.error is None for o in outcomes)
            assert len(calls) == len(set(calls)) == 6  # 3 games x 2 adversary etas

    def test_failed_replay_fails_only_its_group(self):
        agents = (AgentSpec(kind="MWU", eta=0.1), AgentSpec(kind="OMWU", eta=0.1),
                  AgentSpec(kind="ProdBR"))
        bad_adv = AdversarySpec(kind="oblivious_mwu", eta=0.5, recorder_eta=-0.1)
        bad = [vs_config(horizon=30, agent=a, adversary=bad_adv) for a in agents]
        good = [vs_config(horizon=30, agent=a) for a in agents]
        configs = [c for pair in zip(bad, good) for c in pair]
        with pytest.raises(ValueError) as alone:
            run_vs_adversary(bad[0])
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

    def test_replays_held_at_most_one_per_worker(self, monkeypatch):
        live = peak = 0
        lock = threading.Lock()
        record = engine.record_oblivious_trace

        def release():
            nonlocal live
            with lock:
                live -= 1

        def tracked(*args):
            nonlocal live, peak
            ys = record(*args)
            with lock:
                live += 1
                peak = max(peak, live)
            weakref.finalize(ys, release)
            return ys

        monkeypatch.setattr(engine, "record_oblivious_trace", tracked)
        configs = [
            vs_config(seed=seed, horizon=60, agent=AgentSpec(kind="MWU", eta=eta))
            for seed in range(6)
            for eta in (0.05, 0.2)
        ]
        for parallelism in (1, 2):
            peak = 0
            outcomes = grid_run(configs, parallelism)
            assert all(o.error is None for o in outcomes)
            assert live == 0
            assert 1 <= peak <= parallelism


class _OffSimplexAt:
    """A learner whose strategy for round k is scaled off the simplex."""

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
            run_vs_adversary(cfg)

    def test_bad_loss_names_its_round(self, monkeypatch):
        record = engine.record_oblivious_trace

        def corrupted(*args):
            ys = record(*args)
            ys[5] = 1.0  # every column at full weight: row sums exceed 1
            return ys

        monkeypatch.setattr(engine, "record_oblivious_trace", corrupted)
        with pytest.raises(ValueError, match=r"^round 6 loss: entries outside \[0, 1\]"):
            run_vs_adversary(vs_config(horizon=20))

    def test_bad_replay_recording_names_its_round(self, monkeypatch):
        mwu_update = engine.Mwu.update
        counts = {}

        def drifting(self, observed):
            counts[id(self)] = counts.get(id(self), 0) + 1
            f = mwu_update(self, observed)
            return f + 1e-6 if counts[id(self)] == 3 else f

        monkeypatch.setattr(engine.Mwu, "update", drifting)
        with pytest.raises(ValueError, match=r"^replay row player round 4 strategy"):
            record_oblivious_trace(make_random_game(4, 4, seed=1), 0.5, 10)


def self_play_config(kind, eta, **agent):
    return SimulationConfig(
        game=GameSpec(kind="random", n=6, m=6, seed=3),
        horizon=20,
        agent=AgentSpec(kind=kind, eta=eta, **agent),
        adversary=AdversarySpec(kind="self_play"),
    )


def _off_simplex_self_play_round(monkeypatch, eta, side, k):
    """Patch ``engine.amwu_step`` so that the run at ``eta`` gives ``side``
    a strategy off the simplex in round k (its first update plays round 3)."""
    step = engine.amwu_step
    calls = 0

    def off_at_k(current, game, opp_now, opp_prev, s, e, alpha):
        nonlocal calls
        out = step(current, game, opp_now, opp_prev, s, e, alpha)
        if e == eta and s == side:
            calls += 1
            if calls == k - 2:
                return out + 1e-8
        return out

    monkeypatch.setattr(engine, "amwu_step", off_at_k)


class TestSelfPlayRoundChecks:
    @pytest.mark.parametrize("side", ["max", "min"])
    def test_bad_strategy_names_its_round(self, monkeypatch, side):
        _off_simplex_self_play_round(monkeypatch, 0.2, side, 7)
        with pytest.raises(ValueError, match=rf"^{side} side round 7 strategy: entries sum to"):
            run_self_play(self_play_config("OMWU", 0.2))

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
