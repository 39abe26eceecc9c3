import numpy as np
import pytest

from zerosum.core import MatrixGame, Trace, kl_divergence, l_norm
from zerosum.engine import AdversarySpec, AgentSpec, GameSpec, SimulationConfig, run_self_play
from zerosum.learners import Mwu
from zerosum.metrics import (
    average_dynamic_regret,
    average_loss,
    beta_close,
    dynamic_regret,
    exploitability,
    exploitability_series,
    external_regret,
    forward_comparators,
    forward_regret,
    kl_series,
    step_distances,
)
from zerosum.regularizers import ENTROPY, SQUARED_L2, regularized_argmin

MP = MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def trace_of(strategies, losses):
    return Trace.from_rounds(np.asarray(strategies, float), np.asarray(losses, float))


# The per-round loops the metrics ran before their kernels took whole runs.
def forward_comparators_loop(losses, reg, eta):
    T, n = losses.shape
    out = np.empty((T, n))
    cum = np.zeros(n)
    for t in range(T):
        out[t] = regularized_argmin(reg, cum + losses[t], eta)
        cum += losses[t]
    return out


def step_distances_loop(trace, p):
    return np.array([l_norm(d, p) for d in np.diff(trace.strategies, axis=0)])


def kl_series_loop(trace_pair, reference):
    (trace_f, trace_y), (f_star, y_star) = trace_pair, reference
    out = np.empty(trace_f.horizon)
    for t in range(trace_f.horizon):
        out[t] = kl_divergence(f_star, trace_f.strategies[t]) + kl_divergence(
            y_star, trace_y.strategies[t]
        )
    return out


def self_play_traces(kind, n, horizon, **agent):
    cfg = SimulationConfig(
        game=GameSpec(kind="random", n=n, m=n, seed=n),
        horizon=horizon,
        agent=AgentSpec(kind=kind, **agent),
        adversary=AdversarySpec(kind="self_play"),
        metrics=("exploitability",),
    )
    trace_f, trace_y, _, _ = run_self_play(cfg)
    return trace_f, trace_y


class TestWholeRunMatchesLoops:
    @pytest.mark.parametrize("n", (2, 3, 10, 20))
    def test_forward_comparators(self, n):
        rng = np.random.default_rng(n)
        vertices = np.eye(n)[rng.integers(0, n, 200)]
        for losses in (rng.uniform(0, 1, (200, n)), vertices, np.round(rng.uniform(0, 1, (200, n)), 1)):
            for reg in (ENTROPY, SQUARED_L2):
                for eta in (0.01, 0.3, 5.0):
                    np.testing.assert_array_equal(
                        forward_comparators(losses, reg, eta), forward_comparators_loop(losses, reg, eta)
                    )

    def test_step_distances(self):
        rng = np.random.default_rng(30)
        trace_f, _ = self_play_traces("OMWU", 6, 300, eta=0.5)
        for strategies in (trace_f.strategies, rng.dirichlet(np.ones(9), 300)):
            trace = trace_of(strategies, np.zeros_like(strategies))
            for p in (1, 2, np.inf):
                np.testing.assert_array_equal(step_distances(trace, p), step_distances_loop(trace, p))

    def test_kl_series(self):
        rng = np.random.default_rng(31)
        n = 6
        partial = np.array([0.5, 0.0, 0.25, 0.0, 0.25, 0.0])
        references = (np.eye(n)[2], partial, rng.dirichlet(np.ones(n)))
        for kind, agent in (("MWU", {"eta": 0.1}), ("AMWU", {"eta": 0.05, "alpha": 20.0})):
            pair = self_play_traces(kind, n, 400, **agent)
            for f_star in references:
                for y_star in references:
                    np.testing.assert_array_equal(
                        kl_series(pair, (f_star, y_star)), kl_series_loop(pair, (f_star, y_star))
                    )

    def test_bad_rows_still_raise(self):
        losses = np.random.default_rng(32).uniform(0, 1, (50, 4))
        losses[33, 1] = np.nan
        for reg in (ENTROPY, SQUARED_L2):
            with pytest.raises(ValueError, match="non-finite"):
                forward_comparators(losses, reg, 0.3)
        strategies = np.full((50, 3), 1.0 / 3)
        strategies[41] = [0.5, 0.5, 0.0]
        tf = trace_of(strategies, np.zeros((50, 3)))
        with pytest.raises(ValueError, match="zero mass"):
            kl_series((tf, tf), (np.full(3, 1.0 / 3), np.array([1.0, 0.0, 0.0])))


class TestExternalRegret:
    def test_single_round(self):
        tr = trace_of([[0.5, 0.5]], [[1.0, 0.0]])
        assert external_regret(tr)[-1] == pytest.approx(0.5)

    def test_all_zero_losses(self):
        tr = trace_of([[0.5, 0.5]] * 4, [[0.0, 0.0]] * 4)
        np.testing.assert_allclose(external_regret(tr), np.zeros(4))

    def test_two_round_cancellation(self):
        tr = trace_of([[0.5, 0.5]] * 2, [[1.0, 0.0], [0.0, 1.0]])
        got = external_regret(tr)
        assert got[-1] == pytest.approx(0.0)

    def test_never_exceeds_dynamic(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            T, n = 40, 4
            tr = trace_of(rng.dirichlet(np.ones(n), T), rng.uniform(0, 1, (T, n)))
            assert np.all(external_regret(tr) <= dynamic_regret(tr) + 1e-12)


class TestDynamicRegret:
    def test_matching_pure_play(self):
        # playing the per-round minimizer keeps dynamic regret at zero
        losses = np.array([[0.5, 0.1], [0.2, 0.9], [0.0, 0.3]])
        plays = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(dynamic_regret(trace_of(plays, losses)), np.zeros(3))

    def test_single_round_value(self):
        tr = trace_of([[0.5, 0.5]], [[0.2, 0.8]])
        assert dynamic_regret(tr)[-1] == pytest.approx(0.3)

    def test_nondecreasing(self):
        rng = np.random.default_rng(1)
        tr = trace_of(rng.dirichlet(np.ones(3), 100), rng.uniform(0, 1, (100, 3)))
        assert np.all(np.diff(dynamic_regret(tr)) >= -1e-12)


class TestForwardComparators:
    def test_zero_stream_uniform(self):
        g = forward_comparators(np.zeros((5, 3)), ENTROPY, 1.0)
        np.testing.assert_allclose(g, np.full((5, 3), 1 / 3))

    def test_single_round_softmax(self):
        g = forward_comparators(np.array([[1.0, 0.0]]), ENTROPY, 1.0)
        np.testing.assert_allclose(g[0], [0.2689414213699951, 0.7310585786300049], atol=1e-12)

    def test_constant_stream_definitional(self):
        from zerosum.regularizers import regularized_argmin

        x = np.array([0.3, 0.7, 0.1])
        g = forward_comparators(np.tile(x, (5, 1)), ENTROPY, 0.5)
        np.testing.assert_allclose(g[2], regularized_argmin(ENTROPY, 3 * x, 0.5), atol=1e-15)


class TestForwardRegret:
    def test_zero_when_playing_comparators(self):
        xs = np.random.default_rng(2).uniform(0, 1, (30, 4))
        g = forward_comparators(xs, ENTROPY, 0.2)
        tr = trace_of(g, xs)
        np.testing.assert_allclose(forward_regret(tr, ENTROPY, 0.2), np.zeros(30), atol=1e-12)

    def test_single_round_value(self):
        tr = trace_of([[0.5, 0.5]], [[1.0, 0.0]])
        got = forward_regret(tr, ENTROPY, 1.0)
        assert got[-1] == pytest.approx(0.5 - 0.2689414213699951, abs=1e-12)

    def test_lower_bounds_external_minus_capacity(self):
        # forward regret >= external regret - R_max/eta on any run
        rng = np.random.default_rng(3)
        for eta in (0.05, 0.5):
            T, n = 200, 5
            tr = trace_of(rng.dirichlet(np.ones(n), T), rng.uniform(0, 1, (T, n)))
            fr = forward_regret(tr, ENTROPY, eta)
            er = external_regret(tr)
            assert np.all(fr >= er - np.log(n) / eta - 1e-9)


class TestExploitability:
    def test_uniform_ne(self):
        u = np.array([0.5, 0.5])
        assert exploitability(MP, u, u) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_pure(self):
        pure = np.array([1.0, 0.0])
        assert exploitability(MP, pure, pure) == pytest.approx(2.0)

    def test_indifference_ne(self):
        game = MatrixGame(np.array([[3.0, 0.0], [1.0, 2.0]]))
        got = exploitability(game, np.array([0.25, 0.75]), np.array([0.5, 0.5]))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, (5, 4))
        f = rng.dirichlet(np.ones(5))
        y = rng.dirichlet(np.ones(4))
        perm = rng.permutation(5)
        base = exploitability(MatrixGame(a), f, y)
        permuted = exploitability(MatrixGame(a[perm]), f[perm], y)
        assert base == pytest.approx(permuted, abs=1e-12)

    def test_series_matches_pointwise(self):
        rng = np.random.default_rng(5)
        fs = rng.dirichlet(np.ones(2), 20)
        ys = rng.dirichlet(np.ones(2), 20)
        series = exploitability_series(MP, fs, ys)
        for t in range(20):
            assert series[t] == pytest.approx(exploitability(MP, fs[t], ys[t]))


class TestBetaClose:
    def test_exact_ne_any_beta(self):
        u = np.array([0.5, 0.5])
        assert beta_close(MP, u, u, 0.0)
        assert beta_close(MP, u, u, 0.3)

    def test_mass_clause_saves_off_support(self):
        # every pure profile satisfies the definition: played actions hit
        # the payoff clause exactly, unplayed ones the mass clause
        pure = np.array([1.0, 0.0])
        assert beta_close(MP, pure, pure, 0.5)

    def test_bounded_game_with_beta_one(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(-1, 1, (3, 3))
        game = MatrixGame(a)
        for _ in range(20):
            f = rng.dirichlet(np.ones(3))
            y = rng.dirichlet(np.ones(3))
            assert beta_close(game, f, y, 1.0) == (
                bool(
                    np.all((f <= 1.0 + 1e-12) | (np.abs(f @ a @ y - a @ y) <= 1.0 + 1e-12))
                    and np.all((y <= 1.0 + 1e-12) | (np.abs(f @ a @ y - a.T @ f) <= 1.0 + 1e-12))
                )
            )

    def test_interior_violator(self):
        # mixed profile far from indifference on a high-mass action
        game = MatrixGame(np.array([[1.0, 0.0], [0.0, 1.0]]))
        f = np.array([0.9, 0.1])
        y = np.array([0.9, 0.1])
        # f^T A y = 0.82, (Ay)_1 = 0.9: gap 0.08 <= 0.1 fails at beta=0.05
        assert not beta_close(game, f, y, 0.05)
        assert beta_close(game, f, y, 0.1)


class TestStepDistances:
    def test_constant_trace(self):
        tr = trace_of([[0.5, 0.5]] * 5, np.zeros((5, 2)))
        np.testing.assert_allclose(step_distances(tr, 1), np.zeros(4))

    def test_alternating_pure(self):
        plays = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        tr = trace_of(plays, np.zeros((3, 2)))
        np.testing.assert_allclose(step_distances(tr, 1), [2.0, 2.0])

    def test_mwu_step_bound(self):
        # max step <= 2 eta n / beta with eta = c / sqrt(T)
        rng = np.random.default_rng(7)
        T, n = 400, 6
        eta = 1.0 / np.sqrt(T)
        agent = Mwu(n, eta)
        xs = rng.uniform(0, 1, (T, n))
        fs = np.empty((T, n))
        f = agent.start()
        for t in range(T):
            fs[t] = f
            f = agent.step(xs[t])
        tr = trace_of(fs, xs)
        assert step_distances(tr, 1).max() <= 2 * eta * n

    def test_needs_two_rounds(self):
        with pytest.raises(ValueError):
            step_distances(trace_of([[1.0, 0.0]], [[0.0, 0.0]]), 1)


class TestKlSeries:
    def test_zero_at_reference(self):
        ref_f = np.array([0.25, 0.75])
        ref_y = np.array([0.5, 0.5])
        tf = trace_of(np.tile(ref_f, (4, 1)), np.zeros((4, 2)))
        ty = trace_of(np.tile(ref_y, (4, 1)), np.zeros((4, 2)))
        np.testing.assert_allclose(kl_series((tf, ty), (ref_f, ref_y)), np.zeros(4), atol=1e-15)

    def test_uniform_start_value(self):
        # kl((0.25,0.75), (0.5,0.5)) + kl((0.5,0.5), (0.5,0.5)) = 0.130812...
        u = np.array([0.5, 0.5])
        tf = trace_of([u], np.zeros((1, 2)))
        ty = trace_of([u], np.zeros((1, 2)))
        got = kl_series((tf, ty), (np.array([0.25, 0.75]), u))
        expected = kl_divergence(np.array([0.25, 0.75]), u)
        assert got[0] == pytest.approx(expected, abs=1e-12)
        assert got[0] == pytest.approx(0.13081203594113694, abs=1e-12)


class TestAverages:
    def test_average_loss(self):
        tr = trace_of([[1.0, 0.0]] * 4, [[0.4, 0.0]] * 4)
        np.testing.assert_allclose(average_loss(tr), np.full(4, 0.4))

    def test_average_dynamic_regret(self):
        tr = trace_of([[0.5, 0.5]] * 2, [[0.2, 0.8]] * 2)
        np.testing.assert_allclose(average_dynamic_regret(tr), [0.3, 0.3])

    def test_classical_mwu_rate(self):
        # external_regret(T)/T <= 2 sqrt(log n / T) at eta = sqrt(log n / T)
        rng = np.random.default_rng(8)
        T, n = 500, 8
        eta = np.sqrt(np.log(n) / T)
        agent = Mwu(n, eta)
        xs = rng.uniform(0, 1, (T, n))
        fs = np.empty((T, n))
        f = agent.start()
        for t in range(T):
            fs[t] = f
            f = agent.step(xs[t])
        tr = trace_of(fs, xs)
        assert external_regret(tr)[-1] / T <= 2 * np.sqrt(np.log(n) / T)
