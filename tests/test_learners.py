import copy
import tracemalloc

import numpy as np
import pytest

from zerosum.core import MatrixGame, Trace, l_norm, uniform
from zerosum.engine import AgentSpec, build_agent
from zerosum.learners import (
    PLAY_BLOCKS,
    Aftrl,
    Amd,
    Amwu,
    BestResponseLearner,
    DoublingAftrl,
    Mwu,
    ProdBr,
    _drive,
    amwu_step,
    best_response,
    linear_amwu_step,
)
from zerosum.metrics import external_regret, forward_comparators
from zerosum.regularizers import (
    ENTROPY,
    SQUARED_L2,
    bregman_prox,
    floored_softmax,
    regularized_argmin,
)

MP = MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def run_recording(agent, xs):
    fs = np.empty_like(xs)
    f = agent.start()
    for t in range(xs.shape[0]):
        fs[t] = f
        f = agent.step(xs[t])
    return fs


class TestAftrl:
    def test_zero_losses_stay_uniform(self):
        agent = Aftrl(2, eta=1.0, alpha=0.0)
        np.testing.assert_allclose(agent.step(np.zeros(2)), [0.5, 0.5])

    def test_alpha_zero_is_ftrl(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, (100, 4))
        # the entropic leader of the cumulative loss, f ∝ exp(-eta sum x_s)
        a = Aftrl(4, 0.2, alpha=0.0)
        cum = np.zeros(4)
        for x in xs:
            cum += x
            e = np.exp(-0.2 * cum)
            np.testing.assert_allclose(a.step(x), e / e.sum(), rtol=0, atol=1e-12)

    def test_exploit_weighted_first_step(self):
        # cumulative (0,1) + 2*(0,1) = (0,3); softmax(-(0,3))
        agent = Aftrl(2, eta=1.0, alpha=2.0)
        got = agent.step(np.array([0.0, 1.0]))
        np.testing.assert_allclose(got, [0.9525741268224334, 0.0474258731775668], atol=1e-12)

    def test_dimension_mismatch(self):
        agent = Aftrl(3, eta=0.5)
        with pytest.raises(ValueError):
            agent.step(np.array([0.1, 0.2]))

    def test_initial_strategy_is_argmin_r(self):
        for reg in (ENTROPY, SQUARED_L2):
            agent = Aftrl(5, 0.3, 2.0, reg)
            np.testing.assert_allclose(agent.start(), np.full(5, 0.2), atol=1e-12)


class TestAmd:
    def test_zero_observation_fixed_point(self):
        agent = Amd(2, eta=0.1, alpha=1.0)
        np.testing.assert_allclose(agent.step(np.zeros(2)), [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(agent.secondary, [0.5, 0.5], atol=1e-12)

    def test_two_softmax_steps(self):
        # g' = (e^-0.1, 1)/Z then f = g' * (e^-0.1, 1)/Z, evaluated independently
        agent = Amd(2, eta=0.1, alpha=1.0)
        got = agent.step(np.array([1.0, 0.0]))
        np.testing.assert_allclose(agent.secondary, [0.47502081252106, 0.52497918747894], atol=1e-12)
        np.testing.assert_allclose(got, [0.450166002687522, 0.549833997312478], atol=1e-12)

    def test_alpha_zero_reduces_to_mirror_descent(self):
        rng = np.random.default_rng(1)
        agent = Amd(3, eta=0.2, alpha=0.0)
        for x in rng.uniform(0, 1, (50, 3)):
            out = agent.step(x)
            np.testing.assert_array_equal(out, agent.secondary)


class TestAmwuStep:
    def test_nash_fixed_point(self):
        u = np.array([0.5, 0.5])
        got = amwu_step(u, MP, u, u, "max", 0.1, 7.0)
        np.testing.assert_allclose(got, u, atol=1e-15)

    def test_exponent_example(self):
        # drive 2*(1,-1) - 1*(1,-1) = (1,-1); softmax of 0.1*(1,-1) around (0.5, 0.5)
        pure = np.array([1.0, 0.0])
        got = amwu_step(np.array([0.5, 0.5]), MP, pure, pure, "max", 0.1, 1.0)
        np.testing.assert_allclose(got, [0.549833997312478, 0.450166002687522], atol=1e-12)

    def test_alpha_zero_is_plain_mwu_trajectory(self):
        rng = np.random.default_rng(2)
        game = MatrixGame(rng.uniform(0, 1, (4, 3)))
        f = np.full(4, 0.25)
        f_ref = f.copy()
        opp = rng.dirichlet(np.ones(3), size=60)
        prev = opp[0]
        for t in range(60):
            f = amwu_step(f, game, opp[t], prev, "max", 0.3, 0.0)
            e = f_ref * np.exp(0.3 * (game.payoff @ opp[t]))
            f_ref = e / e.sum()
            prev = opp[t]
            np.testing.assert_allclose(f, f_ref, atol=1e-12)

    def test_plain_update_diverges_from_interior_equilibrium(self):
        # unit matching pennies from an off-center start: the alpha=0
        # dynamics spiral outward, so the l1 distance to the equilibrium
        # at t=1e4 exceeds the distance at t=10
        game = MatrixGame(np.array([[1.0, 0.0], [0.0, 1.0]]))
        ne = np.array([0.5, 0.5])
        f = np.array([0.6, 0.4])
        y = np.array([0.6, 0.4])
        dist_at = {}
        for t in range(2, 10_001):
            if t == 10:
                dist_at[10] = l_norm(f - ne, 1) + l_norm(y - ne, 1)
            f, y = (
                amwu_step(f, game, y, y, "max", 0.1, 0.0),
                amwu_step(y, game, f, f, "min", 0.1, 0.0),
            )
        dist_at[10_000] = l_norm(f - ne, 1) + l_norm(y - ne, 1)
        assert dist_at[10_000] > dist_at[10]

    def test_current_of_the_wrong_length_rejected(self):
        u = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match=r"^dimension mismatch: \(3,\) vs \(2,\)$"):
            amwu_step(np.full(3, 1.0 / 3), MP, u, u, "max", 0.1, 1.0)

    def test_min_side_descends_transpose(self):
        rng = np.random.default_rng(3)
        game = MatrixGame(rng.uniform(0, 1, (3, 4)))
        y = np.full(4, 0.25)
        fnow = rng.dirichlet(np.ones(3))
        fprev = rng.dirichlet(np.ones(3))
        got = amwu_step(y, game, fnow, fprev, "min", 0.2, 1.5)
        drive = 2.5 * (game.payoff.T @ fnow) - 1.5 * (game.payoff.T @ fprev)
        ref = y * np.exp(-0.2 * drive)
        ref /= ref.sum()
        np.testing.assert_allclose(got, ref, atol=1e-12)


class TestLinearAmwu:
    def test_zero_drive_unchanged(self):
        u = np.array([0.5, 0.5])
        got = linear_amwu_step(u, MP, u, u, "max", 0.1, 1.0)
        np.testing.assert_allclose(got, u, atol=1e-15)

    def test_hand_example(self):
        # multipliers (1.1, 0.9) on (0.5, 0.5)
        pure = np.array([1.0, 0.0])
        got = linear_amwu_step(np.array([0.5, 0.5]), MP, pure, pure, "max", 0.1, 1.0)
        np.testing.assert_allclose(got, [0.55, 0.45], atol=1e-14)

    def test_eta_too_large(self):
        pure = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="multiplier"):
            linear_amwu_step(np.array([0.5, 0.5]), MP, pure, pure, "max", 1.5, 1.0)

    def test_quadratic_distance_to_exponential(self):
        # per-step l1 gap scales like eta^2: log-log slope ~ 2
        rng = np.random.default_rng(4)
        game = MatrixGame(rng.uniform(0, 1, (5, 5)))
        direction = rng.normal(0, 1, 5)
        direction -= direction.mean()
        etas = np.array([0.1, 0.05, 0.025])
        gaps = []
        for eta in etas:
            gap = 0.0
            for _ in range(50):
                f = rng.dirichlet(np.ones(5))
                y = rng.dirichlet(np.ones(5))
                y_prev = y + eta * direction * 0.2
                y_prev = np.maximum(y_prev, 0.0)
                y_prev /= y_prev.sum()
                a = amwu_step(f, game, y, y_prev, "max", eta, 1.0)
                b = linear_amwu_step(f, game, y, y_prev, "max", eta, 1.0)
                gap += l_norm(a - b, 1)
            gaps.append(gap / 50)
        slope = np.polyfit(np.log(etas), np.log(gaps), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


class TestAmwuWrapper:
    def test_first_step_uses_opp_now_as_prev(self):
        agent = Amwu(MP, "max", eta=0.1, alpha=5.0)
        opp = np.array([0.9, 0.1])
        got = agent.step(opp)
        ref = amwu_step(np.array([0.5, 0.5]), MP, opp, opp, "max", 0.1, 5.0)
        np.testing.assert_allclose(got, ref, atol=1e-15)

    def test_tracks_previous_opponent(self):
        agent = Amwu(MP, "max", eta=0.1, alpha=2.0)
        o1 = np.array([0.8, 0.2])
        o2 = np.array([0.3, 0.7])
        agent.step(o1)
        got = agent.step(o2)
        ref = amwu_step(
            amwu_step(np.array([0.5, 0.5]), MP, o1, o1, "max", 0.1, 2.0),
            MP, o2, o1, "max", 0.1, 2.0,
        )
        np.testing.assert_allclose(got, ref, atol=1e-15)

    @pytest.mark.parametrize("side", ["max", "min"])
    def test_is_mwu_fed_its_side_loss(self, side):
        # max side: loss -A y; min side: loss A^T f; the first loss primes x_{t-1}
        rng = np.random.default_rng(3)
        game = MatrixGame(rng.uniform(-1.0, 1.0, (5, 3)))
        a = game.payoff
        k, opp_k = (game.n, game.m) if side == "max" else (game.m, game.n)
        loss = (lambda y: -(a @ y)) if side == "max" else (lambda f: a.T @ f)
        opp = rng.dirichlet(np.ones(opp_k), size=60)
        agent = Amwu(game, side, 0.3, 2.5)
        ref = Mwu(k, 0.3, 2.5)
        ref.prev_loss = loss(opp[0])
        for o in opp:
            np.testing.assert_array_equal(agent.step(o), ref.update(loss(o)))

    @pytest.mark.parametrize("opp,match", [
        (np.ones((2, 3)) / 3, "opponent strategy: expected a 1-D vector"),
        ([2.0, -1.0, 0.0], "opponent strategy: negative entry"),
        ([0.5, 0.5], "mismatch"),
    ])
    def test_step_refuses_an_opponent_before_moving(self, opp, match):
        game = MatrixGame(np.arange(6.0).reshape(2, 3) / 5)  # the max side plays 2, meets 3
        agent = Amwu(game, "max", 0.1, 1.0)
        before = agent.current.copy()
        with pytest.raises(ValueError, match=match):
            agent.step(opp)
        np.testing.assert_array_equal(agent.current.view(np.int64), before.view(np.int64))
        assert agent.prev_loss is None

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="side must be 'max' or 'min'"):
            Amwu(MP, "row", eta=0.1, alpha=1.0)
        with pytest.raises(ValueError, match="side must be 'max' or 'min'"):
            amwu_step(np.array([0.5, 0.5]), MP, np.array([0.5, 0.5]),
                      np.array([0.5, 0.5]), "row", 0.1, 1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            Amwu(MP, "max", eta=0.1, alpha=-1.0)

    @pytest.mark.parametrize("eta,alpha", [(0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
                                           (-np.inf, 1.0), (0.1, np.nan), (0.1, np.inf),
                                           (True, 1.0), ("0.1", 1.0), (0.1, "1")])
    def test_rates_must_be_finite(self, eta, alpha):
        # the exploit-rate learners and the checked kernels share one check
        makers = [lambda: Amwu(MP, "max", eta, alpha), lambda: Aftrl(3, eta, alpha),
                  lambda: Amd(3, eta, alpha), lambda: DoublingAftrl(3, eta, alpha),
                  lambda: Mwu(3, eta, alpha)]
        if alpha == 1.0:
            for reg in (ENTROPY, SQUARED_L2):  # the kernels take eta alone
                makers += [lambda reg=reg: regularized_argmin(reg, np.zeros(3), eta),
                           lambda reg=reg: bregman_prox(reg, uniform(3), np.zeros(3), eta),
                           lambda reg=reg: forward_comparators(np.zeros((4, 3)), reg, eta)]
        for make in makers:
            with pytest.raises(ValueError, match="eta" if alpha == 1.0 else "alpha"):
                make()


class TestCheckedStep:
    """``step`` is ``update`` with the loss vector and the result checked."""

    def learners(self, n=4, horizon=50):
        return [
            lambda: Aftrl(n, 0.2, alpha=3.0),
            lambda: Aftrl(n, 0.2, alpha=1.0, reg=SQUARED_L2),
            lambda: Amd(n, 0.2, alpha=2.0),
            lambda: Mwu(n, 0.2),
            lambda: Mwu(n, 0.2, 1.0),
            lambda: BestResponseLearner(n),
            lambda: ProdBr(n, horizon=horizon),
            lambda: DoublingAftrl(n, 1.0, alpha=2.0),
        ]

    def test_update_equals_step(self):
        xs = np.random.default_rng(4).uniform(0, 1, (50, 4))
        for make in self.learners():
            checked, unchecked = make(), make()
            np.testing.assert_array_equal(checked.start(), unchecked.start())
            for x in xs:
                np.testing.assert_array_equal(checked.step(x), unchecked.update(x))

    def test_step_checks_its_input(self):
        for make in self.learners():
            learner = make()
            with pytest.raises(ValueError, match="outside"):
                learner.step(np.array([0.2, 1.5, 0.0, 0.0]))
            with pytest.raises(ValueError, match="dimension mismatch"):
                learner.step(np.array([0.2, 0.5]))


class TestBatchRows:
    """A batch of B rows steps each row bit for bit as the unbatched learner
    at that row's rates, fed that row's losses."""

    @pytest.mark.parametrize("reg", [ENTROPY, SQUARED_L2], ids=["entropy", "squared_l2"])
    def test_rows_equal_unbatched_learners(self, reg):
        rng = np.random.default_rng(21)
        B, n, T = 4, 5, 300
        etas, alphas = np.array([[0.5], [1.0], [2.0], [1.0]]), np.array([[0.0], [1.0], [8.0], [3.0]])
        xs = rng.uniform(0, 1, (B, T, n))
        xs[:, ::3] = np.eye(n)[rng.integers(n, size=B)][:, None]  # vertex rounds: restarts fire
        makers = [
            lambda shape, eta, alpha: Aftrl(shape, eta, alpha, reg),
            lambda shape, eta, alpha: Amd(shape, eta, alpha, reg),
            lambda shape, eta, alpha: DoublingAftrl(shape, eta, alpha, reg),
            lambda shape, eta, alpha: Mwu(shape, eta, alpha),
            lambda shape, eta, alpha: ProdBr(shape, T, reg),
            lambda shape, eta, alpha: BestResponseLearner(shape),
        ]
        for make in makers:
            batch = make((B, n), etas, alphas)
            singles = [make(n, float(etas[b, 0]), float(alphas[b, 0])) for b in range(B)]
            np.testing.assert_array_equal(batch.start(), [single.start() for single in singles])
            for t in range(T):
                got = batch.update(xs[:, t])
                for b, single in enumerate(singles):
                    np.testing.assert_array_equal(got[b], single.update(xs[b, t]))
            if isinstance(batch, DoublingAftrl):
                assert batch.phase.ravel().tolist() == [single.phase for single in singles]
                assert batch.phase.sum() > 0


    @pytest.mark.parametrize("alphas", [[0.0, 0.0, 0.0], [0.0, 1.0, 31.6]],
                             ids=["all-zero", "mixed"])
    def test_mwu_rounds_equal_the_drive_formula(self, alphas):
        # an all-zero batch drives with x_t alone, bit for bit the (1+0) x_t - 0 x_{t-1}
        # of the formula even at -0.0 losses; a batch with any alpha != 0 takes the formula
        etas, alphas = TestPlay.ETAS, np.array(alphas)[:, None]
        xs = play_block()
        sides = [(Mwu((3, 7), etas, alphas), xs, np.zeros((3, 7))),
                 (Amwu(MatrixGame(np.eye(7)), "max", etas, alphas), -xs, -xs[:, 0])]
        assert (-xs <= 0).all()
        for learner, losses, x_prev in sides:  # the max side's first loss is also its previous
            zeros = np.signbit(losses[losses == 0])
            assert zeros.any() and not zeros.all()  # zeros of both signs
            f = learner.start()
            for t in range(losses.shape[1]):
                x = losses[:, t].copy()
                expected = floored_softmax(-etas * _drive(x, x_prev, alphas), f)
                f = learner.update(x)
                np.testing.assert_array_equal(f.view(np.int64), expected.view(np.int64))
                x_prev = x

    def test_step_refuses_a_batch_before_moving_it(self):
        # ``step`` checks one vector: a batch of rows steps by ``update``
        etas, alphas = np.array([[0.1], [0.2]]), np.array([[1.0], [0.0]])
        batches = [Mwu((2, 3), etas), Mwu((2, 3), etas, alphas), Aftrl((2, 3), etas),
                   ProdBr((2, 3), 50), Amwu(MatrixGame(np.eye(3)), "max", etas, alphas)]
        for batch in batches:
            current, prev_loss = batch.current.copy(), getattr(batch, "prev_loss", None)
            with pytest.raises(ValueError, match=r"^step: a batch of shape \(2, 3\) steps by update$"):
                batch.step(np.array([1.0, 0.0, 0.0]))
            np.testing.assert_array_equal(batch.current, current)
            assert getattr(batch, "prev_loss", None) is prev_loss


def play_block(seed=5, B=3, T=300, n=7):
    """A (B, T, n) loss block with exact ties, zeros and -0.0 (whole leading
    rounds too), and vertex rounds, so that DoublingAftrl restarts."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 1, (B, T, n))
    xs[:, 1::4] = np.round(4.0 * xs[:, 1::4]) / 4.0
    xs[:, ::3] = np.eye(n)[rng.integers(n, size=B)][:, None]
    xs[rng.random(xs.shape) < 0.05] = -0.0
    xs[0, :2] = -0.0
    return xs


class TestPlay:
    """``play`` on a fresh learner is bit for bit ``start`` and one ``update``
    per round, fed each round's losses as contiguous rows; -0.0 and 0.0 differ."""

    ETAS, ALPHAS = np.array([[0.5], [0.05], [2.0]]), np.array([[0.0], [1.0], [31.6]])

    @staticmethod
    def looped(learner, xs):
        strategies, f = np.empty_like(xs), learner.start()
        for t in range(xs.shape[1]):
            strategies[:, t] = f
            f = learner.update(xs[:, t].copy())
        return strategies

    def assert_plays_the_loop(self, make, xs):
        got = make().play(xs.copy())
        np.testing.assert_array_equal(got.view(np.int64), self.looped(make(), xs).view(np.int64))

    @pytest.mark.parametrize("reg", [ENTROPY, SQUARED_L2], ids=["entropy", "squared_l2"])
    def test_block_learners(self, reg):
        xs, shape = play_block(), (3, 7)
        self.assert_plays_the_loop(lambda: Aftrl(shape, self.ETAS, self.ALPHAS, reg), xs)
        self.assert_plays_the_loop(lambda: ProdBr(shape, 300, reg), xs)

    def test_mwu_and_best_response(self):
        xs, shape = play_block(), (3, 7)
        for alphas in np.array([[0.0], [1.0], [100.0]]), np.zeros((3, 1)):  # an all-zero batch's
            self.assert_plays_the_loop(lambda: Mwu(shape, self.ETAS, alphas), xs)  # loop: x_t alone
        self.assert_plays_the_loop(lambda: BestResponseLearner(shape), xs)

    def test_mwu_play_holds_its_drive_block(self):
        # the drive block, (T-1, B, n), is one block; its (T-1, B, 1) maxima are 0.05 of one
        # at n=20, so the strategies go back into the input without a transposed temporary
        B, T, n = 10, 10_000, 20
        xs = np.random.default_rng(4).uniform(0, 1, (B, T, n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            Mwu((B, n), np.full((B, 1), 0.1), np.linspace(0.0, 3.0, B)[:, None]).play(xs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * xs.nbytes

    @pytest.mark.parametrize("reg", [ENTROPY, SQUARED_L2], ids=["entropy", "squared_l2"])
    def test_looping_learners(self, reg):
        xs, shape = play_block(), (3, 7)
        self.assert_plays_the_loop(lambda: Amd(shape, self.ETAS, self.ALPHAS, reg), xs)
        self.assert_plays_the_loop(lambda: DoublingAftrl(shape, self.ETAS, self.ALPHAS, reg), xs)
        doubling = DoublingAftrl(shape, self.ETAS, self.ALPHAS, reg)
        doubling.play(xs.copy())
        assert doubling.restarts and doubling.phase[2, 0] > 0


class TestBestResponse:
    def test_unique_minimizer(self):
        np.testing.assert_allclose(best_response(np.array([0.2, 0.7, 0.1])), [0, 0, 1])

    def test_tie_rule(self):
        np.testing.assert_allclose(best_response(np.array([0.5, 0.5])), [0.5, 0.5])

    def test_picks_zero_loss(self):
        np.testing.assert_allclose(best_response(np.array([1.0, 0.0])), [0.0, 1.0])

    def test_before_any_observation(self):
        learner = BestResponseLearner(4)
        np.testing.assert_allclose(learner.start(), np.full(4, 0.25))


class TestProdBr:
    def test_requires_horizon(self):
        for horizon in (1, 0):
            with pytest.raises(ValueError, match="horizon must be at least 2"):
                ProdBr(4, horizon=horizon)

    def test_parameters(self):
        agent = ProdBr(20, horizon=10_000)
        assert agent.eta == pytest.approx(20 / np.sqrt(2 * 10_000))
        assert agent.eta1 == pytest.approx(0.5 * np.sqrt(np.log(10_000) / 10_000))
        assert agent.w_br == pytest.approx(1.0 - agent.eta1)

    def test_weight_update_direct(self):
        # w = 0.5 * (1 + 0.1 * (-0.2)) = 0.49
        agent = ProdBr(2, horizon=100)
        agent.w_r = 0.5
        agent.eta1 = 0.1
        agent.ftrl.current, agent.br.current = np.array([1.0, 0.0]), np.array([0.8, 0.2])
        # <BR - f, x> = <(-0.2, 0.2), x>; choose x = (1, 0) so the inner product is -0.2
        agent.step(np.array([1.0, 0.0]))
        assert agent.w_r == pytest.approx(0.49)

    def test_zero_correction_keeps_weight(self):
        agent = ProdBr(2, horizon=100)
        w0 = agent.w_r
        agent.step(np.zeros(2))  # BR = f = uniform, so <BR-f, x> = 0
        assert agent.w_r == pytest.approx(w0)

    def test_zero_losses_stay_uniform(self):
        agent = ProdBr(3, horizon=50)
        f = agent.start()
        for _ in range(10):
            np.testing.assert_allclose(f, np.full(3, 1 / 3), atol=1e-12)
            f = agent.step(np.zeros(3))

    def test_play_holds_play_blocks_at_most(self):
        # PLAY_BLOCKS = 4 blocks, the input's among them, plus (T, B, 1) columns: at n=20
        # each column is 0.05 block, so 3.1 blocks above the input hold a column or two
        B, T, n = 10, 10_000, 20
        xs = np.random.default_rng(4).uniform(0, 1, (B, T, n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ProdBr((B, n), T).play(xs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < (PLAY_BLOCKS - 0.9) * xs.nbytes

    def test_prefix_bounds_vs_internal_experts(self):
        # mixture loss <= FTRL loss + 2 sqrt(T log T) and <= BR loss + 2 log 2
        rng = np.random.default_rng(8)
        for T in (50, 500):
            xs = rng.uniform(0, 1, (T, 6))
            agent = ProdBr(6, horizon=T)
            gs = np.empty_like(xs)
            fl = np.empty_like(xs)
            br = np.empty_like(xs)
            for t in range(T):
                gs[t] = agent.current
                fl[t] = agent.ftrl.current
                br[t] = agent.br.current
                agent.step(xs[t])
            gsum = np.cumsum(np.einsum("ti,ti->t", gs, xs))
            fsum = np.cumsum(np.einsum("ti,ti->t", fl, xs))
            brsum = np.cumsum(np.einsum("ti,ti->t", br, xs))
            assert np.all(gsum <= fsum + 2 * np.sqrt(T * np.log(T)) + 1e-9)
            assert np.all(gsum <= brsum + 2 * np.log(2) + 1e-9)


def edge_streams(seed, n=6, T=150):
    """Loss streams with -0.0 entries and entries 1e-10 outside [0, 1],
    which ``check_loss_vector`` accepts, at random places and as whole rows."""
    rng = np.random.default_rng(seed)
    edges = np.array([-0.0, 0.0, -1e-10, 1.0 + 1e-10, 1.0])
    for spread in (0.1, 0.5):
        xs = rng.uniform(0, 1, (T, n))
        mask = rng.random((T, n)) < spread
        xs[mask] = rng.choice(edges, mask.sum())
        xs[::7] = rng.choice(edges, (len(xs[::7]), 1))
        yield xs


class MwuOracle:
    """Mwu as written before it took an exploit rate: one checked prox step."""

    def __init__(self, n, eta):
        self.n, self.eta, self.current = n, eta, uniform(n)

    def update(self, observed):
        self.current = bregman_prox(ENTROPY, self.current, observed, self.eta)
        return self.current


class OmwuOracle(MwuOracle):
    """Omwu as written before it became Mwu at exploit rate 1."""

    def __init__(self, n, eta):
        super().__init__(n, eta)
        self.prev_loss = np.zeros(n)

    def update(self, observed):
        self.current = bregman_prox(
            ENTROPY, self.current, 2.0 * observed - self.prev_loss, self.eta
        )
        self.prev_loss = observed
        return self.current


class TestMwu:
    @pytest.mark.parametrize("eta", [0.01, 0.5, 5.0])
    def test_matches_oracles(self, eta):
        for xs in edge_streams(31):
            n = xs.shape[1]
            pairs = [(Mwu(n, eta), MwuOracle(n, eta)), (Mwu(n, eta, alpha=1.0), OmwuOracle(n, eta))]
            for learner, oracle in pairs:
                np.testing.assert_array_equal(learner.start(), oracle.current)
                for x in xs:
                    np.testing.assert_array_equal(learner.step(x), oracle.update(x))

    def test_omwu_is_mwu_at_one(self):
        # the OMWU kind builds Mwu at exploit rate 1, the MWU kind at 0
        omwu, mwu = (build_agent([AgentSpec(kind=k, eta=0.1)], 3, 10) for k in ("OMWU", "MWU"))
        assert type(omwu) is type(mwu) is Mwu
        assert omwu.alpha == 1.0 and mwu.alpha == 0.0

    def test_rates_stay_the_callers(self):
        # the kernel reads private (B, n) rows; the engine reads eta and alpha as (B, 1) columns
        etas, alphas = np.array([[0.1], [0.5]]), np.array([[0.0], [2.0]])
        learner = Mwu((2, 5), etas, alphas)
        assert learner.eta is etas and learner.alpha is alphas


class TestUpdatesMatchCheckedKernels:
    """Each update equals the same step taken through the public, checked
    ``regularized_argmin`` and ``bregman_prox``."""

    @staticmethod
    def expected(before, after, x):
        if isinstance(after, Aftrl):  # a DoublingAftrl restart sets cumulative and eta first
            return regularized_argmin(after.reg, after.cumulative + after.alpha * x, after.eta)
        if isinstance(after, Amd):
            g = bregman_prox(after.reg, before.secondary, x, after.eta)
            np.testing.assert_array_equal(after.secondary, g)
            if after.alpha == 0.0:
                return g
            return bregman_prox(after.reg, g, after.alpha * x, after.eta)
        gain = float((before.br.current - before.ftrl.current) @ x)
        w_r = before.w_r * (1.0 + before.eta1 * gain)
        f = regularized_argmin(after.reg, before.ftrl.cumulative + x, after.eta)
        return (w_r * f + after.w_br * best_response(x)) / (w_r + after.w_br)

    @pytest.mark.parametrize("reg", [ENTROPY, SQUARED_L2], ids=["entropy", "squared_l2"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 5.0])
    def test_update_matches(self, reg, alpha):
        n, T = 6, 150
        makers = [lambda: Aftrl(n, 0.3, alpha, reg), lambda: Amd(n, 0.3, alpha, reg),
                  lambda: DoublingAftrl(n, 1.0, alpha, reg)]
        if alpha == 0.0:  # ProdBr has no exploit rate
            makers.append(lambda: ProdBr(n, T, reg))
        for xs in edge_streams(32, n, T):
            for make in makers:
                agent = make()
                for x in xs:
                    before = copy.deepcopy(agent)
                    got = agent.update(x)
                    np.testing.assert_array_equal(got, self.expected(before, agent, x))


class DoublingAftrlOracle:
    """DoublingAftrl as written before it took Aftrl's update: its own
    copy of the leader step and a restart that copies the observation."""

    def __init__(self, n, eta0, alpha, reg=ENTROPY):
        self.n, self.eta0, self.alpha, self.reg = n, eta0, alpha, reg
        self.r_max = reg.max_value(n)
        self.phase = 0
        self.eta = eta0
        self.cumulative = np.zeros(n)
        self.prev_loss = np.zeros(n)
        self.accumulator = 0.0
        self.restarts = []
        self._round = 0

    def _budget_exceeded(self):
        if self.alpha == 0.0:
            return False
        lhs = (self.eta * self.alpha / self.reg.beta) * self.accumulator
        return lhs > self.r_max / self.eta

    def update(self, observed):
        self._round += 1
        delta_sq = l_norm(observed - self.prev_loss, self.reg.q) ** 2
        self.accumulator += delta_sq
        self.cumulative = self.cumulative + observed
        if self._budget_exceeded():
            self.phase += 1
            self.eta = self.eta0 / 2.0 ** self.phase
            self.cumulative = observed.copy()
            self.accumulator = delta_sq
            self.restarts.append(self._round)
        self.prev_loss = observed
        return regularized_argmin(self.reg, self.cumulative + self.alpha * observed, self.eta)


class TestDoublingAftrl:
    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            DoublingAftrl(3, 0.1, -1.0)

    @pytest.mark.parametrize("reg", (ENTROPY, SQUARED_L2), ids=lambda r: r.kind)
    def test_matches_oracle(self, reg):
        # uniform, alternating-vertex and slowly drifting streams, alpha 0 to 8
        rng = np.random.default_rng(12)
        restarts = 0
        for n in (2, 3, 7):
            for alpha in (0.0, 0.5, 2.0, 8.0):
                vertices = np.eye(n)[np.arange(300) % n]
                drift = 0.5 + 0.4 * np.sin(np.arange(300)[:, None] / 20.0 + np.arange(n))
                for xs in (rng.uniform(0, 1, (300, n)), vertices, drift):
                    agent = DoublingAftrl(n, 1.0, alpha, reg)
                    oracle = DoublingAftrlOracle(n, 1.0, alpha, reg)
                    for x in xs:
                        np.testing.assert_array_equal(agent.update(x), oracle.update(x))
                    assert agent.restarts == oracle.restarts
                    assert agent.eta == oracle.eta
                    restarts += len(agent.restarts)
        assert restarts > 50

    def test_constant_stream_never_restarts(self):
        agent = DoublingAftrl(2, eta0=1.0, alpha=1.0)
        plain = Aftrl(2, eta=1.0, alpha=1.0)
        x = np.array([0.3, 0.6])
        for _ in range(50):
            np.testing.assert_array_equal(agent.step(x), plain.step(x))
        assert agent.restarts == []

    def test_alternating_stream_first_restart(self):
        # accumulator crosses R_max = log 2 at the very first observation
        agent = DoublingAftrl(2, eta0=1.0, alpha=1.0)
        x0 = np.array([1.0, 0.0])
        x1 = np.array([0.0, 1.0])
        agent.step(x0)
        assert agent.restarts == [1]
        assert agent.eta == pytest.approx(0.5)
        for t in range(2, 30):
            agent.step(x1 if t % 2 == 0 else x0)
        assert agent.phase >= 2

    def test_eta_halves_per_restart(self):
        agent = DoublingAftrl(2, eta0=1.0, alpha=1.0)
        rng = np.random.default_rng(10)
        for _ in range(2000):
            x = rng.uniform(0, 1, 2)
            agent.step(x)
        assert agent.eta == pytest.approx(1.0 / 2**agent.phase)
        assert agent.phase == len(agent.restarts)

    def test_adaptive_regret_bound_with_restarts(self):
        # total regret <= 8 sqrt(sum ||dx||_q^2) sqrt(alpha R_max / beta)
        rng = np.random.default_rng(11)
        for trial in range(3):
            xs = rng.uniform(0, 1, (1500, 5))
            agent = DoublingAftrl(5, eta0=1.0, alpha=1.0)
            fs = run_recording(agent, xs)
            assert len(agent.restarts) >= 1
            trace = Trace.from_rounds(fs, xs)
            regret = external_regret(trace)[-1]
            deltas = np.vstack([xs[0], np.diff(xs, axis=0)])
            qsum = sum(l_norm(d, agent.reg.q) ** 2 for d in deltas)
            bound = 8 * np.sqrt(qsum) * np.sqrt(agent.alpha * agent.r_max / agent.reg.beta)
            assert regret <= bound


class TestStepBoundLemmas:
    def test_ftrl_consecutive_step_bound(self):
        # ||f_{t+1} - f_t||_p <= 2 eta n / beta on every round
        rng = np.random.default_rng(12)
        for reg in (ENTROPY, SQUARED_L2):
            for eta in (0.05, 0.4):
                n = 6
                agent = Aftrl(n, eta, 0.0, reg)
                prev = agent.start()
                for x in rng.uniform(0, 1, (300, n)):
                    cur = agent.step(x)
                    assert l_norm(cur - prev, reg.p) <= 2 * eta * n / reg.beta + 1e-12
                    prev = cur

    def test_mirror_descent_secondary_step_bound(self):
        # ||g_{t+1} - g_t||_p <= eta n / beta regardless of the exploit rate
        rng = np.random.default_rng(13)
        for reg in (ENTROPY, SQUARED_L2):
            n = 6
            agent = Amd(n, 0.2, alpha=50.0, reg=reg)
            prev = agent.secondary
            for x in rng.uniform(0, 1, (300, n)):
                agent.step(x)
                g = agent.secondary
                assert l_norm(g - prev, reg.p) <= 0.2 * n / reg.beta + 1e-12
                prev = g


class TestRegretInequalities:
    @staticmethod
    def _stream(seed, T=250, n=5):
        return np.random.default_rng(seed).uniform(0, 1, (T, n))

    def test_forward_comparator_lemma(self):
        # sum <g_t, x_t> <= <f', sum x_t> + R(f')/eta for random comparators
        rng = np.random.default_rng(14)
        for reg in (ENTROPY, SQUARED_L2):
            xs = self._stream(15)
            eta = 0.1
            g = forward_comparators(xs, reg, eta)
            gsum = float(np.einsum("ti,ti->", g, xs))
            comparators = rng.dirichlet(np.ones(xs.shape[1]), size=1000)
            cum = xs.sum(axis=0)
            rvals = np.array([reg.value(p) for p in comparators])
            assert np.all(gsum <= comparators @ cum + rvals / eta + 1e-9)

    def test_leader_inequality_every_prefix(self):
        # played - best_fixed/alpha - (alpha-1)/alpha * forward
        #   <= R(f')/(eta alpha) + (eta alpha / beta) sum ||dx||_q^2
        for reg in (ENTROPY, SQUARED_L2):
            for alpha in (1.0, 3.0, 25.0):
                for seed, eta in ((16, 0.05), (17, 0.3)):
                    xs = self._stream(seed)
                    T, n = xs.shape
                    agent = Aftrl(n, eta, alpha, reg)
                    fs = run_recording(agent, xs)
                    g = forward_comparators(xs, reg, eta)
                    played = np.cumsum(np.einsum("ti,ti->t", fs, xs))
                    gsum = np.cumsum(np.einsum("ti,ti->t", g, xs))
                    best_fixed = np.cumsum(xs, axis=0).min(axis=1)
                    deltas = np.vstack([xs[0], np.diff(xs, axis=0)])
                    qsum = np.cumsum([l_norm(d, reg.q) ** 2 for d in deltas])
                    lhs = played - best_fixed / alpha - (alpha - 1) / alpha * gsum
                    rhs = reg.max_value(n) / (eta * alpha) + (eta * alpha / reg.beta) * qsum
                    assert np.all(lhs <= rhs + 1e-9)

    def test_mirror_descent_inequality_every_prefix(self):
        for reg in (ENTROPY, SQUARED_L2):
            for alpha in (1.0, 10.0):
                xs = self._stream(18)
                T, n = xs.shape
                eta = 0.1
                agent = Amd(n, eta, alpha, reg)
                fs, g = np.empty_like(xs), np.empty_like(xs)
                f = agent.start()
                for t, x in enumerate(xs):
                    fs[t] = f
                    f = agent.step(x)
                    g[t] = agent.secondary
                played = np.cumsum(np.einsum("ti,ti->t", fs, xs))
                gsum = np.cumsum(np.einsum("ti,ti->t", g, xs))
                best_fixed = np.cumsum(xs, axis=0).min(axis=1)
                deltas = np.vstack([xs[0], np.diff(xs, axis=0)])
                qsum = np.cumsum([l_norm(d, reg.q) ** 2 for d in deltas])
                lhs = played - best_fixed / alpha - (alpha - 1) / alpha * gsum
                rhs = reg.max_value(n) / (eta * alpha) + (eta * alpha / (2 * reg.beta)) * qsum
                assert np.all(lhs <= rhs + 1e-9)


class TestEquivalences:
    def test_aftrl_zero_matches_mwu(self):
        rng = np.random.default_rng(19)
        xs = rng.uniform(0, 1, (1000, 8))
        a = Aftrl(8, 0.05, 0.0, ENTROPY)
        m = Mwu(8, 0.05)
        worst = 0.0
        for x in xs:
            worst = max(worst, np.abs(a.step(x) - m.step(x)).max())
        assert worst <= 1e-12

    def test_aftrl_one_matches_omwu(self):
        rng = np.random.default_rng(20)
        xs = rng.uniform(0, 1, (1000, 8))
        a = Aftrl(8, 0.05, alpha=1.0)
        o = Mwu(8, 0.05, 1.0)
        worst = 0.0
        for x in xs:
            worst = max(worst, np.abs(a.step(x) - o.step(x)).max())
        assert worst <= 1e-12
