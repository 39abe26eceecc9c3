import numpy as np
import pytest

from zerosum import nash
from zerosum.core import MatrixGame, l_norm
from zerosum.engine import make_random_game
from zerosum.metrics import exploitability
from zerosum.nash import (
    DegenerateGameError,
    amwu_update_map,
    solve_zero_sum,
    spectral_radius_at_ne,
)

MP = MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]))
MP_UNIT = MatrixGame(np.array([[1.0, 0.0], [0.0, 1.0]]))
RPS = MatrixGame(np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]))


def linprog_value(a):
    """Independent LP oracle for the game value (row player maximizes)."""
    from scipy.optimize import linprog

    n, m = a.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-a.T, np.ones((m, 1))])
    b_ub = np.zeros(m)
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * n + [(None, None)], method="highs",
    )
    assert res.status == 0
    return float(res.x[-1])


class TestSolveZeroSum:
    def test_matching_pennies(self):
        ne = solve_zero_sum(MP)
        np.testing.assert_allclose(ne.f_star, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(ne.y_star, [0.5, 0.5], atol=1e-9)
        assert ne.value == pytest.approx(0.0, abs=1e-9)
        assert ne.gap <= 1e-9

    def test_rock_paper_scissors(self):
        ne = solve_zero_sum(RPS)
        np.testing.assert_allclose(ne.f_star, np.full(3, 1 / 3), atol=1e-9)
        np.testing.assert_allclose(ne.y_star, np.full(3, 1 / 3), atol=1e-9)
        assert ne.value == pytest.approx(0.0, abs=1e-9)

    def test_two_by_two_indifference(self):
        ne = solve_zero_sum(MatrixGame(np.array([[3.0, 0.0], [1.0, 2.0]])))
        np.testing.assert_allclose(ne.f_star, [0.25, 0.75], atol=1e-8)
        np.testing.assert_allclose(ne.y_star, [0.5, 0.5], atol=1e-8)
        assert ne.value == pytest.approx(1.5, abs=1e-8)

    def test_random_games_certified_and_match_lp_oracle(self):
        rng = np.random.default_rng(0)
        for k in range(20):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(2, 11))
            game = make_random_game(n, m, seed=1000 + k)
            ne = solve_zero_sum(game)
            assert ne.gap <= 1e-9
            assert ne.value == pytest.approx(linprog_value(game.payoff), abs=1e-9)
            # value sits between the two players' guarantees
            assert (ne.f_star @ game.payoff).min() <= ne.value + 1e-9
            assert (game.payoff @ ne.y_star).max() >= ne.value - 1e-9

    def test_row_permutation_invariance(self):
        game = make_random_game(6, 5, seed=7)
        ne = solve_zero_sum(game)
        perm = np.array([3, 0, 5, 1, 4, 2])
        permuted = MatrixGame(game.payoff[perm])
        ne_p = solve_zero_sum(permuted)
        assert ne_p.value == pytest.approx(ne.value, abs=1e-9)
        # permuting the original solution solves the permuted game
        assert exploitability(permuted, ne.f_star[perm], ne.y_star) <= 1e-9
        np.testing.assert_allclose(np.sort(ne_p.f_star), np.sort(ne.f_star), atol=1e-8)

    def test_value_sign_convention(self):
        # the row player picks rows of A as payoffs
        game = MatrixGame(np.array([[2.0, 2.0], [0.0, 0.0]]))
        ne = solve_zero_sum(game)
        assert ne.value == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(ne.f_star, [1.0, 0.0], atol=1e-9)


def simplex_max_row_loop(b):
    """The tableau simplex with its elimination written as a loop over
    rows, as an oracle for the rank-one update in ``nash._simplex_max``."""
    n, m = b.shape
    tab = np.zeros((n + 1, m + n + 1))
    tab[:n, :m] = b
    tab[:n, m : m + n] = np.eye(n)
    tab[:n, -1] = 1.0
    tab[n, :m] = -1.0
    basis = list(range(m, m + n))
    while True:
        candidates = np.nonzero(tab[n, : m + n] < -nash._PIVOT_TOL)[0]
        if candidates.size == 0:
            break
        col = int(candidates[0])
        column = tab[:n, col]
        rows = np.nonzero(column > nash._PIVOT_TOL)[0]
        if rows.size == 0:
            raise DegenerateGameError("simplex detected an unbounded direction")
        ratios = tab[rows, -1] / column[rows]
        ties = rows[np.nonzero(ratios <= ratios.min() + nash._PIVOT_TOL)[0]]
        row = int(min(ties, key=lambda r: basis[r]))
        tab[row] /= tab[row, col]
        for r in range(n + 1):
            if r != row and tab[r, col] != 0.0:
                tab[r] -= tab[r, col] * tab[row]
        basis[row] = col
    w = np.zeros(m)
    for r, var in enumerate(basis):
        if var < m:
            w[var] = tab[r, -1]
    return w, tab[n, m : m + n].copy(), float(tab[n, -1])


def oracle_games():
    """A single row, a constant matrix, duplicated rows, square and
    rectangular random games with sides 30 to 120."""
    rng = np.random.default_rng(21)
    base = rng.random((20, 50))
    yield rng.random((1, 60))
    yield np.full((60, 60), rng.random())
    yield np.vstack([base, base])[rng.permutation(40)]
    for n, m in ((30, 30), (30, 45), (45, 30), (64, 96), (120, 40)):
        yield rng.random((n, m))


class TestRankOnePivot:
    def test_simplex_matches_row_loop(self):
        for a in oracle_games():
            b = a + 1.0 - a.min()
            got, want = nash._simplex_max(b), simplex_max_row_loop(b)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]

    def test_solutions_match_row_loop(self, monkeypatch):
        for a in oracle_games():
            got = solve_zero_sum(MatrixGame(a))
            with monkeypatch.context() as m:
                m.setattr(nash, "_simplex_max", simplex_max_row_loop)
                want = solve_zero_sum(MatrixGame(a))
            np.testing.assert_array_equal(got.f_star, want.f_star)
            np.testing.assert_array_equal(got.y_star, want.y_star)
            assert got.value == want.value
            assert got.gap == want.gap


class TestAmwuUpdateMap:
    def test_equilibrium_is_fixed_point(self):
        u = np.array([0.5, 0.5])
        out = amwu_update_map(MP, (u, u, u, u), eta=0.1, alpha=10.0)
        for block, ref in zip(out, (u, u, u, u)):
            np.testing.assert_allclose(block, ref, atol=1e-12)

    def test_eta_zero_shifts_state(self):
        rng = np.random.default_rng(1)
        f, z = rng.dirichlet(np.ones(2), 2)
        y, w = rng.dirichlet(np.ones(2), 2)
        out = amwu_update_map(MP, (f, y, z, w), eta=1e-300, alpha=3.0)
        np.testing.assert_allclose(out[0], f, atol=1e-12)
        np.testing.assert_allclose(out[1], y, atol=1e-12)
        np.testing.assert_allclose(out[2], f, atol=1e-15)
        np.testing.assert_allclose(out[3], y, atol=1e-15)

    def test_contracts_near_equilibrium(self):
        # iterating from a perturbed equilibrium shrinks the l1 distance
        ne = solve_zero_sum(MP_UNIT)
        eps = 0.02
        f = ne.f_star + np.array([eps, -eps])
        y = ne.y_star + np.array([-eps, eps])
        state = (f, y, f.copy(), y.copy())
        def dist(s):
            return l_norm(s[0] - ne.f_star, 1) + l_norm(s[1] - ne.y_star, 1)
        d0 = dist(state)
        for _ in range(1000):
            state = amwu_update_map(MP_UNIT, state, eta=0.1, alpha=10.0)
        assert dist(state) < 0.2 * d0


class TestSpectralRadius:
    def test_identity_at_eta_zero(self):
        ne = solve_zero_sum(MP_UNIT)
        rho = spectral_radius_at_ne(MP_UNIT, ne, eta=1e-12, alpha=10.0)
        assert rho == pytest.approx(1.0, abs=1e-3)

    def test_matches_eigvals_oracle(self):
        # Gelfand estimate against a direct eigenvalue computation of the
        # same finite-difference Jacobian
        from zerosum.nash import _pack, _unpack

        for game, eta, alpha in (
            (MP_UNIT, 0.1, 10.0),
            (MP_UNIT, 0.1, 0.0),
            (MatrixGame((RPS.payoff + 1) / 2), 0.1, 3.0),
        ):
            ne = solve_zero_sum(game)
            n, m = game.n, game.m
            x0 = _pack((ne.f_star, ne.y_star, ne.f_star, ne.y_star))
            h = 1e-6
            dim = x0.size
            jac = np.empty((dim, dim))
            for j in range(dim):
                xp = x0.copy(); xp[j] += h
                xm = x0.copy(); xm[j] -= h
                fp = _pack(amwu_update_map(game, _unpack(xp, n, m), eta, alpha))
                fm = _pack(amwu_update_map(game, _unpack(xm, n, m), eta, alpha))
                jac[:, j] = (fp - fm) / (2 * h)
            oracle = float(np.abs(np.linalg.eigvals(jac)).max())
            got = spectral_radius_at_ne(game, ne, eta, alpha)
            assert got == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.parametrize(
        "eta,alpha,name",
        [(-0.1, 10.0, "eta"), (0.0, 10.0, "eta"), (np.nan, 10.0, "eta"), (np.inf, 10.0, "eta"),
         (0.1, -5.0, "alpha"), (0.1, np.nan, "alpha"), (0.1, np.inf, "alpha")],
    )
    def test_rejects_meaningless_rates(self, eta, alpha, name):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            spectral_radius_at_ne(MP_UNIT, solve_zero_sum(MP_UNIT), eta, alpha)

    def test_exploit_rate_contracts_plain_diverges(self):
        ne = solve_zero_sum(MP_UNIT)
        assert spectral_radius_at_ne(MP_UNIT, ne, 0.1, 10.0) < 0.999
        assert spectral_radius_at_ne(MP_UNIT, ne, 0.1, 0.0) > 1.001

    def test_power_rate_exponents_contract(self):
        # alpha = eta^(b-1) for b in {0.25, 0.5, 1} keeps the radius below one
        from zerosum.cli import CERTIFICATE_3X3_SEEDS, centered_random_game

        games = [MP_UNIT] + [centered_random_game(3, 3, s) for s in CERTIFICATE_3X3_SEEDS]
        eta = 0.1
        for game in games:
            ne = solve_zero_sum(game)
            assert min(ne.f_star.min(), ne.y_star.min()) > 1e-6  # interior
            for b in (0.25, 0.5, 1.0):
                alpha = eta ** (b - 1.0)
                assert spectral_radius_at_ne(game, ne, eta, alpha) < 1.0
