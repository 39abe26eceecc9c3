import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import nash
from zerosum.core import MatrixGame, binary_exponent, l_norm
from zerosum.engine import make_random_game
from zerosum.metrics import exploitability
from zerosum.nash import (
    GAP_TOL,
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


DEGENERATE_FAMILIES = ("duplicate rows", "duplicate columns", "constant", "dominated",
                       "integer", "binary", "rank-one")


def degenerate_game(family, n, m, seed):
    """An n x m game of one of ``DEGENERATE_FAMILIES``: repeated, constant or
    dominated rows and columns, or identity plus a binary rank-one term.  Only
    the integer, binary and rank-one families make degenerate pivots (ratio
    ties at zero), which ``test_families_make_degenerate_pivots`` checks; the
    others tie rows or columns without degenerate vertices."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, max(1, n // 2), n), rng.integers(0, max(1, m // 2), m)
    if family == "duplicate rows":
        return rng.random((n, m))[rows]
    if family == "duplicate columns":
        return rng.random((n, m))[:, cols]
    if family == "constant":
        return np.full((n, m), rng.uniform(-2.0, 2.0))
    if family == "dominated":  # a row no better and a column no better than any other
        a = rng.random((n, m))
        a[-1], a[:, -1] = a.min(axis=0), a.max(axis=1)
        return a
    if family == "rank-one":
        return np.eye(n, m) + np.outer(rng.integers(0, 2, n), rng.integers(0, 2, m))
    entries = rng.integers(-3, 4, (n, m)) if family == "integer" else rng.integers(0, 2, (n, m))
    return entries[rows][:, cols].astype(float)


@st.composite
def degenerate_games(draw):
    """``degenerate_game`` of any family, sides 1 to 24."""
    n, m = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    family = draw(st.sampled_from(DEGENERATE_FAMILIES))
    return degenerate_game(family, n, m, draw(st.integers(0, 2**32 - 1)))


class TestDegenerateGames:
    @given(degenerate_games())
    @settings(max_examples=150, deadline=None)
    def test_certified_on_degenerate_families(self, a):
        game = MatrixGame(a)
        ne = solve_zero_sum(game)
        assert ne.gap <= GAP_TOL
        assert ne.gap == exploitability(game, ne.f_star, ne.y_star)

    @given(degenerate_games())
    @settings(max_examples=150, deadline=None)
    def test_certified_with_the_fallback_forced(self, a):
        # Bland's rule after every degenerate pivot, Dantzig's after the next one
        # that moves the objective (both fire on the integer, binary and rank-one games)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(nash, "_DEGENERATE_PIVOTS", 1)
            self.test_certified_on_degenerate_families.hypothesis.inner_test(self, a)

    @pytest.mark.parametrize("family", ["integer", "binary", "rank-one"])
    def test_families_make_degenerate_pivots(self, monkeypatch, family):
        tally = []
        monkeypatch.setattr(nash, "_simplex_max", lambda b: simplex_max_row_loop(b, tally=tally))
        for seed in range(10):
            solve_zero_sum(MatrixGame(degenerate_game(family, 12, 12, seed)))
        assert sum(tally) >= 1

    @given(degenerate_games())
    @settings(max_examples=50, deadline=None)
    def test_scale_free_on_degenerate_families(self, a):
        assert_scale_free(a, SCALES)

    @staticmethod
    def _pure_first(calls, fail_every_solve):
        solve = nash._solve_shifted

        def solve_shifted(a):  # the first solve, or every one, leaves a pure profile
            calls.append(a)
            f, y = solve(a)
            if fail_every_solve or len(calls) == 1:
                f, y = np.eye(a.shape[0])[0], np.eye(a.shape[1])[0]
            return f, y
        return solve_shifted

    def test_uncertified_solve_is_resolved_perturbed(self, monkeypatch):
        # a profile whose gap is above tolerance is solved again on a jittered
        # matrix; the gap and the value are those of the original matrix
        game, calls = make_random_game(5, 4, seed=3), []
        assert exploitability(game, np.eye(5)[0], np.eye(4)[0]) > GAP_TOL
        monkeypatch.setattr(nash, "_solve_shifted", self._pure_first(calls, False))
        ne = solve_zero_sum(game)
        assert len(calls) == 2 and not np.array_equal(calls[1], game.payoff)
        assert ne.gap <= GAP_TOL
        assert ne.gap == exploitability(game, ne.f_star, ne.y_star)
        assert ne.value == ne.f_star @ game.payoff @ ne.y_star

    def test_second_uncertified_solve_raises(self, monkeypatch):
        calls = []
        monkeypatch.setattr(nash, "_solve_shifted", self._pure_first(calls, True))
        with pytest.raises(ValueError, match="after perturbed resolve") as raised:
            solve_zero_sum(make_random_game(5, 4, seed=3))
        assert raised.type is DegenerateGameError and len(calls) == 2


SCALES = (-40, -12, 12, 33, 40)  # powers of two that keep every test game's entries normal


def assert_scale_free(a, scales):
    """``solve_zero_sum`` on ``a`` * 2**k, for each k of ``scales``, gives the same
    f* and y* bit for bit as on ``a``, its value and gap times 2**k, and a gap
    within the tolerance ``GAP_TOL`` * 2**(e + k) relative to max|a| = 2**e."""
    ne = solve_zero_sum(MatrixGame(a))
    for k in scales:
        scaled = solve_zero_sum(MatrixGame(np.ldexp(a, k)))
        np.testing.assert_array_equal(scaled.f_star, ne.f_star)
        np.testing.assert_array_equal(scaled.y_star, ne.y_star)
        assert scaled.value == math.ldexp(ne.value, k) and scaled.gap == math.ldexp(ne.gap, k)
        assert scaled.gap <= math.ldexp(GAP_TOL, binary_exponent(a) + k)


class TestScaleFree:
    def test_oracle_games(self):
        for a in oracle_games():
            assert_scale_free(a, SCALES)

    @pytest.mark.parametrize("a", [np.random.default_rng(0).uniform(-1, 1, (6, 6)), RPS.payoff],
                             ids=["random-6x6", "rps"])
    def test_whole_float_range(self, a):
        # an absolute gap tolerance fails the 6x6 game at 2**33 and certifies a
        # wrong value at 2**-40
        assert_scale_free(a, (-40, -12, 20, 33, 40, 100, 900))


class TestExtremePayoffs:
    @pytest.mark.parametrize(
        "a,f,y,value",
        [([[1e308, 1e308], [1e308, -1e308]], [1.0, 0.0], [1.0, 0.0], 1e308),
         ([[1.7e308, 0.0], [0.0, -1.7e308]], [1.0, 0.0], [0.0, 1.0], 0.0)],
        ids=["pure-row", "saddle"],
    )
    def test_overflowing_shift_is_solved_halved(self, a, f, y, value):
        # a + (1 - min a) would overflow: the prescaled game has the same equilibria,
        # and the value and the gap are those of the matrix itself
        ne = solve_zero_sum(MatrixGame(np.array(a)))
        np.testing.assert_array_equal(ne.f_star, f)
        np.testing.assert_array_equal(ne.y_star, y)
        assert ne.value == value and ne.gap == 0.0

    def test_overflowing_pennies_is_its_prescale(self):
        # the profile is that of the game scaled to max|a| in (0.5, 1], and the
        # gap on the matrix itself is within the tolerance relative to max|a|
        a = np.array([[1e308, -1e308], [-1e308, 1e308]])
        e = binary_exponent(a)
        ne, prescaled = solve_zero_sum(MatrixGame(a)), solve_zero_sum(MatrixGame(np.ldexp(a, -e)))
        np.testing.assert_array_equal(ne.f_star, prescaled.f_star)
        np.testing.assert_array_equal(ne.y_star, prescaled.y_star)
        assert ne.gap <= math.ldexp(GAP_TOL, e)

    def test_nan_gap_is_not_certified(self, monkeypatch):
        # no finite matrix leaves a NaN tableau after the prescale; a NaN profile
        # stands in for one, and its NaN gap is refused after the re-solve too
        monkeypatch.setattr(nash, "_solve_shifted",
                            lambda a: (np.full(a.shape[0], np.nan), np.full(a.shape[1], np.nan)))
        with pytest.raises(DegenerateGameError, match="duality gap nan"):
            solve_zero_sum(RPS)


def simplex_max_row_loop(b, degenerate_pivots=None, tally=None):
    """The full tableau simplex, slack columns included, with its elimination
    written as a loop over rows, as an oracle for the condensed tableau and
    rank-one update in ``nash._simplex_max``.
    Its entering rule and fallback are the solver's, after
    ``degenerate_pivots`` (default ``nash._DEGENERATE_PIVOTS``) degenerate
    pivots in a row; at 0 it is the pure Bland loop the solver ran before
    Dantzig's rule, kept as that rule's reference.  A ``tally`` list gets the
    run's number of degenerate pivots appended."""
    if degenerate_pivots is None:
        degenerate_pivots = nash._DEGENERATE_PIVOTS
    n, m = b.shape
    tab = np.zeros((n + 1, m + n + 1))
    tab[:n, :m] = b
    tab[:n, m : m + n] = np.eye(n)
    tab[:n, -1] = 1.0
    tab[n, :m] = -1.0
    basis = list(range(m, m + n))
    degenerate = total = 0
    while True:
        candidates = np.nonzero(tab[n, : m + n] < -nash._PIVOT_TOL)[0]
        if candidates.size == 0:
            break
        if degenerate >= degenerate_pivots:
            col = int(candidates[0])
        else:  # the most negative reduced cost, the first among equal ones
            costs = [tab[n, c] for c in candidates]
            col = int(candidates[costs.index(min(costs))])
        column = tab[:n, col]
        rows = np.nonzero(column > nash._PIVOT_TOL)[0]
        if rows.size == 0:
            raise DegenerateGameError("simplex detected an unbounded direction")
        ratios = tab[rows, -1] / column[rows]
        degenerate = degenerate + 1 if ratios.min() <= nash._PIVOT_TOL else 0
        total += degenerate > 0
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
    if tally is not None:
        tally.append(total)
    return w, tab[n, m : m + n].copy()


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


def degenerate_run_game():
    """A 60x60 binary game whose simplex makes a run of 86 degenerate pivots,
    so Bland's rule enters at the default ``_DEGENERATE_PIVOTS`` and leaves."""
    return np.random.default_rng(8).integers(0, 2, (60, 60)).astype(float)


def tie_games():
    """The integer, binary and rank-one 12x12 games of seeds 0 to 9, whose
    pivots tie: the condensed tableau must break ties by variable, not by
    column position, to take the full tableau's pivots."""
    for family in ("integer", "binary", "rank-one"):
        for seed in range(10):
            yield degenerate_game(family, 12, 12, seed)


def assert_same_bits(got, want):
    """Equal as int64 views, so a -0.0 differs from a 0.0 as it prints."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def assert_same_simplex(got, want):
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])


class TestRankOnePivot:
    def test_simplex_matches_row_loop(self):
        for a in (*oracle_games(), degenerate_run_game(), *tie_games()):
            b = a + 1.0 - a.min()
            assert_same_simplex(nash._simplex_max(b), simplex_max_row_loop(b))

    def test_fallback_matches_row_loop(self, monkeypatch):
        # every degenerate pivot hands the next one to Bland's rule
        monkeypatch.setattr(nash, "_DEGENERATE_PIVOTS", 1)
        self.test_simplex_matches_row_loop()

    def test_pure_bland_matches_bland_row_loop(self, monkeypatch):
        # with no Dantzig pivots the solver is the Bland simplex it replaced
        monkeypatch.setattr(nash, "_DEGENERATE_PIVOTS", 0)
        for a in (*oracle_games(), degenerate_run_game(), *tie_games()):
            b = a + 1.0 - a.min()
            assert_same_simplex(nash._simplex_max(b), simplex_max_row_loop(b, 0))

    def test_column_without_positive_entry_is_unbounded(self):
        b = np.array([[-1.0, 1.0]])
        for simplex in (nash._simplex_max, simplex_max_row_loop):
            with pytest.raises(DegenerateGameError, match="unbounded direction"):
                simplex(b)

    def test_ratio_test_drops_entries_not_above_the_tolerance(self):
        # an entry at _PIVOT_TOL has no ratio, the next float up has one, and a
        # NaN entry has none either
        for simplex in (nash._simplex_max, simplex_max_row_loop):
            for entry in (nash._PIVOT_TOL, np.nan):
                with pytest.raises(DegenerateGameError, match="unbounded direction"):
                    simplex(np.array([[entry, 1.0]]))
        b = np.array([[np.nextafter(nash._PIVOT_TOL, 1), 1.0]])
        got, want = nash._simplex_max(b), simplex_max_row_loop(b)
        assert_same_simplex(got, want)
        np.testing.assert_allclose(got[0], [1e11, 0.0], rtol=1e-9)

    @pytest.mark.parametrize("n,m", [(56, 112), (112, 56), (100, 100)])
    def test_largest_workload_shapes_match_row_loop(self, n, m):
        a = np.random.default_rng(0).random((n, m))
        b = a + 1.0 - a.min()
        assert_same_simplex(nash._simplex_max(b), simplex_max_row_loop(b))

    def test_long_degenerate_run_falls_back(self, monkeypatch):
        # the fallback changes the pivots that Dantzig's rule alone would take
        b = degenerate_run_game() + 1.0
        fallback = nash._simplex_max(b)
        monkeypatch.setattr(nash, "_DEGENERATE_PIVOTS", 10**9)
        assert not np.array_equal(fallback[0], nash._simplex_max(b)[0])

    def test_random_equilibria_match_bland(self, monkeypatch):
        # the random games have unique equilibria, which both rules find
        for a in list(oracle_games())[3:]:
            got = solve_zero_sum(MatrixGame(a))
            with monkeypatch.context() as m:
                m.setattr(nash, "_DEGENERATE_PIVOTS", 0)
                want = solve_zero_sum(MatrixGame(a))
            np.testing.assert_allclose(got.f_star, want.f_star, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.y_star, want.y_star, rtol=0, atol=1e-12)

    def test_solutions_match_row_loop(self, monkeypatch):
        for a in oracle_games():
            got = solve_zero_sum(MatrixGame(a))
            with monkeypatch.context() as m:
                m.setattr(nash, "_simplex_max", simplex_max_row_loop)
                want = solve_zero_sum(MatrixGame(a))
            for field in ("f_star", "y_star", "value", "gap"):
                assert_same_bits(getattr(got, field), getattr(want, field))


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


def per_column_jacobian(game, ne, eta, alpha, h=1e-6):
    """The central-difference Jacobian of the update map at the equilibrium,
    one column, two calls of the map on one point each, at a time; a
    coordinate below ``h`` takes the forward difference instead, as a step
    back would leave the simplex."""
    x0 = np.concatenate((ne.f_star, ne.y_star, ne.f_star, ne.y_star))
    n, m, dim = game.n, game.m, x0.size
    jac = np.empty((dim, dim))
    for j in range(dim):
        central = x0[j] >= h
        xp = x0.copy(); xp[j] += h
        xm = x0.copy()
        if central:
            xm[j] -= h
        fp, fm = (np.concatenate(amwu_update_map(
            game, (x[:n], x[n:n + m], x[n + m:2 * n + m], x[2 * n + m:]), eta, alpha))
            for x in (xp, xm))
        jac[:, j] = (fp - fm) / (2 * h if central else h)
    return jac


def certified_games():
    """The certificate games, criterion 4's five unit games and two rectangular
    games with mixed equilibria, as named params: none with a pure equilibrium,
    where the oracle's forward difference is off by O(h)."""
    from zerosum.cli import CERTIFICATE_3X3_SEEDS, centered_random_game

    games = {"pennies": MP_UNIT}
    games.update({f"3x3-{s}": centered_random_game(3, 3, s) for s in CERTIFICATE_3X3_SEEDS})
    games.update({f"unit20-{s}": make_random_game(20, 20, s).to_unit_range()
                  for s in (12, 90, 96, 128, 134)})
    games.update({"3x5-1": centered_random_game(3, 5, 1), "5x3-2": centered_random_game(5, 3, 2)})
    return [pytest.param(game, id=name) for name, game in games.items()]


class TestSpectralRadius:
    def test_identity_at_eta_zero(self):
        ne = solve_zero_sum(MP_UNIT)
        rho = spectral_radius_at_ne(MP_UNIT, ne, eta=1e-12, alpha=10.0)
        assert rho == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("game", certified_games())
    def test_matches_the_per_column_jacobian(self, game):
        # the closed-form radius against the per-column finite-difference one; the
        # rectangular games catch a block swapped between the n and m halves
        ne = solve_zero_sum(game)
        for eta, alpha in ((0.1, 10.0), (0.1, 0.0), (0.01, 100.0), (0.1, 1.0)):
            oracle = np.abs(np.linalg.eigvals(per_column_jacobian(game, ne, eta, alpha))).max()
            assert spectral_radius_at_ne(game, ne, eta, alpha) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize(
        "eta,alpha,name",
        [(-0.1, 10.0, "eta"), (0.0, 10.0, "eta"), (np.nan, 10.0, "eta"), (np.inf, 10.0, "eta"),
         (0.1, -5.0, "alpha"), (0.1, np.nan, "alpha"), (0.1, np.inf, "alpha"),
         (True, 0.0, "eta"), ("0.1", 10.0, "eta"), (0.1, True, "alpha"), (0.1, "10", "alpha")],
    )
    def test_rejects_meaningless_rates(self, eta, alpha, name):
        with pytest.raises(ValueError, match=rf"^{name}: must be"):
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
