import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum.core import (
    LOSS_ATOL,
    SIMPLEX_ATOL,
    MatrixGame,
    Trace,
    check_loss_vector,
    check_rounds,
    check_strategy,
    kl_divergence,
    l_norm,
    uniform,
)


def simplex_points(n, size, rng):
    return rng.dirichlet(np.ones(n), size=size)


class TestKlDivergence:
    def test_identity(self):
        rng = np.random.default_rng(0)
        for p in simplex_points(6, 20, rng):
            assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_pure_vs_uniform(self):
        # 1 * log(1 / 0.5), evaluated independently
        got = kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert got == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_half_vs_quarter(self):
        # 0.5 log 2 + 0.5 log(2/3) = 0.14384103622589045
        got = kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert got == pytest.approx(0.14384103622589045, abs=1e-12)

    def test_zero_in_q_on_support(self):
        with pytest.raises(ValueError, match="zero mass"):
            kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_gibbs_and_pinsker_bulk(self):
        # KL >= 0 and KL >= 0.5 ||p - q||_1^2 on 10^4 random pairs
        rng = np.random.default_rng(42)
        p = rng.dirichlet(np.ones(8), size=10_000)
        q = rng.dirichlet(np.ones(8), size=10_000)
        kl = np.sum(p * np.log(p / q), axis=1)
        l1 = np.abs(p - q).sum(axis=1)
        assert kl.min() >= 0.0
        assert np.all(kl >= 0.5 * l1**2 - 1e-12)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for p, q in zip(simplex_points(5, 50, rng), simplex_points(5, 50, rng)):
            if np.abs(p - q).sum() > 1e-4:
                assert kl_divergence(p, q) > 1e-12

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_property(self, n, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        assert kl_divergence(p, q) >= 0.0

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_at_and_near_p(self, n, seed):
        # q = p, and q within rounding of p, where the sum can round below zero
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(n))
        near = p * (1.0 + 1e-15 * rng.standard_normal(n))
        for q in (p, near / near.sum()):
            assert kl_divergence(p, q) >= 0.0
            assert kl_divergence(p, np.stack([q, p])).min() >= 0.0

    def test_block_matches_rows(self):
        # one reference against a (T, n) block, for reference supports of
        # size 1, part of the actions and all of them
        rng = np.random.default_rng(44)
        for n in (2, 5, 20):
            q = np.maximum(rng.dirichlet(np.ones(n) * 0.3, size=60), 1e-300)
            vertex = np.eye(n)[n - 1]
            partial = np.where(np.arange(n) % 2 == 0, rng.uniform(0.1, 1, n), 0.0)
            for p in (vertex, partial / partial.sum(), rng.dirichlet(np.ones(n))):
                got = kl_divergence(p, q)
                assert got.shape == (60,)
                np.testing.assert_array_equal(got, [kl_divergence(p, row) for row in q])
                np.testing.assert_array_equal(got, [kl_row_oracle(p, row) for row in q])

    def test_one_row_gives_a_float(self):
        got = kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert isinstance(got, np.float64)

    def test_zero_mass_in_any_row_rejected(self):
        p = np.array([0.5, 0.0, 0.5])
        q = np.full((30, 3), 1.0 / 3)
        q[17] = [0.5, 0.5, 0.0]
        with pytest.raises(ValueError, match="zero mass"):
            kl_divergence(p, q)
        q[17] = [0.5, 0.0, 0.5]  # zero only off the support of p
        assert np.isfinite(kl_divergence(p, q)).all()

    def test_shapes_rejected(self):
        for p, q in (
            (np.full(2, 0.5), np.full(3, 1 / 3)),
            (np.full(2, 0.5), np.full((4, 3), 1 / 3)),
            (np.full((4, 2), 0.5), np.full((4, 2), 0.5)),  # the reference is one row
        ):
            with pytest.raises(ValueError, match="mismatch"):
                kl_divergence(p, q)


def kl_row_oracle(p, q):
    """The one-row divergence as written before the kernel took blocks."""
    support = p > 0.0
    ps = p[support]
    return float(np.sum(ps * np.log(ps / q[support])))


class TestLNorm:
    def test_block_matches_rows(self):
        rng = np.random.default_rng(45)
        oracles = {
            1: lambda v: float(np.abs(v).sum()),
            2: lambda v: float(np.sqrt(np.sum(v * v))),
            np.inf: lambda v: float(np.abs(v).max(initial=0.0)),
        }
        for n in (1, 2, 7, 20, 33):
            block = rng.normal(0, 1, (50, n))
            for p, oracle in oracles.items():
                got = l_norm(block, p)
                assert got.shape == (50,)
                np.testing.assert_array_equal(got, [l_norm(row, p) for row in block])
                np.testing.assert_array_equal(got, [oracle(row) for row in block])
                assert isinstance(l_norm(block[0], p), np.float64)

    def test_pythagorean(self):
        assert l_norm(np.array([3.0, -4.0]), 2) == pytest.approx(5.0)

    def test_l1(self):
        assert l_norm(np.array([0.5, -0.5]), 1) == pytest.approx(1.0)

    def test_linf(self):
        assert l_norm(np.array([0.2, -0.9]), np.inf) == pytest.approx(0.9)

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            l_norm(np.array([1.0]), 3)


class TestMatrixGame:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "game.csv"
        path.write_text("1,-1\n-1,1\n")
        game = MatrixGame.from_csv(path)
        assert game.n == 2 and game.m == 2
        np.testing.assert_allclose(game.payoff, [[1, -1], [-1, 1]])

    def test_csv_byte_order_mark(self, tmp_path):
        # spreadsheet exports start the file with a UTF-8 byte-order mark
        path = tmp_path / "game.csv"
        path.write_bytes("1,-1\n-1,1\n".encode("utf-8-sig"))
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        np.testing.assert_array_equal(MatrixGame.from_csv(path).payoff, [[1, -1], [-1, 1]])

    def test_csv_ragged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            MatrixGame.from_csv(path)

    @pytest.mark.parametrize(
        "body,lineno,message",
        [
            ("1,nan\n0,1\n", 1, "non-finite entry nan"),
            ("1,0\n\n0,-inf\n", 3, "non-finite entry -inf"),
            ("1,0\n0,1e400\n", 2, "non-finite entry inf"),
            ("1,0\n0,1\n1,0,1\n0\n", 3, "ragged rows: 3 entries, the first row has 2"),
            ("1,x\n0,1\n", 1, "bad entry (could not convert string to float: 'x')"),
        ],
        ids=["nan", "-inf", "1e400", "ragged", "bad-token"],
    )
    def test_csv_error_names_the_line(self, tmp_path, body, lineno, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ValueError) as err:
            MatrixGame.from_csv(path)
        assert str(err.value) == f"{path}:{lineno}: {message}"

    def test_csv_without_rows(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n \n")
        with pytest.raises(ValueError) as err:
            MatrixGame.from_csv(path)
        assert str(err.value) == f"{path}: empty matrix"

    @pytest.mark.parametrize(
        "payoff,message",
        [(np.ones(3), "nonempty 2-D matrix, got shape (3,)"),
         (np.ones((0, 2)), "nonempty 2-D matrix, got shape (0, 2)"),
         (np.array([[1.0, np.inf]]), "non-finite entries")],
        ids=["1-D", "empty", "inf"],
    )
    def test_rejects_bad_matrices(self, payoff, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            MatrixGame(payoff)

    def test_unit_range_mapping(self):
        game = MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        unit = game.to_unit_range()
        np.testing.assert_array_equal(unit.payoff, [[1.0, 0.0], [0.0, 1.0]])
        assert unit.to_unit_range() is unit
        constant = MatrixGame(np.full((2, 3), 4.0)).to_unit_range()
        np.testing.assert_array_equal(constant.payoff, np.zeros((2, 3)))
        a = np.random.default_rng(0).uniform(-1, 1, (6, 6))
        for k in (-1000, -40, 33, 1023):  # scaling by 2**k is exact, and no range overflows
            np.testing.assert_array_equal(MatrixGame(np.ldexp(a, k)).to_unit_range().payoff,
                                          MatrixGame(a).to_unit_range().payoff)

    def test_overflowing_range_maps_by_halves(self):
        # every entry is finite, but max - min is not: the range is taken on the
        # payoff scaled by a power of two to max|a| in (0.5, 1]
        game = MatrixGame(np.array([[1e308, -1e308], [-1e308, 1e308]]))
        np.testing.assert_array_equal(game.to_unit_range().payoff, [[1.0, 0.0], [0.0, 1.0]])


class TestTrace:
    def test_shape_mismatch_rejected(self):
        s = np.array([[0.5, 0.5], [1.0, 0.0]])
        x = np.array([[1.0, 0.0], [0.2, 0.4]])
        np.testing.assert_array_equal(Trace(s, x).realized, [0.5, 0.2])
        for x in (np.array([[1.0, 0.0]]), np.array([[1.0, 0.0, 0.0], [0.2, 0.4, 0.0]]), np.ones(2)):
            for strategies in (s, 2.0 * s):  # the shapes are checked before the rounds
                with pytest.raises(ValueError, match="inconsistent trace shapes"):
                    Trace.from_rounds(strategies, x)

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError, match="^empty trace$"):
            Trace(np.empty((0, 3)), np.empty((0, 3)))

    def test_from_rounds(self):
        rng = np.random.default_rng(1)
        s = rng.dirichlet(np.ones(4), size=10)
        x = rng.uniform(0, 1, (10, 4))
        tr = Trace.from_rounds(s, x)
        assert tr.horizon == 10
        assert tr.realized[3] == pytest.approx(s[3] @ x[3])

    def test_from_rounds_checks_its_rounds(self):
        rng = np.random.default_rng(2)
        s = rng.dirichlet(np.ones(3), size=9)
        x = rng.uniform(0, 1, (9, 3))
        s[6] = [0.5, 0.6, 0.0]
        with pytest.raises(ValueError, match=r"^max side round 7 strategy: entries sum to 1\.1"):
            Trace.from_rounds(s, x, context="max side round")
        x[2, 0] = 1.5
        with pytest.raises(ValueError, match=r"^round 3 loss: entries outside \[0, 1\]"):
            Trace.from_rounds(s, x)
        # built directly, a trace is unchecked and takes any numbers (the metric tests
        # build checked ones, by Trace.from_rounds)
        np.testing.assert_array_equal(Trace(s, x).realized, np.einsum("ti,ti->t", s, x))

    def test_strategy_sums(self):
        for n in (2, 7):
            u = uniform(n)
            assert u.sum() == pytest.approx(1.0, abs=1e-9)
            assert u.min() >= 0.0

    def test_uniform_needs_an_action(self):
        for shape in (0, (4, 0)):
            with pytest.raises(ValueError, match="^need at least one action, got n=0$"):
                uniform(shape)


def _passes(check, row):
    try:
        check(row)
    except ValueError:
        return False
    return True


class TestCheckRounds:
    def blocks(self, horizon=12, n=4, seed=0):
        rng = np.random.default_rng(seed)
        return rng.dirichlet(np.ones(n), size=horizon), rng.uniform(0, 1, (horizon, n))

    def test_valid_blocks_pass(self):
        s, x = self.blocks()
        check_rounds(s, x)

    def test_off_simplex_strategy_names_its_round(self):
        for k in (1, 7, 12):
            s, x = self.blocks()
            s[k - 1] *= 1.5
            with pytest.raises(ValueError, match=rf"^round {k} strategy: entries sum to"):
                check_rounds(s, x)

    def test_out_of_range_loss_names_its_round(self):
        for k, bad in ((1, -0.1), (5, 1.2), (9, np.nan), (12, np.inf)):
            s, x = self.blocks()
            x[k - 1, 2] = bad
            with pytest.raises(ValueError, match=rf"^round {k} loss: "):
                check_rounds(s, x)

    def test_first_bad_round_is_named(self):
        s, x = self.blocks()
        s[8, 0] = -0.5
        x[3, 1] = 2.0
        with pytest.raises(ValueError, match=r"^round 4 loss"):
            check_rounds(s, x)
        x[8, 1] = 2.0
        x[3, 1] = 0.5
        # within a round the strategy comes first
        with pytest.raises(ValueError, match=r"^round 9 strategy"):
            check_rounds(s, x, context="round")

    def test_context_prefix(self):
        s, x = self.blocks()
        x[2, 0] = 3.0
        with pytest.raises(ValueError, match=r"^adversary round 3 loss"):
            check_rounds(s, x, context="adversary round")

    def test_rows_at_the_tolerance_agree_with_the_vector_checks(self):
        # entries and sums stepped across the tolerance: each row passes
        # the bulk check exactly when the vector check passes it, as a
        # one-row block and in a Fortran-order and a row-strided block
        def blocks(row):
            rows = np.tile(row, (3, 1))
            return rows[:1], np.asfortranarray(rows), np.repeat(rows, 2, axis=0)[::2]

        seen = set()
        for n in (5, 33):  # at 33 a Fortran-order row sum can round differently
            base = uniform(n)
            for scale in np.linspace(0.5, 1.5, 41):
                strategy = base.copy()
                strategy[0] += scale * SIMPLEX_ATOL
                negative = base.copy()
                negative[0] = -scale * SIMPLEX_ATOL
                negative[1] += scale * SIMPLEX_ATOL
                for row in (strategy, negative):
                    ok = _passes(check_strategy, row)
                    seen.add(ok)
                    for b in blocks(row):
                        assert _passes(lambda s: check_rounds(s, np.zeros(s.shape)), b) == ok
                for value in (-scale * LOSS_ATOL, 1.0 + scale * LOSS_ATOL):
                    loss = np.full(n, 0.5)
                    loss[3] = value
                    ok = _passes(check_loss_vector, loss)
                    seen.add(ok)
                    for b in blocks(loss):
                        assert _passes(lambda x: check_rounds(np.tile(base, (len(x), 1)), x), b) == ok
        assert seen == {True, False}

    def test_rows_exactly_at_the_tolerance_pass(self):
        s = np.array([[1.0 + SIMPLEX_ATOL, -SIMPLEX_ATOL], [0.5, 0.5]])
        x = np.array([[-LOSS_ATOL, 1.0 + LOSS_ATOL], [0.0, 1.0]])
        for row in s:
            check_strategy(row)
        for row in x:
            check_loss_vector(row)
        check_rounds(s, x)

    def test_rejects_non_blocks(self):
        with pytest.raises(ValueError, match="2-D"):
            check_rounds(uniform(3), np.zeros((1, 3)))
