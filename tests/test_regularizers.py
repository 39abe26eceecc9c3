import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum.core import kl_divergence, l_norm
from zerosum.regularizers import (
    ENTROPY,
    SQUARED_L2,
    bregman,
    bregman_prox,
    floored_softmax,
    project_to_simplex,
    regularized_argmin,
)

REGS = (ENTROPY, SQUARED_L2)


def test_normalization_min_zero_max_value():
    # min over the simplex is 0 (uniform for both kinds), max at a vertex
    for n in (2, 5, 17):
        u = np.full(n, 1.0 / n)
        vertex = np.zeros(n)
        vertex[0] = 1.0
        for reg in REGS:
            assert reg.value(u) == pytest.approx(0.0, abs=1e-12)
            assert reg.value(vertex) == pytest.approx(reg.max_value(n), abs=1e-12)


class TestProjectToSimplex:
    def test_fixed_point(self):
        np.testing.assert_allclose(project_to_simplex(np.array([0.5, 0.5])), [0.5, 0.5])

    def test_saturating(self):
        np.testing.assert_allclose(project_to_simplex(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_hand_threshold(self):
        # theta = 0.2 worked by hand
        np.testing.assert_allclose(
            project_to_simplex(np.array([0.8, 0.6])), [0.6, 0.4], atol=1e-15
        )

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=150, deadline=None)
    def test_kkt(self, n, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(0, 2, n)
        f = project_to_simplex(v)
        assert f.min() >= 0.0
        assert f.sum() == pytest.approx(1.0, abs=1e-9)
        active = f > 1e-12
        if active.any():
            # active coordinates share v_i - theta; inactive have v_i <= theta
            theta = (v[active] - f[active]).mean()
            assert np.allclose(v[active] - f[active], theta, atol=1e-9)
            assert np.all(v[~active] <= theta + 1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for p in rng.dirichlet(np.ones(6), size=20):
            np.testing.assert_allclose(project_to_simplex(p), p, atol=1e-12)


class TestRegularizedArgmin:
    def test_entropy_uniform_on_zero(self):
        np.testing.assert_allclose(
            regularized_argmin(ENTROPY, np.zeros(2), 1.0), [0.5, 0.5]
        )

    def test_entropy_softmax(self):
        # softmax(0, -1) evaluated independently
        got = regularized_argmin(ENTROPY, np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(got, [0.7310585786300049, 0.2689414213699951], atol=1e-12)

    def test_l2_projection(self):
        got = regularized_argmin(SQUARED_L2, np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            regularized_argmin(ENTROPY, np.array([np.inf, 0.0]), 1.0)
        with pytest.raises(ValueError):
            regularized_argmin(ENTROPY, np.zeros(2), 0.0)

    def test_oracle_dominance(self):
        # the argmin beats random simplex points on <f, L> + R(f)/eta
        rng = np.random.default_rng(77)
        n = 6
        for _ in range(1000):
            reg = REGS[rng.integers(2)]
            cum = rng.normal(0, 3, n)
            eta = float(rng.uniform(0.01, 2.0))
            f = regularized_argmin(reg, cum, eta)
            obj = f @ cum + reg.value(f) / eta
            pts = rng.dirichlet(np.ones(n), size=1000)
            if reg.kind == "entropy":
                rvals = np.sum(pts * np.log(np.maximum(pts, 1e-300)), axis=1) + np.log(n)
            else:
                rvals = 0.5 * np.sum(pts * pts, axis=1) - 0.5 / n
            objs = pts @ cum + rvals / eta
            assert obj <= objs.min() + 1e-9

    def test_entropy_matches_projected_gradient(self):
        # direct numeric minimization of the same objective to 1e-6; the
        # step size respects the entropy Hessian 1/(eta f) on the iterates
        rng = np.random.default_rng(123)
        n = 5
        for _ in range(5):
            cum = rng.normal(0, 1, n)
            eta = float(rng.uniform(0.1, 0.5))
            f = np.full(n, 1.0 / n)
            lr = 0.002
            for _ in range(10_000):
                grad = cum + (np.log(np.maximum(f, 1e-12)) + 1.0) / eta
                f = project_to_simplex(f - lr * grad)
            got = regularized_argmin(ENTROPY, cum, eta)
            np.testing.assert_allclose(got, f, atol=1e-6)


class TestBregman:
    def test_entropy_identity(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(4))
        assert bregman(ENTROPY, p, p) == pytest.approx(0.0, abs=1e-15)

    def test_l2_pure_pair(self):
        assert bregman(SQUARED_L2, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_entropy_equals_kl(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        assert bregman(ENTROPY, p, q) == pytest.approx(kl_divergence(p, q), abs=1e-15)
        assert bregman(ENTROPY, p, q) == pytest.approx(0.14384103622589045, abs=1e-12)

    def test_entropy_zero_denominator(self):
        with pytest.raises(ValueError):
            bregman(ENTROPY, np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_strong_convexity(self):
        # D_R(a, b) >= (beta/2) ||a - b||_p^2 on 10^4 random pairs
        rng = np.random.default_rng(9)
        n = 7
        a = rng.dirichlet(np.ones(n), size=10_000)
        b = rng.dirichlet(np.ones(n), size=10_000)
        for reg in REGS:
            for ai, bi in zip(a[:200], b[:200]):
                lhs = bregman(reg, ai, bi)
                rhs = 0.5 * reg.beta * l_norm(ai - bi, reg.p) ** 2
                assert lhs >= rhs - 1e-12
        # bulk vectorized check for the entropy kind (KL vs Pinsker)
        kl = np.sum(a * np.log(a / b), axis=1)
        l1sq = np.abs(a - b).sum(axis=1) ** 2
        assert np.all(kl >= 0.5 * l1sq - 1e-12)
        l2sq = np.sum((a - b) ** 2, axis=1)
        assert np.all(0.5 * l2sq >= 0.5 * l2sq - 1e-15)


class TestBregmanProx:
    def test_zero_gradient_fixed_point(self):
        u = np.full(3, 1.0 / 3)
        for reg in REGS:
            np.testing.assert_allclose(bregman_prox(reg, u, np.zeros(3), 0.7), u, atol=1e-12)

    def test_entropy_step(self):
        # (e^-0.1, 1)/Z evaluated independently
        got = bregman_prox(ENTROPY, np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.1)
        np.testing.assert_allclose(got, [0.47502081252106, 0.52497918747894], atol=1e-12)

    def test_l2_step(self):
        got = bregman_prox(SQUARED_L2, np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.2)
        np.testing.assert_allclose(got, [0.4, 0.6], atol=1e-13)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: \(2,\) vs \(3,\)$"):
            bregman_prox(ENTROPY, np.array([0.5, 0.5]), np.zeros(3), 0.1)

    def test_rejects_nonfinite_grad(self):
        with pytest.raises(ValueError):
            bregman_prox(ENTROPY, np.array([0.5, 0.5]), np.array([np.nan, 0.0]), 0.1)


def project_row_oracle(v):
    """The one-row projection as written before the kernel took blocks:
    stable argsort, and rho the last index where the condition holds."""
    order = np.argsort(-v, kind="stable")
    u = v[order]
    cums = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u * j > cums - 1.0)[0][-1]) + 1
    theta = (cums[rho - 1] - 1.0) / rho
    return np.maximum(v - theta, 0.0)


def blocks(seed):
    """(T, n) blocks of widths 1 to 25 at several scales, some with ties."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 10, 20, 25):
        for scale in (0.01, 1.0, 30.0):
            block = rng.normal(0, scale, (40, n))
            yield block
            yield np.round(block, 1)  # ties, repeated values and zeros


class TestLastAxisKernels:
    """One (T, n) block gives what T one-row calls give, bit for bit."""

    def test_projection_rows_match_oracle(self):
        for block in blocks(21):
            got = project_to_simplex(block)
            np.testing.assert_array_equal(got, [project_to_simplex(row) for row in block])
            np.testing.assert_array_equal(got, [project_row_oracle(row) for row in block])

    def test_floored_softmax(self):
        rng = np.random.default_rng(22)
        for block in blocks(23):
            prior = rng.dirichlet(np.ones(block.shape[1]), block.shape[0])
            for p in (None, prior):
                rows = [floored_softmax(row.copy(), None if p is None else p[t])
                        for t, row in enumerate(block)]
                np.testing.assert_array_equal(floored_softmax(block.copy(), p), rows)

    def test_floored_softmax_floor_applies_per_row(self):
        block = np.array([[0.0, -1000.0], [0.0, 0.0]])
        got = floored_softmax(block.copy())
        np.testing.assert_array_equal(got, [floored_softmax(row.copy()) for row in block])
        assert got[0, 1] > 0.0

    def test_regularized_argmin(self):
        for block in blocks(24):
            for reg in REGS:
                for eta in (0.01, 0.3, 5.0):
                    rows = [regularized_argmin(reg, row, eta) for row in block]
                    np.testing.assert_array_equal(regularized_argmin(reg, block, eta), rows)

    def test_leader_and_prox(self):
        rng = np.random.default_rng(25)
        for block in blocks(26):
            prior = rng.dirichlet(np.ones(block.shape[1]), block.shape[0])
            for reg in REGS:
                rows = [reg.leader(row.copy()) for row in block]
                np.testing.assert_array_equal(reg.leader(block.copy()), rows)
                rows = [reg.prox(p, row.copy()) for p, row in zip(prior, block)]
                np.testing.assert_array_equal(reg.prox(prior, block.copy()), rows)

    def test_checked_kernels_keep_their_formulas(self):
        # the formulas regularized_argmin and bregman_prox had before they
        # called Regularizer.leader and prox
        rng = np.random.default_rng(27)
        for block in blocks(28):
            prior = rng.dirichlet(np.ones(block.shape[1]), block.shape[0])
            for eta in (0.01, 0.3, 5.0):
                for t, row in enumerate(block):
                    np.testing.assert_array_equal(
                        regularized_argmin(ENTROPY, row, eta), floored_softmax(-eta * row))
                    np.testing.assert_array_equal(
                        regularized_argmin(SQUARED_L2, row, eta), project_to_simplex(-eta * row))
                    np.testing.assert_array_equal(
                        bregman_prox(ENTROPY, prior[t], row, eta),
                        floored_softmax(-eta * row, prior[t]))
                    np.testing.assert_array_equal(
                        bregman_prox(SQUARED_L2, prior[t], row, eta),
                        project_to_simplex(prior[t] - eta * row))

    def test_nonfinite_in_any_row_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            for t in (0, 7, 39):
                block = np.zeros((40, 4))
                block[t, 2] = bad
                for reg in REGS:
                    with pytest.raises(ValueError, match="non-finite"):
                        regularized_argmin(reg, block, 0.5)
                with pytest.raises(ValueError, match="non-finite"):
                    project_to_simplex(block)
