"""Strongly convex regularizers over the simplex and their proximal maps.

Two regularizers are supported, both normalized so the minimum over the
simplex is exactly zero:

* ``entropy``:     R(f) = sum_i f_i log f_i + log n      (1-strongly convex in l1)
* ``squared_l2``:  R(f) = 0.5 ||f||^2 - 1/(2n)           (1-strongly convex in l2)

The constant shifts never affect argmins.  Each regularizer has two
kernels, the ones the learners call every round, which check nothing but,
for squared-l2, that the input is finite (``project_to_simplex``):
``Regularizer.leader(z)`` is argmin_{f in simplex} R(f) - <f, z> and
``Regularizer.prox(prior, z)`` is argmin_{f in simplex} D_R(f, prior) - <f, z>.
``regularized_argmin`` (argmin <f, L> + R(f)/eta) and ``bregman_prox``
are the same kernels with their inputs checked, for outside callers; the
rate ``eta`` is checked by ``core.check_rates``, as the learners' rates are.

The kernels work over the last axis: one row of shape (n,) is one round,
as the learners call them, and a block of shape (T, n) is a whole run, as
``metrics.forward_comparators`` calls them, with the same result row for
row.  ``bregman`` and ``Regularizer.value`` take one row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import WEIGHT_FLOOR, check_rates, kl_divergence


@dataclass(frozen=True)
class Regularizer:
    """A named regularizer with its strong-convexity constant and norm pair.

    ``beta`` is the strong-convexity modulus with respect to the primal
    l_p norm; ``q`` is the dual exponent (1/p + 1/q = 1).
    """

    kind: str
    beta: float
    p: float
    q: float

    def value(self, f: np.ndarray) -> float:
        """R(f), normalized so min over the simplex is 0."""
        f = np.asarray(f, dtype=float)
        n = f.size
        if self.kind == "entropy":
            fs = np.maximum(f, WEIGHT_FLOOR)
            return float(np.sum(fs * np.log(fs)) + np.log(n))
        return float(0.5 * np.sum(f * f) - 0.5 / n)

    def max_value(self, n: int) -> float:
        """max R over the simplex (attained at a vertex)."""
        if self.kind == "entropy":
            return float(np.log(n))
        return 0.5 - 0.5 / n

    def leader(self, z: np.ndarray) -> np.ndarray:
        """argmin over the simplex of R(f) - <f, z> per row (``z`` may be overwritten):
        the floored softmax of z, or its projection, which refuses a non-finite z."""
        if self.kind == "entropy":
            return floored_softmax(z)
        return project_to_simplex(z)

    def prox(self, prior: np.ndarray, z: np.ndarray) -> np.ndarray:
        """argmin over the simplex of D_R(f, prior) - <f, z> per row (``z`` may be
        overwritten): prior * exp(z) floored and normalized, or the projection of
        prior + z, which refuses a non-finite sum."""
        if self.kind == "entropy":
            return floored_softmax(z, prior)
        return project_to_simplex(prior + z)


ENTROPY = Regularizer("entropy", beta=1.0, p=1.0, q=np.inf)
SQUARED_L2 = Regularizer("squared_l2", beta=1.0, p=2.0, q=2.0)

REGULARIZERS = {"entropy": ENTROPY, "squared_l2": SQUARED_L2}


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row (last axis) onto the probability simplex.

    Sort-and-threshold algorithm: with u the entries of v in descending
    order, the threshold is theta = (sum_{i<=rho} u_i - 1)/rho for the
    largest rho with u_rho > (sum_{i<=rho} u_i - 1)/rho, and the result is
    max(v - theta, 0).  Only the sorted values are used, so ties need no order.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a non-finite vector")
    u = np.sort(v, axis=-1)[..., ::-1]
    cums = np.cumsum(u, axis=-1)
    n = v.shape[-1]
    cums -= 1.0  # in place, as below: a block of rows holds two more blocks at most
    holds = np.multiply(u, np.arange(1, n + 1), out=u) > cums  # always at rho = 1
    rho = n - np.argmax(holds[..., ::-1], axis=-1, keepdims=True)  # the last rho that holds
    theta = np.take_along_axis(cums, rho - 1, axis=-1) / rho
    return np.maximum(np.subtract(v, theta, out=cums), 0.0, out=cums)


def floored_softmax(z: np.ndarray, prior: np.ndarray | None = None) -> np.ndarray:
    """prior * exp(z - max z), floored at ``WEIGHT_FLOOR`` and normalized, over
    the last axis (``shifted_exp``, then the floor and the sum): the multiplicative
    kernel of every entropy update, which ``Mwu.play`` and ``Mwu.play_sides`` restate
    in their loops.  It works in the array ``z``, so callers pass a fresh one.  No
    prior means a uniform one."""
    w = shifted_exp(z)
    if prior is not None:
        np.multiply(prior, w, out=w)
    np.maximum(w, WEIGHT_FLOOR, out=w)
    return np.divide(w, np.add.reduce(w, axis=-1, keepdims=True), out=w)


def shifted_exp(z: np.ndarray) -> np.ndarray:
    """exp(z - max z) over the last axis, in the array ``z``: on a block, each row
    as alone.  Its reduction and ``floored_softmax``'s sum are the ufuncs' own, as
    ``max`` and ``sum`` call them."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    return np.exp(z, out=z)


def regularized_argmin(reg: Regularizer, cumulative: np.ndarray, eta: float) -> np.ndarray:
    """argmin over the simplex of <f, cumulative> + R(f)/eta, for each row
    (last axis) of ``cumulative``: ``reg.leader(-eta * cumulative)`` with its
    input checked.  A block of rows is checked once, as a whole.
    """
    cumulative = np.asarray(cumulative, dtype=float)
    check_rates(eta)
    if not np.all(np.isfinite(cumulative)):
        raise ValueError("non-finite cumulative loss")
    return reg.leader(-eta * cumulative)


def bregman(reg: Regularizer, a: np.ndarray, b: np.ndarray) -> float:
    """Bregman divergence D_R(a, b): KL for entropy, 0.5||a-b||^2 for squared l2."""
    if reg.kind == "entropy":
        return kl_divergence(a, b)
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return 0.5 * float(np.sum(d * d))


def bregman_prox(reg: Regularizer, prior: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """argmin over the simplex of eta <f, grad> + D_R(f, prior):
    ``reg.prox(prior, -eta * grad)`` with its inputs checked."""
    prior = np.asarray(prior, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if prior.shape != grad.shape:
        raise ValueError(f"dimension mismatch: {prior.shape} vs {grad.shape}")
    check_rates(eta)
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    return reg.prox(prior, -eta * grad)
