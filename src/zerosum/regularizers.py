"""Strongly convex regularizers over the simplex and their proximal maps.

Two regularizers are supported, both normalized so the minimum over the
simplex is exactly zero:

* ``entropy``:     R(f) = sum_i f_i log f_i + log n      (1-strongly convex in l1)
* ``squared_l2``:  R(f) = 0.5 ||f||^2 - 1/(2n)           (1-strongly convex in l2)

The constant shifts never affect argmins.  ``regularized_argmin`` solves
argmin_{f in simplex} <f, L> + R(f)/eta, the computational kernel of the
leader-style and mirror-descent learners.

The kernels ``floored_softmax``, ``project_to_simplex`` and
``regularized_argmin`` work over the last axis: one row of shape (n,) is
one round, as the learners call them, and a block of shape (T, n) is a
whole run, as ``metrics.forward_comparators`` calls them, with the same
result row for row.  ``bregman`` and ``Regularizer.value`` take one row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import WEIGHT_FLOOR, kl_divergence


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


ENTROPY = Regularizer("entropy", beta=1.0, p=1.0, q=np.inf)
SQUARED_L2 = Regularizer("squared_l2", beta=1.0, p=2.0, q=2.0)

REGULARIZERS = {"entropy": ENTROPY, "squared_l2": SQUARED_L2}


def from_name(name: str) -> Regularizer:
    try:
        return REGULARIZERS[name]
    except KeyError:
        choices = sorted(REGULARIZERS)
        raise ValueError(f"unknown regularizer {name!r}; choose from {choices}") from None


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
    holds = u * np.arange(1, n + 1) > cums - 1.0  # always at rho = 1
    rho = n - np.argmax(holds[..., ::-1], axis=-1, keepdims=True)  # the last rho that holds
    theta = (np.take_along_axis(cums, rho - 1, axis=-1) - 1.0) / rho
    return np.maximum(v - theta, 0.0)


def floored_softmax(z: np.ndarray, prior: np.ndarray | None = None) -> np.ndarray:
    """prior * exp(z - max z), floored at ``WEIGHT_FLOOR`` and normalized,
    over the last axis.

    The multiplicative kernel of every entropy update; ``z`` is shifted in
    place, so callers pass a fresh array.  No prior means a uniform one.
    """
    z -= z.max(axis=-1, keepdims=True)
    w = np.exp(z) if prior is None else prior * np.exp(z)
    w = np.maximum(w, WEIGHT_FLOOR)
    return w / w.sum(axis=-1, keepdims=True)


def regularized_argmin(reg: Regularizer, cumulative: np.ndarray, eta: float) -> np.ndarray:
    """argmin over the simplex of <f, cumulative> + R(f)/eta, for each row
    (last axis) of ``cumulative``.

    Entropy: the floored softmax of -eta * cumulative.
    Squared l2: Euclidean projection of -eta * cumulative onto the simplex.
    A block of rows is checked once, as a whole.
    """
    cumulative = np.asarray(cumulative, dtype=float)
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not np.all(np.isfinite(cumulative)):
        raise ValueError("non-finite cumulative loss")
    if reg.kind == "entropy":
        return floored_softmax(-eta * cumulative)
    return project_to_simplex(-eta * cumulative)


def bregman(reg: Regularizer, a: np.ndarray, b: np.ndarray) -> float:
    """Bregman divergence D_R(a, b): KL for entropy, 0.5||a-b||^2 for squared l2."""
    if reg.kind == "entropy":
        return kl_divergence(a, b)
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return 0.5 * float(np.sum(d * d))


def bregman_prox(reg: Regularizer, prior: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """argmin over the simplex of eta <f, grad> + D_R(f, prior).

    Entropy: prior_i exp(-eta grad_i), renormalized.
    Squared l2: projection of prior - eta * grad.
    """
    prior = np.asarray(prior, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if prior.shape != grad.shape:
        raise ValueError(f"dimension mismatch: {prior.shape} vs {grad.shape}")
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    if reg.kind == "entropy":
        return floored_softmax(-eta * grad, prior)
    return project_to_simplex(prior - eta * grad)
