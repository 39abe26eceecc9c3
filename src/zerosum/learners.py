"""Online learners over the simplex with a uniform observe/emit interface.

Loss-stream learners expose ``start()`` (the strategy played before any
feedback) and ``step(observed)`` (ingest the last loss vector, emit the
next strategy).  ``step`` checks the loss vector and the strategy it
emits; ``update`` is the same step unchecked, for callers that check a
whole run's rounds at once (the engine does).  The exploit rate
``alpha`` weights the most recent loss vector as a prediction of the
next one:

* ``Aftrl``   f_{t+1} = argmin <f, sum_{s<=t} x_s + alpha x_t> + R(f)/eta
              (alpha=0 is plain FTRL, alpha=1 the optimistic variant)
* ``Amd``     mirror-descent analogue via two Bregman proximal steps
* ``Mwu``     multiplicative weights, f_{t+1} ∝ f_t exp(-eta x_t)
* ``Omwu``    optimistic MWU, f_{t+1} ∝ f_t exp(-eta (2 x_t - x_{t-1}))
* ``ProdBr``  multiplicative mixture of an internal FTRL and the best
              response to the last loss, with an anchored mixture weight
* ``DoublingAftrl``  phase-restarted Aftrl with halving learning rate

Game-coupled self-play updates (``amwu_step`` / ``linear_amwu_step`` and
the ``Amwu`` wrapper) take the opponent's current and previous strategies
instead of a loss vector; the max side ascends the payoff, the min side
descends the transposed payoff.

The previous-loss convention everywhere: x_0 is the zero vector, so first
steps are well defined and the initial strategy is argmin R (uniform).
"""
from __future__ import annotations

import math

import numpy as np

from .core import MatrixGame, check_loss_vector, check_strategy, l_norm, uniform
from .regularizers import ENTROPY, Regularizer, bregman_prox, floored_softmax, regularized_argmin

BR_TIE_ATOL = 1e-12


def best_response(observed: np.ndarray) -> np.ndarray:
    """Uniform distribution over the minimizers of the loss vector.

    Ties within ``BR_TIE_ATOL`` of the minimum share the mass equally; the
    all-zero vector (the x_0 convention) yields the uniform strategy.
    """
    observed = np.asarray(observed, dtype=float)
    lo = observed.min()
    mask = observed <= lo + BR_TIE_ATOL
    return mask / mask.sum()


def check_rates(eta: float, alpha: float) -> None:
    """Reject a learning rate that is not positive and finite, or an
    exploit rate that is negative or not finite."""
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")


class LossStreamLearner:
    """Base of the loss-stream learners: ``start``, checked ``step``, unchecked ``update``."""

    n: int
    current: np.ndarray

    def start(self) -> np.ndarray:
        return self.current

    def step(self, observed: np.ndarray) -> np.ndarray:
        observed = check_loss_vector(observed)
        if observed.shape != (self.n,):
            raise ValueError(f"dimension mismatch: expected {self.n}, got {observed.shape}")
        return check_strategy(self.update(observed))

    def update(self, observed: np.ndarray) -> np.ndarray:
        """Ingest a valid loss vector of length n; return the next strategy."""
        raise NotImplementedError


class Aftrl(LossStreamLearner):
    """Leader-style learner with exploit rate ``alpha`` on the latest loss."""

    def __init__(self, n: int, eta: float, alpha: float = 0.0, reg: Regularizer = ENTROPY):
        check_rates(eta, alpha)
        self.n = n
        self.eta = eta
        self.alpha = alpha
        self.reg = reg
        self.cumulative = np.zeros(n)
        self.current = uniform(n)

    def update(self, observed: np.ndarray) -> np.ndarray:
        self.cumulative = self.cumulative + observed
        self.current = regularized_argmin(
            self.reg, self.cumulative + self.alpha * observed, self.eta
        )
        return self.current


def ftrl(n: int, eta: float, reg: Regularizer = ENTROPY) -> Aftrl:
    return Aftrl(n, eta, alpha=0.0, reg=reg)


def oftrl(n: int, eta: float, reg: Regularizer = ENTROPY) -> Aftrl:
    return Aftrl(n, eta, alpha=1.0, reg=reg)


class Amd(LossStreamLearner):
    """Mirror-descent learner with an exploit-weighted prediction step.

    On observing x_t: g_{t+1} = prox(g_t, x_t), then the played strategy
    f_{t+1} = prox(g_{t+1}, alpha * x_t); the prediction of x_{t+1} is x_t.
    ``g_history`` records the secondary sequence g_2, g_3, ... for
    post-hoc inequality checks.
    """

    def __init__(self, n: int, eta: float, alpha: float = 1.0, reg: Regularizer = ENTROPY):
        check_rates(eta, alpha)
        self.n = n
        self.eta = eta
        self.alpha = alpha
        self.reg = reg
        self.secondary = uniform(n)
        self.current = uniform(n)
        self.g_history: list[np.ndarray] = []

    def update(self, observed: np.ndarray) -> np.ndarray:
        self.secondary = bregman_prox(self.reg, self.secondary, observed, self.eta)
        self.g_history.append(self.secondary)
        if self.alpha == 0.0:
            self.current = self.secondary
        else:
            self.current = bregman_prox(
                self.reg, self.secondary, self.alpha * observed, self.eta
            )
        return self.current


class Mwu(LossStreamLearner):
    """Plain multiplicative weights on a loss stream (incremental form)."""

    def __init__(self, n: int, eta: float):
        if eta <= 0.0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.n = n
        self.eta = eta
        self.current = uniform(n)

    def update(self, observed: np.ndarray) -> np.ndarray:
        self.current = bregman_prox(ENTROPY, self.current, observed, self.eta)
        return self.current


class Omwu(LossStreamLearner):
    """Optimistic multiplicative weights: exponent -eta (2 x_t - x_{t-1})."""

    def __init__(self, n: int, eta: float):
        if eta <= 0.0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.n = n
        self.eta = eta
        self.current = uniform(n)
        self.prev_loss = np.zeros(n)

    def update(self, observed: np.ndarray) -> np.ndarray:
        self.current = bregman_prox(
            ENTROPY, self.current, 2.0 * observed - self.prev_loss, self.eta
        )
        self.prev_loss = observed
        return self.current


def _amwu_drive(game: MatrixGame, opp_now, opp_prev, side: str, alpha: float) -> np.ndarray:
    """The per-action drive (alpha+1) A y_t - alpha A y_{t-1} (max side)
    or its negated transpose analogue (min side)."""
    a = game.payoff
    if side == "max":
        return (alpha + 1.0) * (a @ opp_now) - alpha * (a @ opp_prev)
    if side == "min":
        return -((alpha + 1.0) * (a.T @ opp_now) - alpha * (a.T @ opp_prev))
    raise ValueError(f"side must be 'max' or 'min', got {side!r}")


def amwu_step(
    current: np.ndarray,
    game: MatrixGame,
    opp_now: np.ndarray,
    opp_prev: np.ndarray,
    side: str,
    eta: float,
    alpha: float,
) -> np.ndarray:
    """One exponential self-play update.

    Max side: f'(i) ∝ f(i) exp(eta ((alpha+1) (A y)_i - alpha (A y_prev)_i)).
    Min side: y'(i) ∝ y(i) exp(-eta ((alpha+1) (A^T f)_i - alpha (A^T f_prev)_i)).
    """
    drive = _amwu_drive(game, opp_now, opp_prev, side, alpha)
    if current.shape != drive.shape:
        raise ValueError(f"dimension mismatch: {current.shape} vs {drive.shape}")
    return floored_softmax(eta * drive, current)


def linear_amwu_step(
    current: np.ndarray,
    game: MatrixGame,
    opp_now: np.ndarray,
    opp_prev: np.ndarray,
    side: str,
    eta: float,
    alpha: float,
) -> np.ndarray:
    """The linearized self-play update with multipliers 1 + eta * drive.

    Valid only while every multiplier stays positive; raises otherwise
    (eta too large for the payoff scale).
    """
    drive = _amwu_drive(game, opp_now, opp_prev, side, alpha)
    mult = 1.0 + eta * drive
    if mult.min() <= 0.0:
        raise ValueError(
            f"nonpositive multiplier {mult.min()}: eta={eta} too large for this payoff scale"
        )
    w = current * mult
    return w / w.sum()


class Amwu:
    """Stateful wrapper for self-play updates on one side of a game.

    Tracks the opponent's previous strategy; on the first step it is taken
    equal to the current one.  ``alpha=0`` recovers plain MWU dynamics and
    ``alpha=1`` the optimistic variant.
    """

    def __init__(self, game: MatrixGame, side: str, eta: float, alpha: float, linear: bool = False):
        if side not in ("max", "min"):
            raise ValueError(f"side must be 'max' or 'min', got {side!r}")
        check_rates(eta, alpha)
        self.game = game
        self.side = side
        self.eta = eta
        self.alpha = alpha
        self.linear = linear
        self.n = game.n if side == "max" else game.m
        self.current = uniform(self.n)
        self.opp_prev: np.ndarray | None = None

    def start(self) -> np.ndarray:
        return self.current

    def step(self, opp_now: np.ndarray) -> np.ndarray:
        opp_now = np.asarray(opp_now, dtype=float)
        prev = self.opp_prev if self.opp_prev is not None else opp_now
        kernel = linear_amwu_step if self.linear else amwu_step
        self.current = kernel(
            self.current, self.game, opp_now, prev, self.side, self.eta, self.alpha
        )
        self.opp_prev = opp_now
        return check_strategy(self.current)


class BestResponseLearner(LossStreamLearner):
    """Plays the best response to the last observed loss vector."""

    def __init__(self, n: int):
        self.n = n
        self.current = uniform(n)

    def update(self, observed: np.ndarray) -> np.ndarray:
        self.current = best_response(observed)
        return self.current


class ProdBr(LossStreamLearner):
    """Anchored multiplicative mixture of an internal FTRL and best response.

    The horizon must be known up front; the parameters are
    eta = n / sqrt(2 T), eta1 = 0.5 sqrt(log T / T), and the anchored
    best-response weight w_br = 1 - eta1 stays fixed while the FTRL weight
    w_r (initially eta1) is scaled by 1 + eta1 <BR_t - f_t, x_t> after
    each round, using the pair that was mixed for the round just scored.
    """

    def __init__(self, n: int, horizon: int | None = None, reg: Regularizer = ENTROPY):
        if horizon is None:
            raise ValueError("ProdBr requires the horizon T at construction")
        if horizon < 2:
            raise ValueError(f"horizon must be at least 2, got {horizon}")
        self.n = n
        self.horizon = horizon
        self.reg = reg
        self.eta = n / math.sqrt(2.0 * horizon)
        self.eta1 = 0.5 * math.sqrt(math.log(horizon) / horizon)
        self.w_r = self.eta1
        self.w_br = 1.0 - self.eta1
        self.cumulative = np.zeros(n)
        self.ftrl_current = uniform(n)   # f_1 = argmin R
        self.br_current = uniform(n)     # best response to x_0 = 0
        self.current = self._mix()
        # the (f, BR) pair mixed into the strategy currently in play
        self._played_pair = (self.ftrl_current, self.br_current)

    def _mix(self) -> np.ndarray:
        total = self.w_r + self.w_br
        return (self.w_r * self.ftrl_current + self.w_br * self.br_current) / total

    def update(self, observed: np.ndarray) -> np.ndarray:
        f_played, br_played = self._played_pair
        self.w_r = self.w_r * (1.0 + self.eta1 * float((br_played - f_played) @ observed))
        if self.w_r <= 0.0:
            raise ValueError(f"mixture weight became nonpositive: {self.w_r}")
        self.cumulative = self.cumulative + observed
        self.ftrl_current = regularized_argmin(self.reg, self.cumulative, self.eta)
        self.br_current = best_response(observed)
        self._played_pair = (self.ftrl_current, self.br_current)
        self.current = self._mix()
        return self.current


class DoublingAftrl(Aftrl):
    """Aftrl with phase restarts driven by accumulated loss variation.

    Phase i runs at eta_i = eta0 / 2^i and keeps the within-phase budget
    (eta_i alpha / beta) * sum ||x_t - x_{t-1}||_q^2 <= R_max / eta_i.
    When an observation pushes the accumulator over the budget, the phase
    advances: eta halves, the cumulative loss restarts from that
    observation, and the crossing term opens the new phase's accumulator.
    The previous-loss pointer is kept across restarts (the adversary's
    stream is continuous).  Each round then takes ``Aftrl``'s update.
    """

    def __init__(self, n: int, eta0: float, alpha: float, reg: Regularizer = ENTROPY):
        super().__init__(n, eta0, alpha, reg)
        self.eta0 = eta0
        self.r_max = reg.max_value(n)
        self.phase = 0
        self.prev_loss = np.zeros(n)
        self.accumulator = 0.0
        self.restarts: list[int] = []
        self._round = 0

    def update(self, observed: np.ndarray) -> np.ndarray:
        self._round += 1
        delta_sq = l_norm(observed - self.prev_loss, self.reg.q) ** 2
        self.prev_loss = observed
        self.accumulator += delta_sq
        # the budget test (never true at alpha = 0)
        if (self.eta * self.alpha / self.reg.beta) * self.accumulator > self.r_max / self.eta:
            self.phase += 1
            self.eta = self.eta0 / 2.0 ** self.phase
            self.cumulative = np.zeros(self.n)
            self.accumulator = delta_sq
            self.restarts.append(self._round)
        return super().update(observed)
