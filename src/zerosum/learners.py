"""Online learners over the simplex with a uniform observe/emit interface.

Loss-stream learners expose ``start()`` (the strategy played before any
feedback) and ``step(observed)`` (ingest the last loss vector, emit the
next strategy).  ``step`` checks the loss vector and the strategy it
emits; ``update`` is the same step unchecked, one kernel call (the rates
are checked at construction), for callers that check a whole run's
rounds at once (the engine does).  The exploit rate ``alpha`` weights
the most recent loss vector as a prediction of the next one:

* ``Aftrl``   f_{t+1} = argmin <f, sum_{s<=t} x_s + alpha x_t> + R(f)/eta
              (alpha=0 is plain FTRL, alpha=1 the optimistic variant)
* ``Amd``     mirror-descent analogue via two Bregman proximal steps
* ``Mwu``     multiplicative weights,
              f_{t+1} ∝ f_t exp(-eta ((1+alpha) x_t - alpha x_{t-1}))
              (alpha=0 is plain MWU; ``Omwu`` is alpha=1)
* ``ProdBr``  multiplicative mixture of an internal FTRL and the best
              response to the last loss, with an anchored mixture weight
* ``DoublingAftrl``  phase-restarted Aftrl with halving learning rate

``Amwu`` is the game-coupled self-play learner: an ``Mwu`` fed its side's
loss of the opponent's strategy, -A y on the max side (which ascends the
payoff) and A^T f on the min side, whose first update also takes its
first loss as the previous one.  ``step`` takes the opponent's strategy.
``amwu_step`` is the same update as a function of the opponent's current
and previous strategies (``nash`` differentiates it), and
``linear_amwu_step`` its linearization on the same drive.

The previous-loss convention elsewhere: x_0 is the zero vector, so first
steps are well defined and the initial strategy is argmin R (uniform).
"""
from __future__ import annotations

import math

import numpy as np

from .core import MatrixGame, check_loss_vector, check_rates, check_strategy, l_norm, uniform
from .regularizers import ENTROPY, Regularizer, floored_softmax

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


class LossStreamLearner:
    """Base of the loss-stream learners: ``start``, checked ``step``, unchecked ``update``."""

    n: int
    current: np.ndarray

    def __init__(self, n: int, eta: float, alpha: float):
        """Check the rates ``eta`` and ``alpha`` and start at the uniform
        strategy; the learners without rates set their own state."""
        check_rates(eta, alpha)
        self.n, self.eta, self.alpha = n, eta, alpha
        self.current = uniform(n)

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
        super().__init__(n, eta, alpha)
        self.reg = reg
        self.cumulative = np.zeros(n)

    def update(self, observed: np.ndarray) -> np.ndarray:
        self.cumulative = self.cumulative + observed
        self.current = self.reg.leader(-self.eta * (self.cumulative + self.alpha * observed))
        return self.current


class Amd(LossStreamLearner):
    """Mirror-descent learner with an exploit-weighted prediction step.

    On observing x_t: g_{t+1} = prox(g_t, x_t), then the played strategy
    f_{t+1} = prox(g_{t+1}, alpha * x_t); the prediction of x_{t+1} is x_t.
    ``secondary`` is the latest g.
    """

    def __init__(self, n: int, eta: float, alpha: float = 1.0, reg: Regularizer = ENTROPY):
        super().__init__(n, eta, alpha)
        self.reg = reg
        self.secondary = uniform(n)

    def update(self, observed: np.ndarray) -> np.ndarray:
        self.secondary = self.reg.prox(self.secondary, -self.eta * observed)
        if self.alpha == 0.0:
            self.current = self.secondary
        else:
            self.current = self.reg.prox(self.secondary, -self.eta * (self.alpha * observed))
        return self.current


def _drive(x: np.ndarray, x_prev: np.ndarray, alpha: float) -> np.ndarray:
    """The exploit-weighted loss (1+alpha) x_t - alpha x_{t-1}."""
    return (1.0 + alpha) * x - alpha * x_prev


class Mwu(LossStreamLearner):
    """Multiplicative weights on a loss stream, driven by the exploit-weighted
    loss: f_{t+1} ∝ f_t exp(-eta ((1+alpha) x_t - alpha x_{t-1}))."""

    def __init__(self, n: int, eta: float, alpha: float = 0.0):
        super().__init__(n, eta, alpha)
        self.prev_loss = np.zeros(n)

    def update(self, observed: np.ndarray) -> np.ndarray:
        drive = _drive(observed, self.prev_loss, self.alpha)
        self.current = floored_softmax(-self.eta * drive, self.current)
        self.prev_loss = observed
        return self.current


class Omwu(Mwu):
    """Optimistic MWU: ``Mwu`` at exploit rate 1, exponent -eta (2 x_t - x_{t-1})."""

    def __init__(self, n: int, eta: float):
        super().__init__(n, eta, alpha=1.0)


class Amwu(Mwu):
    """``Mwu`` on one side of a game, fed that side's loss of the opponent's
    strategy: ``loss(y) = -A y`` on the max side, ``loss(f) = A^T f`` on the
    min side.

    ``step`` takes the opponent's strategy; ``update`` takes the loss, and
    its first call also takes that loss as the previous one.  ``alpha=0``
    recovers plain MWU dynamics and ``alpha=1`` the optimistic variant.
    """

    def __init__(self, game: MatrixGame, side: str, eta: float, alpha: float):
        self.loss = self.side_loss(game, side)
        super().__init__(game.n if side == "max" else game.m, eta, alpha)
        self.prev_loss = None

    @staticmethod
    def side_loss(game: MatrixGame, side: str):
        """The map from the opponent's strategy to ``side``'s loss vector."""
        a = game.payoff
        if side == "max":
            return lambda y: -(a @ y)
        if side == "min":
            return lambda f: a.T @ f
        raise ValueError(f"side must be 'max' or 'min', got {side!r}")

    def update(self, observed: np.ndarray) -> np.ndarray:
        if self.prev_loss is None:
            self.prev_loss = observed
        return Mwu.update(self, observed)  # per round: no super() object

    def step(self, opp_now: np.ndarray) -> np.ndarray:
        return check_strategy(self.update(self.loss(np.asarray(opp_now, dtype=float))))


def amwu_step(
    current: np.ndarray,
    game: MatrixGame,
    opp_now: np.ndarray,
    opp_prev: np.ndarray,
    side: str,
    eta: float,
    alpha: float,
) -> np.ndarray:
    """One exponential self-play update: the ``Mwu`` kernel on ``side``'s
    losses of the opponent's current and previous strategies.

    Max side: f'(i) ∝ f(i) exp(eta ((alpha+1) (A y)_i - alpha (A y_prev)_i)).
    Min side: y'(i) ∝ y(i) exp(-eta ((alpha+1) (A^T f)_i - alpha (A^T f_prev)_i)).
    """
    loss = Amwu.side_loss(game, side)
    drive = _drive(loss(opp_now), loss(opp_prev), alpha)
    if current.shape != drive.shape:
        raise ValueError(f"dimension mismatch: {current.shape} vs {drive.shape}")
    return floored_softmax(-eta * drive, current)


def linear_amwu_step(
    current: np.ndarray,
    game: MatrixGame,
    opp_now: np.ndarray,
    opp_prev: np.ndarray,
    side: str,
    eta: float,
    alpha: float,
) -> np.ndarray:
    """The linearized self-play update with multipliers 1 - eta * drive,
    on the same loss drive as ``amwu_step``.

    Valid only while every multiplier stays positive; raises otherwise
    (eta too large for the payoff scale).
    """
    loss = Amwu.side_loss(game, side)
    mult = 1.0 - eta * _drive(loss(opp_now), loss(opp_prev), alpha)
    if mult.min() <= 0.0:
        raise ValueError(
            f"nonpositive multiplier {mult.min()}: eta={eta} too large for this payoff scale"
        )
    w = current * mult
    return w / w.sum()


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

    def __init__(self, n: int, horizon: int, reg: Regularizer = ENTROPY):
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

    def _mix(self) -> np.ndarray:
        total = self.w_r + self.w_br
        return (self.w_r * self.ftrl_current + self.w_br * self.br_current) / total

    def update(self, observed: np.ndarray) -> np.ndarray:
        self.w_r *= 1.0 + self.eta1 * float((self.br_current - self.ftrl_current) @ observed)
        if self.w_r <= 0.0:
            raise ValueError(f"mixture weight became nonpositive: {self.w_r}")
        self.cumulative = self.cumulative + observed
        self.ftrl_current = self.reg.leader(-self.eta * self.cumulative)
        self.br_current = best_response(observed)
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
