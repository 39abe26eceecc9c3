"""Online learners over the simplex with a uniform observe/emit interface.

Loss-stream learners expose ``start()`` (the strategy played before any
feedback) and ``step(observed)`` (ingest the last loss vector, emit the
next strategy).  ``step`` checks the loss vector and the strategy it
emits; ``update`` is the same step unchecked, one kernel call (the rates
are checked at construction), for callers that check a whole run's
rounds at once (the engine does).  ``play(losses)`` gives a fresh learner's
strategies f_1 .. f_T for a (B, T, n) loss block (perhaps written over it),
bit for bit ``start`` and an ``update`` a round, holding ``PLAY_BLOCKS`` such
blocks at most: ``Aftrl``, ``Mwu``, ``ProdBr`` and ``BestResponseLearner``,
whose strategies depend on the losses alone, compute it in block operations
(``Mwu`` takes its drive's exp at once, then floors and normalizes a round).

Every learner is batch-native: built with shape (B, n) and rates as (B, 1)
columns, it updates B rows at once (``step`` refuses a batch), each bit for
bit the learner of shape n at that row's rates (``Mwu`` expands its rates once
into private (B, n) rows, as a column's broadcast costs about twice a same-shape
product at n=20).  The exploit rate ``alpha`` weights the most recent loss
vector as a prediction of the next one:

* ``Aftrl``   f_{t+1} = argmin <f, sum_{s<=t} x_s + alpha x_t> + R(f)/eta
              (alpha=0 is plain FTRL, alpha=1 the optimistic variant)
* ``Amd``     mirror-descent analogue via two Bregman proximal steps
* ``Mwu``     multiplicative weights,
              f_{t+1} ∝ f_t exp(-eta ((1+alpha) x_t - alpha x_{t-1}))
              (alpha=0 is plain MWU, whose drive is x_t, alpha=1 optimistic MWU)
* ``ProdBr``  multiplicative mixture of two learners, an ``Aftrl`` at alpha=0
              and a ``BestResponseLearner``, with an anchored mixture weight
* ``DoublingAftrl``  phase-restarted Aftrl with halving learning rate

In self-play each side is an ``Mwu`` fed its ``side_loss`` of the opponent's
strategy: -A y on the max side (which ascends the payoff), A^T f on the min
side.  On a square game the engine steps the two sides together by
``row.play_sides(col, ...)``, which stacks their rows, the max side's over the
min side's: each row updates as alone, so that is bit for bit the two.  Its
loop restates ``update`` and the engine's loss rows in buffers made once per
call, as ``play`` restates ``update`` on a loss block.  ``amwu_step`` is that
side's update as a function of the opponent's current and previous strategies
(the step of ``nash.amwu_update_map``, whose Jacobian ``nash`` takes in closed
form), and ``linear_amwu_step`` its linearization on the same drive.

The previous-loss convention: x_0 is the zero vector unless a caller sets
``Mwu.prev_loss`` (the engine's self-play sets it to round 1's losses), so
first steps are well defined and the initial strategy is argmin R (uniform).
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    WEIGHT_FLOOR, MatrixGame, check_loss_vector, check_rates, check_strategy, l_norm, uniform,
)
from .regularizers import ENTROPY, Regularizer, floored_softmax, shifted_exp

BR_TIE_ATOL = 1e-12
# ProdBr's: losses, leaders, best responses and their difference, plus (T, B, 1) columns
PLAY_BLOCKS = 4


def best_response(observed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform distribution over the minimizers of each loss row (last axis),
    written into ``out`` if given (it may overlap ``observed``).

    Ties within ``BR_TIE_ATOL`` of the minimum share the mass equally; the
    all-zero vector (the x_0 convention) yields the uniform strategy.
    """
    observed = np.asarray(observed, dtype=float)
    mask = observed <= np.minimum.reduce(observed, axis=-1, keepdims=True) + BR_TIE_ATOL
    return np.divide(mask, np.add.reduce(mask, axis=-1, keepdims=True), out=out)


class LossStreamLearner:
    """Base of the loss-stream learners: ``start``, checked ``step``, unchecked ``update``.

    ``shape`` is ``n``, one strategy of n actions, or ``(B, n)``, a batch of
    B rows; each rate is a number or a (B, 1) column.
    """

    n: int
    current: np.ndarray

    def __init__(self, shape, eta, alpha):
        """Check the rates ``eta`` and ``alpha``, each row's, and start at the
        uniform strategy; the learners without rates set their own state."""
        for row_eta, row_alpha in np.broadcast(eta, alpha):
            check_rates(row_eta.item(), row_alpha.item())
        self.eta, self.alpha = eta, alpha
        self.current = uniform(shape)
        self.n = self.current.shape[-1]

    def start(self) -> np.ndarray:
        return self.current

    def step(self, observed: np.ndarray) -> np.ndarray:
        if self.current.ndim != 1:  # before it moves a batch
            raise ValueError(f"step: a batch of shape {self.current.shape} steps by update")
        observed = check_loss_vector(observed)
        if observed.shape != (self.n,):
            raise ValueError(f"dimension mismatch: expected {self.n}, got {observed.shape}")
        return check_strategy(self.update(observed))

    def update(self, observed: np.ndarray) -> np.ndarray:
        """Ingest a valid loss vector of length n; return the next strategy."""
        raise NotImplementedError

    def play(self, losses: np.ndarray) -> np.ndarray:
        """``start``, then an ``update`` a round: the loop the closed forms replace."""
        strategies = np.empty_like(losses)
        strategies[:, 0] = self.start()
        for t in range(1, losses.shape[1]):
            strategies[:, t] = self.update(losses[:, t - 1])
        return strategies


class Aftrl(LossStreamLearner):
    """Leader-style learner with exploit rate ``alpha`` on the latest loss."""

    def __init__(self, shape, eta, alpha=0.0, reg: Regularizer = ENTROPY):
        super().__init__(shape, eta, alpha)
        self.reg = reg
        self.cumulative = np.zeros_like(self.current)

    def update(self, observed: np.ndarray) -> np.ndarray:
        self.cumulative = self.cumulative + observed
        self.current = self.reg.leader(-self.eta * (self.cumulative + self.alpha * observed))
        return self.current

    def play(self, losses: np.ndarray) -> np.ndarray:
        x = losses.transpose(1, 0, 2)  # (T, B, n): a rate column broadcasts over rounds
        z = np.cumsum(x[:-1], axis=0)
        z += np.multiply(x[:-1], self.alpha, out=x[:-1])
        x[1:], x[0] = self.reg.leader(np.multiply(z, -self.eta, out=z)), self.start()
        return losses


class Amd(LossStreamLearner):
    """Mirror-descent learner with an exploit-weighted prediction step.

    On observing x_t: g_{t+1} = prox(g_t, x_t), then the played strategy
    f_{t+1} = prox(g_{t+1}, alpha * x_t); the prediction of x_{t+1} is x_t
    (a row at alpha = 0 plays g_{t+1}).  ``secondary`` is the latest g.
    """

    def __init__(self, shape, eta, alpha=1.0, reg: Regularizer = ENTROPY):
        super().__init__(shape, eta, alpha)
        self.reg = reg
        self.secondary = uniform(shape)

    def update(self, observed: np.ndarray) -> np.ndarray:
        self.secondary = self.current = self.reg.prox(self.secondary, -self.eta * observed)
        if np.any(self.alpha != 0.0):
            predicted = self.reg.prox(self.secondary, -self.eta * (self.alpha * observed))
            self.current = np.where(self.alpha == 0.0, self.secondary, predicted)
        return self.current


def _drive(x: np.ndarray, x_prev: np.ndarray, alpha: float) -> np.ndarray:
    """The exploit-weighted loss (1+alpha) x_t - alpha x_{t-1}."""
    return (1.0 + alpha) * x - alpha * x_prev


class Mwu(LossStreamLearner):
    """Multiplicative weights on a loss stream, driven by the exploit-weighted
    loss: f_{t+1} ∝ f_t exp(-eta ((1+alpha) x_t - alpha x_{t-1})); ``prev_loss``
    is x_{t-1}, the zero vector before the first update unless a caller sets it."""

    def __init__(self, shape, eta, alpha=0.0):
        super().__init__(shape, eta, alpha)
        self.prev_loss = np.zeros_like(self.current)
        # _drive's weights on x_t and x_{t-1}, and -eta, as rows: each product is same-shape
        self._now, self._prev, self._rate = (
            np.broadcast_to(rate, self.current.shape).copy() for rate in (1.0 + alpha, alpha, -eta))
        self._plain = not np.any(alpha)  # drive x_t: (1 + 0) x_t - 0 x_{t-1} up to a zero's sign

    def update(self, observed: np.ndarray) -> np.ndarray:
        drive = observed if self._plain else self._now * observed - self._prev * self.prev_loss
        self.current = floored_softmax(self._rate * drive, self.current)
        self.prev_loss = observed
        return self.current

    def play(self, losses: np.ndarray) -> np.ndarray:
        x = losses.transpose(1, 0, 2)[:-1]  # the losses x_1 .. x_{T-1} that drive f_2 .. f_T
        z = np.multiply(x, self._now, out=np.empty(x.shape))  # (T-1, B, n): each z[t] contiguous
        z[1:] -= np.multiply(x[:-1], self._prev, out=x[:-1])  # x_0 = 0 drops out
        z *= self._rate
        total = np.empty(z.shape[1:-1] + (1,))  # a round's row sums
        f = losses[:, 0] = self.start()
        for e_t in shifted_exp(z):  # floored_softmax, its exp taken at once; z[t] becomes f_{t+2}
            np.multiply(f, e_t, out=e_t)
            np.maximum(e_t, WEIGHT_FLOOR, out=e_t)
            f = np.divide(e_t, np.add.reduce(e_t, axis=-1, keepdims=True, out=total), out=e_t)
        losses[:, 1:] = z.transpose(1, 0, 2)
        return losses

    def play_sides(self, col: Mwu, a: np.ndarray, offset: float, T: int, first: int):
        """Rounds ``first`` + 1 .. T of this fresh learner's B rows, the row side, and the fresh
        ``Mwu`` ``col``'s B rows, the column, on the square game ``a``: each round the row side
        is fed a y_t and the column ``offset`` - a^T f_t (``engine._losses``, a^T the transposed
        view); returns the (B, T, n) strategy blocks fs and ys, bit for bit ``start`` and an
        ``update`` a round per side.  The loop steps both sides' rows stacked as one, each row
        updating as alone, and restates ``update`` in buffers made once, so a round makes its
        arithmetic's numpy calls and no other: no Python frame, allocation or new view."""
        B = len(self.current)
        # the row side's rows over the column's: x is the strategy, f_t over y_t
        x, prev_loss, now, prev, rate = (np.vstack(pair) for pair in (
            (self.current, col.current), (self.prev_loss, col.prev_loss), (self._now, col._now),
            (self._prev, col._prev), (self._rate, col._rate)))
        block, plain = np.empty((2 * B, T, self.n)), self._plain and col._plain
        f, y, at = x[:B, :, None], x[B:, :, None], a.T
        losses = np.empty((2, 2 * B, self.n, 1))  # x_t and x_{t-1} in turn (round t's is t % 2)
        losses[(first - 1) % 2, ..., 0] = prev_loss
        turns = [(out[:B], out[B:], out[..., 0], losses[1 - i, ..., 0])
                 for i, out in enumerate(losses)]
        drive, top, total = np.empty_like(x), np.empty((2 * B, 1)), np.empty((2 * B, 1))
        # bound once, as a round looks up no attribute
        matmul, multiply, subtract, divide, exp, maximum = (
            np.matmul, np.multiply, np.subtract, np.divide, np.exp, np.maximum)
        top_of, sum_of = np.maximum.reduce, np.add.reduce
        for t in range(first, T - 1):
            block[:, t] = x
            row_out, col_out, observed, previous = turns[t % 2]
            matmul(a, y, out=row_out)
            matmul(at, f, out=col_out)
            subtract(offset, col_out, out=col_out)
            if plain:
                multiply(rate, observed, out=drive)
            else:  # x_{t-1} is read for the last time: scale it in its own buffer
                multiply(now, observed, out=drive)
                subtract(drive, multiply(prev, previous, out=previous), out=drive)
                multiply(rate, drive, out=drive)
            subtract(drive, top_of(drive, axis=-1, keepdims=True, out=top), out=drive)
            multiply(x, exp(drive, out=drive), out=x)
            maximum(x, WEIGHT_FLOOR, out=x)
            divide(x, sum_of(x, axis=-1, keepdims=True, out=total), out=x)
        block[:, T - 1] = x
        return block[:B], block[B:]


def side_loss(game: MatrixGame, side: str):
    """The map from the opponent's strategy, or a (B, k) block of them, to
    ``side``'s self-play loss rows, -A y (max) or A^T f (min); each row is the
    stacked product, exactly the 1-D ``a @ y``."""
    a = game.payoff
    if side == "max":
        return lambda y: -(a @ y[..., None])[..., 0]
    if side == "min":
        return lambda f: (a.T @ f[..., None])[..., 0]
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
    """One exponential self-play update: the ``Mwu`` kernel on ``side``'s
    losses of the opponent's current and previous strategies.

    Max side: f'(i) ∝ f(i) exp(eta ((alpha+1) (A y)_i - alpha (A y_prev)_i)).
    Min side: y'(i) ∝ y(i) exp(-eta ((alpha+1) (A^T f)_i - alpha (A^T f_prev)_i)).
    """
    loss = side_loss(game, side)
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
    loss = side_loss(game, side)
    mult = 1.0 - eta * _drive(loss(opp_now), loss(opp_prev), alpha)
    if mult.min() <= 0.0:
        raise ValueError(
            f"nonpositive multiplier {mult.min()}: eta={eta} too large for this payoff scale"
        )
    w = current * mult
    return w / w.sum()


class BestResponseLearner(LossStreamLearner):
    """Plays the best response to the last observed loss vector."""

    def __init__(self, shape):
        self.current = uniform(shape)
        self.n = self.current.shape[-1]

    def update(self, observed: np.ndarray) -> np.ndarray:
        self.current = best_response(observed)
        return self.current

    def play(self, losses: np.ndarray) -> np.ndarray:
        best_response(losses[:, :-1], out=losses[:, 1:])
        losses[:, 0] = self.start()
        return losses


def _inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u, v> over the last axis, kept as a length-1 axis: ``ProdBr``'s gain, one route for
    ``update`` and ``play`` that takes no BLAS kernel, whose summation order varies by CPU."""
    return np.einsum("...i,...i->...", u, v)[..., None]


class ProdBr(LossStreamLearner):
    """Anchored multiplicative mixture of two learners: ``ftrl``, an ``Aftrl``
    at alpha=0, and ``br``, a ``BestResponseLearner``.

    The horizon must be known up front; the parameters are
    eta = n / sqrt(2 T) (the FTRL rate), eta1 = 0.5 sqrt(log T / T), and the
    anchored best-response weight w_br = 1 - eta1 stays fixed while the FTRL
    weight w_r (initially eta1; a column, one entry per row) is scaled by
    1 + eta1 <BR_t - f_t, x_t> after each round, using the pair that was
    mixed for the round just scored.  For a loss vector in [0, 1] the inner
    product lies in [-1, 1] and eta1 < 1/3, so w_r stays positive.
    """

    def __init__(self, shape, horizon: int, reg: Regularizer = ENTROPY):
        if horizon < 2:
            raise ValueError(f"horizon must be at least 2, got {horizon}")
        self.br = BestResponseLearner(shape)  # the best response to x_0 = 0 is uniform
        self.n = self.br.n
        self.eta, self.reg = self.n / math.sqrt(2.0 * horizon), reg
        self.ftrl = Aftrl(shape, self.eta, 0.0, reg)  # f_1 = argmin R
        self.eta1 = 0.5 * math.sqrt(math.log(horizon) / horizon)
        self.w_r = np.full(self.br.current.shape[:-1] + (1,), self.eta1)
        self.w_br = 1.0 - self.eta1
        self.current = self._mix(self.ftrl.current, self.br.current)

    def _mix(self, ftrl: np.ndarray, br: np.ndarray) -> np.ndarray:
        return (self.w_r * ftrl + self.w_br * br) / (self.w_r + self.w_br)

    def update(self, observed: np.ndarray) -> np.ndarray:
        gain = _inner(self.br.current - self.ftrl.current, observed)  # <BR_t - f_t, x_t> per row
        self.w_r = self.w_r * (1.0 + self.eta1 * gain)
        self.current = self._mix(self.ftrl.update(observed), self.br.update(observed))
        return self.current

    def play(self, losses: np.ndarray) -> np.ndarray:
        # each learner plays a copy of the losses, which its play writes over
        ftrl, br = self.ftrl.play(losses.copy()), self.br.play(losses.copy())
        # (T, B, n): the weight column broadcasts over rounds
        x, ftrl, br = (block.transpose(1, 0, 2) for block in (losses, ftrl, br))
        gain = _inner(br[:-1] - ftrl[:-1], x[:-1])
        w_r = np.multiply.accumulate(np.concatenate((self.w_r[None], 1.0 + self.eta1 * gain)))
        ftrl *= w_r
        ftrl += np.multiply(br, self.w_br, out=br)
        np.divide(ftrl, w_r + self.w_br, out=x)
        return losses


class DoublingAftrl(Aftrl):
    """Aftrl with phase restarts driven by accumulated loss variation.

    Phase i runs at eta_i = eta0 / 2^i and keeps the within-phase budget
    (eta_i alpha / beta) * sum ||x_t - x_{t-1}||_q^2 <= R_max / eta_i.
    When an observation pushes the accumulator over the budget, the phase
    advances: eta halves, the cumulative loss restarts from that
    observation, and the crossing term opens the new phase's accumulator.
    The previous-loss pointer is kept across restarts (the adversary's
    stream is continuous).  Each round then takes ``Aftrl``'s update.
    Each row has its own phase, eta and accumulator (in a batch, (B, 1)
    columns); ``restarts`` lists the rounds in which some row restarted.
    """

    def __init__(self, shape, eta0, alpha, reg: Regularizer = ENTROPY):
        super().__init__(shape, eta0, alpha, reg)
        self.eta0 = eta0
        self.r_max = reg.max_value(self.n)
        rows = self.current.shape[:-1]
        self.phase = np.zeros(rows + (1,) if rows else (), dtype=int)
        self.prev_loss = np.zeros_like(self.current)
        self.accumulator = np.zeros(self.phase.shape)
        self.restarts: list[int] = []
        self._round = 0

    play = LossStreamLearner.play  # the restarts read each round's loss

    def update(self, observed: np.ndarray) -> np.ndarray:
        self._round += 1
        delta_sq = np.reshape(l_norm(observed - self.prev_loss, self.reg.q) ** 2, self.phase.shape)
        self.prev_loss = observed
        self.accumulator = self.accumulator + delta_sq
        # the budget test, per row (never true at alpha = 0)
        restart = (self.eta * self.alpha / self.reg.beta) * self.accumulator > self.r_max / self.eta
        if restart.any():
            self.phase = self.phase + restart
            # [()] turns the 0-d result of an unbatched learner into a number
            self.eta = np.where(restart, self.eta0 / 2.0 ** self.phase, self.eta)[()]
            self.cumulative = np.where(restart, 0.0, self.cumulative)
            self.accumulator = np.where(restart, delta_sq, self.accumulator)
            self.restarts.append(self._round)
        return super().update(observed)
