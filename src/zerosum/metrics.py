"""Post-hoc regret and convergence measurements over recorded traces.

All regret series are cumulative: entry t-1 is the regret after t rounds.
Fixed and per-round comparators over the simplex are realized as pure
strategies (a linear objective attains its minimum at a vertex).

Every series is computed over the whole run at once, with no loop over
rounds: the per-round kernels (``regularized_argmin``, ``kl_divergence``,
``l_norm``) take a (T, n) block of rows and give the same result as T
one-row calls.
"""
from __future__ import annotations

import numpy as np

from .core import MatrixGame, Trace, kl_divergence, l_norm
from .regularizers import Regularizer, regularized_argmin

BETA_CLOSE_ATOL = 1e-12
_EXTREMUM_ROWS = 4096  # rows per column-major copy: the copy stays small at any T


def _row_extremum(reduce, block: np.ndarray) -> np.ndarray:
    """The min or max (``reduce``, ``np.minimum.reduce`` or ``np.maximum.reduce``) of each row
    of a (T, k) block, over column-major copies of ``_EXTREMUM_ROWS`` rows at a time: an
    elementwise reduction of k columns is about three times as fast at k = 20 as T short row
    reductions.  Min and max are exact, so the values are those of ``block.min(axis=1)`` or
    ``block.max(axis=1)``, NaN included; only where a row's extreme is a zero that the row
    holds with both signs can the sign of that zero differ.  The engine's losses and payoff
    products are sums of non-negative products, so they hold no -0.0."""
    out = np.empty(block.shape[0])
    for t in range(0, len(out), _EXTREMUM_ROWS):
        rows = slice(t, t + _EXTREMUM_ROWS)
        reduce(np.asfortranarray(block[rows]), axis=1, out=out[rows])
    return out


def external_regret(trace: Trace) -> np.ndarray:
    """Cumulative gap to the best fixed action in hindsight.

    Entry t is sum_{s<=t} <f_s, x_s> - min_i sum_{s<=t} x_s(i).
    """
    cum_realized = np.cumsum(trace.realized)
    cum_losses = np.cumsum(trace.losses, axis=0)
    return cum_realized - _row_extremum(np.minimum.reduce, cum_losses)


def dynamic_regret(trace: Trace) -> np.ndarray:
    """Cumulative gap to the per-round best action; nondecreasing in t."""
    per_round = trace.realized - _row_extremum(np.minimum.reduce, trace.losses)
    return np.cumsum(per_round)


def forward_comparators(losses: np.ndarray, reg: Regularizer, eta: float) -> np.ndarray:
    """One-step-lookahead regularized leaders g_1..g_T for a loss stream.

    g_t = argmin <g, sum_{s<t} x_s + x_t> + R(g)/eta.  Needs the full
    stream, so this is a post-hoc construction only.
    """
    return regularized_argmin(reg, np.cumsum(losses, axis=0), eta)


def forward_regret(trace: Trace, reg: Regularizer, eta: float) -> np.ndarray:
    """Cumulative gap to the one-step-lookahead leader; may be negative."""
    g = forward_comparators(trace.losses, reg, eta)
    per_round = trace.realized - np.einsum("ti,ti->t", g, trace.losses)
    return np.cumsum(per_round)


def exploitability(game: MatrixGame, f: np.ndarray, y: np.ndarray) -> float:
    """Duality gap max_i (A y)_i - min_j (f^T A)_j; zero exactly at a NE."""
    a = game.payoff
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    if f.shape != (game.n,) or y.shape != (game.m,):
        raise ValueError(
            f"dimension mismatch: game is {game.n}x{game.m}, got f {f.shape}, y {y.shape}"
        )
    return float((a @ y).max() - (f @ a).min())


def exploitability_series(game: MatrixGame, f_rounds: np.ndarray, y_rounds: np.ndarray) -> np.ndarray:
    """Per-round duality gap for paired strategy sequences."""
    a = game.payoff
    f_rounds = np.asarray(f_rounds, dtype=float)
    y_rounds = np.asarray(y_rounds, dtype=float)
    return (_row_extremum(np.maximum.reduce, y_rounds @ a.T)
            - _row_extremum(np.minimum.reduce, f_rounds @ a))


def beta_close(game: MatrixGame, f: np.ndarray, y: np.ndarray, beta: float) -> bool:
    """Whether every action has tiny mass or a near-indifferent payoff.

    For each row action i: f_i <= beta or |f^T A y - (A y)_i| <= beta;
    symmetrically for each column action j with A^T f.  Comparisons carry
    an absolute slack of ``BETA_CLOSE_ATOL``.
    """
    a = game.payoff
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    value = float(f @ a @ y)
    ay = a @ y
    atf = a.T @ f
    tol = beta + BETA_CLOSE_ATOL
    row_ok = (f <= tol) | (np.abs(value - ay) <= tol)
    col_ok = (y <= tol) | (np.abs(value - atf) <= tol)
    return bool(row_ok.all() and col_ok.all())


def step_distances(trace: Trace, p) -> np.ndarray:
    """||f_{t+1} - f_t|| for t = 1..T-1 in the given norm."""
    if trace.horizon < 2:
        raise ValueError("need at least two rounds to measure step distances")
    return l_norm(np.diff(trace.strategies, axis=0), p)


def kl_series(trace_pair: tuple[Trace, Trace], reference: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per-round KL(f*, f_t) + KL(y*, y_t) against a reference profile.

    An iterate with zero mass on its reference's support has no finite divergence:
    the error names the first such side (max, then min) and round (1-based).
    """
    trace_f, trace_y = trace_pair
    if trace_f.horizon != trace_y.horizon:
        raise ValueError("trace pair has mismatched horizons")
    f_kl, y_kl = (kl_divergence(star, trace.strategies, f"{side} side round")
                  for side, trace, star in zip(("max", "min"), trace_pair, reference))
    return f_kl + y_kl


def average_loss(trace: Trace) -> np.ndarray:
    """Running average of realized losses, cumsum(<f_s, x_s>)/t."""
    t = np.arange(1, trace.horizon + 1, dtype=float)
    return np.cumsum(trace.realized) / t


def average_dynamic_regret(trace: Trace) -> np.ndarray:
    """Dynamic regret divided by the round index."""
    t = np.arange(1, trace.horizon + 1, dtype=float)
    return dynamic_regret(trace) / t
