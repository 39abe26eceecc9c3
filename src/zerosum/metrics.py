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


def external_regret(trace: Trace) -> np.ndarray:
    """Cumulative gap to the best fixed action in hindsight.

    Entry t is sum_{s<=t} <f_s, x_s> - min_i sum_{s<=t} x_s(i).
    """
    cum_realized = np.cumsum(trace.realized)
    cum_losses = np.cumsum(trace.losses, axis=0)
    return cum_realized - cum_losses.min(axis=1)


def dynamic_regret(trace: Trace) -> np.ndarray:
    """Cumulative gap to the per-round best action; nondecreasing in t."""
    per_round = trace.realized - trace.losses.min(axis=1)
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
    return (y_rounds @ a.T).max(axis=1) - (f_rounds @ a).min(axis=1)


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

    Iterates must be strictly positive on the reference supports; the
    multiplicative learners guarantee this by clamping.
    """
    trace_f, trace_y = trace_pair
    f_star, y_star = reference
    if trace_f.horizon != trace_y.horizon:
        raise ValueError("trace pair has mismatched horizons")
    return kl_divergence(f_star, trace_f.strategies) + kl_divergence(y_star, trace_y.strategies)


def average_loss(trace: Trace) -> np.ndarray:
    """Running average of realized losses, cumsum(<f_s, x_s>)/t."""
    t = np.arange(1, trace.horizon + 1, dtype=float)
    return np.cumsum(trace.realized) / t


def average_dynamic_regret(trace: Trace) -> np.ndarray:
    """Dynamic regret divided by the round index."""
    t = np.arange(1, trace.horizon + 1, dtype=float)
    return dynamic_regret(trace) / t
