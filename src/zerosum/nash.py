"""Exact equilibria of zero-sum matrix games and a local-convergence certificate.

``solve_zero_sum`` uses the classical LP transformation: scale the payoff
matrix by a power of two to max|A| in (0.5, 1], shift it positive, solve
max 1'w s.t. Bw <= 1, w >= 0 with a dense tableau simplex (Dantzig's entering
rule, Bland's after a run of degenerate pivots), and read the row player's
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
    """Tableau simplex for max 1'w s.t. Bw <= 1, w >= 0 with B > 0.

    Returns (w, duals, objective).  Entering variable: the most negative
    reduced cost, the first among equal minima (Dantzig's rule); leaving: the
    smallest basis index among the ratio ties.  After ``_DEGENERATE_PIVOTS``
    pivots in a row of minimum ratio at most ``_PIVOT_TOL``, the smallest index
    with a negative reduced cost enters (Bland's rule, which cannot cycle)
    until a pivot raises the objective, as every non-degenerate one does.
    """
    n, m = b.shape
    tab = np.zeros((n + 1, m + n + 1))
    tab[:n, :m] = b
    tab[:n, m : m + n] = np.eye(n)
    tab[:n, -1] = 1.0
    tab[n, :m] = -1.0
    basis = list(range(m, m + n))
    degenerate = 0  # degenerate pivots in a row

    while True:
        reduced = tab[n, : m + n]
        candidates = np.nonzero(reduced < -_PIVOT_TOL)[0]
        if candidates.size == 0:
            break
        bland = degenerate >= _DEGENERATE_PIVOTS
        col = int(candidates[0] if bland else candidates[np.argmin(reduced[candidates])])
        column = tab[:n, col]
        rows = np.nonzero(column > _PIVOT_TOL)[0]
        if rows.size == 0:
            raise DegenerateGameError("simplex detected an unbounded direction")
        ratios = tab[rows, -1] / column[rows]
        best = ratios.min()
        degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
        ties = rows[np.nonzero(ratios <= best + _PIVOT_TOL)[0]]
        row = int(min(ties, key=lambda r: basis[r]))
        tab[row] /= tab[row, col]
        # rank-one elimination of the pivot column from every other row
        factors = tab[:, col].copy()
        factors[row] = 0.0
        tab -= np.outer(factors, tab[row])
        basis[row] = col

    w = np.zeros(m)
    for r, var in enumerate(basis):
        if var < m:
            w[var] = tab[r, -1]
    duals = tab[n, m : m + n].copy()
    return w, duals, float(tab[n, -1])


def _solve_shifted(a: np.ndarray):
    """Solve the game for a payoff matrix, returning the profile (f, y)."""
    w, duals, total = _simplex_max(a + (1.0 - float(a.min())))
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
