"""Exact equilibria of zero-sum matrix games and a local-convergence certificate.

``solve_zero_sum`` uses the classical LP transformation: scale the payoff
matrix by a power of two to max|A| in (0.5, 1], shift it positive, solve
max 1'w s.t. Bw <= 1, w >= 0 with a condensed tableau simplex (only the
nonbasic columns are stored; Dantzig's entering rule, Bland's after a run of
degenerate pivots, ties broken by variable index; each pivot works in buffers
allocated once per solve and takes the full tableau's pivots bit for bit), and
read the row player's strategy off the dual values.  The duality gap of the
returned profile is certified directly on the original matrix, relative to
max|A|.

``spectral_radius_at_ne`` measures the local stability of the self-play
update map around an equilibrium: the largest eigenvalue modulus of the
closed-form Jacobian of the four-block update (current and previous strategy
pairs), built from the blocks of its normalized exponentials.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MatrixGame, binary_exponent, check_rates
from .learners import amwu_step, side_loss
from .metrics import exploitability

GAP_TOL = 1e-9
_PIVOT_TOL = 1e-11
_DEGENERATE_PIVOTS = 50  # degenerate pivots in a row before Bland's entering rule


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

    Entering variable: the simplex stops unless the least reduced cost is
    below ``-_PIVOT_TOL``, else the smallest variable among the candidates
    enters: the columns at that least cost (Dantzig's rule), or after
    ``_DEGENERATE_PIVOTS`` pivots in a row of minimum ratio at most
    ``_PIVOT_TOL`` every column below ``-_PIVOT_TOL`` (Bland's rule, which
    cannot cycle) until a pivot raises the objective, as every non-degenerate
    one does.  Leaving: the smallest basic variable among the ratio ties.

    A pivot works in buffers allocated once per solve and looks ties up by
    variable only when there are ties.  Each entry still gets one divide, or
    one product and one subtraction, so the pivots are the same bit for bit
    (einsum's product is +0.0 where the plain one is -0.0, which subtracts
    alike from any entry but -0.0, and B > 0 leaves the tableau none).
    """
    n, m = b.shape
    tab = np.zeros((n + 1, m + 1))
    tab[:n, :m] = b
    tab[:n, -1] = 1.0
    tab[n, :m] = -1.0
    rhs, reduced = tab[:n, -1], tab[n, :m]
    var = np.arange(m)  # the variable of each column
    basis = np.arange(m, m + n)  # the variable of each row
    ratios, factors, product = np.empty(n), np.empty(n + 1), np.empty_like(tab)
    degenerate = 0  # degenerate pivots in a row

    # the ratio test divides by every entry, zero and NaN ones too, and then
    # sets the ratio of each entry not above _PIVOT_TOL to inf
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            col = reduced.argmin()
            if not reduced[col] < -_PIVOT_TOL:
                break
            bland = degenerate >= _DEGENERATE_PIVOTS
            candidates = (reduced < -_PIVOT_TOL if bland else reduced == reduced[col]).nonzero()[0]
            if candidates.size > 1:
                col = candidates[var[candidates].argmin()]
            column = tab[:n, col]
            np.divide(rhs, column, out=ratios)
            ratios[~(column > _PIVOT_TOL)] = np.inf  # not <=, which keeps a NaN entry
            row = ratios.argmin()
            best = ratios[row]
            if best == np.inf:  # no entry above _PIVOT_TOL, whose ratio would be finite
                raise DegenerateGameError("simplex detected an unbounded direction")
            degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
            ties = (ratios <= best + _PIVOT_TOL).nonzero()[0]
            if ties.size != 1:  # none only at a NaN best, whose lookup raises
                row = ties[basis[ties].argmin()]
            pivot = tab[row, col]
            # rank-one elimination of the pivot column from every other row; the
            # column then holds the leaving variable's, 0 - factor * (1 / pivot)
            factors[:] = tab[:, col]
            factors[row] = 0.0
            tab[row] /= pivot
            tab[:, col] = 0.0
            tab[row, col] = 1.0 / pivot
            tab -= np.einsum("i,j->ij", factors, tab[row], out=product)
            var[col], basis[row] = basis[row], var[col]

    w, duals = np.zeros(m), np.zeros(n)
    structural, slack = basis < m, var >= m
    w[basis[structural]] = rhs[structural]
    duals[var[slack] - m] = reduced[slack]
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
    for perturbed in (False, True):
        if perturbed:  # the plain solve failed: break its pivot ties
            n, m = a.shape
            scaled = scaled + 1e-12 * (np.arange(n)[:, None] + 2.0 * np.arange(m)[None, :] + 1.0)
        f, y = _solve_shifted(scaled)
        gap = exploitability(game, f, y)
        if gap <= tol:  # a NaN gap is not certified
            return NashSolution(f_star=f, y_star=y, value=float(f @ a @ y), gap=gap)
    raise DegenerateGameError(f"duality gap {gap} above tolerance after perturbed resolve")


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


def _softmax_blocks(p: np.ndarray, d: np.ndarray, eta: float):
    """dS/dp = (diag(e) - q e') / <p, e> and dS/d(-eta d) = diag(q) - q q' at
    q = S(p, d) = p e / <p, e>, e = exp(-eta (d - min d)): one side's update."""
    e = np.exp(-eta * (d - d.min()))
    mass = p @ e
    q = p * e / mass
    return (np.diag(e) - np.outer(q, e)) / mass, np.diag(q) - np.outer(q, q)


def spectral_radius_at_ne(game: MatrixGame, ne: NashSolution, eta: float, alpha: float) -> float:
    """Spectral radius of the self-play update Jacobian at the equilibrium.

    The exact Jacobian of ``amwu_update_map`` at (f*, y*, f*, y*), from each side's
    ``_softmax_blocks`` at its ``learners.side_loss`` -A y* (max) or A^T f* (min), which is
    its drive there at any exploit rate; the radius is its largest eigenvalue modulus.  Below
    one it certifies local last-iterate convergence, above one local divergence.
    ``eta`` must be positive and ``alpha`` nonnegative, both finite (``core.check_rates``).
    """
    check_rates(eta, alpha)
    a, n, m = game.payoff, game.n, game.m
    now, prev = eta * (1.0 + alpha), eta * alpha  # rates first: inf rate * zero block is NaN
    dp_f, ds_f = _softmax_blocks(ne.f_star, side_loss(game, "max")(ne.y_star), eta)
    dp_y, ds_y = _softmax_blocks(ne.y_star, side_loss(game, "min")(ne.f_star), eta)
    jac = np.block([
        [dp_f, now * ds_f @ a, np.zeros((n, n)), -prev * ds_f @ a],
        [-now * ds_y @ a.T, dp_y, prev * ds_y @ a.T, np.zeros((m, m))],
        [np.eye(n + m, 2 * (n + m))],  # f and y move into the previous-strategy slots
    ])
    if not np.all(np.isfinite(jac)):
        raise ValueError("non-finite Jacobian entries")
    return float(np.abs(np.linalg.eigvals(jac)).max())
