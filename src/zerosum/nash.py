"""Exact equilibria of zero-sum matrix games and a local-convergence certificate.

``solve_zero_sum`` uses the classical LP transformation: shift the payoff
matrix positive, solve max 1'w s.t. Bw <= 1, w >= 0 with a dense tableau
simplex under Bland's anti-cycling rule, and read the row player's
strategy off the dual values.  The duality gap of the returned profile is
certified directly on the original matrix.

``spectral_radius_at_ne`` measures the local stability of the self-play
update map around an equilibrium: a finite-difference Jacobian of the
four-block update (current and previous strategy pairs) followed by a
Gelfand-formula spectral radius estimate via repeated squaring.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MatrixGame
from .learners import amwu_step, check_rates
from .metrics import exploitability

GAP_TOL = 1e-9
_PIVOT_TOL = 1e-11


@dataclass(frozen=True)
class NashSolution:
    """An equilibrium (f*, y*) with game value and certified duality gap."""

    f_star: np.ndarray
    y_star: np.ndarray
    value: float
    gap: float


class DegenerateGameError(RuntimeError):
    """Raised when the solver cannot certify a gap below tolerance."""


def _simplex_max(b: np.ndarray):
    """Tableau simplex for max 1'w s.t. Bw <= 1, w >= 0 with B > 0.

    Returns (w, duals, objective).  Entering variable: smallest index with
    a negative reduced cost; leaving: smallest basis index among the ratio
    ties (Bland's rule, no cycling).
    """
    n, m = b.shape
    tab = np.zeros((n + 1, m + n + 1))
    tab[:n, :m] = b
    tab[:n, m : m + n] = np.eye(n)
    tab[:n, -1] = 1.0
    tab[n, :m] = -1.0
    basis = list(range(m, m + n))

    while True:
        reduced = tab[n, : m + n]
        candidates = np.nonzero(reduced < -_PIVOT_TOL)[0]
        if candidates.size == 0:
            break
        col = int(candidates[0])
        column = tab[:n, col]
        rows = np.nonzero(column > _PIVOT_TOL)[0]
        if rows.size == 0:
            raise DegenerateGameError("simplex detected an unbounded direction")
        ratios = tab[rows, -1] / column[rows]
        best = ratios.min()
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
    """Solve the game for a payoff matrix, returning (f, y, value)."""
    shift = 1.0 - a.min()
    b = a + shift
    w, duals, total = _simplex_max(b)
    w_sum = w.sum()
    u_sum = duals.sum()
    if w_sum <= 0.0 or u_sum <= 0.0:
        raise DegenerateGameError("simplex returned a degenerate scaling")
    y = np.maximum(w, 0.0) / w_sum
    f = np.maximum(duals, 0.0) / u_sum
    y /= y.sum()
    f /= f.sum()
    value = 1.0 / w_sum - shift
    return f, y, value


def solve_zero_sum(game: MatrixGame) -> NashSolution:
    """Equilibrium strategies and value with a certified duality gap.

    If the first solve leaves a gap above ``GAP_TOL`` the matrix is
    re-solved under a tiny deterministic perturbation that breaks pivot
    ties; the gap is always certified on the original matrix.  A gap still
    above tolerance raises ``DegenerateGameError``.
    """
    a = game.payoff
    f, y, value = _solve_shifted(a)
    gap = exploitability(game, f, y)
    if gap > GAP_TOL:
        n, m = a.shape
        jitter = 1e-12 * (np.arange(n)[:, None] + 2.0 * np.arange(m)[None, :] + 1.0)
        f, y, value = _solve_shifted(a + jitter)
        value = float(f @ a @ y)
        gap = exploitability(game, f, y)
        if gap > GAP_TOL:
            raise DegenerateGameError(f"duality gap {gap} above tolerance after perturbed resolve")
    return NashSolution(f_star=f, y_star=y, value=value, gap=gap)


def amwu_update_map(
    game: MatrixGame,
    point: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    eta: float,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One application of the self-play dynamics on (f, y, z, w).

    z and w hold the previous strategies of the two players; the new state
    is (step(f; y, w), step(y; f, z), f, y).  An equilibrium duplicated
    into all four blocks is a fixed point.
    """
    f, y, z, w = point
    f_next = amwu_step(f, game, y, w, "max", eta, alpha)
    y_next = amwu_step(y, game, f, z, "min", eta, alpha)
    return f_next, y_next, f, y


def _pack(point) -> np.ndarray:
    return np.concatenate([np.asarray(b, dtype=float) for b in point])


def _unpack(vec: np.ndarray, n: int, m: int):
    return vec[:n], vec[n : n + m], vec[n + m : 2 * n + m], vec[2 * n + m :]


def _gelfand_radius(mat: np.ndarray, squarings: int = 20) -> float:
    """Spectral radius estimate ||J^(2^k)||^(1/2^k) with per-step rescaling."""
    m = mat.astype(float)
    log_scale = 0.0
    power = 1.0
    for _ in range(squarings):
        norm = np.linalg.norm(m)
        if norm == 0.0:
            return 0.0
        m = (m / norm) @ (m / norm)
        log_scale = 2.0 * (log_scale + np.log(norm))
        power *= 2.0
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return 0.0
    return float(np.exp((log_scale + np.log(norm)) / power))


def spectral_radius_at_ne(
    game: MatrixGame,
    ne: NashSolution,
    eta: float,
    alpha: float,
    fd_step: float = 1e-6,
) -> float:
    """Spectral radius of the self-play update Jacobian at the equilibrium.

    The Jacobian of the normalized update map (normalization differentiated
    as part of the map) is built by central finite differences with step
    ``fd_step`` per coordinate, then fed to the Gelfand estimate.  Accuracy
    is about 1e-3 relative; a radius below one certifies local last-iterate
    convergence, above one local divergence.  ``eta`` must be positive and
    ``alpha`` nonnegative, both finite, as for ``learners.Amwu``.
    """
    check_rates(eta, alpha)
    n, m = game.n, game.m
    x0 = _pack((ne.f_star, ne.y_star, ne.f_star, ne.y_star))
    dim = x0.size
    jac = np.empty((dim, dim))
    for j in range(dim):
        xp = x0.copy()
        xp[j] += fd_step
        xm = x0.copy()
        xm[j] -= fd_step
        fp = _pack(amwu_update_map(game, _unpack(xp, n, m), eta, alpha))
        fm = _pack(amwu_update_map(game, _unpack(xm, n, m), eta, alpha))
        jac[:, j] = (fp - fm) / (2.0 * fd_step)
    if not np.all(np.isfinite(jac)):
        raise ValueError("non-finite Jacobian entries")
    return _gelfand_radius(jac)
