"""Simplex vectors, payoff matrices, and round-by-round play traces.

Conventions used throughout the package:

* a *strategy* is a 1-D float64 probability vector (entries >= 0, summing
  to 1 within ``SIMPLEX_ATOL``),
* a *loss vector* has entries in [0, 1]; the per-round loss of playing
  strategy ``f`` against loss vector ``x`` is the inner product <f, x>,
* a payoff matrix stores the row player's payoff for each pure pair.

All numerics are float64.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIMPLEX_ATOL = 1e-9
LOSS_ATOL = 1e-9

# Multiplicative updates drive off-support mass toward zero on long runs;
# clamping keeps weights strictly positive so KL terms stay finite.
WEIGHT_FLOOR = 1e-300


def uniform(n: int) -> np.ndarray:
    """The uniform strategy on ``n`` actions (the entropy minimizer)."""
    if n < 1:
        raise ValueError(f"need at least one action, got n={n}")
    return np.full(n, 1.0 / n)


def check_strategy(w: np.ndarray, context: str = "strategy") -> np.ndarray:
    """Validate a strategy vector; returns it unchanged."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"{context}: expected a 1-D vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{context}: non-finite entries")
    if w.min(initial=0.0) < -SIMPLEX_ATOL:
        raise ValueError(f"{context}: negative entry {w.min()}")
    s = w.sum()
    if abs(s - 1.0) > SIMPLEX_ATOL:
        raise ValueError(f"{context}: entries sum to {s}, not 1")
    return w


def check_loss_vector(x: np.ndarray, context: str = "loss vector") -> np.ndarray:
    """Validate a loss vector with entries in [0, 1]; returns it unchanged."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{context}: expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{context}: non-finite entries")
    if x.min(initial=0.0) < -LOSS_ATOL or x.max(initial=0.0) > 1.0 + LOSS_ATOL:
        raise ValueError(f"{context}: entries outside [0, 1]: min={x.min()}, max={x.max()}")
    return x


def _rows(block: np.ndarray, context: str) -> np.ndarray:
    block = np.asarray(block, dtype=float)
    if block.ndim != 2:
        raise ValueError(f"{context}: expected a 2-D block of rows, got shape {block.shape}")
    return block


def _suspect_strategy_rows(s: np.ndarray) -> np.ndarray:
    """Rows that may fail ``check_strategy``.

    Min and finiteness tests are exact; a row sum may round differently
    from the vector's, so the sum test flags rows at half the tolerance
    and each flagged row is rechecked by ``check_strategy`` itself.
    """
    with np.errstate(invalid="ignore"):
        return (
            ~np.isfinite(s).all(axis=1)
            | (s.min(axis=1, initial=0.0) < -SIMPLEX_ATOL)
            | (np.abs(s.sum(axis=1) - 1.0) > 0.5 * SIMPLEX_ATOL)
        )


def _suspect_loss_rows(x: np.ndarray) -> np.ndarray:
    """Rows that fail ``check_loss_vector`` (all its tests are exact)."""
    return (
        ~np.isfinite(x).all(axis=1)
        | (x.min(axis=1, initial=0.0) < -LOSS_ATOL)
        | (x.max(axis=1, initial=0.0) > 1.0 + LOSS_ATOL)
    )


def check_rounds(strategies: np.ndarray, losses: np.ndarray, context: str = "round") -> None:
    """Validate a run's strategy and loss blocks, one row per round, at once.

    Every row meets the test of ``check_strategy`` or ``check_loss_vector``
    at the same tolerance.  The error is that vector check's own, raised
    for the first bad round, with the round (1-based) named in its context;
    within a round the strategy comes before the loss.
    """
    s = _rows(strategies, f"{context} strategies")
    x = _rows(losses, f"{context} losses")
    suspects = sorted(
        [(int(t), 0) for t in np.flatnonzero(_suspect_strategy_rows(s))]
        + [(int(t), 1) for t in np.flatnonzero(_suspect_loss_rows(x))]
    )
    for t, kind in suspects:
        if kind == 0:
            check_strategy(s[t], context=f"{context} {t + 1} strategy")
        else:
            check_loss_vector(x[t], context=f"{context} {t + 1} loss")


def inner(a: np.ndarray, x: np.ndarray) -> float:
    """<a, x>, the realized loss of strategy ``a`` under loss vector ``x``."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if a.shape != x.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {x.shape}")
    return float(a @ x)


def kl_divergence(p: np.ndarray, q: np.ndarray):
    """Relative entropy sum_i p_i log(p_i / q_i), natural log, over the last axis.

    ``p`` is one distribution of shape (n,); ``q`` is one of shape (n,),
    giving a float, or a block of rows of shape (T, n), giving one value
    per row.  Terms with p_i = 0 contribute zero.  Raises if any row of q
    puts zero mass where p does not (the divergence would be infinite).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.shape[-1:] != p.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    support = p > 0.0
    # a boolean mask on the last axis leaves the rows non-contiguous, and a
    # row sum over them would round differently from the 1-D sum
    qs = np.ascontiguousarray(q[..., support])
    if np.any(qs <= 0.0):
        raise ValueError("kl_divergence undefined: q has zero mass on the support of p")
    ps = p[support]
    return np.sum(ps * np.log(ps / qs), axis=-1)


def l_norm(v: np.ndarray, p):
    """l_p norm over the last axis for p in {1, 2, inf}: a float for one
    vector, one value per row for a block of rows."""
    v = np.asarray(v, dtype=float)
    if p == 1:
        return np.abs(v).sum(axis=-1)
    if p == 2:
        return np.sqrt(np.sum(v * v, axis=-1))
    if p == np.inf or p == "inf":
        return np.abs(v).max(axis=-1, initial=0.0)
    raise ValueError(f"unsupported norm order {p!r}; use 1, 2 or inf")


@dataclass(frozen=True)
class MatrixGame:
    """A zero-sum matrix game; ``payoff[i, j]`` is the row player's payoff."""

    payoff: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.payoff, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ValueError(f"payoff must be a nonempty 2-D matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("payoff matrix has non-finite entries")
        object.__setattr__(self, "payoff", a)

    @property
    def n(self) -> int:
        return self.payoff.shape[0]

    @property
    def m(self) -> int:
        return self.payoff.shape[1]

    @classmethod
    def from_csv(cls, path) -> "MatrixGame":
        """Load a matrix from CSV: one row per line, comma-separated decimals, no header."""
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append([float(tok) for tok in line.split(",")])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad entry ({exc})") from None
        if not rows:
            raise ValueError(f"{path}: empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError(f"{path}: ragged rows")
        return cls(np.array(rows, dtype=float))

    def to_unit_range(self) -> tuple["MatrixGame", float, float]:
        """Affinely map payoffs into [0, 1].

        Returns (game, lo, span) with ``unit = (payoff - lo) / span``; a
        constant matrix is shifted only (span 1).  Positive affine maps
        preserve best responses and equilibria.
        """
        lo = float(self.payoff.min())
        hi = float(self.payoff.max())
        if lo >= 0.0 and hi <= 1.0:
            return self, 0.0, 1.0
        span = hi - lo
        if span == 0.0:
            return MatrixGame(np.zeros_like(self.payoff)), lo, 1.0
        return MatrixGame((self.payoff - lo) / span), lo, span


@dataclass(frozen=True)
class Trace:
    """Round-by-round record of one simulation.

    ``strategies[t]`` is the strategy played in round t+1, ``losses[t]``
    the loss vector revealed that round, and ``realized[t] = <f_t, x_t>``
    (computed here, once).
    """

    strategies: np.ndarray
    losses: np.ndarray
    realized: np.ndarray = field(init=False)

    def __post_init__(self):
        s = np.asarray(self.strategies, dtype=float)
        x = np.asarray(self.losses, dtype=float)
        if s.ndim != 2 or x.shape != s.shape:
            raise ValueError(f"inconsistent trace shapes: strategies {s.shape}, losses {x.shape}")
        if s.shape[0] < 1:
            raise ValueError("empty trace")
        object.__setattr__(self, "strategies", s)
        object.__setattr__(self, "losses", x)
        object.__setattr__(self, "realized", np.einsum("ti,ti->t", s, x))

    @property
    def horizon(self) -> int:
        return self.strategies.shape[0]

    @classmethod
    def from_rounds(cls, strategies, losses) -> "Trace":
        return cls(strategies, losses)
