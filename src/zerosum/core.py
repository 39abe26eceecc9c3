"""Simplex vectors, payoff matrices, and round-by-round play traces.

Conventions used throughout the package:

* a *strategy* is a 1-D float64 probability vector (entries >= 0, summing
  to 1 within ``SIMPLEX_ATOL``),
* a *loss vector* has entries in [0, 1]; the per-round loss of playing
  strategy ``f`` against loss vector ``x`` is the inner product <f, x>,
* a payoff matrix stores the row player's payoff for each pure pair.

All numerics are float64.

The checks are written once, here: one test per vector kind, which
``check_strategy`` and ``check_loss_vector`` run on one vector and
``check_rounds`` on a run's blocks; ``check_number``, ``check_choice`` and
``check_string`` for config values and flags, with ``check_rates`` the
learners' rates and ``check_keys`` the keys of a config object.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

SIMPLEX_ATOL = 1e-9
LOSS_ATOL = 1e-9

# Multiplicative updates drive off-support mass toward zero on long runs;
# clamping keeps weights strictly positive so KL terms stay finite.
WEIGHT_FLOOR = 1e-300


def uniform(shape) -> np.ndarray:
    """The uniform strategy (the entropy minimizer) on ``n`` actions, or for
    ``shape`` (B, n) a block of B of them."""
    n = shape[-1] if isinstance(shape, tuple) else shape
    if n < 1:
        raise ValueError(f"need at least one action, got n={n}")
    return np.full(shape, 1.0 / n)


def check_number(value, key: str, low: float = -math.inf, above: bool = False, integer=False):
    """``value`` if a number, not a bool, finite (an integer if ``integer``), >= ``low``
    (> if ``above``); it is returned as an int or a float (a numpy scalar too)."""
    try:
        ok = (
            isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)
            and (integer or math.isfinite(value))
            and (value > low if above else value >= low)
        )
    except OverflowError:  # an integer too large for a float
        ok = False
    if not ok:
        bound = "" if low == -math.inf else f" {'>' if above else '>='} {low:g}"
        want = "an integer" if integer else "a finite number"
        raise ValueError(f"{key}: must be {want}{bound}, got {value!r}")
    return int(value) if integer else float(value)


def check_rates(eta: float, alpha: float = 0.0) -> None:
    """Reject a learning rate ``eta`` that is not a finite number > 0, or an
    exploit rate ``alpha`` that is not a finite number >= 0."""
    check_number(eta, "eta", 0, above=True)
    check_number(alpha, "alpha", 0)


def check_keys(keys, accepted, where: str) -> None:
    """Reject a key of ``keys`` that is not ``accepted``, naming the first
    (in sorted order) and every accepted key; ``where`` names the object."""
    unknown = sorted(set(keys) - set(accepted))
    if unknown:
        names = ", ".join(sorted(accepted))
        raise ValueError(f"{where}: unknown key {unknown[0]!r}; accepted: {names}")


def check_choice(value, key: str, table):
    """``value`` if it is a string naming an entry of ``table``."""
    if not isinstance(value, str) or value not in table:
        raise ValueError(f"{key}: unknown value {value!r}; choose from {', '.join(table)}")
    return value


def check_string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key}: must be a string, got {value!r}")
    return value


def _vectors(v: np.ndarray, ndim: int, context: str) -> np.ndarray:
    """``v`` as C-contiguous floats with ``ndim`` axes: a C-contiguous row
    sums bit for bit as the same row alone does."""
    v = np.ascontiguousarray(v, dtype=float)
    if v.ndim != ndim:
        want = "a 1-D vector" if ndim == 1 else "a 2-D block of rows"
        raise ValueError(f"{context}: expected {want}, got shape {v.shape}")
    return v


def _first_fault(v: np.ndarray, kind: str) -> tuple[int, str] | None:
    """The first row of ``v`` (a 1-D ``v`` is one row) that fails the test of
    a ``kind`` vector, "strategy" or "loss", and the message of the first part
    of the test it fails; None if every row passes.  A non-finite entry fails
    each test: it is out of range, and it makes its row's sum non-finite."""
    v = np.atleast_2d(v)
    # The whole block is tested at once; only a block that fails is searched row by row.
    if kind == "loss":
        ok = (v >= -LOSS_ATOL) & (v <= 1.0 + LOSS_ATOL)
        if ok.all():
            return None
        bad = ~ok.all(axis=-1)
    else:
        negative = v < -SIMPLEX_ATOL
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or past the float range
            total = v.sum(axis=-1)
        off = ~(np.abs(total - 1.0) <= SIMPLEX_ATOL)
        if not (negative.any() or off.any()):
            return None
        negative = negative.any(axis=-1)
        bad = negative | off
    t = int(np.flatnonzero(bad)[0])
    row = v[t]
    if not np.isfinite(row).all():
        return t, "non-finite entries"
    if kind == "loss":
        return t, f"entries outside [0, 1]: min={row.min()}, max={row.max()}"
    if negative[t]:
        return t, f"negative entry {row.min()}"
    return t, f"entries sum to {total[t]}, not 1"


def check_strategy(w: np.ndarray, context: str = "strategy") -> np.ndarray:
    """Validate a strategy vector; returns it as C-contiguous floats."""
    w = _vectors(w, 1, context)
    if fault := _first_fault(w, "strategy"):
        raise ValueError(f"{context}: {fault[1]}")
    return w


def check_loss_vector(x: np.ndarray, context: str = "loss vector") -> np.ndarray:
    """Validate a loss vector with entries in [0, 1]; returns it as C-contiguous floats."""
    x = _vectors(x, 1, context)
    if fault := _first_fault(x, "loss"):
        raise ValueError(f"{context}: {fault[1]}")
    return x


def check_rounds(strategies: np.ndarray, losses: np.ndarray, context: str = "round") -> None:
    """Validate a run's strategy and loss blocks, one row per round, at once.

    Every row meets the same test as ``check_strategy`` or
    ``check_loss_vector``, and the error is that vector check's own, raised
    for the first bad round, with the round (1-based) named in its context;
    within a round the strategy comes before the loss.
    """
    s = _vectors(strategies, 2, f"{context} strategies")
    x = _vectors(losses, 2, f"{context} losses")
    bad_s, bad_x = _first_fault(s, "strategy"), _first_fault(x, "loss")
    if bad_s and not (bad_x and bad_x[0] < bad_s[0]):
        raise ValueError(f"{context} {bad_s[0] + 1} strategy: {bad_s[1]}")
    if bad_x:
        raise ValueError(f"{context} {bad_x[0] + 1} loss: {bad_x[1]}")


def kl_divergence(p: np.ndarray, q: np.ndarray, context: str = "q row"):
    """Relative entropy sum_i p_i log(p_i / q_i), natural log, over the last axis.

    ``p`` is one distribution of shape (n,); ``q`` is one of shape (n,),
    giving a float, or a block of rows of shape (T, n), giving one value
    per row.  Terms with p_i = 0 contribute zero, and a sum rounded below zero
    reads 0.0.  Raises if a row of q puts zero mass where p does not (the
    divergence would be infinite), naming a block's first such row, ``context`` t (1-based).
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
        where = "q" if q.ndim == 1 else f"{context} {np.argmax(np.any(qs <= 0.0, axis=-1)) + 1}"
        raise ValueError(f"kl_divergence undefined: {where} has zero mass on the support of p")
    ps = p[support]
    return np.maximum(np.sum(ps * np.log(ps / qs), axis=-1), 0.0)


def l_norm(v: np.ndarray, p):
    """l_p norm over the last axis for p in {1, 2, inf}: a float for one
    vector, one value per row for a block of rows."""
    if p not in (1, 2, np.inf):
        raise ValueError(f"unsupported norm order {p!r}; use 1, 2 or inf")
    return np.linalg.norm(np.asarray(v, dtype=float), ord=p, axis=-1)


def binary_exponent(a: np.ndarray) -> int:
    """The e with max|a| * 2**-e in (0.5, 1], 0 for a zero matrix (max|a| = 1 gives 0)."""
    mantissa, e = math.frexp(float(np.abs(a).max()))
    return e - (mantissa == 0.5)


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
        """Load a matrix from CSV: one row per line, comma-separated decimals, no header
        (a leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped)."""
        rows = []
        # a byte that is not UTF-8 is read as the lone surrogate U+DC00 + byte, which no float
        # parses: its line fails below, named like any other bad line
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = [float(tok) for tok in line.split(",")]
                except ValueError as exc:
                    if bad := [c for c in line if "\udc80" <= c <= "\udcff"]:
                        byte = f"byte 0x{ord(bad[0]) - 0xDC00:02x}"
                        raise ValueError(f"{path}:{lineno}: not UTF-8 text ({byte})") from None
                    raise ValueError(f"{path}:{lineno}: bad entry ({exc})") from None
                if bad := [v for v in row if not math.isfinite(v)]:
                    raise ValueError(f"{path}:{lineno}: non-finite entry {bad[0]}")
                if rows and len(row) != len(rows[0]):
                    width = f"{len(row)} entries, the first row has {len(rows[0])}"
                    raise ValueError(f"{path}:{lineno}: ragged rows: {width}")
                rows.append(row)
        if not rows:
            raise ValueError(f"{path}: empty matrix")
        return cls(np.array(rows, dtype=float))

    def to_unit_range(self) -> "MatrixGame":
        """The game with payoffs mapped onto [0, 1] by ``(a - a.min()) / (a.max() - a.min())``,
        ``a = payoff * 2**-binary_exponent(payoff)`` (exact, and no range overflows): the game
        itself if in [0, 1] already, all zeros if constant.  Positive affine maps preserve
        best responses and equilibria."""
        lo = float(self.payoff.min())
        hi = float(self.payoff.max())
        if lo >= 0.0 and hi <= 1.0:
            return self
        if hi == lo:
            return MatrixGame(np.zeros_like(self.payoff))
        a = np.ldexp(self.payoff, -binary_exponent(self.payoff))
        return MatrixGame((a - a.min()) / (a.max() - a.min()))


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
    def from_rounds(cls, strategies, losses, context: str = "round") -> "Trace":
        """The trace of a run's rounds, checked as ``check_rounds`` checks them under
        ``context`` once the shapes are; ``Trace(...)`` itself takes any numbers."""
        trace = cls(strategies, losses)
        check_rounds(trace.strategies, trace.losses, context)
        return trace
