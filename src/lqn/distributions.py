"""Target noise distributions and weak typicality.

Discrete targets are pmfs on Z_p; continuous targets are piecewise-linear
densities on a symmetric interval [-A, A], strictly positive there and zero
outside. All logs are base 2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotNormalizedError,
    NotPermissibleError,
)
from .zplinalg import as_integer, ensure_prime, mod_reduce

SUM_TOL = 1e-9
INTEGRAL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class DiscreteTarget:
    """A validated pmf on Z_p with cached entropy and smallest mass."""

    p: int
    probs: np.ndarray
    log2_probs: np.ndarray
    entropy_bits: float
    a_min: float
    a_max: float


def validate_discrete(probs, p: int) -> DiscreteTarget:
    """Check length, primality, positivity, and normalization; cache derived quantities.

    The length is compared first, so a huge p is refused before trial division.
    Entropy is accumulated per symbol in index order so repeated runs produce
    bit-identical values.
    """
    p = as_integer(p)
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size != p:
        raise DimensionMismatchError(f"expected {p} masses, got shape {arr.shape}")
    ensure_prime(p)
    if not np.all(arr > 0.0):
        raise NotPermissibleError("every mass must be strictly positive")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > SUM_TOL:
        raise NotNormalizedError(f"masses sum to {total!r}")
    arr = arr.copy()
    arr.setflags(write=False)
    log2p = np.log2(arr)
    log2p.setflags(write=False)
    h = 0.0
    for q, lq in zip(arr.tolist(), log2p.tolist()):
        h -= q * lq
    return DiscreteTarget(
        p=p,
        probs=arr,
        log2_probs=log2p,
        entropy_bits=h,
        a_min=float(arr.min()),
        a_max=float(arr.max()),
    )


def uniform_target(p: int) -> DiscreteTarget:
    return validate_discrete(np.full(p, 1.0 / p), p)


def alpha(target: DiscreteTarget) -> float:
    """Gap -log2(a_min) - H, never negative (clamped against float dust)."""
    val = -math.log2(target.a_min) - target.entropy_bits
    if -1e-12 < val < 0.0:
        return 0.0
    return val


@dataclass(frozen=True)
class TypicalityParams:
    """Block length and slack for the weak-typicality test."""

    n: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionMismatchError("block length must be at least 1")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")

    @classmethod
    def default(cls, n: int) -> "TypicalityParams":
        """The hard default slack 1/n."""
        return cls(n=n, epsilon=1.0 / n)


def row_sums(table: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Sum of table[symbols[..., j]] along the last axis, added left to right.

    The one home of the order in which lqn adds per-symbol log masses: the
    sum starts from zeros and adds j = 0, 1, ... in place, gathering one
    column at a time, so it holds no (rows, n) table of terms. The order is
    fixed here because numpy's own sum pairs terms from eight of them on;
    log2_likelihoods, choose's leading pivots and continuous_divergence all
    add through it, so they agree bit for bit.
    """
    total = np.zeros(symbols.shape[:-1])
    for j in range(symbols.shape[-1]):
        total += table[symbols[..., j]]
    return total


def log2_likelihoods(vectors, target: DiscreteTarget) -> np.ndarray:
    """Sum of per-symbol log2 masses along the last axis, added by row_sums.

    Used by the typicality test and the divergence report; row_sums is the one
    home of the order, so they agree bit for bit with selection's sums.
    """
    v = np.asarray(vectors)
    # an int64 array within [0, p) indexes as it is; any other input is checked
    # and reduced mod p, so every symbol is read as its residue
    if v.dtype != np.int64 or v.size and (v.min() < 0 or v.max() >= target.p):
        v = mod_reduce(v, target.p)
    return row_sums(target.log2_probs, v)


def _surprisal_gap(log2_lik, n: int, target: DiscreteTarget):
    """-(1/n) log2 P(x) - H, non-increasing in log2 P(x): each step is rounded monotonically."""
    return -log2_lik / n - target.entropy_bits


def typical(log2_lik, n: int, target: DiscreteTarget, epsilon: float) -> np.ndarray:
    """Weak typicality from log2-likelihoods: |-(1/n) log2 P(x) - H| <= epsilon.

    Every typicality decision goes through here or through typical_interval,
    which is derived from this test, so all of them agree bit for bit.
    """
    return np.abs(_surprisal_gap(log2_lik, n, target)) <= epsilon


def _first_true(pred, guess: float, step: float) -> float:
    """The smallest double x with pred(x), for pred monotone from False to True
    along the float line, False at -inf and True at the largest double.

    A bracket widens from guess (clamped to the finite doubles) by a step that
    doubles each time, until pred flips inside it; then it is bisected by value
    until its ends are adjacent doubles. Halving each end before adding keeps
    the midpoint strictly inside a bracket that holds a double, and clamping
    it keeps it finite where the bracket has run out to -inf or inf.
    """
    top = sys.float_info.max
    lo = hi = min(max(guess, -top), top)
    while pred(lo):
        hi, lo, step = lo, lo - step, 2 * step
    while not pred(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while math.nextafter(lo, hi) != hi:
        mid = min(max(lo / 2 + hi / 2, -top), top)
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


def typical_interval(n: int, target: DiscreteTarget, epsilon: float) -> tuple[float, float]:
    """The closed interval [a, b] of log2-likelihoods that typical accepts.

    typical(ll, ...) equals a <= ll <= b for every double ll; the interval is
    empty (a > b) when no double is typical. |gap| <= epsilon is gap <= epsilon
    and -epsilon <= gap, since abs and negation are exact, and the gap falls as
    ll grows, so the first half holds from some a on and the second up to some
    b. Each is searched for on the gap itself, from its float estimate:
    -n(H + epsilon) for a and -n(H - epsilon) for b. The first step is one ulp
    of n(H + epsilon), the scale of the rounding in both estimates; b's
    estimate cancels to 0.0 at epsilon = H, and the ulp of 0.0 is the smallest
    double, about 2**1022 times too fine.
    """
    h = target.entropy_bits
    step = math.ulp(min(n * (h + epsilon), sys.float_info.max))
    a = _first_true(lambda ll: _surprisal_gap(ll, n, target) <= epsilon, -n * (h + epsilon), step)
    b = _first_true(lambda ll: _surprisal_gap(-ll, n, target) >= -epsilon, n * (h - epsilon), step)
    return a, -b


def is_typical(x, target: DiscreteTarget, tp: TypicalityParams) -> bool:
    """Weak typicality of one vector: |empirical surprisal per symbol - H| <= epsilon."""
    x = mod_reduce(x, target.p)
    if x.ndim != 1 or x.size != tp.n:
        raise DimensionMismatchError(f"expected a length-{tp.n} vector, got {x.shape}")
    return bool(typical(log2_likelihoods(x, target), tp.n, target, tp.epsilon))


def typical_pair(x, y, target: DiscreteTarget, tp: TypicalityParams) -> bool:
    """Pair typicality of (x, y): the wrapped difference (y - x) mod p is typical."""
    x = mod_reduce(x, target.p)
    y = mod_reduce(y, target.p)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shape mismatch {x.shape} vs {y.shape}")
    return is_typical(y - x, target, tp)


@dataclass(frozen=True, eq=False)
class ContinuousTarget:
    """Piecewise-linear density on [-A, A], strictly positive, zero outside."""

    half_width: float
    knots: tuple[tuple[float, float], ...]
    a_min: float
    a_max: float


def _knot_mass(knots: tuple[tuple[float, float], ...]) -> Fraction:
    """Exact trapezoid integral of the polyline, in rational arithmetic."""
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        total += (Fraction(y0) + Fraction(y1)) * (Fraction(x1) - Fraction(x0)) / 2
    return total


def validate_continuous(half_width: float, knots) -> ContinuousTarget:
    """Check the knots are [x, f] pairs that span [-A, A], stay positive and integrate to one."""
    a = float(half_width)
    if not 0.0 < a < math.inf:
        raise NotPermissibleError(f"half width must be positive and finite, got {a!r}")
    for knot in knots:
        if len(knot) != 2:
            raise DimensionMismatchError(f"knot {knot!r} is not an [x, f] pair")
    pts = tuple((float(x), float(f)) for x, f in knots)
    if not all(math.isfinite(v) for pt in pts for v in pt):
        raise NotPermissibleError("knot positions and values must be finite")
    if len(pts) < 2:
        raise DimensionMismatchError("need at least two knots")
    xs = [x for x, _ in pts]
    if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
        raise DimensionMismatchError("knot positions must be strictly increasing")
    if xs[0] != -a or xs[-1] != a:
        raise DimensionMismatchError("knots must span exactly [-A, A]")
    vals = [f for _, f in pts]
    if min(vals) <= 0.0:
        raise NotPermissibleError("density must be strictly positive on [-A, A]")
    mass = _knot_mass(pts)
    # compared exactly: finite knots can still have a mass beyond the float range
    if abs(mass - 1) > INTEGRAL_TOL:
        shown = float(mass) if mass <= sys.float_info.max else math.inf
        raise NotNormalizedError(f"density integrates to {shown!r}")
    return ContinuousTarget(
        half_width=a,
        knots=pts,
        a_min=float(min(vals)),
        a_max=float(max(vals)),
    )


def parse_distribution(obj):
    """Decode the serialized form of a target distribution.

    Discrete: {"type": "discrete", "p": int, "probs": [...]}.
    Continuous: {"type": "continuous", "A": real, "knots": [[x, f], ...]}.
    """
    kind = obj.get("type") if isinstance(obj, dict) else None
    try:
        if kind == "discrete":
            return validate_discrete(obj["probs"], obj["p"])
        if kind == "continuous":
            return validate_continuous(obj["A"], obj["knots"])
    except (KeyError, TypeError, OverflowError) as err:
        raise DimensionMismatchError(f"malformed {kind} distribution: {err!r}") from None
    raise DimensionMismatchError(f"unknown distribution type {kind!r}")
