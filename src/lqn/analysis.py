"""Divergence reports and matchability bounds.

The central quantity is the exact divergence between the uniform distribution
on a cell and the product target, computed by direct summation over the cell:

    D = -log2(|cell|) - (1/|cell|) * sum over reps of sum_i log2 P(rep_i)

Representatives are visited in syndrome order and coordinates in index order,
so reports are bit-reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codes import MAX_CODEWORDS, check_cap, lex_grid, rate, seed_words, trial_draws
from .distributions import (
    DiscreteTarget, TypicalityParams, alpha, log2_likelihoods, typical_interval
)
from .partition import FundamentalRegion

BOUND_TOL = 1e-9


def divergence_bits(rep_ll: np.ndarray, offset: float = 0.0) -> float:
    """D(uniform on a cell || product target) in bits, from its reps' log2 P.

    The one home of the formula offset - log2|cell| - mean of rep_ll. offset
    is -log2 of the volume each representative stands for: 0.0 on Z_p^n, and
    -n.log2(delta) for the cell lifted by delta-cubes. At 0.0 it changes no
    bit, since 0.0 - x is -x for the positive log2 of a cell of two or more.
    """
    size = rep_ll.shape[0]
    return float(offset - math.log2(size) - float(rep_ll.sum()) / size)


def kl_region_vs_product(region: FundamentalRegion, target: DiscreteTarget) -> float:
    """D(uniform on the cell || n-fold product of the target), in bits."""
    return divergence_bits(log2_likelihoods(region.reps, target))


def marginals(region: FundamentalRegion) -> np.ndarray:
    """Per-coordinate pmfs of the uniform distribution on the cell, rows = coordinates."""
    counts = [np.bincount(column, minlength=region.code.p) for column in region.reps.T]
    return np.stack(counts) / region.size


def sum_marginal_kl(region: FundamentalRegion, target: DiscreteTarget) -> float:
    """Sum over coordinates of D(marginal_i || target) in bits.

    Never exceeds the joint divergence; equality holds when the cell is a
    coordinate box.
    """
    return _marginal_kl(marginals(region), target)


def _marginal_kl(marg: np.ndarray, target: DiscreteTarget) -> float:
    total = 0.0
    for row in marg:
        for q, lt in zip(row.tolist(), target.log2_probs.tolist()):
            if q > 0.0:
                total += q * (math.log2(q) - lt)
    return total


def eps_star(region: FundamentalRegion, target: DiscreteTarget) -> tuple[float, float]:
    """Bad-coset fraction and the divergence budget it implies.

    Budget per dimension: 3*eps + bad_fraction * (alpha - eps). Callers hold
    their exact per-dimension divergence to it with a BOUND_TOL slack.
    """
    return _budget(region, alpha(target))


def _budget(region: FundamentalRegion, a: float) -> tuple[float, float]:
    bf = 1.0 - float(region.good_flags.mean())
    return bf, 3.0 * region.epsilon + bf * (a - region.epsilon)


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Everything the divergence report carries."""

    D_total_bits: float
    D_per_dim: float
    marginal_distributions: np.ndarray
    sum_marginal_D_bits: float
    bad_fraction: float
    epsilon: float
    alpha: float
    eps_star: float
    bound_satisfied: bool


def analyze_region(region: FundamentalRegion, target: DiscreteTarget) -> AnalysisReport:
    d = kl_region_vs_product(region, target)
    per_dim = d / region.code.n
    marg, a = marginals(region), alpha(target)
    bf, budget = _budget(region, a)
    return AnalysisReport(
        D_total_bits=d,
        D_per_dim=per_dim,
        marginal_distributions=marg,
        sum_marginal_D_bits=_marginal_kl(marg, target),
        bad_fraction=bf,
        epsilon=region.epsilon,
        alpha=a,
        eps_star=budget,
        bound_satisfied=bool(per_dim <= budget + BOUND_TOL),
    )


def lemma1_bound(n: int, rate_bits: float, p: int, entropy_bits: float, eps: float) -> float:
    """Closed-form ceiling on the chance that no shifted codeword pairs with a point.

    Value: (1 - eps)**-1 * 2**(-n * (R - (log2 p - H + eps))). Meaningful as a
    probability only when it is below one; it decays once the rate clears
    log2 p - H + eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    expo = rate_bits - (math.log2(p) - entropy_bits + eps)
    return 2.0 ** (-n * expo) / (1.0 - eps)


@dataclass(frozen=True)
class MatchabilityEstimate:
    trials: int
    failures: int
    empirical_failure_rate: float
    chebyshev_bound: float


# Trials x messages that one block of the Monte Carlo scan holds at once.
_BLOCK_ELEMENTS = 1 << 15
# Trials x words that one trial_draws call draws, in whole scan blocks (at least one).
_DRAW_WORDS = 1 << 18
# Entries of the head table: partial sums of the leading coordinates' log2 masses.
_HEAD_ENTRIES = 1 << 16


def estimate_match_probability(
    target: DiscreteTarget,
    n: int,
    k: int,
    trials: int,
    seed,
    *,
    epsilon: float | None = None,
) -> MatchabilityEstimate:
    """Monte Carlo failure rate of matching the origin with a shifted codebook.

    Each trial draws a fresh code and an independent uniform shift from the
    substream (seed, trial); a trial fails when no shifted codeword forms a
    typical pair with the origin. Shifting makes the origin statistically
    equivalent to any other point. Per-trial substreams make the tally
    independent of execution order.

    codes.trial_draws draws the trials in chunks of up to _DRAW_WORDS words:
    each trial's full-rank generator and then its shift, exactly as a
    per-trial draw_full_rank on the substream followed by one integers call
    would.

    Each trial is then scanned once, in blocks of at most _BLOCK_ELEMENTS
    trials x messages, one coordinate at a time. A message is its leading
    k // 2 digits x, a row of lead, then its trailing digits y, a row of tail,
    so in lex order its index is x_idx * len(tail) + y_idx. Per coordinate j,
    a = x.G_lead + s_j and b = y.G_tail, each reduced mod p, are the two
    halves' digits for every message; the shifted codeword digit is
    (a + b) mod p, and table[a + b] is the log2 mass of its negation, added
    into ll left to right, as log2_likelihoods adds it. A trial fails when
    none of its sums lies in the interval typical_interval gives.

    a depends only on column j's k // 2 leading generator digits and s_j, and
    b only on its other k - k // 2 digits. Read base p, each is one column
    code, and two tables built once per call map a code to its half's digits
    for every message of that half: lt has p**(k//2 + 1) rows of
    p**(k//2) digits and tt has p**(k - k//2) rows of as many. When their
    entries together fit _HEAD_ENTRIES, each draw chunk's codes are computed
    once, as (trials, 2, n) integers, and a coordinate takes one row of each
    table per trial, with no product and no remainder. Past that budget
    (large p or k) a and b are formed per coordinate as int64 products
    reduced mod p, which give the same digits.

    The first h coordinates are scored in one lookup. h is the largest length
    in [1, n] with (2p)**h <= _HEAD_ENTRIES (h = 1 when 2p alone exceeds it),
    and head holds, for every digit-sum vector d of that length read as a
    base-2p number, table[d_0] + ... + table[d_{h-1}] added left to right, the
    same float additions the loop would make from a zero start (0.0 + m is m
    for every log2 mass m, all being negative). The leading and trailing
    halves' first h digits a and b (the shift on the leading side) become two
    base-2p indices x and y, since sum_j (a_j + b_j).(2p)**(h-1-j) = x + y,
    and ll = head[x + y]; only coordinates h..n-1 are added one at a time.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    p = target.p
    eps = TypicalityParams.default(n).epsilon if epsilon is None else float(epsilon)
    bound = lemma1_bound(n, rate(k, n, p), p, target.entropy_bits, eps)
    check_cap(p, k, None, MAX_CODEWORDS, "codewords")
    seed_words((seed, 0))  # a bad seed is refused here, before any draw
    m = k // 2
    lead, tail = lex_grid(p, m), lex_grid(p, k - m)
    if p ** (2 * m + 1) + p ** (2 * (k - m)) <= _HEAD_ENTRIES:
        # row c of lt: the lead digits of a column whose generator digits, then shift, read c
        cols = lex_grid(p, m + 1)
        lt, tt = (cols[:, :m] @ lead.T + cols[:, m:]) % p, tail @ tail.T % p

        def columns(drawn):
            # each trial's lead and tail column codes, (trials, 2, n), by Horner's rule
            code = lambda rows: functools.reduce(lambda c, i: c * p + drawn[:, i], rows, 0)
            return np.stack([code([*range(m), k]), code(range(m, k))], axis=1)

        def digits(rows, j):
            return lt[rows[:, 0, j]], tt[rows[:, 1, j]]
    else:
        def columns(drawn):
            return drawn

        def digits(rows, j):
            return (rows[:, :m, j] @ lead.T + rows[:, k, j, None]) % p, rows[:, m:k, j] @ tail.T % p
    # entry x is the log2 mass of -x mod p, for every sum x of two reduced digits
    table = target.log2_probs[-np.arange(2 * p) % p]
    # head[d] = sum of table[d_j] over the first h digits d_j of d in base 2p, left to right
    head, h = table, 1
    while h < n and len(head) * 2 * p <= _HEAD_ENTRIES:
        head, h = (head[:, None] + table).ravel(), h + 1
    lo, hi = typical_interval(n, target, eps)
    block = max(1, _BLOCK_ELEMENTS // p**k)
    chunk = block * max(1, _DRAW_WORDS // (block * (k + 1) * n))
    failures = 0
    for first in range(0, trials, chunk):
        drawn = columns(trial_draws(seed, first, min(chunk, trials - first), k, n, p))
        for rows in np.split(drawn, range(block, len(drawn), block)):
            for j in range(n):
                a, b = digits(rows, j)
                # the first h digits accumulate into two base-2p indices into head
                x, y = (x * 2 * p + a, y * 2 * p + b) if 0 < j < h else (a, b)
                if j == h - 1:
                    ll = head[x[:, :, None] + y[:, None]]
                elif j >= h:
                    ll += table[x[:, :, None] + y[:, None]]
            failures += int((~((ll >= lo) & (ll <= hi)).any(axis=(1, 2))).sum())
    return MatchabilityEstimate(
        trials=trials,
        failures=failures,
        empirical_failure_rate=failures / trials,
        chebyshev_bound=bound,
    )
