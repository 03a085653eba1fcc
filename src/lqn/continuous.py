"""Lifting the discrete construction to densities on an interval.

Pipeline: wrap the density from [-A, A] onto [0, 2A) (the negative half
moves up by 2A), cut [0, 2A) into p equal bins of width delta = 2A/p, and
quantize the wrapped value to its bin index. That turns the density into a
pmf on Z_p; the discrete machinery builds the code and the cell. Scaling the
lattice by delta and attaching a delta-cube to every cell point recovers the
continuous picture, whose divergence has a closed form for piecewise-linear
densities.

bin_density does the wrap and the binning in one pass over the sorted cut
points, on one integer grid: positions and density values each count a fixed
rational unit, so the knots, bin edges, seam, chunk endpoint values, masses
and spread ratio are exact ints and no mass ever straddles a boundary due to
float fuzz. Each float it derives is one int true division, which Python
rounds correctly, so it is the double float() gives for the exact rational;
only the final logarithmic integrals are evaluated in floats.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import BOUND_TOL, divergence_bits, eps_star
from .codes import MAX_POINTS, LinearCode, _checked_modulus, check_cap, sample_generator, select_k
from .distributions import (
    ContinuousTarget,
    DiscreteTarget,
    TypicalityParams,
    row_sums,
    validate_discrete,
)
from .errors import NotPermissibleError
from .partition import FundamentalRegion, build_region
from .zplinalg import ensure_prime


def _piece_log_integral(c0: float, c1: float, width: float) -> float:
    """Integral of ln(density) over one linear piece with endpoint values c0, c1.

    The integral is symmetric in c0 and c1, so it is taken from the lower one:
    width * (ln c1 - 1 + log1p(x)/x) with x = (c1 - c0)/c0 >= 0, which stays
    accurate as the piece flattens, and as it steepens, where x from the upper
    value would near -1; a flat piece is exact. It is inf or nan only when x
    overflows.
    """
    c0, c1 = sorted((c0, c1))
    if c1 == c0:
        return width * math.log(c0)
    x = (c1 - c0) / c0
    return width * (math.log(c1) - 1.0 + math.log1p(x) / x)


@dataclass(frozen=True, eq=False)
class BinnedDensity:
    """A density wrapped onto [0, 2A) and cut into p bins of width delta = 2A/p.

    binned is the pmf of the exact bin masses divided by their total, so it is
    exactly normalized whatever rounding the knot values carry. r is the worst
    over bins of (smallest / largest density value inside the bin), and
    eta = delta / r bounds the reciprocal of the conditional density given the
    bin from above. mean_log2[b] is (1/delta) * integral over bin b of
    log2(density), in closed form.
    """

    delta: Fraction
    binned: DiscreteTarget
    eta: float
    r: float
    mean_log2: np.ndarray


def bin_density(target: ContinuousTarget, p: int) -> BinnedDensity:
    """Wrap the density onto [0, 2A) and bin it in one pass; p must be prime.

    The sorted cuts are the bin edges, every interior knot moved into [0, 2A)
    and the seam A, so each chunk between two cuts lies in one bin and on one
    knot segment, read at u - s with s = 0 below the seam and 2A from it on.

    It all runs on one integer grid. Positions count units of 1/(p q), q the
    lcm of the denominators of A and the knot positions, so every cut is an
    int; values count units of 1/unit, unit the lcm of the value denominators
    times the lcm of the segment widths, so every slope and every chunk
    endpoint value is an int too.
    """
    p = ensure_prime(p)
    a, b = target.half_width.as_integer_ratio()
    xs, fs = zip(*((x.as_integer_ratio(), f.as_integer_ratio()) for x, f in target.knots))
    q = math.lcm(b, *(d for _, d in xs))
    pq = p * q
    xs = [x * (pq // d) for x, d in xs]
    half, width = a * (pq // b), 2 * a * (q // b)
    steps = [x1 - x0 for x0, x1 in zip(xs, xs[1:])]
    unit = math.lcm(*(d for _, d in fs)) * math.lcm(*steps)
    fs = [f * (unit // d) for f, d in fs]
    slopes = [(f1 - f0) // w for f0, f1, w in zip(fs, fs[1:], steps)]
    cuts = sorted({y * width for y in range(p + 1)} | {x % (2 * half) for x in xs[1:-1]} | {half})
    chunks = [[] for _ in range(p)]
    for u, v in zip(cuts, cuts[1:]):
        s = 0 if u < half else 2 * half
        i = bisect_right(xs, u - s) - 1
        fu, fv = (fs[i] + slopes[i] * (t - s - xs[i]) for t in (u, v))
        chunks[u // width].append((v - u, fu, fv))
    masses, r = [], (1, 1)
    mean_log2 = np.empty(p, dtype=np.float64)
    for y, bin_chunks in enumerate(chunks):
        vals = [f for _, fu, fv in bin_chunks for f in (fu, fv)]
        lo, hi = min(vals), max(vals)
        if lo <= 0:
            raise NotPermissibleError("density touches zero inside a bin")
        masses.append(sum((fu + fv) * w for w, fu, fv in bin_chunks))
        # the smaller of lo / hi and r, compared by cross products
        r = (lo, hi) if lo * r[1] < r[0] * hi else r
        acc = 0.0
        for w, fu, fv in bin_chunks:
            # int true division rounds correctly, so each float is float(Fraction)'s
            acc += _piece_log_integral(fu / unit, fv / unit, w / pq)
        mean_log2[y] = acc / math.log(2.0) / (width / pq)
    mean_log2.setflags(write=False)
    delta, r = Fraction(width, pq), Fraction(*r)
    # r and eta = delta / r are exact until here; neither may leave the float range
    if not (np.isfinite(mean_log2).all() and float(r) > 0 and delta / r <= np.finfo(float).max):
        raise ValueError(f"the density is too steep to bin at p={p} in floating point")
    total = sum(masses)
    binned = validate_discrete([m / total for m in masses], p)
    return BinnedDensity(delta, binned, float(delta / r), float(r), mean_log2)


@dataclass(frozen=True, eq=False)
class ContinuousConstruction:
    """A binned density plus the discrete region built for its pmf."""

    bins: BinnedDensity
    code: LinearCode
    region: FundamentalRegion

    @property
    def binned(self) -> DiscreteTarget:
        return self.bins.binned

    @property
    def spread_penalty_bits(self) -> float:
        """-log2(r): the per-dimension price of within-bin density variation."""
        return -math.log2(self.bins.r)


@dataclass(frozen=True, eq=False)
class ContinuousReport:
    D_total_bits: float
    D_per_dim: float
    bad_fraction: float
    epsilon: float
    eps_star: float
    spread_penalty_bits: float
    bound_per_dim: float
    bound_satisfied: bool
    delta: float
    eta: float
    r: float


def build_continuous(
    target: ContinuousTarget,
    p: int,
    n: int,
    k: int | None,
    seed,
    *,
    criterion: str = "typicality",
    tp: TypicalityParams | None = None,
    max_points: int | None = None,
) -> ContinuousConstruction:
    """Bin the density once and build the discrete region for the binned pmf;
    k=None takes select_k's closest-rate k for the binned pmf."""
    # as make_code and sample_generator check it, and before binning: the int64
    # products bound, which no cap lifts, then primality, quick within that bound
    p = _checked_modulus(p, n)
    check_cap(p, n, max_points, MAX_POINTS, "points")
    bins = bin_density(target, p)
    k = select_k(p, n, bins.binned, "closest") if k is None else k
    code = sample_generator(seed, k, n, p)
    region = build_region(code, bins.binned, criterion, tp=tp, max_points=max_points)
    return ContinuousConstruction(bins, code, region)


def continuous_divergence(cc: ContinuousConstruction) -> ContinuousReport:
    """Exact divergence of the uniform-on-cell density from the product target.

    D = -log2(delta**n * |cell|) - mean over reps of sum_i L(rep_i), with L
    the per-bin average of log2(density): analysis.divergence_bits over the
    reps' sums with the offset -n.log2(delta), the lifted cube's volume term.
    Each rep's sum is added left to right by distributions.row_sums, one
    gathered column at a time. The reported ceiling adds the within-bin
    spread penalty to the discrete divergence budget.
    """
    region, bins = cc.region, cc.bins
    n = region.code.n
    d = divergence_bits(row_sums(bins.mean_log2, region.reps), -n * math.log2(float(bins.delta)))
    bf, budget = eps_star(region, bins.binned)
    penalty = cc.spread_penalty_bits
    bound = budget + penalty
    return ContinuousReport(
        D_total_bits=d,
        D_per_dim=d / n,
        bad_fraction=bf,
        epsilon=region.epsilon,
        eps_star=budget,
        spread_penalty_bits=penalty,
        bound_per_dim=bound,
        bound_satisfied=bool(d / n <= bound + BOUND_TOL),
        delta=float(bins.delta),
        eta=bins.eta,
        r=bins.r,
    )


@dataclass(frozen=True, eq=False)
class LiftedCell:
    """The scaled lattice and cell: generator rows for delta*(code + p Z^n),
    cube side delta, and the cell as lower corners of delta-cubes."""

    scale: float
    generator_rows: np.ndarray
    cell_side: float
    cell_lower_corners: np.ndarray
    volume: float


def lift_region(region: FundamentalRegion, delta) -> LiftedCell:
    """Scale the integer construction by the bin width."""
    code = region.code
    d = float(delta)
    rows = np.vstack([code.generator, code.p * np.eye(code.n)])
    return LiftedCell(
        scale=d,
        generator_rows=d * rows,
        cell_side=d,
        cell_lower_corners=d * region.reps,
        volume=d**code.n * region.size,
    )
