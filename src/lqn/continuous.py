"""Lifting the discrete construction to densities on an interval.

Pipeline: wrap the density from [-A, A] onto [0, 2A) (the negative half
moves up by 2A), cut [0, 2A) into p equal bins of width delta = 2A/p, and
quantize the wrapped value to its bin index. That turns the density into a
pmf on Z_p; the discrete machinery builds the code and the cell. Scaling the
lattice by delta and attaching a delta-cube to every cell point recovers the
continuous picture, whose divergence has a closed form for piecewise-linear
densities.

All breakpoint arithmetic (knots, bin edges, clipping) runs in exact
rationals so no mass ever straddles a boundary due to float fuzz; only the
final logarithmic integrals are evaluated in floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import BOUND_TOL, eps_star
from .codes import LinearCode, sample_generator
from .distributions import (
    ContinuousTarget,
    DiscreteTarget,
    TypicalityParams,
    validate_discrete,
)
from .errors import NotPermissibleError
from .partition import (
    FundamentalRegion,
    build_ml_partition,
    build_typicality_partition,
)
from .zplinalg import ensure_prime


@dataclass(frozen=True)
class LinearPiece:
    """One linear segment of the wrapped density, on [x0, x1)."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def value(self, t: Fraction) -> Fraction:
        if self.x1 == self.x0:
            return self.y0
        return self.y0 + (self.y1 - self.y0) * (t - self.x0) / (self.x1 - self.x0)


def _pieces_from_knots(knots) -> list[LinearPiece]:
    out = []
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        out.append(
            LinearPiece(Fraction(x0), Fraction(x1), Fraction(y0), Fraction(y1))
        )
    return out


def _split_at(pieces: list[LinearPiece], t: Fraction) -> list[LinearPiece]:
    out = []
    for pc in pieces:
        if pc.x0 < t < pc.x1:
            mid = pc.value(t)
            out.append(LinearPiece(pc.x0, t, pc.y0, mid))
            out.append(LinearPiece(t, pc.x1, mid, pc.y1))
        else:
            out.append(pc)
    return out


def fold_density(target: ContinuousTarget) -> tuple[LinearPiece, ...]:
    """Wrap the density onto [0, 2A): [0, A) stays, [-A, 0) moves up by 2A."""
    a = Fraction(target.half_width)
    pieces = _split_at(_pieces_from_knots(target.knots), Fraction(0))
    lower = [pc for pc in pieces if pc.x1 <= 0]
    upper = [pc for pc in pieces if pc.x0 >= 0]
    shifted = [
        LinearPiece(pc.x0 + 2 * a, pc.x1 + 2 * a, pc.y0, pc.y1) for pc in lower
    ]
    folded = sorted(upper + shifted, key=lambda pc: pc.x0)
    return tuple(folded)


def _clip(pieces, lo: Fraction, hi: Fraction) -> list[LinearPiece]:
    """Restrict the piece list to [lo, hi), keeping endpoint values exact."""
    out = []
    for pc in pieces:
        u = max(pc.x0, lo)
        v = min(pc.x1, hi)
        if u < v:
            out.append(LinearPiece(u, v, pc.value(u), pc.value(v)))
    return out


def _piece_log_integral(c0: float, c1: float, width: float) -> float:
    """Integral of ln(density) over one linear piece with endpoint values c0, c1.

    Written as width * (ln c1 - 1 + log1p(x)/x) with x = (c1 - c0)/c0, which
    stays accurate as the piece flattens; a flat piece is exact.
    """
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


@functools.lru_cache(maxsize=1)
def bin_density(target: ContinuousTarget, p: int) -> BinnedDensity:
    """Fold once, clip each bin once; p must be prime. Targets hash by identity."""
    p = ensure_prime(p)
    delta = 2 * Fraction(target.half_width) / p
    folded = fold_density(target)
    masses, r = [], Fraction(1)
    mean_log2 = np.empty(p, dtype=np.float64)
    for y in range(p):
        chunks = _clip(folded, y * delta, (y + 1) * delta)
        vals = [v for pc in chunks for v in (pc.y0, pc.y1)]
        lo = min(vals, default=0)
        if lo <= 0:
            raise NotPermissibleError("density touches zero inside a bin")
        masses.append(
            sum(((pc.y0 + pc.y1) * (pc.x1 - pc.x0) / 2 for pc in chunks), Fraction(0))
        )
        r = min(r, lo / max(vals))
        acc = 0.0
        for pc in chunks:
            acc += _piece_log_integral(float(pc.y0), float(pc.y1), float(pc.x1 - pc.x0))
        mean_log2[y] = acc / math.log(2.0) / float(delta)
    mean_log2.setflags(write=False)
    total = sum(masses, Fraction(0))
    binned = validate_discrete([float(m / total) for m in masses], p)
    return BinnedDensity(delta, binned, float(delta / r), float(r), mean_log2)


@dataclass(frozen=True, eq=False)
class ContinuousConstruction:
    """A binned target plus the discrete region built for it."""

    target: ContinuousTarget
    p: int
    delta: Fraction
    binned: DiscreteTarget
    code: LinearCode
    region: FundamentalRegion
    eta: float
    r: float

    @property
    def spread_penalty_bits(self) -> float:
        """-log2(r): the per-dimension price of within-bin density variation."""
        return -math.log2(self.r)


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
    k: int,
    seed,
    *,
    criterion: str = "typicality",
    tp: TypicalityParams | None = None,
    max_points: int | None = None,
) -> ContinuousConstruction:
    """Bin the density and build the discrete region for the binned pmf."""
    if criterion not in ("ml", "typicality"):
        raise ValueError(f"unknown criterion {criterion!r}")
    bins = bin_density(target, p)
    code = sample_generator(seed, k, n, p)
    build = build_ml_partition if criterion == "ml" else build_typicality_partition
    region = build(code, bins.binned, tp=tp, max_points=max_points)
    return ContinuousConstruction(
        target=target,
        p=p,
        delta=bins.delta,
        binned=bins.binned,
        code=code,
        region=region,
        eta=bins.eta,
        r=bins.r,
    )


def continuous_divergence(cc: ContinuousConstruction) -> ContinuousReport:
    """Exact divergence of the uniform-on-cell density from the product target.

    D = -log2(delta**n * |cell|) - mean over reps of sum_i L(rep_i), with L
    the per-bin average of log2(density). The reported ceiling adds the
    within-bin spread penalty to the discrete divergence budget.
    """
    region = cc.region
    n = region.code.n
    per_rep = bin_density(cc.target, cc.p).mean_log2[region.reps].sum(axis=1)
    d = (
        -n * math.log2(float(cc.delta))
        - math.log2(region.size)
        - float(per_rep.sum()) / region.size
    )
    bf, budget = eps_star(region, cc.binned)
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
        delta=float(cc.delta),
        eta=cc.eta,
        r=cc.r,
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
    rows = np.vstack(
        [code.generator.astype(np.float64), code.p * np.eye(code.n)]
    )
    return LiftedCell(
        scale=d,
        generator_rows=d * rows,
        cell_side=d,
        cell_lower_corners=d * region.reps.astype(np.float64),
        volume=d**code.n * region.size,
    )
