"""Interval targets: folding, binning, spread bounds, lifted divergence."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from lqn import (
    ContinuousTarget,
    NotPermissibleError,
    analyze_region,
    bin_density,
    build_continuous,
    continuous_divergence,
    fold_density,
    lift_region,
    select_k,
    validate_continuous,
)
from lqn.cases import continuous_builtins
from lqn.continuous import _piece_log_integral

TRIANGLE = continuous_builtins()["triangle"]
FLAT = continuous_builtins()["flat"]

# exact rational oracle values for the tent density on [-1, 1], p = 13
TRIANGLE_BIN_PROBS = [
    0.1338757396449704,
    0.11316568047337278,
    0.09245562130177515,
    0.07174556213017752,
    0.05103550295857988,
    0.030325443786982247,
    0.014792899408284023,
    0.030325443786982247,
    0.05103550295857988,
    0.07174556213017752,
    0.09245562130177515,
    0.11316568047337278,
    0.1338757396449704,
]
TRIANGLE_R = 13 / 27  # seam bin spans the fold point: min 1/16, max 27/208
TRIANGLE_L0 = -0.20203496124407832  # quadrature reference for bin 0


def test_fold_density_exact_pieces():
    folded = fold_density(TRIANGLE)
    assert len(folded) == 2
    lo, hi = folded
    assert (lo.x0, lo.x1) == (Fraction(0), Fraction(1))
    assert (lo.y0, lo.y1) == (Fraction(15, 16), Fraction(1, 16))
    assert (hi.x0, hi.x1) == (Fraction(1), Fraction(2))
    assert (hi.y0, hi.y1) == (Fraction(1, 16), Fraction(15, 16))
    # total mass survives the fold exactly
    mass = sum((pc.y0 + pc.y1) * (pc.x1 - pc.x0) / 2 for pc in folded)
    assert mass == 1


def test_fold_density_flat():
    folded = fold_density(FLAT)
    assert all(pc.y0 == pc.y1 == Fraction(1, 2) for pc in folded)
    assert folded[0].x0 == 0
    assert folded[-1].x1 == 2


def test_choose_delta_exact():
    assert bin_density(TRIANGLE, 13).delta == Fraction(2, 13)
    assert bin_density(TRIANGLE, 37).delta < bin_density(TRIANGLE, 13).delta
    with pytest.raises(ValueError):
        bin_density(TRIANGLE, 4)


def test_bin_pdf_triangle_fixture():
    binned = bin_density(TRIANGLE, 13).binned
    assert binned.p == 13
    assert binned.probs.tolist() == TRIANGLE_BIN_PROBS
    # reflection symmetry of the tent survives binning exactly
    for y in range(13):
        assert binned.probs[y] == binned.probs[12 - y]


def test_bin_pdf_flat_is_uniform():
    binned = bin_density(FLAT, 13).binned
    assert np.allclose(binned.probs, 1 / 13, atol=1e-15)


def test_bin_pdf_matches_rational_oracle_p5():
    # independent trapezoid integration in exact rationals
    delta = Fraction(2, 5)

    def tent(x):
        if x < 1:
            return Fraction(15, 16) - Fraction(7, 8) * x
        return Fraction(7, 8) * x - Fraction(13, 16)

    masses = []
    for b in range(5):
        lo, hi = b * delta, (b + 1) * delta
        cuts = sorted({lo, hi} | ({Fraction(1)} if lo < 1 < hi else set()))
        masses.append(
            sum((tent(u) + tent(v)) * (v - u) / 2 for u, v in zip(cuts, cuts[1:]))
        )
    total = sum(masses)
    binned = bin_density(TRIANGLE, 5).binned
    assert binned.probs.tolist() == [float(m / total) for m in masses]


def test_bin_pdf_rejects_zero_touching_pieces():
    # built directly, past validate_continuous: the density is 0 at x = 0
    target = ContinuousTarget(1.0, ((-1.0, 1.0), (0.0, 0.0), (1.0, 1.0)), 0.0, 1.0)
    with pytest.raises(NotPermissibleError):
        bin_density(target, 3)


def test_eta_and_r_fixtures():
    bins = bin_density(TRIANGLE, 13)
    assert bins.r == TRIANGLE_R
    assert bins.eta == float(Fraction(2, 13) / Fraction(13, 27))
    flat = bin_density(FLAT, 13)
    assert flat.r == 1.0
    assert flat.eta == float(Fraction(2, 13))


def test_eta_and_r_doubling_piece():
    # wrapped, the density doubles inside bin 0 from s/2 to s, which pins
    # that bin's ratio at exactly 1/2; the knots integrate to exactly 1
    s = 12 / 19
    target = validate_continuous(1.0, [(-1, s), (0, s / 2), (2 / 3, s), (1, s)])
    assert bin_density(target, 3).r == 0.5


def test_mean_log2_flat_is_exact():
    L = bin_density(FLAT, 13).mean_log2
    assert np.abs(L + 1.0).max() == 0.0  # log2(1/2) per bin, flat-piece branch


def test_mean_log2_triangle_matches_quadrature():
    L = bin_density(TRIANGLE, 13).mean_log2
    assert abs(L[0] - TRIANGLE_L0) <= 1e-12
    assert abs(L[12] - TRIANGLE_L0) <= 1e-12  # symmetric partner


@pytest.mark.parametrize("slope", [1e-3, 1e-5, 1e-7, 1e-8, 1e-9, 2e-9])
def test_piece_log_integral_matches_decimal_oracle(slope):
    # near-flat pieces against the closed form evaluated in 60 digits
    width = 0.15
    for c0 in (0.0625, 0.3, 0.9375, 1.7):
        for c1 in (c0 * (1 + slope), c0 * (1 - slope)):
            with localcontext() as ctx:
                ctx.prec = 60
                d0, d1 = Decimal(c0), Decimal(c1)
                exact = Decimal(width) * (d1 * d1.ln() - d1 - d0 * d0.ln() + d0) / (d1 - d0)
                rel = abs(Decimal(_piece_log_integral(c0, c1, width)) - exact) / abs(exact)
            assert rel <= Decimal("1e-12"), (c0, c1, float(rel))


def test_build_continuous_assembles_consistently():
    cc = build_continuous(TRIANGLE, 13, 3, 1, 7)
    assert cc.p == 13
    assert cc.delta == Fraction(2, 13)
    assert cc.binned.probs.tolist() == TRIANGLE_BIN_PROBS
    assert cc.region.size == 13**2
    assert cc.r == TRIANGLE_R
    assert abs(cc.spread_penalty_bits + math.log2(TRIANGLE_R)) <= 1e-15


def test_build_continuous_rejects_unknown_criterion():
    with pytest.raises(ValueError, match="'ML'"):
        build_continuous(TRIANGLE, 13, 3, 1, 0, criterion="ML")


def test_flat_divergence_collapses_to_discrete():
    # per-bin-constant density: the lifted divergence equals the binned
    # problem's divergence and the spread penalty vanishes
    cc = build_continuous(FLAT, 13, 3, 1, 7)
    rep = continuous_divergence(cc)
    disc = analyze_region(cc.region, cc.binned)
    assert abs(rep.D_total_bits - disc.D_total_bits) <= 1e-12
    assert rep.spread_penalty_bits == 0.0
    assert rep.r == 1.0
    assert abs(rep.bound_per_dim - rep.eps_star) <= 1e-15


def test_continuous_divergence_matches_riemann_oracle():
    cc = build_continuous(TRIANGLE, 5, 2, 1, 31)
    rep = continuous_divergence(cc)

    def tent(x):
        return 0.9375 - 0.875 * x if x < 1.0 else 0.875 * x - 0.8125

    # midpoint rule, 20000 slices per bin
    d5 = 2.0 / 5.0
    slices = 20000
    L = np.empty(5)
    for b in range(5):
        acc = 0.0
        for i in range(slices):
            acc += math.log2(tent(b * d5 + (i + 0.5) * d5 / slices))
        L[b] = acc / slices
    oracle = (
        -2 * math.log2(d5)
        - math.log2(cc.region.size)
        - float(L[cc.region.reps].sum(axis=1).mean())
    )
    assert abs(rep.D_total_bits - oracle) <= 1e-8


def test_continuous_report_fields_cohere():
    cc = build_continuous(TRIANGLE, 13, 3, 1, 7)
    rep = continuous_divergence(cc)
    assert rep.D_per_dim == rep.D_total_bits / 3
    assert rep.delta == float(Fraction(2, 13))
    assert rep.bound_per_dim == rep.eps_star + rep.spread_penalty_bits
    assert rep.epsilon == 1 / 3
    assert rep.bound_satisfied == (rep.D_per_dim <= rep.bound_per_dim + 1e-9)


def test_refinement_shrinks_guaranteed_ceiling():
    # finer lattice, same target: the certified bound must not grow.
    # 50 seeded codebooks per modulus at the theorem-mode dimension
    means = {}
    for p in (13, 37):
        k = select_k(p, 4, bin_density(TRIANGLE, p).binned, "theorem")
        bounds = [
            continuous_divergence(
                build_continuous(TRIANGLE, p, 4, k, (707, p, t))
            ).bound_per_dim
            for t in range(50)
        ]
        means[p] = float(np.mean(bounds))
    assert means[37] <= means[13] + 0.05
    # the deterministic part of the ceiling also shrinks on its own
    r13, r37 = bin_density(TRIANGLE, 13).r, bin_density(TRIANGLE, 37).r
    assert -math.log2(r37) < -math.log2(r13)


def test_lift_region_scales_cell():
    cc = build_continuous(TRIANGLE, 5, 2, 1, 31)
    cell = lift_region(cc.region, cc.delta)
    d = float(Fraction(2, 5))
    assert cell.scale == d
    assert cell.cell_side == d
    # generator rows: scaled code generator stacked over p times identity
    assert cell.generator_rows.shape == (3, 2)
    assert np.allclose(cell.generator_rows[1:], d * 5 * np.eye(2))
    assert np.allclose(cell.cell_lower_corners, d * cc.region.reps)
    # |V*| delta-cubes of volume delta^n each
    assert abs(cell.volume - d**2 * 5) <= 1e-15


def test_validate_continuous_normalization_tolerance():
    # slightly off mass within 1e-6 passes, beyond fails
    validate_continuous(1.0, [(-1.0, 0.5 + 4e-7), (1.0, 0.5 + 4e-7)])
    with pytest.raises(Exception):
        validate_continuous(1.0, [(-1.0, 0.5 + 2e-6), (1.0, 0.5 + 2e-6)])
