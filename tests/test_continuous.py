"""Interval targets: folding, binning, spread bounds, lifted divergence."""

import math
import random
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import lqn.continuous
import lqn.zplinalg
from lqn import (
    ContinuousTarget,
    DimensionMismatchError,
    NotPermissibleError,
    TooLargeError,
    TypicalityParams,
    analyze_region,
    bin_density,
    build_continuous,
    continuous_divergence,
    lift_region,
    select_k,
    validate_continuous,
    validate_discrete,
)
from lqn.cases import continuous_builtins
from lqn.continuous import BinnedDensity, _piece_log_integral
from lqn.zplinalg import ensure_prime

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


# knots off every odd-prime bin grid, and a piece that straddles 0
SKEWED = validate_continuous(
    1.0, [(-1.0, 0.25), (-0.375, 0.5), (0.625, 0.375), (1.0, 1.375)]
)


def _per_bin_oracle(target, p):
    """Probs, r, eta and mean_log2 with each bin cut on its own, in exact rationals."""
    a = Fraction(target.half_width)
    knots = [(Fraction(x), Fraction(f)) for x, f in target.knots]

    def density(x):  # the unwrapped polyline, x in [-A, A]
        for (x0, f0), (x1, f1) in zip(knots, knots[1:]):
            if x0 <= x <= x1:
                return f0 + (f1 - f0) * (x - x0) / (x1 - x0)

    delta = 2 * a / p
    wrapped = {x % (2 * a) for x, _ in knots} | {a}
    masses, ratios, mean_log2 = [], [], []
    for b in range(p):
        lo, hi = b * delta, (b + 1) * delta
        cuts = sorted({lo, hi} | {c for c in wrapped if lo < c < hi})
        chunks = []
        for u, v in zip(cuts, cuts[1:]):
            s = 0 if u + v < 2 * a else 2 * a  # the midpoint's side of the seam
            chunks.append((v - u, density(u - s), density(v - s)))
        vals = [f for _, fu, fv in chunks for f in (fu, fv)]
        masses.append(sum((fu + fv) * w / 2 for w, fu, fv in chunks))
        ratios.append(min(vals) / max(vals))
        acc = 0.0
        for w, fu, fv in chunks:
            acc += _piece_log_integral(float(fu), float(fv), float(w))
        mean_log2.append(acc / math.log(2.0) / float(delta))
    total = sum(masses)
    r = min(ratios)
    return [float(m / total) for m in masses], float(r), float(delta / r), mean_log2


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31])
@pytest.mark.parametrize("name", ["skewed", "triangle"])
def test_bin_density_matches_per_bin_rational_oracle(name, p):
    target = {"skewed": SKEWED, "triangle": TRIANGLE}[name]
    probs, r, eta, mean_log2 = _per_bin_oracle(target, p)
    bins = bin_density(target, p)
    assert bins.binned.probs.tolist() == probs
    assert bins.r == r
    assert bins.eta == eta
    assert bins.mean_log2.tolist() == mean_log2


def fraction_bin_density(target, p):
    """bin_density in Fraction arithmetic, as it was before the integer grid:
    the reference whose floats and refusals the grid must reproduce bit for bit."""
    p = ensure_prime(p)
    a = Fraction(target.half_width)
    delta = 2 * a / p
    xs = [Fraction(x) for x, _ in target.knots]
    fs = [Fraction(f) for _, f in target.knots]
    cuts = sorted({y * delta for y in range(p + 1)} | {x % (2 * a) for x in xs[1:-1]} | {a})
    chunks = [[] for _ in range(p)]
    for u, v in zip(cuts, cuts[1:]):
        s = 0 if u < a else 2 * a
        i = bisect_right(xs, u - s) - 1
        slope = (fs[i + 1] - fs[i]) / (xs[i + 1] - xs[i])
        fu, fv = (fs[i] + slope * (t - s - xs[i]) for t in (u, v))
        chunks[u // delta].append((v - u, fu, fv))
    masses, r = [], Fraction(1)
    mean_log2 = np.empty(p, dtype=np.float64)
    for y, bin_chunks in enumerate(chunks):
        vals = [f for _, fu, fv in bin_chunks for f in (fu, fv)]
        lo = min(vals)
        if lo <= 0:
            raise NotPermissibleError("density touches zero inside a bin")
        masses.append(sum(((fu + fv) * w / 2 for w, fu, fv in bin_chunks), Fraction(0)))
        r = min(r, lo / max(vals))
        acc = 0.0
        for w, fu, fv in bin_chunks:
            acc += _piece_log_integral(float(fu), float(fv), float(w))
        mean_log2[y] = acc / math.log(2.0) / float(delta)
    mean_log2.setflags(write=False)
    if not (np.isfinite(mean_log2).all() and float(r) > 0 and delta / r <= np.finfo(float).max):
        raise ValueError(f"the density is too steep to bin at p={p} in floating point")
    total = sum(masses, Fraction(0))
    binned = validate_discrete([float(m / total) for m in masses], p)
    return BinnedDensity(delta, binned, float(delta / r), float(r), mean_log2)


REFERENCE_PRIMES = (2, 3, 5, 7, 31, 101)
# 1.5, 2.5, 3.5, 15.5 and 50.5 put exact bin edges at whole numbers for p = 3, 5, 7, 31, 101
HALF_WIDTHS = (1.0, 0.5, 1.5, 2.5, 3.5, 15.5, 50.5, 1e-300, 1e300, 1e308)


def random_targets(seed, count):
    """Seeded piecewise-linear targets, normalized in exact rationals.

    Interior knots fall on a bin edge of some p in REFERENCE_PRIMES (on either
    side of the seam), on the fold point 0, at -A/2 or A/2, or anywhere; about
    one target in seven has values near the bottom of the float range, steep
    enough that most of them are refused, and one in fifty is built past
    validate_continuous with a zero value.
    """
    rng = random.Random(seed)
    targets = []
    while len(targets) < count:
        a = rng.choice(HALF_WIDTHS + (rng.uniform(0.1, 10.0),))
        interior = set()
        for _ in range(rng.randint(0, 5)):
            kind = rng.random()
            if kind < 0.3:
                p = rng.choice(REFERENCE_PRIMES)
                edge = rng.randint(1, p - 1) * (2 * a / p)
                interior.add(edge if edge < a else edge - 2 * a)
            elif kind < 0.4:
                interior.add(0.0)
            elif kind < 0.5:
                interior.add(rng.choice((-a / 2, a / 2)))
            else:
                interior.add(rng.uniform(-a, a))
        xs = [-a, *sorted(x for x in interior if -a < x < a), a]
        steep = rng.random() < 1 / 7
        fs = [
            rng.choice((5e-324, 1e-310, 10 ** rng.uniform(-323, -250)))
            if steep and rng.random() < 0.5
            else rng.uniform(0.05, 2.0)
            for _ in xs
        ]
        mass = sum(
            (Fraction(f0) + Fraction(f1)) * (Fraction(x1) - Fraction(x0)) / 2
            for x0, f0, x1, f1 in zip(xs, fs, xs[1:], fs[1:])
        )
        fs = [float(Fraction(f) / mass) for f in fs]
        if rng.random() < 0.02:
            fs[rng.randrange(len(fs))] = 0.0
            targets.append(ContinuousTarget(a, tuple(zip(xs, fs)), 0.0, max(fs)))
        elif min(fs) > 0:
            targets.append(validate_continuous(a, list(zip(xs, fs))))
    return targets


def _binning_outcome(bin_fn, target, p):
    """Every float of a binning as int64 bits, or the refusal's type and message."""
    try:
        bins = bin_fn(target, p)
    except Exception as err:  # any refusal, compared by type and message
        return type(err), str(err)
    floats = np.concatenate([bins.binned.probs, [bins.r, bins.eta], bins.mean_log2])
    return bins.delta, floats.view(np.int64).tolist()


def test_bin_density_matches_fraction_reference_bit_for_bit():
    refusals = {}
    for target in random_targets(2019, 1000):
        for p in REFERENCE_PRIMES:
            want = _binning_outcome(fraction_bin_density, target, p)
            assert _binning_outcome(bin_density, target, p) == want, (target, p)
            if isinstance(want[0], type):
                refusals[want] = refusals.get(want, 0) + 1
    # both refusals are reached, the steep one at every p
    assert sum(n for (kind, _), n in refusals.items() if kind is NotPermissibleError) > 0
    assert {msg for kind, msg in refusals if kind is ValueError} == {
        f"the density is too steep to bin at p={p} in floating point" for p in REFERENCE_PRIMES
    }


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


@pytest.mark.parametrize("floor", [1e-12, 1e-15, 1e-18, 1e-100, 1e-300])
def test_steep_tent_mirror_bins_match_decimal_oracle(floor):
    # at p=2 the tent (-1, f), (0, 1 - f), (1, f) wraps into two mirror bins of
    # width 1: bin 0 falls from 1 - f to f, bin 1 rises from f to 1 - f
    tent = validate_continuous(1.0, ((-1.0, floor), (0.0, 1.0 - floor), (1.0, floor)))
    with localcontext() as ctx:
        ctx.prec = 60
        lo, hi = Decimal(floor), Decimal(1.0 - floor)
        exact = ((hi * hi.ln() - lo * lo.ln()) / (hi - lo) - 1) / Decimal(2).ln()
        for got in bin_density(tent, 2).mean_log2.tolist():
            assert abs(Decimal(got) - exact) / abs(exact) <= Decimal("1e-12"), (floor, got)


def test_build_continuous_assembles_consistently():
    cc = build_continuous(TRIANGLE, 13, 3, 1, 7)
    assert cc.code.p == 13
    assert cc.bins.delta == Fraction(2, 13)
    assert cc.binned.probs.tolist() == TRIANGLE_BIN_PROBS
    assert cc.region.size == 13**2
    assert cc.bins.r == TRIANGLE_R
    assert abs(cc.spread_penalty_bits + math.log2(TRIANGLE_R)) <= 1e-15


def test_continuous_divergence_reads_the_construction_bins(monkeypatch):
    cc = build_continuous(TRIANGLE, 13, 3, 1, 7)
    want = continuous_divergence(cc)

    def no_binning(target, p):
        raise AssertionError("continuous_divergence binned the density again")

    monkeypatch.setattr(lqn.continuous, "bin_density", no_binning)
    assert vars(continuous_divergence(cc)) == vars(want)


@pytest.mark.parametrize("p", [1000003, 2305843009213693951])
def test_build_continuous_checks_point_cap_before_folding(monkeypatch, p):
    # p**2 is over MAX_POINTS (1000003), or p is past the int64 products bound
    # (2**61 - 1): either is refused before the density is binned. 1000003 is
    # tested for primality first, quick within the bound, so only binning is forbidden
    def refuse(*args):
        raise AssertionError("binned before the point cap")

    monkeypatch.setattr(lqn.continuous, "bin_density", refuse)
    with pytest.raises(TooLargeError):
        build_continuous(TRIANGLE, p, 2, 1, 0)


def _no_trial_division(monkeypatch):
    def refuse(*args):
        raise AssertionError("binned, or tested primality past the products bound")

    monkeypatch.setattr(lqn.continuous, "bin_density", refuse)
    # every ensure_prime reaches is_prime, the one function that trial-divides
    monkeypatch.setattr(lqn.zplinalg, "is_prime", refuse)


def test_build_continuous_refuses_a_modulus_past_the_products_bound_before_the_cap(monkeypatch):
    # p**2 is over the int64 encodings too, but 2 * (p - 1)**2 >= 2**63 is
    # refused first, as make_code and sample_generator refuse it, and p is never
    # trial-divided
    p = 2305843009213693951
    _no_trial_division(monkeypatch)
    with pytest.raises(TooLargeError, match=f"^modulus {p} at length 2 overflows"):
        build_continuous(TRIANGLE, p, 2, 1, 0)


def test_build_continuous_refuses_past_the_products_bound_under_a_huge_cap(monkeypatch):
    # p**2 < 2**63 passes a cap of p**2, but 2 * (p - 1)**2 >= 2**63 does not fit
    # the int64 dot products: refused before binning and before trial division
    p = 3037000493
    _no_trial_division(monkeypatch)
    with pytest.raises(TooLargeError, match=f"^modulus {p} at length 2 overflows"):
        build_continuous(TRIANGLE, p, 2, 1, 0, max_points=p**2)


def test_build_continuous_rejects_block_length_mismatch():
    tp = TypicalityParams(n=3, epsilon=0.5)
    with pytest.raises(DimensionMismatchError, match="block length 3 != code length 5"):
        build_continuous(TRIANGLE, 3, 5, 2, 0, tp=tp)


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


@pytest.mark.parametrize(
    "p, n, criterion, seed",
    [(3, 9, "typicality", 2), (3, 10, "typicality", 3), (5, 8, "ml", 0), (5, 8, "ml", 2)],
    # an id names (p, n, criterion), and the seed only for a second build of a shape
    ids=["3-9-typicality", "3-10-typicality", "5-8-ml", "5-8-ml-2"],
)
def test_continuous_divergence_adds_each_rep_left_to_right(p, n, criterion, seed):
    # from n = 8 on numpy's pairwise sum and a left-to-right one can differ in
    # the last bit of a rep's sum, and then, at these seeds, in D itself
    cc = build_continuous(TRIANGLE, p, n, n // 2, seed, criterion=criterion)
    terms = cc.bins.mean_log2[np.ascontiguousarray(cc.region.reps)]
    per_rep = np.zeros(cc.region.size)
    for j in range(n):
        per_rep = per_rep + terms[:, j]

    def d_of(rep_sums):
        return (
            -n * math.log2(float(cc.bins.delta))
            - math.log2(cc.region.size)
            - float(rep_sums.sum()) / cc.region.size
        )

    want = d_of(per_rep)
    # so this build tells the two sums apart
    assert d_of(np.add.reduce(terms, axis=-1)) != want
    assert continuous_divergence(cc).D_total_bits == want


@pytest.mark.parametrize("p, n", [(2, 12), (3, 8), (5, 6), (31, 3)])
@pytest.mark.parametrize("name", ["triangle", "flat"])
def test_continuous_divergence_matches_the_first_column_start(name, p, n):
    # each rep's sum once started from its first column's term, and now starts
    # from +0.0; the two differ only for a sum of -0.0 terms, and no mean_log2
    # entry is -0.0, since each bin's integral is accumulated from +0.0
    cc = build_continuous(continuous_builtins()[name], p, n, n // 2, 1)
    mean_log2, reps = cc.bins.mean_log2, cc.region.reps
    assert not np.signbit(mean_log2[mean_log2 == 0.0]).any()
    per_rep = mean_log2[reps[:, 0]]
    for j in range(1, n):
        per_rep += mean_log2[reps[:, j]]
    want = (
        -n * math.log2(float(cc.bins.delta))
        - math.log2(cc.region.size)
        - float(per_rep.sum()) / cc.region.size
    )
    got = continuous_divergence(cc).D_total_bits
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


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
    cell = lift_region(cc.region, cc.bins.delta)
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
