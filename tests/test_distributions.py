"""Target distributions, entropy bookkeeping, and weak typicality."""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqn import (
    ContinuousTarget,
    DimensionMismatchError,
    NotNormalizedError,
    NotPermissibleError,
    TypicalityParams,
    alpha,
    is_typical,
    log2_likelihoods,
    parse_distribution,
    typical_pair,
    uniform_target,
    validate_continuous,
    validate_discrete,
)
from lqn.cases import builtin_cases
from lqn.distributions import _surprisal_gap, row_sums, typical, typical_interval

# frozen reference entropies, computed independently at 50-digit precision
H_532 = 1.4854752972273344
H_UNIFORM5 = 2.321928094887362
H_SKEW = 0.5689955935892812  # (0.9, 0.05, 0.05)
ALPHA_532 = 0.8364527976600278
ALPHA_SKEW = 3.7529325012980816


def test_entropy_fixtures():
    t = validate_discrete([0.5, 0.3, 0.2], 3)
    assert abs(t.entropy_bits - H_532) <= 1e-12
    assert abs(uniform_target(5).entropy_bits - H_UNIFORM5) <= 1e-12
    assert abs(validate_discrete([0.9, 0.05, 0.05], 3).entropy_bits - H_SKEW) <= 1e-12


def test_validated_target_caches_extremes():
    t = validate_discrete([0.5, 0.3, 0.2], 3)
    assert t.p == 3
    assert t.a_min == 0.2
    assert t.a_max == 0.5
    assert t.probs.tolist() == [0.5, 0.3, 0.2]
    assert np.allclose(t.log2_probs, np.log2([0.5, 0.3, 0.2]))


def test_validate_error_precedence_and_kinds():
    # wrong length wins over anything else
    with pytest.raises(DimensionMismatchError):
        validate_discrete([0.5, 0.5], 3)
    with pytest.raises(NotPermissibleError):
        validate_discrete([0.5, 0.5, 0.0], 3)
    with pytest.raises(NotPermissibleError):
        validate_discrete([0.7, 0.6, -0.3], 3)
    with pytest.raises(NotNormalizedError):
        validate_discrete([0.5, 0.3, 0.18], 3)
    with pytest.raises(ValueError):
        validate_discrete([0.25, 0.25, 0.25, 0.25], 4)  # composite modulus


def test_normalization_tolerance_boundary():
    base = [0.5, 0.3, 0.2]
    validate_discrete([base[0] + 0.5e-9, base[1], base[2]], 3)
    with pytest.raises(NotNormalizedError):
        validate_discrete([base[0] + 2e-9, base[1], base[2]], 3)


def test_probs_are_read_only():
    t = validate_discrete([0.5, 0.3, 0.2], 3)
    with pytest.raises(ValueError):
        t.probs[0] = 0.9


def test_alpha_fixtures_and_uniform_zero():
    assert abs(alpha(validate_discrete([0.5, 0.3, 0.2], 3)) - ALPHA_532) <= 1e-12
    assert abs(alpha(validate_discrete([0.9, 0.05, 0.05], 3)) - ALPHA_SKEW) <= 1e-12
    # uniform: -log2(1/p) == H in exact arithmetic; floats leave at most
    # rounding residue, and the clamp keeps the gap nonnegative
    for p in (2, 3, 5, 37):
        a = alpha(uniform_target(p))
        assert 0.0 <= a <= 1e-12


def test_typicality_params_validation():
    tp = TypicalityParams.default(4)
    assert tp.n == 4
    assert tp.epsilon == 0.25
    with pytest.raises(DimensionMismatchError):
        TypicalityParams(n=0, epsilon=0.5)
    with pytest.raises(ValueError):
        TypicalityParams(n=4, epsilon=0.0)
    with pytest.raises(ValueError):
        TypicalityParams(n=4, epsilon=-0.1)


def test_log2_likelihoods_matches_scalar_sum():
    t = validate_discrete([0.5, 0.3, 0.2], 3)
    v = [0, 1, 2]
    expect = sum(math.log2(q) for q in (0.5, 0.3, 0.2))
    assert abs(float(log2_likelihoods(v, t)) - expect) <= 1e-12
    batch = log2_likelihoods([[0, 0, 0], [2, 2, 2]], t)
    assert batch.shape == (2,)
    assert abs(batch[0] - 3 * math.log2(0.5)) <= 1e-12


def test_log2_likelihoods_refuses_non_integer_symbols():
    t = validate_discrete([0.5, 0.3, 0.2], 3)
    for rows in ([[0.5, 1, 2]], [[0, 1, math.nan]], [[2**70, 0, 0]]):
        with pytest.raises(ValueError, match="expected integer entries"):
            log2_likelihoods(rows, t)
    expect = log2_likelihoods([[0, 1, 2]], t).tolist()
    assert log2_likelihoods([[0.0, 1.0, 2.0]], t).tolist() == expect


@pytest.mark.parametrize(
    "rows",
    [[[5, 0]], np.array([[5, 0]], dtype=np.int64), [[-1, 0]], [[-4, 0]], [[5.0, 0.0]]],
    ids=["int-list", "int64-array", "negative", "negative-below-p", "float"],
)
def test_log2_likelihoods_reads_every_symbol_mod_p(rows):
    # an int64 array outside [0, p) once indexed the table as it was: 5 raised
    # IndexError at p = 3 and -1 wrapped silently, while 5.0 was read as 2
    t = validate_discrete([0.5, 0.3, 0.2], 3)
    assert log2_likelihoods(rows, t).tolist() == log2_likelihoods([[2, 0]], t).tolist()


@pytest.mark.parametrize("n", range(0, 17))
def test_log2_likelihoods_adds_left_to_right(n):
    # numpy's sum pairs terms from n = 8 on; the builders' sums must not
    rng = np.random.default_rng(n)
    raw = rng.dirichlet(np.ones(5))
    t = validate_discrete(raw / raw.sum(), 5)
    rows = rng.integers(0, 5, size=(300, n))

    def fold(row):
        total = 0.0
        for x in row:
            total += float(t.log2_probs[x])
        return total

    expect = [fold(row) for row in rows.tolist()]
    assert log2_likelihoods(rows, t).tolist() == expect
    assert [float(log2_likelihoods(row, t)) for row in rows] == expect

    # row_sums against the loop over a gathered table of terms that it replaced, bit
    # for bit, on symbols of one, two and three axes; a table of negative, zero and
    # positive entries, as mean_log2 can hold
    table = rng.permutation(np.r_[-rng.exponential(4.0, 3), 0.0, -0.0, rng.exponential(4.0, 2)])
    for shape in [(n,), (300, n), (4, 25, n)]:
        symbols = rng.integers(0, len(table), size=shape)
        terms = table[symbols]
        total = np.zeros(terms.shape[:-1])
        for j in range(n):
            total = total + terms[..., j]
        got = row_sums(table, symbols)
        assert got.shape == shape[:-1]
        np.testing.assert_array_equal(got.view(np.uint64), np.asarray(total).view(np.uint64))


def test_is_typical_skewed_fixture():
    # P = (0.9, 0.05, 0.05), n = 2, eps = 1/2: only the all-zero word qualifies
    t = validate_discrete([0.9, 0.05, 0.05], 3)
    tp = TypicalityParams.default(2)
    assert is_typical([0, 0], t, tp)
    for v in ([0, 1], [1, 0], [1, 1], [2, 2], [0, 2]):
        assert not is_typical(v, t, tp)


def test_is_typical_boundary_is_inclusive():
    # dyadic pmf makes deviations float-exact: surprisals 1,2,3,4,4 bits,
    # H = 1.875 exactly, word (0,1) deviates by exactly 0.375
    t = validate_discrete([0.5, 0.25, 0.125, 0.0625, 0.0625], 5)
    assert t.entropy_bits == 1.875
    assert is_typical([0, 1], t, TypicalityParams(n=2, epsilon=0.375))
    assert not is_typical([0, 1], t, TypicalityParams(n=2, epsilon=0.375 - 1e-12))


def test_is_typical_permutation_invariant_and_wraps():
    t = validate_discrete([0.6, 0.25, 0.15], 3)
    tp = TypicalityParams.default(4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.integers(0, 3, size=4)
        assert is_typical(v, t, tp) == is_typical(v[::-1], t, tp)
    # components reduce mod p before lookup
    assert is_typical([0, 0, 0, 0], t, tp) == is_typical([3, -3, 6, 0], t, tp)


def test_is_typical_shape_errors():
    t = validate_discrete([0.5, 0.3, 0.2], 3)
    with pytest.raises(DimensionMismatchError):
        is_typical([0, 1, 2], t, TypicalityParams.default(2))


def test_is_typical_matches_definition_away_from_boundary():
    # independent surprisal computation; compare wherever the margin is clear
    rng = np.random.default_rng(17)
    raw = rng.dirichlet(np.ones(5)).clip(1e-3)
    t = validate_discrete(raw / raw.sum(), 5)
    tp = TypicalityParams.default(6)
    for _ in range(200):
        v = rng.integers(0, 5, size=6)
        dev = abs(
            -math.fsum(math.log2(t.probs[i]) for i in v) / 6 - t.entropy_bits
        )
        if abs(dev - tp.epsilon) > 1e-9:
            assert is_typical(v, t, tp) == (dev <= tp.epsilon)


def _ulps_around(x: float, count: int) -> np.ndarray:
    """x and the count doubles on each side of it."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return np.array(below[::-1] + above[1:])


# two dyadic pmfs and w3's: at epsilon = H the upper end b is a few 1e-16
# above 0.0, where its estimate -n(H - epsilon) cancels
EDGE_PMFS = ([0.75, 0.25], [0.5, 0.25, 0.25], builtin_cases()["w3"].target.probs.tolist())


def _edge_examples(test):
    """epsilon = H, its two neighbouring doubles and 2H, on each EDGE_PMFS entry at n = 3 and 6."""
    for probs in EDGE_PMFS:
        h = validate_discrete(probs, len(probs)).entropy_bits
        for n in (3, 6):
            for epsilon in (h, math.nextafter(h, 0), math.nextafter(h, math.inf), 2 * h):
                test = example(p=len(probs), n=n, epsilon=epsilon, seed=0, probs=probs)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    n=st.integers(1, 40),
    epsilon=st.sampled_from([5e-324, 1e-300, 1e-15]) | st.floats(1e-12, 8.0),
    seed=st.integers(0, 2**32 - 1),
    probs=st.none(),
)
# an empty interval: no double is typical for this target at n=3
@example(p=2, n=3, epsilon=1e-300, seed=2, probs=None)
@_edge_examples
def test_typical_interval_matches_typical(p, n, epsilon, seed, probs):
    """probs, when given, is the pmf; otherwise one is drawn from seed."""
    if probs is None:
        probs = np.random.default_rng(seed).dirichlet(np.ones(p)).clip(1e-3)
        probs = probs / probs.sum()
    target = validate_discrete(probs, p)
    a, b = typical_interval(n, target, epsilon)
    for edge in (a, b):
        ll = _ulps_around(edge, 50)
        np.testing.assert_array_equal(typical(ll, n, target, epsilon), (ll >= a) & (ll <= b))


def _float_key(x: float) -> int:
    """An integer that orders doubles as their values do; its own inverse."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else bits ^ 0x7FFFFFFFFFFFFFFF


def _key_float(key: int) -> float:
    bits = key if key >= 0 else key ^ 0x7FFFFFFFFFFFFFFF
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _reference_first_true(pred) -> float:
    """The smallest double x with pred(x), by bisecting the keys of all doubles."""
    lo, hi = _float_key(-math.inf), _float_key(math.inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(_key_float(mid)):
            hi = mid
        else:
            lo = mid
    return _key_float(hi)


def _reference_interval(n, target, epsilon):
    """typical_interval as a 128-step bisection over the whole float line."""
    a = _reference_first_true(lambda ll: _surprisal_gap(ll, n, target) <= epsilon)
    b = -_reference_first_true(lambda ll: _surprisal_gap(-ll, n, target) >= -epsilon)
    return a, b


def _reference_cases():
    """2,379 seeded (n, target, epsilon) cases, p up to 2039 and n up to 10**6.

    Epsilon runs from the smallest double to the largest, log-uniform, and
    also near H, at 1/n, and at the edge values.
    """
    rng = np.random.default_rng(20190722)
    cases = []
    for p in (2, 3, 5, 7, 13, 37, 101, 2039):
        for _ in range(6):
            probs = rng.dirichlet(np.ones(p)).clip(1e-6)
            target = validate_discrete(probs / probs.sum(), p)
            h = target.entropy_bits
            for _ in range(48):
                n = int(10 ** rng.uniform(0, 6))
                n = n if rng.random() < 0.9 else int(rng.choice([1, 10**6]))
                epsilon = rng.choice([
                    # log-uniform from the smallest double to near the largest
                    float(np.exp2(rng.uniform(-1074, 1023.9))),
                    float(rng.uniform(0, 3 * h)) or 5e-324,
                    1 / n,
                    float(rng.choice([5e-324, 1e-300, h, 2 * h, h / 2, sys.float_info.max])),
                ])
                cases.append((n, target, float(epsilon)))
    for probs in EDGE_PMFS:
        target = validate_discrete(probs, len(probs))
        h = target.entropy_bits
        for n in (1, 2, 3, 6, 10**6):
            for epsilon in (h, math.nextafter(h, 0), math.nextafter(h, math.inf), h / 2, 2 * h):
                cases.append((n, target, epsilon))
    return cases


def test_typical_interval_is_the_float_line_bisection():
    # the same doubles, sign of zero included, as bisecting all 2**64 bit patterns
    mismatches = [
        (target.p, n, epsilon)
        for n, target, epsilon in _reference_cases()
        if [x.hex() for x in typical_interval(n, target, epsilon)]
        != [x.hex() for x in _reference_interval(n, target, epsilon)]
    ]
    assert mismatches == []


def test_typical_interval_can_be_empty():
    # -3H itself rounds away from typical when epsilon is below every nonzero gap
    probs = np.random.default_rng(2).dirichlet(np.ones(2)).clip(1e-3)
    target = validate_discrete(probs / probs.sum(), 2)
    a, b = typical_interval(3, target, 1e-300)
    assert a > b
    assert not typical(np.float64(-3 * target.entropy_bits), 3, target, 1e-300)
    for edge in (a, b):
        assert not typical(_ulps_around(edge, 50), 3, target, 1e-300).any()


def test_typical_pair_wraps_difference():
    t = validate_discrete([0.9, 0.05, 0.05], 3)
    tp = TypicalityParams.default(2)
    # (y - x) mod 3 = (0, 0): typical regardless of the common offset
    assert typical_pair([2, 2], [2, 2], t, tp)
    assert typical_pair([2, 1], [2, 1], t, tp)
    # difference (1, 1) is not typical for this pmf
    assert not typical_pair([0, 0], [1, 1], t, tp)
    with pytest.raises(DimensionMismatchError):
        typical_pair([0, 0], [0, 0, 0], t, tp)


def test_typical_pair_refuses_non_integer_vectors():
    t = validate_discrete([0.9, 0.05, 0.05], 3)
    tp = TypicalityParams.default(2)
    for x, y in (([0.5, 0], [0, 0]), ([0, 0], [2**70, 0]), ([0, 0], [0, math.nan])):
        with pytest.raises(ValueError, match="expected integer entries"):
            typical_pair(x, y, t, tp)
    # (5, -1) - (2, 2) wraps to (0, 0)
    assert typical_pair([2.0, 2.0], [5, -1], t, tp)


def test_validate_continuous_accepts_tent():
    t = validate_continuous(1.0, [(-1.0, 0.05), (0.0, 0.95), (1.0, 0.05)])
    assert isinstance(t, ContinuousTarget)
    assert t.half_width == 1.0
    assert t.a_min == 0.05
    assert t.a_max == 0.95


def test_validate_continuous_errors():
    with pytest.raises(NotPermissibleError):
        validate_continuous(0.0, [(-0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(DimensionMismatchError):
        validate_continuous(1.0, [(-1.0, 0.5)])
    with pytest.raises(DimensionMismatchError):
        validate_continuous(1.0, [(-1.0, 0.5), (-1.0, 0.5), (1.0, 0.5)])
    with pytest.raises(DimensionMismatchError):
        validate_continuous(1.0, [(-0.5, 1.0), (0.5, 1.0)])  # span too short
    with pytest.raises(NotPermissibleError):
        validate_continuous(1.0, [(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
    with pytest.raises(NotNormalizedError):
        validate_continuous(1.0, [(-1.0, 0.6), (1.0, 0.6)])


def test_parse_distribution_round_trip():
    d = parse_distribution({"type": "discrete", "p": 3, "probs": [0.5, 0.3, 0.2]})
    assert d.p == 3
    c = parse_distribution(
        {"type": "continuous", "A": 1.0, "knots": [[-1.0, 0.5], [1.0, 0.5]]}
    )
    assert c.half_width == 1.0
    with pytest.raises(DimensionMismatchError):
        parse_distribution({"type": "gaussian"})
