"""Seeded random codes, codeword enumeration, rates, dimension selection."""

import itertools
import math

import numpy as np
import pytest
from numpy.random.bit_generator import _coerce_to_uint32_array

import lqn.codes
import lqn.zplinalg
from lqn import (
    NoFeasibleRateError,
    RankDeficientError,
    TooLargeError,
    build_continuous,
    estimate_match_probability,
    enumerate_codewords,
    lattice_contains,
    make_code,
    rate,
    rref,
    sample_generator,
    select_k,
    uniform_target,
    validate_discrete,
)
from lqn.cases import builtin_cases, continuous_builtins
from lqn.codes import (
    MAX_CODEWORDS,
    MAX_POINTS,
    Stream,
    check_cap,
    draw_full_rank,
    lex_grid,
    seed_words,
    substream_integers,
    trial_draws,
)
from lqn.zplinalg import is_prime, ranks

RATE_1_2_37 = 2.604726682814475  # log2(37)/2, frozen at 50-digit precision


def test_make_code_fixture():
    code = make_code([[1, 1]], 3)
    assert (code.k, code.n, code.p) == (1, 2, 3)
    assert code.num_codewords == 3
    assert code.num_cosets == 3
    assert code.parity.tolist() == [[2, 1]]
    assert code.pivot_cols == (0,)
    assert code.nonpivot_cols == (1,)


def test_make_code_rejections():
    with pytest.raises(RankDeficientError):
        make_code([[1, 1, 2], [2, 2, 1]], 3)  # second row is twice the first
    with pytest.raises(ValueError):
        make_code([[1, 0], [0, 1]], 3)  # k must stay below n
    with pytest.raises(ValueError):
        make_code([[1, 1]], 4)


# each is wrong without the refusal: at 4294967291 rref's row products wrap
# and the parity check misses codewords; at 2**31 - 1, n = 6, the syndrome
# dot products wrap and lattice_contains misreports codewords
@pytest.mark.parametrize("k, n, p", [(2, 4, 4294967291), (3, 6, 2**31 - 1)], ids=str)
def test_make_code_refuses_a_modulus_whose_int64_products_overflow(k, n, p):
    generator = np.random.default_rng(0).integers(0, p, size=(k, n))
    with pytest.raises(TooLargeError, match=f"modulus {p} at length {n}"):
        make_code(generator, p)


def test_sample_generator_refuses_an_overflowing_modulus_before_trial_division(monkeypatch):
    # trial division of 2**61 - 1 runs towards 1.5e9 divisors
    def refuse(*args):
        raise AssertionError("tested primality or drew before the int64 check")

    monkeypatch.setattr(lqn.zplinalg, "is_prime", refuse)
    monkeypatch.setattr(lqn.codes, "Stream", refuse)
    with pytest.raises(TooLargeError, match="overflows the int64 dot products"):
        sample_generator(0, 2, 4, 2**61 - 1)


def test_make_code_is_exact_at_the_largest_modulus_it_takes():
    # 1518500213 is the largest prime with 4 (p - 1)**2 < 2**63: no prime lies
    # between it and p + 37, the largest integer with that bound
    p, n = 1518500213, 4
    assert n * (p - 1) ** 2 < 2**63 <= n * (p + 37) ** 2
    rng = np.random.default_rng(1)
    for _ in range(50):
        generator = rng.integers(0, p, size=(2, n))
        code = make_code(generator, p)
        for u in rng.integers(0, p, size=(4, 2)).tolist():
            word = [sum(a * int(g) for a, g in zip(u, col)) % p for col in generator.T]
            assert lattice_contains(code, word)
            assert all(sum(int(h) * w for h, w in zip(row, word)) % p == 0 for row in code.parity)


def test_sample_generator_is_deterministic():
    a = sample_generator(42, 2, 4, 5)
    b = sample_generator(42, 2, 4, 5)
    assert np.array_equal(a.generator, b.generator)
    # pinned draw so cross-version drift is caught immediately
    assert a.generator.tolist() == [[0, 3, 3, 2], [2, 4, 0, 3]]
    assert not np.array_equal(
        a.generator, sample_generator(43, 2, 4, 5).generator
    )


def test_sample_generator_tuple_seeds_name_substreams():
    # (seed, trial) tuples give distinct, replayable streams per trial
    subs = [sample_generator((42, t), 2, 4, 5).generator for t in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(subs[i], subs[j])
    again = sample_generator((42, 1), 2, 4, 5)
    assert np.array_equal(subs[1], again.generator)


def test_sample_generator_always_full_rank():
    for t in range(50):
        code = sample_generator((5, t), 2, 3, 2)
        assert rref(code.generator, 2).rank == 2


def test_sample_generator_validates_inputs():
    with pytest.raises(ValueError):
        sample_generator(1, 0, 4, 5)
    with pytest.raises(ValueError):
        sample_generator(1, 4, 4, 5)
    with pytest.raises(ValueError):
        sample_generator(1, 1, 4, 6)


def test_no_seed_is_refused_rather_than_drawn_from_the_os():
    # numpy's SeedSequence(None) would draw OS entropy: a new code on every call
    with pytest.raises(TypeError, match="seed must be an integer"):
        sample_generator(None, 2, 4, 5)
    with pytest.raises(TypeError, match="seed must be an integer"):
        build_continuous(continuous_builtins()["flat"], 7, 3, 1, None)
    with pytest.raises(TypeError, match="seed must be an integer"):
        estimate_match_probability(uniform_target(3), 6, 1, 10, None)


# numpy serves these tests only as the oracle of lqn's replay of its seeded stream
ORACLE_SEEDS = [0, 1, 2**32, 2**64 + 1, (1, 2), ((1, 2), 3), (), np.uint64(5)]


@pytest.mark.parametrize("seed", ORACLE_SEEDS, ids=repr)
def test_seed_words_are_numpys_entropy_words(seed):
    words = seed_words(seed)
    assert all(type(w) is int for w in words)
    assert words == _coerce_to_uint32_array(seed).tolist()


@pytest.mark.parametrize(
    "seed, error, message",
    [
        (-1, ValueError, "expected non-negative integer"),
        ((5, -1), ValueError, "expected non-negative integer"),
        (1.0, TypeError, "seed must be an integer"),
        ("1", TypeError, "seed must be an integer"),
        (None, TypeError, "seed must be an integer"),
        ((1, None), TypeError, "seed must be an integer"),
    ],
    ids=repr,
)
def test_seed_words_refusals(seed, error, message):
    with pytest.raises(error, match=message):
        seed_words(seed)
    with pytest.raises(error, match=message):
        Stream(seed)


# Lemire's bounded draw redraws a 32-bit word that falls in its rejection zone:
# about 7.9e-4 of them at 3384529, almost none at 2**31 - 1 and 2**32 - 5, and
# about half at 2147483659, just above 2**31. 2**32, the widest range numpy
# draws from 32-bit words, takes each word as it is.
@pytest.mark.parametrize(
    "p", [2, 7, 13, 3384529, 2147483647, 4294967291, 2147483659, 2**32]
)
@pytest.mark.parametrize("seed", ORACLE_SEEDS, ids=repr)
def test_stream_is_numpys_generator(seed, p):
    ours = Stream(seed)
    numpys = np.random.default_rng(np.random.SeedSequence(seed))
    # an odd size leaves the high half of a 64-bit output to the next call
    for size in (5, 4, (3, 3)):
        want = numpys.integers(0, p, size=size, dtype=np.int64)
        got = ours.integers(0, p, size=size, dtype=np.int64)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("low, high", [(0, 2**32 + 1), (0, 2**61 - 1), (5, 5), (3, 0)])
def test_stream_refuses_a_range_outside_32_bit_words(low, high):
    # numpy draws 64-bit words past 2**32, which Stream does not replay;
    # the refusal draws nothing, so the stream goes on as numpy's
    ours = Stream(0)
    with pytest.raises(ValueError, match=r"1 <= high - low <= 2\*\*32"):
        ours.integers(low, high, size=3, dtype=np.int64)
    want = np.random.default_rng(np.random.SeedSequence(0)).integers(0, 7, size=5)
    assert np.array_equal(ours.integers(0, 7, size=5, dtype=np.int64), want)


def _numpy_draws(seed, start, trials, words, p):
    """Each trial's integers(0, p, size=words) on its own substream (seed, t)."""
    return np.array([
        np.random.default_rng(np.random.SeedSequence((seed, t)))
        .integers(0, p, size=words, dtype=np.int64)
        for t in range(start, start + trials)
    ])


@pytest.mark.parametrize("p", [2, 3, 7, 13, 37, 3384529, 4194301])
@pytest.mark.parametrize("seed", [0, 2**32 + 7, 2**64 + 1, (1, 2)], ids=str)
def test_substream_integers_is_numpys_per_trial_draw(p, seed):
    # from start 2**32 - 2, t gains a second entropy word at its third trial
    for start in (0, 2**32 - 2):
        values, rejected = substream_integers(seed, start, 40, 7, p)
        assert values.dtype == np.int64
        assert values.shape == (40, 7)
        want = _numpy_draws(seed, start, 40, 7, p)
        assert np.array_equal((values != want).any(axis=1), rejected)


def test_substream_integers_flags_exactly_the_trials_numpy_redraws():
    # about 7.9e-4 of the 32-bit words at p = 3,384,529 fall in Lemire's
    # rejection zone; numpy draws again there and the row moves on
    p = 3384529
    values, rejected = substream_integers(0, 0, 3000, 4, p)
    assert int(rejected.sum()) == 8
    want = _numpy_draws(0, 0, 3000, 4, p)
    assert np.array_equal((values != want).any(axis=1), rejected)
    assert np.array_equal(values[~rejected], want[~rejected])


def test_substream_integers_refuses_a_modulus_past_32_bits():
    with pytest.raises(ValueError, match=r"2 <= p < 2\*\*32"):
        substream_integers(0, 0, 1, 1, 1 << 32)


@pytest.mark.parametrize("k, n", [(3, 6), (3, 5)])
def test_one_draw_of_generator_and_shift_is_the_two_draws(k, n):
    # the Monte Carlo estimator draws k*n generator entries and the n shift
    # entries in one call; at odd k*n the shift starts on a buffered half word
    for t in range(3000):
        one = np.random.default_rng(np.random.SeedSequence((0, t)))
        two = np.random.default_rng(np.random.SeedSequence((0, t)))
        both = one.integers(0, 7, size=k * n + n, dtype=np.int64)
        gen = two.integers(0, 7, size=(k, n), dtype=np.int64)
        shift = two.integers(0, 7, size=n, dtype=np.int64)
        assert np.array_equal(both, np.concatenate([gen.ravel(), shift]))


def _per_trial(rng, k, n, p):
    """One trial's draw on its own stream: a full-rank generator, then a shift."""
    generator = draw_full_rank(rng, k, n, p).generator
    return np.vstack([generator, rng.integers(0, p, size=n, dtype=np.int64)])


# (k, n, p): 1073741827, the first prime above 2**30, sends about a quarter of
# the 32-bit words to Lemire's rejection loop, and 7 (p - 1)**2 < 2**63 still;
# at p = 2 many first generators are rank-deficient
TRIAL_CASES = {"lemire": (2, 5, 1073741827), "deficient": (3, 4, 2), "small": (2, 6, 7)}


@pytest.mark.parametrize("case", TRIAL_CASES)
@pytest.mark.parametrize("seed", [0, (1, 2)], ids=str)
def test_trial_draws_are_each_trials_own_draw(seed, case):
    k, n, p = TRIAL_CASES[case]
    # from start 2**32 - 2, t gains a second entropy word at its third trial
    for start in (0, 2**32 - 2):
        got = trial_draws(seed, start, 30, k, n, p)
        assert got.dtype == np.int64 and got.shape == (30, k + 1, n)
        for i, rows in enumerate(got):
            assert np.array_equal(rows, _per_trial(Stream((seed, start + i)), k, n, p))
    first, rejected = substream_integers(seed, 0, 30, (k + 1) * n, p)
    redrawn = rejected | (ranks(first.reshape(30, k + 1, n)[:, :k], p) < k)
    # the lemire and deficient cases go through the redraws they were chosen for
    assert case == "small" or redrawn.sum() >= 5


@pytest.mark.parametrize("k, n, p", TRIAL_CASES.values(), ids=TRIAL_CASES)
def test_trial_draws_are_numpys_per_trial_draws(k, n, p):
    got = trial_draws(9, 3, 4, k, n, p)
    for i in range(4):
        rng = np.random.default_rng(np.random.SeedSequence((9, 3 + i)))
        assert np.array_equal(got[i], _per_trial(rng, k, n, p))


def test_trial_draws_test_the_modulus_for_primality_once(monkeypatch):
    # at p = 1073741827 about a quarter of the words are rejected, so most of the
    # 200 trials are redrawn, each through make_code and its primality test
    p = 1073741827
    made = []
    make_code = lqn.codes.make_code

    def counting_make_code(*args):
        made.append(args)
        return make_code(*args)

    monkeypatch.setattr(lqn.codes, "make_code", counting_make_code)
    is_prime.cache_clear()
    trial_draws(0, 0, 200, 2, 5, p)
    info = is_prime.cache_info()
    assert len(made) > 100
    assert (info.misses, info.hits) == (1, len(made) - 1)


def test_enumerate_codewords_order_and_closure():
    code = make_code([[1, 0, 2], [0, 1, 1]], 3)
    words = enumerate_codewords(code)
    assert words.shape == (9, 3)
    assert words[0].tolist() == [0, 0, 0]
    # message vectors run in lexicographic order
    assert words[1].tolist() == [0, 1, 1]
    assert words[3].tolist() == [1, 0, 2]
    seen = {tuple(w) for w in words.tolist()}
    assert len(seen) == 9
    for a in words[:3]:
        for b in words[:3]:
            assert tuple((a + b) % 3) in seen


@pytest.mark.parametrize("p, m", [(2, 1), (2, 5), (3, 3), (7, 2), (5, 0)])
def test_lex_grid_is_itertools_product(p, m):
    grid = lex_grid(p, m)
    assert grid.shape == (p**m, m)
    assert grid.flags.c_contiguous
    assert grid.tolist() == [list(v) for v in itertools.product(range(p), repeat=m)]


@pytest.mark.parametrize(
    "p, e, cap, what",
    [
        (37, 10**8, MAX_POINTS, "points"),
        (2, 10**12, MAX_CODEWORDS, "codewords"),
        # the first exponent at which 2**e is not formed: e * bit_length = 258
        (2, 129, MAX_POINTS, "points"),
    ],
)
def test_check_cap_refuses_a_huge_exponent_as_a_power(p, e, cap, what):
    # p**e is never formed: at 37**(10**8) that alone takes many seconds
    with pytest.raises(TooLargeError) as err:
        check_cap(p, e, None, cap, what)
    assert str(err.value) == f"{p}**{e} {what} overflow the int64 encodings"


def test_check_cap_forms_a_count_of_at_most_256_bits():
    # 2**128 (e * bit_length = 256) is formed and printed in full
    with pytest.raises(TooLargeError, match=f"^{2**128} points overflow"):
        check_cap(2, 128, None, MAX_POINTS, "points")
    # bases 0 and 1 have every power in range, so a huge exponent passes
    for p in (0, 1):
        check_cap(p, 10**12, None, MAX_POINTS, "points")


def test_enumerate_codewords_cap():
    # 37**5 codewords exceed MAX_CODEWORDS = 2**22
    code = make_code(np.eye(5, 6, dtype=np.int64), 37)
    assert code.num_codewords > MAX_CODEWORDS
    with pytest.raises(TooLargeError):
        enumerate_codewords(code)


def test_lattice_contains_wraps_mod_p():
    code = make_code([[1, 1]], 3)
    assert lattice_contains(code, [1, 1])
    assert lattice_contains(code, [2, 2])
    assert lattice_contains(code, [4, 1])  # (1,1) + 3*(1,0)
    assert lattice_contains(code, [-2, 1])
    assert not lattice_contains(code, [1, 0])
    with pytest.raises(ValueError):
        lattice_contains(code, [1, 1, 1])


@pytest.mark.parametrize("v", [[1.5, 1.2], [2**70, 0], [1, math.nan]], ids=str)
def test_lattice_contains_refuses_non_integer_vectors(v):
    code = make_code([[1, 1]], 3)
    with pytest.raises(ValueError, match="expected integer entries"):
        lattice_contains(code, v)
    # an integral float is its integer
    assert lattice_contains(code, [4.0, 1.0])


def test_make_code_refuses_a_non_integer_generator():
    with pytest.raises(ValueError, match="expected integer entries"):
        make_code([[1.5, 1]], 3)
    assert make_code([[1.0, 2.0]], 3).generator.tolist() == [[1, 2]]


def test_rate_values():
    assert abs(rate(1, 2, 37) - RATE_1_2_37) <= 1e-12
    assert rate(0, 5, 7) == 0.0
    assert abs(rate(2, 6, 7) - 2 * math.log2(7) / 6) <= 1e-15
    with pytest.raises(ValueError):
        rate(5, 5, 7)
    with pytest.raises(ValueError):
        rate(-1, 5, 7)


def test_select_k_closest_fixtures():
    cases = builtin_cases()
    assert select_k(7, 6, cases["w3"].target, "closest") == 2
    assert select_k(13, 6, cases["w4"].target, "closest") == 1
    # uniform target wants zero extra rate; smallest k is nearest
    assert select_k(5, 4, uniform_target(5), "closest") == 1


def test_select_k_theorem_fixtures():
    p5 = validate_discrete([0.4, 0.25, 0.15, 0.12, 0.08], 5)
    for n in (6, 8, 10):
        assert select_k(5, n, p5, "theorem") == 2
    assert select_k(3, 6, uniform_target(3), "theorem") == 2


def test_select_k_theorem_infeasible():
    # uniform over Z_3 at n=2 needs rate 1 bit/dim, i.e. k >= n
    with pytest.raises(NoFeasibleRateError):
        select_k(3, 2, uniform_target(3), "theorem")


def test_select_k_unknown_mode():
    with pytest.raises(ValueError):
        select_k(3, 4, uniform_target(3), "nearest")
