"""Coset-representative cells: builders, quantizer, tiling validation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lqn.partition as partition
from lqn import (
    DimensionMismatchError,
    FundamentalRegion,
    TooLargeError,
    TypicalityParams,
    build_ml_partition,
    build_region,
    build_typicality_partition,
    coset_id,
    coset_ids,
    enumerate_codewords,
    kl_region_vs_product,
    lattice_contains,
    log2_likelihoods,
    make_code,
    quantize,
    sample_generator,
    validate_discrete,
    validate_region,
)
from lqn.analysis import analyze_region, divergence_bits

C3 = make_code([[1, 1]], 3)
P532 = validate_discrete([0.5, 0.3, 0.2], 3)


def brute_force_cells(code):
    """Group all of Z_p^n by coset id. Test-local oracle."""
    p, n = code.p, code.n
    grid = np.stack(np.unravel_index(np.arange(p**n), (p,) * n), axis=1).astype(
        np.int64
    )
    cells = {}
    for v in grid:
        cells.setdefault(coset_id(code, v), []).append(tuple(int(x) for x in v))
    return cells


def oracle_region(code, target, criterion, tp):
    """Brute-force reps and good flags. Test-local oracle.

    Each coset is one of its points plus every codeword; the rule is applied
    to the members' log2_likelihoods, ties going to the smallest encoding.
    """
    p, n = code.p, code.n
    grid = np.stack(np.unravel_index(np.arange(p**n), (p,) * n), axis=1).astype(
        np.int64
    )
    _, first = np.unique(coset_ids(code, grid), return_index=True)
    members = (grid[first][:, None, :] + enumerate_codewords(code)[None]) % p
    ids = coset_ids(code, members.reshape(-1, n)).reshape(members.shape[:2])
    assert (ids == np.arange(code.num_cosets)[:, None]).all()
    ll = log2_likelihoods(members, target)
    enc = members @ (p ** np.arange(n - 1, -1, -1))
    typical = np.abs(-ll / n - target.entropy_bits) <= tp.epsilon
    if criterion == "ml":
        cand = ll == ll.max(axis=1, keepdims=True)
    else:
        cand = typical | ~typical.any(axis=1, keepdims=True)
    pick = np.where(cand, enc, p**n).argmin(axis=1)
    rows = np.arange(code.num_cosets)
    return members[rows, pick], typical[rows, pick]


def test_coset_id_fixture_and_coset_invariance():
    assert coset_id(C3, [0, 0]) == 0
    assert coset_id(C3, [0, 1]) == 1
    assert coset_id(C3, [2, 1]) == 2
    # adding any codeword never moves a point across cosets
    for v in ([0, 0], [1, 2], [2, 2], [0, 2]):
        base = coset_id(C3, v)
        for w in ([0, 0], [1, 1], [2, 2]):
            assert coset_id(C3, (np.array(v) + w) % 3) == base


def test_coset_ids_matches_scalar():
    code = sample_generator(8, 2, 4, 3)
    grid = np.stack(np.unravel_index(np.arange(81), (3,) * 4), axis=1)
    ids = coset_ids(code, grid)
    for row, got in zip(grid, ids):
        assert coset_id(code, row) == got
    assert sorted(np.unique(ids)) == list(range(9))


def _unit_row_code(n):
    """The binary code spanned by e_0 in Z_2^n, with 2**(n-1) cosets."""
    return make_code(np.eye(n, dtype=np.int64)[:1], 2)


def test_coset_ids_refuse_a_code_with_more_cosets_than_int64_holds():
    # 2**69 cosets: int64 base-2 place values wrap, so e_1 once took coset 0's
    # index and e_6 the index -2**63
    code, unit = _unit_row_code(70), np.eye(70, dtype=np.int64)
    for j in (1, 6):
        assert not lattice_contains(code, unit[j])
        with pytest.raises(TooLargeError, match=f"^{2**69} cosets overflow the int64"):
            coset_id(code, unit[j])
    with pytest.raises(TooLargeError, match=f"^{2**63} cosets overflow the int64"):
        coset_ids(_unit_row_code(64), unit[:3, :64])


def test_coset_ids_reach_the_largest_int64_code():
    # 2**62 cosets, the most a binary code's indices hold: e_j is coset 2**(62 - j)
    unit = np.eye(63, dtype=np.int64)
    ids = coset_ids(_unit_row_code(63), unit)
    assert ids.tolist() == [0] + [2 ** (62 - j) for j in range(1, 63)]
    assert coset_id(_unit_row_code(63), unit[1] + unit[2] + unit[62]) == 2**61 + 2**60 + 1


@pytest.mark.parametrize("y", [5, [[1, 2, 0]], [1, 2]], ids=str)
def test_coset_id_refuses_anything_but_one_length_n_vector(y):
    # a scalar once raised IndexError, a 1 x n matrix TypeError, and a short
    # vector numpy's matmul message; lattice_contains and quantize refuse all three
    code = make_code([[1, 2, 0]], 3)
    region = build_ml_partition(code, validate_discrete([0.2, 0.3, 0.5], 3))
    for call in (coset_id, lattice_contains, quantize):
        with pytest.raises(ValueError, match="^expected a length-3 vector$"):
            call(region if call is quantize else code, y)


def test_ml_region_fixture():
    # independently enumerated optimum per coset for P = (0.5, 0.3, 0.2)
    region = build_ml_partition(C3, P532)
    assert region.reps.tolist() == [[0, 0], [0, 1], [1, 0]]
    assert region.criterion == "ml"
    assert region.size == 3
    assert region.good_flags.all()
    assert region.bad_count == 0
    assert region.epsilon == 0.5


def test_ml_breaks_ties_lexicographically():
    # masses of (0,0) and (1,1) tie exactly; the smaller encoding wins
    t = validate_discrete([0.4, 0.4, 0.2], 3)
    region = build_ml_partition(C3, t)
    assert region.reps[0].tolist() == [0, 0]


def test_typicality_fallback_fixture():
    # P = (0.9, 0.05, 0.05): only (0,0) is typical; other cosets fall back to
    # their lexicographically smallest member and are flagged bad
    t = validate_discrete([0.9, 0.05, 0.05], 3)
    region = build_typicality_partition(C3, t)
    assert region.reps.tolist() == [[0, 0], [0, 1], [0, 2]]
    assert region.good_flags.tolist() == [True, False, False]
    assert region.bad_count == 2


def test_typicality_prefers_typical_over_smaller():
    # coset {(0,0),(1,1),(2,2)}: (0,0) is lex-smallest but only (1,1) is
    # typical, so the builder must skip ahead
    t = validate_discrete([0.05, 0.9, 0.05], 3)
    region = build_typicality_partition(C3, t)
    assert region.reps[0].tolist() == [1, 1]
    assert region.good_flags[0]


def test_ml_matches_exhaustive_search():
    rng = np.random.default_rng(21)
    for p, n in ((3, 3), (5, 4)):
        for trial in range(5):
            raw = rng.dirichlet(np.ones(p)).clip(1e-3)
            t = validate_discrete(raw / raw.sum(), p)
            code = sample_generator((100 + trial, p), 1, n, p)
            region = build_ml_partition(code, t)
            cells = brute_force_cells(code)
            for s, members in cells.items():
                best = max(
                    members,
                    key=lambda v: (
                        math.fsum(math.log2(t.probs[i]) for i in v),
                        [-c for c in v],
                    ),
                )
                got = tuple(region.reps[s].tolist())
                got_ll = math.fsum(math.log2(t.probs[i]) for i in got)
                best_ll = math.fsum(math.log2(t.probs[i]) for i in best)
                assert got_ll >= best_ll - 1e-12


def test_good_flags_follow_epsilon_override():
    t = validate_discrete([0.9, 0.05, 0.05], 3)
    tight = build_typicality_partition(C3, t, tp=TypicalityParams(n=2, epsilon=1e-3))
    assert tight.epsilon == 1e-3
    assert not tight.good_flags.any()
    loose = build_typicality_partition(C3, t, tp=TypicalityParams(n=2, epsilon=5.0))
    assert loose.good_flags.all()
    # with a huge budget every coset's lex-smallest member is typical
    assert loose.reps.tolist() == [[0, 0], [0, 1], [0, 2]]


def test_build_respects_point_cap():
    with pytest.raises(TooLargeError):
        build_ml_partition(C3, P532, max_points=8)
    build_ml_partition(C3, P532, max_points=9)


def test_build_rejects_modulus_mismatch():
    t5 = validate_discrete([0.2] * 5, 5)
    with pytest.raises(ValueError):
        build_ml_partition(C3, t5)


@pytest.mark.parametrize("criterion", ["ml", "typicality"])
def test_build_rejects_block_length_mismatch(monkeypatch, criterion):
    # a typicality test for 3-blocks says nothing about 5-dimensional points
    def refuse(*args):
        raise AssertionError("selected before checking the block length")

    monkeypatch.setattr(partition, "choose", refuse)
    code = sample_generator(3, 2, 5, 3)
    with pytest.raises(DimensionMismatchError, match="block length 3 != code length 5"):
        build_region(code, P532, criterion, tp=TypicalityParams(n=3, epsilon=0.5))


@pytest.mark.parametrize("criterion", ["ML", "Typicality", "", "lexicographic"])
def test_unknown_criterion_is_refused(criterion):
    with pytest.raises(ValueError, match="unknown criterion"):
        partition.choose(C3, P532, criterion, 0.5, None)
    with pytest.raises(ValueError, match="unknown criterion"):
        build_region(C3, P532, criterion)


def test_builders_are_deterministic():
    code = sample_generator(9, 2, 5, 3)
    t = validate_discrete([0.6, 0.25, 0.15], 3)
    ref = build_typicality_partition(code, t)
    again = build_typicality_partition(code, t)
    assert np.array_equal(ref.reps, again.reps)
    assert np.array_equal(ref.good_flags, again.good_flags)
    # a build for another target in between must not change any choice
    build_typicality_partition(code, validate_discrete([0.2, 0.3, 0.5], 3))
    after = build_typicality_partition(code, t)
    assert np.array_equal(ref.reps, after.reps)
    assert np.array_equal(ref.good_flags, after.good_flags)


MAX_N = {2: 12, 3: 8, 5: 6}


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from(sorted(MAX_N)),
    sizes=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    seed=st.integers(0, 2**32 - 1),
    uniform=st.booleans(),
)
@example(p=2, sizes=(9, 8), seed=1, uniform=False)
@example(p=2, sizes=(12, 10), seed=2, uniform=True)
@example(p=3, sizes=(8, 4), seed=3, uniform=False)
@example(p=5, sizes=(6, 5), seed=4, uniform=False)
# first draws k = 7 and k = 6: 3**7 and 3**6 messages widen first_hit's weights
@example(p=3, sizes=(8, 8), seed=1, uniform=True)
def test_builders_match_brute_force_oracle(p, sizes, seed, uniform):
    rng = np.random.default_rng(seed)
    # small integer weights make many likelihood sums tie exactly
    weights = rng.integers(1, 4, size=p)
    tied = validate_discrete(weights / weights.sum(), p)
    other = np.full(p, 1.0 / p) if uniform else rng.dirichlet(np.ones(p)).clip(1e-3)
    other = validate_discrete(other / other.sum(), p)
    n1, n2 = (min(n, MAX_N[p]) for n in sizes)
    # alternate targets and block lengths, so state kept between builds would show
    for target, n in ((tied, n1), (other, n1), (tied, n2), (tied, n1)):
        k = int(rng.integers(1, n))
        code = sample_generator((seed, n, k), k, n, p)
        tp = TypicalityParams.default(n)
        for criterion, build in (
            ("ml", build_ml_partition),
            ("typicality", build_typicality_partition),
        ):
            region = build(code, target)
            reps, good = oracle_region(code, target, criterion, tp)
            assert np.array_equal(region.reps, reps)
            assert np.array_equal(region.good_flags, good)
            # the score search ranks trials by, with no region built, is the
            # divergence of the region it would build, bit for bit
            pick = partition.choose(code, target, criterion, tp.epsilon, None)
            assert divergence_bits(pick[1]) == kl_region_vs_product(region, target)
            # without rows, ML returns None for them and the same sums; typicality,
            # whose sums are read at its rows, returns both unchanged
            row, ll = partition.choose(code, target, criterion, tp.epsilon, None, with_rows=False)
            if criterion == "ml":
                assert row is None
            else:
                assert np.array_equal(row, pick[0])
            assert np.array_equal(ll.view(np.uint64), pick[1].view(np.uint64))
            # the region search builds from the pick it kept is the builder's region
            kept = partition.region_of(code, target, criterion, tp.epsilon, pick)
            assert np.array_equal(kept.reps, reps)
            assert np.array_equal(kept.good_flags, good)


def _picks_in_blocks(monkeypatch, code, target, criterion, budget):
    """choose's (row, ll bits) with the block budget set, and each block's width in
    order; under ML, also the ll bits of a pass without rows, which finds no row."""
    widths = []
    first_hit = partition.first_hit

    def recording(hits):
        widths.append(hits.shape[1])
        return first_hit(hits)

    with monkeypatch.context() as mp:
        mp.setattr(partition, "_BLOCK_POINTS", budget)
        mp.setattr(partition, "first_hit", recording)
        row, ll = partition.choose(code, target, criterion, 1 / code.n, None)
        picks = (row.tolist(), ll.view(np.uint64).tolist())
        if criterion == "ml":
            found = len(widths)
            _, ll = partition.choose(code, target, criterion, 1 / code.n, None, with_rows=False)
            assert len(widths) == found
            picks += (ll.view(np.uint64).tolist(),)
    return picks, widths


# (code, budget, the widths of the blocks under the first prefix, block count)
BLOCK_CASES = {
    # 16 messages and 4 columns a block: the first five free digits are fixed
    "five-fixed-digits": (sample_generator(41, 4, 12, 2), 64, [4], 64),
    "four-fixed-digits": (sample_generator(42, 2, 8, 3), 27, [3], 243),
    # a span of 2 over p = 5 leaves a last span of one value
    "partial-last-span": (sample_generator(43, 2, 5, 5), 250, [10, 10, 5], 15),
    # 81 messages exceed the budget, so every block is one column
    "one-column-blocks": (sample_generator(44, 4, 6, 3), 32, [1], 9),
    # pivots (1, 3): free coordinates 0 and 2 come before a pivot
    "pivots-not-leading": (make_code([[0, 1, 2, 0, 1, 1], [0, 0, 0, 1, 2, 2]], 3), 27, [3], 27),
}


@pytest.mark.parametrize("criterion", ["ml", "typicality"])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocks_match_one_block_bit_for_bit(monkeypatch, case, criterion):
    code, budget, first_widths, blocks = BLOCK_CASES[case]
    p, n = code.p, code.n
    if case == "pivots-not-leading":
        assert code.pivot_cols == (1, 3)
    rng = np.random.default_rng(n)
    # small integer weights make many sums tie exactly; the other target ties rarely
    for weights in (rng.integers(1, 4, size=p), rng.dirichlet(np.ones(p)).clip(1e-3)):
        target = validate_discrete(weights / weights.sum(), p)
        whole, one = _picks_in_blocks(monkeypatch, code, target, criterion, p**n)
        assert one == [p ** (n - code.k)]
        blocked, widths = _picks_in_blocks(monkeypatch, code, target, criterion, budget)
        assert widths[: len(first_widths)] == first_widths
        assert len(widths) == blocks and sum(widths) == p ** (n - code.k)
        assert blocked == whole


@pytest.mark.parametrize(
    "args",
    [(2, (9, 8), 1, False), (2, (12, 10), 2, True), (3, (8, 4), 3, False),
     (5, (6, 5), 4, False), (3, (8, 8), 1, True)],
    ids=str,
)
def test_oracle_examples_hold_in_blocks_of_four_points(monkeypatch, args):
    # the @example cases of the brute-force oracle test, with at most 4 points a block
    # where the messages allow it, and one column a block where they do not
    monkeypatch.setattr(partition, "_BLOCK_POINTS", 4)
    test_builders_match_brute_force_oracle.hypothesis.inner_test(*args)


@pytest.mark.parametrize("criterion", ["ml", "typicality"])
def test_choose_memory_is_bounded_by_the_block_budget(criterion):
    # 2**22 points: one (2**7, 2**15) float64 sum array alone would take 32 MiB
    p, n, k = 2, 22, 7
    code = sample_generator((22, 7), k, n, p)
    target = validate_discrete([0.8, 0.2], p)
    tracemalloc.start()
    try:
        row, ll = partition.choose(code, target, criterion, 1 / n, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * partition._BLOCK_POINTS + row.nbytes + ll.nbytes


@pytest.mark.parametrize("criterion", ["ml", "typicality"])
def test_region_of_memory_is_bounded_by_its_columns(criterion):
    # 2**15 representatives of 22 entries; a (2**15, 15) syndrome digit grid or the
    # picked rows' (2**15, 15) shifts would each take 15 columns, against 4 allowed
    p, n, k = 2, 22, 7
    code = sample_generator((22, 7), k, n, p)
    target = validate_discrete([0.8, 0.2], p)
    pick = partition.choose(code, target, criterion, 1 / n, None)
    tracemalloc.start()
    try:
        region = partition.region_of(code, target, criterion, 1 / n, pick)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < region.reps.nbytes + 4 * 8 * p ** (n - k)


@pytest.mark.parametrize("criterion", ["ml", "typicality"])
def test_region_of_holds_one_member_table(criterion):
    # 2**16 messages of 22 coordinates: the member table is 22 rows of 2**16, and
    # a message grid beside a shift table and its product would take 28
    p, n, k = 2, 22, 16
    code = sample_generator((22, 16), k, n, p)
    target = validate_discrete([0.9, 0.1], p)
    pick = partition.choose(code, target, criterion, 1 / n, None)
    tracemalloc.start()
    try:
        region = partition.region_of(code, target, criterion, 1 / n, pick)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < region.reps.nbytes + 8 * (n + 4) * p**k
    assert region.reps.flags.f_contiguous


@pytest.mark.parametrize("criterion", ["ml", "typicality"])
def test_analyze_region_memory_is_bounded_by_its_columns(criterion):
    # the divergence adds the 2**15 representatives' log2 masses one gathered column
    # at a time: a (2**15, 22) float table of terms would take 22 columns, against 3
    p, n, k = 2, 22, 7
    code = sample_generator((22, 7), k, n, p)
    target = validate_discrete([0.8, 0.2], p)
    pick = partition.choose(code, target, criterion, 1 / n, None)
    region = partition.region_of(code, target, criterion, 1 / n, pick)
    tracemalloc.start()
    try:
        analyze_region(region, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * p ** (n - k)


@settings(max_examples=40, deadline=None)
@given(
    # 255/256 and 65535/65536 rows are where the weights widen to uint16 and uint32
    rows=st.sampled_from([1, 2, 7, 255, 256, 257, 65535, 65536, 65537]),
    cols=st.integers(1, 6),
    levels=st.integers(1, 4),
    density=st.sampled_from([0.0, 1e-4, 0.01, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_hit_matches_argmax(rows, cols, levels, density, seed):
    rng = np.random.default_rng(seed)
    # few distinct values, so the maximum of a column is tied in many rows
    ll = rng.integers(0, levels, size=(rows, cols)).astype(np.float64)
    np.testing.assert_array_equal(partition.first_hit(ll == ll.max(axis=0)), ll.argmax(axis=0))
    mask = rng.random((rows, cols)) < density
    # all-False columns fall back to row 0
    mask[:, 0] = False
    if cols > 1:
        mask[:, 1] = False
        mask[-1, 1] = True
    expected = (mask | ~mask.any(axis=0)).argmax(axis=0)
    row = partition.first_hit(mask)
    np.testing.assert_array_equal(row, expected)
    assert row.dtype == np.int64


def test_quantize_fixture():
    region = build_ml_partition(C3, P532)
    out = quantize(region, [4, 2])
    assert out.remainder.tolist() == [0, 1]
    assert out.lattice_point.tolist() == [4, 1]
    assert lattice_contains(C3, out.lattice_point)
    back = out.lattice_point + out.remainder
    assert back.tolist() == [4, 2]
    with pytest.raises(ValueError):
        quantize(region, [1, 2, 3])


@pytest.mark.parametrize("y", [[1.5, 0.2], [4, 2.5], [2**70, 0], [math.inf, 0]], ids=str)
def test_quantize_refuses_non_integer_vectors(y):
    region = build_ml_partition(C3, P532)
    with pytest.raises(ValueError, match="expected integer entries"):
        quantize(region, y)


def test_quantize_refuses_a_lattice_point_below_int64():
    # the representative [1, 2, 2] takes the first two entries below -2**63; they
    # once wrapped to 2**63 - 1, a point off the lattice
    region = build_ml_partition(make_code([[1, 2, 0]], 3), validate_discrete([0.2, 0.3, 0.5], 3))
    low = -(2**63)
    with pytest.raises(ValueError, match="leaves int64"):
        quantize(region, [low, low + 1, 5])
    # the same coset three higher stays in range
    out = quantize(region, [low + 3, low + 4, 5])
    assert out.remainder.tolist() == [1, 2, 2]
    assert out.lattice_point.tolist() == [low + 2, low + 2, 3]
    assert lattice_contains(region.code, out.lattice_point)


def test_quantize_takes_integral_floats_as_integers():
    region = build_ml_partition(C3, P532)
    out, ref = quantize(region, [4.0, -2.0]), quantize(region, [4, -2])
    assert out.lattice_point.tolist() == ref.lattice_point.tolist()
    assert out.remainder.tolist() == ref.remainder.tolist()
    assert (out.lattice_point + out.remainder).tolist() == [4, -2]


def test_quantize_covers_negative_inputs():
    region = build_ml_partition(C3, P532)
    rng = np.random.default_rng(12)
    for _ in range(50):
        y = rng.integers(-50, 50, size=2)
        out = quantize(region, y)
        assert lattice_contains(C3, out.lattice_point)
        assert (out.lattice_point + out.remainder == y).all()
        # remainder is the cell member of y's coset
        assert out.remainder.tolist() == region.reps[coset_id(C3, y % 3)].tolist()


def test_validate_region_passes_for_builders():
    t = validate_discrete([0.6, 0.25, 0.15], 3)
    for builder in (build_ml_partition, build_typicality_partition):
        for seed in (1, 2):
            code = sample_generator(seed, 2, 5, 3)
            check = validate_region(builder(code, t))
            assert check.ok
            assert check.failure is None


def test_validate_region_reports_misplaced_representative():
    region = build_ml_partition(C3, P532)
    # move the syndrome-1 representative into coset 2
    reps = region.reps.copy()
    reps[1] = reps[2]
    bad = FundamentalRegion(C3, reps, region.good_flags, "ml", 0.5)
    check = validate_region(bad)
    assert not check.ok
    assert check.failure == "representative in wrong coset"
    assert check.counterexample[0] == 1


def test_validate_region_reports_wrong_size():
    region = build_ml_partition(C3, P532)
    bad = FundamentalRegion(C3, region.reps[:2], region.good_flags[:2], "ml", 0.5)
    check = validate_region(bad)
    assert not check.ok
    assert check.failure == "cell size"


def test_region_arrays_read_only():
    region = build_ml_partition(C3, P532)
    with pytest.raises(ValueError):
        region.reps[0, 0] = 1
    with pytest.raises(ValueError):
        region.good_flags[0] = False


def test_partition_handles_binary_field():
    code = make_code([[1, 1, 1]], 2)
    t = validate_discrete([0.7, 0.3], 2)
    region = build_typicality_partition(code, t)
    assert region.size == 4
    assert validate_region(region).ok
