"""Divergence reports, the eps* budget, and the matchability machinery."""

import math
import tracemalloc

import numpy as np
import pytest

import lqn.analysis
import lqn.codes
from lqn import (
    FundamentalRegion,
    TooLargeError,
    analyze_region,
    build_ml_partition,
    build_typicality_partition,
    enumerate_codewords,
    estimate_match_probability,
    eps_star,
    kl_region_vs_product,
    lemma1_bound,
    log2_likelihoods,
    make_code,
    marginals,
    rate,
    sample_generator,
    select_k,
    sum_marginal_kl,
    uniform_target,
    validate_discrete,
)
from lqn.cases import builtin_cases
from lqn.codes import draw_full_rank, lex_grid
from lqn.distributions import typical
from lqn.zplinalg import rref

C3 = make_code([[1, 1]], 3)
P532 = validate_discrete([0.5, 0.3, 0.2], 3)

# frozen fixtures, independently recomputed with plain math.log2 sums
D_ML_FIXTURE = 0.9063478953896484
D_FALLBACK_FIXTURE = 1.4989936871304859
EPS_STAR_FALLBACK = 3.6686216675320544
D_BOX_FIXTURE = 1.1013353956300338
SUM_MARGINAL_BOX = 1.1013353956300331
LEMMA1_W3_PARAMS = 1.8573127616972889  # n=6, R=rate(2,6,7), p=7, H(w3), eps=1/6
H_W3 = 1.9332062193464952


def double_loop_divergence(region, target):
    """Naive oracle: scalar loops, fsum accumulation."""
    total = 0.0
    for rep in region.reps.tolist():
        total += math.fsum(math.log2(target.probs[i]) for i in rep)
    return -math.log2(region.size) - total / region.size


def test_divergence_fixture():
    region = build_ml_partition(C3, P532)
    d = kl_region_vs_product(region, P532)
    assert abs(d - D_ML_FIXTURE) <= 1e-12


def test_divergence_matches_double_loop_oracle():
    rng = np.random.default_rng(30)
    fixtures = [(3, 4, 1), (3, 6, 2), (3, 8, 3), (5, 3, 1), (7, 2, 1)]
    for p, n, k in fixtures:
        raw = rng.dirichlet(np.ones(p)).clip(1e-3)
        t = validate_discrete(raw / raw.sum(), p)
        code = sample_generator((44, p, n), k, n, p)
        for builder in (build_ml_partition, build_typicality_partition):
            region = builder(code, t)
            d = kl_region_vs_product(region, t)
            assert abs(d - double_loop_divergence(region, t)) <= 1e-12


def test_uniform_target_divergence_is_code_rate_total():
    # uniform target: every rep has likelihood p**-n, so D = k log2 p exactly
    for p, n, k in ((3, 5, 1), (3, 5, 2), (5, 4, 2)):
        t = uniform_target(p)
        region = build_ml_partition(sample_generator((6, k), k, n, p), t)
        assert abs(kl_region_vs_product(region, t) - k * math.log2(p)) <= 1e-9


def test_divergence_formula_degenerate_zero():
    # hand-built region object: all representatives at the origin and
    # P(0) = 1/sqrt(3) drive the formula to zero exactly
    a = 1 / math.sqrt(3)
    t = validate_discrete([a, 0.3, 1.0 - a - 0.3], 3)
    fr = FundamentalRegion(
        C3, np.zeros((3, 2), dtype=np.int64), np.ones(3, dtype=bool), "ml", 0.5
    )
    assert abs(kl_region_vs_product(fr, t)) <= 1e-12


def test_marginals_box_fixture():
    # reps {0} x Z_3 form a coordinate box: marginals split exactly
    reps = np.array([[0, 0], [0, 1], [0, 2]], dtype=np.int64)
    fr = FundamentalRegion(C3, reps, np.ones(3, dtype=bool), "typicality", 0.5)
    m = marginals(fr)
    assert m.shape == (2, 3)
    assert m[0].tolist() == [1.0, 0.0, 0.0]
    assert np.allclose(m[1], [1 / 3, 1 / 3, 1 / 3])
    assert abs(sum_marginal_kl(fr, P532) - SUM_MARGINAL_BOX) <= 1e-12
    assert abs(kl_region_vs_product(fr, P532) - D_BOX_FIXTURE) <= 1e-12
    # box cells split the divergence across coordinates
    assert abs(sum_marginal_kl(fr, P532) - kl_region_vs_product(fr, P532)) <= 1e-12


def test_sum_marginal_never_exceeds_joint():
    rng = np.random.default_rng(31)
    for trial in range(10):
        p = (3, 5)[trial % 2]
        raw = rng.dirichlet(np.ones(p)).clip(1e-3)
        t = validate_discrete(raw / raw.sum(), p)
        code = sample_generator((77, trial), 1, 4, p)
        for builder in (build_ml_partition, build_typicality_partition):
            region = builder(code, t)
            joint = kl_region_vs_product(region, t)
            assert sum_marginal_kl(region, t) <= joint + 1e-9


def test_eps_star_fallback_fixture():
    t = validate_discrete([0.9, 0.05, 0.05], 3)
    region = build_typicality_partition(C3, t)
    bf, budget = eps_star(region, t)
    assert abs(bf - 2 / 3) <= 1e-15
    assert abs(budget - EPS_STAR_FALLBACK) <= 1e-12
    d = kl_region_vs_product(region, t)
    assert abs(d - D_FALLBACK_FIXTURE) <= 1e-12
    # 0.749 bits/dim against a 3.669 budget
    assert analyze_region(region, t).bound_satisfied


def test_analysis_report_is_consistent():
    t = validate_discrete([0.9, 0.05, 0.05], 3)
    region = build_typicality_partition(C3, t)
    rep = analyze_region(region, t)
    assert rep.D_total_bits == kl_region_vs_product(region, t)
    assert rep.D_per_dim == rep.D_total_bits / 2
    assert abs(rep.bad_fraction - 2 / 3) <= 1e-15
    assert rep.epsilon == 0.5
    assert rep.eps_star == eps_star(region, t)[1]
    assert rep.marginal_distributions.shape == (2, 3)
    assert rep.bound_satisfied


def test_analysis_computes_each_part_once(monkeypatch):
    t = validate_discrete([0.9, 0.05, 0.05], 3)
    region = build_typicality_partition(sample_generator(4, 1, 4, 3), t)
    calls = []
    for name in ("marginals", "alpha"):
        def counted(*a, _fn=getattr(lqn.analysis, name), _name=name):
            calls.append(_name)
            return _fn(*a)
        monkeypatch.setattr(lqn.analysis, name, counted)
    rep = analyze_region(region, t)
    assert sorted(calls) == ["alpha", "marginals"]
    monkeypatch.undo()
    # the parts it passes on give the public functions' values, bit for bit
    np.testing.assert_array_equal(rep.marginal_distributions, marginals(region))
    assert rep.sum_marginal_D_bits == sum_marginal_kl(region, t)
    assert (rep.bad_fraction, rep.eps_star) == eps_star(region, t)
    assert rep.alpha == lqn.analysis.alpha(t)


def test_bound_check_reports_violations_honestly():
    # uniform target with a deliberately oversized rate: D/dim = k log2(p) / n
    # exceeds the 3 eps budget and the flag must say so
    t = uniform_target(5)
    region = build_typicality_partition(sample_generator(3, 2, 4, 5), t)
    rep = analyze_region(region, t)
    assert rep.bad_fraction == 0.0
    assert rep.alpha == 0.0
    assert rep.D_per_dim > rep.eps_star
    assert not rep.bound_satisfied


def test_lemma1_threshold_identity():
    # at R = log2(p) - H + eps the exponent collapses and only the prefactor
    # (1 - eps)^-1 survives; exact float equality by construction
    for p, h, n, eps in ((5, 2.0978918149482820, 6, 1 / 6), (7, H_W3, 4, 0.25)):
        threshold = math.log2(p) - h + eps
        assert lemma1_bound(n, threshold, p, h, eps) == 1.0 / (1.0 - eps)


def test_lemma1_halves_per_extra_bit_of_total_rate():
    base = lemma1_bound(6, 1.2, 7, H_W3, 1 / 6)
    up = lemma1_bound(6, 1.2 + 1 / 6, 7, H_W3, 1 / 6)
    assert abs(up / base - 0.5) <= 1e-12


def test_lemma1_frozen_value_and_domain():
    got = lemma1_bound(6, rate(2, 6, 7), 7, H_W3, 1 / 6)
    assert abs(got - LEMMA1_W3_PARAMS) <= 1e-12
    with pytest.raises(ValueError):
        lemma1_bound(6, 1.0, 7, H_W3, 0.0)
    with pytest.raises(ValueError):
        lemma1_bound(6, 1.0, 7, H_W3, 1.0)


def test_estimator_uniform_never_fails():
    # uniform target: every difference vector is exactly typical
    est = estimate_match_probability(uniform_target(5), 4, 1, 50, 99)
    assert est.trials == 50
    assert est.failures == 0
    assert est.empirical_failure_rate == 0.0


def test_estimator_detects_hopeless_rate():
    # heavily skewed target, tiny codebook: almost every trial fails
    t = validate_discrete([0.9, 0.05, 0.05], 3)
    est = estimate_match_probability(t, 8, 1, 50, 99)
    assert est.empirical_failure_rate >= 0.9
    assert est.chebyshev_bound == lemma1_bound(8, rate(1, 8, 3), 3, t.entropy_bits, 1 / 8)


def test_estimator_is_deterministic_and_capped():
    t = validate_discrete([0.6, 0.25, 0.15], 3)
    a = estimate_match_probability(t, 6, 1, 40, 5)
    b = estimate_match_probability(t, 6, 1, 40, 5)
    assert a == b
    # 37**5 messages exceed MAX_CODEWORDS = 2**22
    with pytest.raises(TooLargeError):
        estimate_match_probability(uniform_target(37), 6, 5, 10, 5)


def _no_draw(*args):
    raise AssertionError("drew a code")


def _forbid_draws(monkeypatch):
    """Any trial's draw fails the test: the estimator draws only through trial_draws."""
    monkeypatch.setattr(lqn.analysis, "trial_draws", _no_draw)


@pytest.mark.parametrize("trials", [0, -3])
def test_estimator_refuses_fewer_than_one_trial(monkeypatch, trials):
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match="at least one trial"):
        estimate_match_probability(P532, 6, 1, trials, 5)


@pytest.mark.parametrize("epsilon", [0.0, 1.5, math.nan])
def test_estimator_refuses_a_bad_epsilon_before_any_draw(monkeypatch, epsilon):
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
        estimate_match_probability(P532, 6, 1, 2000, 5, epsilon=epsilon)


@pytest.mark.parametrize("k", [0, 6])
def test_estimator_refuses_a_bad_dimension_before_any_draw(monkeypatch, k):
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match="k="):
        estimate_match_probability(P532, 6, k, 10, 5)


@pytest.mark.parametrize("seed", [-1, (5, -1)], ids=str)
def test_estimator_refuses_a_negative_seed_before_any_draw(monkeypatch, seed):
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        estimate_match_probability(P532, 6, 1, 10, seed)


def _oracle_failures(target, n, k, trials, seed):
    """Per-trial reference: fresh substream, full enumeration, shifted differences."""
    failures = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        code = draw_full_rank(rng, k, n, target.p)
        shift = rng.integers(0, target.p, size=n, dtype=np.int64)
        diffs = (-(enumerate_codewords(code) + shift)) % target.p
        if not typical(log2_likelihoods(diffs, target), n, target, 1.0 / n).any():
            failures += 1
    return failures


def _first_draw_is_deficient(seed, t, k, n, p):
    rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
    return rref(rng.integers(0, p, size=(k, n), dtype=np.int64), p).rank < k


W3_PROBS = [0.05, 0.6, 0.05, 0.05, 0.15, 0.05, 0.05]
W4_PROBS = builtin_cases()["w4"].target.probs.tolist()


def _heavy_symbols(p, heavy):
    """A pmf on Z_p whose first `heavy` symbols share all but 1e-6 of the mass."""
    probs = np.full(p, 1e-6 / (p - heavy))
    probs[:heavy] = (1 - 1e-6) / heavy
    return probs


@pytest.mark.parametrize(
    "probs, n, k, trials, seed, head_entries",
    [
        ([0.6, 0.25, 0.15], 6, 1, 60, 5, None),
        ([0.6, 0.25, 0.15], 6, 2, 60, 17, None),
        ([0.9, 0.05, 0.05], 8, 1, 60, 99, None),
        (W3_PROBS, 6, 2, 60, 3, None),
        ([0.7, 0.1, 0.1, 0.05, 0.05], 5, 2, 60, 8, None),
        # about 38 % of first draws are rank-deficient and redrawn
        ([0.8, 0.2], 4, 3, 60, 0, None),
        # 2**16 messages exceed the block bound: one trial per block
        ([13 / 15, 2 / 15], 30, 16, 7, 1, None),
        # 2**14 messages: blocks of two trials, and a last block of one
        ([6 / 7, 1 / 7], 28, 14, 7, 0, None),
        # the bounds-mc workload: w3 at its theorem dimension, 239 failures
        (W3_PROBS, 6, 3, 2000, 0, None),
        # 2039**2 is the largest prime square under MAX_CODEWORDS: one trial per
        # block, each a full 2039 x 2039 table of message halves
        (_heavy_symbols(2039, 11), 3, 2, 2, 0, None),
        # 6**6 = 46,656 head entries: every coordinate is scored by the head lookup
        ([0.7, 0.2, 0.1], 6, 2, 60, 4, None),
        # 26**3 = 17,576 head entries: three coordinates in the head, three after it
        (W4_PROBS, 6, 1, 60, 1, None),
        # the digit tables take 7**3 + 7**4 and 2**15 + 2**14 entries: one entry less of
        # budget scores the same trials through the int64 product and mod p step
        (W3_PROBS, 6, 3, 2000, 0, 7**3 + 7**4 - 1),
        ([6 / 7, 1 / 7], 28, 14, 7, 0, 2**15 + 2**14 - 1),
    ],
    # the 60-trial cases keep the ids pytest derives from (probs, n, k, seed)
    ids=[
        "probs0-6-1-5", "probs1-6-2-17", "probs2-8-1-99", "probs3-6-2-3", "probs4-5-2-8",
        "rank-deficient", "one-trial-blocks", "two-trial-blocks", "bounds-mc", "largest-square",
        "head-is-every-coordinate", "w4-head-of-three", "bounds-mc-products",
        "two-trial-blocks-products",
    ],
)
def test_estimator_matches_per_trial_oracle(monkeypatch, probs, n, k, trials, seed, head_entries):
    target = validate_discrete(probs, len(probs))
    caps, redraws = [], []
    check_cap = lqn.analysis.check_cap

    def counting_cap(*args):
        caps.append(args)
        return check_cap(*args)

    def counting_draw(*args):
        redraws.append(args)
        return draw_full_rank(*args)

    monkeypatch.setattr(lqn.analysis, "check_cap", counting_cap)
    monkeypatch.setattr(lqn.codes, "draw_full_rank", counting_draw)
    if head_entries is not None:
        monkeypatch.setattr(lqn.analysis, "_HEAD_ENTRIES", head_entries)
    est = estimate_match_probability(target, n, k, trials, seed)
    assert len(caps) == 1
    assert 0 < est.failures < trials
    assert est.failures == _oracle_failures(target, n, k, trials, seed)
    assert est.empirical_failure_rate == est.failures / trials
    # only a rank-deficient first draw goes through draw_full_rank
    p = target.p
    assert len(redraws) == sum(
        _first_draw_is_deficient(seed, t, k, n, p) for t in range(trials)
    )


P7 = [0.4, 0.2, 0.15, 0.1, 0.07, 0.05, 0.03]


@pytest.mark.parametrize("products", [False, True], ids=["digit-tables", "products"])
@pytest.mark.parametrize(
    "probs, n, k, bad",
    [
        # no vector of Z_2^4 is typical, so all 4 cosets are bad
        ([0.9, 0.1], 4, 2, 4),
        # 1 bad coset of 343
        (P7, 5, 2, 1),
        ([0.8, 0.2], 12, 7, 7),
        ([0.5, 0.3, 0.2], 8, 2, 13),
        (W4_PROBS, 4, 1, 420),
    ],
    ids=["2-all-bad", "7-few-bad", "2-12-7", "3-8-2", "13-4-1"],
)
def test_estimator_failures_count_the_bad_cosets(monkeypatch, probs, n, k, bad, products):
    # A trial with code C and shift s fails when no -(c + s), c in C, is typical:
    # those vectors are the coset of -s, so the trial fails exactly when that
    # coset is bad under the typicality rule at the same epsilon. One code fed
    # every shift of Z_p^n meets each coset p**k times.
    p = len(probs)
    target = validate_discrete(probs, p)
    code = sample_generator((5, n, 0), k, n, p)
    region = build_typicality_partition(code, target)
    assert region.bad_count == bad
    drawn = np.empty((p**n, k + 1, n), dtype=np.int64)
    drawn[:, :k], drawn[:, k] = code.generator, lex_grid(p, n)

    def every_shift(seed, start, count, *shape):
        return drawn[start : start + count]

    monkeypatch.setattr(lqn.analysis, "trial_draws", every_shift)
    # the digit tables' entries; one fewer of budget forms the digits by products
    tables = p ** (2 * (k // 2) + 1) + p ** (2 * (k - k // 2))
    assert tables <= lqn.analysis._HEAD_ENTRIES
    if products:
        monkeypatch.setattr(lqn.analysis, "_HEAD_ENTRIES", tables - 1)
    est = estimate_match_probability(target, n, k, p**n, 0)
    assert est.failures == region.bad_count * p**k


@pytest.mark.parametrize(
    "probs, n, k, trials",
    [(W3_PROBS, 6, 3, 2000), ([13 / 15, 2 / 15], 30, 16, 7)],
    ids=["bounds-mc", "one-trial-blocks"],
)
def test_estimator_memory_is_bounded_by_its_blocks(probs, n, k, trials):
    # all 2000 bounds-mc trials scanned at once would take 5.5 MB per float array,
    # and a head over all 30 binary coordinates 4**30 doubles
    target = validate_discrete(probs, len(probs))
    tracemalloc.start()
    try:
        estimate_match_probability(target, n, k, trials, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one draw chunk, a block's sums, indices and gathered masses, and the head table
    block = max(lqn.analysis._BLOCK_ELEMENTS, target.p**k)
    assert peak < 8 * (lqn.analysis._DRAW_WORDS + 3 * block + lqn.analysis._HEAD_ENTRIES)


def _lemire_redraws(seed, t, words, p):
    """Does numpy's bounded draw throw away one of trial t's first 32-bit words?

    Read from the raw PCG64 outputs of the substream, low half first.
    """
    raw = np.random.PCG64(np.random.SeedSequence((seed, t))).random_raw((words + 1) // 2)
    halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()[:words]
    return bool((((halves * p) & 0xFFFFFFFF) < (2**32 - p) % p).any())


def test_estimator_redraws_a_rejected_word_on_its_substream(monkeypatch):
    # at p = 3,384,529 about 7.9e-4 of the 32-bit words fall in the rejection
    # zone of numpy's bounded draw; at seed 18 trial 0 has one, trial 1 none
    p, n, k, trials, seed = 3384529, 2, 1, 2, 18
    flagged = [_lemire_redraws(seed, t, k * n + n, p) for t in range(trials)]
    assert flagged == [True, False]
    # 2000 heavy symbols: a pair is typical iff both of its symbols are heavy
    probs = np.full(p, 1e-6 / (p - 2000))
    probs[:2000] = (1 - 1e-6) / 2000
    target = validate_discrete(probs, p)
    opened = []
    stream = lqn.codes.Stream

    # each redraw opens its trial's Stream((seed, t))
    def counting_substream(seed):
        opened.append(seed)
        return stream(seed)

    monkeypatch.setattr(lqn.codes, "Stream", counting_substream)
    est = estimate_match_probability(target, n, k, trials, seed)
    assert opened == [(seed, 0)]
    assert est.failures == _oracle_failures(target, n, k, trials, seed)


def test_ensemble_mean_divergence_improves_with_block_length():
    # 200 seeded codebooks per block length at the theorem-mode dimension;
    # the ensemble average must not degrade when n grows (generous slack)
    t = validate_discrete([0.5, 0.3, 0.2], 3)
    means = {}
    for n in (6, 8):
        k = select_k(3, n, t, "theorem")
        assert k == 2
        vals = []
        for trial in range(200):
            code = sample_generator((909, n, trial), k, n, 3)
            region = build_typicality_partition(code, t)
            vals.append(kl_region_vs_product(region, t) / n)
        means[n] = float(np.mean(vals))
    assert means[8] <= means[6] + 0.02
