"""Acceptance suite: one criterion per test, one printed verdict line each.

Each test prints "ACCEPTANCE <num>: PASS|FAIL - <detail>" before asserting,
so the per-criterion outcome is visible in the -rP summary either way.
"""

import math
import time

import numpy as np

from lqn import (
    analyze_region,
    build_continuous,
    build_ml_partition,
    build_typicality_partition,
    builtin_cases,
    continuous_divergence,
    coset_ids,
    enumerate_codewords,
    estimate_match_probability,
    kl_region_vs_product,
    lattice_contains,
    lemma1_bound,
    make_code,
    quantize,
    rate,
    sample_generator,
    select_k,
    sum_marginal_kl,
    uniform_target,
    validate_discrete,
)
from lqn.cases import continuous_builtins
from lqn.cli import main
from lqn.continuous import bin_density
from lqn.io import load_json, load_marginals_csv, load_region_csv


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def clipped_pmf(rng, p: int) -> np.ndarray:
    probs = rng.dirichlet(np.ones(p)) + 0.01
    return probs / probs.sum()


def test_criterion_01_near_step_reproduction(tmp_path):
    t0 = time.monotonic()
    case = builtin_cases()["w1"]
    # exhaustive span of one-row generators: (1, m) plus (0, 1)
    gens = [[1, m] for m in range(37)] + [[0, 1]]
    oracle = min(
        kl_region_vs_product(
            build_ml_partition(make_code([g], 37), case.target), case.target
        )
        for g in gens
    )
    out = tmp_path / "w1"
    assert main(["reproduce", "--case", "w1", "--out-dir", str(out)]) == 0
    report = load_json(out / "report.json")
    _, reps, _ = load_region_csv(out / "region.csv")
    box = np.array([0, 1, 2, 34, 35, 36])
    inside = int(np.isin(reps, box).all(axis=1).sum())
    elapsed = time.monotonic() - t0
    gap = abs(report["D_total_bits"] - oracle)
    ok = gap <= 0.02 and inside >= 34 and elapsed < 10
    verdict(
        1,
        ok,
        f"D_total={report['D_total_bits']:.6f} vs oracle {oracle:.6f} "
        f"(gap {gap:.2e}), {inside}/37 reps in box, {elapsed:.1f}s",
    )


def test_criterion_02_rate_sweep_argmin(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "w3"
    assert main(["reproduce", "--case", "w3", "--out-dir", str(out)]) == 0
    sweep = load_json(out / "sweep.json")
    elapsed = time.monotonic() - t0
    ok = (
        sweep["argmin_k"] == sweep["predicted_k_closest"] == 2
        and elapsed < 120
    )
    verdict(
        2,
        ok,
        f"argmin k={sweep['argmin_k']}, closest-rate k={sweep['predicted_k_closest']}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_circular_triangle_marginals(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "w4"
    assert main(["reproduce", "--case", "w4", "--out-dir", str(out)]) == 0
    marg = load_marginals_csv(out / "marginals.csv")
    target = builtin_cases()["w4"].target
    tv = 0.5 * float(np.abs(marg.mean(axis=0) - target.probs).sum())
    elapsed = time.monotonic() - t0
    ok = tv <= 0.1 and elapsed < 600
    verdict(3, ok, f"avg-marginal TV={tv:.5f} (<= 0.1), {elapsed:.1f}s")


def test_criterion_04_ml_equals_exhaustive_optimum():
    rng = np.random.default_rng(41)
    worst = 0.0
    checked = 0
    for p in (3, 5):
        pts = np.stack(
            np.meshgrid(np.arange(p), np.arange(p), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        for i in range(20):
            target = validate_discrete(clipped_pmf(rng, p), p)
            code = sample_generator((4000 + p, i), 1, 2, p)
            d_ml = kl_region_vs_product(build_ml_partition(code, target), target)
            ids = coset_ids(code, pts)
            ll = target.log2_probs[pts].sum(axis=1)
            best = np.full(code.num_cosets, -np.inf)
            np.maximum.at(best, ids, ll)
            d_opt = -math.log2(code.num_cosets) - float(best.mean())
            worst = max(worst, abs(d_ml - d_opt))
            checked += 1
    ok = worst <= 1e-12
    verdict(4, ok, f"{checked} pmfs, max |D_ml - D_opt| = {worst:.2e} (<= 1e-12)")


def test_criterion_05_typicality_divergence_budget():
    rng = np.random.default_rng(5)
    worst = None
    checked = 0
    for n in range(2, 11):
        for trial in range(20):
            target = validate_discrete(clipped_pmf(rng, 3), 3)
            code = sample_generator((50 + n, trial), 1, n, 3)
            region = build_typicality_partition(code, target)
            report = analyze_region(region, target)
            margin = report.eps_star - report.D_per_dim
            if worst is None or margin < worst[0]:
                worst = (margin, n, trial)
            checked += 1
            assert report.bound_satisfied
    ok = worst[0] >= -1e-9
    verdict(
        5,
        ok,
        f"{checked} regions over n=2..10, worst budget margin "
        f"{worst[0]:.4f} bits at n={worst[1]}",
    )


def test_criterion_06_marginal_chain_rule():
    tri = continuous_builtins()["triangle"]
    fixtures = []
    for name, k in (("w1", 1), ("w3", 2), ("w4", 1)):
        case = builtin_cases()[name]
        code = sample_generator((case.seed, 0), k, case.n, case.target.p)
        fixtures.append((build_ml_partition(code, case.target), case.target))
    for probs in ([0.5, 0.3, 0.2], [0.9, 0.05, 0.05]):
        target = validate_discrete(probs, 3)
        code = sample_generator((60, len(probs)), 1, 4, 3)
        fixtures.append((build_ml_partition(code, target), target))
        fixtures.append((build_typicality_partition(code, target), target))
    for p, n in ((5, 4), (13, 3)):
        binned = bin_density(tri, p).binned
        code = sample_generator((70 + p, 0), 1, n, p)
        fixtures.append((build_typicality_partition(code, binned), binned))
    u5 = uniform_target(5)
    fixtures.append((build_ml_partition(sample_generator((80, 0), 1, 3, 5), u5), u5))
    worst = -np.inf
    for region, target in fixtures:
        gap = sum_marginal_kl(region, target) - kl_region_vs_product(region, target)
        worst = max(worst, gap)
    ok = worst <= 1e-9
    verdict(
        6,
        ok,
        f"{len(fixtures)} fixtures, max(sum-of-marginals - joint) = {worst:.2e}",
    )


def _all_points(p: int, n: int) -> np.ndarray:
    idx = np.arange(p**n, dtype=np.int64)
    powers = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // powers) % p


def test_criterion_07_mod_exchange_and_dither_bijection():
    rng = np.random.default_rng(77)
    checked = []
    for p, n, k in ((3, 4, 1), (5, 4, 2), (7, 3, 1), (3, 10, 5)):
        target = validate_discrete(clipped_pmf(rng, p), p)
        code = sample_generator((700 + p, n), k, n, p)
        region = build_ml_partition(code, target)
        pts = _all_points(p, n)
        ids = coset_ids(code, pts)
        counts = np.bincount(ids, minlength=code.num_cosets)
        assert (counts == p**k).all()  # every coset tiles the space evenly
        z = rng.integers(0, p, size=n)
        ids_shift = coset_ids(code, pts + z)
        # dithering permutes the points within a bijection of cosets
        assert (np.bincount(ids_shift, minlength=code.num_cosets) == p**k).all()
        reps = region.reps
        np.testing.assert_array_equal(
            reps[coset_ids(code, pts + z)],
            reps[coset_ids(code, reps[ids] + z)],
        )
        rand = rng.integers(-(10**6), 10**6, size=(1000, n))
        rand_ids = coset_ids(code, rand)
        rems = reps[rand_ids]
        np.testing.assert_array_equal(
            reps[coset_ids(code, rand + z)], reps[coset_ids(code, rems + z)]
        )
        # subtracting the remainder always lands on the lattice
        assert (coset_ids(code, rand - rems) == 0).all()
        words = enumerate_codewords(code)
        lam = words[rng.integers(len(words))] + p * rng.integers(-3, 4, size=n)
        np.testing.assert_array_equal(coset_ids(code, rand + lam), rand_ids)
        for row in rand[:50]:
            q = quantize(region, row)
            assert (q.lattice_point + q.remainder == row).all()
            assert lattice_contains(code, q.lattice_point)
        checked.append(f"p^n={p}**{n}")
    verdict(7, True, f"exact on {', '.join(checked)} + 1000 random vectors each")


def test_criterion_08_random_code_failure_bound():
    t0 = time.monotonic()
    target = validate_discrete([0.4, 0.25, 0.15, 0.12, 0.08], 5)
    lines = []
    ok = True
    for n in (6, 8, 10):
        k = select_k(5, n, target, "theorem")
        assert k == 2
        est = estimate_match_probability(target, n, k, 2000, 20260819)
        bound = lemma1_bound(n, rate(k, n, 5), 5, target.entropy_bits, 1 / n)
        se = math.sqrt(bound * (1 - bound) / 2000)
        ok = ok and est.empirical_failure_rate <= bound + 3 * se
        lines.append(f"n={n}: {est.empirical_failure_rate:.4f}<={bound:.4f}+3se")
    eps = 0.25
    threshold_rate = math.log2(5) - target.entropy_bits + eps
    ok = ok and lemma1_bound(12, threshold_rate, 5, target.entropy_bits, eps) == 1 / (
        1 - eps
    )
    elapsed = time.monotonic() - t0
    verdict(8, ok, f"{'; '.join(lines)}; threshold identity exact ({elapsed:.1f}s)")


def test_criterion_09_continuous_bound_grid():
    tri = continuous_builtins()["triangle"]
    flat = continuous_builtins()["flat"]
    worst = None
    checked = 0
    for p in (5, 13):
        for n in (2, 4, 6):
            for s in range(5):
                rep = continuous_divergence(
                    build_continuous(tri, p, n, 1, (900 + p, n, s))
                )
                margin = rep.bound_per_dim - rep.D_per_dim
                if worst is None or margin < worst[0]:
                    worst = (margin, p, n, s)
                checked += 1
                assert rep.bound_satisfied
    flat_rep = continuous_divergence(build_continuous(flat, 13, 3, 1, (901, 0)))
    ok = worst[0] >= -1e-9 and flat_rep.r == 1.0 and flat_rep.spread_penalty_bits == 0.0
    verdict(
        9,
        ok,
        f"{checked} triangle builds, worst margin {worst[0]:.4f} bits at "
        f"(p={worst[1]}, n={worst[2]}); flat penalty exactly 0",
    )


def test_criterion_10_byte_determinism(tmp_path):
    names = ("report.json", "marginals.csv", "region.csv", "trials.csv")
    compared = 0
    for case, extra in (("w1", ()), ("w3", ("sweep.csv", "sweep.json"))):
        one, two = tmp_path / f"{case}_one", tmp_path / f"{case}_two"
        for out in (one, two):
            assert main(["reproduce", "--case", case, "--out-dir", str(out)]) == 0
        for name in names + extra:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
            compared += 1
    verdict(10, True, f"{compared} emitted files byte-identical across reruns")


def test_criterion_11_divergence_falls_with_block_length():
    # Fixed before the first run: for each target, every n from 3 up to the
    # largest with p**n <= 2**20 points, at the closest-rate k; the best
    # per-dimension ML divergence of T = 6 codes, seeded (1906, n, trial); the
    # largest n's best must be below half of the best at n = 3.
    t0 = time.monotonic()
    budget, trials = 1 << 20, 6
    lines, ok = [], True
    for probs in ([0.8, 0.2], [0.5, 0.3, 0.2]):
        p = len(probs)
        target = validate_discrete(probs, p)
        curve = {}
        n = 3
        while p**n <= budget:
            k = select_k(p, n, target, "closest")
            codes = [sample_generator((1906, n, t), k, n, p) for t in range(trials)]
            regions = [build_ml_partition(code, target) for code in codes]
            curve[n] = min(kl_region_vs_product(r, target) for r in regions) / n
            n += 1
        print(f"Z_{p} {probs}: " + ", ".join(f"n={m}: {d:.4f}" for m, d in curve.items()))
        last = max(curve)
        ok = ok and curve[last] < 0.5 * curve[3]
        lines.append(f"Z_{p}: n={last} {curve[last]:.4f} < 0.5 * n=3 {curve[3]:.4f}")
    elapsed = time.monotonic() - t0
    verdict(11, ok, f"best of {trials} ML codes, {'; '.join(lines)} ({elapsed:.1f}s)")
