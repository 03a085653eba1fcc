"""Command line front end.

Subcommands: analyze, search, sweep-rate, reproduce, bounds, continuous.
Outputs land in --out-dir as JSON and CSV files with stable bytes: the same
command with the same seed writes identical files. Exit codes: 0 success,
2 invalid usage or configuration, 3 enumeration cap exceeded or a region
too large to allocate or encode.
"""

from __future__ import annotations

import argparse
import math
import os
from pathlib import Path

import numpy as np

from . import io
from .analysis import (
    analyze_region,
    estimate_match_probability,
    kl_region_vs_product,
    lemma1_bound,
)
from .cases import BuiltinCase, builtin_cases, continuous_builtins
from .codes import rate, sample_generator, select_k
from .continuous import bin_density, build_continuous, continuous_divergence
from .distributions import ContinuousTarget, DiscreteTarget, TypicalityParams
from .errors import LqnError, TooLargeError
from .partition import build_ml_partition, build_typicality_partition

_BUILDERS = {"ml": build_ml_partition, "typicality": build_typicality_partition}


def _max_points(args) -> int | None:
    if args.max_points is not None:
        return args.max_points
    env = os.environ.get("LQN_MAX_POINTS")
    return int(env) if env else None


def _typ_params(n: int, args) -> TypicalityParams:
    if args.epsilon_override is None:
        return TypicalityParams.default(n)
    return TypicalityParams(n=n, epsilon=args.epsilon_override)


def _resolve_discrete(args) -> tuple[DiscreteTarget, int, int, BuiltinCase | None]:
    """Target, modulus, and block length from --dist/--n."""
    case = builtin_cases().get(args.dist)
    if case is not None:
        return case.target, case.p, case.n if args.n is None else _check_n(args.n), case
    target = _file_target(args.dist, DiscreteTarget)
    if args.n is None:
        raise LqnError("--n is required for file targets")
    return target, target.p, _check_n(args.n), None


def _file_target(path, kind: type):
    """A target read from a JSON file; it must be an instance of kind."""
    target = io.load_distribution_file(path)
    if not isinstance(target, kind):
        name = kind.__name__.removesuffix("Target").lower()
        raise LqnError(f"this command needs a {name} target")
    return target


def _check_n(n: int) -> int:
    if n < 2:
        raise LqnError(f"--n must be at least 2, got {n}")
    return n


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise LqnError(f"{flag} must be at least 1, got {value}")
    return value


def _check_k(k: int, n: int) -> int:
    if not 0 < k < n:
        raise LqnError(f"--k must lie in [1, {n - 1}], got {k}")
    return k


def _pick_k(args, case, target, n) -> int:
    if args.k is not None:
        return _check_k(args.k, n)
    if case is not None and len(case.k_values) == 1:
        return case.default_k
    return select_k(target.p, n, target, "closest")


def _build_one(seed, trial, k, n, target, criterion, tp, max_points):
    code = sample_generator((seed, trial), k, n, target.p)
    return _BUILDERS[criterion](code, target, tp=tp, max_points=max_points)


def _emit_bundle(out: Path, region, target, provenance: dict, trial_rows=None):
    """Analyze region; write report, marginals, region, and trials when given."""
    report = analyze_region(region, target)
    io.write_json(out / "report.json", io.report_payload(report, provenance))
    io.write_marginals_csv(out / "marginals.csv", report.marginal_distributions)
    io.write_region_csv(out / "region.csv", region)
    if trial_rows is not None:
        io.write_trials_csv(out / "trials.csv", trial_rows)
    return report


def _provenance(dist, seed, trial, p, n, k, criterion, tp, **extra) -> dict:
    """What rebuilds the emitted region of analyze, search and reproduce."""
    return {
        "dist": dist,
        "seed": seed,
        "trial": trial,
        "p": p,
        "n": n,
        "k": k,
        "criterion": criterion,
        "epsilon": tp.epsilon,
        **extra,
    }


def _search(target, n, k, criterion, tp, seed, trials, direction, max_points):
    """Best-of-trials (trial, region, D_total_bits); ties keep the earliest trial.

    Trials are ranked by kl_region_vs_product, the D_total_bits that
    analyze_region reports, so callers analyze only the winning region.
    """
    better = (lambda a, b: a < b) if direction == "minimize" else (lambda a, b: a > b)
    best = None
    rows = []
    for t in range(trials):
        region = _build_one(seed, t, k, n, target, criterion, tp, max_points)
        d = kl_region_vs_product(region, target)
        rows.append((t, d))
        if best is None or better(d, best[2]):
            best = (t, region, d)
    return best, rows


def cmd_analyze(args) -> int:
    target, p, n, case = _resolve_discrete(args)
    k = _pick_k(args, case, target, n)
    tp = _typ_params(n, args)
    out = Path(args.out_dir)
    region = _build_one(args.seed, 0, k, n, target, args.criterion, tp, _max_points(args))
    prov = _provenance(args.dist, args.seed, 0, p, n, k, args.criterion, tp)
    report = _emit_bundle(out, region, target, prov)
    print(f"D_per_dim={report.D_per_dim!r} bits, wrote {out / 'report.json'}")
    return 0


def cmd_search(args) -> int:
    target, p, n, case = _resolve_discrete(args)
    k = _pick_k(args, case, target, n)
    _at_least_one("--trials", args.trials)
    tp = _typ_params(n, args)
    out = Path(args.out_dir)
    (t, region, _), rows = _search(
        target, n, k, args.criterion, tp, args.seed, args.trials,
        args.direction, _max_points(args),
    )
    prov = _provenance(
        args.dist, args.seed, t, p, n, k, args.criterion, tp,
        direction=args.direction, trials=args.trials,
    )
    report = _emit_bundle(out, region, target, prov, rows)
    print(f"best trial {t}: D_total={report.D_total_bits!r} bits")
    return 0


def _parse_k_range(text: str, n: int) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        ks = list(range(int(lo), int(hi) + 1))
    else:
        ks = [int(text)]
    if not ks or ks[0] < 1 or ks[-1] >= n:
        raise LqnError(f"k range {text!r} leaves [1, {n - 1}]")
    return ks


def _sweep(target, n, ks, criterion, tp, seed, trials, max_points):
    rows = []
    per_k = {}
    for k in ks:
        best, trial_rows = _search(
            target, n, k, criterion, tp, seed, trials, "minimize", max_points
        )
        rows.append((k, rate(k, n, target.p), best[2] / n))
        per_k[k] = (best, trial_rows)
    return rows, per_k


def _emit_sweep(out: Path, dist, seed, trials, rows, target, n) -> tuple[int, int]:
    """sweep.csv and sweep.json; returns the argmin k and the closest-rate k."""
    io.write_sweep_csv(out / "sweep.csv", rows)
    argmin_k = min(rows, key=lambda r: (r[2], r[0]))[0]
    predicted = select_k(target.p, n, target, "closest")
    io.write_json(
        out / "sweep.json",
        {
            "kind": "sweep",
            "dist": dist,
            "seed": seed,
            "trials": trials,
            "rows": rows,
            "argmin_k": argmin_k,
            "predicted_k_closest": predicted,
        },
    )
    return argmin_k, predicted


def cmd_sweep_rate(args) -> int:
    target, p, n, case = _resolve_discrete(args)
    ks = _parse_k_range(args.k_range, n)
    _at_least_one("--trials", args.trials)
    tp = _typ_params(n, args)
    out = Path(args.out_dir)
    rows, _ = _sweep(
        target, n, ks, args.criterion, tp, args.seed, args.trials, _max_points(args)
    )
    argmin_k, predicted = _emit_sweep(out, args.dist, args.seed, args.trials, rows, target, n)
    print(f"argmin k = {argmin_k}, predicted (closest rate) k = {predicted}")
    return 0


def cmd_reproduce(args) -> int:
    case = builtin_cases()[args.case]
    target, p, n = case.target, case.p, case.n
    seed = case.seed if args.seed is None else args.seed
    trials = case.trials if args.trials is None else _at_least_one("--trials", args.trials)
    tp = TypicalityParams.default(n)
    out = Path(args.out_dir)
    rows, per_k = _sweep(
        target, n, case.k_values, case.criterion, tp, seed, trials, _max_points(args)
    )
    k = case.default_k
    if len(case.k_values) > 1:
        k, _ = _emit_sweep(out, args.case, seed, trials, rows, target, n)
    (t, region, _), trial_rows = per_k[k]
    prov = _provenance(
        args.case, seed, t, p, n, k, case.criterion, tp,
        direction="minimize", trials=trials,
    )
    report = _emit_bundle(out, region, target, prov, trial_rows)
    print(f"{args.case}: k={k}, best trial {t}, D_per_dim={report.D_per_dim!r} bits")
    return 0


# The AnalysisReport fields that bounds.json carries.
_BOUNDS_REPORT_KEYS = (
    "epsilon", "alpha", "bad_fraction", "eps_star", "D_per_dim", "bound_satisfied",
)


def cmd_bounds(args) -> int:
    target, p, n, case = _resolve_discrete(args)
    k = select_k(p, n, target, "theorem") if args.k is None else _check_k(args.k, n)
    _at_least_one("--trials", args.trials)
    tp = _typ_params(n, args)
    out = Path(args.out_dir)
    region = _build_one(args.seed, 0, k, n, target, "typicality", tp, _max_points(args))
    report = analyze_region(region, target)
    rate_bits = rate(k, n, p)
    payload = {
        "kind": "bounds",
        "dist": args.dist,
        "seed": args.seed,
        "p": p,
        "n": n,
        "k": k,
        "rate_bits": rate_bits,
        "entropy_bits": target.entropy_bits,
        "lemma1_bound": lemma1_bound(n, rate_bits, p, target.entropy_bits, tp.epsilon),
        **{key: getattr(report, key) for key in _BOUNDS_REPORT_KEYS},
        "estimate": None,
    }
    if args.estimate:
        est = estimate_match_probability(
            target, n, k, args.trials, args.seed, epsilon=tp.epsilon
        )
        payload["estimate"] = vars(est)
    io.write_json(out / "bounds.json", payload)
    print(f"eps_star={payload['eps_star']!r}, lemma1_bound={payload['lemma1_bound']!r}")
    return 0


def cmd_continuous(args) -> int:
    target = continuous_builtins().get(args.dist)
    if target is None:
        target = _file_target(args.dist, ContinuousTarget)
    n = _check_n(args.n)
    k = _pick_k(args, None, bin_density(target, args.p).binned, n)
    tp = _typ_params(n, args)
    out = Path(args.out_dir)
    cc = build_continuous(
        target, args.p, n, k, (args.seed, 0),
        criterion=args.criterion, tp=tp, max_points=_max_points(args),
    )
    rep = continuous_divergence(cc)
    io.write_json(
        out / "continuous_report.json",
        {
            "kind": "continuous",
            "dist": args.dist,
            "seed": args.seed,
            "p": args.p,
            "n": n,
            "k": k,
            "criterion": args.criterion,
            "binned_probs": cc.binned.probs,
            **vars(rep),
        },
    )
    io.write_region_csv(out / "region.csv", cc.region)
    print(f"D_per_dim={rep.D_per_dim!r} bits, bound={rep.bound_per_dim!r}")
    return 0


def _add_common(sp, func, *, k=True, criterion="ml", n_required=False):
    """Options shared by the commands that take a --dist target."""
    sp.add_argument("--dist", required=True, help="builtin name or JSON path")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--epsilon-override", type=float, default=None)
    sp.add_argument("--max-points", type=int, default=None)
    sp.add_argument("--n", type=int, required=n_required, default=None)
    if k:
        sp.add_argument("--k", type=int, default=None)
    if criterion:
        sp.add_argument("--criterion", choices=("ml", "typicality"), default=criterion)
    sp.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lqn",
        description="Lattice partitions with shaped quantization noise",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="one code, one region, full report")
    _add_common(sp, cmd_analyze)

    sp = sub.add_parser("search", help="best region over seeded random codes")
    _add_common(sp, cmd_search)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--direction", choices=("minimize", "maximize"), default="minimize")

    sp = sub.add_parser("sweep-rate", help="best divergence per code dimension")
    _add_common(sp, cmd_sweep_rate, k=False)
    sp.add_argument("--k-range", required=True, help="inclusive range a:b or one k")
    sp.add_argument("--trials", type=int, default=20)

    sp = sub.add_parser("reproduce", help="run a bundled case end to end")
    sp.add_argument("--case", required=True, choices=("w1", "w2", "w3", "w4"))
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--max-points", type=int, default=None)
    sp.set_defaults(func=cmd_reproduce)

    sp = sub.add_parser("bounds", help="closed-form bounds and optional estimate")
    _add_common(sp, cmd_bounds, criterion=None)
    sp.add_argument("--estimate", action="store_true")
    sp.add_argument("--trials", type=int, default=200)

    sp = sub.add_parser("continuous", help="interval target: fold, bin, build, bound")
    _add_common(sp, cmd_continuous, criterion="typicality", n_required=True)
    sp.add_argument("--p", type=int, required=True)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TooLargeError, MemoryError) as err:
        print(f"error: {err}")
        return 3
    except (LqnError, ValueError, OSError) as err:
        print(f"error: {err}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
