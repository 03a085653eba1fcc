"""Command line front end.

Subcommands: analyze, search, sweep-rate, reproduce, bounds, continuous.
Each command returns its files' bytes and a message; main writes the files
into --out-dir with io.write_bundle, then prints the message. The bytes are
stable: the same command with the same seed writes identical files. Exit codes: 0 success,
2 invalid usage or configuration, 3 enumeration cap exceeded or a region
too large to allocate or encode.
"""

from __future__ import annotations

import argparse
import functools
import os

from . import io
from .analysis import (
    analyze_region,
    divergence_bits,
    estimate_match_probability,
    lemma1_bound,
)
from .cases import bundled
from .codes import MAX_POINTS, check_cap, rate, sample_generator, select_k
from .continuous import build_continuous, continuous_divergence
from .distributions import ContinuousTarget, DiscreteTarget, TypicalityParams
from .errors import LqnError, TooLargeError
from .partition import build_region, choose


def _max_points(args) -> int | None:
    """The point cap from --max-points, else LQN_MAX_POINTS, else None."""
    if args.max_points is not None:
        return _at_least("--max-points", args.max_points)
    env = os.environ.get("LQN_MAX_POINTS")
    return _at_least("LQN_MAX_POINTS", env) if env else None


def _typ_params(n: int, args) -> TypicalityParams:
    if args.epsilon_override is None:
        return TypicalityParams.default(n)
    return TypicalityParams(n=n, epsilon=args.epsilon_override)


def _resolve_discrete(args):
    """Target, block length, bundled case, typicality parameters and point cap
    from --dist (reproduce's --case), --n, --epsilon-override and the cap; the
    target's p**n points are held to that cap."""
    target, case = _target(args.dist, DiscreteTarget)
    if case is None and args.n is None:
        raise LqnError("--n is required for file targets")
    n = case.n if args.n is None else _at_least("--n", args.n, 2)
    max_points = _max_points(args)
    check_cap(target.p, n, max_points, MAX_POINTS, "points")
    return target, n, case, _typ_params(n, args), max_points


def _target(name, kind: type):
    """The bundled target called name and its case (None unless a bundled discrete
    case), else the one in the JSON file at that path and None; the target must be
    an instance of kind. A bundled name wins over a file of that name."""
    target, case = bundled(name) or (io.load_distribution_file(name), None)
    if not isinstance(target, kind):
        name = kind.__name__.removesuffix("Target").lower()
        raise LqnError(f"this command needs a {name} target")
    return target, case


def _at_least(flag: str, value, low: int = 1) -> int:
    """value (an int, or the text of one) as an int of at least low."""
    try:
        value = int(value)
    except ValueError:
        raise LqnError(f"{flag} must be an integer, got {value!r}") from None
    if value < low:
        raise LqnError(f"{flag} must be at least {low}, got {value}")
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


def _run_keys(dist, seed, code) -> dict:
    """The keys that name a run: its target and seed, and the built code's p, n, k."""
    return {"dist": dist, "seed": seed, "p": code.p, "n": code.n, "k": code.k}


def _emit_bundle(dist, seed, target, criterion, tp, max_points, found, direction=None):
    """The bundle of the winner in found, a (rows, (trial, code)) pair as _search
    returns: build_region builds the region of its code, under the point cap,
    and analyze_region analyzes it. Returns the report, marginals and region
    files, the report and the winning trial.

    A search passes its direction: the provenance then also carries the
    direction and the trial count, and the trial rows go to trials.csv.
    """
    rows, (t, code) = found
    region = build_region(code, target, criterion, tp=tp, max_points=max_points)
    report = analyze_region(region, target)
    search = {} if direction is None else {"direction": direction, "trials": len(rows)}
    provenance = {
        **_run_keys(dist, seed, code),
        "trial": t,
        "criterion": criterion,
        "epsilon": tp.epsilon,
        **search,
    }
    files = {
        "report.json": io.json_bytes(io.report_payload(report, provenance)),
        "marginals.csv": io.marginals_csv(report.marginal_distributions),
        "region.csv": io.region_csv(region),
    }
    if search:
        files["trials.csv"] = io.trials_csv(rows)
    return files, report, t


def _search(target, n, k, criterion, tp, seed, trials, max_points, direction="minimize"):
    """Each trial's (trial, D_total_bits) row, and the (trial, code) of the first
    smallest (or largest) D.

    Every trial is scored by choose without its rows and builds no region;
    each D is, bit for bit, what analyze_region reports for the region that
    build_region makes of its code.
    """
    sign = 1.0 if direction == "minimize" else -1.0
    rows, best = [], None
    for t in range(trials):
        code = sample_generator((seed, t), k, n, target.p)
        _, ll = choose(code, target, criterion, tp.epsilon, max_points, with_rows=False)
        rows.append((t, divergence_bits(ll)))
        if best is None or sign * rows[t][1] < sign * rows[best[0]][1]:
            best = (t, code)
    return rows, best


def cmd_analyze(args) -> tuple[dict, str]:
    target, n, case, tp, max_points = _resolve_discrete(args)
    k = _pick_k(args, case, target, n)
    # one code, trial 0's, and no trial rows
    code = sample_generator((args.seed, 0), k, n, target.p)
    files, report, _ = _emit_bundle(
        args.dist, args.seed, target, args.criterion, tp, max_points, ((), (0, code))
    )
    return files, f"D_per_dim={report.D_per_dim!r} bits, wrote {{paths[report.json]}}"


def cmd_search(args) -> tuple[dict, str]:
    target, n, case, tp, max_points = _resolve_discrete(args)
    k = _pick_k(args, case, target, n)
    _at_least("--trials", args.trials)
    found = _search(
        target, n, k, args.criterion, tp, args.seed, args.trials, max_points, args.direction
    )
    files, report, t = _emit_bundle(
        args.dist, args.seed, target, args.criterion, tp, max_points, found, args.direction
    )
    return files, f"best trial {t}: D_total={report.D_total_bits!r} bits"


def _parse_k_range(text: str, n: int) -> list[int]:
    lo, colon, hi = text.partition(":")
    try:
        lo = int(lo)
        hi = int(hi) if colon else lo
    except ValueError:
        raise LqnError(f"--k-range must be a:b or one k, got {text!r}") from None
    # the bounds are checked before the range exists: a huge one is refused, not built
    if not 1 <= lo <= hi <= n - 1:
        raise LqnError(f"k range {text!r} leaves [1, {n - 1}]")
    return list(range(lo, hi + 1))


def _sweep(target, n, ks, criterion, tp, seed, trials, max_points):
    """Sweep rows (k, R_bits, best D_per_dim), and each k's _search result."""
    per_k = {k: _search(target, n, k, criterion, tp, seed, trials, max_points) for k in ks}
    rows = [(k, rate(k, n, target.p), min(d for _, d in per_k[k][0]) / n) for k in ks]
    return rows, per_k


def _emit_sweep(dist, seed, trials, rows, target, n) -> tuple[dict, int, int]:
    """sweep.csv and sweep.json as files, the argmin k and the closest-rate k."""
    argmin_k = min(rows, key=lambda r: (r[2], r[0]))[0]
    predicted = select_k(target.p, n, target, "closest")
    sweep = {
        "kind": "sweep",
        "dist": dist,
        "seed": seed,
        "trials": trials,
        "rows": rows,
        "argmin_k": argmin_k,
        "predicted_k_closest": predicted,
    }
    files = {"sweep.csv": io.sweep_csv(rows), "sweep.json": io.json_bytes(sweep)}
    return files, argmin_k, predicted


def cmd_sweep_rate(args) -> tuple[dict, str]:
    target, n, _, tp, max_points = _resolve_discrete(args)
    ks = _parse_k_range(args.k_range, n)
    _at_least("--trials", args.trials)
    rows, _ = _sweep(target, n, ks, args.criterion, tp, args.seed, args.trials, max_points)
    files, argmin_k, predicted = _emit_sweep(args.dist, args.seed, args.trials, rows, target, n)
    return files, f"argmin k = {argmin_k}, predicted (closest rate) k = {predicted}"


def cmd_reproduce(args) -> tuple[dict, str]:
    trials = _at_least("--trials", args.trials)
    target, n, case, tp, max_points = _resolve_discrete(args)
    seed = case.seed if args.seed is None else args.seed
    rows, per_k = _sweep(target, n, case.k_values, "ml", tp, seed, trials, max_points)
    files, k = {}, case.default_k
    if len(case.k_values) > 1:
        files, k, _ = _emit_sweep(args.dist, seed, trials, rows, target, n)
    bundle, report, t = _emit_bundle(
        args.dist, seed, target, "ml", tp, max_points, per_k[k], "minimize"
    )
    message = f"{args.dist}: k={k}, best trial {t}, D_per_dim={report.D_per_dim!r} bits"
    return {**files, **bundle}, message


# The AnalysisReport fields that bounds.json carries.
_BOUNDS_REPORT_KEYS = (
    "epsilon", "alpha", "bad_fraction", "eps_star", "D_per_dim", "bound_satisfied",
)


def cmd_bounds(args) -> tuple[dict, str]:
    target, n, _, tp, max_points = _resolve_discrete(args)
    p = target.p
    k = select_k(p, n, target, "theorem") if args.k is None else _check_k(args.k, n)
    _at_least("--trials", args.trials)
    # the bound refuses an epsilon outside (0, 1) before any code is drawn
    rate_bits = rate(k, n, p)
    bound = lemma1_bound(n, rate_bits, p, target.entropy_bits, tp.epsilon)
    # the estimate first: it refuses a codebook over the cap before any region is built
    est = None
    if args.estimate:
        est = vars(estimate_match_probability(
            target, n, k, args.trials, args.seed, epsilon=tp.epsilon
        ))
    code = sample_generator((args.seed, 0), k, n, p)
    region = build_region(code, target, "typicality", tp=tp, max_points=max_points)
    report = analyze_region(region, target)
    payload = {
        "kind": "bounds",
        **_run_keys(args.dist, args.seed, code),
        "rate_bits": rate_bits,
        "entropy_bits": target.entropy_bits,
        "lemma1_bound": bound,
        **{key: getattr(report, key) for key in _BOUNDS_REPORT_KEYS},
        "estimate": est,
    }
    message = f"eps_star={payload['eps_star']!r}, lemma1_bound={payload['lemma1_bound']!r}"
    return {"bounds.json": io.json_bytes(payload)}, message


def cmd_continuous(args) -> tuple[dict, str]:
    target, _ = _target(args.dist, ContinuousTarget)
    n = _at_least("--n", args.n, 2)
    k = None if args.k is None else _check_k(args.k, n)
    tp = _typ_params(n, args)
    cc = build_continuous(
        target, args.p, n, k, (args.seed, 0),
        criterion=args.criterion, tp=tp, max_points=_max_points(args),
    )
    rep = continuous_divergence(cc)
    payload = {
        "kind": "continuous",
        **_run_keys(args.dist, args.seed, cc.code),
        "criterion": cc.region.criterion,
        "binned_probs": cc.binned.probs,
        **vars(rep),
    }
    files = {"continuous_report.json": io.json_bytes(payload)}
    files["region.csv"] = io.region_csv(cc.region)
    return files, f"D_per_dim={rep.D_per_dim!r} bits, bound={rep.bound_per_dim!r}"


def _add_common(sp, *, k=True, criterion="ml", n_required=False):
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lqn",
        description="Lattice partitions with shaped quantization noise",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="one code, one region, full report")
    _add_common(sp)

    sp = sub.add_parser("search", help="best region over seeded random codes")
    _add_common(sp)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--direction", choices=("minimize", "maximize"), default="minimize")

    sp = sub.add_parser("sweep-rate", help="best divergence per code dimension")
    _add_common(sp, k=False)
    sp.add_argument("--k-range", required=True, help="inclusive range a:b or one k")
    sp.add_argument("--trials", type=int, default=20)

    sp = sub.add_parser("reproduce", help="run a bundled case end to end")
    # the case is read as a --dist with its own n and epsilon
    sp.add_argument("--case", dest="dist", required=True, choices=("w1", "w2", "w3", "w4"))
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--max-points", type=int, default=None)
    sp.set_defaults(n=None, epsilon_override=None)

    sp = sub.add_parser("bounds", help="closed-form bounds and optional estimate")
    _add_common(sp, criterion=None)
    sp.add_argument("--estimate", action="store_true")
    sp.add_argument("--trials", type=int, default=200)

    sp = sub.add_parser("continuous", help="interval target: fold, bin, build, bound")
    _add_common(sp, criterion="typicality", n_required=True)
    sp.add_argument("--p", type=int, required=True)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call (not at import) and kept."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # cmd_<command> is looked up when it runs, so a replaced one is the one called
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        files, message = command(args)
        # a message names a written file as {paths[<name>]}
        print(message.format(paths=io.write_bundle(args.out_dir, files)))
        return 0
    except (LqnError, ValueError, OSError, MemoryError) as err:
        # one line, never an empty one: a bare MemoryError has no message
        print(f"error: {str(err) or type(err).__name__}")
        return 3 if isinstance(err, (TooLargeError, MemoryError)) else 2


if __name__ == "__main__":
    raise SystemExit(main())
