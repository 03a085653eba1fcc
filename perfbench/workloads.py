"""The three benchmark workloads: the CLI commands of one op and their checks.

An op runs a workload's commands through ``<package>.cli.main`` into a fresh
directory, then verifies what they emitted: every file is loaded back with
the package's ``io`` loaders, the code is rebuilt from the recorded
provenance, ``validate_region`` must pass on the emitted region, and the
rebuilt region and its report must equal the emitted ones exactly. The
package is ``lqn`` or the frozen reference copy ``reflqn``; its functions
are looked up through its modules so that the tracer's wrappers see the
calls into ``lqn``.

Why these three (each stresses a different layer):

- w4-search: the paper's w4 target at n=5, 13^5 points per ML region, ten
  codebooks per op; region build first, the one region.csv write and its
  read-back second.
- tri-continuous: the same builder under the typicality rule, plus the
  exact-rational fold/bin; mostly region.csv emission.
- bounds-mc: 2,000 tiny Monte Carlo codes per op, so code sampling and
  rref do the work and the region builder almost none.
"""

from __future__ import annotations

import csv
import importlib
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np



MODULES = ("analysis", "cases", "cli", "codes", "continuous", "distributions", "io", "partition")


def package(name: str) -> ModuleType:
    """lqn or reflqn, with every module an op uses imported."""
    for mod in MODULES:
        importlib.import_module(f"{name}.{mod}")
    return importlib.import_module(name)


class VerifyError(Exception):
    """An emitted file disagrees with what the library recomputes."""


@dataclass(frozen=True)
class Workload:
    name: str
    pinned_seed: int
    # argv lists for <package>.cli.main, given (seed, out_dir)
    commands: Callable[[int, Path], list[list[str]]]
    # verify(out_dir, package): checks the files with that package's functions
    verify: Callable[[Path, ModuleType], None]
    # codebooks, continuous builds or MC trials per op, for trials_per_s
    units: int
    # untraced, each package verifies its files this many times per op
    verify_repeats: int = 1


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise VerifyError(what)


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _check_region(pkg, code, target, criterion: str, epsilon: float, region_csv: Path,
                  rebuilt):
    """The emitted region tiles, and equals the one rebuilt from provenance."""
    idx, reps, good = pkg.io.load_region_csv(region_csv)
    emitted = pkg.partition.FundamentalRegion(code, reps, good, criterion, epsilon)
    check = pkg.partition.validate_region(emitted)
    _expect(check.ok, f"validate_region: {check.failure} at {check.counterexample}")
    _expect(np.array_equal(idx, np.arange(code.num_cosets)), "region.csv syndrome column")
    _expect(np.array_equal(reps, rebuilt.reps), "region.csv differs from the rebuilt region")
    _expect(np.array_equal(good, rebuilt.good_flags), "region.csv good flags differ")


def _verify_bundle(out: Path, pkg, target) -> None:
    """report.json, region.csv, marginals.csv and trials.csv of a search."""
    report = pkg.io.load_json(out / "report.json")
    prov = report["provenance"]
    n, k, p = prov["n"], prov["k"], prov["p"]
    code = pkg.codes.sample_generator((prov["seed"], prov["trial"]), k, n, p)
    build = {"ml": pkg.partition.build_ml_partition,
             "typicality": pkg.partition.build_typicality_partition}[prov["criterion"]]
    tp = pkg.distributions.TypicalityParams(n=n, epsilon=prov["epsilon"])
    rebuilt = build(code, target, tp=tp)
    _check_region(pkg, code, target, prov["criterion"], prov["epsilon"], out / "region.csv",
                  rebuilt)
    rep = pkg.analysis.analyze_region(rebuilt, target)
    for key in ("D_total_bits", "D_per_dim", "sum_marginal_D_bits", "bad_fraction",
                "epsilon", "alpha", "eps_star", "bound_satisfied"):
        _expect(report[key] == getattr(rep, key), f"report.json {key}")
    marg = pkg.io.load_marginals_csv(out / "marginals.csv")
    _expect(np.array_equal(marg, rep.marginal_distributions), "marginals.csv")
    _expect(report["marginal_distributions"] == rep.marginal_distributions.tolist(),
            "report.json marginal_distributions")
    header, rows = _read_rows(out / "trials.csv")
    _expect(header == ["trial", "D_total_bits"], "trials.csv header")
    ds = [float(r[1]) for r in rows]
    _expect([int(r[0]) for r in rows] == list(range(prov["trials"])), "trials.csv trials")
    _expect(ds.index(min(ds)) == prov["trial"], "best trial is not the first minimum")
    _expect(ds[prov["trial"]] == rep.D_total_bits, "trials.csv best D")


def _verify_w4(out: Path, pkg) -> None:
    _verify_bundle(out, pkg, pkg.cases.builtin_cases()["w4"].target)


def _verify_continuous(out: Path, pkg) -> None:
    target = pkg.cases.continuous_builtins()["triangle"]
    rep = pkg.io.load_json(out / "continuous_report.json")
    n, p, k = rep["n"], rep["p"], rep["k"]
    cc = pkg.continuous.build_continuous(
        target, p, n, k, (rep["seed"], 0), criterion=rep["criterion"],
        tp=pkg.distributions.TypicalityParams(n=n, epsilon=rep["epsilon"]),
    )
    _check_region(pkg, cc.code, cc.binned, rep["criterion"], rep["epsilon"],
                  out / "region.csv", cc.region)
    div = pkg.continuous.continuous_divergence(cc)
    for key in ("D_total_bits", "D_per_dim", "bad_fraction", "epsilon", "eps_star",
                "spread_penalty_bits", "bound_per_dim", "bound_satisfied", "delta",
                "eta", "r"):
        _expect(rep[key] == getattr(div, key), f"continuous_report.json {key}")
    _expect(rep["binned_probs"] == cc.binned.probs.tolist(), "binned_probs")


def _verify_bounds(out: Path, pkg, trials: int) -> None:
    case = pkg.cases.builtin_cases()["w3"]
    b = pkg.io.load_json(out / "bounds.json")
    n, k, p, eps = b["n"], b["k"], b["p"], b["epsilon"]
    code = pkg.codes.sample_generator((b["seed"], 0), k, n, p)
    region = pkg.partition.build_typicality_partition(
        code, case.target, tp=pkg.distributions.TypicalityParams(n=n, epsilon=eps))
    check = pkg.partition.validate_region(region)
    _expect(check.ok, f"validate_region: {check.failure}")
    rep = pkg.analysis.analyze_region(region, case.target)
    for key in ("bad_fraction", "eps_star", "D_per_dim", "bound_satisfied"):
        _expect(b[key] == getattr(rep, key), f"bounds.json {key}")
    r_bits = pkg.codes.rate(k, n, p)
    lemma = pkg.analysis.lemma1_bound(n, r_bits, p, case.target.entropy_bits, eps)
    _expect(b["rate_bits"] == r_bits and b["lemma1_bound"] == lemma, "bounds.json closed forms")
    est = b["estimate"]
    _expect(est["trials"] == trials, "estimate trials")
    _expect(0 <= est["failures"] <= trials, "estimate failures out of range")
    _expect(est["empirical_failure_rate"] == est["failures"] / trials, "estimate rate")
    _expect(est["chebyshev_bound"] == lemma, "estimate chebyshev_bound")


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; tiny=True shrinks every size for the smoke test."""
    if tiny:
        w4 = ["search", "--dist", "w4", "--n", "3", "--k", "1"]
        w4_trials, mc_trials = 2, 50
        tri_p, tri_n = 7, 3
    else:
        w4 = ["search", "--dist", "w4", "--n", "5", "--k", "1"]
        w4_trials, mc_trials = 10, 2000
        tri_p, tri_n = 31, 4

    def w4_commands(seed, out):
        return [w4 + ["--trials", str(w4_trials), "--seed", str(seed), "--out-dir", str(out)]]

    def tri_commands(seed, out):
        return [["continuous", "--dist", "triangle", "--p", str(tri_p), "--n", str(tri_n),
                 "--seed", str(seed), "--out-dir", str(out)]]

    def bounds_commands(seed, out):
        return [["bounds", "--dist", "w3", "--estimate", "--trials", str(mc_trials),
                 "--seed", str(seed), "--out-dir", str(out)]]

    return {
        w.name: w
        for w in (
            Workload("w4-search", 3, w4_commands, _verify_w4, w4_trials),
            Workload("tri-continuous", 0, tri_commands, _verify_continuous, 1),
            Workload("bounds-mc", 0, bounds_commands,
                     lambda out, pkg: _verify_bounds(out, pkg, mc_trials), mc_trials,
                     # one verification takes under 0.05 s
                     verify_repeats=5),
        )
    }
