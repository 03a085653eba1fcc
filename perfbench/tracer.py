"""Span tracing of the lqn layers from outside the package.

Every public function is wrapped at the name its caller looks it up by
(``lqn.cli.analyze_region``, ``lqn.partition.log2_likelihoods``, the
``lqn.cli._BUILDERS`` entries, ...), so the package itself is not modified.
A site that no longer exists is reported as unpatched and simply loses its
coverage; it never produces a number for the wrong function.

Spans are kept in memory as tuples and written as JSON lines when the run
ends. Only ``time.perf_counter`` and the standard ``json`` module are used.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from time import perf_counter

# (module, attribute looked up by the caller, span name)
SITES = (
    ("lqn.cli", "sample_generator", "codes.sample_generator"),
    ("lqn.cli", "select_k", "codes.select_k"),
    ("lqn.cli", "analyze_region", "analysis.analyze_region"),
    ("lqn.cli", "estimate_match_probability", "analysis.estimate_match_probability"),
    ("lqn.cli", "lemma1_bound", "analysis.lemma1_bound"),
    ("lqn.cli", "builtin_cases", "cases.builtin_cases"),
    ("lqn.cli", "continuous_builtins", "cases.continuous_builtins"),
    ("lqn.cli", "build_continuous", "continuous.build_continuous"),
    ("lqn.cli", "continuous_divergence", "continuous.continuous_divergence"),
    ("lqn.io", "report_payload", "io.report_payload"),
    ("lqn.io", "write_json", "io.write_json"),
    ("lqn.io", "write_region_csv", "io.write_region_csv"),
    ("lqn.io", "write_marginals_csv", "io.write_marginals_csv"),
    ("lqn.io", "write_trials_csv", "io.write_trials_csv"),
    ("lqn.io", "write_sweep_csv", "io.write_sweep_csv"),
    ("lqn.io", "load_json", "io.load_json"),
    ("lqn.io", "load_region_csv", "io.load_region_csv"),
    ("lqn.io", "load_marginals_csv", "io.load_marginals_csv"),
    ("lqn.partition", "enumerate_codewords", "codes.enumerate_codewords"),
    ("lqn.partition", "log2_likelihoods", "distributions.log2_likelihoods"),
    ("lqn.partition", "validate_region", "partition.validate_region"),
    ("lqn.codes", "draw_full_rank", "codes.draw_full_rank"),
    ("lqn.codes", "make_code", "codes.make_code"),
    ("lqn.codes", "rref", "zplinalg.rref"),
    ("lqn.codes", "parity_check", "zplinalg.parity_check"),
    ("lqn.zplinalg", "rref", "zplinalg.rref"),
    ("lqn.analysis", "kl_region_vs_product", "analysis.kl_region_vs_product"),
    ("lqn.analysis", "eps_star", "analysis.eps_star"),
    ("lqn.analysis", "marginals", "analysis.marginals"),
    ("lqn.analysis", "sum_marginal_kl", "analysis.sum_marginal_kl"),
    ("lqn.analysis", "log2_likelihoods", "distributions.log2_likelihoods"),
    ("lqn.analysis", "draw_full_rank", "codes.draw_full_rank"),
    ("lqn.analysis", "enumerate_codewords", "codes.enumerate_codewords"),
    ("lqn.continuous", "fold_density", "continuous.fold_density"),
    ("lqn.continuous", "choose_delta", "continuous.choose_delta"),
    ("lqn.continuous", "bin_pdf", "continuous.bin_pdf"),
    ("lqn.continuous", "eta_and_r", "continuous.eta_and_r"),
    ("lqn.continuous", "mean_log2_by_bin", "continuous.mean_log2_by_bin"),
    ("lqn.continuous", "sample_generator", "codes.sample_generator"),
    ("lqn.continuous", "build_ml_partition", "partition.build_ml_partition"),
    ("lqn.continuous", "build_typicality_partition", "partition.build_typicality_partition"),
    ("lqn.continuous", "eps_star", "analysis.eps_star"),
)

# cli dispatches to the region builders through this table, not by name.
BUILDER_TABLE = ("lqn.cli", "_BUILDERS", "partition.build_{}_partition")


def _build_counts(args, kwargs, result):
    code = args[0]
    points = code.p**code.n
    return {"points": points, "cosets": code.num_cosets, "member_bytes": points * code.n * 8}


# Exact counts taken at the call, from its arguments or result.
COUNT_HOOKS = {
    "partition.build_ml_partition": _build_counts,
    "partition.build_typicality_partition": _build_counts,
    "codes.enumerate_codewords": lambda a, kw, r: {"codewords": int(r.shape[0])},
    "analysis.estimate_match_probability": lambda a, kw, r: {"trials": int(r.trials)},
    "io.load_json": lambda a, kw, r: {"bytes": os.path.getsize(a[0])},
    "io.load_region_csv": lambda a, kw, r: {"bytes": os.path.getsize(a[0])},
    "io.load_marginals_csv": lambda a, kw, r: {"bytes": os.path.getsize(a[0])},
}
for _name in ("write_json", "write_region_csv", "write_marginals_csv",
              "write_trials_csv", "write_sweep_csv"):
    COUNT_HOOKS[f"io.{_name}"] = lambda a, kw, r: {"bytes": os.path.getsize(r)}


class Tracer:
    """In-memory spans: (name, start, end, parent index, run, counts)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.run = 0
        self._undo: list = []
        self.unpatched: list[str] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name; counts come from COUNT_HOOKS."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run, None)
        hook = COUNT_HOOKS.get(name)
        if hook is not None:
            self.spans[idx] = (name, start, end, parent, self.run, hook(args, kwargs, result))
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        import importlib

        self.unpatched = []
        for mod_name, attr, name in SITES:
            mod = importlib.import_module(mod_name)
            if not hasattr(mod, attr):
                self.unpatched.append(f"{mod_name}.{attr}")
                continue
            orig = getattr(mod, attr)
            setattr(mod, attr, self._wrap(name, orig))
            self._undo.append((mod, attr, orig))
        mod_name, attr, pattern = BUILDER_TABLE
        table = getattr(importlib.import_module(mod_name), attr, None)
        if not isinstance(table, dict):
            self.unpatched.append(f"{mod_name}.{attr}")
            return
        originals = dict(table)
        for key, fn in originals.items():
            table[key] = self._wrap(pattern.format(key), fn)
        self._undo.append((table, None, originals))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            if attr is None:
                obj.update(orig)
            else:
                setattr(obj, attr, orig)
        self._undo.clear()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, run, counts in self.spans:
                rec = {"name": name, "start": start, "end": end,
                       "parent": None if parent < 0 else parent, "run": run}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


ROOT_COMMAND = "cli.main"
ROOT_VERIFY = "verify"
_BUILD = ("partition.build_ml_partition", "partition.build_typicality_partition")
_FOLD_BIN = ("continuous.fold_density", "continuous.choose_delta", "continuous.bin_pdf",
             "continuous.eta_and_r", "continuous.mean_log2_by_bin")
_IO_WRITE = tuple(f"io.{n}" for n in ("write_json", "write_region_csv", "write_marginals_csv",
                                       "write_trials_csv", "write_sweep_csv"))
_IO_READ = ("io.load_json", "io.load_region_csv", "io.load_marginals_csv")
MODULES = ("partition", "io", "codes", "zplinalg", "analysis", "distributions", "continuous")
# CLI commands whose single emitted analysis is the useful outcome.
_ANALYSIS_EMITTERS = ("analyze", "search", "reproduce", "bounds")


def layer_metrics(spans: list, run: int, commands: list[list[str]]) -> tuple[dict, dict]:
    """Per-layer metrics (a superset of run.PER_LAYER) and exact counts of one op.

    Layers under the command roots explain wall_s; reads and validation under
    the verify root explain verify_s. Times are inclusive over the outermost
    span of each name; self times split the command wall exactly among the
    modules and cli itself.
    """
    sel = [i for i, s in enumerate(spans) if s[4] == run]
    root: dict[int, int] = {}
    child_time: dict[int, float] = {i: 0.0 for i in sel}
    for i in sel:
        _, start, end, parent, _, _ = spans[i]
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child_time[parent] += end - start

    def outermost(i):
        name = spans[i][0]
        j = spans[i][3]
        while j >= 0:
            if spans[j][0] == name:
                return False
            j = spans[j][3]
        return True

    time: dict[str, float] = {}
    calls: dict[str, int] = {}
    outer_calls: dict[str, int] = {}
    counts: dict[tuple[str, str], int] = {}
    self_s = {m: 0.0 for m in MODULES}
    verify_time: dict[str, float] = {}
    read_bytes = 0
    wall = covered = 0.0
    for i in sel:
        name, start, end, parent, _, c = spans[i]
        dur = end - start
        rname = spans[root[i]][0]
        if rname == ROOT_VERIFY:
            verify_time[name] = verify_time.get(name, 0.0) + dur
            if c and name in _IO_READ:
                read_bytes += c["bytes"]
            continue
        if rname != ROOT_COMMAND:
            continue
        if name == ROOT_COMMAND:
            wall += dur
            covered += child_time[i]
            continue
        calls[name] = calls.get(name, 0) + 1
        if outermost(i):
            time[name] = time.get(name, 0.0) + dur
            outer_calls[name] = outer_calls.get(name, 0) + 1
        module = name.split(".")[0]
        if module in self_s:
            self_s[module] += dur - child_time[i]
        for key, v in (c or {}).items():
            counts[name, key] = counts.get((name, key), 0) + v

    def t(*names):
        return sum(time.get(nm, 0.0) for nm in names)

    def n(*names):
        return sum(calls.get(nm, 0) for nm in names)

    def cnt(names, key):
        return sum(counts.get((nm, key), 0) for nm in names)

    build_s = t(*_BUILD)
    in_build_ll = sum(spans[i][2] - spans[i][1] for i in sel
                      if spans[i][0] == "distributions.log2_likelihoods"
                      and spans[i][3] >= 0 and spans[spans[i][3]][0] in _BUILD
                      and spans[root[i]][0] == ROOT_COMMAND)
    points = cnt(_BUILD, "points")
    write_s = t(*_IO_WRITE)
    write_bytes = cnt(_IO_WRITE, "bytes")
    codes_made = n("codes.make_code")
    analyses = n("analysis.analyze_region")
    emitters = sum(1 for argv in commands if argv[0] in _ANALYSIS_EMITTERS)
    exact = {
        "partition.build_calls": n(*_BUILD),
        "partition.points": points,
        "partition.cosets": cnt(_BUILD, "cosets"),
        "partition.member_bytes": cnt(_BUILD, "member_bytes"),
        "io.write_bytes": write_bytes,
        "io.read_bytes": read_bytes,
        # Every code drawn, by sample_generator or by the Monte Carlo loop,
        # goes through draw_full_rank.
        "codes.sample_calls": outer_calls.get("codes.draw_full_rank", 0),
        "codes.made": codes_made,
        "codes.codewords": cnt(("codes.enumerate_codewords",), "codewords"),
        "zplinalg.rref_calls": n("zplinalg.rref"),
        "analysis.analyses": analyses,
        "analysis.emitted": emitters,
        "analysis.mc_trials": cnt(("analysis.estimate_match_probability",), "trials"),
        "distributions.log2_likelihoods_calls": n("distributions.log2_likelihoods"),
        "continuous.fold_calls": n("continuous.fold_density"),
    }
    layer = dict(exact)
    layer.update({
        "partition.build_s": build_s,
        "partition.points_per_s": points / build_s if build_s > 0 else 0.0,
        "partition.likelihood_share": in_build_ll / build_s if build_s > 0 else 0.0,
        "partition.validate_s": verify_time.get("partition.validate_region", 0.0),
        "io.read_s": sum(verify_time.get(nm, 0.0) for nm in _IO_READ),
        "io.write_s": write_s,
        "io.write_MBps": write_bytes / 1e6 / write_s if write_s > 0 else 0.0,
        "codes.sample_s": t("codes.draw_full_rank"),
        "codes.enumerate_s": t("codes.enumerate_codewords"),
        "zplinalg.rref_s": t("zplinalg.rref"),
        "zplinalg.rref_per_code": exact["zplinalg.rref_calls"] / codes_made if codes_made else 0.0,
        "analysis.analyze_s": t("analysis.analyze_region"),
        "analysis.kl_s": t("analysis.kl_region_vs_product"),
        "analysis.marginals_s": t("analysis.marginals"),
        "analysis.useful_ratio": emitters / analyses if analyses else 0.0,
        "analysis.mc_s": t("analysis.estimate_match_probability"),
        "distributions.log2_likelihoods_s": t("distributions.log2_likelihoods"),
        "continuous.fold_bin_s": t(*_FOLD_BIN),
        "continuous.divergence_s": t("continuous.continuous_divergence"),
        "cli.self_s": wall - covered,
        "cli.coverage_pct": 100.0 * covered / wall if wall > 0 else 0.0,
    })
    for m in MODULES:
        layer[f"{m}.self_s"] = self_s[m]
    return layer, exact
