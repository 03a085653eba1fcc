"""Benchmark of the lqn command line, end to end and layer by layer.

    python3 perfbench/run.py --workload w4-search --seed 3 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src``. Each
run is one fresh process with single-threaded BLAS. It repeats the
workload's ops (CLI commands through ``cli.main``, then a read-back
verification) for about ``--seconds``. Every op starts from the same
``--seed``, so its outputs must be identical from op to op, and at the
workload's pinned seed they must match the sha256 fingerprints in
``perfbench/fingerprints.json``.

With ``--trace 0`` ops come in pairs: one on ``lqn`` and one on ``reflqn``,
a frozen copy of the package as it was when the benchmark was defined, in
alternating order. Every timing is the median over pairs of lqn's time over
reflqn's, times reflqn's time on the host the benchmark was tuned on, so a
host that slows both down moves neither (see ``benchmark``). The last line reports the
end-to-end metrics. With ``--trace 1`` every other op runs with each lqn
layer wrapped in spans, and the last line reports the per-layer metrics.
Spans go to ``.perfbench_work/trace-<workload>-<seed>.jsonl``.
``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
FINGERPRINTS = HERE / "fingerprints.json"
WORKLOAD_NAMES = ("w4-search", "tri-continuous", "bounds-mc")
SETUP_SAMPLES = 9
SETUP_SNIPPET = (
    "import importlib, sys\n"
    "pkg = importlib.import_module(sys.argv[2])\n"
    "if not pkg.__file__.startswith(sys.argv[1]): raise SystemExit('not from ' + sys.argv[1])\n"
    "pkg.builtin_cases(); pkg.continuous_builtins()\n"
)
# Seconds reflqn's code took on the host the benchmark was tuned on (2-vCPU
# Xeon VM): set-up, the median of an earlier ten-run set, and per workload
# an op's commands and one verification, medians over three to five runs.
# They only set the scale of the normalized timings; a change to lqn moves
# those by lqn's ratio to reflqn.
REF_SETUP_S = 0.130
REF_S = {
    "w4-search": (0.9115, 0.2771),
    "tri-continuous": (0.4107, 0.4325),
    "bounds-mc": (0.7136, 0.04305),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verify_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "partition.build_s": "s",
    "partition.build_calls": "count",
    "partition.points": "count",
    "partition.cosets": "count",
    "partition.points_per_s": "1/s",
    "partition.member_bytes": "bytes-computed",
    "partition.likelihood_share": "ratio",
    "partition.validate_s": "s",
    "io.read_s": "s",
    "io.read_bytes": "bytes",
    "io.write_s": "s",
    "io.write_bytes": "bytes",
    "io.write_MBps": "MB/s",
    "codes.sample_s": "s",
    "codes.sample_calls": "count",
    "codes.enumerate_s": "s",
    "codes.codewords": "count",
    "zplinalg.rref_s": "s",
    "zplinalg.rref_calls": "count",
    "zplinalg.rref_per_code": "count",
    "analysis.analyze_s": "s",
    "analysis.kl_s": "s",
    "analysis.marginals_s": "s",
    "analysis.useful_ratio": "ratio",
    "analysis.mc_s": "s",
    "analysis.mc_trials": "count",
    "distributions.log2_likelihoods_s": "s",
    "distributions.log2_likelihoods_calls": "count",
    "continuous.fold_bin_s": "s",
    "continuous.fold_calls": "count",
    "continuous.divergence_s": "s",
    "partition.self_s": "s",
    "io.self_s": "s",
    "codes.self_s": "s",
    "zplinalg.self_s": "s",
    "analysis.self_s": "s",
    "distributions.self_s": "s",
    "continuous.self_s": "s",
    "cli.self_s": "s",
    "cli.coverage_pct": "%",
    "tracing.overhead_s": "s",
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_info() -> dict:
    """Host facts for the report; absent ones read 'unknown'."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    model = [ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
             if ln.startswith("model name")]
    info["cpu_model"] = model[0] if model else "unknown"
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}/"
        level, kind = _read(base + "level").strip(), _read(base + "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"L{level}"] = _read(base + "size").strip()
    mem = [ln.split(":", 1)[1].strip() for ln in _read("/proc/meminfo").splitlines()
           if ln.startswith("MemTotal")]
    info["mem_total"] = mem[0] if mem else "unknown"
    try:
        import numpy
        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = "unknown"
    info["git_commit"] = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                info["git_commit"] = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def measure_setup(package: str) -> float:
    """Interpreter start to the package imported and bundled targets built."""
    home = SRC if package == "lqn" else HERE
    env = dict(os.environ)
    env["PYTHONPATH"] = str(home) + os.pathsep + env.get("PYTHONPATH", "")
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(home), package], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return elapsed


def setup_ratio(i: int) -> float:
    """lqn's set-up time over reflqn's, the two measured back to back."""
    first, second = ("lqn", "reflqn") if i % 2 == 0 else ("reflqn", "lqn")
    times = {first: measure_setup(first), second: measure_setup(second)}
    return times["lqn"] / times["reflqn"]


def file_hashes(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


@dataclass
class Op:
    """Timings and outcome of one op."""

    commands: list[list[str]]
    wall_s: float = 0.0
    verify_s: float = 0.0
    total_s: float = 0.0
    rss_mb: float = 0.0
    error: str | None = None
    hashes: dict[str, str] = field(default_factory=dict)


def run_commands(wl, seed: int, out: Path, pkg, tracer=None) -> Op:
    """The op's commands with package pkg into a fresh out; a failure is recorded."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    op = Op(wl.commands(seed, out))
    gc.collect()
    for argv in op.commands:
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = pkg.cli.main(argv)
                else:
                    rc = tracer.span("cli.main", pkg.cli.main, argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception"
            traceback.print_exc()
        op.wall_s += perf_counter() - t0
        if rc != 0:
            op.error = f"{' '.join(argv[:1])} exited with {rc}: {buf.getvalue().strip()}"
            break
    op.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return op


def verify(wl, op: Op, out: Path, pkg, tracer=None) -> float:
    """Seconds one verification of out with pkg takes; a failure is recorded in op."""
    from workloads import VerifyError

    t0 = perf_counter()
    try:
        if tracer is None:
            wl.verify(out, pkg)
        else:
            tracer.span("verify", wl.verify, out, pkg)
    except VerifyError as exc:
        op.error = f"verify: {exc}"
    except Exception as exc:
        op.error = f"verify raised {exc!r}"
        traceback.print_exc()
    return perf_counter() - t0


def finish(op: Op, out: Path) -> None:
    op.hashes = file_hashes(out)
    shutil.rmtree(out, ignore_errors=True)


def run_op(wl, seed: int, out: Path, pkg, tracer=None, tamper=None) -> Op:
    """Commands, then one verification, with package pkg."""
    t0 = perf_counter()
    op = run_commands(wl, seed, out, pkg, tracer)
    if op.error is None and tamper is not None:
        tamper(out)
    if op.error is None:
        op.verify_s = verify(wl, op, out, pkg, tracer)
    op.total_s = perf_counter() - t0
    finish(op, out)
    return op


def check_op(op: Op, ops: list[Op], reference) -> None:
    """Fail an op whose files differ from the run's first op or the fingerprints."""
    if op.error is None and ops and op.hashes != ops[0].hashes:
        op.error = "output differs from the first op of this run"
    if op.error is None and reference is not None and op.hashes != reference:
        op.error = "output differs from the reference fingerprints"
    if op.error is not None and all(o.error != op.error for o in ops):
        print(f"op {len(ops)} failed: {op.error}", file=sys.stderr)


def run_pairs(wl, seed, budget_s, out, reference, tamper=None, after_pair=None):
    """Pairs of ops, one with lqn and one with reflqn, while the next pair fits.

    Returns lqn's ops and reflqn's. In a pair, both packages run their
    commands, then verify their own files wl.verify_repeats times; each
    step alternates which package goes first, so the two see the same host.
    Pair 0 starts with lqn, so its peak RSS is lqn's own. reflqn's outputs
    are not judged, but it must not fail: the same frozen code and seed
    worked when the benchmark was made.
    """
    from workloads import package

    lqn, reflqn = package("lqn"), package("reflqn")
    live: list[Op] = []
    ref: list[Op] = []
    pair_s: list[float] = []
    t0 = perf_counter()
    while not pair_s or perf_counter() - t0 + statistics.median(pair_s) <= budget_s:
        t_pair = perf_counter()
        i = len(live)
        order = (lqn, reflqn) if i % 2 == 0 else (reflqn, lqn)
        dirs = {lqn: out / f"op{i}", reflqn: out / f"ref{i}"}
        ops = {pkg: run_commands(wl, seed, dirs[pkg], pkg) for pkg in order}
        if ops[lqn].error is None and tamper is not None:
            tamper(dirs[lqn])
        for rep in range(wl.verify_repeats):
            for pkg in order if rep % 2 == 0 else order[::-1]:
                if ops[pkg].error is None:
                    ops[pkg].verify_s += verify(wl, ops[pkg], dirs[pkg], pkg) / wl.verify_repeats
        for pkg in order:
            finish(ops[pkg], dirs[pkg])
        if ops[reflqn].error is not None:
            raise RuntimeError(f"reflqn op {i} failed: {ops[reflqn].error}")
        check_op(ops[lqn], live, reference)
        live.append(ops[lqn])
        ref.append(ops[reflqn])
        pair_s.append(perf_counter() - t_pair)
        if after_pair is not None:
            after_pair()
    return live, ref


def run_traced(wl, seed, budget_s, out, reference, tracer, tamper=None) -> list[Op]:
    """lqn ops while the next one fits, at least four: a warm-up, then
    traced and untraced ops in turn, so both kinds see the same warm process.
    """
    from workloads import package

    lqn = package("lqn")
    ops: list[Op] = []
    t0 = perf_counter()
    while len(ops) < 4 or (perf_counter() - t0 + statistics.median(o.total_s for o in ops)
                           <= budget_s):
        traced = len(ops) % 2 == 1
        if traced:
            tracer.run = len(ops)
            tracer.install()
        try:
            op = run_op(wl, seed, out / f"op{len(ops)}", lqn, tracer if traced else None,
                        tamper)
        finally:
            if traced:
                tracer.uninstall()
        check_op(op, ops, reference)
        ops.append(op)
    return ops


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    """Median, quartiles and sample count per metric, in catalogue order."""
    out = {}
    for name, unit in units.items():
        vals = samples[name]
        q1, med, q3 = quartiles(vals)
        if all(isinstance(v, int) for v in vals) and med == int(med):
            q1, med, q3 = int(q1), int(med), int(q3)
        out[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(vals)}
    return out


def load_reference(workload: str) -> dict:
    return json.loads(FINGERPRINTS.read_text())[workload]


def benchmark(wl, seed: int, seconds: float, trace: bool, setup_samples=SETUP_SAMPLES,
              reference=None, tamper=None) -> dict:
    """One run: ops for about `seconds`; returns the report.

    Untraced, each timing is normalized by reflqn, timed beside lqn: a
    pair's sample is lqn's time over reflqn's, times reflqn's time on the
    tuning host (REF_S), and the metric is the median over the run's pairs
    after the first. The host's speed drifts by tens of percent over
    minutes on a shared machine and slows both packages alike, so the ratio
    cancels it; on the code reflqn was copied from, the metrics read about
    REF_S. trials_per_s follows from wall_s. setup_s takes the same ratio from
    fresh interpreters, one lqn and one reflqn back to back, spread evenly
    over the run between pairs. The peak RSS is read after the first op's
    commands, before any verification.
    """
    from tracer import Tracer, layer_metrics

    ref = load_reference(wl.name) if reference is None else reference
    ref_files = ref.get("files") if seed == wl.pinned_seed else None
    ref_counts = ref.get("counts") if seed == wl.pinned_seed else None
    out = WORK / f"{wl.name}-{seed}-{os.getpid()}"
    notes: list[str] = []
    measured: list[str] = []
    count_errors: list[str] = []
    try:
        if not trace:
            ref_wall, ref_verify = REF_S[wl.name]
            setup = [setup_ratio(0)]
            t_start = perf_counter()

            def sample_setup():
                due = 1 + int((setup_samples - 1) * (perf_counter() - t_start) / seconds)
                while len(setup) < min(due, setup_samples):
                    setup.append(setup_ratio(len(setup)))

            ops, ref_ops = run_pairs(wl, seed, seconds, out, ref_files, tamper, sample_setup)
            while len(setup) < setup_samples:
                setup.append(setup_ratio(len(setup)))
            # Pair 0 warms the process up: its lqn op pays for first calls
            # and for growing the heap, so it is timed only when alone.
            pairs = [(a, b) for a, b in zip(ops, ref_ops) if a.error is None][1:]
            pairs = pairs or list(zip(ops, ref_ops))
            wall = [ref_wall * a.wall_s / b.wall_s for a, b in pairs]
            samples = {
                "setup_s": [REF_SETUP_S * r for r in setup],
                "wall_s": wall,
                # 0 only when no lqn op got as far as verification
                "verify_s": [ref_verify * a.verify_s / b.verify_s for a, b in pairs],
                "trials_per_s": [wl.units / w for w in wall],
                "peak_rss_mb": [ops[0].rss_mb],
            }
            metrics = summarize(samples, END_TO_END)
            for name, side in (("lqn", ops), ("reflqn", ref_ops)):
                measured.append(f"{name} as measured: median wall_s "
                                f"{statistics.median(o.wall_s for o in side):.4g} s, verify_s "
                                f"{statistics.median(o.verify_s for o in side):.4g} s")
        else:
            tracer = Tracer()
            ops = run_traced(wl, seed, seconds, out, ref_files, tracer, tamper)
            if tracer.unpatched:
                notes.append(f"unpatched sites: {', '.join(tracer.unpatched)}")
            traced, plain = ops[1::2], ops[2::2]
            layers, counts = [], []
            for run in range(1, len(ops), 2):
                lay, exact = layer_metrics(tracer.spans, run, ops[run].commands)
                layers.append(lay)
                counts.append(exact)
            if any(c != counts[0] for c in counts):
                count_errors.append("exact counts differ between ops of one seed")
            if ref_counts is not None and counts[0] != ref_counts:
                count_errors.append("exact counts differ from the reference counts")
            overhead = (statistics.median(o.wall_s for o in traced)
                        - statistics.median(o.wall_s for o in plain))
            samples = {name: [lay[name] for lay in layers] for name in PER_LAYER
                       if name != "tracing.overhead_s"}
            samples["tracing.overhead_s"] = [overhead]
            metrics = summarize(samples, PER_LAYER)
            metrics["exact_counts"] = counts[0]
            tracer.write_jsonl(WORK / f"trace-{wl.name}-{seed}.jsonl")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    failed = sum(1 for o in ops if o.error is not None)
    return {
        "correct": failed == 0 and not count_errors,
        "attempted": len(ops),
        "failed": failed,
        "failed_fraction": failed / len(ops),
        "notes": notes + count_errors,
        "measured": measured,
        "errors": [o.error for o in ops if o.error is not None],
        "metrics": metrics,
    }


def print_report(name: str, seed: int, machine: dict, report: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"workload {name} seed {seed}: attempted {report['attempted']}, "
          f"failed {report['failed']}, failed_fraction {report['failed_fraction']} "
          f"(ratio), correct {report['correct']}")
    for note in report["notes"] + sorted(set(report["errors"])):
        print(f"  ! {note}")
    for line in report["measured"]:
        print(f"  {line}")
    metrics = dict(report["metrics"])
    exact = metrics.pop("exact_counts", None)
    for key, m in metrics.items():
        print(f"  {key:38s} {m['value']:<22.10g} {m['unit']:15s} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")
    if exact is not None:
        print(f"exact_counts {json.dumps(exact, sort_keys=True)}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = m
    print(json.dumps(merged))
    return 0


def import_lqn() -> None:
    """Import lqn from this checkout's src, whatever else is on the path."""
    sys.path.insert(0, str(SRC))
    import lqn

    if not lqn.__file__.startswith(str(SRC)):
        raise SystemExit(f"error: lqn imported from {lqn.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's pinned seed)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "lqn" / "__init__.py").is_file():
        print(f"error: no lqn sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import_lqn()
    from workloads import workloads

    wl = workloads()[args.workload]
    seed = wl.pinned_seed if args.seed is None else args.seed
    load_before = os.getloadavg()
    machine = machine_info()
    report = benchmark(wl, seed, args.seconds, bool(args.trace))
    machine["loadavg_before"] = load_before
    machine["loadavg_after"] = os.getloadavg()
    print_report(wl.name, seed, machine, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
