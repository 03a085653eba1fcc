"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that:
- BENCHMARK.json names exactly the metrics and units that run.py reports;
- every workload, shrunk, runs untraced and traced with no failed op, prints
  every metric with its unit, and its exact counts repeat from op to op;
- a tampered output file and a wrong reference fingerprint are both counted
  as failed ops (failed_fraction above zero, correct false);
- run.py exits non-zero, printing no result, where there are no sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke FAILED: {what}")


def result_line(wl, seed, report) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_report(wl.name, seed, {}, report)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def tamper_region(out) -> None:
    path = out / "region.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = str((int(cells[1]) + 1) % 13)
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "end_to_end metrics in BENCHMARK.json differ from run.END_TO_END")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "per_layer metrics in BENCHMARK.json differ from run.PER_LAYER")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
          "workload names differ")

    run.import_lqn()
    from workloads import workloads

    tiny = workloads(tiny=True)
    for wl in tiny.values():
        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            report = run.benchmark(wl, wl.pinned_seed, 1.0, trace, setup_samples=2,
                                   reference={})
            line = result_line(wl, wl.pinned_seed, report)
            check(set(line) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(line["correct"] and line["failed"] == 0,
                  f"{wl.name} trace={trace}: {report['errors'] + report['notes']}")
            check({k: m["unit"] for k, m in line["metrics"].items()} == units,
                  f"{wl.name} trace={trace}: metric names or units")
            print(f"{wl.name} trace={int(trace)}: {line['attempted']} ops ok")

    w4 = tiny["w4-search"]
    report = run.benchmark(w4, w4.pinned_seed, 0.5, False, setup_samples=1, reference={},
                           tamper=tamper_region)
    check(report["failed"] == report["attempted"] and report["failed_fraction"] > 0
          and not report["correct"], "a tampered region.csv was not counted as failed")
    print(f"tampered region.csv: failed_fraction {report['failed_fraction']}")
    bogus = {"files": {"region.csv": "0" * 64}}
    report = run.benchmark(w4, w4.pinned_seed, 0.5, False, setup_samples=1, reference=bogus)
    check(report["failed"] == report["attempted"] and not report["correct"],
          "a fingerprint mismatch was not counted as failed")
    print(f"wrong fingerprint: failed_fraction {report['failed_fraction']}")

    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(spec["command"][:1] + [str(bare / spec["command"][1]),
                          "--workload", "w4-search", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and "metrics" not in proc.stdout,
          "run.py without sources did not fail cleanly")
    print(f"without sources: exit {proc.returncode}")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
