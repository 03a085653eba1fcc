"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py --workloads w4-search bounds-mc --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per (workload, seed), one after another, and
for every end-to-end metric reports the ten (or however many) values'
median and the distance between their first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median.
Each spread is compared with a third of the metric's bound in BENCHMARK.json
(``setup_s`` is reported but has no spread rule). ``--out`` keeps every raw
result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict[str, list] = {}
    steady = True
    for wl in args.workloads:
        raw[wl] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{wl} seed {seed}: exit {proc.returncode}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            raw[wl].append(res)
            print(f"{wl} seed {seed}: correct {res['correct']} "
                  f"attempted {res['attempted']} failed {res['failed']}", flush=True)
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in raw[wl]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            share = (q3 - q1) / med
            ok = metric == "setup_s" or share < bound / 3
            steady &= ok and all(r["correct"] for r in raw[wl])
            print(f"  {wl:15s} {metric:14s} median {med:<12.6g} spread {share:7.2%} "
                  f"bound {bound:.2f} {'ok' if ok else 'WIDE'}")
    if args.out is not None:
        args.out.write_text(json.dumps(raw, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
