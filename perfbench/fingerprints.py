"""Record the reference outputs of every workload at its pinned seed.

    python3 perfbench/fingerprints.py          # print what a fresh run gives
    python3 perfbench/fingerprints.py --write  # store it in fingerprints.json

One traced op per workload gives the sha256 of every emitted file and the
exact counts (points, cosets, codewords, rref calls, fold calls, analyses,
bytes written and read). ``run.py`` fails an op whose files differ from
these at the pinned seed, and a traced run whose counts differ. Regenerate
only when a change is meant to alter the outputs, and say why.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def record() -> dict:
    run.import_lqn()
    from tracer import Tracer, layer_metrics
    from workloads import package, workloads

    data = {}
    for wl in workloads().values():
        tracer = Tracer()
        tracer.install()
        tracer.run = 1
        try:
            op = run.run_op(wl, wl.pinned_seed, run.WORK / "fingerprints", package("lqn"),
                            tracer)
        finally:
            tracer.uninstall()
        if op.error is not None:
            raise SystemExit(f"{wl.name}: {op.error}")
        _, exact = layer_metrics(tracer.spans, 1, op.commands)
        data[wl.name] = {"seed": wl.pinned_seed, "files": op.hashes, "counts": exact}
        print(f"{wl.name}: {len(op.hashes)} files", file=sys.stderr)
    return data


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help="overwrite fingerprints.json")
    args = ap.parse_args(argv)
    text = json.dumps(record(), indent=2, sort_keys=True) + "\n"
    if args.write:
        run.FINGERPRINTS.write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
