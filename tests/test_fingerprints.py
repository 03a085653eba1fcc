"""The benchmark's pinned outputs, byte for byte.

Each workload in perfbench/workloads.py runs its commands at its pinned seed
through lqn.cli.main, and every emitted file must have the sha256 recorded
in perfbench/fingerprints.json. Both files are only read here.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from lqn.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
FINGERPRINTS = json.loads((BENCH / "fingerprints.json").read_text())


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve annotations through it
    spec.loader.exec_module(mod)
    return mod.workloads()


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_pinned_outputs_match_fingerprints(tmp_path, name):
    wl, pinned = WORKLOADS[name], FINGERPRINTS[name]
    assert wl.pinned_seed == pinned["seed"]
    for argv in wl.commands(pinned["seed"], tmp_path):
        assert main(argv) == 0
    hashes = {
        str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert hashes == pinned["files"]
