"""End-to-end command line runs against temp directories."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqn.cli
import lqn.continuous
import lqn.distributions
import lqn.io
import lqn.partition
import lqn.zplinalg
from lqn import (
    ContinuousReport,
    analyze_region,
    bin_density,
    build_continuous,
    build_ml_partition,
    build_region,
    sample_generator,
    select_k,
    validate_region,
)
from lqn.cases import continuous_builtins
from lqn.cli import main
from lqn.io import load_json, load_marginals_csv, load_region_csv


def _python_env() -> dict:
    """os.environ with this checkout's lqn first on PYTHONPATH, for a subprocess."""
    src = str(Path(lqn.cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run(args):
    """main on args; no run, failed or not, may leave a temp file in its out-dir.

    A directory named *.tmp is a test's own blocker, not a temp file.
    """
    argv = [str(a) for a in args]
    code = main(argv)
    if "--out-dir" in argv:
        out = Path(argv[argv.index("--out-dir") + 1])
        assert not [tmp for tmp in out.rglob("*.tmp") if not tmp.is_dir()]
    return code


def uniform3_file(tmp_path):
    path = tmp_path / "uniform3.json"
    path.write_text(
        json.dumps({"type": "discrete", "p": 3, "probs": [1 / 3, 1 / 3, 1 / 3]})
    )
    return path


# Target files that are not a well-formed distribution, by name.
MALFORMED_TARGETS = {
    "no_probs.json": {"type": "discrete", "p": 3},
    "list.json": [1, 2],
    "null_half_width.json": {
        "type": "continuous", "A": None, "knots": [[-1, 0.5], [1, 0.5]]
    },
    "int_knots.json": {"type": "continuous", "A": 1, "knots": 5},
    "float_p.json": {"type": "discrete", "p": 5.5, "probs": [0.2] * 5},
    "str_p.json": {"type": "discrete", "p": "5", "probs": [0.2] * 5},
    "inf_knot.json": {
        "type": "continuous", "A": 1.0, "knots": [[-1, math.inf], [1, 0.5]]
    },
    "nan_knot.json": {
        "type": "continuous", "A": 1.0, "knots": [[-1, math.nan], [1, 0.5]]
    },
    # finite knots whose exact mass is beyond the float range
    "huge_knots.json": {
        "type": "continuous", "A": 1.0, "knots": [[-1, 1e308], [1, 1e308]]
    },
    # JSON integers too large for a float
    "huge_int_knot.json": {"type": "continuous", "A": 1, "knots": [[-1, 10**400], [1, 1]]},
    "huge_int_prob.json": {"type": "discrete", "p": 2, "probs": [10**400, 0.5]},
}


def test_analyze_writes_bundle(tmp_path):
    out = tmp_path / "run"
    assert run(["analyze", "--dist", "w1", "--out-dir", out]) == 0
    report = load_json(out / "report.json")
    assert report["kind"] == "analysis"
    prov = report["provenance"]
    assert (prov["p"], prov["n"], prov["k"]) == (37, 2, 1)
    assert prov["criterion"] == "ml"
    marg = load_marginals_csv(out / "marginals.csv")
    assert marg.shape == (2, 37)
    idx, reps, good = load_region_csv(out / "region.csv")
    assert len(idx) == 37
    assert reps.shape == (37, 2)
    assert good.shape == (37,)


def test_search_single_trial_matches_analyze(tmp_path):
    a, s = tmp_path / "a", tmp_path / "s"
    assert run(["analyze", "--dist", "w1", "--seed", 9, "--out-dir", a]) == 0
    assert run(
        ["search", "--dist", "w1", "--seed", 9, "--trials", 1, "--out-dir", s]
    ) == 0
    ra, rs = load_json(a / "report.json"), load_json(s / "report.json")
    assert ra["D_total_bits"] == rs["D_total_bits"]
    assert (a / "region.csv").read_bytes() == (s / "region.csv").read_bytes()
    assert (a / "marginals.csv").read_bytes() == (s / "marginals.csv").read_bytes()
    trials = (s / "trials.csv").read_text().splitlines()
    assert trials[1] == "trial,D_total_bits"
    assert len(trials) == 3


def test_search_direction(tmp_path):
    lo, hi = tmp_path / "lo", tmp_path / "hi"
    base = ["search", "--dist", "w3", "--k", 2, "--trials", 3, "--seed", 5]
    assert run(base + ["--direction", "minimize", "--out-dir", lo]) == 0
    assert run(base + ["--direction", "maximize", "--out-dir", hi]) == 0
    dlo = load_json(lo / "report.json")["D_total_bits"]
    dhi = load_json(hi / "report.json")["D_total_bits"]
    assert dhi >= dlo
    # the trial table itself is direction-independent
    assert (lo / "trials.csv").read_bytes() == (hi / "trials.csv").read_bytes()


def test_search_rebuilds_only_the_first_best_trial(tmp_path, monkeypatch):
    """Each trial draws one code and selects its cell once, without rows, and
    only the winner's code becomes a region: build_region selects it once
    more, with rows, and builds it. Under a uniform target every trial ties at
    D = k*log2(p), so both directions keep trial 0; a sweep builds no region,
    and analyze and bounds draw one code and build its region, selecting once."""
    calls = {"choose": [], "build_region": [], "sample_generator": []}

    def counter(fn, log):
        def counted(*a, **kw):
            log.append(a)
            return fn(*a, **kw)
        return counted

    # cli's choose and the one build_region calls are lqn.partition.choose: count both
    selected = counter(lqn.partition.choose, calls["choose"])
    for module in (lqn.cli, lqn.partition):
        monkeypatch.setattr(module, "choose", selected)
    for name in ("build_region", "sample_generator"):
        monkeypatch.setattr(lqn.cli, name, counter(getattr(lqn.cli, name), calls[name]))

    def counts():
        out = {name: len(log) for name, log in calls.items()}
        for log in calls.values():
            log.clear()
        return out

    dist = uniform3_file(tmp_path)
    base = ["--dist", dist, "--n", 4, "--seed", 6, "--trials", 5]
    for direction in ("minimize", "maximize"):
        out = tmp_path / direction
        argv = ["search", *base, "--k", 2, "--direction", direction, "--out-dir", out]
        assert run(argv) == 0
        assert counts() == {"choose": 6, "build_region": 1, "sample_generator": 5}
        report = load_json(out / "report.json")
        assert report["provenance"]["trial"] == 0
        rows = (out / "trials.csv").read_text().splitlines()[2:]
        assert len(rows) == 5
        assert {float(row.split(",")[1]) for row in rows} == {report["D_total_bits"]}
        assert report["D_total_bits"] == pytest.approx(2 * np.log2(3))
    assert run(["sweep-rate", *base, "--k-range", "1:3", "--out-dir", tmp_path / "sw"]) == 0
    assert counts() == {"choose": 15, "build_region": 0, "sample_generator": 15}
    # w3 sweeps k = 1..5 with 2 trials each, then builds the winner of the argmin k
    assert run(["reproduce", "--case", "w3", "--trials", 2, "--out-dir", tmp_path / "w3"]) == 0
    assert counts() == {"choose": 11, "build_region": 1, "sample_generator": 10}
    # at seed 3 trial 1 of k = 2 wins, and its code is the one built
    out = tmp_path / "w3-seed3"
    assert run(["reproduce", "--case", "w3", "--trials", 2, "--seed", 3, "--out-dir", out]) == 0
    prov = load_json(out / "report.json")["provenance"]
    assert (prov["k"], prov["trial"]) == (2, 1)
    built = calls["build_region"][-1][0]
    winner = sample_generator((3, 1), 2, prov["n"], prov["p"])
    assert np.array_equal(built.generator, winner.generator)
    assert counts() == {"choose": 11, "build_region": 1, "sample_generator": 10}
    # analyze and bounds draw trial 0's code and build its region, scoring no trial
    one = ["--dist", dist, "--n", 4, "--k", 2, "--seed", 6]
    for command in ("analyze", "bounds"):
        assert run([command, *one, "--out-dir", tmp_path / command]) == 0
        built = calls["build_region"][-1][0]
        assert np.array_equal(built.generator, sample_generator((6, 0), 2, 4, 3).generator)
        assert counts() == {"choose": 1, "build_region": 1, "sample_generator": 1}


def test_reselected_winner_keeps_the_point_cap(tmp_path, monkeypatch):
    # 3**5 = 243 points are over a default cap of 100 and within --max-points 243,
    # and trial 3 of 4 wins, so the winner is selected again: under the flag's cap
    for module in (lqn.cli, lqn.partition):
        monkeypatch.setattr(module, "MAX_POINTS", 100)
    dist = tmp_path / "t.json"
    dist.write_text(json.dumps({"type": "discrete", "p": 3, "probs": [0.6, 0.3, 0.1]}))
    out = tmp_path / "out"
    argv = ["search", "--dist", dist, "--n", 5, "--k", 2, "--trials", 4, "--seed", 0,
            "--max-points", 243, "--out-dir", out]
    assert run(argv) == 0
    assert load_json(out / "report.json")["provenance"]["trial"] == 3
    target = lqn.io.load_distribution_file(dist)
    code = sample_generator((0, 3), 2, 5, 3)
    region = build_region(code, target, "ml", max_points=243)
    _, reps, good = load_region_csv(out / "region.csv")
    assert np.array_equal(reps, region.reps)
    assert np.array_equal(good, region.good_flags)


def test_failed_write_removes_its_temp_file(tmp_path):
    out = tmp_path / "x"
    (out / "region.csv").mkdir(parents=True)
    assert run(["analyze", "--dist", "w3", "--k", 2, "--out-dir", out]) == 2
    assert (out / "region.csv").is_dir()
    assert [p.name for p in out.iterdir()] == ["region.csv"]


# Each bundle-writing command and the last file of its bundle.
BUNDLES = {
    "analyze": (["analyze", "--dist", "w3", "--k", 2], "region.csv"),
    "search": (["search", "--dist", "w3", "--k", 2, "--trials", 2], "trials.csv"),
    "sweep-rate": (["sweep-rate", "--dist", "w3", "--k-range", "1:2", "--trials", 1],
                   "sweep.json"),
    # sweep.csv and sweep.json come first, then the argmin k's bundle
    "reproduce": (["reproduce", "--case", "w3", "--trials", 1], "trials.csv"),
    "bounds": (["bounds", "--dist", "w3"], "bounds.json"),
    "continuous": (["continuous", "--dist", "triangle", "--p", 5, "--n", 2], "region.csv"),
}


@pytest.mark.parametrize("phase", ["write", "rename"])
@pytest.mark.parametrize("argv, last", BUNDLES.values(), ids=BUNDLES)
def test_a_blocked_last_file_leaves_no_file_of_the_run(tmp_path, capsys, argv, last, phase):
    # a directory at <name>.tmp fails its write, one at <name> its rename
    out = tmp_path / "out"
    blocker = out / (f"{last}.tmp" if phase == "write" else last)
    blocker.mkdir(parents=True)
    assert run(argv + ["--out-dir", out]) == 2
    assert list(out.iterdir()) == [blocker] and blocker.is_dir()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(blocker) in lines[0]


def test_success_lines(tmp_path, capsys, monkeypatch):
    # analyze names report.json as its out-dir joined by pathlib, "." dropped
    monkeypatch.chdir(tmp_path)
    for argv, line in [
        (["analyze", "--dist", "w3", "--k", 2],
         "D_per_dim=0.33948051464998424 bits, wrote report.json"),
        (["analyze", "--dist", "w3", "--k", 2, "--out-dir", "./o/"],
         "D_per_dim=0.33948051464998424 bits, wrote o/report.json"),
        (["search", "--dist", "w3", "--k", 2, "--trials", 5, "--out-dir", "o"],
         "best trial 2: D_total=1.9044507940234556 bits"),
        (["sweep-rate", "--dist", "w3", "--k-range", "1:3", "--trials", 3, "--out-dir", "o"],
         "argmin k = 2, predicted (closest rate) k = 2"),
        (["reproduce", "--case", "w1", "--trials", 3, "--out-dir", "o"],
         "w1: k=1, best trial 1, D_per_dim=1.815048443587696 bits"),
        (["bounds", "--dist", "w3", "--estimate", "--trials", 20, "--out-dir", "o"],
         "eps_star=0.7591318027841636, lemma1_bound=0.2653303945281841"),
        (["continuous", "--dist", "triangle", "--p", 7, "--n", 3, "--out-dir", "o"],
         "D_per_dim=0.7920631606247669 bits, bound=2.6606350203857607"),
    ]:
        assert run(argv) == 0
        assert capsys.readouterr().out == line + "\n"


def test_sweep_rate(tmp_path):
    out = tmp_path / "sweep"
    assert run(
        ["sweep-rate", "--dist", "w3", "--k-range", "1:2", "--trials", 2,
         "--seed", 4, "--out-dir", out]
    ) == 0
    sweep = load_json(out / "sweep.json")
    assert [row[0] for row in sweep["rows"]] == [1, 2]
    assert sweep["predicted_k_closest"] == 2
    assert sweep["argmin_k"] in (1, 2)
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == "k,R_bits,D_per_dim"
    assert len(lines) == 4


def test_reproduce_is_byte_deterministic(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    cmd = ["reproduce", "--case", "w1", "--trials", 5]
    assert run(cmd + ["--out-dir", one]) == 0
    assert run(cmd + ["--out-dir", two]) == 0
    for name in ("report.json", "marginals.csv", "region.csv", "trials.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_reproduce_w2_smoke(tmp_path):
    out = tmp_path / "w2"
    assert run(["reproduce", "--case", "w2", "--trials", 2, "--out-dir", out]) == 0
    prov = load_json(out / "report.json")["provenance"]
    assert prov["dist"] == "w2"
    assert prov["k"] == 1
    assert prov["trials"] == 2


def test_reproduce_w3_sweeps_dimensions(tmp_path):
    out = tmp_path / "w3"
    assert run(["reproduce", "--case", "w3", "--trials", 1, "--out-dir", out]) == 0
    sweep = load_json(out / "sweep.json")
    assert [row[0] for row in sweep["rows"]] == [1, 2, 3, 4, 5]
    prov = load_json(out / "report.json")["provenance"]
    assert prov["k"] == sweep["argmin_k"]


def test_provenance_rebuilds_identical_region(tmp_path):
    out = tmp_path / "w1"
    assert run(["reproduce", "--case", "w1", "--trials", 3, "--out-dir", out]) == 0
    report = load_json(out / "report.json")
    prov = report["provenance"]
    _, reps, good = load_region_csv(out / "region.csv")
    code = sample_generator(
        (prov["seed"], prov["trial"]), prov["k"], prov["n"], prov["p"]
    )
    from lqn import builtin_cases

    target = builtin_cases()["w1"].target
    region = build_ml_partition(code, target)
    np.testing.assert_array_equal(region.reps, reps)
    np.testing.assert_array_equal(region.good_flags, good)
    assert validate_region(region).ok
    assert analyze_region(region, target).D_total_bits == report["D_total_bits"]


def test_exit_code_2_on_bad_inputs(tmp_path):
    assert run(
        ["analyze", "--dist", tmp_path / "missing.json", "--out-dir", tmp_path]
    ) == 2
    # file targets carry no block length of their own
    dist = uniform3_file(tmp_path)
    assert run(["analyze", "--dist", dist, "--out-dir", tmp_path / "x"]) == 2


def test_exit_code_3_on_enumeration_cap(tmp_path, monkeypatch):
    out = tmp_path / "cap"
    base = ["analyze", "--dist", "w3", "--out-dir", out]
    # the cap stops the command before any output directory exists
    for argv in (
        base + ["--max-points", 100],
        ["search", "--dist", "w4", "--n", 5, "--k", 1, "--trials", 1,
         "--max-points", 100, "--out-dir", out],
        ["continuous", "--dist", "triangle", "--p", 31, "--n", 4,
         "--max-points", 100, "--out-dir", out],
        # 7**20 points pass this cap, but their sums (567 PiB) cannot be allocated
        base + ["--n", 20, "--max-points", 10**17],
        # 7**23 points overflow the int64 encodings, whatever the cap
        base + ["--n", 23, "--max-points", 10**30],
    ):
        assert run(argv) == 3
        assert not out.exists()
    monkeypatch.setenv("LQN_MAX_POINTS", "100")
    assert run(base) == 3
    assert not out.exists()
    # an explicit flag wins over the environment
    assert run(base + ["--max-points", 10_000_000]) == 0


@pytest.mark.parametrize("n", [3000, 4000])
def test_huge_point_count_is_one_short_line(tmp_path, capsys, n):
    # 13**3000 has 3342 digits, and 13**4000 is past the 4300 digits that int
    # to str conversion allows
    out = tmp_path / "out"
    assert run(["analyze", "--dist", "w4", "--n", n, "--k", 1, "--out-dir", out]) == 3
    assert not out.exists()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200
    assert "overflow the int64 encodings" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--dist", "w1"],
        ["continuous", "--dist", "triangle", "--p", 3],
        ["bounds", "--dist", "w3", "--estimate"],
    ],
)
def test_huge_n_is_refused_at_once(tmp_path, argv):
    # p**(10**8) has tens of millions of digits: forming it to compare with the
    # cap would take longer than the timeout
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "lqn.cli", *map(str, argv), "--n", "100000000", "--out-dir", out],
        capture_output=True, text=True, env=_python_env(), timeout=30,
    )
    assert proc.returncode == 3, proc.stderr
    line = r"error: \d+\*\*100000000 points overflow the int64 encodings\n"
    assert re.fullmatch(line, proc.stdout)
    assert not out.exists()


W3_AT_4000 = ["--dist", "w3", "--n", 4000]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", *W3_AT_4000],
        ["search", *W3_AT_4000, "--k", 1, "--trials", 1],
        ["sweep-rate", *W3_AT_4000, "--k-range", "1:2", "--trials", 1],
        ["bounds", *W3_AT_4000],
        # a bundled case brings its own n: w4's 13**6 points are over this cap
        ["reproduce", "--case", "w4", "--max-points", 100],
    ],
)
def test_point_cap_comes_before_any_code_is_drawn(tmp_path, capsys, monkeypatch, argv):
    # drawing a code at n=4000 runs a row reduction for a long time before the cap
    monkeypatch.setattr(lqn.cli, "sample_generator", _refuse)
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", out]) == 3
    assert not out.exists()
    assert re.fullmatch(
        r"error: .+ points (overflow the int64 encodings|exceed the cap 100)\n",
        capsys.readouterr().out,
    )


def test_estimate_over_the_codeword_cap_builds_no_region(tmp_path, capsys, monkeypatch):
    # 2**23 codewords exceed the cap; building the 2**24-point region first
    # takes seconds and gigabytes
    monkeypatch.setattr(lqn.cli, "choose", _refuse)
    dist = tmp_path / "skew2.json"
    dist.write_text(json.dumps({"type": "discrete", "p": 2, "probs": [0.8, 0.2]}))
    out = tmp_path / "out"
    argv = ["bounds", "--dist", dist, "--n", 24, "--k", 23, "--estimate", "--out-dir", out]
    assert run(argv) == 3
    assert not out.exists()
    assert capsys.readouterr().out.splitlines() == [
        "error: 8388608 codewords exceed the cap 4194304"
    ]


def test_estimate_refuses_a_negative_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lqn.cli, "choose", _refuse)
    out = tmp_path / "out"
    assert run(["bounds", "--dist", "w3", "--estimate", "--seed", -1, "--out-dir", out]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == "error: expected non-negative integer\n"


@pytest.mark.parametrize("estimate", [[], ["--estimate"]], ids=["bare", "estimate"])
def test_bounds_refuses_an_epsilon_outside_the_unit_interval_before_any_draw(
    tmp_path, capsys, monkeypatch, estimate
):
    monkeypatch.setattr(lqn.cli, "sample_generator", _refuse)
    monkeypatch.setattr(lqn.cli, "choose", _refuse)
    out = tmp_path / "out"
    argv = ["bounds", "--dist", "w3", "--epsilon-override", 1.5, *estimate, "--out-dir", out]
    assert run(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().out == "error: eps must lie in (0, 1)\n"


# One small run of each command; the out-dir is appended.
SMALL_RUNS = {
    "analyze": ["analyze", "--dist", "w1"],
    "search": ["search", "--dist", "w1", "--trials", 2],
    "sweep-rate": ["sweep-rate", "--dist", "w1", "--k-range", "1", "--trials", 2],
    "reproduce": ["reproduce", "--case", "w1", "--trials", 2],
    "bounds": ["bounds", "--dist", "w3"],
    "continuous": ["continuous", "--dist", "triangle", "--p", 7, "--n", 3],
}


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_every_command_refuses_a_negative_seed(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run([*SMALL_RUNS[command], "--seed", -1, "--out-dir", out]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == "error: expected non-negative integer\n"


def test_no_command_loads_numpy_random(tmp_path):
    # every seeded draw is lqn's own replay: a fresh interpreter that runs each
    # command, the Monte Carlo estimate too, never imports numpy.random
    argvs = [[str(a) for a in argv] for argv in SMALL_RUNS.values()]
    argvs[list(SMALL_RUNS).index("bounds")] += ["--estimate", "--trials", "20"]
    script = (
        "import json, sys\n"
        "from lqn.cli import main\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    assert main(argv + ['--out-dir', f'{sys.argv[2]}/{i}']) == 0, argv\n"
        "print(sorted(name for name in sys.modules if name.startswith('numpy.random')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs), str(tmp_path)],
        capture_output=True, text=True, env=_python_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert len(list(tmp_path.iterdir())) == len(SMALL_RUNS)


def test_epsilon_override_lands_in_report(tmp_path):
    out = tmp_path / "eps"
    assert run(
        ["analyze", "--dist", "w1", "--criterion", "typicality",
         "--epsilon-override", 0.7, "--out-dir", out]
    ) == 0
    assert load_json(out / "report.json")["provenance"]["epsilon"] == 0.7


def test_bounds_uniform_collapses(tmp_path):
    dist = uniform3_file(tmp_path)
    out = tmp_path / "bounds"
    assert run(
        ["bounds", "--dist", dist, "--n", 4, "--k", 1, "--seed", 2, "--out-dir", out]
    ) == 0
    payload = load_json(out / "bounds.json")
    assert payload["kind"] == "bounds"
    assert 0.0 <= payload["alpha"] <= 1e-12
    # every vector is typical under a uniform target, leaving 3 * (1/n)
    assert payload["eps_star"] == 0.75
    assert payload["bad_fraction"] == 0.0
    assert payload["estimate"] is None
    assert payload["lemma1_bound"] > 0.0


def test_bounds_theorem_mode_and_estimate(tmp_path):
    out = tmp_path / "w3b"
    assert run(
        ["bounds", "--dist", "w3", "--estimate", "--trials", 20,
         "--seed", 3, "--out-dir", out]
    ) == 0
    payload = load_json(out / "bounds.json")
    assert payload["k"] == 3  # smallest k whose rate clears the typicality gap
    est = payload["estimate"]
    assert est["trials"] == 20
    assert 0 <= est["failures"] <= 20
    assert est["empirical_failure_rate"] == est["failures"] / 20
    assert est["chebyshev_bound"] > 0.0


def test_continuous_command(tmp_path):
    out = tmp_path / "cont"
    assert run(
        ["continuous", "--dist", "triangle", "--p", 5, "--n", 2,
         "--seed", 3, "--out-dir", out]
    ) == 0
    rep = load_json(out / "continuous_report.json")
    # the command's keys, the binned pmf, and the report's own fields, nothing else;
    # a new report field must change this test too
    command = {"kind", "dist", "seed", "p", "n", "k", "criterion"}
    fields = {f.name for f in dataclasses.fields(ContinuousReport)}
    assert fields == {
        "D_total_bits", "D_per_dim", "bad_fraction", "epsilon", "eps_star",
        "spread_penalty_bits", "bound_per_dim", "bound_satisfied", "delta", "eta", "r",
    }
    assert set(rep) == command | {"binned_probs", "schema_version"} | fields
    assert rep["kind"] == "continuous"
    assert rep["delta"] == 0.4
    assert len(rep["binned_probs"]) == 5
    assert rep["bound_per_dim"] == rep["eps_star"] + rep["spread_penalty_bits"]
    idx, reps, _ = load_region_csv(out / "region.csv")
    assert len(idx) == 5 ** (2 - rep["k"])
    assert reps.shape[1] == 2


def test_continuous_command_folds_once(tmp_path, monkeypatch):
    calls = []
    bin_density = lqn.continuous.bin_density

    def counting_bin(target, p):
        calls.append(target)
        return bin_density(target, p)

    monkeypatch.setattr(lqn.continuous, "bin_density", counting_bin)
    assert run(
        ["continuous", "--dist", "triangle", "--p", 7, "--n", 3, "--out-dir", tmp_path]
    ) == 0
    assert len(calls) == 1


def test_continuous_without_k_takes_the_closest_rate_k(tmp_path):
    argv = ["continuous", "--dist", "triangle", "--p", 13, "--n", 3, "--seed", 2]
    assert run(argv + ["--out-dir", tmp_path / "auto"]) == 0
    target = continuous_builtins()["triangle"]
    k = select_k(13, 3, bin_density(target, 13).binned, "closest")
    assert build_continuous(target, 13, 3, None, (2, 0)).code.k == k
    assert run(argv + ["--k", k, "--out-dir", tmp_path / "given"]) == 0
    for name in ("continuous_report.json", "region.csv"):
        assert (tmp_path / "auto" / name).read_bytes() == (tmp_path / "given" / name).read_bytes()


def _refuse(*args):
    raise AssertionError(f"reached with {args!r}")


def _divide_below(monkeypatch, limit):
    """Let is_prime, the one function that trial-divides, run only below limit."""
    is_prime = lqn.zplinalg.is_prime
    monkeypatch.setattr(
        lqn.zplinalg, "is_prime", lambda p: _refuse(p) if p >= limit else is_prime(p)
    )


@pytest.mark.parametrize(
    "p, cap",
    # 3037000493**2 < 2**63 passes a cap of 2**63 - 1, but 2 (p - 1)**2 >= 2**63
    [
        (1000003, []),
        (2305843009213693951, []),
        (3037000493, []),
        (3037000493, ["--max-points", 2**63 - 1]),
    ],
    ids=["1000003", "2305843009213693951", "3037000493", "3037000493-huge-cap"],
)
def test_capped_continuous_folds_nothing(tmp_path, capsys, monkeypatch, p, cap):
    # 1000003 is within the int64 products bound, so it is tested for primality,
    # which is quick there, and then refused by the point cap; a p past the bound
    # is refused by it, whatever --max-points says, and never trial-divided.
    # None is binned
    monkeypatch.setattr(lqn.continuous, "bin_density", _refuse)
    _divide_below(monkeypatch, 2**32)
    out = tmp_path / "out"
    argv = ["continuous", "--dist", "triangle", "--p", p, "--n", 2, "--k", 1]
    assert run(argv + cap + ["--out-dir", out]) == 3
    assert not out.exists()
    reason = f"modulus {p} at length 2 overflows the int64 dot products"
    if p == 1000003:
        reason = "1000006000009 points exceed the cap 16777216"
    assert capsys.readouterr().out == f"error: {reason}\n"


@pytest.mark.parametrize("n", [3, 64])
@pytest.mark.parametrize("p", [-2, 0, 1, 4])
def test_continuous_refuses_a_bad_modulus_whatever_n(tmp_path, capsys, p, n):
    # p**64 is over the int64 encodings for every p here but 0 and 1: the modulus
    # is still refused as a modulus, before the point cap
    out = tmp_path / "out"
    argv = ["continuous", "--dist", "triangle", "--p", p, "--n", n, "--out-dir", out]
    assert run(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().out == f"error: modulus must be prime, got {p}\n"


def test_huge_modulus_file_is_refused_before_primality(tmp_path, capsys, monkeypatch):
    # trial division on this 61-bit prime would run for minutes; the bundled
    # cases still validate their own small moduli
    huge = 2305843009213693951
    _divide_below(monkeypatch, huge)
    path = tmp_path / "huge_p.json"
    path.write_text(json.dumps({"type": "discrete", "p": huge, "probs": [0.5, 0.5]}))
    out = tmp_path / "out"
    assert run(["analyze", "--dist", path, "--n", 2, "--out-dir", out]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == (
        "error: expected 2305843009213693951 masses, got shape (2,)\n"
    )


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["analyze", "--dist", "triangle"], "discrete"),
        (["bounds", "--dist", "flat"], "discrete"),
        (["search", "--dist", "triangle", "--n", 3], "discrete"),
        (["continuous", "--dist", "w3", "--p", 7, "--n", 3], "continuous"),
    ],
)
def test_bundled_target_of_the_wrong_kind_is_named(tmp_path, capsys, monkeypatch, argv, kind):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", out]) == 2
    # a file of the bundled name, of the kind the command needs, does not win
    right_kind = {
        "discrete": {"type": "discrete", "p": 3, "probs": [0.5, 0.3, 0.2]},
        "continuous": {"type": "continuous", "A": 1.0, "knots": [[-1, 0.5], [1, 0.5]]},
    }
    (tmp_path / argv[2]).write_text(json.dumps(right_kind[kind]))
    assert run(argv + ["--n", 3, "--out-dir", out]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == f"error: this command needs a {kind} target\n" * 2


def test_steep_continuous_targets(tmp_path, capsys):
    # a chunk falling from 1 to 1e-18 is evaluated from its lower end
    tent = tmp_path / "tent.json"
    tent.write_text(json.dumps(
        {"type": "continuous", "A": 1.0, "knots": [[-1, 1e-18], [0, 1.0], [1, 1e-18]]}
    ))
    assert run(["continuous", "--dist", tent, "--p", 7, "--n", 3, "--out-dir", tmp_path]) == 0
    report = load_json(tmp_path / "continuous_report.json")
    assert all(math.isfinite(v) for v in report.values() if isinstance(v, float))
    # a spike from 1e-300 to about 1e9 in the first 1e-9 of [-1, 1]:
    # eta = delta / r is beyond the float range
    spike = tmp_path / "spike.json"
    knots = [[-1, 1e-300], [-1 + 1e-9, 0.999e9], [-1 + 2e-9, 5e-4], [1, 5e-4]]
    spike.write_text(json.dumps({"type": "continuous", "A": 1.0, "knots": knots}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["continuous", "--dist", spike, "--p", 7, "--n", 3, "--out-dir", out]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == (
        "error: the density is too steep to bin at p=7 in floating point\n"
    )


def test_continuous_rejects_discrete_target(tmp_path):
    dist = uniform3_file(tmp_path)
    assert run(
        ["continuous", "--dist", dist, "--p", 3, "--n", 2, "--out-dir", tmp_path / "y"]
    ) == 2


BAD_N = [
    ["analyze", "--dist", "w1", "--n", 0],
    ["analyze", "--dist", "w3", "--n", 1],
    ["analyze", "--dist", "uniform3.json", "--n", 0],
    ["continuous", "--dist", "triangle", "--p", 5, "--n", 1],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--dist", "w1", "--trials", 0],
        ["search", "--dist", "w1", "--trials", -2],
        ["sweep-rate", "--dist", "w3", "--k-range", "1:2", "--trials", -1],
        ["bounds", "--dist", "w3", "--estimate", "--trials", 0],
        ["reproduce", "--case", "w1", "--trials", 0],
        ["analyze", "--dist", "w1", "--k", 0],
        ["analyze", "--dist", "w1", "--k", 2],
        ["search", "--dist", "w3", "--k", 0, "--trials", 1],
        ["bounds", "--dist", "w3", "--k", 0],
        ["continuous", "--dist", "triangle", "--p", 5, "--n", 2, "--k", 0],
        *BAD_N,
        ["continuous", "--dist", "triangle", "--p", 4, "--n", 3, "--k", 1],
        ["analyze", "--dist", "no_probs.json", "--n", 2],
        ["analyze", "--dist", "list.json", "--n", 2],
        ["continuous", "--dist", "null_half_width.json", "--p", 5, "--n", 2],
        ["continuous", "--dist", "int_knots.json", "--p", 5, "--n", 2],
        ["analyze", "--dist", "w1", "--epsilon-override", "nan"],
        ["analyze", "--dist", "w1", "--epsilon-override", "inf"],
        ["analyze", "--dist", "float_p.json", "--n", 3],
        ["analyze", "--dist", "str_p.json", "--n", 3],
        ["continuous", "--dist", "inf_knot.json", "--p", 5, "--n", 2],
        ["continuous", "--dist", "nan_knot.json", "--p", 5, "--n", 2],
        ["continuous", "--dist", "huge_knots.json", "--p", 5, "--n", 2],
        ["continuous", "--dist", "huge_int_knot.json", "--p", 5, "--n", 2],
        ["analyze", "--dist", "huge_int_prob.json", "--n", 2],
        # bounds past sys.maxsize are refused before any range is built
        ["sweep-rate", "--dist", "w3", "--n", 3, "--k-range", f"1:{10 * sys.maxsize}"],
        ["sweep-rate", "--dist", "w3", "--n", 3, "--k-range", f"{sys.maxsize}:{10 * sys.maxsize}"],
    ],
)
def test_bad_counts_exit_2_before_any_output(tmp_path, capsys, monkeypatch, argv):
    uniform3_file(tmp_path)
    for name, obj in MALFORMED_TARGETS.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", out]) == 2
    assert not out.exists()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("knots", [[[-1, 0.5, 3], [1, 0.5]], [[-1, 0.5], [1]]], ids=str)
def test_a_knot_that_is_not_a_pair_is_named(tmp_path, capsys, knots):
    # a three-value knot once printed "too many values to unpack (expected 2)"
    dist = tmp_path / "knots.json"
    dist.write_text(json.dumps({"type": "continuous", "A": 1, "knots": knots}))
    out = tmp_path / "out"
    argv = ["continuous", "--dist", dist, "--p", 5, "--n", 3, "--out-dir", out]
    assert run(argv) == 2
    assert not out.exists()
    bad = next(knot for knot in knots if len(knot) != 2)
    assert capsys.readouterr().out == f"error: knot {bad!r} is not an [x, f] pair\n"


def test_a_bare_exception_is_named(capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(lqn.cli, "cmd_analyze", out_of_memory)
    assert main(["analyze", "--dist", "w1"]) == 3
    assert capsys.readouterr().out == "error: MemoryError\n"


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    """The parser is built on the first main call and reused; each call still
    runs the cmd_* bound under its name at that moment."""
    built, called = [], []
    build = lqn.cli.build_parser
    monkeypatch.setattr(lqn.cli, "build_parser", lambda: built.append(1) or build())
    lqn.cli._parser.cache_clear()
    try:
        for seed in (0, 1):
            assert run(["bounds", "--dist", "w3", "--seed", seed, "--out-dir", tmp_path]) == 0
            assert load_json(tmp_path / "bounds.json")["seed"] == seed
        monkeypatch.setattr(lqn.cli, "cmd_bounds", lambda args: called.append(args) or ({}, ""))
        assert run(["bounds", "--dist", "w3", "--out-dir", tmp_path]) == 0
    finally:
        lqn.cli._parser.cache_clear()
    assert len(built) == 1
    assert [args.dist for args in called] == ["w3"]


def test_block_length_below_two_is_named(tmp_path, capsys, monkeypatch):
    uniform3_file(tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv in BAD_N:
        assert run(argv + ["--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().out == f"error: --n must be at least 2, got {argv[-1]}\n"


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["analyze", "search", "bounds", "continuous"]),
    dist=st.sampled_from(["w3", "uniform3"]),
    p=st.integers(2, 7),
    n=st.integers(0, 4),
    k=st.none() | st.integers(0, 3),
    trials=st.integers(0, 2),
    max_points=st.none() | st.sampled_from([0, 10, 100, 10_000]),
)
def test_argument_validation_property(command, dist, p, n, k, trials, max_points):
    """Any tiny argument mix exits 0, 2 or 3; a refusal is one line and writes nothing."""
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout):
        tmp = Path(tmp)
        if command == "continuous":
            argv = ["continuous", "--dist", "triangle", "--p", p]
        else:
            argv = [command, "--dist", uniform3_file(tmp) if dist == "uniform3" else dist]
        argv += ["--n", n, "--out-dir", tmp / "out"]
        if k is not None:
            argv += ["--k", k]
        if command in ("search", "bounds"):
            argv += ["--trials", trials]
        if max_points is not None:
            argv += ["--max-points", max_points]
        code = run(argv)
        assert code in (0, 2, 3)
        if code:
            assert not (tmp / "out").exists()
            lines = stdout.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("k_range", ["1:", "a:b", ":2", "1:2:3", "1.5"])
def test_malformed_k_range_is_named(tmp_path, capsys, k_range):
    out = tmp_path / "out"
    argv = ["sweep-rate", "--dist", "w3", "--k-range", k_range, "--out-dir", out]
    assert run(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().out == f"error: --k-range must be a:b or one k, got {k_range!r}\n"


@pytest.mark.parametrize(
    "flag, env, message",
    [
        (-5, None, "--max-points must be at least 1, got -5"),
        (0, None, "--max-points must be at least 1, got 0"),
        (None, "0", "LQN_MAX_POINTS must be at least 1, got 0"),
        (None, "-5", "LQN_MAX_POINTS must be at least 1, got -5"),
        (None, "abc", "LQN_MAX_POINTS must be an integer, got 'abc'"),
        (None, "1e6", "LQN_MAX_POINTS must be an integer, got '1e6'"),
    ],
)
def test_bad_point_cap_is_named(tmp_path, capsys, monkeypatch, flag, env, message):
    if env is not None:
        monkeypatch.setenv("LQN_MAX_POINTS", env)
    out = tmp_path / "out"
    for argv in (
        ["analyze", "--dist", "w3"],
        ["search", "--dist", "w1", "--trials", 1],
        ["reproduce", "--case", "w1", "--trials", 1],
        ["continuous", "--dist", "triangle", "--p", 5, "--n", 2],
    ):
        if flag is not None:
            argv += ["--max-points", flag]
        assert run(argv + ["--out-dir", out]) == 2
        assert not out.exists()
        assert capsys.readouterr().out == f"error: {message}\n"
