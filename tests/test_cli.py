"""End-to-end command line runs against temp directories."""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqn.continuous
from lqn import (
    ContinuousReport,
    analyze_region,
    build_ml_partition,
    sample_generator,
    validate_region,
)
from lqn.cli import main
from lqn.io import load_json, load_marginals_csv, load_region_csv


def run(args):
    """main on args; a successful run must leave no temp file in its out-dir."""
    argv = [str(a) for a in args]
    code = main(argv)
    if code == 0 and "--out-dir" in argv:
        out = Path(argv[argv.index("--out-dir") + 1])
        assert not list(out.rglob("*.tmp"))
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
        # 7**20 points pass this cap, but their first array (208 PiB) cannot be allocated
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
    fold = lqn.continuous.fold_density

    def counting_fold(target):
        calls.append(target)
        return fold(target)

    monkeypatch.setattr(lqn.continuous, "fold_density", counting_fold)
    lqn.continuous.bin_density.cache_clear()
    assert run(
        ["continuous", "--dist", "triangle", "--p", 7, "--n", 3, "--out-dir", tmp_path]
    ) == 0
    assert len(calls) == 1


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
