"""File formats: byte-determinism, version gating, and round-trips."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqn import (
    AnalysisReport,
    ContinuousTarget,
    DimensionMismatchError,
    FundamentalRegion,
    analyze_region,
    build_ml_partition,
    make_code,
    validate_discrete,
)
from lqn.io import (
    SCHEMA_VERSION,
    load_distribution_file,
    load_json,
    load_marginals_csv,
    load_region_csv,
    report_payload,
    write_json,
    write_marginals_csv,
    write_region_csv,
    write_sweep_csv,
    write_trials_csv,
)

P532 = validate_discrete([0.5, 0.3, 0.2], 3)


def small_region():
    return build_ml_partition(make_code([[1, 1]], 3), P532)


def test_write_json_is_byte_deterministic(tmp_path):
    payload = {
        "b": 2.5,
        "a": {"z": np.float64(0.1), "y": np.arange(3)},
        "c": {"i": np.int64(7), "t": np.bool_(True), "m": np.eye(2, dtype=np.int64)},
        "d": {"row": (1, 0.5)},
    }
    p1 = write_json(tmp_path / "one.json", payload)
    p2 = write_json(tmp_path / "two.json", payload)
    assert p1.read_bytes() == p2.read_bytes()
    # keys sorted, numpy values as plain JSON, schema version injected, trailing newline
    assert p1.read_text() == f"""{{
  "a": {{
    "y": [
      0,
      1,
      2
    ],
    "z": 0.1
  }},
  "b": 2.5,
  "c": {{
    "i": 7,
    "m": [
      [
        1,
        0
      ],
      [
        0,
        1
      ]
    ],
    "t": true
  }},
  "d": {{
    "row": [
      1,
      0.5
    ]
  }},
  "schema_version": "{SCHEMA_VERSION}"
}}
"""
    with pytest.raises(TypeError, match="set"):
        write_json(tmp_path / "bad.json", {"x": {1, 2}})
    assert not (tmp_path / "bad.json").exists()


def test_load_json_gates_major_version(tmp_path):
    path = write_json(tmp_path / "r.json", {"x": 1})
    assert load_json(path)["x"] == 1
    minor = dict(json.loads(path.read_text()), schema_version="1.5")
    path.write_text(json.dumps(minor))
    assert load_json(path)["schema_version"] == "1.5"
    major = dict(minor, schema_version="2.0")
    path.write_text(json.dumps(major))
    with pytest.raises(DimensionMismatchError):
        load_json(path)
    del major["schema_version"]
    path.write_text(json.dumps(major))
    with pytest.raises(DimensionMismatchError):
        load_json(path)


def test_report_payload_fields():
    region = small_region()
    report = analyze_region(region, P532)
    payload = report_payload(report, {"seed": 5})
    # report.json is the report's own schema; a new field must change this test too
    fields = {f.name for f in dataclasses.fields(AnalysisReport)}
    assert fields == {
        "D_total_bits", "D_per_dim", "marginal_distributions", "sum_marginal_D_bits",
        "bad_fraction", "epsilon", "alpha", "eps_star", "bound_satisfied",
    }
    assert set(payload) == {"kind", "provenance"} | fields
    assert payload["kind"] == "analysis"
    assert payload["provenance"] == {"seed": 5}
    assert payload["D_total_bits"] == report.D_total_bits
    assert payload["eps_star"] == report.eps_star
    assert payload["bound_satisfied"] == report.bound_satisfied
    np.testing.assert_array_equal(
        payload["marginal_distributions"], report.marginal_distributions
    )


def test_region_csv_round_trip(tmp_path):
    region = small_region()
    path = write_region_csv(tmp_path / "region.csv", region)
    first = path.read_text().splitlines()[0]
    assert first == f"# schema_version={SCHEMA_VERSION}"
    idx, reps, good = load_region_csv(path)
    np.testing.assert_array_equal(idx, np.arange(region.size))
    np.testing.assert_array_equal(reps, region.reps)
    np.testing.assert_array_equal(good, region.good_flags)


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: [lines[0].replace("schema_version=1", "schema_version=2")] + lines[1:],
        lambda lines: lines[1:],
        lambda lines: [lines[1], lines[0]] + lines[2:],
    ],
    ids=["major-2", "no-version", "version-below-header"],
)
def test_region_csv_rejects_other_major(tmp_path, edit):
    region = small_region()
    path = write_region_csv(tmp_path / "region.csv", region)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(DimensionMismatchError):
        load_region_csv(path)


def test_marginals_csv_round_trip_exact(tmp_path):
    rows = np.array([[0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 - 2 / 3]])
    path = write_marginals_csv(tmp_path / "m.csv", rows)
    back = load_marginals_csv(path)
    # repr round-trips doubles exactly, so equality is bitwise
    np.testing.assert_array_equal(back, rows)
    header = path.read_text().splitlines()[1]
    assert header == "s0,s1,s2"


def test_trials_and_sweep_writers(tmp_path):
    t = write_trials_csv(tmp_path / "t.csv", [(0, 1.25), (1, 0.5)])
    lines = t.read_text().splitlines()
    assert lines[1] == "trial,D_total_bits"
    assert lines[2] == "0,1.25"
    s = write_sweep_csv(tmp_path / "s.csv", [(1, 0.5, 1.0), (2, 1.0, 0.75)])
    lines = s.read_text().splitlines()
    assert lines[1] == "k,R_bits,D_per_dim"
    assert lines[3] == "2,1.0,0.75"


def test_load_distribution_file(tmp_path):
    d = tmp_path / "d.json"
    d.write_text(json.dumps({"type": "discrete", "p": 3, "probs": [0.5, 0.3, 0.2]}))
    target = load_distribution_file(d)
    assert target.p == 3
    assert target.probs.tolist() == [0.5, 0.3, 0.2]
    c = tmp_path / "c.json"
    c.write_text(
        json.dumps({"type": "continuous", "A": 1.0, "knots": [[-1.0, 0.5], [1.0, 0.5]]})
    )
    flat = load_distribution_file(c)
    assert isinstance(flat, ContinuousTarget)
    assert flat.half_width == 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "gaussian"}))
    with pytest.raises(DimensionMismatchError):
        load_distribution_file(bad)


def oracle_cell(v) -> str:
    """The per-cell formatting the CSV writers must reproduce byte for byte."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(int(v)) if isinstance(v, (int, np.integer)) else str(v)


def oracle_csv(header, rows) -> bytes:
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(header)]
    lines += [",".join(oracle_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


# where repr changes notation (1e-4, 1e16), subnormals, zero and a repeating binary
EDGE_FLOATS = [
    5e-324,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    0.0,
    math.nextafter(1e-4, 0.0),
    1e-4,
    math.nextafter(1e-4, 1.0),
    math.nextafter(1e16, 0.0),
    1e16,
    math.nextafter(1e16, math.inf),
    1 / 3,
]
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    n=st.integers(2, 6),
    size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_region_csv_matches_cell_oracle(p, n, size, seed):
    rng = np.random.default_rng(seed)
    reps = rng.integers(0, p, size=(size, n), dtype=np.int64)
    good = rng.random(size) < 0.5
    code = make_code(np.eye(1, n, dtype=np.int64), p)
    region = FundamentalRegion(code, reps, good, "ml", 0.5)
    header = ["syndrome_index"] + [f"r{i}" for i in range(n)] + ["good"]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_region_csv(Path(tmp) / "region.csv", region)
        rows = ([i, *reps[i], good[i]] for i in range(size))
        assert path.read_bytes() == oracle_csv(header, rows)
        idx, back, flags = load_region_csv(path)
    np.testing.assert_array_equal(idx, np.arange(size))
    np.testing.assert_array_equal(back, reps)
    np.testing.assert_array_equal(flags, good)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda c: st.lists(st.lists(FLOATS, min_size=c, max_size=c), min_size=1, max_size=5)
    )
)
@example([EDGE_FLOATS])
def test_float_csvs_match_cell_oracle(rows):
    table = np.array(rows, dtype=np.float64)
    trials = [(t, row[0]) for t, row in enumerate(rows)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = write_marginals_csv(tmp / "m.csv", table)
        header = [f"s{j}" for j in range(table.shape[1])]
        assert path.read_bytes() == oracle_csv(header, table.tolist())
        back = load_marginals_csv(path)
        t = write_trials_csv(tmp / "t.csv", trials)
        assert t.read_bytes() == oracle_csv(["trial", "D_total_bits"], trials)
    # bit for bit, signed zeros included
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back.view(np.int64), table.view(np.int64))
