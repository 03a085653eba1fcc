"""Serialization of reports, regions, and targets.

Every emitted file carries a schema_version; loaders reject any major
version they do not know. Output is byte-deterministic: keys are sorted,
floats use their shortest round-trip repr, and nothing timestamped is
written.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .analysis import AnalysisReport
from .distributions import parse_distribution
from .errors import DimensionMismatchError
from .partition import FundamentalRegion

SCHEMA_VERSION = "1.0"
_MAJOR = SCHEMA_VERSION.split(".")[0]


def _check_version(version: str) -> None:
    if not isinstance(version, str) or version.split(".")[0] != _MAJOR:
        raise DimensionMismatchError(f"unsupported schema version {version!r}")


def _plain(value):
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    path.write_text(json.dumps(_plain(body), sort_keys=True, indent=2) + "\n")
    return path


def load_json(path) -> dict:
    obj = json.loads(Path(path).read_text())
    _check_version(obj.get("schema_version"))
    return obj


def report_payload(report: AnalysisReport, provenance: dict) -> dict:
    return {
        "kind": "analysis",
        "provenance": dict(provenance),
        "D_total_bits": report.D_total_bits,
        "D_per_dim": report.D_per_dim,
        "sum_marginal_D_bits": report.sum_marginal_D_bits,
        "bad_fraction": report.bad_fraction,
        "epsilon": report.epsilon,
        "alpha": report.alpha,
        "eps_star": report.eps_star,
        "bound_satisfied": report.bound_satisfied,
        "marginal_distributions": report.marginal_distributions,
    }


def _write_csv(path, comment: str, header: list[str], rows) -> Path:
    path = Path(path)
    lines = [f"# {comment}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(int(v)) if isinstance(v, (int, np.integer)) else str(v)


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    version = None
    for ln in meta:
        if "schema_version=" in ln:
            version = ln.split("schema_version=")[1].strip()
    _check_version(version)
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    header = data[0].split(",")
    return header, [ln.split(",") for ln in data[1:]]


def write_region_csv(path, region: FundamentalRegion) -> Path:
    header = ["syndrome_index"] + [f"r{i}" for i in range(region.code.n)] + ["good"]
    rows = (
        [i, *region.reps[i], region.good_flags[i]] for i in range(region.size)
    )
    return _write_csv(path, f"schema_version={SCHEMA_VERSION}", header, rows)


def load_region_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows back as (syndrome indices, representatives, good flags)."""
    header, rows = _read_csv(path)
    n = len(header) - 2
    idx = np.array([int(r[0]) for r in rows], dtype=np.int64)
    reps = np.array([[int(c) for c in r[1 : 1 + n]] for r in rows], dtype=np.int64)
    good = np.array([r[-1] == "1" for r in rows], dtype=bool)
    return idx, reps, good


def write_marginals_csv(path, marginal_rows: np.ndarray) -> Path:
    p = marginal_rows.shape[1]
    header = [f"s{j}" for j in range(p)]
    return _write_csv(
        path, f"schema_version={SCHEMA_VERSION}", header, marginal_rows.tolist()
    )


def load_marginals_csv(path) -> np.ndarray:
    _, rows = _read_csv(path)
    return np.array([[float(c) for c in r] for r in rows], dtype=np.float64)


def write_trials_csv(path, rows) -> Path:
    return _write_csv(
        path, f"schema_version={SCHEMA_VERSION}", ["trial", "D_total_bits"], rows
    )


def write_sweep_csv(path, rows) -> Path:
    return _write_csv(
        path, f"schema_version={SCHEMA_VERSION}", ["k", "R_bits", "D_per_dim"], rows
    )


def load_distribution_file(path):
    """A target from its JSON form; see distributions.parse_distribution."""
    return parse_distribution(json.loads(Path(path).read_text()))
