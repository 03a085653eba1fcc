"""Serialization of reports, regions, and targets.

Every emitted file carries a schema_version; loaders reject any major
version they do not know. Output is byte-deterministic: keys are sorted,
floats use their shortest round-trip repr, and nothing timestamped is
written. Each file is written whole to a temporary name and then renamed
onto its own, and its directory is made only then.
"""

from __future__ import annotations

import json
import os
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


def _numpy_default(value):
    """json.dumps hook for numpy; np.float64 is a float, so json writes its repr."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path, payload: dict) -> Path:
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    text = json.dumps(body, sort_keys=True, indent=2, default=_numpy_default)
    return _write_text(path, text + "\n")


def load_json(path) -> dict:
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise DimensionMismatchError(f"expected a JSON object, got {type(obj).__name__}")
    _check_version(obj.get("schema_version"))
    return obj


def report_payload(report: AnalysisReport, provenance: dict) -> dict:
    """report.json's body: every AnalysisReport field, its kind and provenance."""
    return {"kind": "analysis", "provenance": dict(provenance), **vars(report)}


def _write_text(path, text: str) -> Path:
    """Write a whole file: to <name>.tmp beside it, then os.replace onto path.

    The parent directory is created here, so a command that fails before its
    first write leaves no output directory behind; a failed write removes its
    <name>.tmp.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _write_csv(path, header: list[str], lines) -> Path:
    """The version line, the header, then each row's line of text."""
    text = "\n".join([f"# schema_version={SCHEMA_VERSION}", ",".join(header), *lines])
    return _write_text(path, text + "\n")


def _lines(rows):
    """Rows of Python ints and floats; str gives ints and shortest float reprs."""
    return (",".join(map(str, row)) for row in rows)


def _read_csv(path, dtype) -> np.ndarray:
    """The body of a CSV written by _write_csv, below its header, as one array."""
    with open(path) as fh:
        head, _, version = fh.readline().partition("schema_version=")
        _check_version(version.strip() if head == "# " else None)
        return np.loadtxt(fh, dtype=dtype, delimiter=",", skiprows=1, ndmin=2)


def write_region_csv(path, region: FundamentalRegion) -> Path:
    header = ["syndrome_index"] + [f"r{i}" for i in range(region.code.n)] + ["good"]
    # each column through a table of its values' text: str runs once per symbol,
    # not once per cell
    symbols = [str(v) for v in range(region.code.p)]
    columns = [map(str, range(region.size))]
    columns += [map(symbols.__getitem__, col) for col in region.reps.T.tolist()]
    columns.append(map(("0", "1").__getitem__, region.good_flags.tolist()))
    return _write_csv(path, header, map(",".join, zip(*columns)))


def load_region_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows back as (syndrome indices, representatives, good flags)."""
    table = _read_csv(path, np.int64)
    return table[:, 0], table[:, 1:-1], table[:, -1] == 1


def write_marginals_csv(path, marginal_rows: np.ndarray) -> Path:
    header = [f"s{j}" for j in range(marginal_rows.shape[1])]
    return _write_csv(path, header, _lines(marginal_rows.tolist()))


def load_marginals_csv(path) -> np.ndarray:
    return _read_csv(path, np.float64)


def write_trials_csv(path, rows) -> Path:
    return _write_csv(path, ["trial", "D_total_bits"], _lines(rows))


def write_sweep_csv(path, rows) -> Path:
    return _write_csv(path, ["k", "R_bits", "D_per_dim"], _lines(rows))


def load_distribution_file(path):
    """A target from its JSON form; see distributions.parse_distribution."""
    return parse_distribution(json.loads(Path(path).read_text()))
