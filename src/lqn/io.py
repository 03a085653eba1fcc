"""Serialization of reports, regions, and targets.

Every emitted file carries a schema_version; loaders reject any major
version they do not know. Output is byte-deterministic: keys are sorted,
floats use their shortest round-trip repr, and nothing timestamped is
written. json_bytes and the *_csv renderers only build bytes; write_bundle
alone writes files. It writes every file of a bundle to <name>.tmp before it
renames any onto its name, and a failure removes the .tmp files and the files
already renamed. The renames are not atomic as a set: a process killed
between two of them still leaves part of a bundle.

region.csv's body is rendered as one byte array, its cells taken from digit
tables and right-aligned in fixed columns padded with 0 bytes, which
bytes.translate then deletes; the float CSVs format each value with str, the
shortest round-trip repr.
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


def json_bytes(payload: dict) -> bytes:
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    text = json.dumps(body, sort_keys=True, indent=2, default=_numpy_default)
    return (text + "\n").encode()


def load_json(path) -> dict:
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise DimensionMismatchError(f"expected a JSON object, got {type(obj).__name__}")
    _check_version(obj.get("schema_version"))
    return obj


def report_payload(report: AnalysisReport, provenance: dict) -> dict:
    """report.json's body: every AnalysisReport field, its kind and provenance."""
    return {"kind": "analysis", "provenance": dict(provenance), **vars(report)}


def write_bundle(out_dir, files: dict[str, bytes]) -> dict[str, Path]:
    """Write each name's bytes into out_dir, made if missing; return each name's path.

    A failed write leaves the files of an earlier run as they were; any
    exception is re-raised once this call's files are removed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / name for name in files}
    staged = {out / f"{name}.tmp": path for name, path in paths.items()}
    renamed = []
    try:
        for tmp, data in zip(staged, files.values()):
            tmp.write_bytes(data)
        for tmp, path in staged.items():
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for path in [*staged, *renamed]:
            # a directory in a file's place is what failed; it is not this run's
            if not path.is_dir():
                path.unlink(missing_ok=True)
        raise
    return paths


def _csv_head(header: list[str]) -> str:
    """The version line and the header line."""
    return f"# schema_version={SCHEMA_VERSION}\n" + ",".join(header) + "\n"


def _csv(header: list[str], rows) -> bytes:
    """The version line, the header, then a line per row of Python ints and
    floats; str gives ints and shortest float reprs."""
    lines = "".join(",".join(map(str, row)) + "\n" for row in rows)
    return (_csv_head(header) + lines).encode()


def _read_csv(path, dtype) -> np.ndarray:
    """The body of a CSV rendered by _csv or region_csv, below its header, as one array."""
    with open(path) as fh:
        head, _, version = fh.readline().partition("schema_version=")
        _check_version(version.strip() if head == "# " else None)
        return np.loadtxt(fh, dtype=dtype, delimiter=",", skiprows=1, ndmin=2)


def _digits(count: int) -> np.ndarray:
    """The decimal text of 0..count-1, row v right-aligned in the smallest
    common width, ASCII digits padded on the left with 0 bytes.

    The digit at place 10**j cycles through 0-9, each held for 10**j rows, so
    every column is a repeated pattern; the rows below 10**j have no such digit.
    """
    width = len(str(count - 1))
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    table = np.empty((count, width), dtype=np.uint8)
    for j in range(width):
        place = 10**j
        column = np.tile(np.repeat(ascii_digits, place), -(-count // (10 * place)))[:count]
        column[: place if j else 0] = 0
        table[:, width - 1 - j] = column
    return table


def region_csv(region: FundamentalRegion) -> bytes:
    """region.csv: a row per coset, its syndrome index, representative and good flag.

    The body is rendered into one (rows, width) byte array: each cell's text
    is taken from a digit table, right-aligned in a fixed column, and the
    commas, the flag and the newline are fixed columns. The 0 bytes padding
    the digits are then deleted from the rendered bytes. A representative outside [0, p) or a shape
    other than (num_cosets, n) is refused before anything is rendered.
    """
    code, reps = region.code, region.reps
    if reps.shape != (code.num_cosets, code.n):
        expected = (code.num_cosets, code.n)
        raise ValueError(f"representatives of shape {reps.shape}, expected {expected}")
    if reps.min() < 0 or reps.max() >= code.p:
        raise ValueError(f"representatives must lie in [0, {code.p})")
    rows, n = reps.shape
    index, symbols = _digits(rows), _digits(code.p)
    wide, cell = index.shape[1], symbols.shape[1] + 1
    body = np.empty((rows, wide + 1 + n * cell + 2), dtype=np.uint8)
    body[:, :wide] = index
    body[:, wide] = ord(",")
    cells = body[:, wide + 1 : wide + 1 + n * cell].reshape(rows, n, cell)
    for d in range(cell - 1):
        cells[:, :, d] = symbols[:, d][reps]
    cells[:, :, -1] = ord(",")
    body[:, -2] = region.good_flags + ord("0")
    body[:, -1] = ord("\n")
    header = ["syndrome_index"] + [f"r{i}" for i in range(n)] + ["good"]
    return _csv_head(header).encode() + body.tobytes().translate(None, b"\0")


def load_region_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows back as (syndrome indices, representatives, good flags)."""
    table = _read_csv(path, np.int64)
    return table[:, 0], table[:, 1:-1], table[:, -1] == 1


def marginals_csv(marginal_rows: np.ndarray) -> bytes:
    header = [f"s{j}" for j in range(marginal_rows.shape[1])]
    return _csv(header, marginal_rows.tolist())


def load_marginals_csv(path) -> np.ndarray:
    return _read_csv(path, np.float64)


def trials_csv(rows) -> bytes:
    return _csv(["trial", "D_total_bits"], rows)


def sweep_csv(rows) -> bytes:
    return _csv(["k", "R_bits", "D_per_dim"], rows)


def load_distribution_file(path):
    """A target from its JSON form; see distributions.parse_distribution."""
    return parse_distribution(json.loads(Path(path).read_text()))
