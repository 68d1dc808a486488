"""Experiment records: canonical JSON and CSV serialization.

A record is one JSON object with a fixed field order; re-running the same
command with the same seed reproduces the results payload byte for byte
(wall_time_ms is the one field allowed to differ).  Integers whose absolute
value exceeds 2^53 are emitted losslessly as decimal strings, under a
"_str"-suffixed key when they sit in an object.  Non-finite floats (an
operator-norm estimate beyond float range) are emitted as null.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from fractions import Fraction

from .intmat import IntMatrix

SCHEMA_VERSION = "1"
_SAFE_INT = 2**53


def _convert(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _SAFE_INT else value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, Fraction):
        return _convert({"numerator": value.numerator, "denominator": value.denominator})
    if isinstance(value, IntMatrix):
        return [_convert(list(r)) for r in value.rows]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if isinstance(v, int) and not isinstance(v, bool) and abs(v) > _SAFE_INT:
                out[f"{k}_str"] = str(v)
            else:
                out[k] = _convert(v)
        return out
    if isinstance(value, (list, tuple)):
        return [_convert(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def make_record(command: str, params: dict, seed: int, results, wall_time_ms: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": _convert(params),
        "seed": seed,
        "results": _convert(results),
        "wall_time_ms": int(wall_time_ms),
    }


def dumps(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


def write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        umask = os.umask(0)  # read by setting it, then restored
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # as open() would create it, not mkstemp's 0o600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list):
        out[prefix] = json.dumps(value, separators=(",", ":"))
    else:
        out[prefix] = value


def to_csv(records: list[dict]) -> str:
    """RFC-4180 CSV mirroring the JSON fields, one row per record."""
    flats = []
    columns: list[str] = []
    for record in records:
        flat: dict = {}
        _flatten("", record, flat)
        flats.append(flat)
        for key in flat:
            if key not in columns:
                columns.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="", extrasaction="ignore")
    writer.writeheader()
    for flat in flats:
        writer.writerow(flat)
    return buffer.getvalue()
