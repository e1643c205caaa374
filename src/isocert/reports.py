"""Uniform machine-readable check records and deterministic JSON output.

A run produces a JSON array of records, one per check, each carrying the
schema version, a stable claim identifier, a status, and a payload.  The
serialization is byte-deterministic: keys sorted, no timestamps, floats
through repr.  Exit codes: 0 all pass, 1 any failure, 2 any inconclusive
certificate, 3 any documented discrepancy, 64 usage error (bad input,
refused by the CLI's parser before any computation), 70 internal error (a
fault of the program itself: any exception raised during a run, such as a
division by zero, a monomial exponent overflow, a malformed record or a
library's ValueError).
"""

from __future__ import annotations

import json
from typing import Iterable

SCHEMA_VERSION = "1.0"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_DOCUMENTED_DISCREPANCY = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70

_FAIL_STATUSES = {"fail", "failed", "violated", "error"}
_OK_STATUSES = {"pass", "proved", "trivial", "hypothesis_not_met", "info"}


class InternalError(RuntimeError):
    """A fault of the program, not of its input; the CLI exits EXIT_INTERNAL."""


def check_record(name: str, status: str, payload: dict | None = None) -> dict:
    """One record; a payload may repeat a header key only with the same value."""
    rec = {"schema_version": SCHEMA_VERSION, "name": name, "status": status}
    if payload:
        for key in sorted(rec.keys() & payload.keys()):
            if payload[key] != rec[key]:
                raise InternalError(
                    f"record {name!r}: payload {key!r} = {payload[key]!r} "
                    f"contradicts the record's {rec[key]!r}")
        rec.update(payload)
    return rec


def render(records: list[dict]) -> str:
    return json.dumps(records, sort_keys=True, indent=2) + "\n"


def exit_code(records: Iterable[dict]) -> int:
    statuses = [r.get("status", "fail") for r in records]
    if any(s in _FAIL_STATUSES for s in statuses):
        return EXIT_FAIL
    if any(s == "inconclusive" for s in statuses):
        return EXIT_INCONCLUSIVE
    if any(s == "documented_discrepancy" for s in statuses):
        return EXIT_DOCUMENTED_DISCREPANCY
    unknown = [s for s in statuses if s not in _OK_STATUSES]
    if unknown:
        return EXIT_FAIL
    return EXIT_PASS


def summarize(records: list[dict]) -> str:
    lines = []
    for r in records:
        lines.append(f"{r.get('status', '?'):<24} {r.get('name', '?')}")
    counts: dict[str, int] = {}
    for r in records:
        counts[r.get("status", "?")] = counts.get(r.get("status", "?"), 0) + 1
    tally = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    lines.append(f"-- {len(records)} checks: {tally}")
    return "\n".join(lines) + "\n"
