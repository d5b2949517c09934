"""Output checks for one op, run outside the timed region.

Each check returns a list of problems; an empty list means the op's outputs
are right. The expected shapes follow from the generators in inputs.py.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import inputs

TRAJECTORY_ROWS = round(inputs.TABLE1_SCENARIO["t_end_s"] / inputs.TABLE1_SCENARIO["dt_s"]) + 1
TRAJECTORY_COLUMNS = 4 + 7 * inputs.WIDE_FLEET_UNITS


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _wide_fleet(out: Path, rc: int) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}, want 0 (stable)"]
    if not _read_json(out / "summary.json")["verdict"]["stable"]:
        problems.append("summary.json verdict is not stable")
    rows = 0
    with open(out / "trajectory.csv", encoding="utf-8", newline="") as f:
        header = f.readline()
        if header.count(",") + 1 != TRAJECTORY_COLUMNS:
            problems.append(f"trajectory.csv header has {header.count(',') + 1} columns")
        for line in f:
            rows += 1
            if line.count(",") + 1 != TRAJECTORY_COLUMNS or not line.endswith("\n"):
                problems.append(f"trajectory.csv row {rows} is malformed")
                break
    if rows != TRAJECTORY_ROWS:
        problems.append(f"trajectory.csv has {rows} rows, want {TRAJECTORY_ROWS}")
    return problems


def _cct_search(out: Path, rc: int) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}, want 0"]
    cct = _read_json(out / "cct.json")
    lo, hi = cct["bracket_lo_s"], cct["bracket_hi_s"]
    if not 0.0 < hi - lo <= inputs.TABLE1_CCT["resolution_s"] * (1 + 1e-9):
        problems.append(f"bracket [{lo}, {hi}] is wider than the resolution")
    verdicts = {e["clear_interval_s"]: e["stable"] for e in cct["evaluation_log"]}
    if verdicts.get(lo) is not True:
        problems.append(f"bracket_lo {lo} is not logged as stable")
    if verdicts.get(hi) is not False:
        problems.append(f"bracket_hi {hi} is not logged as unstable")
    if cct["monotonic"] is not True:
        problems.append("monotonicity audit failed")
    return problems


CHECKS = {"wide_fleet": _wide_fleet, "cct_search": _cct_search}


def check(workload: str, out: Path, rc: int) -> list[str]:
    try:
        return CHECKS[workload](out, rc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def digests(out: Path) -> dict[str, str]:
    """sha256 of every output file, for the byte-identity check."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.is_file()
    }
