"""The checked-in performance records: each BENCH_*.json parses and names
its files relative to the checkout, so it reads the same on any host."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

# An absolute path at the start of a string or after a separator: /x/...,
# ~/... or a drive letter. "1/s" and "10/10" are not paths.
ABSOLUTE_PATH = re.compile(r"""(?:^|[\s=:,;'"(\[])(?:/[^\s/]+/|~/|[A-Za-z]:[\\/])""")


def _strings(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)
    elif isinstance(value, str):
        yield value


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_parses_and_holds_no_absolute_path(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert [s for s in _strings(record) if ABSOLUTE_PATH.search(s)] == []


@pytest.mark.parametrize("text, absolute", [
    ("/home/user/gflswing/.perfbench_work/x.yaml", True),
    ("python3 /opt/tool/run.py", True),
    ("src=/srv/checkout/src", True),
    ("~/gflswing/BENCH.json", True),
    ("C:\\work\\spans.tsv", True),
    (".perfbench_work/wide_fleet-trace0/spans.tsv", False),
    ("python3 perfbench/run.py --workload W", False),
    ("1/s", False),
    ("10/10", False),
])
def test_absolute_path_pattern(text, absolute):
    assert bool(ABSOLUTE_PATH.search(text)) is absolute
