"""Golden CSVs: fixed specs must reproduce their stored results.

Together the first two specs run every planner against every attacker, once
on the one-step protocol (coverage count) and once on the multi-round closed
loop (expected detections).  The third lists one attacker twice in a
multi-round spec: its rows repeat in spec order, as they did when every
(planner, attacker) pair ran its own loop.  The fourth is a wider one-step
spec, 12 robots and 60 targets at alphas 0-6, with every planner but brute
force (4**12 bases exceed the enumeration cap): its greedy attacks run up to
six rounds over 12 members and its greedy fills up to 12 rounds.  Every
column must match the stored file exactly except ``wall_time_micros``,
which is informational.  To regenerate a file after an intended change
(and record that change in CHANGES.md)::

    resilient-tracking run --spec tests/data/golden_one_step.json \\
        --out tests/data/golden_one_step.csv
"""

from pathlib import Path

import pytest

from resilient_tracking.experiments import load_spec, read_csv, run_suite

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name",
    [
        "golden_one_step",
        "golden_multi_round",
        "golden_repeated_attacker",
        "golden_wide_one_step",
    ],
)
def test_spec_reproduces_its_golden_csv(name):
    spec = load_spec(DATA / f"{name}.json")
    expected = read_csv(DATA / f"{name}.csv")
    rows = run_suite(spec)
    assert len(rows) == len(expected)
    for row, golden in zip(rows, expected):
        assert row._replace(wall_time_micros=0) == golden._replace(wall_time_micros=0)
