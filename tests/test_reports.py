import json
import os
import random
import subprocess
import sys
from pathlib import Path

import plucker
from plucker.reports import random_config

# `plucker report all --json --seed 0` with every "seconds" field removed
GOLDEN_REPORT_ALL = Path(__file__).with_name("report_all_seed0.json")


def _without_seconds(value):
    if isinstance(value, dict):
        return {k: _without_seconds(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_without_seconds(v) for v in value]
    return value


def test_random_config_has_room_for_many_labels():
    # 19 is the last n for which [-9, 9] holds n distinct values
    for n in (8, 19, 24):
        xs = [x for x, _ in random_config(n, random.Random(n)).points]
        assert len(xs) == n == len(set(xs))
        assert all(abs(x) <= max(9, n // 2) for x in xs)


def test_report_all_prints_its_golden_output():
    # a fresh process, so the cache block counts this run alone: no table or
    # memo may change an answer or the straightening work
    src = os.path.dirname(os.path.dirname(os.path.abspath(plucker.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "plucker.cli", "report", "all", "--json", "--seed", "0"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _without_seconds(json.loads(proc.stdout)) == \
        json.loads(GOLDEN_REPORT_ALL.read_text())
