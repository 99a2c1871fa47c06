"""Self-tests of the benchmark at tiny budgets.

Run from the repository root::

    python -m pytest simbench -q

Each test starts ``run.py`` the way the benchmark is run, with
``--scale`` shrinking every instruction budget.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.03"


def _bench(workload: str, seed: int = 1, trace: int = 0, *extra: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", SCALE, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[-2]


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in _declared()["workloads"]])
def test_metric_names_and_units_match_benchmark_json(workload):
    declared = _declared()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = _bench(workload, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared[key]}


def test_injected_defect_counts_as_failed_operation():
    result, _ = _bench("apache-detailed", 1, 0, "--inject", "counter")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_traced_call_counts_repeat_exactly():
    first, _ = _bench("specint-sampled", trace=1)
    second, _ = _bench("specint-sampled", trace=1)
    calls = [{k: m["value"] for k, m in r["metrics"].items()
              if k.endswith(".calls_per_kinstr")} for r in (first, second)]
    assert calls[0] == calls[1]
    assert calls[0]["core.processor.calls_per_kinstr"] > 0


def test_second_seed_changes_digest_and_passes():
    one, digest_one = _bench("seed-sweep", seed=1)
    two, digest_two = _bench("seed-sweep", seed=2)
    assert one["correct"] and two["correct"]
    assert two["metrics"]["ok_ratio"]["value"] == 1.0
    assert digest_one.startswith("digest seed-sweep seed=1: ")
    assert digest_one.split()[-1] != digest_two.split()[-1]
