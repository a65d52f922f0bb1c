"""Self-test of the benchmark: tail statistic, outputs digest, traced
run, and agreement of ``BENCHMARK.json`` with the metric tables.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import layers  # noqa: E402


@pytest.mark.parametrize("n", [bench.MIN_MEASURED, 23, 40, 97])
def test_tail_has_ten_beyond_and_sits_above_median(n):
    values = random.Random(n).sample(range(10_000), n)
    value, pct = bench.tail(values)
    assert bench.TAIL_BEYOND >= 10
    assert sum(v > value for v in values) == bench.TAIL_BEYOND
    assert value > statistics.median(values)
    assert pct == pytest.approx(100.0 * (n - bench.TAIL_BEYOND) / n)


def test_too_few_epochs_report_no_tail():
    assert bench.tail(list(range(bench.MIN_MEASURED - 1))) is None
    with pytest.raises(ValueError):
        bench.run(bench.WORKLOADS["churn"], 1, bench.MIN_MEASURED - 1)


def test_host_speed_scales_each_epoch_by_the_speed_around_it():
    ref = bench.REFERENCE_KERNEL_S
    kernel = [ref] * 6 + [2 * ref] * 6
    scaled = bench.HostSpeed.scale([1.0] * 6 + [2.0] * 6, kernel)
    assert scaled[:3] == [1.0] * 3 and scaled[-3:] == [1.0] * 3
    assert bench.HostSpeed().kernel_s() > 0


@pytest.fixture(scope="module")
def churn_seed3():
    return bench.run(bench.WORKLOADS["churn"], 3, bench.MIN_MEASURED, setups=1)


def test_run_is_correct_and_tail_not_below_median(churn_seed3):
    res = churn_seed3
    assert res.correct, res.checks
    assert res.failed == 0 and res.attempted > 0
    assert res.measured == bench.MIN_MEASURED
    assert res.metrics["epoch_s_tail"] >= res.metrics["epoch_s_p50"]
    assert {name for name, *_ in bench.END_TO_END} <= res.metrics.keys()


def test_digest_repeats_for_a_seed_and_differs_across_seeds(churn_seed3):
    again = bench.run(bench.WORKLOADS["churn"], 3, bench.MIN_MEASURED, setups=1)
    other = bench.run(bench.WORKLOADS["churn"], 4, bench.MIN_MEASURED, setups=1)
    assert again.digest == churn_seed3.digest
    assert other.digest != churn_seed3.digest


def test_traced_run_keeps_outputs_and_reports_every_layer(churn_seed3):
    traced = bench.run(
        bench.WORKLOADS["churn"], 3, bench.MIN_MEASURED, setups=1, traced=True
    )
    assert traced.digest == churn_seed3.digest
    assert list(traced.layer) == [name for name, *_ in layers.PER_LAYER]
    assert traced.layer["audit.sweeps"] == 1.0
    assert traced.layer["faults.injected"] > 0
    # The tracer put every wrapped function back.
    for _name, owner, attr in layers._targets():
        assert not hasattr(getattr(owner, attr), "__wrapped__")


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in bench.WORKLOADS.values()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == (
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in layers.PER_LAYER
    ]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
