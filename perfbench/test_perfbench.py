"""Tests of the benchmark itself:  python3 -m pytest perfbench  (about 3 min).

The last test runs every workload twice with tracing and asserts that the
count metrics repeat exactly.
"""
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, invocation_kind, run_workload  # noqa: E402
from trace_run import LAYERS, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
COUNTS = ("core.poly_evals", "core.poly_points", "flows.integrate_calls",
          "flows.rk4_cell_steps", "extremals.span_columns",
          "certify.sampler_rejections", "io.bytes_written")


@pytest.mark.parametrize("name", WORKLOADS)
def test_scenario_depends_only_on_seed(name):
    make = WORKLOADS[name].scenario
    assert json.dumps(make(3)) == json.dumps(make(3))
    assert make(3)["seed"] == 3
    assert json.dumps(make(3)) != json.dumps(make(4))


def test_self_times_cover_the_root_span():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["flows.integrate_trajectory", 1.0, 4.0, 0],
             ["homotopy.variation_fields", 5.0, 9.0, 0],
             ["homotopy.variation_direct", 5.5, 8.0, 2]]
    assert self_times(spans) == [3.0, 3.0, 1.5, 2.5]
    assert math.fsum(self_times(spans)) == 10.0


def test_traced_runs_count_first_then_alternate():
    kinds = {seed: [invocation_kind(i, seed, True) for i in range(5)]
             for seed in (0, 1)}
    assert kinds[0] == ["counted", "plain", "traced", "plain", "traced"]
    assert kinds[1] == ["counted", "traced", "plain", "traced", "plain"]
    assert {invocation_kind(i, 0, False) for i in range(3)} == {"plain"}


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_exactly(name):
    first, second = (run_workload(name, 0, 0.0, True, ROOT) for _ in range(2))
    for result in (first, second):
        assert result["correct"], result["problems"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layer_sum = math.fsum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        assert layer_sum == pytest.approx(metrics["trace.main_s"], rel=1e-9)
    for key in COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
