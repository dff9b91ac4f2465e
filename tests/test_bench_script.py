"""The paired statistics that scripts/bench.py writes for a --parent run."""

import importlib.util
import math
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench)


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024), (8, 2, 112 / 1024),
    (5, 5, 1.0), (0, 0, 1.0), (6, 1, 16 / 128),
])
def test_sign_test_p_is_the_two_sided_binomial_tail(wins, losses, p):
    assert bench.sign_test_p(wins, losses) == pytest.approx(p, rel=1e-12)


def runs(values: dict) -> list:
    """``perfbench/run.py`` results, one per position, from metric columns."""
    n = len(next(iter(values.values())))
    return [({}, {"metrics": {name: {"value": column[i]}
                              for name, column in values.items()}})
            for i in range(n)]


def test_paired_summaries_pair_runs_by_position_and_count_by_direction():
    parent = runs({"latency_ms_p50": [10.0, 20.0, 30.0, 40.0],
                   "frames_per_s": [100.0, 100.0, 100.0, 100.0],
                   "model.frames": [0.0, 0.0, 5.0, 5.0]})
    change = runs({"latency_ms_p50": [5.0, 20.0, 45.0, 20.0],
                   "frames_per_s": [110.0, 90.0, 120.0, 130.0],
                   "model.frames": [0.0, 1.0, 5.0, 10.0]})
    stats = bench.paired_summaries(
        parent, change, {"latency_ms_p50": "lower", "frames_per_s": "higher"})
    latency = stats["latency_ms_p50"]
    assert latency["ratio"]["values"] == [0.5, 1.0, 1.5, 0.5]
    assert latency["ratio"]["median"] == 0.75
    assert (latency["wins"], latency["losses"], latency["ties"]) == (2, 1, 1)
    assert latency["sign_test_p"] == 1.0
    throughput = stats["frames_per_s"]
    assert (throughput["wins"], throughput["losses"], throughput["ties"]) == (3, 1, 0)
    assert throughput["better"] == "higher"
    # a zero parent value gives no ratio; an unknown direction no wins
    assert stats["model.frames"] == {"ratio": bench.summary([1.0, 2.0])}
    assert math.isclose(bench.summary([1.0, 2.0])["median"], 1.5)
