"""Tests of the benchmark's own instrumentation.

    python3 -m pytest perfbench -q

The traced-run tests run each workload's suite once (about a minute in all).
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from instrument import FFT_ENTRY_POINTS, LAYER_METRICS, FftCounter  # noqa: E402
from run import END_TO_END, PER_LAYER, run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# which workloads must exercise each per-layer metric (by name prefix)
EXERCISED_BY = {
    "grid.": ("unitarity", "parametrix-residual", "mkg-evolve-3d"),
    "lp.": ("unitarity", "parametrix-residual"),
    "gauge.greater_symbol": ("unitarity", "parametrix-residual"),
    "gauge.transverse_inverse_symbol": ("unitarity", "parametrix-residual"),
    "gauge.leray_project": ("mkg-evolve-3d",),
    "parametrix.": ("unitarity", "parametrix-residual"),
    "mkg.": ("mkg-evolve-3d",),
    "harness.": ("unitarity", "parametrix-residual", "mkg-evolve-3d"),
}
# a ratio, not a counter: 0 today because no phase slice is ever reused
NOT_COUNTERS = {"parametrix.slice_hit_ratio"}
# parametrix-residual never estimates an operator norm
NOT_EXERCISED = {("parametrix.power_iterations", "parametrix-residual")}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.fixture
def counter(monkeypatch):
    # register every entry point with monkeypatch so the originals come back
    for name in FFT_ENTRY_POINTS:
        monkeypatch.setattr(np.fft, name, getattr(np.fft, name))
    c = FftCounter()
    c.install()
    return c


def test_fft_counter_counts_fixed_sequence(counter):
    from cronlab.grid import GridSpec, ScalarField, to_frequency
    rng = np.random.default_rng(0)
    line = rng.standard_normal(16)
    square = rng.standard_normal((8, 8))
    stack = rng.standard_normal((5, 8, 8)) + 0j
    np.fft.fft(line)
    np.fft.ifftn(square)
    np.fft.fftn(stack, axes=(1, 2))        # one batched call over 5 planes
    np.fft.ifftn(stack, axes=(-2, -1))
    np.fft.fft(stack, axis=0)
    np.fft.rfft2(square)
    np.fft.irfftn(np.fft.rfftn(square), s=square.shape, axes=(0, 1))
    to_frequency(ScalarField(GridSpec(2, 8, 1.0), square))   # via a cronlab module
    assert counter.calls == 9
    expected = 16 + 64 + 3 * 320 + 64 + 64 + 8 * 5 + 64
    assert counter.points == expected


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return {w: run_child(w, 7, str(out / w), trace=True)["layers"] for w in WORKLOADS}


def _expected_nonzero(metric, workload):
    if metric in NOT_COUNTERS or (metric, workload) in NOT_EXERCISED:
        return False
    return any(metric.startswith(prefix) and workload in ws
               for prefix, ws in EXERCISED_BY.items())


def test_traced_run_reports_every_layer_metric(traced):
    for workload, layers in traced.items():
        assert set(layers) == set(LAYER_METRICS), workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counters_above_zero_where_exercised(traced, workload):
    layers = traced[workload]
    missing = [m for m in layers if _expected_nonzero(m, workload) and not layers[m] > 0]
    assert not missing


def test_parametrix_counters_zero_on_mkg_evolve_3d(traced):
    layers = traced["mkg-evolve-3d"]
    nonzero = {m: v for m, v in layers.items() if m.startswith("parametrix.") and v != 0}
    assert not nonzero


def test_transform_counts_agree_between_layers_and_counter(traced, tmp_path):
    base = run_child("mkg-evolve-3d", 7, str(tmp_path / "untraced"))
    assert traced["mkg-evolve-3d"]["grid.fft_calls"] == base["fft_calls"]
    assert traced["mkg-evolve-3d"]["grid.fft_mpoints"] == pytest.approx(base["fft_mpoints"])


def test_fails_without_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "unitarity",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
