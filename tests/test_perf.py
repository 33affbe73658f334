"""The kernel perf harness (repro.perf)."""

import json

import numpy as np
import pytest

from repro.errors import ReproError
from repro.obs import current_events
from repro.perf import (
    BenchReport,
    KernelBench,
    render_report,
    run_benchmarks,
    write_report,
)
from repro.perf.bench import (
    OBS_EVENTS_PER_ATTEMPT,
    OBS_EVENTS_PER_STAGE,
    OBS_EXPORTER_BUDGET,
    OBS_OVERHEAD_BUDGET,
    measure_obs_overhead,
)


@pytest.fixture(scope="module")
def tiny_report():
    # One shared tiny run for the whole module: the harness itself re-checks
    # fast-vs-reference equality, so this doubles as an integration test.
    return run_benchmarks(scale="tiny", include_campaign=False)


class TestKernelBench:
    def test_derived_metrics(self):
        k = KernelBench("k", pixels=1000, fast_seconds=0.001, reference_seconds=0.004)
        assert k.speedup == pytest.approx(4.0)
        assert k.ns_per_pixel == pytest.approx(1000.0)

    def test_no_reference(self):
        k = KernelBench("k", pixels=10, fast_seconds=0.1)
        assert k.speedup is None
        assert k.as_dict()["speedup"] is None


class TestRunBenchmarks:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ReproError, match="scale"):
            run_benchmarks(scale="galactic")

    def test_covers_every_rewritten_kernel(self, tiny_report):
        names = {k.name for k in tiny_report.kernels}
        assert {"align_pair", "align_stack", "denoise_stack[chambolle]",
                "denoise_stack[split_bregman]", "multi_otsu[3]"} <= names
        assert any(n.startswith("contrast_lookup") for n in names)

    def test_fast_kernels_match_references(self, tiny_report):
        """The headline guarantee: every rewrite is output-identical."""
        checked = [k for k in tiny_report.kernels if k.outputs_match is not None]
        assert checked and all(k.outputs_match for k in checked)

    def test_pipeline_and_workload_recorded(self, tiny_report):
        assert tiny_report.pipeline["pixels"] == \
            tiny_report.workload["slices"] * int(np.prod(tiny_report.workload["shape"]))
        assert tiny_report.pipeline["seconds"] > 0
        assert tiny_report.campaign is None  # include_campaign=False

    def test_kernel_lookup(self, tiny_report):
        assert tiny_report.kernel("align_stack").pixels > 0
        with pytest.raises(ReproError):
            tiny_report.kernel("nonexistent")


class TestObsGates:
    def test_exporter_cost_is_counted_per_stage(self, tiny_report):
        obs = tiny_report.obs
        assert obs["events_per_pipeline"] == 0
        assert obs["stages_per_chip"] == 7  # layout .. reveng, no roi
        assert obs["events_per_chip"] == 7 * OBS_EVENTS_PER_STAGE + OBS_EVENTS_PER_ATTEMPT
        assert obs["exporter_overhead_fraction"] <= OBS_EXPORTER_BUDGET
        assert obs["disabled_overhead_fraction"] < OBS_OVERHEAD_BUDGET

    def test_events_inside_kernels_fail_the_gate(self):
        def emitting_pipeline():
            current_events().emit("stage_start", stage="kernel")

        with pytest.raises(ReproError, match=r"kernel pipeline emitted 1 bus event\(s\)"):
            measure_obs_overhead(emitting_pipeline, pipeline_seconds=0.025)


class TestReportSerialisation:
    def test_write_report_round_trips(self, tiny_report, tmp_path):
        path = write_report(tiny_report, tmp_path / "BENCH_pipeline.json")
        data = json.loads(path.read_text())
        assert data["schema"] == "repro-perf/1"
        assert data["scale"] == "tiny"
        assert len(data["kernels"]) == len(tiny_report.kernels)
        by_name = {k["name"]: k for k in data["kernels"]}
        assert by_name["align_stack"]["speedup"] > 0
        assert by_name["align_stack"]["outputs_match"] is True

    def test_render_report_mentions_kernels(self, tiny_report):
        text = render_report(tiny_report)
        assert "align_stack" in text and "ns/px" in text

    def test_render_flags_mismatches(self):
        report = BenchReport(
            scale="tiny", workload={}, kernels=[
                KernelBench("broken", 10, 0.1, 0.2, outputs_match=False)],
            pipeline={"seconds": 0.1, "ns_per_pixel": 1.0},
        )
        assert "NO" in render_report(report)


class TestCli:
    def test_main_writes_report(self, tmp_path, capsys):
        from repro.perf.__main__ import main
        from repro.perf import load_history

        out = tmp_path / "bench.json"
        history = tmp_path / "history.jsonl"
        assert main(["--scale", "tiny", "--no-campaign", "--out", str(out),
                     "--history", str(history)]) == 0
        assert out.exists()
        assert "report written" in capsys.readouterr().out
        (entry,) = load_history(history)
        assert entry["probe"] == "pipeline"
        assert "campaign:wall_seconds" not in entry["metrics"]  # --no-campaign

    def test_main_rejects_unknown_option(self, capsys):
        from repro.perf.__main__ import main

        assert main(["--frobnicate"]) == 2

    def test_main_rejects_unknown_scale(self, capsys):
        from repro.perf.__main__ import main

        assert main(["--scale", "galactic"]) == 1


class TestAnalogSuite:
    def test_unknown_scale_rejected(self):
        from repro.perf import run_analog_benchmarks

        with pytest.raises(ReproError, match="scale"):
            run_analog_benchmarks(scale="galactic")

    def test_gate_failures_catch_every_regression(self):
        from repro.perf import analog_gate_failures

        green = {
            "solver": {"outputs_match": True, "speedup": 9.0},
            "yield": {"failures_match": True},
            "sweep": {"all_cached_on_rerun": True},
            "min_speedup_gate": 5.0,
        }
        assert analog_gate_failures(green) == []

        slow = dict(green, solver={"outputs_match": True, "speedup": 2.0})
        assert any("speedup" in f for f in analog_gate_failures(slow))

        mismatched = dict(green, solver={"outputs_match": False, "speedup": 9.0})
        assert "solver outputs_match" in analog_gate_failures(mismatched)

        uncached = dict(green, sweep={"all_cached_on_rerun": False})
        assert "sweep cache-hit re-run" in analog_gate_failures(uncached)

    def test_tiny_scale_skips_speedup_gate(self):
        """At tiny N the batched path is legitimately slower; only the
        default scale enforces the >=5x floor."""
        from repro.perf import analog_gate_failures

        tiny = {
            "solver": {"outputs_match": True, "speedup": 0.4},
            "yield": {"failures_match": True},
            "sweep": {"all_cached_on_rerun": True},
            "min_speedup_gate": None,
        }
        assert analog_gate_failures(tiny) == []

    def test_batched_solver_probe_is_bit_identical(self):
        """The real probe at a micro batch: outputs_match must hold even
        where the speedup does not."""
        from repro.perf.bench import measure_batched_solver

        bench = measure_batched_solver(scale="tiny", seed=5)
        assert bench.outputs_match is True
        assert bench.name == "batched_transient[N=8]"
        assert bench.pixels > 0

    def test_analog_report_render_and_write(self, tmp_path):
        from repro.perf import render_analog_report, write_analog_report

        data = {
            "schema": "repro-perf-analog/1",
            "created_unix": 0.0,
            "scale": "tiny",
            "solver": {"name": "batched_transient[N=8]", "fast_seconds": 1.0,
                       "reference_seconds": 0.5, "speedup": 0.5,
                       "outputs_match": True},
            "yield": {"trials": 4, "batched_seconds": 1.0,
                      "reference_seconds": 1.0, "speedup": 1.0,
                      "batched_failures": 0, "reference_failures": 0,
                      "failures_match": True},
            "sweep": {"cells": 2, "cold_wall_seconds": 3.0,
                      "warm_wall_seconds": 0.1, "warm_cache_hits": 4,
                      "warm_cache_misses": 0, "all_cached_on_rerun": True},
            "min_speedup_gate": None,
        }
        text = render_analog_report(data)
        assert "batched_transient" in text and "characterize" in text
        path = write_analog_report(data, tmp_path / "BENCH_analog.json")
        assert json.loads(path.read_text())["schema"] == "repro-perf-analog/1"
