"""The append-mode perf history log and its regression gate.

Covers :mod:`repro.perf.history` — metric flattening per probe schema,
the JSONL append/load round trip (malformed-line tolerance), the
trailing-median gate (abstains below ``min_history``, flags >threshold,
ignores other environments) — and drives the ``python -m repro.perf``
CLI end-to-end with a faked benchmark runner to prove a synthetic 2x
kernel slowdown exits non-zero under ``--check-regression``.
"""

import json

import pytest

from repro.perf import (
    DEFAULT_HISTORY_PATH,
    HISTORY_SCHEMA,
    RssSampler,
    check_regression,
    environment_fingerprint,
    key_metrics,
    load_history,
    record_run,
    render_regressions,
)


def _pipeline_report(ns_per_px: float = 100.0) -> dict:
    return {
        "schema": "repro-perf/1",
        "scale": "tiny",
        "created_unix": 1754600000,
        "kernels": [
            {"name": "mi_register", "ns_per_pixel": ns_per_px},
            {"name": "tv_denoise", "ns_per_pixel": ns_per_px * 2},
        ],
        "pipeline": {"ns_per_pixel": ns_per_px * 10},
        "campaign": {"wall_seconds": 3.0},
    }


class TestKeyMetrics:
    def test_pipeline_probe(self):
        metrics = key_metrics(_pipeline_report(100.0))
        assert metrics == {
            "kernel:mi_register:ns_per_px": 100.0,
            "kernel:tv_denoise:ns_per_px": 200.0,
            "pipeline:ns_per_px": 1000.0,
            "campaign:wall_seconds": 3.0,
        }

    def test_analog_probe(self):
        report = {
            "schema": "repro-perf-analog/1",
            "solver": {"fast_seconds": 0.5},
            "sweep": {"cold_wall_seconds": 2.0},
        }
        assert key_metrics(report) == {
            "solver:fast_seconds": 0.5,
            "sweep:cold_wall_seconds": 2.0,
        }

    def test_dataplane_probe(self):
        report = {
            "schema": "repro-perf-dataplane/1",
            "serial": {"wall_seconds": 4.0},
            "pickle_plane": {"wall_seconds": 2.0},
            "shm_plane": {"wall_seconds": 1.0},
        }
        assert key_metrics(report) == {
            "serial:wall_seconds": 4.0,
            "pickle_plane:wall_seconds": 2.0,
            "shm_plane:wall_seconds": 1.0,
        }

    def test_catalog_probe(self):
        report = {"schema": "repro-perf-catalog/1", "cold_wall_seconds": 7.5}
        assert key_metrics(report) == {"cold_wall_seconds": 7.5}

    def test_unknown_schema_records_nothing(self):
        assert key_metrics({"schema": "mystery/9"}) == {}

    def test_non_positive_values_dropped(self):
        report = _pipeline_report()
        report["kernels"][0]["ns_per_pixel"] = 0.0
        report["kernels"][1]["ns_per_pixel"] = None
        metrics = key_metrics(report)
        assert "kernel:mi_register:ns_per_px" not in metrics
        assert "kernel:tv_denoise:ns_per_px" not in metrics


class TestRecordAndLoad:
    def test_append_round_trip(self, tmp_path):
        path = tmp_path / "hist" / "BENCH_history.jsonl"  # parent must be made
        entry = record_run(_pipeline_report(), path)
        assert entry["schema"] == HISTORY_SCHEMA
        assert entry["probe"] == "pipeline"
        assert entry["environment"] == environment_fingerprint()
        assert entry["scale"] == "tiny"
        record_run(_pipeline_report(120.0), path)
        loaded = load_history(path)
        assert len(loaded) == 2
        assert loaded[0]["metrics"]["kernel:mi_register:ns_per_px"] == 100.0
        assert loaded[1]["metrics"]["kernel:mi_register:ns_per_px"] == 120.0

    def test_load_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        record_run(_pipeline_report(), path)
        with path.open("a") as fh:
            fh.write("{torn line\n")
            fh.write("\n")
            fh.write(json.dumps({"schema": "other/1"}) + "\n")
        record_run(_pipeline_report(), path)
        assert len(load_history(path)) == 2

    def test_load_missing_file(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_default_path_is_repo_convention(self):
        assert DEFAULT_HISTORY_PATH == "BENCH_history.jsonl"

    def test_environment_fingerprint_keys(self):
        env = environment_fingerprint()
        assert set(env) == {"python", "numpy", "machine"}
        assert all(isinstance(v, str) and v for v in env.values())


class TestCheckRegression:
    def test_abstains_without_history(self, tmp_path):
        path = tmp_path / "h.jsonl"
        assert check_regression(_pipeline_report(200.0), path) == []

    def test_abstains_below_min_history(self, tmp_path):
        path = tmp_path / "h.jsonl"
        record_run(_pipeline_report(100.0), path)
        assert check_regression(_pipeline_report(200.0), path) == []

    def test_flags_2x_slowdown(self, tmp_path):
        path = tmp_path / "h.jsonl"
        for _ in range(3):
            record_run(_pipeline_report(100.0), path)
        regressions = check_regression(_pipeline_report(200.0), path)
        metrics = {r["metric"] for r in regressions}
        # Every per-pixel timing doubled; the campaign probe did not.
        assert "kernel:mi_register:ns_per_px" in metrics
        assert "pipeline:ns_per_px" in metrics
        assert "campaign:wall_seconds" not in metrics
        flagged = next(r for r in regressions
                       if r["metric"] == "kernel:mi_register:ns_per_px")
        assert flagged["current"] == 200.0
        assert flagged["baseline_median"] == 100.0
        assert flagged["ratio"] == pytest.approx(2.0)
        assert flagged["samples"] == 3

    def test_passes_below_threshold(self, tmp_path):
        path = tmp_path / "h.jsonl"
        for _ in range(3):
            record_run(_pipeline_report(100.0), path)
        assert check_regression(_pipeline_report(120.0), path) == []

    def test_other_environment_not_comparable(self, tmp_path):
        path = tmp_path / "h.jsonl"
        for _ in range(3):
            entry = record_run(_pipeline_report(100.0), path)
        # Rewrite history as if it came from another machine.
        foreign = dict(entry, environment=dict(entry["environment"],
                                               machine="riscv128"))
        path.write_text("".join(
            json.dumps(foreign, sort_keys=True) + "\n" for _ in range(3)
        ))
        assert check_regression(_pipeline_report(300.0), path) == []

    def test_window_uses_trailing_entries(self, tmp_path):
        path = tmp_path / "h.jsonl"
        # Ancient slow history followed by 5 fast runs: the 5-entry
        # window must baseline on the fast era.
        record_run(_pipeline_report(1000.0), path)
        for _ in range(5):
            record_run(_pipeline_report(100.0), path)
        regressions = check_regression(_pipeline_report(200.0), path)
        flagged = next(r for r in regressions
                       if r["metric"] == "kernel:mi_register:ns_per_px")
        assert flagged["baseline_median"] == 100.0

    def test_custom_threshold(self, tmp_path):
        path = tmp_path / "h.jsonl"
        for _ in range(3):
            record_run(_pipeline_report(100.0), path)
        assert check_regression(_pipeline_report(120.0), path, threshold=1.1)
        assert not check_regression(_pipeline_report(120.0), path, threshold=1.3)

    def test_render(self, tmp_path):
        assert render_regressions([]) == "no regressions against trailing history"
        path = tmp_path / "h.jsonl"
        for _ in range(3):
            record_run(_pipeline_report(100.0), path)
        text = render_regressions(check_regression(_pipeline_report(200.0), path))
        assert "REGRESSION pipeline:kernel:mi_register:ns_per_px" in text
        assert "2.00x > 1.50x gate" in text


class TestRssSampler:
    def test_samples_and_peak(self):
        seen = []
        with RssSampler(interval=0.01, on_sample=seen.append) as sampler:
            list(range(10000))
        assert sampler.samples >= 1  # final sample guaranteed on exit
        assert sampler.peak_bytes > 0
        assert seen, "on_sample never called"
        assert all(isinstance(s, int) and s > 0 for s in seen)
        assert max(seen) == sampler.peak_bytes


# ---------------------------------------------------------------------------
# the CLI gate


class _FakeKernel:
    outputs_match = True
    name = "mi_register"


class _FakeReport:
    """Stands in for BenchReport: just enough surface for perf.__main__."""

    kernels = [_FakeKernel()]
    shard = None

    def __init__(self, ns_per_px: float) -> None:
        self._ns = ns_per_px

    def as_dict(self) -> dict:
        return _pipeline_report(self._ns)


class TestCliGate:
    @pytest.fixture()
    def fake_bench(self, monkeypatch):
        """Patch the benchmark runner so the CLI is instant + deterministic."""
        import repro.perf.__main__ as perf_main

        current = {"ns": 100.0}
        monkeypatch.setattr(
            perf_main, "run_benchmarks",
            lambda scale, include_campaign: _FakeReport(current["ns"]),
        )
        monkeypatch.setattr(
            perf_main, "write_report", lambda report, out: out)
        monkeypatch.setattr(
            perf_main, "render_report", lambda report: "(fake report)")
        return current

    def test_synthetic_2x_slowdown_exits_nonzero(self, fake_bench, tmp_path, capsys):
        from repro.perf.__main__ import main

        history = str(tmp_path / "BENCH_history.jsonl")
        out = str(tmp_path / "BENCH_pipeline.json")
        base = ["--out", out, "--history", history, "--check-regression"]
        # Two clean baseline runs: gate abstains, history accumulates.
        assert main(base) == 0
        assert main(base) == 0
        assert len(load_history(history)) == 2
        # Inject the 2x kernel slowdown: the gate must fire...
        fake_bench["ns"] = 200.0
        assert main(base) == 1
        assert "REGRESSION pipeline:kernel:mi_register:ns_per_px" in (
            capsys.readouterr().err
        )
        # ...and the slow run is still recorded (history reflects reality).
        assert len(load_history(history)) == 3

    def test_no_check_records_without_gating(self, fake_bench, tmp_path):
        from repro.perf.__main__ import main

        history = str(tmp_path / "h.jsonl")
        base = ["--out", str(tmp_path / "b.json"), "--history", history]
        assert main(base) == 0
        assert main(base) == 0
        fake_bench["ns"] = 500.0
        assert main(base) == 0  # recorded, not gated
        assert len(load_history(history)) == 3

    def test_no_history_skips_append(self, fake_bench, tmp_path, monkeypatch):
        from repro.perf.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["--out", str(tmp_path / "b.json"), "--no-history"]) == 0
        assert not (tmp_path / DEFAULT_HISTORY_PATH).exists()

    def test_out_elsewhere_keeps_root_history_untouched(self, fake_bench, tmp_path,
                                                        monkeypatch):
        """Without --history, the history is written beside --out."""
        from repro.perf.__main__ import main

        root = tmp_path / "checkout"
        root.mkdir()
        tracked = root / DEFAULT_HISTORY_PATH
        tracked.write_text("{}\n")
        monkeypatch.chdir(root)
        out_dir = tmp_path / "elsewhere"
        out_dir.mkdir()
        assert main(["--out", str(out_dir / "b.json")]) == 0
        assert tracked.read_text() == "{}\n"
        assert len(load_history(str(out_dir / DEFAULT_HISTORY_PATH))) == 1
