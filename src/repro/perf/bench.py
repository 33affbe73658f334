"""Micro- and end-to-end benchmarks for the post-processing kernels.

Each hot kernel is timed (best-of-``repeats`` wall time, ``timeit``
style) against the retained ``_reference`` implementation it replaced,
on a deterministic synthetic workload.  Results are reported as
ns/pixel — the scale-free number that survives workload changes — plus
the speedup factor, and every comparison re-checks that the fast kernel
reproduces the reference output exactly (``outputs_match``).

The ``"default"`` scale mirrors the ``bench_pipeline_alignment``
workload (82 slices of 1339×64 float32); ``"tiny"`` is for CI smoke
jobs and finishes in seconds.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.errors import ReproError

#: Where ``python -m repro.perf`` writes its record by default.
DEFAULT_REPORT_PATH = "BENCH_pipeline.json"

_SCALES: dict[str, dict[str, Any]] = {
    # CI smoke: everything in a few seconds.
    "tiny": {"slices": 5, "shape": (96, 48), "otsu_shape": (96, 96),
             "stack_repeats": 1, "micro_repeats": 3},
    # The bench_pipeline_alignment.py-scale workload (§IV-C B5-like stack).
    "default": {"slices": 82, "shape": (1339, 64), "otsu_shape": (512, 512),
                "stack_repeats": 1, "micro_repeats": 2},
}


def _synthetic_stack(
    slices: int, shape: tuple[int, int], seed: int = 1234
) -> list[np.ndarray]:
    """A drifting, noisy rail texture resembling an SA cross-section stack.

    Long vertical rails (nearly translation-invariant along one axis, like
    bitlines) over a blocky background, with per-slice integer drift and
    shot noise — the same structure that makes the real MI search need its
    shift penalty.  Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    nx, nz = shape
    base = np.zeros(shape)
    base[:, :: max(nz // 8, 2)] = 0.75  # rails
    blocks = np.kron(
        rng.random((max(nx // 16, 1), max(nz // 8, 1))),
        np.ones((16, 8)),
    )[:nx, :nz]
    pad_x, pad_z = nx - blocks.shape[0], nz - blocks.shape[1]
    if pad_x or pad_z:
        blocks = np.pad(blocks, ((0, pad_x), (0, pad_z)), mode="edge")
    base = np.clip(0.2 + 0.4 * blocks + base, 0.0, 1.0)
    stack = []
    for i in range(slices):
        drift = int(rng.integers(-1, 2)) * (i % 3 == 0)
        img = np.roll(base, drift * i, axis=0)
        img = img + rng.normal(0.0, 0.05, shape)
        stack.append(np.clip(img, 0.0, 1.0).astype(np.float32))
    return stack


@dataclass
class KernelBench:
    """Timing of one kernel against its retained reference."""

    name: str
    pixels: int
    fast_seconds: float
    reference_seconds: float | None = None
    outputs_match: bool | None = None

    @property
    def speedup(self) -> float | None:
        if self.reference_seconds is None or self.fast_seconds <= 0:
            return None
        return self.reference_seconds / self.fast_seconds

    @property
    def ns_per_pixel(self) -> float:
        return self.fast_seconds / max(self.pixels, 1) * 1e9

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "pixels": self.pixels,
            "fast_seconds": self.fast_seconds,
            "reference_seconds": self.reference_seconds,
            "speedup": self.speedup,
            "ns_per_pixel": self.ns_per_pixel,
            "outputs_match": self.outputs_match,
        }


@dataclass
class BenchReport:
    """Everything one perf run measured, ready for ``BENCH_pipeline.json``."""

    scale: str
    workload: dict[str, Any]
    kernels: list[KernelBench]
    pipeline: dict[str, Any]
    campaign: dict[str, Any] | None = None
    obs: dict[str, Any] | None = None
    shard: dict[str, Any] | None = None
    environment: dict[str, str] = field(default_factory=dict)

    def kernel(self, name: str) -> KernelBench:
        for k in self.kernels:
            if k.name == name:
                return k
        raise ReproError(f"no kernel benchmark named {name!r}")

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro-perf/1",
            "created_unix": time.time(),
            "scale": self.scale,
            "workload": self.workload,
            "environment": self.environment,
            "kernels": [k.as_dict() for k in self.kernels],
            "pipeline": self.pipeline,
            "campaign": self.campaign,
            "obs": self.obs,
            "shard": self.shard,
        }


def _time(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Best-of-*repeats* wall seconds of ``fn()``, plus its last result."""
    best = float("inf")
    result: Any = None
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _stacks_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


#: ceiling on the obs disabled-path overhead relative to the pipeline probe
OBS_OVERHEAD_BUDGET = 0.02

#: ceiling on the *additional* cost of the live exporter stack (event bus
#: + HTTP exposition server) over the plain traced path
OBS_EXPORTER_BUDGET = 0.05

#: bus events the engine emits around each stage it runs: ``stage_start``,
#: the ``cache_hit``/``cache_miss`` verdict and ``stage_finish``
OBS_EVENTS_PER_STAGE = 3

#: bus events around each acquisition attempt: ``attempt_start`` and
#: ``attempt_finish``
OBS_EVENTS_PER_ATTEMPT = 2


def measure_obs_overhead(
    pipeline_fn: Callable[[], Any],
    pipeline_seconds: float,
    noop_calls: int = 20_000,
) -> dict[str, Any]:
    """The ``obs-overhead`` probe: what instrumentation costs when off.

    Every instrumented call site pays one ``current_tracer().span(...)``
    enter/exit plus (at most) one no-op metric touch when observability
    is disabled — that per-call cost is micro-benchmarked here, scaled by
    the number of spans one pipeline run actually opens (counted by
    running the pipeline once under a live tracer), and expressed as a
    fraction of the pipeline probe's wall time.  The probe **fails** (so
    CI fails) when that fraction reaches :data:`OBS_OVERHEAD_BUDGET`.

    The enabled-path slowdown is also measured, informationally — it is
    allowed to cost whatever tracing costs.  The exporter-live path (event
    bus + HTTP exposition server) adds one kind of work to the traced
    path: ``bus.emit`` calls.  Its gate counts them instead of timing two
    short runs against each other.  Under a live bus with the server
    attached, the kernel chain *pipeline_fn* must emit no event (nothing
    inside kernel loops), and one fast single-chip campaign exactly
    :data:`OBS_EVENTS_PER_STAGE` per stage plus
    :data:`OBS_EVENTS_PER_ATTEMPT` per acquisition attempt.  Those events
    times the micro-benchmarked cost of one emit, as a fraction of the
    chip's wall time, must stay within :data:`OBS_EXPORTER_BUDGET`.
    *noop_calls* sizes both micro-benchmarks (no-op span, live emit).
    """
    import urllib.request

    from repro.obs import ObsConfig, ObsSession, current_metrics, current_tracer
    from repro.obs.events import EventBus
    from repro.obs.export import ObsServer
    from repro.pipeline.config import PipelineConfig
    from repro.runtime.campaign import ChipJob, run_campaign

    # Disabled path: both singletons are no-ops here (nothing activated).
    tracer = current_tracer()
    metrics = current_metrics()
    t0 = time.perf_counter()
    for _ in range(noop_calls):
        with tracer.span("noop", kind="kernel"):
            pass
        metrics.counter("repro_noop_total").inc()
    noop_per_call = (time.perf_counter() - t0) / noop_calls

    # One live emit, with the field set of the engine's stage_finish.
    bus = EventBus(capacity=noop_calls)
    t0 = time.perf_counter()
    for _ in range(noop_calls):
        bus.emit(
            "stage_finish", chip="perf_obs", stage="align", disposition="run",
            seconds=0.0, payload_bytes=0,
        )
    emit_per_call = (time.perf_counter() - t0) / noop_calls

    with ObsSession(ObsConfig(trace=True, metrics=True)) as session:
        t0 = time.perf_counter()
        pipeline_fn()
        enabled_seconds = time.perf_counter() - t0
    span_count = len(session.spans())

    def _exporter_run(fn: Callable[[], Any]) -> tuple[float, list, list]:
        """Wall seconds, spans and bus events of ``fn()`` with the exporter
        live: event bus on and the HTTP exposition server attached, with
        one /metrics scrape before it closes."""
        with ObsSession(ObsConfig(trace=True, metrics=True, events=True)) as live:
            with ObsServer(
                port=0,
                metrics_fn=live.metrics_snapshot,
                spans_fn=live.spans,
                bus=live.bus,
            ) as server:
                t0 = time.perf_counter()
                fn()
                seconds = time.perf_counter() - t0
                with urllib.request.urlopen(server.url + "/metrics", timeout=10.0) as resp:
                    resp.read()
        return seconds, live.spans(), live.events()

    _, _, kernel_events = _exporter_run(pipeline_fn)
    job = ChipJob.synthetic("perf_obs", "classic", n_pairs=1, validate=False)
    fast = PipelineConfig(denoise_iterations=10, align_search_px=2, align_baselines=(1, 2))
    chip_seconds, chip_spans, chip_events = _exporter_run(
        lambda: run_campaign([job], config=fast, workers=1)
    )
    stages = sum(1 for span in chip_spans if span.kind == "stage")
    attempts = sum(1 for span in chip_spans if span.kind == "attempt")
    expected_events = OBS_EVENTS_PER_STAGE * stages + OBS_EVENTS_PER_ATTEMPT * attempts

    disabled_fraction = (
        span_count * noop_per_call / max(pipeline_seconds, 1e-9)
    )
    exporter_fraction = len(chip_events) * emit_per_call / max(chip_seconds, 1e-9)
    result = {
        "noop_ns_per_call": noop_per_call * 1e9,
        "spans_per_pipeline": span_count,
        "disabled_overhead_fraction": disabled_fraction,
        "enabled_seconds": enabled_seconds,
        "enabled_overhead_fraction": enabled_seconds / max(pipeline_seconds, 1e-9) - 1.0,
        "budget_fraction": OBS_OVERHEAD_BUDGET,
        "emit_ns_per_call": emit_per_call * 1e9,
        "events_per_pipeline": len(kernel_events),
        "events_per_chip": len(chip_events),
        "stages_per_chip": stages,
        "exporter_chip_seconds": chip_seconds,
        "exporter_overhead_fraction": exporter_fraction,
        "exporter_budget_fraction": OBS_EXPORTER_BUDGET,
    }
    if disabled_fraction >= OBS_OVERHEAD_BUDGET:
        raise ReproError(
            f"obs disabled-path overhead {disabled_fraction:.4%} exceeds "
            f"the {OBS_OVERHEAD_BUDGET:.0%} budget "
            f"({span_count} spans x {noop_per_call * 1e9:.0f} ns/call "
            f"vs {pipeline_seconds:.3f}s pipeline)"
        )
    if kernel_events:
        kinds = sorted({event.kind for event in kernel_events})
        raise ReproError(
            f"the kernel pipeline emitted {len(kernel_events)} bus event(s) "
            f"({', '.join(kinds)}); events belong to stage boundaries, not kernels"
        )
    if stages == 0 or len(chip_events) != expected_events:
        raise ReproError(
            f"a {stages}-stage, {attempts}-attempt chip emitted "
            f"{len(chip_events)} bus events, not the {expected_events} "
            f"({OBS_EVENTS_PER_STAGE} per stage, {OBS_EVENTS_PER_ATTEMPT} per attempt) "
            f"the exporter budget is counted in"
        )
    if exporter_fraction > OBS_EXPORTER_BUDGET:
        raise ReproError(
            f"obs exporter-live overhead "
            f"{exporter_fraction:.2%} exceeds the "
            f"{OBS_EXPORTER_BUDGET:.0%} budget ({len(chip_events)} events x "
            f"{emit_per_call * 1e9:.0f} ns/emit vs {chip_seconds:.3f}s chip)"
        )
    return result


def measure_shard_speedup(seed: int = 1234) -> dict[str, Any]:
    """The ``shard`` probe: one chip, serial vs slice-sharded wall time.

    Runs the same fast-preset single-chip campaign twice — ``workers=1``
    and then with ``ShardPlan(slices=True)`` over every usable core — and
    reports the wall-time ratio.  ``outputs_match`` re-checks the shard
    determinism contract at the byte level (``pickle.dumps`` equality of
    the recovered chips); ``speedup`` approaches the core count on wide
    machines and ~1.0 on a single-core box (the serial fallback).
    """
    import pickle

    from repro.pipeline.config import PipelineConfig, ShardPlan
    from repro.runtime import ChipJob, run_campaign, usable_cpus
    from repro.runtime.shard import shutdown_shard_pools

    cores = usable_cpus()
    job = ChipJob.synthetic("perf_shard", "classic", n_pairs=1, validate=False)
    config = PipelineConfig(
        denoise_iterations=10, align_search_px=2, align_baselines=(1, 2)
    )
    t0 = time.perf_counter()
    serial = run_campaign([job], config=config, workers=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    sharded = run_campaign(
        [job], config=config.replaced(shard=ShardPlan(slices=True)), workers=cores
    )
    sharded_s = time.perf_counter() - t0
    shutdown_shard_pools()
    return {
        "serial_seconds": serial_s,
        "sharded_seconds": sharded_s,
        "speedup": serial_s / max(sharded_s, 1e-9),
        "cores": cores,
        "shard_workers": cores,
        "outputs_match": pickle.dumps(serial.results()) == pickle.dumps(sharded.results()),
    }


def run_benchmarks(
    scale: str = "default",
    include_campaign: bool = True,
    seed: int = 1234,
) -> BenchReport:
    """Benchmark every rewritten kernel against its retained reference.

    Covers: bincount-MI ``align_pair``/``align_stack`` vs the
    ``histogram2d`` brute force, pooled-buffer ``chambolle_tv`` /
    ``split_bregman_tv`` vs the allocating solvers, vectorised
    ``multi_otsu`` vs the exhaustive search, the memoised
    ``contrast_lookup`` vs a fresh table build, an end-to-end pipeline
    chain, and (optionally) a one-chip fast-mode campaign wall-time probe.
    """
    from repro.imaging.sem import SemParameters, _build_contrast_table, contrast_lookup
    from repro.pipeline.denoise import (
        _reference_denoise_stack,
        chambolle_tv,
        denoise_stack,
        split_bregman_tv,
    )
    from repro.pipeline.register import (
        _reference_align_pair,
        _reference_align_stack,
        align_pair,
        align_stack,
    )
    from repro.pipeline.segment import _reference_multi_otsu, multi_otsu
    from repro.pipeline.stack import assemble_volume, planar_views

    if scale not in _SCALES:
        raise ReproError(f"unknown perf scale {scale!r} (expected one of {sorted(_SCALES)})")
    params = _SCALES[scale]
    slices, shape = params["slices"], tuple(params["shape"])
    stack_repeats, micro_repeats = params["stack_repeats"], params["micro_repeats"]
    stack = _synthetic_stack(slices, shape, seed=seed)
    slice_px = int(np.prod(shape))
    stack_px = slice_px * slices
    kernels: list[KernelBench] = []

    # --- registration -----------------------------------------------------
    pair_s, pair_out = _time(lambda: align_pair(stack[0], stack[1]), micro_repeats)
    pair_ref_s, pair_ref_out = _time(
        lambda: _reference_align_pair(stack[0], stack[1]), micro_repeats
    )
    kernels.append(KernelBench(
        "align_pair", 2 * slice_px, pair_s, pair_ref_s, pair_out == pair_ref_out,
    ))

    stack_s, (aligned, report) = _time(lambda: align_stack(stack), stack_repeats)
    stack_ref_s, (aligned_ref, report_ref) = _time(
        lambda: _reference_align_stack(stack), stack_repeats
    )
    kernels.append(KernelBench(
        "align_stack", stack_px, stack_s, stack_ref_s,
        report.corrections == report_ref.corrections
        and _stacks_equal(aligned, aligned_ref),
    ))

    # --- denoising --------------------------------------------------------
    ch_s, ch_out = _time(lambda: chambolle_tv(stack[0]), micro_repeats)
    kernels.append(KernelBench("chambolle_tv", slice_px, ch_s))
    sb_s, sb_out = _time(lambda: split_bregman_tv(stack[0]), micro_repeats)
    kernels.append(KernelBench("split_bregman_tv", slice_px, sb_s))

    for method in ("chambolle", "split_bregman"):
        fast_s, fast_out = _time(
            lambda m=method: denoise_stack(stack, method=m), stack_repeats
        )
        ref_s, ref_out = _time(
            lambda m=method: _reference_denoise_stack(stack, method=m), stack_repeats
        )
        kernels.append(KernelBench(
            f"denoise_stack[{method}]", stack_px, fast_s, ref_s,
            _stacks_equal(fast_out, ref_out),
        ))

    # --- segmentation -----------------------------------------------------
    rng = np.random.default_rng(seed + 1)
    otsu_shape = tuple(params["otsu_shape"])
    levels = rng.choice([0.1, 0.45, 0.8], size=otsu_shape)
    otsu_img = np.clip(levels + rng.normal(0.0, 0.06, otsu_shape), 0.0, 1.0)
    mo_s, mo_out = _time(lambda: multi_otsu(otsu_img, classes=3), micro_repeats)
    mo_ref_s, mo_ref_out = _time(
        lambda: _reference_multi_otsu(otsu_img, classes=3), micro_repeats
    )
    kernels.append(KernelBench(
        "multi_otsu[3]", int(np.prod(otsu_shape)), mo_s, mo_ref_s, mo_out == mo_ref_out,
    ))

    # --- SEM contrast table ----------------------------------------------
    sem = SemParameters()
    calls = 2000
    lut_s, lut_out = _time(
        lambda: [contrast_lookup(sem) for _ in range(calls)][-1], micro_repeats
    )
    lut_ref_s, lut_ref_out = _time(
        lambda: [_build_contrast_table(sem) for _ in range(calls)][-1], micro_repeats
    )
    kernels.append(KernelBench(
        f"contrast_lookup[x{calls}]", calls * lut_out.size, lut_s, lut_ref_s,
        bool(np.array_equal(lut_out, lut_ref_out)),
    ))

    # --- fault-injection clean-path overhead ------------------------------
    # The resilience layer must be free when unused: acquiring through an
    # inert (all-rates-zero) FaultInjector is timed against the plain
    # acquisition, and outputs_match re-checks the bit-identity contract.
    from repro.catalog.variants import ChipVariantSpec, build_region_spec
    from repro.faults import FaultInjector, FaultPlan
    from repro.imaging.fib import FibSemCampaign, acquire_stack
    from repro.imaging.voxel import voxelize
    from repro.layout.generator import generate_sa_region

    cell = generate_sa_region(build_region_spec(
        ChipVariantSpec(name="perf_faults", variant="classic", word_size=1)
    ))
    volume = voxelize(cell, voxel_nm=6.0, margin_nm=40.0)
    fib = FibSemCampaign()
    y_stop = 300.0 if scale == "tiny" else None
    inert_s, inert_stack = _time(
        lambda: acquire_stack(
            volume, fib, y_stop_nm=y_stop,
            injector=FaultInjector(FaultPlan(seed=seed)),
        ),
        micro_repeats,
    )
    clean_s, clean_stack = _time(
        lambda: acquire_stack(volume, fib, y_stop_nm=y_stop), micro_repeats
    )
    kernels.append(KernelBench(
        "acquire_stack[inert-faults]",
        sum(img.size for img in clean_stack.images),
        inert_s,
        clean_s,
        _stacks_equal(inert_stack.images, clean_stack.images)
        and inert_stack.true_drift_px == clean_stack.true_drift_px,
    ))

    # --- end-to-end pipeline chain ---------------------------------------
    def _pipeline() -> Any:
        denoised = denoise_stack(stack)
        aligned, _report = align_stack(denoised)
        volume = assemble_volume(aligned, pixel_nm=6.0, slice_thickness_nm=12.0)
        return planar_views(volume)

    pipe_s, views = _time(_pipeline, stack_repeats)
    pipeline = {
        "seconds": pipe_s,
        "pixels": stack_px,
        "ns_per_pixel": pipe_s / stack_px * 1e9,
        "layers": len(views),
    }

    # --- observability overhead ------------------------------------------
    obs = measure_obs_overhead(_pipeline, pipe_s)

    # --- campaign wall time ----------------------------------------------
    campaign: dict[str, Any] | None = None
    shard_probe: dict[str, Any] | None = None
    if include_campaign:
        from repro.pipeline.config import PipelineConfig
        from repro.runtime import ChipJob, run_campaign

        job = ChipJob.synthetic("perf_probe", "classic", n_pairs=1, validate=False)
        config = PipelineConfig(
            denoise_iterations=10, align_search_px=2, align_baselines=(1, 2)
        )
        t0 = time.perf_counter()
        run_campaign([job], config=config, workers=1)
        campaign = {
            "wall_seconds": time.perf_counter() - t0,
            "jobs": 1,
            "preset": "fast",
        }
        shard_probe = measure_shard_speedup(seed=seed)

    return BenchReport(
        scale=scale,
        workload={
            "slices": slices,
            "shape": list(shape),
            "otsu_shape": list(otsu_shape),
            "stack_repeats": stack_repeats,
            "micro_repeats": micro_repeats,
            "seed": seed,
        },
        kernels=kernels,
        pipeline=pipeline,
        campaign=campaign,
        obs=obs,
        shard=shard_probe,
        environment={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    )


# --- analog characterization probes --------------------------------------

#: Where ``python -m repro.perf --analog`` writes its record by default.
ANALOG_REPORT_PATH = "BENCH_analog.json"

#: acceptance floor on the batched-vs-scalar solver speedup at the
#: default scale (N=256 Monte-Carlo trials)
MIN_BATCHED_SPEEDUP = 5.0

_ANALOG_SCALES: dict[str, dict[str, Any]] = {
    # CI smoke: a handful of trials.  The device-vectorized assembly
    # makes the batched path faster even here (N=8: 0.20 s vs 1.15 s
    # scalar on a 2-CPU x86-64 box, 1 BLAS thread), but the margin at
    # small N is not what the floor is about, so tiny runs check only
    # bit-identity.
    "tiny": {"trials": 8, "yield_trials": 4, "sweep_trials": 3},
    # The recorded scale: the acceptance gate's N=256 batch.
    "default": {"trials": 256, "yield_trials": 12, "sweep_trials": 6},
}


def measure_batched_solver(scale: str = "default", seed: int = 1234) -> KernelBench:
    """The ``batched_transient`` probe: N activations in one stacked solve.

    Times :meth:`SenseAmpBench.run_batch` over N random latch mismatches
    against the retained scalar path (one :meth:`SenseAmpBench.run` per
    mismatch) and re-checks bit-identity of every recorded trace and
    every latched value (``outputs_match``).  ``pixels`` counts solver
    instance-timesteps, so ns/pixel stays comparable across N.
    """
    from repro.analog.sense_amp import SenseAmpBench

    params = _ANALOG_SCALES[scale]
    trials = params["trials"]
    rng = np.random.default_rng(seed)
    mismatches = [float(m) for m in rng.normal(0.0, 0.08, size=trials)]
    bench = SenseAmpBench()
    fast_s, fast_out = _time(lambda: bench.run_batch(1, mismatches), 1)
    ref_s, ref_out = _time(
        lambda: [bench.run(1, vt_mismatch=m) for m in mismatches], 1
    )
    match = all(
        f.data_sensed == r.data_sensed
        and np.array_equal(f.result.time_ns, r.result.time_ns)
        and all(
            np.array_equal(f.result.voltages[net], r.result.voltages[net])
            for net in f.result.voltages
        )
        for f, r in zip(fast_out, ref_out)
    )
    steps = len(fast_out[0].result.time_ns)
    return KernelBench(
        f"batched_transient[N={trials}]", trials * steps, fast_s, ref_s, match
    )


def measure_batched_yield(scale: str = "default", seed: int = 7) -> dict[str, Any]:
    """The ``sensing_yield`` probe: batched engine vs the scalar reference.

    Runs the same :class:`CharacterizationSpec` through the batched
    :func:`sensing_yield` and the retained
    :func:`_reference_sensing_yield` loop; the failure counts must agree
    exactly (the batched solver is bit-identical per instance, so any
    divergence is a real defect, not tolerance noise).
    """
    from repro.analog.montecarlo import _reference_sensing_yield, sensing_yield
    from repro.analog.spec import CharacterizationSpec
    from repro.circuits.topologies import SaTopology

    trials = _ANALOG_SCALES[scale]["yield_trials"]
    spec = CharacterizationSpec(trials=trials, sigma_mv=120.0, seed=seed)
    batched_s, batched = _time(
        lambda: sensing_yield(SaTopology.CLASSIC, spec=spec), 1
    )
    ref_s, reference = _time(
        lambda: _reference_sensing_yield(SaTopology.CLASSIC, spec=spec), 1
    )
    return {
        "trials": trials,
        "sigma_mv": spec.sigma_mv,
        "batched_seconds": batched_s,
        "reference_seconds": ref_s,
        "speedup": ref_s / max(batched_s, 1e-9),
        "batched_failures": batched.failures,
        "reference_failures": reference.failures,
        "failures_match": batched.failures == reference.failures,
    }


def measure_characterize_cache(scale: str = "default") -> dict[str, Any]:
    """The ``characterize`` probe: sweep wall time, cold vs stage-cached.

    Runs a classic+OCSA TT sweep twice against a throwaway cache
    directory; the warm re-run must satisfy every stage from the cache
    (``all_cached_on_rerun`` — the acceptance criterion that sweeps ride
    the campaign cache).
    """
    import tempfile

    from repro.analog.characterizer import characterize
    from repro.analog.spec import CharacterizationSpec

    spec = CharacterizationSpec(
        topologies=("classic", "ocsa"),
        corners=("TT",),
        trials=_ANALOG_SCALES[scale]["sweep_trials"],
        offset_scan_mv=(0.0, 100.0),
    )
    with tempfile.TemporaryDirectory(prefix="repro-perf-char-") as cache_dir:
        t0 = time.perf_counter()
        cold = characterize(spec, cache_dir=cache_dir, workers=1)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = characterize(spec, cache_dir=cache_dir, workers=1)
        warm_s = time.perf_counter() - t0
    return {
        "cells": len(cold.cells),
        "trials": spec.trials,
        "cold_wall_seconds": cold_s,
        "warm_wall_seconds": warm_s,
        "warm_cache_hits": warm.cache_hits,
        "warm_cache_misses": warm.cache_misses,
        "all_cached_on_rerun": (
            warm.cache_misses == 0 and warm.cache_hits > 0 and not warm.degraded
        ),
    }


def run_analog_benchmarks(scale: str = "default", seed: int = 1234) -> dict[str, Any]:
    """The analog perf suite, ready for ``BENCH_analog.json``."""
    if scale not in _ANALOG_SCALES:
        raise ReproError(
            f"unknown analog perf scale {scale!r} "
            f"(expected one of {sorted(_ANALOG_SCALES)})"
        )
    solver = measure_batched_solver(scale=scale, seed=seed)
    return {
        "schema": "repro-perf-analog/1",
        "created_unix": time.time(),
        "scale": scale,
        "solver": solver.as_dict(),
        "yield": measure_batched_yield(scale=scale),
        "sweep": measure_characterize_cache(scale=scale),
        "min_speedup_gate": MIN_BATCHED_SPEEDUP if scale == "default" else None,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


def analog_gate_failures(data: dict[str, Any]) -> list[str]:
    """The gates a recorded analog perf run must pass (empty = green).

    The speedup floor applies only at the default scale: the recorded
    number is the N=256 one, and tiny runs check bit-identity only.
    """
    failures: list[str] = []
    if data["solver"]["outputs_match"] is not True:
        failures.append("solver outputs_match")
    if not data["yield"]["failures_match"]:
        failures.append("yield failures_match")
    if not data["sweep"]["all_cached_on_rerun"]:
        failures.append("sweep cache-hit re-run")
    gate = data.get("min_speedup_gate")
    if gate is not None and (data["solver"]["speedup"] or 0.0) < gate:
        failures.append(
            f"solver speedup {data['solver']['speedup']:.2f}x < {gate:.0f}x"
        )
    return failures


def write_analog_report(
    data: dict[str, Any], path: str | Path = ANALOG_REPORT_PATH
) -> Path:
    """Serialise an analog perf run to JSON (the recorded artefact)."""
    target = Path(path)
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return target


def render_analog_report(data: dict[str, Any]) -> str:
    """Human-readable summary of one analog perf run."""
    solver = data["solver"]
    yld = data["yield"]
    sweep = data["sweep"]
    match = {True: "yes", False: "NO", None: "-"}
    lines = [
        f"analog perf ({data['scale']} scale)",
        f"  {solver['name']}: {solver['fast_seconds']:.2f}s batched vs "
        f"{solver['reference_seconds']:.2f}s scalar "
        f"({solver['speedup']:.2f}x), bit-identical: "
        f"{match[solver['outputs_match']]}",
        f"  sensing_yield[N={yld['trials']}]: {yld['batched_seconds']:.2f}s vs "
        f"{yld['reference_seconds']:.2f}s ({yld['speedup']:.2f}x), failures "
        f"{yld['batched_failures']} == {yld['reference_failures']}: "
        f"{match[yld['failures_match']]}",
        f"  characterize[{sweep['cells']} cells]: cold "
        f"{sweep['cold_wall_seconds']:.2f}s -> warm "
        f"{sweep['warm_wall_seconds']:.2f}s, re-run cache "
        f"{sweep['warm_cache_hits']} hit / {sweep['warm_cache_misses']} miss, "
        f"fully cached: {match[sweep['all_cached_on_rerun']]}",
    ]
    return "\n".join(lines)


# --- zero-copy data-plane probes ------------------------------------------

#: Where ``python -m repro.perf --dataplane`` writes its record by default.
DATAPLANE_REPORT_PATH = "BENCH_dataplane.json"

_DATAPLANE_SCALES: dict[str, dict[str, Any]] = {
    # CI smoke: the fast preset, still large enough that per-slice
    # payloads clear the 16 KiB shared-memory threshold.
    "tiny": {"n_pairs": 1, "denoise_iterations": 10, "cache_slices": 6,
             "cache_shape": (256, 128)},
    # The recorded scale: heavier denoise so serialization is a visible
    # fraction of the pool round-trip.
    "default": {"n_pairs": 1, "denoise_iterations": 25, "cache_slices": 24,
                "cache_shape": (512, 256)},
}


def _leaked_segments() -> int:
    """Count ``repro_dp_*`` segments still present under ``/dev/shm``."""
    from repro.runtime.dataplane import SEGMENT_PREFIX

    try:
        return sum(
            1 for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        )
    except OSError:
        return 0


def _measure_cache_hit(scale: str, seed: int) -> dict[str, Any]:
    """Warm-hit latency: mmap-backed sidecar entries vs classic pickles.

    Stores the same stack-of-arrays payload in two throwaway caches —
    one with ``.npy`` sidecars (``blob_min_bytes`` at its default), one
    with the classic single-pickle format (``blob_min_bytes=None``) —
    and times the warm ``load`` best-of-5.  ``outputs_match`` re-checks
    that the mmap-backed payload pickles byte-identically to the
    classic one (the cache's bit-identity contract).
    """
    import pickle
    import tempfile

    from repro.runtime.cache import StageCache

    params = _DATAPLANE_SCALES[scale]
    stack = _synthetic_stack(
        params["cache_slices"], tuple(params["cache_shape"]), seed=seed
    )
    payload = {"images": stack}
    notes = {"slices": float(len(stack))}
    payload_bytes = sum(img.nbytes for img in stack)
    key = "d" * 64
    with tempfile.TemporaryDirectory(prefix="repro-perf-dp-") as root:
        mmap_cache = StageCache(Path(root) / "mmap")
        plain_cache = StageCache(Path(root) / "plain", blob_min_bytes=None)
        mmap_cache.store(key, payload, notes)
        plain_cache.store(key, payload, notes)
        mmap_s, mmap_out = _time(lambda: mmap_cache.load(key), 5)
        plain_s, plain_out = _time(lambda: plain_cache.load(key), 5)
        outputs_match = pickle.dumps(mmap_out) == pickle.dumps(plain_out)
    return {
        "payload_bytes": payload_bytes,
        "slices": len(stack),
        "mmap_hit_seconds": mmap_s,
        "pickle_hit_seconds": plain_s,
        "speedup": plain_s / max(mmap_s, 1e-9),
        "outputs_match": outputs_match,
    }


def measure_dataplane(
    scale: str = "default", seed: int = 1234, shard_workers: int = 4
) -> dict[str, Any]:
    """The ``dataplane`` probe: shm vs pickle shard transport, plus RSS.

    Runs the same fast-preset single-chip campaign three times — serial
    (``workers=1``, no shard), slice-sharded over *shard_workers* on the
    **pickle** plane, and again on the **shm** plane — under
    :class:`repro.perf.rss.RssSampler`, then adds the warm cache-hit
    comparison from :func:`_measure_cache_hit`.

    The planes are compared at *equal* worker counts, so the shm-plane
    speedup isolates serialization cost, not parallel scaling.  Gates
    (:func:`dataplane_gate_failures`) are correctness-only: byte-level
    ``outputs_match`` across all three runs, the cache round-trip, and
    zero leaked ``/dev/shm`` segments.  The speedup and RSS numbers are
    the recorded trajectory.

    On a box with fewer than two usable CPUs the probe **abstains** from
    the plane comparison: a process pool multiplexed onto one core
    measures scheduler contention, not transport cost, so any
    shm-vs-pickle ratio it produced would be noise.  The record says so
    explicitly (``abstained``/``abstain_reason``), carries the serial
    run and the (single-threaded, still meaningful) warm cache-hit
    comparison, and sets both plane records and ``outputs_match`` to
    ``None``; gates skip the plane checks.
    """
    import pickle
    from dataclasses import replace as dc_replace

    from repro.pipeline.config import PipelineConfig, ShardPlan
    from repro.runtime import ChipJob, run_campaign
    from repro.runtime.dataplane import DEFAULT_MIN_BYTES, available
    from repro.runtime.shard import shutdown_shard_pools

    if scale not in _DATAPLANE_SCALES:
        raise ReproError(
            f"unknown dataplane perf scale {scale!r} "
            f"(expected one of {sorted(_DATAPLANE_SCALES)})"
        )
    from repro.perf.rss import RssSampler

    params = _DATAPLANE_SCALES[scale]
    job = ChipJob.synthetic(
        "perf_dataplane", "classic", n_pairs=params["n_pairs"], validate=False
    )
    config = PipelineConfig(
        denoise_iterations=params["denoise_iterations"],
        align_search_px=2,
        align_baselines=(1, 2),
    )
    shard = ShardPlan(slices=True, workers=shard_workers)

    def _run(plan_config: PipelineConfig, workers: int) -> dict[str, Any]:
        shutdown_shard_pools()
        with RssSampler() as rss:
            t0 = time.perf_counter()
            report = run_campaign([job], config=plan_config, workers=workers)
            wall = time.perf_counter() - t0
        shutdown_shard_pools()
        return {
            "wall_seconds": wall,
            "peak_rss_bytes": rss.peak_bytes,
            "blob": pickle.dumps(report.results()),
        }

    from repro.runtime import usable_cpus

    cores = usable_cpus()
    abstained = cores < 2

    serial = _run(config, workers=1)
    record: dict[str, Any] = {
        "schema": "repro-perf-dataplane/1",
        "created_unix": time.time(),
        "scale": scale,
        "shard_workers": shard_workers,
        "usable_cpus": cores,
        "abstained": abstained,
        "abstain_reason": (
            f"usable_cpus()={cores} < 2: a pool multiplexed onto one core "
            "measures scheduler contention, not transport cost — plane "
            "comparison skipped, serial + cache numbers recorded"
            if abstained else None
        ),
        "shm_available": available(),
        "shm_min_bytes": DEFAULT_MIN_BYTES,
        "serial": {
            "wall_seconds": serial["wall_seconds"],
            "peak_rss_bytes": serial["peak_rss_bytes"],
        },
        "cache": _measure_cache_hit(scale, seed),
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    if abstained:
        record.update({
            "pickle_plane": None,
            "shm_plane": None,
            "outputs_match": None,
            "leaked_segments": _leaked_segments(),
        })
        return record

    pickle_plane = _run(
        config.replaced(shard=dc_replace(shard, data_plane="pickle")),
        workers=shard_workers,
    )
    shm_plane = _run(
        config.replaced(shard=dc_replace(shard, data_plane="shm")),
        workers=shard_workers,
    )

    def _plane(run: dict[str, Any]) -> dict[str, Any]:
        return {
            "wall_seconds": run["wall_seconds"],
            "peak_rss_bytes": run["peak_rss_bytes"],
            "speedup_vs_serial": serial["wall_seconds"] / max(run["wall_seconds"], 1e-9),
        }

    shm_record = _plane(shm_plane)
    shm_record["speedup_vs_pickle_plane"] = (
        pickle_plane["wall_seconds"] / max(shm_plane["wall_seconds"], 1e-9)
    )
    shm_record["peak_rss_delta_bytes"] = (
        shm_plane["peak_rss_bytes"] - pickle_plane["peak_rss_bytes"]
    )
    record.update({
        "pickle_plane": _plane(pickle_plane),
        "shm_plane": shm_record,
        "outputs_match": (
            serial["blob"] == pickle_plane["blob"]
            and serial["blob"] == shm_plane["blob"]
        ),
        "leaked_segments": _leaked_segments(),
    })
    return record


def dataplane_gate_failures(
    data: dict[str, Any], rss_ceiling_mb: float | None = None
) -> list[str]:
    """The gates a recorded dataplane run must pass (empty = green).

    Correctness gates only — bit-identity across planes, the cache
    round-trip, and segment hygiene.  Wall-time and RSS are recorded,
    not gated (the probe runs on whatever box CI gives it); CI may pass
    an explicit *rss_ceiling_mb* to also bound the shm-plane footprint.
    An *abstained* record (single-CPU box — see :func:`measure_dataplane`)
    has no plane runs, so only the cache and segment gates apply.
    """
    failures: list[str] = []
    abstained = data.get("abstained", False)
    if not abstained and data["outputs_match"] is not True:
        failures.append("campaign outputs_match across planes")
    if data["cache"]["outputs_match"] is not True:
        failures.append("cache mmap-vs-pickle outputs_match")
    if data["leaked_segments"]:
        failures.append(f"{data['leaked_segments']} leaked /dev/shm segments")
    if rss_ceiling_mb is not None and not abstained:
        peak_mb = data["shm_plane"]["peak_rss_bytes"] / (1024 * 1024)
        if peak_mb > rss_ceiling_mb:
            failures.append(
                f"shm-plane peak RSS {peak_mb:.0f} MiB > {rss_ceiling_mb:.0f} MiB ceiling"
            )
    return failures


def write_dataplane_report(
    data: dict[str, Any], path: str | Path = DATAPLANE_REPORT_PATH
) -> Path:
    """Serialise a dataplane perf run to JSON (the recorded artefact)."""
    target = Path(path)
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return target


def render_dataplane_report(data: dict[str, Any]) -> str:
    """Human-readable summary of one dataplane perf run."""
    match = {True: "yes", False: "NO", None: "-"}
    mib = 1024 * 1024
    cache = data["cache"]
    lines = [
        f"dataplane perf ({data['scale']} scale, "
        f"{data['shard_workers']} shard workers, shm available: "
        f"{match[data['shm_available']]})",
        f"  serial:       {data['serial']['wall_seconds']:.2f}s, peak RSS "
        f"{data['serial']['peak_rss_bytes'] / mib:.0f} MiB",
    ]
    if data.get("abstained"):
        lines.append(f"  planes:       abstained — {data['abstain_reason']}")
    else:
        shm = data["shm_plane"]
        pkl = data["pickle_plane"]
        lines += [
            f"  pickle plane: {pkl['wall_seconds']:.2f}s "
            f"({pkl['speedup_vs_serial']:.2f}x vs serial), peak RSS "
            f"{pkl['peak_rss_bytes'] / mib:.0f} MiB",
            f"  shm plane:    {shm['wall_seconds']:.2f}s "
            f"({shm['speedup_vs_serial']:.2f}x vs serial, "
            f"{shm['speedup_vs_pickle_plane']:.2f}x vs pickle plane), peak RSS "
            f"{shm['peak_rss_bytes'] / mib:.0f} MiB "
            f"({shm['peak_rss_delta_bytes'] / mib:+.0f} MiB vs pickle plane)",
        ]
    lines += [
        f"  cache hit [{cache['payload_bytes'] / mib:.1f} MiB]: mmap "
        f"{cache['mmap_hit_seconds'] * 1e3:.1f} ms vs pickle "
        f"{cache['pickle_hit_seconds'] * 1e3:.1f} ms "
        f"({cache['speedup']:.2f}x), bit-identical: "
        f"{match[cache['outputs_match']]}",
        f"  outputs match across planes: {match[data['outputs_match']]}, "
        f"leaked segments: {data['leaked_segments']}",
    ]
    return "\n".join(lines)


def write_report(report: BenchReport, path: str | Path = DEFAULT_REPORT_PATH) -> Path:
    """Serialise a perf run to JSON (the recorded trajectory artefact)."""
    target = Path(path)
    target.write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    return target


def render_report(report: BenchReport) -> str:
    """Human-readable table of one perf run."""
    from repro.core.report import render_table

    rows = []
    for k in report.kernels:
        rows.append([
            k.name,
            f"{k.ns_per_pixel:.1f}",
            f"{k.reference_seconds / max(k.pixels, 1) * 1e9:.1f}" if k.reference_seconds else "-",
            f"{k.speedup:.2f}x" if k.speedup else "-",
            {True: "yes", False: "NO", None: "-"}[k.outputs_match],
        ])
    body = render_table(
        ["kernel", "ns/px", "ref ns/px", "speedup", "match"],
        rows,
        title=f"pipeline kernels ({report.scale} scale)",
    )
    lines = [body, f"\nend-to-end pipeline: {report.pipeline['seconds']:.3f}s "
                   f"({report.pipeline['ns_per_pixel']:.1f} ns/px)"]
    if report.obs is not None:
        lines.append(
            f"obs overhead: disabled "
            f"{report.obs['disabled_overhead_fraction']:.5%} of pipeline "
            f"(budget {report.obs['budget_fraction']:.0%}; "
            f"{report.obs['spans_per_pipeline']} spans at "
            f"{report.obs['noop_ns_per_call']:.0f} ns no-op), enabled "
            f"{report.obs['enabled_overhead_fraction']:+.2%}"
        )
        if "exporter_overhead_fraction" in report.obs:
            lines.append(
                f"obs exporter live: "
                f"{report.obs['exporter_overhead_fraction']:+.4%} of a traced chip "
                f"({report.obs['events_per_chip']} events over "
                f"{report.obs['stages_per_chip']} stages at "
                f"{report.obs['emit_ns_per_call']:.0f} ns/emit; budget "
                f"{report.obs['exporter_budget_fraction']:.0%})"
            )
    if report.campaign is not None:
        lines.append(f"campaign probe ({report.campaign['preset']}): "
                     f"{report.campaign['wall_seconds']:.2f}s wall")
    if report.shard is not None:
        match = "yes" if report.shard["outputs_match"] else "NO"
        lines.append(
            f"shard probe: {report.shard['serial_seconds']:.2f}s serial -> "
            f"{report.shard['sharded_seconds']:.2f}s sharded "
            f"({report.shard['speedup']:.2f}x on {report.shard['cores']} "
            f"cores), outputs match: {match}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Catalog suite: population-campaign throughput (``--catalog``).

CATALOG_REPORT_PATH = "BENCH_catalog.json"

_CATALOG_SCALES: dict[str, dict[str, Any]] = {
    # CI smoke: one chip per topology family, cropped to the first lane.
    "tiny": {"variants": 2, "workers": 2},
    # The recorded scale: both families across all three vendor profiles.
    "default": {"variants": 6, "workers": 2},
}


def measure_catalog(
    scale: str = "default", seed: int = 0, workers: int | None = None
) -> dict[str, Any]:
    """The ``catalog`` probe: variants/sec through the population campaign.

    Enumerates a small grid (classic + OCSA across the vendor profiles,
    word size 1, first-lane crop), runs it cold against a throwaway
    cache, then warm (same cache — every stage must hit), then serial
    (``workers=1``, same cache).  Gates
    (:func:`catalog_gate_failures`) are correctness-only: the results
    digest must be identical across all three runs (the substrate's
    bit-identity contract surfaced at the population level) and the warm
    run must not miss the cache.  Throughput (``variants_per_second``)
    is the recorded trajectory, not a gate.
    """
    import tempfile

    from repro.catalog import CatalogSpec, expand_grid, run_catalog_campaign

    if scale not in _CATALOG_SCALES:
        raise ReproError(
            f"unknown catalog perf scale {scale!r} "
            f"(expected one of {sorted(_CATALOG_SCALES)})"
        )
    params = _CATALOG_SCALES[scale]
    n = params["variants"]
    workers = workers if workers is not None else params["workers"]
    grid = CatalogSpec(
        variants=("classic", "ocsa"),
        vendors=("fab-a", "fab-b", "fab-c"),
        generations=("ddr4",),
        word_sizes=(1,),
        column_muxes=(4,),
        body_taps=("none",),
        noises=("nominal",),
    )
    variants = expand_grid(grid)[:n]
    # Crop to the first lane: the probe measures campaign plumbing, not
    # full-region RE; 400 nm covers lane 0 at every profile's pitch.
    job_kwargs = {"y_stop_nm": 400.0}

    def _run(run_workers: int, cache_dir: str):
        t0 = time.perf_counter()
        report = run_catalog_campaign(
            variants, workers=run_workers, cache_dir=cache_dir,
            seed=seed, job_kwargs=job_kwargs,
        )
        return report, time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="repro-perf-catalog-") as root:
        cold, cold_s = _run(workers, root)
        warm, warm_s = _run(workers, root)
        serial, _serial_s = _run(1, root)

    return {
        "schema": "repro-perf-catalog/1",
        "created_unix": time.time(),
        "scale": scale,
        "variants": len(variants),
        "workers": workers,
        "cold_wall_seconds": cold_s,
        "warm_wall_seconds": warm_s,
        "cold_variants_per_second": len(variants) / max(cold_s, 1e-9),
        "warm_variants_per_second": len(variants) / max(warm_s, 1e-9),
        "identification_rate": cold.population["identification_rate"],
        "results_digest": cold.results_digest(),
        "digests_match": (
            cold.results_digest() == warm.results_digest()
            and cold.results_digest() == serial.results_digest()
        ),
        "warm_cache_misses": warm.cache_misses,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


def catalog_gate_failures(data: dict[str, Any]) -> list[str]:
    """The gates a recorded catalog run must pass (empty = green)."""
    failures: list[str] = []
    if data["digests_match"] is not True:
        failures.append("results digest differs across cold/warm/serial runs")
    if data["warm_cache_misses"]:
        failures.append(
            f"warm run missed the stage cache {data['warm_cache_misses']} times"
        )
    return failures


def write_catalog_report(
    data: dict[str, Any], path: str | Path = CATALOG_REPORT_PATH
) -> Path:
    """Serialise a catalog perf run to JSON (the recorded artefact)."""
    target = Path(path)
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return target


def render_catalog_report(data: dict[str, Any]) -> str:
    """Human-readable summary of one catalog perf run."""
    match = {True: "yes", False: "NO", None: "-"}
    return "\n".join([
        f"catalog perf ({data['scale']} scale, {data['variants']} variants, "
        f"{data['workers']} workers)",
        f"  cold: {data['cold_wall_seconds']:.2f}s "
        f"({data['cold_variants_per_second']:.2f} variants/s)",
        f"  warm: {data['warm_wall_seconds']:.2f}s "
        f"({data['warm_variants_per_second']:.2f} variants/s, "
        f"{data['warm_cache_misses']} cache misses)",
        f"  identification rate: {data['identification_rate']:.1%}, digests "
        f"match cold/warm/serial: {match[data['digests_match']]}",
    ])
