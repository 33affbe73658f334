"""The traced drivers: each layer's public function, called in engine order.

Each function here replays one unit of a workload the way
``repro.runtime.engine`` chains it, but calls every layer's public
function itself, inside a ``layer`` span of the benchmark's
:class:`~bench.spans.SpanRecorder`.  The workloads compare what these
drivers return with the untraced public call on the same input, so the
traced run is shown to measure the same program.

Two deliberate differences from the engine, both execution-only:

* the engine fuses acquire and denoise into one pool trip when slices are
  sharded (chip-default); here ``acquire_stack`` and ``denoise_stack``
  each get the shard plan and make their own trip, so on chip-default
  ``engine.overhead_s`` also absorbs what the fusion saves;
* a cache load here reads every array it maps, where the engine touches
  only the pages reveng uses, so ``cache.load_s`` counts the bytes a
  load delivers rather than the pages that happen to be faulted in.
"""

from __future__ import annotations

import numpy as np

from repro.analog.metrics import sensing_latency_ns
from repro.analog.montecarlo import sensing_yield
from repro.analog.sense_amp import SenseAmpBench
from repro.errors import AnalogError
from repro.imaging.fib import acquire_stack
from repro.imaging.voxel import voxelize
from repro.layout.generator import generate_sa_region
from repro.pipeline.denoise import denoise_stack
from repro.pipeline.register import align_stack
from repro.pipeline.stack import assemble_volume, planar_views
from repro.reveng.connectivity import extract_circuit
from repro.reveng.features import PlanarFeatures
from repro.reveng.workflow import finish_extraction
from repro.runtime.engine import build_stage_chain, chain_keys

from bench.spans import SpanRecorder


def stage_keys(job, config) -> list[str]:
    """The engine's cache key of every stage of *job* under *config*."""
    return chain_keys(build_stage_chain(job, config))


def chip(rec: SpanRecorder, job, config, cache=None):
    """Image and reverse engineer one chip; store each output when *cache* is set."""
    keys: list[str] = []

    def store(index: int, payload: dict) -> None:
        if cache is not None:
            with rec.span("cache.store", "layer") as span:
                keys[:] = keys or stage_keys(job, config)
                span.args["store_bytes"] = cache.store(keys[index], payload, {})

    with rec.span("layout", "layer"):
        cell = generate_sa_region(job.spec)
    store(0, {"cell": cell})
    with rec.span("voxel", "layer"):
        volume = voxelize(cell, voxel_nm=job.voxel_nm, margin_nm=job.margin_nm)
    store(1, {"volume": volume})
    with rec.span("fib", "layer") as span:
        stack = acquire_stack(
            volume, job.campaign,
            y_start_nm=job.y_start_nm, y_stop_nm=job.y_stop_nm,
            x_start_nm=job.x_start_nm, x_stop_nm=job.x_stop_nm,
            shard=config.shard,
        )
    span.args["fib_px"] = sum(int(img.size) for img in stack.images)
    store(2, {"stack": stack})
    with rec.span("denoise", "layer") as span:
        denoised = denoise_stack(
            stack.images, workers=config.chunk_workers, shard=config.shard,
            **config.denoise_kwargs(),
        )
    span.args["denoise_px"] = sum(int(img.size) for img in denoised)
    store(3, {"denoised": denoised})
    with rec.span("register", "layer") as span:
        aligned, report = align_stack(
            denoised, true_drift_px=stack.true_drift_px,
            workers=config.chunk_workers, **config.align_kwargs(),
        )
    window = (2 * config.align_search_px + 1) ** 2
    span.args["candidates"] = sum(
        max(0, len(denoised) - b) * window for b in config.align_baselines
    )
    store(4, {"aligned": aligned})
    with rec.span("stack", "layer"):
        origin_x_nm = volume.origin_x_nm + stack.x_offset_nm
        assembled = assemble_volume(
            aligned, pixel_nm=stack.pixel_nm,
            slice_thickness_nm=stack.slice_thickness_nm,
            origin_x_nm=origin_x_nm, origin_y_nm=volume.origin_y_nm,
        )
        views = planar_views(assembled)
    meta = {
        "pixel_nm": stack.pixel_nm,
        "sem": stack.sem,
        "origin_x_nm": origin_x_nm,
        "origin_y_nm": volume.origin_y_nm,
    }
    notes_base = {
        "alignment_max_residual_px": float(report.max_residual_px()),
        "alignment_residual_fraction": (
            report.residual_fraction(denoised[0].shape[0]) if denoised else 0.0
        ),
        "slices": float(len(stack)),
        "beam_time_hours": stack.beam_time_hours(),
    }
    store(5, {"views": views, "view_meta": meta, "notes_base": notes_base})
    result = reveng(rec, job, config, views, meta, notes_base, cell)
    store(6, {"result": result})
    return result


def reveng(rec: SpanRecorder, job, config, views, meta, notes_base, cell):
    """Segment, trace and identify a chip from its planar views."""
    with rec.span("features", "layer"):
        features = PlanarFeatures.from_views(
            views, pixel_nm=meta["pixel_nm"], sem=meta["sem"],
            origin_x_nm=meta["origin_x_nm"], origin_y_nm=meta["origin_y_nm"],
            tolerance=config.segment_tolerance,
        )
    with rec.span("connectivity", "layer"):
        extracted = extract_circuit(features, name=f"{job.name}_re")
    with rec.span("workflow", "layer"):
        return finish_extraction(
            extracted, cell if job.validate else None, pipeline_notes=dict(notes_base)
        )


def _read_arrays(obj, seen: set[int]) -> int:
    """Read every ndarray reachable from *obj* in full; returns bytes read."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            return sum(_read_arrays(v, seen) for v in obj.ravel())
        np.bitwise_xor.reduce(obj.reshape(-1).view(np.uint8))
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(_read_arrays(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_read_arrays(v, seen) for v in obj)
    state = getattr(obj, "__dict__", None)
    if isinstance(state, dict):
        return _read_arrays(state, seen)
    return 0


def rescore(rec: SpanRecorder, job, config, cache):
    """Re-run reveng on a chip whose upstream stages are in *cache*."""
    ctx: dict = {}
    with rec.span("cache.load", "layer") as span:
        keys = stage_keys(job, config)
        loaded = 0
        for key in keys[:-1]:
            entry = cache.load(key)
            if entry is None:
                raise RuntimeError(f"stage entry {key[:12]} of {job.name} is not cached")
            loaded += _read_arrays(entry[0], set())
            ctx.update(entry[0])
        span.args["load_bytes"] = loaded
    result = reveng(
        rec, job, config, ctx["views"], ctx["view_meta"], ctx["notes_base"], ctx["cell"]
    )
    with rec.span("cache.store", "layer") as span:
        span.args["store_bytes"] = cache.store(keys[-1], {"result": result}, {})
    return result


def characterize_cell(rec: SpanRecorder, spec, topology, corner):
    """One characterization cell: nominal run and ladders, then Monte Carlo.

    Returns the nominal sensing latency (NaN when the bitlines never
    separate) and the Monte-Carlo :class:`YieldResult`.
    """
    with rec.span("sense_amp.nominal", "layer") as span:
        bench = SenseAmpBench(spec.bench_config(topology, corner))
        outcome = bench.run_batch(
            spec.data, [0.0], dt_ns=spec.dt_ns, max_newton=spec.max_newton
        )[0]
        scan = [mv / 1000.0 for mv in spec.offset_scan_mv]
        for data in (0, 1):
            bench.run_batch(data, scan, dt_ns=spec.dt_ns, max_newton=spec.max_newton)
        try:
            latency = float(sensing_latency_ns(outcome))
        except AnalogError:
            latency = float("nan")
    steps = len(outcome.result.time_ns) - 1
    span.args["inst_steps"] = (1 + 2 * len(scan)) * steps
    with rec.span("sense_amp.mc", "layer") as span:
        sense_yield = sensing_yield(topology, spec=spec)
    span.args["inst_steps"] = spec.trials * steps
    return latency, sense_yield
