"""The per-chip stage-graph executor.

One chip's imaging → pipeline → reverse-engineering campaign is a linear
chain of content-addressed stages::

    layout → voxelize → [roi] → acquire → denoise → align → assemble → reveng

Each stage declares a version (bump it when its implementation changes
behaviour), a parameter token (hashed together with the parent stage's key
— see :mod:`repro.runtime.hashing`) and a run function that reads earlier
artefacts from a context dict and returns ``(payload, notes)``.  A stage
also declares ``reads``: the earlier stages whose payload its run reads.
The executor plans back from the final stage: a stage that is needed is
*loaded* from the :class:`~repro.runtime.cache.StageCache` when its key
is there and *runs* otherwise, and only a stage that runs needs what it
reads.  Every other stage is *skipped* — not even its cache entry is read:

* warm re-run (nothing changed): the final ``reveng`` entry hits, the
  :class:`ReversedChip` is loaded, and every upstream stage is skipped;
* changed segmentation parameters: only ``reveng`` re-executes, and it
  loads just the ``assemble`` entry (plus ``layout`` when it validates);
  the volume and the three slice stacks stay on disk;
* changed acquisition parameters: the chain re-executes from ``acquire``,
  loading ``voxelize`` (and ``roi``) for it.

Every stage — executed, loaded or skipped — contributes a
:class:`StageMetrics` record (wall seconds, cache disposition, payload
bytes, stage notes) to the chip's run result.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    AcquisitionError,
    AlignmentBudgetExceeded,
    CampaignError,
    JobCancelledError,
    StageTimeoutError,
)
from repro.faults import FaultInjector
from repro.imaging.fib import FusedSliceWork, acquire_stack
from repro.obs import bind, current_events, current_metrics, current_tracer, get_logger
from repro.imaging.roi import identify_roi
from repro.imaging.voxel import voxelize
from repro.layout.generator import generate_chip_layout, generate_sa_region
from repro.pipeline.config import (
    AlignStage,
    AssembleStage,
    DenoiseStage,
    PipelineConfig,
    PlanarViewStage,
    SegmentStage,
)
from repro.pipeline.stack import QcThresholds, qc_stack
from repro.reveng.connectivity import extract_circuit
from repro.reveng.workflow import ReversedChip, finish_extraction
from repro.runtime.cache import StageCache
from repro.runtime.hashing import canonicalize, chain_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.runtime.campaign import ChipJob

logger = get_logger("repro.runtime.engine")

#: Stage implementation versions.  Bumping one invalidates that stage's
#: cache entries *and* (through key chaining) everything downstream of it.
#: All bumped 1 → 2 together with the type-prefixed cache-key encoding
#: (see :mod:`repro.runtime.hashing`) so entries written under the old,
#: collision-prone key scheme miss cleanly instead of aliasing; acquire's
#: bump also covers its counter-based per-slice RNG rework
#: (:mod:`repro.imaging.fib`), which changes the acquired bits.  denoise
#: 2 → 3: float32 slices are denoised in float32 (:mod:`repro.pipeline.denoise`),
#: which moves output bits by an ulp or so, so float64-era entries must miss.
#: ``char_nominal`` and ``char_mc`` are the analog characterizer's stages
#: (:mod:`repro.analog.characterizer`); they live here too, so the table a
#: data bundle records does not depend on which modules were imported.
STAGE_VERSIONS: dict[str, str] = {
    "layout": "2",
    "voxelize": "2",
    "roi": "2",
    "acquire": "2",
    "denoise": "3",
    "align": "2",
    "assemble": "2",
    "reveng": "2",
    "char_nominal": "1",
    "char_mc": "1",
}


@dataclass(frozen=True)
class ResiliencePolicy:
    """Campaign-level resilience knobs.

    ``max_retries`` bounds re-acquisitions for a stack that fails QC
    (each retry re-runs the whole acquisition with the fault RNG advanced
    to the next attempt — clean content identical, faults re-rolled).
    ``chip_timeout_s`` is a cooperative per-chip deadline checked between
    stages; a chip that blows it raises :class:`StageTimeoutError` and is
    quarantined by the campaign.  ``qc`` gates acquired slices; QC runs
    when the chip has an active fault plan or when ``force_qc`` is set,
    so the clean path's cache keys (and its cost) stay untouched by
    default.  ``max_residual_fraction`` optionally gates the alignment
    stage on the §IV-C residual budget.
    """

    max_retries: int = 2
    chip_timeout_s: float | None = None
    qc: QcThresholds = field(default_factory=QcThresholds)
    force_qc: bool = False
    max_residual_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise CampaignError("max_retries must be >= 0")
        if self.chip_timeout_s is not None and self.chip_timeout_s <= 0:
            raise CampaignError("chip_timeout_s must be positive (or None)")

    def qc_engaged(self, job: "ChipJob") -> bool:
        """Whether acquisitions of *job* go through the QC/retry gate."""
        return self.force_qc or (job.fault_plan is not None and job.fault_plan.active)


@dataclass
class StageMetrics:
    """Instrumentation for one stage of one chip's run."""

    stage: str
    seconds: float
    cache_hit: bool
    skipped: bool  #: read by no stage that ran; its entry was never loaded
    payload_bytes: int
    notes: dict[str, float] = field(default_factory=dict)

    @property
    def disposition(self) -> str:
        if self.skipped:
            return "skip"
        return "hit" if self.cache_hit else "run"


@dataclass(frozen=True)
class _StageDef:
    name: str
    params: Any
    run: Callable[[dict[str, Any]], tuple[dict[str, Any], dict[str, float]]]
    #: names of the earlier stages whose payload ``run`` reads; ``None``
    #: means every earlier stage.  Execution only: not part of the key.
    reads: tuple[str, ...] | None = None

    @property
    def version(self) -> str:
        return STAGE_VERSIONS[self.name]


def build_stage_chain(
    job: "ChipJob",
    config: PipelineConfig,
    policy: ResiliencePolicy | None = None,
) -> list[_StageDef]:
    """The content-addressed stage chain for one chip job.

    With a fault plan on the job (or ``policy.force_qc``), the acquire
    stage wraps the acquisition in the QC → retry loop and its cache
    params grow the fault/QC tokens; without one the chain is exactly the
    clean chain of earlier releases, so existing caches stay valid.

    Jobs that define their own ``build_stages(config, policy)`` (e.g.
    :class:`repro.analog.characterizer.CharacterizationJob`) supply their
    chain directly; the imaging chain below is the default for plain
    :class:`~repro.runtime.campaign.ChipJob` instances.
    """
    policy = policy or ResiliencePolicy()
    builder = getattr(job, "build_stages", None)
    if builder is not None:
        return builder(config, policy)

    def run_layout(ctx: dict) -> tuple[dict, dict[str, float]]:
        if job.mat_rows is not None:
            cell = generate_chip_layout(job.spec, mat_rows=job.mat_rows)
        else:
            cell = generate_sa_region(job.spec)
        return {"cell": cell}, {"n_pairs": float(job.spec.n_pairs)}

    def run_voxelize(ctx: dict) -> tuple[dict, dict[str, float]]:
        volume = voxelize(ctx["cell"], voxel_nm=job.voxel_nm, margin_nm=job.margin_nm)
        return {"volume": volume}, {
            "voxels": float(volume.data.size),
            "array_bytes": float(volume.data.nbytes),
        }

    def run_roi(ctx: dict) -> tuple[dict, dict[str, float]]:
        roi = identify_roi(ctx["volume"], probe_step_nm=job.roi_probe_step_nm)
        margin = job.roi_margin_nm or 0.0
        return (
            {"x_start_nm": roi.roi[0] + margin, "x_stop_nm": roi.roi[1] - margin},
            {
                "probes": float(roi.probe_count),
                "roi_width_nm": float(roi.roi_width_nm),
                "machine_hours": float(roi.estimated_hours),
            },
        )

    def run_acquire(ctx: dict) -> tuple[dict, dict[str, float]]:
        plan = job.fault_plan
        engaged = policy.qc_engaged(job)
        attempt = 0
        events = []
        tracer = current_tracer()
        metrics = current_metrics()
        bus = current_events()
        # Stage fusion: when the sharded imaging path will run anyway
        # (shard engaged, no active fault plan forcing serial), the same
        # pool trip also computes the denoised slices — and the QC
        # metric filter pass when the gate is engaged — so each slice
        # crosses the pool boundary once.  The fused results ride the
        # FusedSliceWork side channel and the ctx (never the acquire
        # cache entry: acquire's key knows nothing about denoise
        # parameters, so caching them there would poison the cache).
        fuse_wanted = (
            config.shard.slices
            and config.shard.fuse
            and config.shard.resolved_workers > 1
            and (plan is None or not plan.active)
        )
        fuse = None
        while True:
            bus.emit("attempt_start", chip=job.name, attempt=attempt)
            with tracer.span(
                f"attempt {attempt}", kind="attempt", attempt=attempt
            ) as att_span, bind(attempt=attempt):
                injector = None
                if plan is not None and plan.active:
                    injector = FaultInjector(plan, attempt=attempt)
                fuse = None
                if fuse_wanted:
                    dk = config.denoise_kwargs()
                    fuse = FusedSliceWork(
                        denoise={
                            "method": dk.pop("method"),
                            "weight": dk.pop("weight"),
                            "kwargs": dk,
                        },
                        qc=engaged,
                    )
                stack = acquire_stack(
                    ctx["volume"],
                    job.campaign,
                    y_start_nm=job.y_start_nm,
                    y_stop_nm=job.y_stop_nm,
                    x_start_nm=ctx.get("x_start_nm", job.x_start_nm),
                    x_stop_nm=ctx.get("x_stop_nm", job.x_stop_nm),
                    injector=injector,
                    shard=config.shard,
                    fuse=fuse,
                )
                events.extend(stack.fault_events)
                att_span.set(slices=len(stack), faults=len(stack.fault_events))
                if not engaged:
                    bus.emit(
                        "attempt_finish", chip=job.name, attempt=attempt,
                        slices=len(stack),
                    )
                    break
                qc = qc_stack(stack.images, policy.qc,
                              true_drift_px=stack.true_drift_px, shard=config.shard,
                              precomputed=fuse.qc_metrics if fuse is not None else None)
                if fuse is not None and fuse.qc_metrics is not None:
                    metrics.counter("repro_dataplane_fused_total", stage="qc").inc()
                failed = qc.failed_indices
                att_span.set(qc_passed=qc.passed, qc_failed_slices=len(failed))
                if metrics.enabled:
                    metrics.counter("repro_qc_slices_total", result="pass").inc(
                        len(stack) - len(failed)
                    )
                    metrics.counter("repro_qc_slices_total", result="fail").inc(
                        len(failed)
                    )
                    for verdict in qc.slices:
                        for check in verdict.failures:
                            metrics.counter("repro_qc_failures_total", check=check).inc()
                if qc.passed:
                    bus.emit(
                        "attempt_finish", chip=job.name, attempt=attempt,
                        slices=len(stack), qc_passed=True,
                    )
                    break
                if attempt >= policy.max_retries:
                    logger.error(
                        "QC retry budget exhausted; quarantining chip",
                        extra={"fields": {
                            "failed_slices": list(failed),
                            "failure_kinds": list(qc.failure_kinds),
                            "attempts": attempt + 1,
                        }},
                    )
                    raise AcquisitionError(
                        f"{len(failed)} slice(s) still fail QC "
                        f"({', '.join(qc.failure_kinds)}) after "
                        f"{policy.max_retries} re-acquisition(s)",
                        chip_id=job.name,
                        stage="acquire",
                        slice_index=failed[0] if failed else None,
                        details={
                            "failed_slices": list(failed),
                            "failure_kinds": list(qc.failure_kinds),
                            "attempts": attempt + 1,
                            "fault_events": [e.to_dict() for e in events],
                        },
                    )
                logger.warning(
                    "acquired stack failed QC; re-acquiring",
                    extra={"fields": {
                        "failed_slices": list(failed),
                        "failure_kinds": list(qc.failure_kinds),
                        "attempt": attempt,
                    }},
                )
                metrics.counter("repro_acquire_retries_total").inc()
                bus.emit(
                    "attempt_retry", chip=job.name, attempt=attempt,
                    failed_slices=len(failed),
                )
            attempt += 1
        worst = max((max(abs(a), abs(b)) for a, b in stack.true_drift_px), default=0)
        if fuse is not None and fuse.denoised is not None:
            # Side channel for the accepted attempt only — consumed (and
            # cached under the *denoise* key) by run_denoise.
            ctx["_fused_denoised"] = fuse.denoised
        return {"stack": stack}, {
            "slices": float(len(stack)),
            "beam_time_hours": stack.beam_time_hours(),
            "worst_drift_px": float(worst),
            "retries": float(attempt),
            "fault_events": float(len(stack.fault_events)),
            "array_bytes": float(sum(img.nbytes for img in stack.images)),
        }

    def run_denoise(ctx: dict) -> tuple[dict, dict[str, float]]:
        fused = ctx.pop("_fused_denoised", None)
        if fused is not None:
            # Computed by the fused acquire pool trip with the exact
            # per-slice kernel DenoiseStage runs — bit-identical, one
            # fewer trip across the pool boundary per slice.
            denoised = fused
            notes: dict[str, float] = {"slices": float(len(denoised))}
            current_metrics().counter(
                "repro_dataplane_fused_total", stage="denoise"
            ).inc()
        else:
            denoised, notes = DenoiseStage(config)(ctx["stack"].images)
        notes["array_bytes"] = float(sum(img.nbytes for img in denoised))
        return {"denoised": denoised}, notes

    def run_align(ctx: dict) -> tuple[dict, dict[str, float]]:
        stage = AlignStage(config, true_drift_px=ctx["stack"].true_drift_px)
        aligned, notes = stage(ctx["denoised"])
        budget = policy.max_residual_fraction
        if budget is not None and notes.get("residual_fraction", 0.0) > budget:
            raise AlignmentBudgetExceeded(
                notes["residual_fraction"], budget, chip_id=job.name
            )
        return {"aligned": aligned}, notes

    def run_assemble(ctx: dict) -> tuple[dict, dict[str, float]]:
        stack = ctx["stack"]
        volume = ctx["volume"]
        origin_x_nm = volume.origin_x_nm + stack.x_offset_nm
        origin_y_nm = volume.origin_y_nm
        assembled, a_notes = AssembleStage(
            pixel_nm=stack.pixel_nm,
            slice_thickness_nm=stack.slice_thickness_nm,
            origin_x_nm=origin_x_nm,
            origin_y_nm=origin_y_nm,
        )(ctx["aligned"])
        views, v_notes = PlanarViewStage()(assembled)
        # Everything the final stage needs, so a cached `assemble` entry is
        # self-sufficient even when upstream entries are never loaded.
        meta = {
            "pixel_nm": stack.pixel_nm,
            "sem": stack.sem,
            "origin_x_nm": origin_x_nm,
            "origin_y_nm": origin_y_nm,
        }
        notes_base = {
            "alignment_max_residual_px": ctx["align_notes"]["max_residual_px"],
            "alignment_residual_fraction": ctx["align_notes"].get("residual_fraction", 0.0),
            "slices": float(len(stack)),
            "beam_time_hours": stack.beam_time_hours(),
        }
        return (
            {"views": views, "view_meta": meta, "notes_base": notes_base},
            {**a_notes, "layers": v_notes["layers"]},
        )

    def run_reveng(ctx: dict) -> tuple[dict, dict[str, float]]:
        meta = ctx["view_meta"]
        features, seg_notes = SegmentStage(
            config,
            pixel_nm=meta["pixel_nm"],
            sem=meta["sem"],
            origin_x_nm=meta["origin_x_nm"],
            origin_y_nm=meta["origin_y_nm"],
        )(ctx["views"])
        extracted = extract_circuit(features, name=f"{job.name}_re")
        truth = ctx["cell"] if job.validate else None
        result = finish_extraction(extracted, truth, pipeline_notes=dict(ctx["notes_base"]))
        notes = dict(seg_notes)
        notes.update({
            "devices_extracted": result.pipeline_notes["devices_extracted"],
            "lanes_matched": result.pipeline_notes["lanes_matched"],
        })
        return {"result": result}, notes

    spec_token = canonicalize(job.spec)
    stages = [
        _StageDef("layout", {"spec": spec_token, "mat_rows": job.mat_rows}, run_layout),
        _StageDef("voxelize", {"voxel_nm": job.voxel_nm, "margin_nm": job.margin_nm},
                  run_voxelize, reads=("layout",)),
    ]
    roi: tuple[str, ...] = ()
    if job.roi_margin_nm is not None:
        roi = ("roi",)
        stages.append(_StageDef(
            "roi",
            {"probe_step_nm": job.roi_probe_step_nm, "margin_nm": job.roi_margin_nm},
            run_roi, reads=("voxelize",),
        ))
    acquire_params: dict[str, Any] = {
        "campaign": canonicalize(job.campaign),
        "x_start_nm": job.x_start_nm, "x_stop_nm": job.x_stop_nm,
        "y_start_nm": job.y_start_nm, "y_stop_nm": job.y_stop_nm,
    }
    # Fault/QC knobs join the acquire key only when they can change the
    # acquired stack: an active plan injects defects, and an engaged QC
    # gate changes which stack survives (retry count + failure point).
    # An inert plan (all rates 0, QC off) keys identically to no plan, so
    # it hits the clean path's cache entries — matching its bit-identical
    # output.  The *rest* of the policy (timeouts) is execution-only and
    # never keyed.
    if job.fault_plan is not None and job.fault_plan.active:
        acquire_params["fault_plan"] = job.fault_plan.cache_token()
    if policy.qc_engaged(job):
        acquire_params["qc"] = canonicalize(policy.qc)
        acquire_params["max_retries"] = policy.max_retries
    stages.extend([
        _StageDef("acquire", acquire_params, run_acquire, reads=("voxelize", *roi)),
        # Stage params carry every result-affecting knob and nothing else:
        # execution-only settings (config.chunk_workers) are deliberately
        # absent so a re-run with more threads still hits the cache, while
        # the exactness-trading knobs (denoise_tol, shift penalty, search
        # strategy) are keyed so flipping them invalidates downstream
        # artefacts.
        _StageDef("denoise", {
            "method": config.denoise_method,
            "weight": config.denoise_weight,
            "iterations": config.denoise_iterations,
            "tol": config.denoise_tol,
        }, run_denoise, reads=("acquire",)),
        _StageDef("align", {
            "search_px": config.align_search_px,
            "bins": config.align_bins,
            "baselines": list(config.align_baselines),
            "shift_penalty": config.align_shift_penalty,
            "search_strategy": config.align_search_strategy,
        }, run_align, reads=("acquire", "denoise")),
        _StageDef("assemble", {}, run_assemble, reads=("voxelize", "acquire", "align")),
        _StageDef("reveng", {
            "segment_tolerance": config.segment_tolerance,
            "validate": job.validate,
        }, run_reveng, reads=("assemble", "layout") if job.validate else ("assemble",)),
    ])
    return stages


def chain_keys(stages: list[_StageDef]) -> list[str]:
    """The content-addressed cache key of every stage in the chain."""
    keys: list[str] = []
    parent: str | None = None
    for stage in stages:
        parent = chain_key(parent, stage.name, stage.version, stage.params)
        keys.append(parent)
    return keys


def cached_depth(
    job: "ChipJob",
    config: PipelineConfig,
    cache: StageCache,
    policy: ResiliencePolicy | None = None,
) -> int:
    """Index of the deepest cached stage for *job* (−1 when none).

    Key computation only — no entry is loaded.  The campaign scheduler
    uses this to order chip jobs deepest-hit-first: near-warm chips
    finish (and free their pool slot) fastest, so cold chips overlap the
    widest stretch of the campaign wall clock.
    """
    if not cache.enabled:
        return -1
    keys = chain_keys(build_stage_chain(job, config, policy))
    for i in reversed(range(len(keys))):
        if cache.contains(keys[i]):
            return i
    return -1


def execute_chain(
    stages: list[_StageDef],
    cache: StageCache,
    deadline: float | None = None,
    chip_id: str | None = None,
    budget_s: float | None = None,
    cancel: "threading.Event | None" = None,
) -> tuple[dict[str, Any], list[StageMetrics]]:
    """Run a stage chain against a cache; return (final context, metrics).

    ``deadline`` (a ``time.monotonic()`` instant) makes the executor
    cooperative about per-chip time budgets: it is checked *between*
    stages, so an over-budget chip stops at the next stage boundary with
    a :class:`StageTimeoutError` instead of being killed mid-stage (which
    would leave a partial cache write — the atomic store makes even that
    safe, but a typed error with the failing stage beats a dead worker).
    With a deadline set, every :class:`StageMetrics` records the
    ``deadline_remaining_s`` left *after* the stage, so timeout proximity
    is observable before it becomes a quarantine; ``budget_s`` (the full
    chip budget behind the deadline) additionally triggers a warning log
    when a single stage consumes more than 80 % of it.

    ``cancel`` (a ``threading.Event``) is the cooperative kill switch the
    serve daemon trips on ``DELETE /jobs/{id}``: like the deadline it is
    honoured *between* stages, raising :class:`JobCancelledError` at the
    next boundary so completed stage artefacts stay cached and the chip
    quarantines cleanly.  It only works for chips running in the caller's
    process (events don't cross the pool).

    Every loop iteration emits exactly one stage span on the active
    tracer — skipped, loaded and executed stages alike — so a trace's
    stage spans match the metrics list one-to-one.

    Which stages load, run or skip is planned back from the final stage,
    which is always read: a needed stage whose key is cached is loaded,
    any other needed stage runs, and a stage that runs needs the stages
    it ``reads``.  An entry that fails to load (corrupt, or gone since
    the plan) is recomputed the same way, its own reads first; a read
    that was skipped is then visited again, and its skip record and span
    are superseded by a nested load or run.
    """
    keys = chain_keys(stages)
    index = {stage.name: i for i, stage in enumerate(stages)}
    reads: list[list[int]] = []
    for i, stage in enumerate(stages):
        if stage.reads is None:
            reads.append(list(range(i)))
            continue
        read = sorted(index.get(name, i) for name in stage.reads)
        if read and read[-1] >= i:
            raise CampaignError(
                f"stage {stage.name!r} reads {list(stage.reads)}, "
                "which are not all earlier stages of its chain"
            )
        reads.append(read)

    plan = ["skip"] * len(stages)
    if plan:
        plan[-1] = "need"  # the final stage is always read
    for i in reversed(range(len(stages))):
        if plan[i] == "skip":
            continue
        plan[i] = "hit" if cache.contains(keys[i]) else "run"
        if plan[i] == "run":
            for r in reads[i]:
                plan[r] = "need"

    tracer = current_tracer()
    obs_metrics = current_metrics()
    bus = current_events()
    ctx: dict[str, Any] = {}
    metrics: list[StageMetrics] = []

    def _push(i: int, m: StageMetrics) -> None:
        bus.emit(
            "cache_hit" if m.cache_hit else "cache_miss",
            chip=chip_id, stage=m.stage, disposition=m.disposition,
        )
        bus.emit(
            "stage_finish",
            chip=chip_id, stage=m.stage, disposition=m.disposition,
            seconds=m.seconds, payload_bytes=m.payload_bytes,
        )
        if deadline is not None:
            m.notes["deadline_remaining_s"] = deadline - time.monotonic()
        if budget_s is not None and m.seconds > 0.8 * budget_s:
            logger.warning(
                "stage consumed over 80% of the chip time budget",
                extra={"fields": {
                    "stage": m.stage, "seconds": m.seconds, "budget_s": budget_s,
                }},
            )
        obs_metrics.counter(
            "repro_cache_lookups_total", stage=m.stage, disposition=m.disposition
        ).inc()
        obs_metrics.histogram("repro_stage_seconds", stage=m.stage).observe(m.seconds)
        if i < len(metrics):
            metrics[i] = m
        else:
            metrics.append(m)

    def _visit(i: int) -> None:
        stage, key = stages[i], keys[i]
        bus.emit("stage_start", chip=chip_id, stage=stage.name)
        with tracer.span(stage.name, kind="stage") as span, bind(stage=stage.name):
            t0 = time.perf_counter()
            if plan[i] == "skip":
                span.set(disposition="skip")
                _push(i, StageMetrics(
                    stage=stage.name, seconds=0.0, cache_hit=True, skipped=True,
                    payload_bytes=cache.entry_bytes(key),
                ))
                return
            entry = cache.load(key) if plan[i] == "hit" else None
            hit = entry is not None
            if hit:
                payload, notes = entry
                nbytes = cache.entry_bytes(key)
            else:
                if plan[i] == "hit":
                    logger.warning(
                        "cache entry failed to load; recomputing stage",
                        extra={"fields": {"stage": stage.name, "key": key}},
                    )
                for r in reads[i]:
                    if plan[r] == "skip":
                        plan[r] = "hit" if cache.contains(keys[r]) else "run"
                        _visit(r)
                payload, notes = stage.run(ctx)
                nbytes = cache.store(key, payload, notes)
                if nbytes:
                    obs_metrics.counter(
                        "repro_cache_stored_bytes_total", stage=stage.name
                    ).inc(nbytes)
            ctx.update(payload)
            if stage.name == "align":
                ctx["align_notes"] = notes
            span.set(disposition="hit" if hit else "run", payload_bytes=nbytes)
            _push(i, StageMetrics(
                stage=stage.name,
                seconds=time.perf_counter() - t0,
                cache_hit=hit,
                skipped=False,
                payload_bytes=nbytes,
                notes=notes,
            ))

    try:
        for i, stage in enumerate(stages):
            if cancel is not None and cancel.is_set():
                raise JobCancelledError(
                    "campaign cancelled; stopping at stage boundary",
                    chip_id=chip_id,
                    stage=stage.name,
                    details={"completed_stages": [m.stage for m in metrics]},
                )
            if deadline is not None and time.monotonic() > deadline:
                logger.error(
                    "chip blew its time budget; stopping at stage boundary",
                    extra={"fields": {
                        "stage": stage.name,
                        "completed_stages": [m.stage for m in metrics],
                    }},
                )
                raise StageTimeoutError(
                    "chip exceeded its campaign time budget",
                    chip_id=chip_id,
                    stage=stage.name,
                    details={"completed_stages": [m.stage for m in metrics]},
                )
            _visit(i)
    finally:
        # _visit refers to itself, a cycle that would keep ctx (every
        # payload this chain loaded or computed) alive until the cyclic
        # garbage collector happens to run.
        del _visit
    return ctx, metrics


def run_chip_stages(
    job: "ChipJob",
    config: PipelineConfig,
    cache: StageCache,
    policy: ResiliencePolicy | None = None,
    cancel: "threading.Event | None" = None,
) -> tuple[Any, list[StageMetrics]]:
    """Execute one job's full chain and return its final ``result``.

    For imaging :class:`~repro.runtime.campaign.ChipJob` chains that is a
    :class:`ReversedChip`; jobs with their own ``build_stages`` return
    whatever their final stage stores under ``"result"``.  ``policy``
    adds the QC/retry gate, the per-chip deadline and the alignment
    budget; ``None`` keeps the historical clean-path behaviour.
    """
    policy = policy or ResiliencePolicy()
    deadline = None
    if policy.chip_timeout_s is not None:
        deadline = time.monotonic() + policy.chip_timeout_s
    with bind(chip=job.name):
        ctx, metrics = execute_chain(
            build_stage_chain(job, config, policy), cache,
            deadline=deadline, chip_id=job.name,
            budget_s=policy.chip_timeout_s, cancel=cancel,
        )
    result = ctx.get("result")
    if result is None:
        raise CampaignError(f"chip job {job.name!r} produced no result")
    return result, metrics
