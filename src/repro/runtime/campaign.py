"""Multi-chip reverse-engineering campaigns.

The paper imaged and reverse engineered its six chips one at a time, each
scan costing >24 h of machine time.  This module is the reproduction's
answer to that serialism: a campaign is a list of :class:`ChipJob`\\ s
(region spec + acquisition parameters), and :func:`run_campaign` executes
every job's imaging → pipeline → RE chain

* **concurrently** — process-pool fan-out over chips (chips share
  nothing, so this parallelises perfectly), with optional thread-level
  chunk parallelism inside the denoise/align stages
  (``PipelineConfig.chunk_workers``);
* **incrementally** — every stage goes through the content-addressed
  :class:`~repro.runtime.cache.StageCache`, so a re-run recomputes only
  the stages whose parameters (or upstream stages) changed;
* **observably** — the returned :class:`CampaignReport` carries per-stage
  wall time, cache disposition, payload bytes and stage notes for every
  chip;
* **resiliently** — a chip whose chain fails (QC exhaustion under an
  active :class:`~repro.faults.FaultPlan`, an alignment budget bust, a
  blown per-chip deadline, any :class:`~repro.errors.StageError`) is
  **quarantined**: the pool keeps going, the sibling chips finish
  bit-identically to a fault-free run, and the report records a
  :class:`QuarantineRecord` with the failing stage, retry counts and the
  injected fault events.

Results are bit-identical for any ``workers`` value: each chip's chain is
deterministic given its job (all randomness is seeded by the acquisition
campaign and, for faults, by the job's plan), and fan-out only changes
*where* a chain runs.

:class:`CampaignReport` serializes through :meth:`CampaignReport.to_json`
/ :meth:`CampaignReport.from_json` with an explicit ``schema_version``;
deserialized reports are *summary-only* (telemetry without the pickled
:class:`~repro.reveng.workflow.ReversedChip` payloads).
"""

from __future__ import annotations

import json
import os
import threading
import time
import traceback as traceback_module
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.report import render_table
from repro.errors import CampaignError, JobCancelledError, ReproError, StageError
from repro.faults import FaultPlan
from repro.imaging.fib import FibSemCampaign
from repro.imaging.sem import SemParameters
from repro.layout.generator import SaRegionSpec
from repro.obs import (
    Event,
    EventBus,
    MetricsRegistry,
    ObsConfig,
    ObsSession,
    Span,
    Tracer,
    bind,
    configure_logging,
    current_events,
    current_metrics,
    current_tracer,
    events_to_jsonl,
    get_logger,
    merge_snapshots,
    merge_spans,
    render_trace_summary,
    to_chrome_trace,
    to_jsonl,
)
from repro.pipeline.config import PipelineConfig
from repro.reveng.workflow import ReversedChip
# The stage kernels import shard_map inside their bodies (shard imports
# repro.pipeline); importing it here keeps its process-pool machinery out
# of a campaign's first timed chip.
from repro.runtime import dataplane, shard
from repro.runtime.cache import StageCache
from repro.runtime.engine import (
    ResiliencePolicy,
    StageMetrics,
    cached_depth,
    run_chip_stages,
)

logger = get_logger("repro.runtime.campaign")

#: serialization schema of :meth:`CampaignReport.to_dict` — bump on any
#: breaking shape change ("campaign-report/1" was the ad-hoc dict layout
#: benchmarks used before the API existed; "/2" added quarantine and
#: fault telemetry; "/3" adds the embedded metrics snapshot and the
#: quarantine traceback)
REPORT_SCHEMA_VERSION = "campaign-report/3"

#: schema versions :meth:`CampaignReport.from_dict` can still read
#: ("/2" reports simply have no metrics snapshot and no tracebacks)
_READABLE_SCHEMA_VERSIONS = ("campaign-report/2", REPORT_SCHEMA_VERSION)


@dataclass(frozen=True)
class ChipJob:
    """One chip's acquisition + reverse-engineering work order."""

    name: str
    spec: SaRegionSpec
    campaign: FibSemCampaign = field(default_factory=FibSemCampaign)
    voxel_nm: float = 6.0
    margin_nm: float = 40.0
    #: build a full MAT/SA/MAT strip instead of a bare SA region
    mat_rows: int | None = None
    #: run blind ROI identification (Fig 6) and crop the field of view to
    #: the found region shrunk by this margin; requires ``mat_rows``
    roi_margin_nm: float | None = None
    roi_probe_step_nm: float = 300.0
    x_start_nm: float | None = None
    x_stop_nm: float | None = None
    y_start_nm: float | None = None
    y_stop_nm: float | None = None
    #: attach a ground-truth validation report to the result
    validate: bool = True
    #: seeded acquisition defects for this chip (None/inert → clean path)
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("chip job needs a name")
        if self.voxel_nm <= 0:
            raise CampaignError("voxel size must be positive")
        if self.roi_margin_nm is not None and self.mat_rows is None:
            raise CampaignError(
                "ROI identification needs the MAT context (set mat_rows)"
            )

    @classmethod
    def synthetic(
        cls,
        name: str,
        topology: str,
        n_pairs: int = 2,
        dwell_time_us: float = 6.0,
        slice_thickness_nm: float = 12.0,
        **kwargs,
    ) -> "ChipJob":
        """A synthetic-vendor job with the demo acquisition parameters."""
        from repro.catalog.variants import ChipVariantSpec, build_region_spec

        return cls(
            name=name,
            spec=build_region_spec(
                ChipVariantSpec(name=name, variant=topology, word_size=n_pairs)
            ),
            campaign=FibSemCampaign(
                slice_thickness_nm=slice_thickness_nm,
                sem=SemParameters(dwell_time_us=dwell_time_us),
            ),
            **kwargs,
        )

    #: a plan whose SEM pixel exceeds this fraction of the chip's feature
    #: size undersamples the latch contacts — re-plan at feature-scaled
    #: resolution instead (see :meth:`for_chip`)
    _UNDERSAMPLED_PIXEL_FRACTION = 0.35

    @classmethod
    def for_chip(cls, chip_id: str, n_pairs: int = 2, **kwargs) -> "ChipJob":
        """A job imaging a Table I chip with its own acquisition plan.

        The assembly voxel is matched to the plan's SEM pixel (1:1) rather
        than fixed: resampling a fine acquisition (B4's 3.4 nm pixels) into
        coarser voxels smears the latch gate-strap clearances until the
        extractor's active-contact guard severs the cross-couple nets and
        the nSA/pSA pairs vanish.  Plans whose pixel *undersamples* the
        feature size (A4: 10.4 nm pixels on a 20.5 nm process) cannot be
        rescued by assembly alone — those are re-planned at the
        population recipe's feature-scaled resolution (pixel ``5*scale``,
        voxel ``6*scale``, 12 nm slices, ``scale = feature/18``), the
        same sampling every catalog variant images with.
        """
        from dataclasses import replace as _dc_replace

        from repro.catalog.variants import build_region_spec, chip_variant
        from repro.core.chips import chip as get_chip
        from repro.imaging.plan import plan_for

        chip_id = chip_id.upper()
        chip = get_chip(chip_id)
        campaign = plan_for(chip_id).campaign
        if "voxel_nm" not in kwargs:
            pixel = campaign.sem.pixel_nm
            limit = chip.geometry.feature_nm * cls._UNDERSAMPLED_PIXEL_FRACTION
            if pixel > limit:
                scale = chip.geometry.feature_nm / 18.0
                campaign = _dc_replace(
                    campaign,
                    slice_thickness_nm=min(campaign.slice_thickness_nm, 12.0),
                    sem=_dc_replace(campaign.sem, pixel_nm=5.0 * scale),
                )
                kwargs["voxel_nm"] = 6.0 * scale
            else:
                kwargs["voxel_nm"] = pixel
        return cls(
            name=chip_id,
            spec=build_region_spec(chip_variant(chip_id, word_size=n_pairs)),
            campaign=campaign,
            **kwargs,
        )


@dataclass
class ChipRun:
    """One chip's outcome plus per-stage instrumentation.

    ``result`` is ``None`` on a *summary-only* run (deserialized from
    JSON); ``summary`` then carries the headline numbers the full result
    would provide.
    """

    name: str
    result: ReversedChip | None
    stages: list[StageMetrics]
    seconds: float
    summary: dict | None = None

    @property
    def cache_hits(self) -> int:
        return sum(1 for s in self.stages if s.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(1 for s in self.stages if not s.cache_hit)

    @property
    def stages_executed(self) -> list[str]:
        return [s.stage for s in self.stages if not s.cache_hit]

    @property
    def retries(self) -> int:
        """Re-acquisitions the QC gate forced on this chip."""
        return int(sum(s.notes.get("retries", 0.0) for s in self.stages))

    @property
    def fault_events(self) -> int:
        """Injected defects surviving in the final accepted stack."""
        return int(sum(s.notes.get("fault_events", 0.0) for s in self.stages))

    @property
    def degraded(self) -> bool:
        """Completed, but only after retries or with injected defects."""
        return self.retries > 0 or self.fault_events > 0

    def result_summary(self) -> dict:
        """Headline numbers, from the live result or the stored summary.

        Results that provide their own ``campaign_summary()`` (e.g. the
        analog characterizer's :class:`~repro.analog.characterizer.CellResult`)
        are asked for it; otherwise the imaging ``ReversedChip`` shape is
        assumed.  Every summary carries at least a ``"topology"`` key.
        """
        if self.result is not None:
            summarize = getattr(self.result, "campaign_summary", None)
            if callable(summarize):
                return summarize()
            matched = self.result.lanes_matched
            return {
                "topology": self.result.topology.value if matched else None,
                "lanes_matched": matched,
                "exact": self.result.all_exact,
            }
        return dict(self.summary or {"topology": None, "lanes_matched": 0, "exact": False})


@dataclass(frozen=True)
class QuarantineRecord:
    """Why one chip was pulled from the campaign (picklable, JSON-able)."""

    name: str
    stage: str | None  #: failing stage, when the error carried it
    error_type: str  #: exception class name
    message: str
    seconds: float  #: wall time spent on the chip before it failed
    slice_index: int | None = None
    retries: int = 0
    #: structured telemetry off the error (failed slices, fault events...)
    details: dict = field(default_factory=dict)
    #: the full formatted traceback at the point of failure ("" when the
    #: record was built without one, e.g. deserialized from a v2 report)
    traceback: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "stage": self.stage,
            "error_type": self.error_type,
            "message": self.message,
            "seconds": self.seconds,
            "slice_index": self.slice_index,
            "retries": self.retries,
            "details": self.details,
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuarantineRecord":
        return cls(
            name=str(data["name"]),
            stage=data.get("stage"),
            error_type=str(data["error_type"]),
            message=str(data["message"]),
            seconds=float(data.get("seconds", 0.0)),
            slice_index=data.get("slice_index"),
            retries=int(data.get("retries", 0)),
            details=dict(data.get("details", {})),
            traceback=str(data.get("traceback", "")),
        )

    @classmethod
    def from_error(
        cls,
        name: str,
        error: ReproError,
        seconds: float,
        tb: str | None = None,
    ) -> "QuarantineRecord":
        """Build a record from a caught error.

        ``tb`` is the formatted traceback (``traceback.format_exc()``)
        captured at the ``except`` site — pass it explicitly because by
        the time the record crosses the process pool the exception's
        ``__traceback__`` is gone.
        """
        stage = getattr(error, "stage", None)
        slice_index = getattr(error, "slice_index", None)
        details = dict(getattr(error, "details", {}) or {})
        return cls(
            name=name,
            stage=stage,
            error_type=type(error).__name__,
            message=str(error),
            seconds=seconds,
            slice_index=slice_index,
            retries=max(0, int(details.get("attempts", 1)) - 1),
            details=details,
            traceback=tb or "",
        )


@dataclass
class CampaignReport:
    """Everything :func:`run_campaign` observed, per chip and per stage.

    ``chips`` holds the completed runs (job order preserved);
    ``quarantined`` the chips whose chain failed.  A campaign where at
    least one chip completed is *partial*, not failed — callers check
    :attr:`degraded` / ``quarantined`` for the bad news.
    """

    chips: dict[str, ChipRun]
    workers: int
    wall_seconds: float
    cache_dir: str | None = None
    quarantined: dict[str, QuarantineRecord] = field(default_factory=dict)
    #: merged span tree of the whole campaign (``obs=ObsConfig(trace=True)``)
    trace: list[Span] | None = None
    #: merged metrics snapshot (``obs=ObsConfig(metrics=True)``); embedded
    #: in :meth:`to_dict` under ``"metrics"``
    metrics: dict | None = None
    #: merged lifecycle event stream (``obs=ObsConfig(events=True)``);
    #: exported as ``obs-event/1`` JSONL via :meth:`save_events`, never
    #: embedded in :meth:`to_dict`
    events: list[Event] | None = None

    def result(self, name: str) -> ReversedChip:
        """The recovered circuit of one chip."""
        try:
            run = self.chips[name]
        except KeyError:
            if name in self.quarantined:
                record = self.quarantined[name]
                raise CampaignError(
                    f"chip {name!r} was quarantined: {record.message}"
                ) from None
            raise CampaignError(f"no chip named {name!r} in this campaign") from None
        if run.result is None:
            raise CampaignError(
                f"chip {name!r} has no payload (summary-only report)"
            )
        return run.result

    def results(self) -> dict[str, ReversedChip]:
        """All recovered circuits, keyed by job name (job order preserved).

        Quarantined chips are absent — that is the partial-report
        contract, not an error.
        """
        return {
            name: run.result for name, run in self.chips.items()
            if run.result is not None
        }

    @property
    def cache_hits(self) -> int:
        return sum(run.cache_hits for run in self.chips.values())

    @property
    def cache_misses(self) -> int:
        return sum(run.cache_misses for run in self.chips.values())

    @property
    def stages_executed(self) -> int:
        return self.cache_misses

    @property
    def cpu_seconds(self) -> float:
        """Summed per-chip wall time (= serial cost of this campaign)."""
        return sum(run.seconds for run in self.chips.values())

    @property
    def degraded(self) -> bool:
        """Any chip quarantined, retried, or carrying injected defects."""
        return bool(self.quarantined) or any(
            run.degraded for run in self.chips.values()
        )

    def render(self) -> str:
        """ASCII stage table (chip × stage: disposition, time, bytes)."""
        rows = []
        for name, run in self.chips.items():
            for s in run.stages:
                note = ", ".join(
                    f"{k}={v:.3g}" for k, v in sorted(s.notes.items())
                    if k != "array_bytes"
                )
                rows.append([
                    name, s.stage, s.disposition, f"{s.seconds:7.2f}s",
                    f"{s.payload_bytes / 1e6:8.2f}MB", note[:48],
                ])
            summary = run.result_summary()
            topo = summary["topology"] or "-"
            extra = f", retries={run.retries}" if run.degraded else ""
            rows.append([name, "(total)", "", f"{run.seconds:7.2f}s", "",
                         f"topology={topo}{extra}"])
        for name, record in self.quarantined.items():
            rows.append([
                name, record.stage or "?", "FAIL", f"{record.seconds:7.2f}s", "",
                f"QUARANTINED: {record.error_type}"[:48],
            ])
        title = (
            f"campaign: {len(self.chips)} chips, workers={self.workers}, "
            f"wall {self.wall_seconds:.2f}s, cache {self.cache_hits} hit / "
            f"{self.cache_misses} miss"
        )
        if self.quarantined:
            title += f", {len(self.quarantined)} quarantined"
        return render_table(
            ["chip", "stage", "cache", "time", "payload", "notes"], rows, title=title
        )

    def to_dict(self) -> dict:
        """The versioned summary payload (no pickled chip results)."""
        chips = {}
        for name, run in self.chips.items():
            chips[name] = {
                "seconds": run.seconds,
                "retries": run.retries,
                "fault_events": run.fault_events,
                "degraded": run.degraded,
                "summary": run.result_summary(),
                "stages": [
                    {
                        "stage": s.stage,
                        "disposition": s.disposition,
                        "seconds": s.seconds,
                        "payload_bytes": s.payload_bytes,
                        "notes": dict(s.notes),
                    }
                    for s in run.stages
                ],
            }
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "cache_dir": self.cache_dir,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "degraded": self.degraded,
            "chips": chips,
            "quarantined": {
                name: record.to_dict() for name, record in self.quarantined.items()
            },
            "metrics": self.metrics,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignReport":
        """Rebuild a *summary-only* report (``result`` fields are None)."""
        version = data.get("schema_version")
        if version not in _READABLE_SCHEMA_VERSIONS:
            raise CampaignError(
                f"unsupported campaign report schema {version!r} "
                f"(this build reads {', '.join(map(repr, _READABLE_SCHEMA_VERSIONS))})"
            )
        chips: dict[str, ChipRun] = {}
        for name, chip in data.get("chips", {}).items():
            stages = [
                StageMetrics(
                    stage=s["stage"],
                    seconds=float(s.get("seconds", 0.0)),
                    cache_hit=s.get("disposition") in ("hit", "skip"),
                    skipped=s.get("disposition") == "skip",
                    payload_bytes=int(s.get("payload_bytes", 0)),
                    notes=dict(s.get("notes", {})),
                )
                for s in chip.get("stages", [])
            ]
            chips[name] = ChipRun(
                name=name,
                result=None,
                stages=stages,
                seconds=float(chip.get("seconds", 0.0)),
                summary=dict(chip.get("summary", {})),
            )
        return cls(
            chips=chips,
            workers=int(data.get("workers", 1)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            cache_dir=data.get("cache_dir"),
            quarantined={
                name: QuarantineRecord.from_dict(record)
                for name, record in data.get("quarantined", {}).items()
            },
            metrics=data.get("metrics"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"malformed campaign report JSON: {exc}") from None
        if not isinstance(data, dict):
            raise CampaignError("campaign report JSON must be an object")
        return cls.from_dict(data)

    # --- observability artefacts ------------------------------------------

    def _require_trace(self) -> list[Span]:
        if self.trace is None:
            raise CampaignError(
                "campaign was run without tracing "
                "(pass obs=ObsConfig(trace=True) to run_campaign)"
            )
        return self.trace

    def save_trace(self, path: str | Path) -> Path:
        """Write the campaign trace to *path*.

        ``*.jsonl`` paths get one span JSON object per line; anything
        else gets Chrome ``trace_event`` JSON, loadable directly in
        ``chrome://tracing`` or https://ui.perfetto.dev.
        """
        spans = self._require_trace()
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        if target.suffix == ".jsonl":
            target.write_text(to_jsonl(spans) + "\n")
        else:
            target.write_text(json.dumps(to_chrome_trace(spans)) + "\n")
        return target

    def trace_summary(self, max_depth: int = 5) -> str:
        """Flamegraph-style text tree of the campaign trace."""
        return render_trace_summary(self._require_trace(), max_depth=max_depth)

    def save_metrics(self, path: str | Path) -> Path:
        """Write the merged metrics snapshot to *path* as JSON."""
        if self.metrics is None:
            raise CampaignError(
                "campaign was run without metrics "
                "(pass obs=ObsConfig(metrics=True) to run_campaign)"
            )
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.metrics, indent=2, sort_keys=True) + "\n")
        return target

    def save_events(self, path: str | Path) -> Path:
        """Write the lifecycle event stream to *path* as obs-event/1 JSONL."""
        if self.events is None:
            raise CampaignError(
                "campaign was run without the event bus "
                "(pass obs=ObsConfig(events=True) to run_campaign)"
            )
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(events_to_jsonl(self.events) + "\n")
        return target


@dataclass
class _JobOutcome:
    """What one worker sends back: the chip outcome plus its telemetry."""

    outcome: ChipRun | QuarantineRecord
    spans: list[Span] = field(default_factory=list)
    metrics: dict | None = None
    events: list[Event] = field(default_factory=list)


def _run_one(
    job: ChipJob,
    config: PipelineConfig,
    cache_dir: str | None,
    policy: ResiliencePolicy | None,
    cancel: "threading.Event | None" = None,
) -> ChipRun | QuarantineRecord:
    """One chip's chain; a failing chip returns a quarantine record.

    The record — not the exception — crosses the process boundary:
    exceptions with rich context pickle unreliably, and a worker that
    raises would poison ``pool.map`` for every chip behind it.  The
    formatted traceback is captured here, at the ``except`` site, because
    it cannot be rebuilt later.
    """
    t0 = time.perf_counter()
    try:
        result, metrics = run_chip_stages(
            job, config, StageCache(cache_dir), policy, cancel=cancel
        )
    except StageError as exc:
        logger.error(
            "chip quarantined",
            extra={"fields": {
                "chip": job.name,
                "stage": getattr(exc, "stage", None),
                "error_type": type(exc).__name__,
            }},
        )
        return QuarantineRecord.from_error(
            job.name, exc, time.perf_counter() - t0,
            tb=traceback_module.format_exc(),
        )
    return ChipRun(
        name=job.name, result=result, stages=metrics,
        seconds=time.perf_counter() - t0,
    )


def _execute_job(
    args: tuple[
        ChipJob, PipelineConfig, str | None, ResiliencePolicy | None, ObsConfig | None
    ],
    cancel: "threading.Event | None" = None,
) -> _JobOutcome:
    """Pool entry point: run one chip under its own observability session.

    Each job gets a fresh tracer / registry (even on the serial path —
    :class:`~repro.obs.ObsSession` saves and restores whatever was
    active), so the chip's spans and metrics travel back to the campaign
    as plain picklable data regardless of which process ran them.

    ``cancel`` only reaches in-process (serial-path) chips: a
    ``threading.Event`` cannot cross the pool boundary, so pooled chips
    are cancelled at the future level before they start and run to
    completion once picked up.
    """
    job, config, cache_dir, policy, obs = args
    try:
        return _execute_job_inner(job, config, cache_dir, policy, obs, cancel)
    finally:
        # Zero-copy data-plane backstop: shard_map releases its segments
        # on every path it controls, but a chip that quarantined or
        # timed out between publish and release must not leave /dev/shm
        # segments behind in this (long-lived pool) process.  Normally a
        # no-op; anything reaped is counted as repro_dataplane_reaped.
        dataplane.reap_leaked("job-teardown")


def _execute_job_inner(
    job: ChipJob,
    config: PipelineConfig,
    cache_dir: str | None,
    policy: ResiliencePolicy | None,
    obs: ObsConfig | None,
    cancel: "threading.Event | None" = None,
) -> _JobOutcome:
    if obs is None or not obs.enabled:
        return _JobOutcome(_run_one(job, config, cache_dir, policy, cancel))
    with ObsSession(obs) as session:
        current_events().emit("chip_start", chip=job.name)
        with current_tracer().span(
            f"chip {job.name}", kind="chip", chip=job.name
        ) as span, bind(chip=job.name):
            outcome = _run_one(job, config, cache_dir, policy, cancel)
            if isinstance(outcome, QuarantineRecord):
                span.set(outcome="quarantined", error_type=outcome.error_type,
                         stage=outcome.stage)
            else:
                span.set(outcome="completed", cache_hits=outcome.cache_hits,
                         cache_misses=outcome.cache_misses)
    return _JobOutcome(
        outcome,
        spans=session.spans(),
        metrics=session.metrics_snapshot() if obs.metrics else None,
        events=session.events(),
    )


def usable_cpus() -> int:
    """CPUs this process may actually schedule on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def default_workers(jobs_count: int) -> int:
    """One worker per chip, capped by the usable CPU count."""
    return max(1, min(jobs_count, usable_cpus()))


def run_campaign(
    jobs: list[ChipJob],
    config: PipelineConfig | None = None,
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    policy: ResiliencePolicy | None = None,
    fault_plan: FaultPlan | None = None,
    obs: ObsConfig | None = None,
    *,
    pool: "Executor | None" = None,
    cancel: threading.Event | None = None,
    bus: EventBus | None = None,
) -> CampaignReport:
    """Run every chip job and return the campaign report.

    ``workers`` is the total worker-process budget.  ``None`` resolves to
    one chip worker per job, capped at the usable CPU count — unless
    ``config.shard.slices`` is on, in which case it resolves to the full
    CPU count so slice shards can use the cores the chip fan-out leaves
    idle.  At most ``len(jobs)`` processes run chip chains; with slice
    sharding enabled the *surplus* (``workers // chip_workers``) becomes
    each chip's shard worker count (unless ``config.shard.workers`` was
    pinned explicitly), so a single-chip campaign on an 8-core machine
    runs one chip process feeding 8 shard workers.  ``1`` runs in-process.
    ``cache_dir`` enables the on-disk stage cache; stale ``*.tmp`` files
    abandoned by crashed writers are swept at start-up.  Results are
    identical for any worker/shard configuration; the report's chip order
    always follows the job order.

    When several chips compete for pool slots and the cache is enabled,
    jobs are *scheduled* deepest-cache-hit-first (near-warm chips free
    their slot quickly, overlapping the cold chips with the long tail) —
    an execution-order detail that never leaks into the report.

    ``policy`` sets the resilience knobs (QC thresholds, retry budget,
    per-chip timeout).  ``fault_plan`` is a campaign-level plan applied to
    every job that doesn't already carry one, with a per-chip seed
    derived via :meth:`~repro.faults.FaultPlan.for_chip` so siblings draw
    independent fault streams.  A chip whose chain raises a
    :class:`~repro.errors.StageError` is quarantined — the campaign
    still completes and the report is partial, not absent.

    ``obs`` turns on the observability layer
    (:class:`~repro.obs.ObsConfig`): with ``trace=True`` the report
    carries the merged campaign → chip → attempt → stage → kernel span
    tree (:attr:`CampaignReport.trace`, exportable via
    :meth:`CampaignReport.save_trace`); with ``metrics=True`` the merged
    counter/histogram snapshot (:attr:`CampaignReport.metrics`, embedded
    in the report JSON); with ``events=True`` the typed lifecycle event
    stream (:attr:`CampaignReport.events`, ``obs-event/1`` JSONL via
    :meth:`CampaignReport.save_events`) — published live on any ambient
    :class:`~repro.obs.EventBus` so the ``--serve-obs`` exporter can
    stream progress mid-run; ``log_level`` configures JSON-lines logging
    in the parent and every worker.  Observability never changes results
    or cache keys — it only watches.

    The keyword-only seams exist for the serve daemon (multiplexing many
    campaigns through one process), and none of them changes results:

    * ``pool`` — an externally owned :class:`concurrent.futures.Executor`
      to fan chips out on instead of creating (and tearing down) a
      private ``ProcessPoolExecutor``.  The pool is *not* shut down here,
      and its ``max_workers`` is the real parallelism cap; ``workers``
      keeps its reporting/shard-budget meaning.
    * ``cancel`` — a :class:`threading.Event`; once set, chips that have
      not started are quarantined with :class:`JobCancelledError`
      (pool-backed chips via ``Future.cancel``, in-process chips at the
      next stage boundary) while chips already running on a pool worker
      finish normally.  The report is partial, never absent.
    * ``bus`` — an explicit per-campaign :class:`EventBus` that takes
      precedence over the ambient bus.  The ambient bus is a process
      global, so two campaigns running on different threads of one
      daemon would otherwise interleave their streams.  A campaign that
      *owns* its bus (ambient or private) closes it at campaign end
      (:meth:`EventBus.close`) so follow-mode consumers terminate; an
      injected ``bus`` is left open — its owner decides end-of-stream.
    """
    if not jobs:
        raise CampaignError("campaign needs at least one job")
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise CampaignError(f"duplicate chip job names: {sorted(names)}")
    config = config or PipelineConfig()
    cache_dir = str(cache_dir) if cache_dir is not None else None
    if workers is None:
        # With slice sharding on, the budget is the machine, not the job
        # count: the surplus over the chip fan-out goes to shard workers.
        workers = usable_cpus() if config.shard.slices else default_workers(len(jobs))
    if fault_plan is not None:
        jobs = [
            job if job.fault_plan is not None
            else replace(job, fault_plan=fault_plan.for_chip(job.name))
            for job in jobs
        ]
    if obs is not None and obs.log_level is not None:
        configure_logging(obs.log_level)

    chip_workers = max(1, min(workers, len(jobs)))
    if config.shard.slices and config.shard.workers is None:
        config = config.replaced(
            shard=replace(config.shard, workers=max(1, workers // chip_workers))
        )
    if cache_dir is not None:
        StageCache(cache_dir).sweep_stale_tmp()

    campaign_tracer = Tracer() if obs is not None and obs.trace else None
    # Live telemetry plumbing.  The event bus prefers an ambient bus (one
    # activated by a surrounding ObsSession — e.g. the --serve-obs HTTP
    # exporter) so a scraper watching that bus sees campaign progress the
    # moment it happens; otherwise the campaign owns a private bus and the
    # stream is only visible post-hoc via CampaignReport.events.  The same
    # goes for metrics: worker snapshots are folded into any ambient live
    # registry as outcomes arrive, while the report snapshot is still
    # assembled from scratch below (identically to earlier releases).
    campaign_bus: EventBus | None = None
    owns_bus = True
    if bus is not None:
        campaign_bus = bus
        owns_bus = False
    elif obs is not None and obs.events:
        ambient_bus = current_events()
        campaign_bus = ambient_bus if ambient_bus.enabled else EventBus()
    live_metrics: MetricsRegistry | None = None
    report_registry: MetricsRegistry | None = None
    if obs is not None and obs.metrics:
        report_registry = MetricsRegistry()
        ambient_metrics = current_metrics()
        if ambient_metrics.enabled:
            live_metrics = ambient_metrics

    def _note_outcome(outcome: _JobOutcome) -> None:
        if campaign_bus is not None:
            campaign_bus.absorb(outcome.events)
            run = outcome.outcome
            if isinstance(run, ChipRun):
                campaign_bus.emit(
                    "chip_finish", chip=run.name, seconds=run.seconds,
                    cache_hits=run.cache_hits, cache_misses=run.cache_misses,
                )
            else:
                campaign_bus.emit(
                    "chip_quarantined", chip=run.name, stage=run.stage,
                    error_type=run.error_type,
                )
        if live_metrics is not None and outcome.metrics is not None:
            live_metrics.absorb(outcome.metrics)

    if campaign_bus is not None:
        campaign_bus.emit("campaign_start", jobs=len(jobs), workers=workers)
    t0 = time.perf_counter()
    # Submission order: with contended pool slots and a live cache, run
    # the chips with the deepest cache hit first.  Results are reassembled
    # in job order below, so this is invisible outside the schedule.
    order = list(range(len(jobs)))
    if chip_workers > 1 and cache_dir is not None:
        cache = StageCache(cache_dir)
        depths = [cached_depth(job, config, cache, policy) for job in jobs]
        if any(d >= 0 for d in depths):
            order.sort(key=lambda i: (-depths[i], i))
            logger.debug(
                "cache-aware job ordering engaged",
                extra={"fields": {
                    "order": [jobs[i].name for i in order],
                    "depths": depths,
                }},
            )
    payloads = [(jobs[i], config, cache_dir, policy, obs) for i in order]
    rss_sampler = None
    with ExitStack() as scope:
        if campaign_tracer is not None:
            scope.enter_context(campaign_tracer.span(
                "campaign", kind="campaign", jobs=len(jobs), workers=workers,
                shard_workers=config.shard.resolved_workers if config.shard.slices else 0,
            ))
        if report_registry is not None:
            # Periodic process-tree RSS gauge for the whole campaign
            # (parent + pool workers + shard workers), mirrored into any
            # live registry so a mid-run /metrics scrape sees it.
            from repro.perf.rss import RssSampler

            def _record_rss(sample_bytes: int) -> None:
                report_registry.gauge("repro_campaign_rss_bytes").set(sample_bytes)
                if live_metrics is not None:
                    live_metrics.gauge("repro_campaign_rss_bytes").set(sample_bytes)

            rss_sampler = scope.enter_context(
                RssSampler(interval=0.25, on_sample=_record_rss)
            )
        def _cancelled_outcome(job: ChipJob) -> _JobOutcome:
            return _JobOutcome(QuarantineRecord(
                name=job.name,
                stage=None,
                error_type=JobCancelledError.__name__,
                message="campaign cancelled before this chip started",
                seconds=0.0,
            ))

        def _collect_futures(executor) -> None:
            # Submit everything up front, then collect in submission order
            # so each worker's events/metrics join the live stream as its
            # outcome arrives, not after the whole pool drains.  Once
            # ``cancel`` trips, pending futures are cancelled (chips that
            # never started quarantine instantly); chips a worker already
            # picked up run to completion — the daemon's drain contract is
            # "finish or quarantine in-flight work", never kill mid-stage.
            futures = [
                (p, executor.submit(_execute_job, p)) for p in payloads
            ]
            for payload, future in futures:
                if cancel is not None and cancel.is_set() and future.cancel():
                    outcome = _cancelled_outcome(payload[0])
                else:
                    outcome = future.result()
                _note_outcome(outcome)
                outcomes.append(outcome)

        outcomes = []
        if pool is not None:
            _collect_futures(pool)
        elif workers <= 1 or len(jobs) == 1:
            for p in payloads:
                if cancel is not None and cancel.is_set():
                    outcome = _cancelled_outcome(p[0])
                else:
                    outcome = _execute_job(p, cancel)
                _note_outcome(outcome)
                outcomes.append(outcome)
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=chip_workers) as executor:
                _collect_futures(executor)
    # Campaign-level data-plane backstop for segments published from this
    # process (serial path, or shard submitters that died mid-flight).
    dataplane.reap_leaked("campaign-teardown")
    wall_seconds = time.perf_counter() - t0
    # Back to job order (outcomes arrive in submission order).
    by_job: list[_JobOutcome | None] = [None] * len(outcomes)
    for position, job_index in enumerate(order):
        by_job[job_index] = outcomes[position]
    outcomes = [o for o in by_job if o is not None]
    runs = [o.outcome for o in outcomes]

    trace: list[Span] | None = None
    if campaign_tracer is not None:
        # The campaign root closed when the ExitStack unwound; hang every
        # worker's chip tree under it.
        root = campaign_tracer.finished_spans()[-1]
        trace = merge_spans(root, [s for o in outcomes for s in o.spans])

    metrics: dict | None = None
    if report_registry is not None:
        registry = report_registry
        for run in runs:
            if isinstance(run, ChipRun):
                registry.counter("repro_chips_total", outcome="completed").inc()
            else:
                registry.counter("repro_chips_total", outcome="quarantined").inc()
                registry.counter(
                    "repro_quarantine_total", stage=run.stage or "unknown"
                ).inc()
        registry.gauge("repro_campaign_wall_seconds").set(wall_seconds)
        registry.gauge("repro_campaign_workers").set(workers)
        if config.shard.slices:
            registry.gauge("repro_campaign_shard_workers").set(
                config.shard.resolved_workers
            )
        if rss_sampler is not None and rss_sampler.peak_bytes:
            registry.gauge("repro_campaign_rss_peak_bytes").set(
                rss_sampler.peak_bytes
            )
        metrics = registry.snapshot()
        for outcome in outcomes:
            if outcome.metrics is not None:
                merge_snapshots(metrics, outcome.metrics)
        if live_metrics is not None:
            # The campaign-level counters/gauges (not the worker
            # snapshots — those were absorbed as outcomes arrived).
            live_metrics.absorb(registry.snapshot())

    events: list[Event] | None = None
    if campaign_bus is not None:
        campaign_bus.emit(
            "campaign_finish",
            wall_seconds=wall_seconds,
            completed=sum(1 for r in runs if isinstance(r, ChipRun)),
            quarantined=sum(1 for r in runs if isinstance(r, QuarantineRecord)),
            dropped=campaign_bus.dropped,
        )
        events = campaign_bus.snapshot()
        if owns_bus:
            # End-of-stream for follow-mode consumers (--serve-obs
            # scrapers).  Injected buses stay open: their owner (the
            # serve scheduler) appends job-level events before closing.
            campaign_bus.close()

    return CampaignReport(
        chips={run.name: run for run in runs if isinstance(run, ChipRun)},
        workers=workers,
        wall_seconds=wall_seconds,
        cache_dir=cache_dir,
        quarantined={
            run.name: run for run in runs if isinstance(run, QuarantineRecord)
        },
        trace=trace,
        metrics=metrics,
        events=events,
    )


def campaign_config_provenance(config: PipelineConfig | None = None) -> dict:
    """Stage versions + config token: the provenance record a data bundle
    stores so consumers can tell which pipeline produced it."""
    from repro.runtime.engine import STAGE_VERSIONS
    from repro.runtime.hashing import stable_hash

    config = config or PipelineConfig()
    token = config.cache_token()
    return {
        "stage_versions": dict(STAGE_VERSIONS),
        "pipeline_config": token,
        "pipeline_config_hash": stable_hash(token),
    }


__all__ = [
    "ChipJob",
    "ChipRun",
    "CampaignReport",
    "QuarantineRecord",
    "REPORT_SCHEMA_VERSION",
    "run_campaign",
    "default_workers",
    "campaign_config_provenance",
]
