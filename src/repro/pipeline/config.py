"""Pipeline configuration and the common stage protocol.

Historically every §IV-C stage had its own keyword surface and
:func:`repro.reveng.workflow.reverse_engineer_stack` forwarded a loose
subset of it (``denoise_method=...``, ``align_search_px=...``).  That shape
neither composes (a campaign over six chips wants *one* value object to
hash, log and replay) nor extends (adding a stage parameter meant touching
every caller).  This module replaces it with:

* :class:`PipelineConfig` — one frozen dataclass holding every tunable of
  the §IV-C post-processing chain.  ``cache_token()`` returns the
  result-affecting subset as a canonical dict, which is what the
  :mod:`repro.runtime` stage cache hashes; execution-only knobs
  (``chunk_workers``) are deliberately excluded so a re-run with more
  threads still hits the cache.
* :class:`Stage` — the common protocol (volume in → volume out, plus a
  ``notes`` dict of floats) every stage adapter follows.
* Concrete adapters (:class:`DenoiseStage`, :class:`AlignStage`,
  :class:`AssembleStage`, :class:`PlanarViewStage`, :class:`SegmentStage`)
  that give :func:`~repro.pipeline.denoise.denoise_stack`,
  :func:`~repro.pipeline.register.align_stack`,
  :func:`~repro.pipeline.stack.assemble_volume`,
  :func:`~repro.pipeline.stack.planar_views` and the intensity
  segmentation one signature shape, so the campaign engine can treat the
  chain uniformly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.errors import PipelineError
from repro.pipeline.denoise import denoise_stack
from repro.pipeline.register import AlignmentReport, align_stack
from repro.pipeline.stack import AlignedVolume, assemble_volume, planar_views

_DENOISE_METHODS = ("chambolle", "split_bregman")
_SEARCH_STRATEGIES = ("exhaustive", "pyramid")
_SHARD_ORDERINGS = ("contiguous", "striped")
_DATA_PLANES = ("pickle", "shm")


@dataclass(frozen=True)
class ShardPlan:
    """How per-slice stage work is sharded over the shard worker pool.

    The per-slice stages (acquire imaging, TV denoise, slice QC, and the
    per-slice MI searches of alignment) are embarrassingly parallel
    across slices; a :class:`ShardPlan` with ``slices=True`` lets the
    campaign runtime batch their slices and fan the batches out to
    worker *processes* — the second scheduling level under the
    chip-level pool, which is what lets a single-chip campaign saturate
    a multi-core machine.

    Everything here is **execution-only**: per-slice work is pure per
    slice and the shard merge is index-ordered, so results are
    bit-identical to ``workers=1`` for every batch size, ordering and
    worker count — which is why the plan is excluded from
    :meth:`PipelineConfig.cache_token`.
    """

    #: enable slice-level sharding of the per-slice stages (acquire,
    #: denoise, QC, align)
    slices: bool = False
    #: slices per shard batch; ``None`` → auto (~2 batches per worker)
    batch: int | None = None
    #: ``"contiguous"`` batches runs of adjacent slices (best payload
    #: locality); ``"striped"`` deals slices round-robin so a cost
    #: gradient along the stack load-balances evenly.  Merge order is
    #: by slice index either way — the choice never affects results.
    ordering: str = "contiguous"
    #: ceiling on the bytes of shard payloads in flight at once; the
    #: submitter blocks on the oldest outstanding batch when exceeded
    #: (backpressure so a huge stack cannot queue itself entirely into
    #: pool pickle buffers)
    max_inflight_bytes: int = 256 * 1024 * 1024
    #: shard worker processes; ``None`` → the campaign assigns the
    #: workers left over after chip-level fan-out
    workers: int | None = None
    #: how batch payloads cross the pool boundary: ``"shm"`` publishes
    #: large ndarrays into shared-memory segments and ships tiny headers
    #: (see :mod:`repro.runtime.dataplane`; falls back to pickle when
    #: shared memory is unavailable), ``"pickle"`` is the classic
    #: serialize-through-the-pipe path.  Execution-only: results are
    #: bit-identical either way.
    data_plane: str = "shm"
    #: arrays below this byte count stay inline in the batch pickle even
    #: on the shm plane (segment setup costs more than it saves)
    shm_min_bytes: int = 16 * 1024
    #: fuse the downstream per-slice stages (denoise, QC metrics) into
    #: the acquire imaging pool trip so each slice crosses the pool
    #: boundary once instead of once per stage.  Execution-only: the
    #: fused kernels are the same per-slice functions.
    fuse: bool = True

    def __post_init__(self) -> None:
        if self.batch is not None and self.batch < 1:
            raise PipelineError("shard batch must be >= 1 (or None for auto)")
        if self.ordering not in _SHARD_ORDERINGS:
            raise PipelineError(
                f"unknown shard ordering {self.ordering!r} "
                f"(expected one of {_SHARD_ORDERINGS})"
            )
        if self.max_inflight_bytes < 1:
            raise PipelineError("max_inflight_bytes must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise PipelineError("shard workers must be >= 1 (or None for auto)")
        if self.data_plane not in _DATA_PLANES:
            raise PipelineError(
                f"unknown data plane {self.data_plane!r} "
                f"(expected one of {_DATA_PLANES})"
            )
        if self.shm_min_bytes < 1:
            raise PipelineError("shm_min_bytes must be >= 1")

    @property
    def resolved_workers(self) -> int:
        """The worker count to schedule with (1 until the campaign resolves)."""
        return self.workers if self.workers is not None else 1

    def engaged(self, n_items: int) -> bool:
        """Whether sharding *n_items* would actually fan out."""
        return self.slices and self.resolved_workers > 1 and n_items > 1

    def batch_size(self, n_items: int) -> int:
        """Slices per batch for an *n_items* stack (explicit or auto)."""
        if self.batch is not None:
            return self.batch
        # ~2 batches per worker: enough slack to load-balance uneven
        # batch costs without drowning in per-batch pickle overhead.
        return max(1, -(-n_items // (2 * max(self.resolved_workers, 1))))

    def batches(self, n_items: int) -> list[tuple[int, ...]]:
        """Deterministic slice-index batches for an *n_items* stack.

        A pure function of ``(n_items, batch, ordering, workers)`` — the
        submitter and any replayer always agree on the partition.
        """
        if n_items <= 0:
            return []
        size = self.batch_size(n_items)
        n_batches = -(-n_items // size)
        if self.ordering == "striped":
            return [
                tuple(range(k, n_items, n_batches)) for k in range(n_batches)
            ]
        return [
            tuple(range(lo, min(lo + size, n_items)))
            for lo in range(0, n_items, size)
        ]

#: Map from the legacy ``reverse_engineer_stack`` keywords to config fields.
LEGACY_KWARGS = {
    "denoise_method": "denoise_method",
    "denoise_weight": "denoise_weight",
    "align_search_px": "align_search_px",
}


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the §IV-C post-processing chain, in one object.

    The defaults reproduce the historical behaviour of
    ``reverse_engineer_stack`` exactly.
    """

    #: TV denoiser: ``"chambolle"`` or ``"split_bregman"``.
    denoise_method: str = "chambolle"
    #: ROF fidelity weight λ (larger → smoother).
    denoise_weight: float = 0.08
    #: Iteration override; ``None`` keeps each method's published default.
    denoise_iterations: int | None = None
    #: Early-stopping tolerance for the TV solvers; ``None`` (default)
    #: runs the exact published iteration counts (bit-identical outputs).
    denoise_tol: float | None = None
    #: MI alignment search window (± px).
    align_search_px: int = 4
    #: MI histogram bins.
    align_bins: int = 32
    #: Multi-baseline registration offsets (see :func:`align_stack`).
    align_baselines: tuple[int, ...] = (1, 2, 3)
    #: MI shift regularisation (nats per pixel of shift) — see
    #: :func:`~repro.pipeline.register.align_pair`.
    align_shift_penalty: float = 0.01
    #: ``"exhaustive"`` scores the full ±window; ``"pyramid"`` is the
    #: opt-in coarse-to-fine search (faster, may differ on flat MI
    #: surfaces — result-affecting, so it is part of the cache token).
    align_search_strategy: str = "exhaustive"
    #: Intensity-classification tolerance of the segmentation step
    #: (see :meth:`repro.reveng.features.PlanarFeatures.from_views`).
    segment_tolerance: float = 0.5
    #: Per-slice worker threads inside denoise/align.  Execution detail
    #: only: results are bit-identical for any value, so it is excluded
    #: from :meth:`cache_token`.
    chunk_workers: int = 1
    #: Slice-level sharding of the per-slice stages (acquire imaging,
    #: denoise, QC) over worker processes.  Execution detail only —
    #: excluded from :meth:`cache_token` like ``chunk_workers``.
    shard: ShardPlan = field(default_factory=ShardPlan)

    def __post_init__(self) -> None:
        if self.denoise_method not in _DENOISE_METHODS:
            raise PipelineError(
                f"unknown denoising method {self.denoise_method!r} "
                f"(expected one of {_DENOISE_METHODS})"
            )
        if self.denoise_weight <= 0:
            raise PipelineError("denoise weight must be positive")
        if self.denoise_iterations is not None and self.denoise_iterations < 1:
            raise PipelineError("denoise iterations must be >= 1")
        if self.denoise_tol is not None and self.denoise_tol <= 0:
            raise PipelineError("denoise tolerance must be positive (or None)")
        if self.align_shift_penalty < 0:
            raise PipelineError("shift penalty must be >= 0")
        if self.align_search_strategy not in _SEARCH_STRATEGIES:
            raise PipelineError(
                f"unknown search strategy {self.align_search_strategy!r} "
                f"(expected one of {_SEARCH_STRATEGIES})"
            )
        if self.align_search_px < 1:
            raise PipelineError("alignment search window must be >= 1 px")
        if self.align_bins < 2:
            raise PipelineError("mutual information needs >= 2 bins")
        if not self.align_baselines or any(k < 1 for k in self.align_baselines):
            raise PipelineError("baselines must be a non-empty tuple of positive offsets")
        if not (0.0 < self.segment_tolerance <= 1.0):
            raise PipelineError("segmentation tolerance must be in (0, 1]")
        if self.chunk_workers < 1:
            raise PipelineError("chunk_workers must be >= 1")

    def replaced(self, **changes: Any) -> "PipelineConfig":
        """A copy with *changes* applied (``dataclasses.replace`` sugar)."""
        return replace(self, **changes)

    def denoise_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for :func:`denoise_stack`."""
        kwargs: dict[str, Any] = {
            "method": self.denoise_method,
            "weight": self.denoise_weight,
        }
        if self.denoise_iterations is not None:
            kwargs["iterations"] = self.denoise_iterations
        if self.denoise_tol is not None:
            kwargs["tol"] = self.denoise_tol
        return kwargs

    def align_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for :func:`align_stack`."""
        return {
            "search_px": self.align_search_px,
            "bins": self.align_bins,
            "baselines": self.align_baselines,
            "shift_penalty": self.align_shift_penalty,
            "search_strategy": self.align_search_strategy,
        }

    def cache_token(self) -> dict[str, Any]:
        """The result-affecting parameters, as a canonical plain dict.

        ``chunk_workers`` and ``shard`` are excluded: they change how
        fast (and where) a stage runs, never what it produces.
        ``denoise_tol``, ``align_shift_penalty``
        and ``align_search_strategy`` *are* included — early stopping and
        the pyramid search trade exactness for speed, so their settings
        affect results and must invalidate cached artefacts.
        """
        return {
            "denoise_method": self.denoise_method,
            "denoise_weight": self.denoise_weight,
            "denoise_iterations": self.denoise_iterations,
            "denoise_tol": self.denoise_tol,
            "align_search_px": self.align_search_px,
            "align_bins": self.align_bins,
            "align_baselines": list(self.align_baselines),
            "align_shift_penalty": self.align_shift_penalty,
            "align_search_strategy": self.align_search_strategy,
            "segment_tolerance": self.segment_tolerance,
        }

    @classmethod
    def from_legacy_kwargs(
        cls,
        base: "PipelineConfig | None" = None,
        **legacy: Any,
    ) -> "PipelineConfig":
        """Translate pre-1.1 ``reverse_engineer_stack`` keywords.

        Emits one :class:`DeprecationWarning` naming the migration and the
        removal version; raises ``TypeError`` on keywords that never
        existed.
        """
        unknown = set(legacy) - set(LEGACY_KWARGS)
        if unknown:
            raise TypeError(
                f"unexpected keyword argument(s) {sorted(unknown)}; "
                "pass a PipelineConfig via config= instead"
            )
        if legacy:
            warnings.warn(
                f"keyword(s) {sorted(legacy)} are deprecated; pass "
                "config=PipelineConfig(...) instead (they will be removed "
                "in repro 2.0)",
                DeprecationWarning,
                stacklevel=3,
            )
        base = base or cls()
        return replace(base, **{LEGACY_KWARGS[k]: v for k, v in legacy.items()})


@runtime_checkable
class Stage(Protocol):
    """Common shape of a pipeline stage: data in → data out + notes.

    ``notes`` carries stage-domain metrics (residuals, counts, hours) as a
    flat ``dict[str, float]`` so reports can be merged without caring which
    stage produced which number.
    """

    name: str
    version: str

    def __call__(self, data: Any) -> tuple[Any, dict[str, float]]:
        """Run the stage; return (output, notes)."""
        ...


@dataclass
class DenoiseStage:
    """TV-denoise every slice of a stack (§IV-C)."""

    config: PipelineConfig
    name: str = field(default="denoise", init=False)
    version: str = field(default="1", init=False)

    def __call__(self, data: list[np.ndarray]) -> tuple[list[np.ndarray], dict[str, float]]:
        out = denoise_stack(
            data,
            workers=self.config.chunk_workers,
            shard=self.config.shard,
            **self.config.denoise_kwargs(),
        )
        return out, {"slices": float(len(out))}


@dataclass
class AlignStage:
    """Mutual-information slice alignment (§IV-C).

    The full :class:`AlignmentReport` of the last call is kept on
    :attr:`report`; the returned notes carry its headline floats.
    """

    config: PipelineConfig
    true_drift_px: list[tuple[int, int]] | None = None
    report: AlignmentReport | None = field(default=None, init=False)
    name: str = field(default="align", init=False)
    version: str = field(default="1", init=False)

    def __call__(self, data: list[np.ndarray]) -> tuple[list[np.ndarray], dict[str, float]]:
        aligned, report = align_stack(
            data,
            true_drift_px=self.true_drift_px,
            workers=self.config.chunk_workers,
            shard=self.config.shard,
            **self.config.align_kwargs(),
        )
        self.report = report
        notes = {"slices": float(len(aligned)),
                 "max_residual_px": float(report.max_residual_px())}
        if data:
            notes["residual_fraction"] = report.residual_fraction(data[0].shape[0])
        return aligned, notes


@dataclass
class AssembleStage:
    """Stack aligned cross-sections into an :class:`AlignedVolume`."""

    pixel_nm: float
    slice_thickness_nm: float
    origin_x_nm: float = 0.0
    origin_y_nm: float = 0.0
    name: str = field(default="assemble", init=False)
    version: str = field(default="1", init=False)

    def __call__(self, data: list[np.ndarray]) -> tuple[AlignedVolume, dict[str, float]]:
        volume = assemble_volume(
            data,
            pixel_nm=self.pixel_nm,
            slice_thickness_nm=self.slice_thickness_nm,
            origin_x_nm=self.origin_x_nm,
            origin_y_nm=self.origin_y_nm,
        )
        return volume, {
            "voxels": float(volume.data.size),
            "array_bytes": float(volume.data.nbytes),
        }


@dataclass
class PlanarViewStage:
    """Cross-section → planar point-of-view change (Fig 7d)."""

    name: str = field(default="planar_views", init=False)
    version: str = field(default="1", init=False)

    def __call__(self, data: AlignedVolume) -> tuple[dict, dict[str, float]]:
        views = planar_views(data)
        return views, {
            "layers": float(len(views)),
            "array_bytes": float(sum(v.nbytes for v in views.values())),
        }


@dataclass
class SegmentStage:
    """Intensity classification of planar views into per-layer masks.

    Wraps :meth:`repro.reveng.features.PlanarFeatures.from_views`; imported
    lazily to keep :mod:`repro.pipeline` free of a reveng dependency.
    """

    config: PipelineConfig
    pixel_nm: float
    sem: Any = None
    origin_x_nm: float = 0.0
    origin_y_nm: float = 0.0
    name: str = field(default="segment", init=False)
    version: str = field(default="1", init=False)

    def __call__(self, data: dict) -> tuple[Any, dict[str, float]]:
        from repro.reveng.features import PlanarFeatures

        features = PlanarFeatures.from_views(
            data,
            pixel_nm=self.pixel_nm,
            sem=self.sem,
            origin_x_nm=self.origin_x_nm,
            origin_y_nm=self.origin_y_nm,
            tolerance=self.config.segment_tolerance,
        )
        notes = {"mask_px": float(sum(int(m.sum()) for m in features.masks.values()))}
        return features, notes
