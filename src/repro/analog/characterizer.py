"""The analog characterization sweep engine.

The paper's model-fidelity argument (§VI) needs sense-amp figures of
merit — offset tolerance, sensing/restore latency, switched energy, and
Monte-Carlo yield — across *sweeps*: device corners, topologies
(classic vs OCSA) and bitline geometries.  The related characterizer
subsystems (AMC, OpenNVRAM) run such sweeps as external SPICE job farms;
here each sweep cell is an in-process campaign job:

* a :class:`SweepCell` is one (topology, corner, bitline-cap) grid point
  of a :class:`~repro.analog.spec.CharacterizationSpec`;
* a :class:`CharacterizationJob` wraps it for the campaign runtime by
  providing its own two-stage chain (``char_nominal`` → ``char_mc``)
  via ``build_stages`` — the duck-typed extension point of
  :func:`repro.runtime.engine.build_stage_chain`;
* :func:`characterize` fans the grid out through
  :func:`~repro.runtime.campaign.run_campaign`, so sweeps inherit the
  content-addressed stage cache (re-running a sweep recomputes nothing;
  widening an axis recomputes only the new cells), the process-pool
  fan-out, quarantine-on-failure and the ``repro.obs`` spans/metrics —
  none of which the analog code reimplements.

Inside each cell everything runs on the batched solver in two
:meth:`~repro.analog.sense_amp.SenseAmpBench.run_batch` calls: one for
the nominal activation plus both offset-tolerance ladders (the stored
value is per instance), one for all Monte-Carlo trials.

The result surface is the versioned ``characterization-report/1``
JSON (:class:`CharacterizationReport`), following the same
schema-family conventions as ``campaign-report/3``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.analog.metrics import (
    latency_stats,
    restore_latency_ns,
    sensing_latency_ns,
    switched_energy_fj,
)
from repro.analog.montecarlo import YieldResult, _yield_for
from repro.analog.sense_amp import ActivationOutcome, SenseAmpBench
from repro.analog.spec import CharacterizationSpec, DeviceCorner
from repro.circuits.topologies import SaTopology
from repro.core.report import render_table
from repro.errors import AnalogError, CampaignError, CharacterizationError
from repro.faults import FaultPlan
from repro.obs import ObsConfig, current_metrics
from repro.pipeline.config import PipelineConfig
from repro.runtime.campaign import CampaignReport, QuarantineRecord, run_campaign
from repro.runtime.engine import ResiliencePolicy, _StageDef
from repro.runtime.hashing import canonicalize

#: serialization schema of :meth:`CharacterizationReport.to_dict`
REPORT_SCHEMA_VERSION = "characterization-report/1"

_READABLE_SCHEMA_VERSIONS = (REPORT_SCHEMA_VERSION,)


def _json_float(value: float) -> float | None:
    """A float for JSON: ``None`` replaces non-finite values (NaN marks a
    failed trial / never-separated bitline) so reports stay valid JSON."""
    v = float(value)
    return v if math.isfinite(v) else None


def _from_json_float(value: Any) -> float:
    return float("nan") if value is None else float(value)


@dataclass(frozen=True)
class SweepCell:
    """One grid point of a characterization sweep."""

    name: str
    topology: SaTopology
    corner: DeviceCorner
    bitline_cap_f: float


def sweep_cells(spec: CharacterizationSpec) -> list[SweepCell]:
    """The topology × corner × bitline grid of *spec*, in axis order.

    Cell names are unique (campaign jobs require it): the bitline index
    joins the name only when that axis has more than one point.
    """
    axis = spec.bitline_axis()
    cells: list[SweepCell] = []
    for topology in spec.topologies:
        for corner in spec.corners:
            for i, cap in enumerate(axis):
                name = f"{topology.value}-{corner.name}"
                if len(axis) > 1:
                    name += f"-bl{i}"
                cells.append(SweepCell(name, topology, corner, cap))
    return cells


@dataclass(frozen=True)
class CellResult:
    """Figures of merit of one sweep cell.

    Plain floats, tuples, enums and the :class:`YieldResult` only — the
    result pickles across the campaign pool and canonicalizes for the
    stage cache (NaN latencies become ``"float:nan"`` sentinels there).
    """

    name: str
    topology: SaTopology
    corner: str
    bitline_cap_f: float
    #: mismatch-free figures; NaN when the bitlines never separated /
    #: the cell never restored (e.g. a hopeless corner)
    sensing_latency_ns: float
    restore_latency_ns: float
    switched_energy_fj: float
    #: largest scanned latch Vt mismatch (V) sensed correctly for *both*
    #: data values — the §V-A margin OCSA widens
    offset_tolerance_v: float
    sense_yield: YieldResult

    @property
    def yield_fraction(self) -> float:
        return self.sense_yield.yield_fraction

    def latency_stats(self) -> dict[str, float]:
        """Mean/p95/worst over the Monte-Carlo latency vector."""
        return latency_stats(self.sense_yield.latencies_ns)

    def campaign_summary(self) -> dict:
        """The headline dict :meth:`ChipRun.result_summary` duck-calls."""
        return {
            "topology": self.topology.value,
            "corner": self.corner,
            "bitline_cap_f": self.bitline_cap_f,
            "yield": self.sense_yield.yield_fraction,
            "sensing_latency_ns": _json_float(self.sensing_latency_ns),
            "offset_tolerance_v": self.offset_tolerance_v,
        }

    def to_dict(self) -> dict:
        stats = self.latency_stats()
        return {
            "name": self.name,
            "topology": self.topology.value,
            "corner": self.corner,
            "bitline_cap_f": self.bitline_cap_f,
            "sensing_latency_ns": _json_float(self.sensing_latency_ns),
            "restore_latency_ns": _json_float(self.restore_latency_ns),
            "switched_energy_fj": self.switched_energy_fj,
            "offset_tolerance_v": self.offset_tolerance_v,
            "yield": {
                "sigma_mv": self.sense_yield.sigma_mv,
                "trials": self.sense_yield.samples,
                "failures": self.sense_yield.failures,
                "yield_fraction": self.sense_yield.yield_fraction,
                "deadline_ns": self.sense_yield.deadline_ns,
                "latencies_ns": [
                    _json_float(v) for v in self.sense_yield.latencies_ns
                ],
                "latency_mean_ns": _json_float(stats["mean_ns"]),
                "latency_p95_ns": _json_float(stats["p95_ns"]),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        y = data.get("yield", {})
        return cls(
            name=str(data["name"]),
            topology=SaTopology(data["topology"]),
            corner=str(data["corner"]),
            bitline_cap_f=float(data["bitline_cap_f"]),
            sensing_latency_ns=_from_json_float(data.get("sensing_latency_ns")),
            restore_latency_ns=_from_json_float(data.get("restore_latency_ns")),
            switched_energy_fj=float(data.get("switched_energy_fj", 0.0)),
            offset_tolerance_v=float(data.get("offset_tolerance_v", 0.0)),
            sense_yield=YieldResult(
                topology=SaTopology(data["topology"]),
                sigma_mv=float(y.get("sigma_mv", 0.0)),
                samples=int(y.get("trials", 1)),
                failures=int(y.get("failures", 0)),
                deadline_ns=y.get("deadline_ns"),
                latencies_ns=tuple(
                    _from_json_float(v) for v in y.get("latencies_ns", [])
                ),
            ),
        )


def _nominal_layout(spec: CharacterizationSpec) -> list[tuple[int, float, str]]:
    """``(data, latch mismatch V, label)`` of every instance in a cell's
    one ``char_nominal`` batch: the mismatch-free run with ``spec.data``,
    then the offset ladder for data 0 and for data 1, each ascending."""
    layout = [(spec.data, 0.0, "nominal")]
    for data in (0, 1):
        layout += [
            (data, mv / 1000.0, f"data-{data} rung at {mv:g} mV")
            for mv in spec.offset_scan_mv
        ]
    return layout


def _nan_on_analog_error(fn, outcome: ActivationOutcome) -> float:
    try:
        return float(fn(outcome))
    except AnalogError:
        return float("nan")


@dataclass(frozen=True)
class CharacterizationJob:
    """One sweep cell as a campaign job.

    Quacks like :class:`~repro.runtime.campaign.ChipJob` where the
    campaign runtime cares (``name``, ``fault_plan``, ``build_stages``)
    and supplies its own two-stage chain:

    ``char_nominal``
        one mismatch-free activation plus the data-0 and data-1
        offset-tolerance ladders, as one batch laid out by
        :func:`_nominal_layout` (cache params: the cell + the
        bench-affecting spec fields);
    ``char_mc``
        the Monte-Carlo yield batch, keyed on top of the nominal stage
        by the MC-only fields, producing the :class:`CellResult`.

    A converged-less solver raises :class:`CharacterizationError`
    (a :class:`StageError`) naming the runs that failed, so the campaign
    quarantines the cell and the rest of the sweep completes.
    """

    name: str
    cell: SweepCell
    spec: CharacterizationSpec
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("characterization job needs a name")

    def _bench(self) -> SenseAmpBench:
        return SenseAmpBench(
            self.spec.bench_config(
                self.cell.topology, self.cell.corner, self.cell.bitline_cap_f
            )
        )

    def build_stages(
        self, config: PipelineConfig, policy: ResiliencePolicy
    ) -> list[_StageDef]:
        cell, spec, plan = self.cell, self.spec, self.fault_plan

        def run_nominal(ctx: dict) -> tuple[dict, dict[str, float]]:
            if plan is not None and plan.active:
                # Fault plans model imaging acquisition defects; there is
                # nothing honest to inject into an analog solve, and
                # silently ignoring the request would misreport the run.
                raise CharacterizationError(
                    "fault plans target the imaging acquisition and do not "
                    "apply to analog characterization cells",
                    chip_id=self.name,
                    stage="char_nominal",
                )
            layout = _nominal_layout(spec)
            try:
                outcomes = self._bench().run_batch(
                    [data for data, _v, _label in layout],
                    [level_v for _data, level_v, _label in layout],
                    dt_ns=spec.dt_ns,
                    max_newton=spec.max_newton,
                )
            except AnalogError as exc:
                failed = [layout[i][2] for i in getattr(exc, "instances", None) or ()]
                runs = f" (failed runs: {', '.join(failed)})" if failed else ""
                raise CharacterizationError(
                    f"sweep cell failed to simulate{runs}: {exc}",
                    chip_id=self.name,
                    stage="char_nominal",
                    details={"cell": cell.name, "failed_runs": failed},
                ) from exc
            outcome = outcomes[0]
            n_rungs = len(spec.offset_scan_mv)
            tolerance = math.inf
            for start in (1, 1 + n_rungs):
                ladder = slice(start, start + n_rungs)
                passing = 0.0
                for (_data, level_v, _label), step in zip(layout[ladder], outcomes[ladder]):
                    if not step.correct:
                        break
                    passing = level_v
                tolerance = min(tolerance, passing)
            nominal = {
                "sensing_latency_ns": _nan_on_analog_error(sensing_latency_ns, outcome),
                "restore_latency_ns": _nan_on_analog_error(restore_latency_ns, outcome),
                "switched_energy_fj": switched_energy_fj(outcome),
                "offset_tolerance_v": tolerance,
            }
            notes = {
                k: v for k, v in nominal.items() if math.isfinite(v)
            }
            notes["offset_ladder_runs"] = float(len(layout))
            return {"nominal": nominal}, notes

        def run_mc(ctx: dict) -> tuple[dict, dict[str, float]]:
            bench = self._bench()
            try:
                sense_yield = _yield_for(bench, spec, cell.topology)
            except AnalogError as exc:
                raise CharacterizationError(
                    f"Monte-Carlo batch failed to simulate: {exc}",
                    chip_id=self.name,
                    stage="char_mc",
                    details={"cell": cell.name, "trials": spec.trials},
                ) from exc
            result = CellResult(
                name=self.name,
                topology=cell.topology,
                corner=cell.corner.name,
                bitline_cap_f=cell.bitline_cap_f,
                sense_yield=sense_yield,
                **ctx["nominal"],
            )
            return {"result": result}, {
                "yield": sense_yield.yield_fraction,
                "trials": float(sense_yield.samples),
                "failures": float(sense_yield.failures),
            }

        # Cache keys: the nominal stage is keyed by the cell plus every
        # bench-affecting spec field; the MC stage chains on top of it and
        # adds only the MC-only fields — so bumping `trials` re-runs just
        # char_mc, while changing `vdd` re-runs the whole cell.
        token = self.spec.cell_token()
        mc_keys = ("trials", "sigma_mv", "seed", "deadline_ns")
        nominal_params = {
            "cell": canonicalize(cell),
            "spec": {k: v for k, v in token.items() if k not in mc_keys},
        }
        mc_params = {k: token[k] for k in mc_keys}
        return [
            _StageDef("char_nominal", nominal_params, run_nominal),
            _StageDef("char_mc", mc_params, run_mc),
        ]


@dataclass
class CharacterizationReport:
    """Everything one characterization sweep produced.

    ``cells`` holds completed cells in job order; ``quarantined`` the
    cells whose solve failed.  Serializes through :meth:`to_json` /
    :meth:`from_json` under ``characterization-report/1``; deserialized
    reports rebuild full :class:`CellResult` objects (cell results are
    plain data, unlike the imaging campaign's pickled chips) but carry
    ``spec=None`` and ``campaign=None``.
    """

    cells: dict[str, CellResult]
    workers: int
    wall_seconds: float
    cache_dir: str | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    quarantined: dict[str, QuarantineRecord] | None = None
    #: the spec that produced the sweep (None on deserialized reports)
    spec: CharacterizationSpec | None = None
    #: the underlying campaign telemetry — stage metrics, spans, metrics
    #: snapshot (None on deserialized reports)
    campaign: CampaignReport | None = None

    def __post_init__(self) -> None:
        if self.quarantined is None:
            self.quarantined = {}

    def cell(self, name: str) -> CellResult:
        """One cell's result; explains itself when the cell failed."""
        try:
            return self.cells[name]
        except KeyError:
            if name in (self.quarantined or {}):
                record = self.quarantined[name]
                raise CampaignError(
                    f"sweep cell {name!r} was quarantined: {record.message}"
                ) from None
            raise CampaignError(f"no sweep cell named {name!r}") from None

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined)

    def render(self) -> str:
        """ASCII figure-of-merit table, one row per sweep cell."""
        def fmt(v: float, unit: str = "") -> str:
            return "-" if not math.isfinite(v) else f"{v:.3g}{unit}"

        rows = []
        for name, cell in self.cells.items():
            rows.append([
                name,
                cell.corner,
                f"{cell.bitline_cap_f * 1e15:.0f}fF",
                fmt(cell.sensing_latency_ns, "ns"),
                fmt(cell.restore_latency_ns, "ns"),
                fmt(cell.switched_energy_fj, "fJ"),
                fmt(cell.offset_tolerance_v * 1000.0, "mV"),
                f"{cell.yield_fraction:.2%}",
            ])
        for name, record in (self.quarantined or {}).items():
            rows.append([
                name, "?", "", "", "", "", "",
                f"QUARANTINED: {record.error_type}"[:32],
            ])
        title = (
            f"characterization: {len(self.cells)} cells, "
            f"workers={self.workers}, wall {self.wall_seconds:.2f}s, "
            f"cache {self.cache_hits} hit / {self.cache_misses} miss"
        )
        if self.quarantined:
            title += f", {len(self.quarantined)} quarantined"
        return render_table(
            ["cell", "corner", "bl cap", "sense", "restore", "energy",
             "offset", "yield"],
            rows,
            title=title,
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "spec": canonicalize(self.spec) if self.spec is not None else None,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "cache_dir": self.cache_dir,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "degraded": self.degraded,
            "cells": {name: cell.to_dict() for name, cell in self.cells.items()},
            "quarantined": {
                name: record.to_dict()
                for name, record in (self.quarantined or {}).items()
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: "str | Path") -> Path:
        target = Path(path)
        target.write_text(self.to_json() + "\n")
        return target

    @classmethod
    def from_dict(cls, data: dict) -> "CharacterizationReport":
        version = data.get("schema_version")
        if version not in _READABLE_SCHEMA_VERSIONS:
            raise CampaignError(
                f"unsupported characterization report schema {version!r} "
                f"(this build reads {', '.join(map(repr, _READABLE_SCHEMA_VERSIONS))})"
            )
        return cls(
            cells={
                name: CellResult.from_dict(cell)
                for name, cell in data.get("cells", {}).items()
            },
            workers=int(data.get("workers", 1)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            cache_dir=data.get("cache_dir"),
            cache_hits=int(data.get("cache_hits", 0)),
            cache_misses=int(data.get("cache_misses", 0)),
            quarantined={
                name: QuarantineRecord.from_dict(record)
                for name, record in data.get("quarantined", {}).items()
            },
        )

    @classmethod
    def from_json(cls, text: str) -> "CharacterizationReport":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(
                f"malformed characterization report JSON: {exc}"
            ) from None
        if not isinstance(data, dict):
            raise CampaignError("characterization report JSON must be an object")
        return cls.from_dict(data)


def characterize(
    spec: CharacterizationSpec | None = None,
    *,
    workers: int | None = None,
    cache_dir: "str | Path | None" = None,
    policy: ResiliencePolicy | None = None,
    obs: ObsConfig | None = None,
    config: PipelineConfig | None = None,
    pool=None,
    cancel=None,
    bus=None,
) -> CharacterizationReport:
    """Characterize every sweep cell of *spec* through the campaign runtime.

    Inherits the whole substrate: ``workers`` fans cells across a process
    pool; ``cache_dir`` makes re-runs hit the stage cache (a repeated
    sweep recomputes nothing, a widened axis recomputes only new cells);
    ``policy`` adds per-cell timeouts; ``obs`` records spans/metrics.
    Cells whose solve fails are quarantined, not fatal — check
    :attr:`CharacterizationReport.degraded`.  ``pool``/``cancel``/``bus``
    are the serve-daemon seams, passed straight through to
    :func:`~repro.runtime.campaign.run_campaign`.
    """
    spec = spec or CharacterizationSpec()
    jobs = [
        CharacterizationJob(name=cell.name, cell=cell, spec=spec)
        for cell in sweep_cells(spec)
    ]
    campaign = run_campaign(
        jobs,
        config=config,
        workers=workers,
        cache_dir=cache_dir,
        policy=policy,
        obs=obs,
        pool=pool,
        cancel=cancel,
        bus=bus,
    )
    cells = {
        name: run.result
        for name, run in campaign.chips.items()
        if run.result is not None
    }
    live = current_metrics()
    if live.enabled:
        live.counter("repro_char_cells_total").inc(len(cells))
    if campaign.metrics is not None:
        counters = campaign.metrics.setdefault("counters", {})
        counters["repro_char_cells_total"] = (
            counters.get("repro_char_cells_total", 0.0) + len(cells)
        )
    return CharacterizationReport(
        cells=cells,
        workers=campaign.workers,
        wall_seconds=campaign.wall_seconds,
        cache_dir=campaign.cache_dir,
        cache_hits=campaign.cache_hits,
        cache_misses=campaign.cache_misses,
        quarantined=dict(campaign.quarantined),
        spec=spec,
        campaign=campaign,
    )


__all__ = [
    "REPORT_SCHEMA_VERSION",
    "SweepCell",
    "sweep_cells",
    "CellResult",
    "CharacterizationJob",
    "CharacterizationReport",
    "characterize",
]
