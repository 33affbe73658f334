"""HiFi-DRAM reproduction library.

A full-system reproduction of *HiFi-DRAM: Enabling High-fidelity DRAM
Research by Uncovering Sense Amplifiers with IC Imaging* (ISCA 2024):

* :mod:`repro.core` — the six-chip dataset and the §VI research audit
  (model accuracy, Table II overhead errors, recommendations R1–R4);
* :mod:`repro.layout` — SA-region layout substrate + ground-truth
  generator + GDSII I/O;
* :mod:`repro.circuits` — netlists, the classic-SA and OCSA reference
  topologies, topology identification;
* :mod:`repro.analog` — MNA transient solver (scalar and Monte-Carlo
  batched), sense-amplifier testbenches (Fig 2c / Fig 9b event
  sequences, offset tolerance) and the corner × topology × bitline
  characterization engine behind :class:`CharacterizationSpec` /
  :func:`characterize`;
* :mod:`repro.imaging` — simulated SEM/FIB acquisition (the hardware-gated
  part of the paper, substituted per DESIGN.md);
* :mod:`repro.pipeline` — §IV-C post-processing: TV denoising, mutual
  information alignment, planar reslicing, segmentation;
* :mod:`repro.reveng` — §V reverse engineering: connectivity extraction,
  transistor classification, measurements, end-to-end workflows.

* :mod:`repro.runtime` — multi-chip campaign engine: process-pool
  fan-out, content-addressed stage caching, per-stage instrumentation,
  QC-gated retries, per-chip timeouts and chip quarantine;
* :mod:`repro.faults` — deterministic seeded acquisition fault injection
  (dropped slices, saturation/blackout, drift spikes, milling overshoot,
  blur bursts) behind :class:`FaultPlan`;
* :mod:`repro.obs` — campaign observability: hierarchical span tracing
  (Chrome-trace exportable), a metrics registry merged across workers,
  and JSON-lines structured logging, all off (and free) by default;
* :mod:`repro.catalog` — parametric chip catalog: an options-driven
  variant registry (vendor profile x process generation x topology x
  word size x column mux x body taps x noise regime) that lowers
  :class:`ChipVariantSpec` axes to layout specs, enumerates or samples
  deterministic variant populations and scores hundred-chip fuzz
  campaigns into versioned ``catalog-report/1`` JSON.

Quick start::

    from repro import SaRegionSpec, generate_sa_region, reverse_engineer_cell

    cell = generate_sa_region(SaRegionSpec(topology="ocsa"))
    result = reverse_engineer_cell(cell)
    assert result.topology.value == "ocsa"

Multi-chip campaign (parallel, cached)::

    from repro import ChipJob, PipelineConfig, run_campaign

    jobs = [ChipJob.synthetic("fab-a", "classic"), ChipJob.synthetic("fab-b", "ocsa")]
    report = run_campaign(jobs, workers=2, cache_dir=".stage-cache")
    assert report.result("fab-b").topology.value == "ocsa"

Analog characterization sweep (batched solver, campaign-cached)::

    from repro import CharacterizationSpec, characterize

    spec = CharacterizationSpec(corners=("TT", "SS"), trials=64)
    report = characterize(spec, cache_dir=".stage-cache")
    print(report.render())

Chip-catalog fuzz campaign (deterministic population, scored)::

    from repro import CatalogSpec, run_catalog_campaign, sample

    variants = sample(CatalogSpec(), 100, seed=0)
    report = run_catalog_campaign(variants, workers=4, cache_dir=".stage-cache")
    print(report.render())
"""

import importlib
from typing import Any, Callable

__version__ = "1.9.0"


def _lazy_exports(
    package: str, namespace: dict[str, Any], exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a lazy package facade.

    *exports* maps each exported name to the module that defines it
    (``"module:attribute"`` for a rename).  The first access of a name
    imports its module and caches the value in *namespace*, the package's
    globals, so later reads never reach ``__getattr__`` again.
    """

    def __getattr__(name: str) -> Any:
        try:
            module, _, attribute = exports[name].partition(":")
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), attribute or name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


#: exported name -> defining module, imported on the first access of the name
_EXPORTS = {
    "BatchedTransientSolver": "repro.analog.solver",
    "CatalogReport": "repro.catalog.campaign",
    "CatalogSpec": "repro.catalog.grid",
    "ChipVariantSpec": "repro.catalog.variants",
    "build_region_spec": "repro.catalog.variants",
    "expand_grid": "repro.catalog.grid",
    "register_variant": "repro.catalog.variants",
    "run_catalog_campaign": "repro.catalog.campaign",
    "sample": "repro.catalog.grid",
    "CharacterizationReport": "repro.analog.characterizer",
    "CharacterizationSpec": "repro.analog.spec",
    "DeviceCorner": "repro.analog.spec",
    "characterize": "repro.analog.characterizer",
    "SaTopology": "repro.circuits.topologies",
    "build_classic_sa": "repro.circuits.topologies",
    "build_ocsa": "repro.circuits.topologies",
    "identify_topology": "repro.circuits.matching",
    "CHIPS": "repro.core.chips",
    "CROW": "repro.core.models",
    "REM": "repro.core.models",
    "chip": "repro.core.chips",
    "model_accuracy_report": "repro.core.model_accuracy",
    "table2_rows": "repro.core.overheads",
    "SaRegionSpec": "repro.layout.generator",
    "generate_sa_region": "repro.layout.generator",
    "PipelineConfig": "repro.pipeline.config",
    "ShardPlan": "repro.pipeline.config",
    "ReversedChip": "repro.reveng.workflow",
    "reverse_engineer_cell": "repro.reveng.workflow",
    "reverse_engineer_stack": "repro.reveng.workflow",
    "CampaignReport": "repro.runtime.campaign",
    "ChipJob": "repro.runtime.campaign",
    "run_campaign": "repro.runtime.campaign",
    "FaultPlan": "repro.faults",
    "ResiliencePolicy": "repro.runtime.engine",
    "ObsConfig": "repro.obs",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _lazy_exports(__name__, globals(), _EXPORTS)
