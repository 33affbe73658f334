"""Parametric chip catalog: variant registry + enumerator + population runs.

The catalog turns the single-chip substrate into a *population* tool
(§V studies six real chips; fuzz campaigns want hundreds of synthetic
ones):

* :class:`ChipVariantSpec` names one synthetic chip along the population
  axes (vendor profile, DDR4/DDR5 process preset, topology family, word
  size, column-mux ratio, body-tap placement, noise regime, fault plan);
* :func:`register_variant` / :func:`variant_builder` are the named
  builder registry lowering variants to
  :class:`~repro.layout.generator.SaRegionSpec` ground truth;
* :class:`CatalogSpec` + :func:`expand_grid` / :func:`sample` enumerate
  deterministic variant populations;
* :func:`run_catalog_campaign` runs them through the unchanged campaign
  substrate and scores the population into a ``catalog-report/1``
  :class:`CatalogReport`.

CLI: ``python -m repro catalog``; perf probe: ``python -m repro.perf
--catalog``.
"""

from repro import _lazy_exports

#: exported name -> defining module, imported on the first access of the name
_EXPORTS = {
    "NOISE_REGIMES": "repro.catalog.variants",
    "PROCESS_PRESETS": "repro.catalog.variants",
    "VENDOR_PROFILES": "repro.catalog.variants",
    "ChipVariantSpec": "repro.catalog.variants",
    "ProcessPreset": "repro.catalog.variants",
    "VendorProfile": "repro.catalog.variants",
    "build_region_spec": "repro.catalog.variants",
    "chip_variant": "repro.catalog.variants",
    "register_variant": "repro.catalog.variants",
    "registered_variants": "repro.catalog.variants",
    "variant_builder": "repro.catalog.variants",
    "CatalogSpec": "repro.catalog.grid",
    "expand_grid": "repro.catalog.grid",
    "sample": "repro.catalog.grid",
    "REPORT_SCHEMA_VERSION": "repro.catalog.campaign",
    "CatalogReport": "repro.catalog.campaign",
    "VariantScore": "repro.catalog.campaign",
    "build_job": "repro.catalog.campaign",
    "catalog_pipeline_config": "repro.catalog.campaign",
    "population_summary": "repro.catalog.campaign",
    "run_catalog_campaign": "repro.catalog.campaign",
    "score_variant": "repro.catalog.campaign",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, globals(), _EXPORTS)
