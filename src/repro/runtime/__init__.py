"""Campaign runtime: parallel multi-chip RE with stage caching.

The paper's §IV campaigns are serial and expensive (>24 h per scan, six
chips one at a time).  This package gives the reproduction a campaign
engine that is neither:

* :mod:`repro.runtime.campaign` — :class:`ChipJob` work orders,
  process-pool fan-out (:func:`run_campaign`) and the instrumented
  :class:`CampaignReport`;
* :mod:`repro.runtime.engine` — the per-chip stage-graph executor
  (layout → voxelize → [roi] → acquire → denoise → align → assemble →
  reveng) with per-stage wall time / cache / bytes metrics;
* :mod:`repro.runtime.cache` — the content-addressed on-disk stage cache;
* :mod:`repro.runtime.hashing` — stable parameter hashing behind the
  cache keys;
* :mod:`repro.runtime.shard` — the slice-shard executor: the second
  scheduling level that fans per-slice stage work (acquire imaging,
  denoise, QC) out over a shared process pool, bit-identical to the
  serial path (enable via ``PipelineConfig.shard``);
* :mod:`repro.runtime.dataplane` — the zero-copy data plane under the
  shard executor: ndarray payloads cross the pool boundary as
  ``multiprocessing.shared_memory`` segments described by
  :class:`ShmHeader` records, ref-counted per process and unlinked on
  every exit path (select via ``ShardPlan.data_plane``; falls back to
  in-band pickle when shared memory is unavailable).

Resilience (fault plans, QC gates, retry, quarantine) rides on the same
surfaces: :class:`ChipJob.fault_plan`, :class:`ResiliencePolicy` on
:func:`run_campaign`, and :class:`QuarantineRecord` entries on the
(partial) :class:`CampaignReport`.
"""

from repro import _lazy_exports

#: exported name -> defining module, imported on the first access of the
#: name ("module:attribute" where the export renames it)
_EXPORTS = {
    "DEFAULT_BLOB_MIN_BYTES": "repro.runtime.cache",
    "DataPlaneError": "repro.runtime.dataplane",
    "SegmentRegistry": "repro.runtime.dataplane",
    "ShmHeader": "repro.runtime.dataplane",
    "StageCache": "repro.runtime.cache",
    "dataplane_available": "repro.runtime.dataplane:available",
    "process_registry": "repro.runtime.dataplane",
    "reap_leaked": "repro.runtime.dataplane",
    "CampaignReport": "repro.runtime.campaign",
    "ChipJob": "repro.runtime.campaign",
    "ChipRun": "repro.runtime.campaign",
    "QuarantineRecord": "repro.runtime.campaign",
    "REPORT_SCHEMA_VERSION": "repro.runtime.campaign",
    "ResiliencePolicy": "repro.runtime.engine",
    "campaign_config_provenance": "repro.runtime.campaign",
    "default_workers": "repro.runtime.campaign",
    "usable_cpus": "repro.runtime.campaign",
    "run_campaign": "repro.runtime.campaign",
    "STAGE_VERSIONS": "repro.runtime.engine",
    "StageMetrics": "repro.runtime.engine",
    "cached_depth": "repro.runtime.engine",
    "run_chip_stages": "repro.runtime.engine",
    "canonicalize": "repro.runtime.hashing",
    "chain_key": "repro.runtime.hashing",
    "stable_hash": "repro.runtime.hashing",
    "payload_nbytes": "repro.runtime.shard",
    "shard_map": "repro.runtime.shard",
    "shutdown_shard_pools": "repro.runtime.shard",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, globals(), _EXPORTS)
