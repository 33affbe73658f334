"""The campaign runtime: fan-out determinism and stage caching.

The campaigns here use deliberately cheap pipeline settings (fewer TV
iterations, a smaller MI search window, 1-pair regions) — orchestration
behaviour is what is under test; full-fidelity numbers are covered by the
end-to-end workflow tests and benches.
"""

import dataclasses
import pickle
from collections.abc import MutableMapping

import pytest

from repro.analog.characterizer import characterize
from repro.analog.spec import CharacterizationSpec
from repro.circuits.topologies import SaTopology
from repro.errors import CampaignError
from repro.faults import FaultPlan
from repro.imaging import FibSemCampaign, SemParameters
from repro.layout import SaRegionSpec
from repro.pipeline import PipelineConfig
from repro.runtime import CampaignReport, ChipJob, ResiliencePolicy, run_campaign
from repro.runtime.cache import StageCache
from repro.runtime.engine import build_stage_chain, chain_keys, execute_chain
from repro.runtime.hashing import stable_hash

FAST = PipelineConfig(denoise_iterations=10, align_search_px=2, align_baselines=(1, 2))


def _jobs() -> list[ChipJob]:
    campaign = FibSemCampaign(
        slice_thickness_nm=12.0, sem=SemParameters(dwell_time_us=6.0)
    )
    return [
        ChipJob(name="fab-classic",
                spec=SaRegionSpec(name="rt_classic", topology="classic", n_pairs=1),
                campaign=campaign),
        ChipJob(name="fab-ocsa",
                spec=SaRegionSpec(name="rt_ocsa", topology="ocsa", n_pairs=1),
                campaign=campaign),
    ]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("stage-cache")


@pytest.fixture(scope="module")
def serial_report(cache_dir):
    """Cold serial run of the 2-chip campaign, populating the cache."""
    return run_campaign(_jobs(), config=FAST, workers=1, cache_dir=cache_dir)


class TestCampaignResults:
    def test_topologies_recovered(self, serial_report):
        assert serial_report.result("fab-classic").topology is SaTopology.CLASSIC
        assert serial_report.result("fab-ocsa").topology is SaTopology.OCSA

    def test_validation_attached(self, serial_report):
        for result in serial_report.results().values():
            assert result.validation is not None and result.validation.complete

    def test_job_order_preserved(self, serial_report):
        assert list(serial_report.chips) == ["fab-classic", "fab-ocsa"]

    def test_stage_metrics_present(self, serial_report):
        run = serial_report.chips["fab-ocsa"]
        assert [s.stage for s in run.stages] == [
            "layout", "voxelize", "acquire", "denoise", "align", "assemble", "reveng",
        ]
        assert all(s.seconds >= 0 for s in run.stages)
        assert all(s.payload_bytes > 0 for s in run.stages)

    def test_pipeline_notes_populated(self, serial_report):
        notes = serial_report.result("fab-ocsa").pipeline_notes
        for key in ("alignment_residual_fraction", "slices", "beam_time_hours",
                    "devices_extracted", "lanes_matched"):
            assert key in notes


class TestParallelEquivalence:
    def test_parallel_matches_serial(self, serial_report):
        """Process-pool fan-out is bit-identical to the serial path."""
        parallel = run_campaign(_jobs(), config=FAST, workers=2, cache_dir=None)
        assert parallel.workers == 2
        for name in ("fab-classic", "fab-ocsa"):
            a, b = serial_report.result(name), parallel.result(name)
            assert a.topology is b.topology
            assert a.lanes_matched == b.lanes_matched
            assert a.pipeline_notes == b.pipeline_notes
            assert pickle.dumps(a.measurements) == pickle.dumps(b.measurements)
            assert a.validation.max_relative_error() == b.validation.max_relative_error()


class TestStageCacheBehaviour:
    def test_cold_run_misses_everything(self, serial_report):
        assert serial_report.cache_hits == 0
        assert serial_report.cache_misses == 14  # 7 stages x 2 chips

    def test_warm_run_executes_nothing(self, serial_report, cache_dir):
        warm = run_campaign(_jobs(), config=FAST, workers=1, cache_dir=cache_dir)
        assert warm.cache_misses == 0
        assert warm.stages_executed == 0
        # Upstream imaging/pipeline stages were skipped outright: only the
        # final reveng entry is ever loaded.
        for run in warm.chips.values():
            dispositions = {s.stage: s.disposition for s in run.stages}
            assert dispositions["reveng"] == "hit"
            for stage in ("layout", "voxelize", "acquire", "denoise", "align", "assemble"):
                assert dispositions[stage] == "skip"
        # ... and the cached results equal the originals.
        for name in ("fab-classic", "fab-ocsa"):
            assert pickle.dumps(warm.result(name).measurements) == \
                pickle.dumps(serial_report.result(name).measurements)

    def test_segmentation_change_reruns_only_reveng(self, serial_report, cache_dir):
        """Changing a final-stage parameter re-executes only that stage."""
        tweaked = FAST.replaced(segment_tolerance=0.45)
        report = run_campaign(_jobs(), config=tweaked, workers=1, cache_dir=cache_dir)
        for run in report.chips.values():
            assert run.stages_executed == ["reveng"]

    def test_chunk_workers_do_not_change_cache_keys(self, serial_report, cache_dir):
        """chunk_workers is an execution knob: same results, same cache."""
        threaded = FAST.replaced(chunk_workers=2)
        report = run_campaign(_jobs(), config=threaded, workers=1, cache_dir=cache_dir)
        assert report.cache_misses == 0


class _RecordingCtx(MutableMapping):
    """A chain context that notes which stage produced each key a run reads."""

    def __init__(self, ctx: dict, owner: dict[str, str], seen: set[str]) -> None:
        self._ctx, self._owner, self._seen = ctx, owner, seen

    def __getitem__(self, key):
        if key in self._owner:
            self._seen.add(self._owner[key])
        return self._ctx[key]

    def __setitem__(self, key, value):
        self._ctx[key] = value

    def __delitem__(self, key):
        del self._ctx[key]

    def __iter__(self):
        self._seen.update(self._owner.values())
        return iter(self._ctx)

    def __len__(self):
        return len(self._ctx)


def _recorded_reads(job: ChipJob, policy: ResiliencePolicy | None = None):
    """Run *job*'s chain cold; return its stages and each stage's reads.

    A key in the engine's context belongs to the stage that ran last
    before it appeared: the payload, ``align_notes`` and any side channel
    a run writes.
    """
    owner: dict[str, str] = {}
    seen: dict[str, set[str]] = {}
    ran: list[str] = []

    def recording(stage):
        def run(ctx):
            for key in ctx:
                owner.setdefault(key, ran[-1])
            reads = seen.setdefault(stage.name, set())
            out = stage.run(_RecordingCtx(ctx, owner, reads))
            ran.append(stage.name)
            return out
        return dataclasses.replace(stage, run=run)

    stages = build_stage_chain(job, FAST, policy)
    execute_chain([recording(s) for s in stages], StageCache(None))
    assert ran == [s.name for s in stages]
    return stages, seen


class TestDeclaredReads:
    """Each imaging stage reads no earlier stage it does not declare."""

    @pytest.mark.parametrize("job, policy", [
        pytest.param(_jobs()[0], None, id="classic"),
        pytest.param(_jobs()[1], None, id="ocsa"),
        pytest.param(ChipJob(
            name="roi", spec=SaRegionSpec(name="rt_roi", topology="classic", n_pairs=1),
            campaign=_jobs()[0].campaign, mat_rows=6, roi_margin_nm=130.0,
            y_stop_nm=300.0,
        ), None, id="roi"),
        pytest.param(dataclasses.replace(
            _jobs()[0], y_stop_nm=300.0, fault_plan=FaultPlan(seed=1, drop_rate=0.04),
        ), ResiliencePolicy(max_retries=2, force_qc=True), id="faults-qc"),
        pytest.param(dataclasses.replace(_jobs()[1], validate=False), None,
                     id="no-validate"),
    ])
    def test_recorded_reads_within_declared(self, job, policy):
        stages, seen = _recorded_reads(job, policy)
        names = [s.name for s in stages]
        if job.roi_margin_nm is not None:
            assert "roi" in names
        for i, stage in enumerate(stages):
            declared = set(names[:i] if stage.reads is None else stage.reads)
            assert seen[stage.name] <= declared, stage.name
        reveng = stages[-1]
        assert ("layout" in reveng.reads) is job.validate

    def test_undeclared_read_rejected(self):
        stages = build_stage_chain(_jobs()[0], FAST)
        bad = stages[:2] + [dataclasses.replace(stages[2], reads=("reveng",))]
        with pytest.raises(CampaignError, match="not all earlier stages"):
            execute_chain(bad, StageCache(None))


class TestDemandLoading:
    """A warm re-run loads only the entries a stage that runs reads."""

    JOB = _jobs()[0]

    @pytest.fixture(scope="class")
    def warm_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("demand-cache")
        run_campaign([self.JOB], config=FAST, workers=1, cache_dir=path)
        return path

    @staticmethod
    def _spy_loads(monkeypatch, config, on_load=None):
        """Record the stage of every ``StageCache.load`` call."""
        stages = build_stage_chain(TestDemandLoading.JOB, config)
        names = dict(zip(chain_keys(stages), (s.name for s in stages)))
        loaded: list[str] = []
        real = StageCache.load

        def spy(cache, key):
            loaded.append(names[key])
            if on_load is not None:
                on_load(cache, names[key], key)
            return real(cache, key)

        monkeypatch.setattr(StageCache, "load", spy)
        return loaded

    def _cold(self, config):
        return run_campaign([self.JOB], config=config, workers=1).result(self.JOB.name)

    def test_segmentation_rerun_loads_layout_and_assemble(self, warm_dir, monkeypatch):
        config = FAST.replaced(segment_tolerance=0.41)
        loaded = self._spy_loads(monkeypatch, config)
        report = run_campaign([self.JOB], config=config, workers=1, cache_dir=warm_dir)
        assert loaded == ["layout", "assemble"]
        run = report.chips[self.JOB.name]
        assert {s.stage: s.disposition for s in run.stages} == {
            "layout": "hit", "voxelize": "skip", "acquire": "skip", "denoise": "skip",
            "align": "skip", "assemble": "hit", "reveng": "run",
        }
        assert (report.cache_hits, report.cache_misses) == (6, 1)
        assert pickle.dumps(report.result(self.JOB.name)) == pickle.dumps(self._cold(config))

    def test_denoise_change_loads_acquire_not_align(self, warm_dir, monkeypatch):
        config = FAST.replaced(denoise_iterations=9)
        loaded = self._spy_loads(monkeypatch, config)
        report = run_campaign([self.JOB], config=config, workers=1, cache_dir=warm_dir)
        assert sorted(loaded) == ["acquire", "layout", "voxelize"]
        assert report.chips[self.JOB.name].stages_executed == [
            "denoise", "align", "assemble", "reveng",
        ]

    def test_assemble_deleted_before_load_is_recomputed(self, warm_dir, monkeypatch):
        config = FAST.replaced(segment_tolerance=0.42)

        def evict_assemble(cache, stage, key):
            if stage == "assemble":
                cache.evict(key)

        loaded = self._spy_loads(monkeypatch, config, evict_assemble)
        report = run_campaign([self.JOB], config=config, workers=1, cache_dir=warm_dir)
        # assemble's reads load on demand, in order, then assemble reruns
        assert loaded == ["layout", "assemble", "voxelize", "acquire", "align"]
        run = report.chips[self.JOB.name]
        assert [s.stage for s in run.stages] == [s.name for s in build_stage_chain(
            self.JOB, config)]
        assert {s.stage: s.disposition for s in run.stages} == {
            "layout": "hit", "voxelize": "hit", "acquire": "hit", "denoise": "skip",
            "align": "hit", "assemble": "run", "reveng": "run",
        }
        assert pickle.dumps(report.result(self.JOB.name)) == pickle.dumps(self._cold(config))

    def test_corrupt_final_entry_is_recomputed(self, warm_dir):
        """A warm run whose cached result will not load recomputes it from
        the entries it reads instead of running reveng on an empty context."""
        config = FAST.replaced(segment_tolerance=0.43)
        run_campaign([self.JOB], config=config, workers=1, cache_dir=warm_dir)
        cache = StageCache(warm_dir)
        final = chain_keys(build_stage_chain(self.JOB, config))[-1]
        cache.path_for(final).write_bytes(b"not a pickle")
        report = run_campaign([self.JOB], config=config, workers=1, cache_dir=warm_dir)
        run = report.chips[self.JOB.name]
        assert run.stages_executed == ["reveng"]
        assert {s.stage: s.disposition for s in run.stages}["assemble"] == "hit"
        assert pickle.dumps(report.result(self.JOB.name)) == pickle.dumps(self._cold(config))


class TestCharacterizeWarmCache:
    """``build_stages`` chains keep ``reads=None``: every earlier stage."""

    SPEC = CharacterizationSpec(
        topologies=("classic",), corners=("TT",), trials=3,
        offset_scan_mv=(0.0, 100.0, 200.0),
    )

    def test_warm_and_changed_trials(self, tmp_path):
        cold = characterize(self.SPEC, cache_dir=tmp_path, workers=1)
        warm = characterize(self.SPEC, cache_dir=tmp_path, workers=1)
        (run,) = warm.campaign.chips.values()
        assert [s.disposition for s in run.stages] == ["skip", "hit"]
        assert stable_hash(warm.cells) == stable_hash(cold.cells)

        more = dataclasses.replace(self.SPEC, trials=4)
        rerun = characterize(more, cache_dir=tmp_path, workers=1)
        (run,) = rerun.campaign.chips.values()
        assert [s.disposition for s in run.stages] == ["hit", "run"]
        fresh = characterize(more, workers=1)
        assert stable_hash(rerun.cells) == stable_hash(fresh.cells)


class TestJobValidation:
    def test_empty_campaign_rejected(self):
        with pytest.raises(CampaignError):
            run_campaign([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(CampaignError, match="duplicate"):
            run_campaign(_jobs() + _jobs())

    def test_unnamed_job_rejected(self):
        with pytest.raises(CampaignError):
            ChipJob(name="", spec=SaRegionSpec(topology="classic"))

    def test_roi_requires_mat_context(self):
        with pytest.raises(CampaignError, match="mat_rows"):
            ChipJob(name="x", spec=SaRegionSpec(topology="classic"), roi_margin_nm=100.0)

    def test_unknown_result_name(self, serial_report):
        with pytest.raises(CampaignError):
            serial_report.result("nope")

    def test_for_chip_builds_table1_job(self):
        job = ChipJob.for_chip("b5", n_pairs=1)
        assert job.name == "B5"
        assert job.spec.topology == "ocsa"

    def test_render_mentions_cache_dispositions(self, serial_report):
        text = serial_report.render()
        assert "reveng" in text and "run" in text
        assert "2 chips" in text


def _three_jobs(poison: FaultPlan | None = None) -> list[ChipJob]:
    """Three short-stack chips; ``poison`` lands on the middle one."""
    campaign = FibSemCampaign(sem=SemParameters(dwell_time_us=6.0))
    specs = [("res-a", "classic"), ("res-b", "ocsa"), ("res-c", "classic")]
    jobs = []
    for i, (name, topo) in enumerate(specs):
        jobs.append(ChipJob(
            name=name,
            spec=SaRegionSpec(name=name.replace("-", "_"), topology=topo, n_pairs=1),
            campaign=campaign,
            y_stop_nm=300.0,
            fault_plan=poison if i == 1 else None,
        ))
    return jobs


#: Heavy faults: dropped slices + drift spikes that QC cannot wave through,
#: so the poisoned chip exhausts its retries and is quarantined.
POISON = FaultPlan(seed=3, drop_rate=0.3, drift_spike_rate=0.2)

#: Light faults chosen (seed searched offline) so attempt 0 fails QC and
#: the single re-acquisition comes back clean — the retry-success path.
RECOVERABLE = FaultPlan(seed=1, drop_rate=0.04)


class TestFaultResilience:
    """The acceptance demo: 1 poisoned chip out of 3, siblings unharmed."""

    @pytest.fixture(scope="class")
    def clean_report(self):
        return run_campaign(_three_jobs(), config=FAST, workers=1)

    @pytest.fixture(scope="class")
    def faulty_report(self):
        return run_campaign(
            _three_jobs(POISON), config=FAST, workers=1,
            policy=ResiliencePolicy(max_retries=1),
        )

    def test_poisoned_chip_quarantined(self, faulty_report):
        assert list(faulty_report.chips) == ["res-a", "res-c"]
        assert list(faulty_report.quarantined) == ["res-b"]
        record = faulty_report.quarantined["res-b"]
        assert record.error_type == "AcquisitionError"
        assert record.stage == "acquire"
        assert record.retries == 1
        assert record.details["fault_events"]  # injected defects recorded
        assert faulty_report.degraded

    def test_siblings_bit_identical_to_fault_free_run(self, clean_report, faulty_report):
        for name in ("res-a", "res-c"):
            assert pickle.dumps(clean_report.result(name)) == \
                pickle.dumps(faulty_report.result(name))

    def test_quarantined_result_raises_with_context(self, faulty_report):
        with pytest.raises(CampaignError, match="quarantined"):
            faulty_report.result("res-b")
        assert "res-b" not in faulty_report.results()

    def test_render_shows_quarantine(self, faulty_report):
        text = faulty_report.render()
        assert "QUARANTINED" in text and "1 quarantined" in text

    def test_retry_then_success(self):
        """A recoverable plan costs one retry and completes degraded."""
        jobs = [_three_jobs(RECOVERABLE)[1]]
        report = run_campaign(
            jobs, config=FAST, workers=1, policy=ResiliencePolicy(max_retries=2)
        )
        run = report.chips["res-b"]
        assert run.retries == 1
        assert run.degraded
        assert not report.quarantined
        assert run.result.topology is SaTopology.OCSA

    def test_parallel_quarantine_matches_serial(self, faulty_report):
        parallel = run_campaign(
            _three_jobs(POISON), config=FAST, workers=3,
            policy=ResiliencePolicy(max_retries=1),
        )
        assert list(parallel.quarantined) == ["res-b"]
        assert parallel.quarantined["res-b"].message == \
            faulty_report.quarantined["res-b"].message
        for name in ("res-a", "res-c"):
            assert pickle.dumps(parallel.result(name)) == \
                pickle.dumps(faulty_report.result(name))

    def test_campaign_level_plan_derives_per_chip_seeds(self):
        plan = FaultPlan(seed=9, drop_rate=0.0)  # inert: keeps the test cheap
        jobs = _three_jobs()[:2]
        report = run_campaign(jobs, config=FAST, workers=1, fault_plan=plan)
        assert list(report.chips) == ["res-a", "res-b"]

    def test_timeout_quarantines_chip(self):
        report = run_campaign(
            _three_jobs()[:1], config=FAST, workers=1,
            policy=ResiliencePolicy(chip_timeout_s=1e-6),
        )
        assert not report.chips
        assert report.quarantined["res-a"].error_type == "StageTimeoutError"

    def test_bad_policy_rejected(self):
        with pytest.raises(CampaignError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(CampaignError):
            ResiliencePolicy(chip_timeout_s=0.0)


class TestFaultCacheKeys:
    """Fault knobs that change results must invalidate downstream keys."""

    def test_active_plan_invalidates_acquire_and_downstream(self, tmp_path):
        job = _three_jobs()[0]
        run_campaign([job], config=FAST, workers=1, cache_dir=tmp_path)
        poisoned = dataclasses.replace(job, fault_plan=RECOVERABLE)
        report = run_campaign(
            [poisoned], config=FAST, workers=1, cache_dir=tmp_path,
            policy=ResiliencePolicy(max_retries=2),
        )
        run = report.chips["res-a"]
        dispositions = {s.stage: s.disposition for s in run.stages}
        # Upstream of acquire is untouched; acquire and everything below
        # re-executes under the new fault/QC key.
        assert dispositions["layout"] == "hit"
        assert dispositions["voxelize"] == "hit"
        for stage in ("acquire", "denoise", "align", "assemble", "reveng"):
            assert dispositions[stage] == "run"

    def test_inert_plan_hits_clean_cache(self, tmp_path):
        """All-rates-zero plan keys identically to no plan at all."""
        job = _three_jobs()[0]
        run_campaign([job], config=FAST, workers=1, cache_dir=tmp_path)
        inert = dataclasses.replace(job, fault_plan=FaultPlan(seed=42))
        report = run_campaign([inert], config=FAST, workers=1, cache_dir=tmp_path)
        assert report.cache_misses == 0

    def test_different_seeds_different_keys(self, tmp_path):
        job = _three_jobs()[0]
        policy = ResiliencePolicy(max_retries=2)
        a = dataclasses.replace(job, fault_plan=RECOVERABLE)
        run_campaign([a], config=FAST, workers=1, cache_dir=tmp_path, policy=policy)
        b = dataclasses.replace(
            job, fault_plan=dataclasses.replace(RECOVERABLE, seed=RECOVERABLE.seed + 1)
        )
        report = run_campaign(
            [b], config=FAST, workers=1, cache_dir=tmp_path, policy=policy
        )
        run = report.chips["res-a"]
        assert "acquire" in run.stages_executed


class TestReportSerialization:
    """CampaignReport.to_json/from_json with an explicit schema version."""

    @pytest.fixture(scope="class")
    def faulty_report(self):
        return run_campaign(
            _three_jobs(POISON), config=FAST, workers=1,
            policy=ResiliencePolicy(max_retries=1),
        )

    def test_round_trip_preserves_telemetry(self, faulty_report):
        restored = CampaignReport.from_json(faulty_report.to_json())
        assert restored.to_json() == faulty_report.to_json()
        assert list(restored.chips) == list(faulty_report.chips)
        assert list(restored.quarantined) == ["res-b"]
        assert restored.quarantined["res-b"].retries == 1
        assert restored.degraded
        for name, run in restored.chips.items():
            assert run.result is None  # summary-only
            assert run.result_summary() == \
                faulty_report.chips[name].result_summary()
            assert [s.stage for s in run.stages] == \
                [s.stage for s in faulty_report.chips[name].stages]

    def test_schema_version_stamped(self, faulty_report):
        import json

        data = json.loads(faulty_report.to_json())
        assert data["schema_version"] == "campaign-report/3"

    def test_unknown_schema_rejected(self, faulty_report):
        import json

        data = json.loads(faulty_report.to_json())
        data["schema_version"] = "campaign-report/99"
        with pytest.raises(CampaignError, match="schema"):
            CampaignReport.from_dict(data)

    def test_malformed_json_rejected(self):
        with pytest.raises(CampaignError, match="malformed"):
            CampaignReport.from_json("{not json")
        with pytest.raises(CampaignError, match="object"):
            CampaignReport.from_json("[1, 2]")

    def test_summary_only_result_access_raises(self, faulty_report):
        restored = CampaignReport.from_json(faulty_report.to_json())
        with pytest.raises(CampaignError, match="summary-only"):
            restored.result("res-a")


class TestForChipResolution:
    """Resolution-matched assembly: for_chip must pick a voxel pitch the
    chip's acquisition can actually support (Table I regression — A4 and
    B4 previously failed topology identification because every plan was
    assembled at a fixed 6.0 nm voxel regardless of the scan pixel)."""

    def test_well_sampled_chip_assembles_at_native_pixel(self):
        # C4 scans at 5.0 nm on a 20 nm feature: 1:1 voxel, plan untouched
        job = ChipJob.for_chip("C4", n_pairs=1)
        assert job.voxel_nm == pytest.approx(5.0)
        assert job.campaign.sem.pixel_nm == pytest.approx(5.0)

    def test_b4_fine_pixel_keeps_one_to_one_voxel(self):
        # B4 scans at 3.4 nm; resampling that onto a coarser fixed grid is
        # what used to smear its cross-couple straps into neighbouring
        # actives and sever the latch during extraction
        job = ChipJob.for_chip("B4", n_pairs=1)
        assert job.voxel_nm == pytest.approx(3.4)
        assert job.campaign.sem.pixel_nm == pytest.approx(3.4)

    def test_a4_undersampled_plan_is_rescanned(self):
        # A4's survey plan (10.4 nm pixel on a 20.5 nm feature) cannot
        # resolve its own features at any voxel pitch — for_chip re-plans
        # at the feature-scaled catalog recipe instead
        job = ChipJob.for_chip("A4", n_pairs=1)
        scale = 20.5 / 18.0
        assert job.voxel_nm == pytest.approx(6.0 * scale)
        assert job.campaign.sem.pixel_nm == pytest.approx(5.0 * scale)
        assert job.campaign.slice_thickness_nm == pytest.approx(12.0)

    def test_explicit_voxel_wins(self):
        job = ChipJob.for_chip("C4", n_pairs=1, voxel_nm=7.5)
        assert job.voxel_nm == pytest.approx(7.5)
