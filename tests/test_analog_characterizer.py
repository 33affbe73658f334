"""The characterization engine: spec, deprecation shims, sweeps, report."""

import math
import pickle

import numpy as np
import pytest

from repro.analog.characterizer import (
    CellResult,
    CharacterizationJob,
    CharacterizationReport,
    _nominal_layout,
    characterize,
    sweep_cells,
)
from repro.analog.metrics import (
    restore_latency_ns,
    sensing_latency_ns,
    switched_energy_fj,
)
from repro.analog.montecarlo import (
    YieldResult,
    _reference_sensing_yield,
    sensing_yield,
)
from repro.analog.spec import CORNERS, CharacterizationSpec, DeviceCorner
from repro.circuits.topologies import SaTopology
from repro.errors import AnalogError, CampaignError, ConvergenceError
from repro.runtime.hashing import stable_hash

#: A spec small enough for real end-to-end runs in tests: 2 cells,
#: 3 trials each, a 2-level offset ladder.
FAST_SPEC = CharacterizationSpec(
    topologies=("classic", "ocsa"),
    corners=("TT",),
    trials=3,
    offset_scan_mv=(0.0, 100.0, 200.0),
)


class TestCharacterizationSpec:
    def test_coerces_strings_to_axes(self):
        spec = CharacterizationSpec(topologies="classic", corners=("tt", "ss"))
        assert spec.topologies == (SaTopology.CLASSIC,)
        assert spec.corners == (CORNERS["TT"], CORNERS["SS"])

    def test_unknown_corner_rejected(self):
        with pytest.raises(AnalogError, match="unknown device corner"):
            CharacterizationSpec(corners=("XX",))

    def test_unknown_topology_rejected(self):
        with pytest.raises(AnalogError, match="unknown SA topology"):
            CharacterizationSpec(topologies=("tilted",))

    @pytest.mark.parametrize("changes,message", [
        ({"trials": 0}, "at least one sample"),
        ({"sigma_mv": -1.0}, "non-negative"),
        ({"data": 2}, "0 or 1"),
        ({"deadline_ns": 0.0}, "positive"),
        ({"bitline_caps_f": ()}, "positive"),
        ({"offset_scan_mv": ()}, "non-empty"),
        ({"corners": (DeviceCorner("A"), DeviceCorner("A"))}, "duplicate"),
        ({"offset_scan_mv": (50.0, 25.0, 0.0)}, "strictly ascending"),
        ({"offset_scan_mv": (0.0, 400.0, 25.0)}, "strictly ascending"),
        ({"offset_scan_mv": (0.0, 25.0, 25.0)}, "strictly ascending"),
    ])
    def test_validation(self, changes, message):
        with pytest.raises(AnalogError, match=message):
            CharacterizationSpec(**changes)

    def test_tt_corner_is_identity(self):
        """bench_config at TT reproduces the historical default bench."""
        from repro.analog.sense_amp import SenseAmpConfig

        cfg = CharacterizationSpec().bench_config()
        default = SenseAmpConfig()
        assert cfg.nmos == default.nmos and cfg.pmos == default.pmos
        assert cfg.bitline_cap_f == default.bitline_cap_f

    def test_cell_token_excludes_sweep_axes(self):
        a = CharacterizationSpec(corners=("TT",))
        b = CharacterizationSpec(corners=("TT", "SS", "FF"))
        assert a.cell_token() == b.cell_token()


class TestLegacyKwargs:
    def test_legacy_kwargs_warn_naming_removal(self):
        with pytest.warns(DeprecationWarning, match="removed in repro 2.0"):
            spec = CharacterizationSpec.from_legacy_kwargs(samples=9, sigma_mv=33.0)
        assert spec.trials == 9 and spec.sigma_mv == 33.0

    def test_unknown_legacy_kwarg_is_type_error(self):
        with pytest.raises(TypeError, match="CharacterizationSpec"):
            CharacterizationSpec.from_legacy_kwargs(n_samples=9)

    def test_sensing_yield_legacy_path_matches_spec_path(self):
        spec = CharacterizationSpec(trials=4, sigma_mv=50.0, seed=3)
        via_spec = sensing_yield(SaTopology.CLASSIC, spec=spec)
        with pytest.warns(DeprecationWarning):
            via_kwargs = sensing_yield(
                SaTopology.CLASSIC, sigma_mv=50.0, samples=4, seed=3
            )
        assert via_kwargs.failures == via_spec.failures
        assert via_kwargs.samples == via_spec.samples


class TestBatchedEngineEquivalence:
    def test_batched_yield_matches_scalar_reference(self):
        """The batched Monte-Carlo engine reproduces the retained scalar
        loop exactly (same RNG stream, same failure rules)."""
        spec = CharacterizationSpec(trials=5, sigma_mv=150.0, seed=11)
        batched = sensing_yield(SaTopology.CLASSIC, spec=spec)
        reference = _reference_sensing_yield(SaTopology.CLASSIC, spec=spec)
        assert batched.failures == reference.failures
        assert batched.samples == reference.samples
        assert len(batched.latencies_ns) == spec.trials


class TestResultHashing:
    def test_yield_result_pickles_and_hashes_with_nan(self):
        y = YieldResult(
            topology=SaTopology.CLASSIC, sigma_mv=60.0, samples=3, failures=1,
            latencies_ns=(5.2, float("nan"), 6.1),
        )
        y2 = pickle.loads(pickle.dumps(y))
        assert y2.failures == y.failures
        assert math.isnan(y2.latencies_ns[1])
        # NaN != NaN breaks dataclass ==; the contract is hash stability.
        assert stable_hash(y2) == stable_hash(y)

    def test_cell_result_round_trips_nan_latencies(self):
        cell = CellResult(
            name="classic-TT", topology=SaTopology.CLASSIC, corner="TT",
            bitline_cap_f=90e-15, sensing_latency_ns=float("nan"),
            restore_latency_ns=8.0, switched_energy_fj=40.0,
            offset_tolerance_v=0.1,
            sense_yield=YieldResult(
                topology=SaTopology.CLASSIC, sigma_mv=60.0, samples=2,
                failures=2, latencies_ns=(float("nan"), float("nan")),
            ),
        )
        back = CellResult.from_dict(cell.to_dict())
        assert math.isnan(back.sensing_latency_ns)
        assert back.restore_latency_ns == 8.0
        assert stable_hash(back) == stable_hash(cell)
        assert math.isnan(cell.latency_stats()["mean_ns"])


class TestSweepCells:
    def test_grid_in_axis_order(self):
        spec = CharacterizationSpec(
            topologies=("classic",), corners=("TT", "SS"),
        )
        names = [c.name for c in sweep_cells(spec)]
        assert names == ["classic-TT", "classic-SS"]

    def test_bitline_axis_suffixes_only_when_swept(self):
        spec = CharacterizationSpec(
            topologies=("classic",), corners=("TT",),
            bitline_caps_f=(60e-15, 120e-15),
        )
        names = [c.name for c in sweep_cells(spec)]
        assert names == ["classic-TT-bl0", "classic-TT-bl1"]


class TestCharacterize:
    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        """One real sweep, run cold then warm against the same cache."""
        cache = str(tmp_path_factory.mktemp("char-cache"))
        cold = characterize(FAST_SPEC, cache_dir=cache, workers=1)
        warm = characterize(FAST_SPEC, cache_dir=cache, workers=1)
        return cold, warm

    def test_sweep_completes_every_cell(self, reports):
        cold, _ = reports
        assert sorted(cold.cells) == ["classic-TT", "ocsa-TT"]
        assert not cold.degraded
        for cell in cold.cells.values():
            assert math.isfinite(cell.sensing_latency_ns)
            assert 0.0 <= cell.yield_fraction <= 1.0
            assert len(cell.sense_yield.latencies_ns) == FAST_SPEC.trials

    def test_ocsa_tolerates_more_offset(self, reports):
        """The paper's §V-A result: offset cancellation widens the margin."""
        cold, _ = reports
        assert (cold.cells["ocsa-TT"].offset_tolerance_v
                > cold.cells["classic-TT"].offset_tolerance_v)

    def test_rerun_is_fully_cached(self, reports):
        cold, warm = reports
        assert cold.cache_misses == 4  # 2 cells x (char_nominal, char_mc)
        assert warm.cache_misses == 0
        assert warm.cache_hits == 4
        assert warm.cells.keys() == cold.cells.keys()
        for name in cold.cells:
            assert stable_hash(warm.cells[name]) == stable_hash(cold.cells[name])

    def test_report_json_round_trips(self, reports):
        cold, _ = reports
        back = CharacterizationReport.from_json(cold.to_json())
        assert back.cells.keys() == cold.cells.keys()
        for name in cold.cells:
            assert stable_hash(back.cells[name]) == stable_hash(cold.cells[name])
        assert back.cache_misses == cold.cache_misses

    def test_render_mentions_cells_and_cache(self, reports):
        cold, _ = reports
        text = cold.render()
        assert "classic-TT" in text and "ocsa-TT" in text
        assert "cache" in text

    def test_unknown_cell_lookup_explains(self, reports):
        cold, _ = reports
        with pytest.raises(CampaignError, match="no sweep cell"):
            cold.cell("classic-XX")

    def test_unreadable_schema_rejected(self):
        with pytest.raises(CampaignError, match="schema"):
            CharacterizationReport.from_dict({"schema_version": "bogus/9"})
        with pytest.raises(CampaignError, match="malformed"):
            CharacterizationReport.from_json("{not json")


class TestQuarantine:
    def test_hopeless_cell_quarantines_not_crashes(self):
        """A cell whose solve cannot converge is quarantined; the rest of
        the sweep completes and the report says why."""
        spec = FAST_SPEC.replaced(max_newton=1)
        report = characterize(spec, workers=1)
        assert report.degraded
        assert not report.cells
        for record in report.quarantined.values():
            assert record.error_type == "CharacterizationError"
            assert record.stage == "char_nominal"
        with pytest.raises(CampaignError, match="quarantined"):
            report.cell("classic-TT")

    def test_fault_plans_rejected_per_cell(self):
        """Fault plans target imaging acquisition; an analog job fails its
        cell loudly instead of silently ignoring the plan."""
        from repro.faults import FaultPlan
        from repro.runtime.campaign import run_campaign

        spec = FAST_SPEC.replaced(topologies=("classic",))
        cell = sweep_cells(spec)[0]
        job = CharacterizationJob(
            name=cell.name, cell=cell, spec=spec,
            fault_plan=FaultPlan(seed=1, drop_rate=0.5),
        )
        campaign = run_campaign([job], workers=1)
        assert cell.name in campaign.quarantined
        assert "imaging acquisition" in campaign.quarantined[cell.name].message


class TestMergedNominal:
    """char_nominal runs the nominal activation and both offset ladders
    as one batch; it must answer exactly what three batches did."""

    SPEC = FAST_SPEC.replaced(topologies=("classic",), trials=2)

    def _bench(self):
        cell = sweep_cells(self.SPEC)[0]
        job = CharacterizationJob(name=cell.name, cell=cell, spec=self.SPEC)
        return job._bench()

    def test_layout_is_nominal_then_both_ladders(self):
        layout = _nominal_layout(self.SPEC)
        assert layout[0] == (self.SPEC.data, 0.0, "nominal")
        assert [(d, v) for d, v, _ in layout[1:]] == [
            (0, 0.0), (0, 0.1), (0, 0.2), (1, 0.0), (1, 0.1), (1, 0.2),
        ]
        assert layout[-1][2] == "data-1 rung at 200 mV"

    def test_char_nominal_matches_separate_batches_and_scalar_runs(self):
        spec, bench = self.SPEC, self._bench()
        kwargs = {"dt_ns": spec.dt_ns, "max_newton": spec.max_newton}
        nominal = bench.run_batch(spec.data, [0.0], **kwargs)[0]
        scan = [mv / 1000.0 for mv in spec.offset_scan_mv]
        tolerance = math.inf
        for data in (0, 1):
            ladder = bench.run_batch(data, scan, **kwargs)
            for level_v, step in zip(scan, ladder):
                scalar = bench.run(data=data, vt_mismatch=level_v, dt_ns=spec.dt_ns)
                assert step.data_sensed == scalar.data_sensed
                assert np.array_equal(step.result.voltages["BL"],
                                      scalar.result.voltages["BL"])
            passing = 0.0
            for level_v, step in zip(scan, ladder):
                if not step.correct:
                    break
                passing = level_v
            tolerance = min(tolerance, passing)

        cell = characterize(spec, workers=1).cells["classic-TT"]
        assert cell.sensing_latency_ns == sensing_latency_ns(nominal)
        assert cell.restore_latency_ns == restore_latency_ns(nominal)
        assert cell.switched_energy_fj == switched_energy_fj(nominal)
        assert cell.offset_tolerance_v == tolerance

    def test_quarantine_names_the_failed_runs(self):
        """A starved Newton loop quarantines the cell with a message that
        maps ConvergenceError.instances back through the merged layout."""
        spec = self.SPEC.replaced(max_newton=1)
        layout = _nominal_layout(spec)
        with pytest.raises(ConvergenceError) as excinfo:
            self._bench().run_batch(
                [d for d, _, _ in layout], [v for _, v, _ in layout],
                dt_ns=spec.dt_ns, max_newton=1,
            )
        expected = [layout[i][2] for i in excinfo.value.instances]
        assert expected

        report = characterize(spec, workers=1)
        record = report.quarantined["classic-TT"]
        assert record.stage == "char_nominal"
        assert record.details["failed_runs"] == expected
        assert f"failed runs: {', '.join(expected)}" in record.message
