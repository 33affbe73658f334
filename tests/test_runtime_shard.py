"""Slice-sharded stage execution: batching, determinism, backpressure.

The contract under test is the one the campaign runtime relies on: for
*every* shard configuration (batch size, ordering, worker count,
in-flight ceiling) the sharded output is bit-identical — ``pickle.dumps``
equal, not merely ``allclose`` — to the serial path.  Worker pools here
are tiny (2 processes) so the suite stays honest on single-core CI.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PipelineError
from repro.faults import FaultInjector, FaultPlan
from repro.imaging import FibSemCampaign, SemParameters
from repro.imaging.fib import acquire_stack
from repro.imaging.voxel import voxelize
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.pipeline import PipelineConfig, ShardPlan
from repro.pipeline.denoise import denoise_stack
from repro.pipeline.register import _reference_align_stack, align_stack
from repro.pipeline.stack import qc_stack
from repro.runtime import (
    ChipJob,
    payload_nbytes,
    run_campaign,
    shard_map,
    shutdown_shard_pools,
)
from repro.layout import SaRegionSpec


def _plan(**kwargs) -> ShardPlan:
    """An engaged two-worker plan (explicit workers: no campaign here)."""
    kwargs.setdefault("slices", True)
    kwargs.setdefault("workers", 2)
    return ShardPlan(**kwargs)


def _scale(batch: list[np.ndarray]) -> list[np.ndarray]:
    """Picklable per-item batch function for shard_map tests."""
    return [a * 2.0 + 1.0 for a in batch]


@pytest.fixture(scope="module", autouse=True)
def _drain_pools():
    """Shut shard pools down after the module so workers don't linger."""
    yield
    shutdown_shard_pools()


@pytest.fixture(scope="module")
def small_volume(request):
    cell = request.getfixturevalue("classic_cell")
    return voxelize(cell, voxel_nm=8.0)


@pytest.fixture(scope="module")
def fib_campaign():
    return FibSemCampaign(slice_thickness_nm=16.0, sem=SemParameters())


@pytest.fixture(scope="module")
def serial_stack(small_volume, fib_campaign):
    return acquire_stack(small_volume, fib_campaign)


class TestShardPlanValidation:
    def test_zero_batch_rejected(self):
        with pytest.raises(PipelineError):
            ShardPlan(batch=0)

    def test_unknown_ordering_rejected(self):
        with pytest.raises(PipelineError):
            ShardPlan(ordering="random")

    def test_zero_inflight_rejected(self):
        with pytest.raises(PipelineError):
            ShardPlan(max_inflight_bytes=0)

    def test_zero_workers_rejected(self):
        with pytest.raises(PipelineError):
            ShardPlan(workers=0)


class TestShardPlanBatching:
    def test_engaged_needs_slices_workers_and_items(self):
        assert not ShardPlan().engaged(16)                       # slices off
        assert not ShardPlan(slices=True).engaged(16)            # 1 worker
        assert not ShardPlan(slices=True, workers=4).engaged(1)  # 1 item
        assert ShardPlan(slices=True, workers=4).engaged(2)

    def test_contiguous_batches_are_runs(self):
        plan = ShardPlan(slices=True, batch=3)
        assert plan.batches(8) == [(0, 1, 2), (3, 4, 5), (6, 7)]

    def test_striped_batches_round_robin(self):
        plan = ShardPlan(slices=True, batch=3, ordering="striped")
        assert plan.batches(8) == [(0, 3, 6), (1, 4, 7), (2, 5)]

    def test_auto_batch_is_two_per_worker(self):
        plan = ShardPlan(slices=True, workers=4)
        # 32 slices / (2 * 4 workers) = 4 per batch.
        assert plan.batch_size(32) == 4
        assert len(plan.batches(32)) == 8

    @given(
        n=st.integers(min_value=0, max_value=64),
        batch=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
        ordering=st.sampled_from(["contiguous", "striped"]),
        workers=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    )
    @settings(max_examples=100, deadline=None)
    def test_batches_partition_every_stack(self, n, batch, ordering, workers):
        """Batches are a disjoint, exhaustive partition of range(n)."""
        plan = ShardPlan(
            slices=True, batch=batch, ordering=ordering, workers=workers
        )
        batches = plan.batches(n)
        flat = [i for b in batches for i in b]
        assert sorted(flat) == list(range(n))
        assert len(flat) == len(set(flat))
        assert all(len(b) >= 1 for b in batches)


class TestShardMap:
    def _items(self, n=7, seed=3):
        rng = np.random.default_rng(seed)
        return [rng.random((13, 11)).astype(np.float32) for _ in range(n)]

    def test_not_engaged_runs_inline(self):
        items = self._items()
        out = shard_map("t", _scale, items, ShardPlan(slices=True, batch=2))
        assert pickle.dumps(out) == pickle.dumps(_scale(items))

    @pytest.mark.parametrize("plan_kwargs", [
        {},                                    # auto batch, contiguous
        {"batch": 1},                          # one slice per batch
        {"batch": 3, "ordering": "striped"},   # round-robin
        {"max_inflight_bytes": 1},             # maximal backpressure
    ])
    def test_pool_output_bit_identical(self, plan_kwargs):
        """Sharded results match the serial bytes for every plan shape."""
        items = self._items()
        out = shard_map("t", _scale, items, _plan(**plan_kwargs))
        assert pickle.dumps(out) == pickle.dumps(_scale(items))

    def test_empty_items(self):
        assert shard_map("t", _scale, [], _plan()) == []

    def test_backpressure_counter_increments(self):
        reg = MetricsRegistry()
        items = self._items(n=6)
        with use_metrics(reg):
            shard_map("t", _scale, items, _plan(batch=1, max_inflight_bytes=1))
        assert reg.counter("repro_shard_backpressure_total", stage="t").value > 0
        assert reg.counter("repro_shard_batches_total", stage="t").value == 6
        assert reg.counter("repro_shard_slices_total", stage="t").value == 6
        assert reg.counter("repro_shard_bytes_total", stage="t").value == sum(
            payload_nbytes(i) for i in items
        )

    def test_shard_spans_nest_under_stage_span(self):
        tracer = Tracer()
        items = self._items(n=4)
        with use_tracer(tracer):
            with tracer.span("denoise", kind="stage"):
                shard_map("t", _scale, items, _plan(batch=2))
        spans = tracer.finished_spans()
        (stage_span,) = [s for s in spans if s.kind == "stage"]
        shard_spans = [s for s in spans if s.kind == "shard"]
        assert len(shard_spans) == 2
        assert all(s.parent_id == stage_span.span_id for s in shard_spans)
        assert all(s.attrs["stage"] == "t" for s in shard_spans)

    def test_mismatched_batch_length_raises(self):
        with pytest.raises(RuntimeError, match="returned"):
            shard_map("t", _drop_one, self._items(n=4), _plan(batch=2))


def _drop_one(batch: list[np.ndarray]) -> list[np.ndarray]:
    """Broken batch fn: returns one result short (length-check test)."""
    return [a * 2.0 for a in batch[1:]]


class _Unpicklable:
    """Sentinel whose serialization paths all raise — if payload_nbytes
    ever touches pickle (or repr/str), the estimate blows up."""

    def __reduce__(self):
        raise RuntimeError("payload_nbytes must not serialize items")

    def __repr__(self):  # pragma: no cover - only hit on a regression
        raise RuntimeError("payload_nbytes must not render items")


class TestPayloadNbytes:
    def test_arrays_report_nbytes_exactly(self):
        arr = np.zeros((7, 9), dtype=np.float64)
        assert payload_nbytes(arr) == arr.nbytes

    def test_buffers_report_length(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes(bytearray(10)) == 10
        assert payload_nbytes(memoryview(b"xyz")) == 3

    def test_containers_sum_recursively(self):
        arr = np.zeros(16, dtype=np.float32)
        assert payload_nbytes([arr, arr]) == 2 * arr.nbytes + 64
        assert payload_nbytes({"a": arr}) == arr.nbytes + 64
        assert payload_nbytes((arr,)) == arr.nbytes + 64

    def test_dataclass_fields_are_walked(self):
        import dataclasses as dc

        @dc.dataclass(frozen=True)
        class Shot:
            image: np.ndarray
            index: int

        arr = np.zeros((4, 4), dtype=np.float64)
        assert payload_nbytes(Shot(arr, 3)) >= arr.nbytes

    def test_never_serializes_the_item(self):
        """Regression: the estimate must stay pickle-free on the hot
        path — an object whose ``__reduce__`` raises still gets a
        nominal size instead of an exception."""
        assert payload_nbytes(_Unpicklable()) == 256
        assert payload_nbytes([_Unpicklable(), _Unpicklable()]) == 2 * 256 + 64
        assert payload_nbytes({"bad": _Unpicklable()}) == 256 + 64

    def test_fake_nbytes_attribute_is_type_checked(self):
        """A stray non-integer ``nbytes`` attribute must not poison the
        sum (regression for duck-typed objects with nbytes properties)."""

        class Odd:
            nbytes = "not a number"

        assert payload_nbytes(Odd()) == 256


class TestShardedStages:
    """The sharded stages, sharded vs serial, byte for byte."""

    @pytest.mark.parametrize("plan_kwargs", [
        {},
        {"batch": 2, "ordering": "striped"},
    ])
    def test_acquire_bit_identical(
        self, small_volume, fib_campaign, serial_stack, plan_kwargs
    ):
        sharded = acquire_stack(
            small_volume, fib_campaign, shard=_plan(**plan_kwargs)
        )
        assert pickle.dumps(sharded) == pickle.dumps(serial_stack)

    def test_acquire_active_fault_plan_falls_back(
        self, small_volume, fib_campaign
    ):
        """A live fault plan forces the serial path (cross-slice state)
        and the fallback is counted — the output still matches serial."""
        plan = FaultPlan(seed=7, drop_rate=0.3)
        serial = acquire_stack(
            small_volume, fib_campaign, injector=FaultInjector(plan)
        )
        reg = MetricsRegistry()
        with use_metrics(reg):
            sharded = acquire_stack(
                small_volume, fib_campaign,
                injector=FaultInjector(plan), shard=_plan(),
            )
        counter = reg.counter(
            "repro_shard_fallback_total", stage="acquire",
            reason="active-fault-plan",
        )
        assert counter.value == 1
        assert pickle.dumps(sharded) == pickle.dumps(serial)

    def test_acquire_inert_fault_plan_still_shards(
        self, small_volume, fib_campaign, serial_stack
    ):
        """An injector with nothing to inject must not block sharding."""
        reg = MetricsRegistry()
        with use_metrics(reg):
            sharded = acquire_stack(
                small_volume, fib_campaign,
                injector=FaultInjector(FaultPlan(seed=7)), shard=_plan(),
            )
        assert reg.counter("repro_shard_batches_total", stage="acquire").value > 0
        assert pickle.dumps(sharded) == pickle.dumps(serial_stack)

    @given(
        batch=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
        ordering=st.sampled_from(["contiguous", "striped"]),
        inflight=st.sampled_from([1, 256 * 1024 * 1024]),
    )
    @settings(max_examples=8, deadline=None)
    def test_denoise_bit_identical_for_every_plan(
        self, serial_stack, batch, ordering, inflight
    ):
        images = serial_stack.images[:6]
        serial = denoise_stack(images, method="chambolle", iterations=8)
        sharded = denoise_stack(
            images, method="chambolle", iterations=8,
            shard=_plan(batch=batch, ordering=ordering,
                        max_inflight_bytes=inflight),
        )
        assert pickle.dumps(sharded) == pickle.dumps(serial)

    def test_qc_bit_identical(self, serial_stack):
        serial = qc_stack(
            serial_stack.images, true_drift_px=serial_stack.true_drift_px
        )
        sharded = qc_stack(
            serial_stack.images, true_drift_px=serial_stack.true_drift_px,
            shard=_plan(batch=2),
        )
        assert pickle.dumps(sharded) == pickle.dumps(serial)


def _align_stack_images(seed, n, spill):
    """A drifting blocky stack; *spill* pushes pixels outside [0, 1]."""
    rng = np.random.default_rng(seed)
    base = np.kron(rng.random((5, 4)), np.ones((8, 8)))
    images = []
    for i in range(n):
        img = np.roll(base, (i % 3 - 1, (i // 2) % 2), (0, 1))
        img = img + rng.normal(0, 0.03 + spill, base.shape)
        images.append(img if spill else np.clip(img, 0, 1))
    return images


class TestShardedAlign:
    """align_stack's per-slice searches on the shard pool."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 7),
        batch=st.sampled_from([1, None]),
        ordering=st.sampled_from(["contiguous", "striped"]),
        bins=st.sampled_from([32, 126, 127]),
        baselines=st.sampled_from([(1,), (1, 2, 3)]),
        spill=st.sampled_from([0.0, 0.4]),
    )
    @settings(max_examples=10, deadline=None)
    def test_bit_identical_to_serial_and_reference(
        self, seed, n, batch, ordering, bins, baselines, spill
    ):
        images = _align_stack_images(seed, n, spill)
        kwargs = {"search_px": 2, "bins": bins, "baselines": baselines}
        serial = align_stack(images, **kwargs)
        sharded = align_stack(
            images, shard=_plan(batch=batch, ordering=ordering), **kwargs
        )
        assert pickle.dumps(sharded) == pickle.dumps(serial)
        _, ref_report = _reference_align_stack(images, **kwargs)
        assert sharded[1].corrections == ref_report.corrections

    def test_engaged_plan_dispatches_align_batches(self):
        images = _align_stack_images(1, 6, 0.0)
        reg = MetricsRegistry()
        tracer = Tracer()
        with use_metrics(reg), use_tracer(tracer):
            with tracer.span("align", kind="stage"):
                sharded = align_stack(images, search_px=2, shard=_plan(batch=2))
        assert reg.counter("repro_shard_batches_total", stage="align").value == 3
        assert reg.counter("repro_shard_slices_total", stage="align").value == 5
        shard_spans = [s for s in tracer.finished_spans() if s.kind == "shard"]
        assert shard_spans and all(s.attrs["stage"] == "align" for s in shard_spans)
        assert pickle.dumps(sharded) == pickle.dumps(align_stack(images, search_px=2))

    def test_bins_past_uint8_fall_back_in_process(self):
        images = _align_stack_images(2, 5, 0.0)
        reg = MetricsRegistry()
        with use_metrics(reg):
            sharded = align_stack(images, search_px=2, bins=300, shard=_plan())
        assert reg.counter(
            "repro_shard_fallback_total", stage="align", reason="bins-exceed-uint8"
        ).value == 1
        assert reg.counter("repro_shard_batches_total", stage="align").value == 0
        serial = align_stack(images, search_px=2, bins=300)
        assert pickle.dumps(sharded) == pickle.dumps(serial)
        _, ref_report = _reference_align_stack(images, search_px=2, bins=300)
        assert sharded[1].corrections == ref_report.corrections


FAST = PipelineConfig(denoise_iterations=10, align_search_px=2, align_baselines=(1, 2))


class TestShardedCampaign:
    """End to end: a sharded single-chip campaign equals ``workers=1``."""

    @pytest.fixture(scope="class")
    def job(self):
        return ChipJob(
            name="solo",
            spec=SaRegionSpec(name="rt_classic", topology="classic", n_pairs=1),
            campaign=FibSemCampaign(
                slice_thickness_nm=12.0, sem=SemParameters(dwell_time_us=6.0)
            ),
        )

    @pytest.fixture(scope="class")
    def serial_bytes(self, job):
        report = run_campaign([job], config=FAST, workers=1)
        return pickle.dumps(report.results())

    def test_sharded_single_chip_matches_serial(self, job, serial_bytes):
        sharded = run_campaign(
            [job],
            config=FAST.replaced(shard=ShardPlan(slices=True, workers=2)),
            workers=1,
        )
        assert pickle.dumps(sharded.results()) == serial_bytes

    def test_sharded_striped_small_batches_matches_serial(self, job, serial_bytes):
        sharded = run_campaign(
            [job],
            config=FAST.replaced(shard=ShardPlan(
                slices=True, workers=2, batch=1, ordering="striped"
            )),
            workers=1,
        )
        assert pickle.dumps(sharded.results()) == serial_bytes
