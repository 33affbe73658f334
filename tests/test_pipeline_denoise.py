"""TV denoising: Chambolle and split-Bregman (§IV-C)."""

from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.errors import PipelineError
from repro.imaging import FibSemCampaign, SemParameters
from repro.imaging.fib import acquire_stack
from repro.imaging.voxel import voxelize
from repro.layout import SaRegionSpec, generate_sa_region
from repro.pipeline import denoise
from repro.pipeline.denoise import (
    chambolle_tv,
    clear_buffer_pool,
    denoise_stack,
    residual_noise,
    split_bregman_tv,
    _divergence,
    _gradient,
    _reference_chambolle_tv,
    _reference_split_bregman_tv,
)

#: max |float32 solver − float64 reference| allowed on acquired slices.
#: Measured on the slices below: 1.3e-7 at 10 iterations, 2.4e-7 at 60;
#: over whole one-pair stacks at 60 iterations: 2.6e-6 classic, 5.2e-6 OCSA.
FLOAT32_ACCURACY_BOUND = 1e-5


def _piecewise_image(rng=None) -> tuple[np.ndarray, np.ndarray]:
    clean = np.zeros((48, 48))
    clean[:, 16:32] = 0.7
    clean[12:36, :] += 0.2
    rng = rng or np.random.default_rng(11)
    noisy = clean + rng.normal(0, 0.08, clean.shape)
    return clean, noisy


def _total_variation(u: np.ndarray) -> float:
    gx, gy = _gradient(u)
    return float(np.sqrt(gx * gx + gy * gy).sum())


class TestOperators:
    def test_divergence_is_negative_adjoint(self):
        """⟨∇u, p⟩ = −⟨u, div p⟩ (up to sign convention) on random fields."""
        rng = np.random.default_rng(3)
        u = rng.random((16, 16))
        px = rng.random((16, 16))
        py = rng.random((16, 16))
        gx, gy = _gradient(u)
        lhs = float((gx * px + gy * py).sum())
        rhs = float((u * _divergence(px, py)).sum())
        assert lhs == pytest.approx(-rhs, rel=1e-9)

    def test_gradient_of_constant_is_zero(self):
        gx, gy = _gradient(np.full((8, 8), 0.5))
        assert not gx.any() and not gy.any()


@pytest.mark.parametrize("method", [chambolle_tv, split_bregman_tv])
class TestDenoisers:
    def test_reduces_noise(self, method):
        clean, noisy = _piecewise_image()
        out = method(noisy)
        assert residual_noise(clean, out) < residual_noise(clean, noisy)

    def test_reduces_total_variation(self, method):
        _clean, noisy = _piecewise_image()
        out = method(noisy)
        assert _total_variation(out) < _total_variation(noisy)

    def test_preserves_edges(self, method):
        """Edge-preserving: the 0→0.7 step survives (vs a box blur)."""
        clean, noisy = _piecewise_image()
        out = method(noisy)
        step = float(out[:, 20:28].mean() - out[:, 4:12].mean())
        assert step > 0.5  # the true step is 0.7

    def test_constant_image_unchanged(self, method):
        img = np.full((16, 16), 0.4)
        out = method(img)
        assert np.allclose(out, img, atol=0.02)

    def test_rejects_non_2d(self, method):
        with pytest.raises(PipelineError):
            method(np.zeros(10))

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (0, 4)])
    def test_rejects_degenerate_slices(self, method, shape):
        with pytest.raises(PipelineError):
            method(np.zeros(shape))


def _assert_bytes_equal(fast: np.ndarray, ref: np.ndarray) -> None:
    """Bit for bit, sign of zero included (``assert_array_equal`` takes
    −0.0 == +0.0)."""
    assert fast.dtype == ref.dtype and fast.shape == ref.shape
    assert fast.tobytes() == ref.tobytes()


class TestPooledBuffersBitIdentical:
    """The in-place, buffer-pooled solvers must reproduce the seed
    implementations bit for bit at default settings."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        nx=st.integers(3, 48),
        nz=st.integers(3, 48),
        float32=st.booleans(),
    )
    def test_chambolle_bit_identical(self, seed, nx, nz, float32):
        rng = np.random.default_rng(seed)
        img = np.clip(rng.random((nx, nz)) + rng.normal(0, 0.1, (nx, nz)), 0, 1)
        if float32:
            img = img.astype(np.float32)
        _assert_bytes_equal(chambolle_tv(img), _reference_chambolle_tv(img))

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        nx=st.integers(3, 48),
        nz=st.integers(3, 48),
        float32=st.booleans(),
    )
    def test_split_bregman_bit_identical(self, seed, nx, nz, float32):
        rng = np.random.default_rng(seed)
        img = np.clip(rng.random((nx, nz)) + rng.normal(0, 0.1, (nx, nz)), 0, 1)
        if float32:
            img = img.astype(np.float32)
        _assert_bytes_equal(split_bregman_tv(img), _reference_split_bregman_tv(img))

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        nx=st.integers(2, 900),
        nz=st.sampled_from([2, 3, 64]),
        block=st.sampled_from([None, 1, 5, 16]),
        float32=st.booleans(),
    )
    def test_multi_block_shapes_byte_identical(self, seed, nx, nz, block, float32):
        """Row blocks, row breaks of the flat z passes, 2- and 3-px-wide
        slices and exact zeros: every output byte matches the reference.
        ``block`` overrides the Chambolle row-block height (None keeps the
        cache-sized one, which splits nz=64 slices past 384/192 rows)."""
        rng = np.random.default_rng(seed)
        img = np.clip(rng.random((nx, nz)) + rng.normal(0, 0.3, (nx, nz)) - 0.2, 0, 1)
        if float32:
            img = img.astype(np.float32)
        rows = denoise._block_rows if block is None else (lambda nx, nz, itemsize: block)
        with mock.patch.object(denoise, "_block_rows", rows):
            _assert_bytes_equal(
                chambolle_tv(img, iterations=12),
                _reference_chambolle_tv(img, iterations=12),
            )
        _assert_bytes_equal(
            split_bregman_tv(img, iterations=4),
            _reference_split_bregman_tv(img, iterations=4),
        )

    def test_non_default_parameters_also_identical(self):
        _clean, noisy = _piecewise_image()
        _assert_bytes_equal(
            chambolle_tv(noisy, weight=0.2, iterations=23, tau=0.19),
            _reference_chambolle_tv(noisy, weight=0.2, iterations=23, tau=0.19),
        )
        _assert_bytes_equal(
            split_bregman_tv(noisy, weight=0.15, iterations=9, inner_iterations=3),
            _reference_split_bregman_tv(noisy, weight=0.15, iterations=9, inner_iterations=3),
        )

    def test_repeated_calls_reuse_pool_without_contamination(self):
        """Leased buffers are dirty; a second call must not see the first's
        state.  (Also exercises clear_buffer_pool.)"""
        _clean, noisy = _piecewise_image()
        first = chambolle_tv(noisy)
        clear_buffer_pool()
        second = chambolle_tv(noisy)
        third = chambolle_tv(noisy[:-1, :-1])  # different shape → different pool key
        np.testing.assert_array_equal(first, second)
        assert third.shape == (47, 47)

    @pytest.mark.parametrize("ref", [_reference_chambolle_tv, _reference_split_bregman_tv])
    def test_references_reject_degenerate_slices(self, ref):
        for shape in ((1, 5), (5, 1), (0, 4)):
            with pytest.raises(PipelineError):
                ref(np.zeros(shape))


def _pooled(free: dict) -> list[tuple[tuple[int, ...], np.dtype]]:
    return [key for key, stack in free.items() if stack]


class TestWorkingPrecision:
    """float32 slices are denoised in float32; everything else in float64.
    The pooled solvers match the reference at the same precision bit for
    bit, and the float64 reference within :data:`FLOAT32_ACCURACY_BOUND`."""

    @pytest.fixture(scope="class")
    def slices(self):
        cell = generate_sa_region(SaRegionSpec(name="f32", topology="classic", n_pairs=1))
        volume = voxelize(cell, voxel_nm=6.0, margin_nm=40.0)
        campaign = FibSemCampaign(sem=SemParameters(dwell_time_us=6.0))
        images = acquire_stack(volume, campaign, y_stop_nm=300.0).images
        return images[::10]

    @pytest.mark.parametrize("iterations", [10, 60])
    def test_float32_within_bound_of_float64_reference(self, slices, iterations):
        for img in slices:
            assert img.dtype == np.float32
            fast = chambolle_tv(img, iterations=iterations)
            np.testing.assert_array_equal(
                fast, _reference_chambolle_tv(img, iterations=iterations)
            )
            exact = _reference_chambolle_tv(img.astype(np.float64), iterations=iterations)
            err = float(np.abs(fast.astype(np.float64) - exact).max())
            assert err < FLOAT32_ACCURACY_BOUND

    def test_alternating_dtypes_on_one_shape(self):
        """A pool keyed by shape alone would hand float64 scratch to the
        float32 call (or back), and its output would drift off its oracle."""
        _clean, noisy = _piecewise_image()
        for img in (noisy.astype(np.float32), noisy, noisy.astype(np.float32), noisy):
            for fast, ref in ((chambolle_tv, _reference_chambolle_tv),
                              (split_bregman_tv, _reference_split_bregman_tv)):
                out = fast(img)
                assert out.dtype == img.dtype
                np.testing.assert_array_equal(out, ref(img))

    @pytest.mark.parametrize("method", [chambolle_tv, split_bregman_tv])
    def test_float32_leases_float32_scratch(self, method):
        clear_buffer_pool()
        _clean, noisy = _piecewise_image()
        method(noisy.astype(np.float32))
        dtypes = {dtype for _shape, dtype in _pooled(denoise._POOL.free)}
        assert dtypes == {np.dtype(np.float32)}

    @pytest.mark.parametrize("dtype", [np.uint8, np.float16])
    def test_other_inputs_compute_in_float64(self, dtype):
        clear_buffer_pool()
        img = (np.arange(64).reshape(8, 8) % 7).astype(dtype)
        out = chambolle_tv(img)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, _reference_chambolle_tv(img))
        dtypes = {dtype for _shape, dtype in _pooled(denoise._POOL.free)}
        assert dtypes == {np.dtype(np.float64)}


class TestPoolCap:
    def test_many_shapes_stay_under_cap(self, monkeypatch):
        """Long-lived workers see a new slice shape per chip: the pool drops
        least-recently-used shapes instead of growing without bound."""
        cap = 1 << 20
        monkeypatch.setattr(denoise, "_POOL_MAX_BYTES", cap)
        clear_buffer_pool()
        rng = np.random.default_rng(5)
        for i in range(40):
            img = rng.random((40 + i, 32)).astype(np.float32 if i % 2 else np.float64)
            np.testing.assert_array_equal(
                chambolle_tv(img, iterations=3), _reference_chambolle_tv(img, iterations=3)
            )
            np.testing.assert_array_equal(
                split_bregman_tv(img, iterations=2),
                _reference_split_bregman_tv(img, iterations=2),
            )
            pooled = sum(b.nbytes for stack in denoise._POOL.free.values() for b in stack)
            assert pooled == denoise._POOL.nbytes <= cap
        # the most recent shape is still pooled; the first ones are gone
        shapes = {shape for shape, _dtype in _pooled(denoise._POOL.free)}
        assert (79, 32) in shapes and (40, 32) not in shapes
        clear_buffer_pool()


class TestEarlyStopping:
    def test_tol_none_is_default_and_exact(self):
        _clean, noisy = _piecewise_image()
        np.testing.assert_array_equal(chambolle_tv(noisy, tol=None), chambolle_tv(noisy))

    def test_tol_stops_early_but_stays_close(self):
        _clean, noisy = _piecewise_image()
        full = chambolle_tv(noisy, iterations=400)
        early = chambolle_tv(noisy, iterations=400, tol=1e-3)
        assert float(np.abs(full - early).max()) < 0.01

    def test_tol_split_bregman(self):
        _clean, noisy = _piecewise_image()
        full = split_bregman_tv(noisy, iterations=60)
        early = split_bregman_tv(noisy, iterations=60, tol=1e-4)
        assert float(np.abs(full - early).max()) < 0.01

    def test_tol_through_denoise_stack(self):
        _clean, noisy = _piecewise_image()
        out = denoise_stack([noisy], tol=1e-3)
        assert len(out) == 1 and out[0].shape == noisy.shape


class TestStack:
    def test_denoise_stack_both_methods(self):
        _clean, noisy = _piecewise_image()
        for method in ("chambolle", "split_bregman"):
            out = denoise_stack([noisy, noisy], method=method)
            assert len(out) == 2

    def test_unknown_method_rejected(self):
        with pytest.raises(PipelineError):
            denoise_stack([np.zeros((4, 4))], method="median")

    @pytest.mark.parametrize(
        "method, kwargs, iterations",
        [("chambolle", {}, 60), ("chambolle", {"iterations": 7}, 7),
         ("split_bregman", {}, 12)],
    )
    def test_kernel_span_records_pixel_iterations(self, method, kwargs, iterations):
        """pixels × iterations on the span is the exact TV work done."""
        from repro.obs import ObsConfig, ObsSession

        _clean, noisy = _piecewise_image()
        with ObsSession(ObsConfig(trace=True)) as session:
            denoise_stack([noisy, noisy], method=method, **kwargs)
        (span,) = [s for s in session.spans() if s.name == "denoise_stack"]
        assert span.attrs["iterations"] == iterations
        assert span.attrs["pixel_iterations"] == 2 * noisy.size * iterations

    def test_stronger_weight_smooths_more(self):
        _clean, noisy = _piecewise_image()
        weak = chambolle_tv(noisy, weight=0.02)
        strong = chambolle_tv(noisy, weight=0.3)
        assert _total_variation(strong) < _total_variation(weak)
