"""Mutual-information slice alignment (§IV-C)."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AlignmentBudgetExceeded, PipelineError
from repro.obs import Tracer, use_tracer
from repro.pipeline import register
from repro.pipeline.register import (
    AlignmentReport,
    _grid_counts,
    _mi_from_counts,
    _prepare,
    _quantise,
    _reference_align_pair,
    _reference_align_stack,
    _score_grid,
    _shifted_overlap,
    align_pair,
    align_stack,
    apply_shift,
    mutual_information,
)


def _texture(seed=0, shape=(96, 48)) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = rng.random((shape[0] // 8, shape[1] // 8))
    img = np.kron(base, np.ones((8, 8)))
    return np.clip(img, 0, 1)


class TestMutualInformation:
    def test_self_information_is_maximal(self):
        img = _texture()
        other = _texture(seed=5)
        assert mutual_information(img, img) > mutual_information(img, other)

    def test_independent_images_carry_less_information(self):
        a = _texture(seed=1)
        b = _texture(seed=2)
        assert mutual_information(a, b) < 0.7 * mutual_information(a, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PipelineError):
            mutual_information(np.zeros((4, 4)), np.zeros((5, 4)))


def _noisy_stack(seed, drift, spill=0.0):
    """A blocky 48x40 slice shifted by *drift*; *spill* widens the noise
    so that pixels land outside [0, 1]."""
    rng = np.random.default_rng(seed)
    base = np.clip(np.kron(rng.random((6, 5)), np.ones((8, 8))), 0, 1)
    images = []
    for d in drift:
        img = apply_shift(base, *d) + rng.normal(0, 0.03 + spill, base.shape)
        images.append(img if spill else np.clip(img, 0, 1))
    return images


class TestAlignPair:
    @pytest.mark.parametrize("shift", [(1, 0), (-2, 1), (3, -2), (0, 0)])
    def test_recovers_known_shift(self, shift):
        img = _texture(seed=7)
        moved = apply_shift(img.copy(), *shift)
        dx, dz = align_pair(img, moved, search_px=4)
        assert (dx, dz) == (-shift[0], -shift[1])

    def test_penalty_prefers_zero_on_flat_images(self):
        flat = np.full((64, 32), 0.5)
        assert align_pair(flat, flat.copy()) == (0, 0)


class TestAlignStack:
    def test_no_drift_stays_put(self):
        images = [_texture(seed=i) * 0.2 + _texture(seed=99) * 0.8 for i in range(6)]
        aligned, report = align_stack(images, true_drift_px=[(0, 0)] * 6)
        assert report.max_residual_px() <= 1

    def test_recovers_linear_drift(self):
        base = _texture(seed=42)
        rng = np.random.default_rng(0)
        images = []
        drift = []
        for i in range(8):
            d = (i // 2, 0)  # slow linear drift in x
            img = apply_shift(base.copy(), *d) + rng.normal(0, 0.01, base.shape)
            images.append(np.clip(img, 0, 1))
            drift.append(d)
        aligned, report = align_stack(images, true_drift_px=drift)
        assert report.max_residual_px() <= 1
        # The corrected images match the first slice.
        for img in aligned[1:]:
            assert np.abs(img[8:-8, 8:-8] - aligned[0][8:-8, 8:-8]).mean() < 0.05

    def test_empty_stack_rejected(self):
        with pytest.raises(PipelineError):
            align_stack([])

    def test_drift_length_mismatch_rejected(self):
        with pytest.raises(PipelineError):
            align_stack([_texture()], true_drift_px=[(0, 0), (1, 1)])


class TestBincountEqualsBruteForce:
    """The bincount-MI fast path must reproduce the retained brute force."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        nx=st.integers(16, 72),
        nz=st.integers(16, 72),
        noise=st.floats(0.0, 0.15),
        float32=st.booleans(),
    )
    def test_align_pair_identical_on_random_noisy_pairs(self, seed, nx, nz, noise, float32):
        rng = np.random.default_rng(seed)
        a = np.clip(
            np.kron(rng.random((-(-nx // 8), -(-nz // 8))), np.ones((8, 8)))[:nx, :nz]
            + rng.normal(0, noise, (nx, nz)), 0, 1,
        )
        shift = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        b = np.clip(np.roll(a, shift, (0, 1)) + rng.normal(0, noise, a.shape), 0, 1)
        if float32:
            a, b = a.astype(np.float32), b.astype(np.float32)
        assert align_pair(a, b, search_px=3) == _reference_align_pair(a, b, search_px=3)

    def test_out_of_range_pixels_dropped_like_histogram2d(self):
        """histogram2d drops samples outside (0, 1); the fused-index path
        must drop exactly the same pixels."""
        rng = np.random.default_rng(3)
        a = rng.normal(0.5, 0.5, (48, 40))  # plenty of pixels outside [0, 1]
        b = np.roll(a, (1, -1), (0, 1)) + rng.normal(0, 0.05, a.shape)
        assert align_pair(a, b, search_px=2) == _reference_align_pair(a, b, search_px=2)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 6),
        bins=st.sampled_from([2, 32, 126, 127, 300]),
        baselines=st.sampled_from([(1,), (1, 2), (1, 2, 3)]),
        spill=st.sampled_from([0.0, 0.4]),
    )
    def test_align_stack_identical_on_random_noisy_stacks(self, seed, n, bins, baselines, spill):
        """Also covers the sentinel bin (*spill* puts pixels outside
        [0, 1]), both sides of the uint16 lane limit (bins 126/127) and
        bins past the uint8 limit."""
        rng = np.random.default_rng(seed)
        drift = [(int(rng.integers(-1, 2)) * (i % 2), int(rng.integers(-1, 2))) for i in range(n)]
        images = _noisy_stack(seed, drift, spill)
        kwargs = {"search_px": 2, "bins": bins, "baselines": baselines, "true_drift_px": drift}
        fast, rep_fast = align_stack(images, **kwargs)
        ref, rep_ref = _reference_align_stack(images, **kwargs)
        assert rep_fast.corrections == rep_ref.corrections
        assert rep_fast.residual_px == rep_ref.residual_px
        for f, r in zip(fast, ref):
            np.testing.assert_array_equal(f, r)

    def test_shift_penalty_forwarded_by_align_stack(self):
        """A huge penalty pins every correction to (0, 0)."""
        rng = np.random.default_rng(9)
        base = np.clip(np.kron(rng.random((6, 5)), np.ones((8, 8))), 0, 1)
        images = [
            np.clip(np.roll(base, i, axis=0) + rng.normal(0, 0.02, base.shape), 0, 1)
            for i in range(4)
        ]
        _, report = align_stack(images, search_px=2, shift_penalty=1e6)
        assert report.corrections == [(0, 0)] * 4

    def test_pyramid_strategy_recovers_known_shift(self):
        rng = np.random.default_rng(21)
        img = np.clip(np.kron(rng.random((12, 6)), np.ones((8, 8))), 0, 1)
        moved = apply_shift(img.copy(), 2, -1)
        assert align_pair(img, moved, search_px=4, search_strategy="pyramid") == (-2, 1)

    def test_unknown_strategy_rejected(self):
        img = np.zeros((16, 16))
        with pytest.raises(PipelineError, match="strategy"):
            align_pair(img, img, search_strategy="simulated_annealing")
        with pytest.raises(PipelineError, match="strategy"):
            align_stack([img, img], search_strategy="simulated_annealing")



def _spilled_pair(seed, nx, nz, dtype):
    """Two blocky slices with noise wide enough to put pixels outside [0, 1]."""
    rng = np.random.default_rng(seed)
    base = np.kron(rng.random((-(-nx // 3), -(-nz // 3))), np.ones((3, 3)))[:nx, :nz]
    a = base + rng.normal(0, 0.2, (nx, nz))
    b = np.roll(base, (1, -1), (0, 1)) + rng.normal(0, 0.2, (nx, nz))
    return a.astype(dtype), b.astype(dtype)


def _pyramid_pick(scores, search_px):
    """The pyramid's lattice-then-refine rule over reference scores."""
    def pick(candidates, best, best_score):
        for c in candidates:
            if scores[c] > best_score:
                best, best_score = c, scores[c]
        return best, best_score

    lattice = sorted(set(range(-search_px, search_px + 1, 2)) | {0})
    coarse = [(dx, dz) for dx in lattice for dz in lattice]
    best, best_score = pick(coarse, (0, 0), -np.inf)
    refine = [
        (dx, dz)
        for dx in range(max(-search_px, best[0] - 1), min(search_px, best[0] + 1) + 1)
        for dz in range(max(-search_px, best[1] - 1), min(search_px, best[1] + 1) + 1)
        if (dx, dz) not in coarse
    ]
    return pick(refine, best, best_score)[0]


class TestScoreGrid:
    """The one-pass score grid against per-candidate ``histogram2d``."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        bins=st.sampled_from([2, 32, 255, 256, 1024]),
        penalty=st.sampled_from([0.0, 0.01, 0.3]),
        dtype=st.sampled_from([np.float32, np.float64]),
        walk=st.booleans(),
        data=st.data(),
    )
    def test_counts_scores_and_picks_match_histogram2d(
        self, seed, bins, penalty, dtype, walk, data
    ):
        """Shifts up to and past the extent, on both counting paths (the
        edge walk, and a direct count per candidate); a wide histogram per
        candidate is costly, so wider bins get smaller slices."""
        side = {2: 14, 32: 14, 255: 6, 256: 6, 1024: 3}[bins]
        nx = data.draw(st.integers(1, side), label="nx")
        nz = data.draw(st.integers(1, side), label="nz")
        search_px = data.draw(st.integers(0, side + 2), label="search_px")
        a, b = _spilled_pair(seed, nx, nz, dtype)
        with mock.patch.object(register, "_WALK_COST", 0 if walk else 10**9):
            self._check_grid(a, b, search_px, bins, penalty, walk)

    def _check_grid(self, a, b, search_px, bins, penalty, walk):
        pa, pb = (_prepare(_quantise(img, bins), search_px, bins) for img in (a, b))
        counted = {}
        for dxs, dzs, counts, gathered in _grid_counts(pa, pb, bins):
            assert walk or gathered == 0
            for dx, dz, c in zip(dxs.tolist(), dzs.tolist(), counts):
                counted[dx, dz] = c[:bins, :bins]
        grid, candidates, _ = _score_grid(pa, pb, search_px, bins, penalty)
        assert candidates == len(counted)
        span = range(-search_px, search_px + 1)
        reference = {}
        empty = np.zeros((bins, bins))  # histogram2d of an empty overlap
        for dx in span:
            for dz in span:
                ca, cb = _shifted_overlap(a, b, dx, dz)
                hist = empty if ca.size == 0 else np.histogram2d(
                    ca.ravel(), cb.ravel(), bins=bins, range=((0, 1), (0, 1))
                )[0]
                kept = counted.get((dx, dz), np.zeros((bins, bins), np.intp))
                assert np.array_equal(kept, hist), (dx, dz)
                reference[dx, dz] = _mi_from_counts(hist) - penalty * (abs(dx) + abs(dz))
                score = grid[dx + search_px, dz + search_px]
                assert np.float64(score).tobytes() == np.float64(reference[dx, dz]).tobytes()
        exhaustive = [(dx, dz) for dx in span for dz in span]
        best = max(exhaustive, key=lambda c: reference[c])  # the first maximum
        if reference[best] == -np.inf:
            best = (0, 0)
        kwargs = {"search_px": search_px, "bins": bins, "shift_penalty": penalty}
        assert align_pair(a, b, **kwargs) == best
        assert align_pair(a, b, search_strategy="pyramid", **kwargs) == _pyramid_pick(
            reference, search_px
        )

    def test_walk_on_piecewise_constant_direct_on_noise(self):
        """The edge walk counts denoised-like slices; noise-dominated ones,
        where nearly every pixel is an edge, are counted directly."""
        rng = np.random.default_rng(5)
        blocky = np.kron(rng.random((8, 6)), np.ones((8, 8)))
        noise = rng.random((64, 48))
        for img, walks in ((blocky, True), (noise, False)):
            moved = np.roll(img, (1, -2), (0, 1))
            pa, pb = (_prepare(_quantise(x, 32), 4, 32) for x in (img, moved))
            _, _, gathered = _score_grid(pa, pb, 4, 32, 0.01)
            assert (gathered > 0) == walks
            assert align_pair(img, moved) == _reference_align_pair(img, moved)

    def test_all_out_of_range_overlap_is_unscorable(self):
        """No kept pixel pair: no candidate scores, nothing warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert align_pair(np.full((20, 10), 2.0), np.full((20, 10), -1.0)) == (0, 0)
            assert _reference_align_pair(
                np.full((20, 10), 2.0), np.full((20, 10), -1.0)
            ) == (0, 0)
            pa, pb = (_prepare(_quantise(img, 32), 4, 32)
                      for img in (np.full((20, 10), 2.0), np.full((20, 10), -1.0)))
            grid, _, _ = _score_grid(pa, pb, 4, 32, 0.01)
            assert (grid == -np.inf).all()

    def test_shapes_must_match(self):
        with pytest.raises(PipelineError, match="equally-shaped"):
            align_pair(np.zeros((8, 8)), np.zeros((8, 9)))
        with pytest.raises(PipelineError, match="equally-shaped"):
            align_stack([np.zeros((8, 8)), np.zeros((9, 8))])


class TestAlignStackPaths:
    def test_thread_workers_match_serial(self):
        images = _noisy_stack(4, [(i % 2, -(i % 3)) for i in range(7)])
        serial = align_stack(images, search_px=2)
        threaded = align_stack(images, search_px=2, workers=3)
        assert threaded[1].corrections == serial[1].corrections
        for a, b in zip(threaded[0], serial[0]):
            np.testing.assert_array_equal(a, b)

    def test_kernel_span_records_exact_work(self):
        """pairs, candidates and gathered edge entries are exact counts,
        the same on the serial and the threaded path."""
        images = [apply_shift(_texture(seed=3), i % 2, -(i % 3)) for i in range(6)]
        recorded = []
        for workers in (1, 3):
            tracer = Tracer()
            with use_tracer(tracer):
                align_stack(images, search_px=2, baselines=(1, 2), workers=workers)
            (span,) = [s for s in tracer.finished_spans() if s.name == "align_stack"]
            recorded.append({k: span.attrs[k] for k in ("pairs", "candidates", "edges")})
        assert recorded[0] == recorded[1]
        assert all(type(v) is int for v in recorded[0].values())  # JSON-serialisable
        assert recorded[0]["pairs"] == 5 + 4
        assert recorded[0]["candidates"] == 9 * 25
        assert recorded[0]["edges"] > 0

    def test_single_slice_stack(self):
        (out,), report = align_stack([_texture()])
        np.testing.assert_array_equal(out, _texture())
        assert report.corrections == [(0, 0)]


def _roll_shift(image, dx, dz):
    """The np.roll formulation of apply_shift (valid for |shift| < extent)."""
    out = image
    if dx:
        out = np.roll(out, dx, axis=0)
        if dx > 0:
            out[:dx, :] = out[dx, :]
        else:
            out[dx:, :] = out[dx - 1, :]
    if dz:
        out = np.roll(out, dz, axis=1)
        if dz > 0:
            out[:, :dz] = out[:, dz][:, None]
        else:
            out[:, dz:] = out[:, dz - 1][:, None]
    return out.copy() if out is image else out


class TestShiftBounds:
    """Shifts at or beyond the image extent."""

    @pytest.mark.parametrize("dx, dz", [(4, 0), (-4, 0), (0, 5), (-3, -3), (9, -9)])
    def test_overlap_is_empty_beyond_extent(self, dx, dz):
        a = np.arange(9).reshape(3, 3)
        ca, cb = _shifted_overlap(a, a, dx, dz)
        assert ca.shape == cb.shape
        assert ca.size == 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        nx=st.integers(1, 5),
        nz=st.integers(1, 5),
        search_px=st.integers(0, 6),
    )
    def test_tiny_images_match_reference(self, seed, nx, nz, search_px):
        rng = np.random.default_rng(seed)
        a, b = rng.random((nx, nz)), rng.random((nx, nz))
        assert align_pair(a, b, search_px=search_px) == _reference_align_pair(
            a, b, search_px=search_px
        )

    def test_search_wider_than_image(self):
        a = np.random.default_rng(0).random((3, 3))
        assert align_pair(a, a, search_px=4) == _reference_align_pair(a, a, search_px=4)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        nx=st.integers(1, 9),
        nz=st.integers(1, 9),
        data=st.data(),
        float32=st.booleans(),
    )
    def test_apply_shift_equals_roll_in_range(self, seed, nx, nz, data, float32):
        img = np.random.default_rng(seed).random((nx, nz))
        if float32:
            img = img.astype(np.float32)
        dx = data.draw(st.integers(-(nx - 1), nx - 1))
        dz = data.draw(st.integers(-(nz - 1), nz - 1))
        out = apply_shift(img, dx, dz)
        expected = _roll_shift(img, dx, dz)
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(out, expected)
        assert out is not img

    @pytest.mark.parametrize("dx, dz", [(5, 0), (-5, 0), (0, 7), (0, -4), (12, -9)])
    def test_apply_shift_replicates_edges_beyond_extent(self, dx, dz):
        img = np.random.default_rng(1).random((5, 4))
        out = apply_shift(img, dx, dz)
        rows = np.clip(np.arange(5) - dx, 0, 4)
        cols = np.clip(np.arange(4) - dz, 0, 3)
        np.testing.assert_array_equal(out, img[np.ix_(rows, cols)])
        if dx >= 5:
            assert (out == out[0]).all()
        if dx <= -5:
            assert (out == out[-1]).all()


class TestReport:
    def test_residual_fraction_and_budget(self):
        report = AlignmentReport(corrections=[(0, 0)], residual_px=[(2, 1)])
        assert report.max_residual_px() == 2
        assert report.residual_fraction(200) == pytest.approx(0.01)
        report.check_budget(2000, budget_fraction=0.0077)  # 0.1% < 0.77%
        with pytest.raises(AlignmentBudgetExceeded):
            report.check_budget(100, budget_fraction=0.0077)  # 2% > 0.77%

    def test_zero_extent_rejected(self):
        report = AlignmentReport(corrections=[(0, 0)])
        with pytest.raises(PipelineError):
            report.residual_fraction(0)
