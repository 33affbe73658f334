"""Slice-to-slice alignment by mutual information.

§IV-C: "we align the slices using the mutual-information algorithm of
Dragonfly.  In particular, each slide is aligned with respect to the
previous one."  The same approach here: for each consecutive pair, find
the integer translation maximising the mutual information of the overlap,
then accumulate the per-pair shifts into absolute corrections.

The paper's sensitivity argument is reproduced by
:class:`AlignmentReport`: the residual alignment noise must stay below the
wire-height / cross-section-height budget (0.77 % for their B5 stack).

Performance note
----------------
The MI search is the wall-clock bottleneck of a campaign run: an
exhaustive ±4 px window scores 81 candidate shifts per pair and a
multi-baseline stack registers every slice against three predecessors.
The naive implementation re-bins the same float images through
``np.histogram2d`` for every candidate — quantising each pixel 243 times
per pair.  The fast path here quantises every slice to bin indices
*once* (:func:`_quantise`, bit-compatible with ``histogram2d``'s binning;
out-of-range pixels go to a sentinel bin ``bins``) and scores each
candidate with one uint16 add and one ``np.bincount``: the reference
side carries ``idx*(bins+1) + lane*(bins+1)²`` and the moving side
``idx``, so their sum is a joint-histogram cell.  The lane (column
mod 4) splits the histogram into four interleaved copies: denoised
slices are piecewise constant, so neighbouring pixels hit the same
counter and a single histogram serialises on it.  Summing the lanes and
dropping the sentinel row and column gives ``histogram2d``'s counts
exactly, so the MI argmax is identical to the brute-force search,
retained as :func:`_reference_align_pair` for the equality tests.

Every pairwise search reads only raw slices, so :func:`align_stack`
can also fan its per-slice searches out to the slice-shard pool
(:func:`repro.runtime.shard.shard_map`): slices ship as uint8 bin
indices and only the cheap fusion pass runs in the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import AlignmentBudgetExceeded, AlignmentError, PipelineError
from repro.obs import kernel_scope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.pipeline.config import ShardPlan

_SEARCH_STRATEGIES = ("exhaustive", "pyramid")


def mutual_information(a: np.ndarray, b: np.ndarray, bins: int = 32) -> float:
    """Mutual information (nats) between two equally-shaped images."""
    if a.shape != b.shape:
        raise AlignmentError("mutual information needs equal shapes", stage="align")
    hist, _, _ = np.histogram2d(a.ravel(), b.ravel(), bins=bins, range=((0, 1), (0, 1)))
    return _mi_from_counts(hist)


def _mi_from_counts(counts: np.ndarray) -> float:
    """MI (nats) of a joint histogram.

    Shared by the reference path (``histogram2d`` float counts) and the
    fast path (``bincount`` integer counts): for equal counts the float
    operations are identical, so both paths score a shift with the exact
    same number.
    """
    pxy = counts / counts.sum()
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    mask = pxy > 0
    return float(np.sum(pxy[mask] * np.log(pxy[mask] / (px @ py)[mask])))


def _bin_indices(image: np.ndarray, bins: int) -> np.ndarray:
    """Per-pixel bin index under ``histogram2d``'s uniform binning on (0, 1).

    Replicates ``np.histogramdd`` exactly — ``searchsorted(edges, v,
    'right')`` with the right edge inclusive — so joint histograms built
    from these indices match ``np.histogram2d`` count-for-count.  Pixels
    outside [0, 1] get an out-of-range index (< 0 or >= ``bins``).
    """
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.searchsorted(edges, image.reshape(-1), side="right").reshape(image.shape)
    idx[image == 1.0] -= 1
    idx -= 1
    return idx


#: interleaved histogram copies per candidate (column mod _LANES)
_LANES = 4


def _quantise(image: np.ndarray, bins: int) -> np.ndarray:
    """Bin indices with every out-of-range pixel in the sentinel bin ``bins``.

    ``histogram2d`` drops pixels outside [0, 1]; here they are counted in
    an extra row/column that the score discards, so the kept counts are
    the same.  uint8 whenever the ``bins + 1`` values fit — the form the
    sharded :func:`align_stack` ships to its workers.
    """
    idx = _bin_indices(image, bins)
    idx[(idx < 0) | (idx >= bins)] = bins
    return idx.astype(np.uint8) if bins < 256 else idx


@dataclass(frozen=True)
class _Sides:
    """A quantised slice in both roles of the lane-split bincount search."""

    ref: np.ndarray  #: ``idx*(bins+1) + (col % _LANES)*(bins+1)²`` (reference side)
    mov: np.ndarray  #: ``idx`` (moving side)


def _sides(q: np.ndarray, bins: int) -> _Sides:
    nb = bins + 1
    dtype = np.uint16 if _LANES * nb * nb <= 0xFFFF else np.intp
    mov = q.astype(dtype)
    lane = (np.arange(q.shape[1]) % _LANES * (nb * nb)).astype(dtype)
    return _Sides(ref=mov * dtype(nb) + lane, mov=mov)


def _shifted_overlap(a: np.ndarray, b: np.ndarray, dx: int, dz: int) -> tuple[np.ndarray, np.ndarray]:
    """Overlapping crops of *a* and *b* when *b* is shifted by (dx, dz).

    Both crops are empty when the shift exceeds the extent on an axis.
    """
    nx, nz = a.shape
    dx, dz = max(-nx, min(nx, dx)), max(-nz, min(nz, dz))
    ax0, ax1 = max(0, dx), min(nx, nx + dx)
    bx0, bx1 = max(0, -dx), min(nx, nx - dx)
    az0, az1 = max(0, dz), min(nz, nz + dz)
    bz0, bz1 = max(0, -dz), min(nz, nz - dz)
    return a[ax0:ax1, az0:az1], b[bx0:bx1, bz0:bz1]


def _score_shift(
    a: _Sides,
    b: _Sides,
    dx: int,
    dz: int,
    bins: int,
    shift_penalty: float,
) -> float | None:
    """Penalised MI of the (dx, dz) overlap, or ``None`` when empty."""
    ca, cb = _shifted_overlap(a.ref, b.mov, dx, dz)
    if ca.size == 0:
        return None
    nb = bins + 1
    lanes = np.bincount((ca + cb).reshape(-1), minlength=_LANES * nb * nb)
    counts = lanes.reshape(_LANES, nb, nb).sum(axis=0)[:bins, :bins]
    return _mi_from_counts(counts) - shift_penalty * (abs(dx) + abs(dz))


def _best_shift(
    a: _Sides,
    b: _Sides,
    candidates: list[tuple[int, int]],
    bins: int,
    shift_penalty: float,
    seed: tuple[tuple[int, int], float] | None = None,
) -> tuple[tuple[int, int], float]:
    """Highest-scoring candidate shift (first wins ties, as the brute force)."""
    best, best_score = seed if seed is not None else ((0, 0), -np.inf)
    for dx, dz in candidates:
        score = _score_shift(a, b, dx, dz, bins, shift_penalty)
        if score is not None and score > best_score:
            best_score = score
            best = (dx, dz)
    return best, best_score


def _align_pair_sides(
    a: _Sides,
    b: _Sides,
    search_px: int,
    bins: int,
    shift_penalty: float,
    search_strategy: str,
) -> tuple[int, int]:
    """The MI search over pre-quantised slices."""
    if search_strategy == "exhaustive":
        candidates = [
            (dx, dz)
            for dx in range(-search_px, search_px + 1)
            for dz in range(-search_px, search_px + 1)
        ]
        return _best_shift(a, b, candidates, bins, shift_penalty)[0]
    if search_strategy != "pyramid":
        raise PipelineError(
            f"unknown search strategy {search_strategy!r} "
            f"(expected one of {_SEARCH_STRATEGIES})"
        )
    # Coarse-to-fine: score a stride-2 lattice (always including 0), then
    # refine ±1 around the coarse winner.  O(search_px²/4 + 9) evaluations
    # instead of O(search_px²); may differ from the exhaustive argmax when
    # the MI surface has off-lattice maxima, which is why it is opt-in.
    lattice = sorted({o for o in range(-search_px, search_px + 1, 2)} | {0})
    coarse = [(dx, dz) for dx in lattice for dz in lattice]
    best, best_score = _best_shift(a, b, coarse, bins, shift_penalty)
    seen = set(coarse)
    refine = [
        (dx, dz)
        for dx in range(max(-search_px, best[0] - 1), min(search_px, best[0] + 1) + 1)
        for dz in range(max(-search_px, best[1] - 1), min(search_px, best[1] + 1) + 1)
        if (dx, dz) not in seen
    ]
    return _best_shift(a, b, refine, bins, shift_penalty, seed=(best, best_score))[0]


def _align_items(
    items: list[tuple[int, tuple[np.ndarray, ...]]],
    baselines: tuple[int, ...],
    search_px: int,
    bins: int,
    shift_penalty: float,
    search_strategy: str,
) -> list[tuple[tuple[int, int], ...]]:
    """Per-baseline shifts of slice *i* for each ``(i, window)`` item.

    ``window`` holds the quantised slices ``max(0, i - max(baselines))``
    through *i*.  The result for an item is one shift per baseline ``k``
    with ``i - k >= 0``, in *baselines* order, and depends on that item
    alone — this is the batch function of the sharded :func:`align_stack`
    as well as its in-process path.  Each distinct slice of the batch is
    expanded to its search sides once.
    """
    sides: dict[int, _Sides] = {}
    out = []
    for i, window in items:
        for j, q in enumerate(window, start=i + 1 - len(window)):
            if j not in sides:
                sides[j] = _sides(q, bins)
        out.append(tuple(
            _align_pair_sides(
                sides[i - k], sides[i], search_px, bins, shift_penalty,
                search_strategy,
            )
            for k in baselines
            if i - k >= 0
        ))
    return out


def align_pair(
    reference: np.ndarray,
    moving: np.ndarray,
    search_px: int = 4,
    bins: int = 32,
    shift_penalty: float = 0.01,
    search_strategy: str = "exhaustive",
) -> tuple[int, int]:
    """Translation (dx, dz) that best aligns *moving* onto *reference*.

    Exhaustive integer search over ±``search_px``, scoring mutual
    information of the overlap — small search windows suffice because
    consecutive slices drift by at most a pixel or two.  Each image is
    quantised to histogram bin indices once and every candidate shift is
    scored from one ``np.bincount`` over lane-split indices; the result
    is identical to the brute-force ``histogram2d`` search (retained as
    :func:`_reference_align_pair`).

    ``shift_penalty`` (nats per pixel of shift) regularises the search:
    cross-sections of the SA region are nearly translation-invariant along
    the bitline direction (long parallel rails), so without a mild
    preference for small shifts the MI surface is flat along that axis and
    noise drives the estimate — the per-scan tuning §IV-C alludes to.

    ``search_strategy="pyramid"`` switches to an opt-in coarse-to-fine
    search (stride-2 lattice, then ±1 refinement) that scores roughly a
    quarter of the candidates; it can differ from the exhaustive argmax on
    pathological MI surfaces, so the default stays ``"exhaustive"``.
    """
    a = _sides(_quantise(reference, bins), bins)
    b = _sides(_quantise(moving, bins), bins)
    return _align_pair_sides(a, b, search_px, bins, shift_penalty, search_strategy)


def _reference_align_pair(
    reference: np.ndarray,
    moving: np.ndarray,
    search_px: int = 4,
    bins: int = 32,
    shift_penalty: float = 0.01,
) -> tuple[int, int]:
    """The original brute-force MI search (``histogram2d`` per candidate).

    Retained as the ground truth for the bincount fast path: equality
    tests assert both return the identical ``(dx, dz)``, and the perf
    harness (:mod:`repro.perf`) reports the fast path's speedup against
    this implementation.
    """
    best = (0, 0)
    best_score = -np.inf
    for dx in range(-search_px, search_px + 1):
        for dz in range(-search_px, search_px + 1):
            ca, cb = _shifted_overlap(reference, moving, dx, dz)
            if ca.size == 0:
                continue
            score = mutual_information(ca, cb, bins=bins) - shift_penalty * (abs(dx) + abs(dz))
            if score > best_score:
                best_score = score
                best = (dx, dz)
    return best


@dataclass
class AlignmentReport:
    """Outcome of stack alignment.

    ``corrections`` are the absolute per-slice shifts applied (px).  When
    ground-truth drift is available (simulated stacks), ``residual_px`` is
    the per-slice error of correction vs truth and the budget check of
    §IV-C can be evaluated exactly.
    """

    corrections: list[tuple[int, int]]
    residual_px: list[tuple[int, int]] = field(default_factory=list)

    def max_residual_px(self) -> int:
        """Worst absolute residual component across the stack."""
        if not self.residual_px:
            return 0
        return max(max(abs(dx), abs(dz)) for dx, dz in self.residual_px)

    def residual_fraction(self, extent_px: int) -> float:
        """Worst residual as a fraction of the cross-section extent."""
        if extent_px <= 0:
            raise PipelineError("extent must be positive")
        return self.max_residual_px() / extent_px

    def check_budget(self, extent_px: int, budget_fraction: float) -> None:
        """Raise :class:`AlignmentBudgetExceeded` when out of budget."""
        frac = self.residual_fraction(extent_px)
        if frac > budget_fraction:
            raise AlignmentBudgetExceeded(frac, budget_fraction)


def apply_shift(image: np.ndarray, dx: int, dz: int) -> np.ndarray:
    """Shift an image by whole pixels with edge replication.

    Output pixel ``(x, z)`` reads input ``(x - dx, z - dz)`` clamped to the
    image, so a shift at or beyond the extent replicates the edge row or
    column across the whole axis.  Always returns a new array.
    """
    out = image
    for axis, d in ((0, dx), (1, dz)):
        if d:
            n = image.shape[axis]
            out = np.take(out, np.clip(np.arange(n) - d, 0, n - 1), axis=axis)
    return out.copy() if out is image else out


def _fuse(
    images: list[np.ndarray],
    shifts: dict[tuple[int, int], tuple[int, int]],
    baselines: tuple[int, ...],
    true_drift_px: list[tuple[int, int]] | None,
) -> tuple[list[np.ndarray], AlignmentReport]:
    """Fuse the (i, k) pairwise shifts into absolute corrections and apply them."""
    absolute: list[tuple[int, int]] = [(0, 0)]
    ax_f: list[tuple[float, float]] = [(0.0, 0.0)]
    for i in range(1, len(images)):
        predictions_x = [ax_f[i - k][0] + shifts[(i, k)][0] for k in baselines if i - k >= 0]
        predictions_z = [ax_f[i - k][1] + shifts[(i, k)][1] for k in baselines if i - k >= 0]
        fx = float(np.mean(predictions_x))
        fz = float(np.mean(predictions_z))
        ax_f.append((fx, fz))
        absolute.append((int(round(fx)), int(round(fz))))

    aligned = [apply_shift(img, dx, dz) for img, (dx, dz) in zip(images, absolute)]

    residuals: list[tuple[int, int]] = []
    if true_drift_px is not None:
        if len(true_drift_px) != len(images):
            raise AlignmentError("true drift length mismatch", stage="align")
        # Perfect correction would be -drift (up to a global offset fixed by
        # the first slice, whose drift is never observable).
        ref_dx, ref_dz = true_drift_px[0]
        for (cx, cz), (tx, tz) in zip(absolute, true_drift_px):
            residuals.append((cx + (tx - ref_dx), cz + (tz - ref_dz)))
    return aligned, AlignmentReport(corrections=absolute, residual_px=residuals)


def align_stack(
    images: list[np.ndarray],
    search_px: int = 4,
    bins: int = 32,
    true_drift_px: list[tuple[int, int]] | None = None,
    baselines: tuple[int, ...] = (1, 2, 3),
    workers: int = 1,
    shift_penalty: float = 0.01,
    search_strategy: str = "exhaustive",
    shard: "ShardPlan | None" = None,
) -> tuple[list[np.ndarray], AlignmentReport]:
    """Align a slice stack and return the corrected images plus the report.

    Estimation is raw-vs-raw (aligning against already-shifted neighbours
    would feed the edge-replication bands of earlier corrections back into
    the similarity metric and let errors run away) and *multi-baseline*:
    each slice is registered against several predecessors (offsets in
    *baselines*) and the absolute position is the rounded average of the
    individual predictions.  Single-baseline chaining accumulates the ±1 px
    quantisation error of every pair as a random walk; fusing independent
    baselines keeps the accumulated error within a pixel over hundreds of
    slices — which is what the §IV-C noise budget demands.

    Every slice is quantised to MI histogram indices exactly once, here,
    regardless of how many baselines read it — the (i, i−k) searches then
    run entirely on integer indices (see :func:`align_pair`).
    ``shift_penalty`` and ``search_strategy`` are forwarded to every
    pairwise search.

    With *true_drift_px* (from a simulated acquisition) the report carries
    exact residuals for the 0.77 %-style budget check.

    Because every pairwise registration reads only the *raw* images, the
    searches of slice *i* against its predecessors depend on nothing but
    those slices.  With ``shard`` (a
    :class:`repro.pipeline.config.ShardPlan`) engaged, each slice's
    searches become one item for the campaign's shared shard *process*
    pool, shipped as uint8 bin indices (plans with ``bins >= 256`` stay
    in-process and count a shard fallback); otherwise ``workers > 1``
    splits them over a thread pool.  The (sequential, cheap) fusion pass
    runs here either way, and the result is bit-identical for any worker
    count, shard batch size and ordering.
    """
    if not images:
        raise AlignmentError("empty stack", stage="align")
    if search_strategy not in _SEARCH_STRATEGIES:
        raise PipelineError(
            f"unknown search strategy {search_strategy!r} "
            f"(expected one of {_SEARCH_STRATEGIES})"
        )

    n = len(images)
    sharded = shard is not None and shard.engaged(n - 1)
    if sharded and bins >= 256:
        from repro.runtime.shard import note_shard_fallback

        note_shard_fallback("align", "bins-exceed-uint8")
        sharded = False
    with kernel_scope(
        "align_stack",
        pixels=sum(int(img.size) for img in images),
        slices=n,
        strategy=search_strategy,
        workers=workers,
        sharded=sharded,
    ) as scope:
        depth = max(baselines)
        quantised = [_quantise(img, bins) for img in images]
        items = [(i, tuple(quantised[max(0, i - depth):i + 1])) for i in range(1, n)]
        search = partial(
            _align_items, baselines=baselines, search_px=search_px, bins=bins,
            shift_penalty=shift_penalty, search_strategy=search_strategy,
        )
        if sharded:
            from repro.runtime.shard import shard_map

            per_item = shard_map("align", search, items, shard)
        elif workers > 1 and len(items) > 1:
            from concurrent.futures import ThreadPoolExecutor

            step = -(-len(items) // workers)
            chunks = [items[j:j + step] for j in range(0, len(items), step)]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                per_item = [r for done in pool.map(search, chunks) for r in done]
        else:
            per_item = search(items)
        shifts = {
            (i, k): shift
            for i, item_shifts in enumerate(per_item, start=1)
            for k, shift in zip([k for k in baselines if i - k >= 0], item_shifts)
        }
        scope.set(pairs=len(shifts))
        return _fuse(images, shifts, baselines, true_drift_px)


def _reference_align_stack(
    images: list[np.ndarray],
    search_px: int = 4,
    bins: int = 32,
    true_drift_px: list[tuple[int, int]] | None = None,
    baselines: tuple[int, ...] = (1, 2, 3),
    shift_penalty: float = 0.01,
) -> tuple[list[np.ndarray], AlignmentReport]:
    """Stack alignment over the brute-force pairwise search.

    Same fusion pass as :func:`align_stack`, but every pairwise estimate
    comes from :func:`_reference_align_pair` — the equality tests compare
    the two end to end, and the perf harness times this to report the
    fast path's speedup.
    """
    if not images:
        raise AlignmentError("empty stack", stage="align")
    shifts = {
        (i, k): _reference_align_pair(
            images[i - k], images[i], search_px=search_px, bins=bins,
            shift_penalty=shift_penalty,
        )
        for i in range(1, len(images))
        for k in baselines
        if i - k >= 0
    }
    return _fuse(images, shifts, baselines, true_drift_px)
