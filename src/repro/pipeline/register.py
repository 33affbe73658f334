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
per pair — and builds every joint histogram from scratch.  The fast path
quantises every slice to bin indices *once* (:func:`_quantise`,
bit-compatible with ``histogram2d``'s binning; out-of-range pixels go to
a sentinel bin ``bins``) and counts all candidates of a pair in one pass
(:func:`_grid_counts`).  The 81 overlaps share almost all their pixels,
and denoised, quantised slices are piecewise constant: moving the shift
by one pixel changes the joint histogram only where the moving slice
changes value along that axis (1.5–5 % of pixels).  So one dense
``np.bincount`` counts the first candidate, one more counts the edge
changes of every unit step, and a ``cumsum`` along a walk through the
candidates gives each one's exact integer counts (noise-dominated
slices, where most pixels are edges, are counted per candidate instead).
A batched MI (:func:`_mi_batch`) then scores every candidate with the
same floats as the per-candidate :func:`_mi_from_counts`, so the argmax
is identical to the brute-force search, retained as
:func:`_reference_align_pair` for the equality tests.

Every pairwise search reads only raw slices, so :func:`align_stack`
can also fan its per-slice searches out to the slice-shard pool
(:func:`repro.runtime.shard.shard_map`): slices ship as uint8 bin
indices and only the cheap fusion pass runs in the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Iterator

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
    """MI (nats) of a joint histogram; ``-inf`` when it holds no count.

    The reference path scores ``histogram2d``'s float counts with it, and
    :func:`_mi_batch` repeats its float operations on integer counts, so
    both paths score a shift with the exact same number.  An empty
    histogram (no overlap, or no overlapping pixel pair inside [0, 1]²)
    has nothing to score: ``-inf`` never wins a search.
    """
    total = counts.sum()
    if not total:
        return -np.inf
    pxy = counts / total
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


#: most joint-count cells (candidates x (bins+1)²) one pass of the grid
#: search holds; past it the candidate walk is counted in chunks
_COUNTS_CAP = 1 << 20

#: cost of one gathered edge entry of the walk relative to one pixel of a
#: candidate's direct count: the two take equal time when the walk
#: gathers a fifth as many entries (measured on 1339x64 and 96x48 slices)
_WALK_COST = 5


@dataclass(frozen=True)
class _Edges:
    """Where a padded moving slice changes value along one axis."""

    pos: np.ndarray  #: flat index of the edge's pixel in the padded-reference frame
    lo: np.ndarray  #: value before the edge (the pixel at index - 1 on the axis)
    hi: np.ndarray  #: value at the edge


@dataclass(frozen=True)
class _Slice:
    """A quantised slice prepared for both roles of the grid search.

    ``t`` is the reach of the search on each axis: ``search_px`` clipped
    to the extent minus one, since larger shifts overlap nothing.
    """

    shape: tuple[int, int]
    t: tuple[int, int]
    ref: np.ndarray  #: reference role: ``idx*(bins+1)``, sentinel-padded by 2t
    mov: np.ndarray  #: moving role: ``idx``, sentinel-padded by t
    edges: tuple[_Edges, _Edges]  #: x and z edges of ``mov``


def _prepare(q: np.ndarray, search_px: int, bins: int) -> _Slice:
    """Pad quantised slice *q* for both search roles and list its edges."""
    nb = bins + 1
    dtype = np.uint16 if nb * nb <= 0x10000 else np.intp
    (nx, nz), sentinel = q.shape, dtype(bins)
    tx, tz = (max(0, min(search_px, n - 1)) for n in q.shape)
    idx = q.astype(dtype)
    ref = np.pad(
        idx * dtype(nb), ((2 * tx, 2 * tx), (2 * tz, 2 * tz)), constant_values=sentinel * nb
    )
    mov = np.pad(idx, ((tx, tx), (tz, tz)), constant_values=sentinel)
    flat, width = mov.reshape(-1), mov.shape[1]
    edges = []
    for step, along_z in ((width, False), (1, True)):  # the previous pixel on x, then z
        at = np.flatnonzero(flat[:-step] != flat[step:]) + step
        if along_z:
            at = at[at % width != 0]  # not across a row break
        x, z = np.divmod(at, width)
        edges.append(_Edges(pos=x * ref.shape[1] + z, lo=flat[at - step], hi=flat[at]))
    return _Slice((nx, nz), (tx, tz), ref.reshape(-1), mov, tuple(edges))


@lru_cache(maxsize=64)
def _walk(tx: int, tz: int, width: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """A unit-step path through every candidate of a (2tx+1, 2tz+1) grid.

    Rows of x steps run alternately up and down, joined by single z
    steps.  Returns the candidates' grid indices ``(i, j)`` in path order
    and, for the x and then the z steps, ``(k, offset, up)``: the path
    index a step reaches, the flat padded-reference offset of the step's
    lower-index candidate (``i*width + j``), and whether it counts up.
    """
    i, j = [], []
    for row in range(2 * tz + 1):
        cols = range(2 * tx + 1)
        i += cols if row % 2 == 0 else reversed(cols)
        j += [row] * len(cols)
    i, j = np.array(i), np.array(j)
    k = np.arange(1, len(i))
    lower = np.minimum(i[1:], i[:-1]) * width + np.minimum(j[1:], j[:-1])
    up = (i[1:] + j[1:]) > (i[:-1] + j[:-1])
    along_x = i[1:] != i[:-1]
    steps = tuple((k[on], lower[on], up[on]) for on in (along_x, ~along_x))
    for arr in (i, j, *(a for step in steps for a in step)):
        arr.setflags(write=False)
    return i, j, steps


def _mi_batch(counts: np.ndarray) -> np.ndarray:
    """:func:`_mi_from_counts` of every ``counts[c]``, bit for bit.

    Each step repeats the scalar version's float operations on a stacked
    axis; the final sum is ``np.add.reduce`` over each candidate's own
    contiguous run of terms, as the scalar version sums them.  A
    candidate with no counts scores ``-inf``.
    """
    n, bins, _ = counts.shape
    total = counts.sum(axis=(1, 2))
    pxy = counts.astype(np.float64) / np.maximum(total, 1)[:, None, None]
    px = pxy.sum(axis=2).reshape(-1)
    py = pxy.sum(axis=1).reshape(-1)
    at = np.flatnonzero(pxy > 0)  # (candidate, x, y) in C order, as pxy[mask]
    p = pxy.reshape(-1)[at]
    terms = p * np.log(p / (px[at // bins] * py[at // (bins * bins) * bins + at % bins]))
    ends = np.searchsorted(at, np.arange(1, n + 1) * bins * bins).tolist()
    mi = np.array([np.add.reduce(terms[a:b]) for a, b in zip([0] + ends, ends)])
    mi[total == 0] = -np.inf
    return mi


def _grid_counts(
    a: _Slice, b: _Slice, bins: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Joint counts of every candidate shift of *b* onto *a*, in chunks.

    Yields ``(dx, dz, counts, gathered)``: the chunk's candidates, their
    ``(bins+1, bins+1)`` joint counts (the last row and column are the
    sentinel) and the edge entries gathered for them.  Candidate
    ``(dx, dz)`` pairs reference pixel ``(x, z)`` with moving pixel
    ``(x - dx, z - dz)`` — the sentinel where that is off the slice —
    so its ``[:bins, :bins]`` counts are ``histogram2d``'s on
    :func:`_shifted_overlap`.  The first candidate of :func:`_walk` is
    one dense ``bincount``; every later one differs from its predecessor
    only at the moving slice's edges along the step's axis, where a
    reference pixel trades one moving value (``lo`` or ``hi``) for the
    other.  One ``bincount`` per chunk keys those trades by step — gains
    in the first half, losses in the second — and a ``cumsum`` along the
    walk gives every candidate's exact counts.  When the moving slice
    changes value so often that the walk would gather more than
    1/``_WALK_COST`` as many entries as counting each candidate directly
    reads pixels (noise-dominated slices), every candidate gets its own
    dense ``bincount`` instead; both give the same counts.  A chunk holds at
    most ``_COUNTS_CAP`` cells (at least one candidate), so large
    ``bins`` cost time, not memory.
    """
    (nx, nz), (tx, tz) = a.shape, a.t
    nb2 = (bins + 1) ** 2
    i, j, steps = _walk(tx, tz, nz + 4 * tz)
    real = a.ref.reshape(nx + 4 * tx, -1)[2 * tx:2 * tx + nx, 2 * tz:2 * tz + nz]
    first = real + b.mov[2 * tx:2 * tx + nx, 2 * tz:2 * tz + nz]
    walk = sum(len(k) * len(e.pos) for (k, _, _), e in zip(steps, b.edges))
    direct = _WALK_COST * walk > len(i) * first.size
    carry = np.zeros(nb2, np.intp)
    chunk = max(1, _COUNTS_CAP // nb2)
    for k0 in range(0, len(i), chunk):
        k1 = min(len(i), k0 + chunk)
        if direct:
            counts = np.stack([
                np.bincount(
                    (real + b.mov[2 * tx - x:2 * tx - x + nx, 2 * tz - z:2 * tz - z + nz])
                    .reshape(-1), minlength=nb2,
                )
                for x, z in zip(i[k0:k1].tolist(), j[k0:k1].tolist())
            ])
            yield i[k0:k1] - tx, j[k0:k1] - tz, counts.reshape(-1, bins + 1, bins + 1), 0
            continue
        size = (k1 - k0) * nb2
        spans = [np.searchsorted(k, (k0, k1)) for k, _, _ in steps]
        n = int(sum(2 * (s1 - s0) * len(e.pos) for (s0, s1), e in zip(spans, b.edges)))
        keys = np.empty(n + (first.size if k0 == 0 else 0), np.intp)
        at = 0
        if k0 == 0:
            keys[:first.size] = first.reshape(-1)
            at = first.size
        for (k, offset, up), (s0, s1), edges in zip(steps, spans, b.edges):
            ref = a.ref[edges.pos + offset[s0:s1, None]]
            step = (k[s0:s1, None] - k0) * nb2
            # a step up gains its lo pairs and loses its hi pairs; down, the reverse
            lo_half = np.where(up[s0:s1, None], 0, size)
            for value, half in ((edges.lo, lo_half), (edges.hi, size - lo_half)):
                view = keys[at:at + ref.size].reshape(ref.shape)
                np.add(ref, step + half, out=view)
                view += value
                at += ref.size
        both = np.bincount(keys, minlength=2 * size)
        counts = np.cumsum((both[:size] - both[size:]).reshape(k1 - k0, nb2), axis=0)
        counts += carry
        carry = counts[-1]
        yield i[k0:k1] - tx, j[k0:k1] - tz, counts.reshape(k1 - k0, bins + 1, bins + 1), n // 2


def _score_grid(
    a: _Slice, b: _Slice, search_px: int, bins: int, shift_penalty: float,
) -> tuple[np.ndarray, int, int]:
    """Penalised MI of every candidate shift of *b* onto *a*.

    Returns the scores indexed ``[dx + search_px, dz + search_px]``
    (``-inf`` where nothing in range overlaps), the number of candidates
    counted and the number of edge entries gathered.
    """
    scores = np.full((2 * search_px + 1,) * 2, -np.inf)
    candidates = gathered = 0
    for dx, dz, counts, n in _grid_counts(a, b, bins):
        mi = _mi_batch(counts[:, :bins, :bins])
        scores[dx + search_px, dz + search_px] = mi - shift_penalty * (np.abs(dx) + np.abs(dz))
        candidates += len(dx)
        gathered += n
    return scores, candidates, gathered


def _pick(
    scores: list[list[float]],
    search_px: int,
    candidates: list[tuple[int, int]],
    best: tuple[int, int] = (0, 0),
    best_score: float = -np.inf,
) -> tuple[tuple[int, int], float]:
    """The best of *candidates* on the score grid, seeded with *best*.

    A candidate takes over only with a strictly higher score, so ties go
    to the earlier one, and ``-inf`` (unscorable) never wins.
    """
    for dx, dz in candidates:
        score = scores[dx + search_px][dz + search_px]
        if score > best_score:
            best, best_score = (dx, dz), score
    return best, best_score


def _check_strategy(search_strategy: str) -> None:
    if search_strategy not in _SEARCH_STRATEGIES:
        raise PipelineError(
            f"unknown search strategy {search_strategy!r} "
            f"(expected one of {_SEARCH_STRATEGIES})"
        )


def _align_prepared(
    a: _Slice,
    b: _Slice,
    search_px: int,
    bins: int,
    shift_penalty: float,
    search_strategy: str,
) -> tuple[tuple[int, int], int, int]:
    """The MI search over prepared slices: shift, candidates, edge entries."""
    grid, candidates, edges = _score_grid(a, b, search_px, bins, shift_penalty)
    scores = grid.tolist()
    span = range(-search_px, search_px + 1)
    if search_strategy == "exhaustive":
        best, _ = _pick(scores, search_px, [(dx, dz) for dx in span for dz in span])
        return best, candidates, edges
    # Coarse-to-fine: a stride-2 lattice (always including 0), then ±1
    # around the coarse winner.  Both read the same score grid; may differ
    # from the exhaustive argmax when the MI surface has off-lattice
    # maxima, which is why it is opt-in.
    lattice = sorted({o for o in range(-search_px, search_px + 1, 2)} | {0})
    coarse = [(dx, dz) for dx in lattice for dz in lattice]
    best, best_score = _pick(scores, search_px, coarse)
    seen = set(coarse)
    refine = [
        (dx, dz)
        for dx in range(max(-search_px, best[0] - 1), min(search_px, best[0] + 1) + 1)
        for dz in range(max(-search_px, best[1] - 1), min(search_px, best[1] + 1) + 1)
        if (dx, dz) not in seen
    ]
    best, _ = _pick(scores, search_px, refine, best, best_score)
    return best, candidates, edges


def _align_items(
    items: list[tuple[int, tuple[np.ndarray, ...]]],
    baselines: tuple[int, ...],
    search_px: int,
    bins: int,
    shift_penalty: float,
    search_strategy: str,
) -> list[tuple[tuple[tuple[int, int], ...], int, int]]:
    """Per-baseline shifts of slice *i* for each ``(i, window)`` item.

    ``window`` holds the quantised slices ``max(0, i - max(baselines))``
    through *i*.  The result for an item is one shift per baseline ``k``
    with ``i - k >= 0``, in *baselines* order, plus the candidates and
    edge entries its searches counted, and depends on that item alone —
    this is the batch function of the sharded :func:`align_stack` as well
    as its in-process path.  Each slice is prepared once per batch and
    dropped once ``i - max(baselines)`` has passed it.
    """
    depth = max(baselines)
    prepared: dict[int, _Slice] = {}
    out = []
    for i, window in items:
        for j in [j for j in prepared if j < i - depth]:
            del prepared[j]
        start = i + 1 - len(window)
        for j in {i, *(i - k for k in baselines if i - k >= 0)}:
            if j not in prepared:
                prepared[j] = _prepare(window[j - start], search_px, bins)
        found = [
            _align_prepared(
                prepared[i - k], prepared[i], search_px, bins, shift_penalty,
                search_strategy,
            )
            for k in baselines
            if i - k >= 0
        ]
        out.append((
            tuple(shift for shift, _, _ in found),
            sum(c for _, c, _ in found),
            sum(e for _, _, e in found),
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
    quantised to histogram bin indices once, and the joint counts of all
    (2·search_px+1)² candidates come from one dense ``np.bincount`` plus
    the count changes at the moving image's edges (:func:`_score_grid`).
    The counts and scores equal the brute-force ``histogram2d`` search's
    exactly (retained as :func:`_reference_align_pair`), so the result
    is identical.  A candidate without a single overlapping pixel pair
    inside [0, 1]² is never chosen; with none left the answer is (0, 0).

    ``shift_penalty`` (nats per pixel of shift) regularises the search:
    cross-sections of the SA region are nearly translation-invariant along
    the bitline direction (long parallel rails), so without a mild
    preference for small shifts the MI surface is flat along that axis and
    noise drives the estimate — the per-scan tuning §IV-C alludes to.

    ``search_strategy="pyramid"`` switches to an opt-in coarse-to-fine
    search (stride-2 lattice, then ±1 refinement) that picks from the
    same score grid; it can differ from the exhaustive argmax on
    pathological MI surfaces, so the default stays ``"exhaustive"``.
    """
    _check_strategy(search_strategy)
    if reference.shape != moving.shape:
        raise AlignmentError("align_pair needs equally-shaped images", stage="align")
    a, b = (_prepare(_quantise(img, bins), search_px, bins) for img in (reference, moving))
    return _align_prepared(a, b, search_px, bins, shift_penalty, search_strategy)[0]


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
    regardless of how many baselines read it, and prepared for the grid
    search (padding and edge lists) once per batch of searches — the
    (i, i−k) searches then run entirely on integer indices (see
    :func:`align_pair`).  ``shift_penalty`` and ``search_strategy`` are
    forwarded to every pairwise search.  The kernel span records the
    exact work next to the pairs: ``candidates`` (shifts scored) and
    ``edges`` (edge entries gathered).

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
    _check_strategy(search_strategy)
    if len({img.shape for img in images}) > 1:
        raise AlignmentError("align_stack needs equally-shaped slices", stage="align")

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
            for i, (item_shifts, _, _) in enumerate(per_item, start=1)
            for k, shift in zip([k for k in baselines if i - k >= 0], item_shifts)
        }
        scope.set(
            pairs=len(shifts),
            candidates=sum(c for _, c, _ in per_item),
            edges=sum(e for _, _, e in per_item),
        )
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
