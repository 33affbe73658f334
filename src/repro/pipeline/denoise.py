"""Edge-preserving denoising: total-variation minimisation.

§IV-C: "we filter the images to reduce noise with edge preserving
algorithms (split-Bregman or Chambolle for a total-variation denoising)".
Both are implemented here from their primary publications:

* :func:`chambolle_tv` — A. Chambolle, *An algorithm for total variation
  minimization and applications*, JMIV 20, 2004: dual projection iteration
  for the ROF model ``min_u ‖u − f‖²/(2λ) + TV(u)``.
* :func:`split_bregman_tv` — Goldstein & Osher, *The split Bregman method
  for L1-regularized problems*, SIAM J. Imaging Sci. 2(2), 2009:
  variable-splitting with Bregman updates, Gauss–Seidel inner solve and
  anisotropic shrinkage.

Both operate on float images in [0, 1] and preserve material edges far
better than linear smoothing — which is the property the reverse
engineering needs (wire boundaries survive).

Performance note
----------------
The solvers iterate dozens of times per slice over a handful of
same-shaped fields; the naive formulation allocated ~8 fresh arrays *per
iteration* and built the Gauss–Seidel neighbour sum from four ``np.roll``
copies.  The implementations below lease every working array once per
call from a thread-local buffer pool (:func:`_lease` / :func:`_release`),
update in place with ``out=``-based ufuncs, and fill the neighbour sum by
slice assignment; the Chambolle sweep is additionally row-blocked
(:func:`_block_rows`) so its per-element intermediates stay cache-resident
rather than streaming full-size arrays through every ufunc.

A slice is narrow along z (axis 1: 64 px against ~1,300 rows), so a
difference along z written ``a[:, 1:] - a[:, :-1]`` runs as one short
inner loop per row — ~6x the cost of the same elements as one flat,
contiguous pass.  Every z difference therefore goes through
:func:`_diff_z`, which subtracts flat neighbours over whole C-contiguous
rows; the few pairs that straddle a row break land exactly in the
stencil's boundary column, which is then written explicitly as before.
The flat pass is bit-identical because each in-row element still gets the
very same scalar subtraction — only *which ufunc call* computes it
changes.  The split-Bregman neighbour sum does the same with its two z
additions, summing each wrapped boundary column aside in its original
order and writing it back over the cross-row entries.

They compute at the input's precision: a float32 slice (what
:func:`repro.imaging.fib.acquire_stack` yields) is denoised with float32
scratch and float32 arithmetic, which halves the bytes every ufunc pass
moves; any other input computes in float64.  Every floating-point
operation is kept in the original order, so the outputs are bit-identical
to the seed implementations run at the same precision — retained as
:func:`_reference_chambolle_tv` and :func:`_reference_split_bregman_tv`
for the equality tests and the perf harness (:mod:`repro.perf`).  Against
the float64 reference, float32 Chambolle output differs by at most 5.2e-6
on acquired one-pair stacks at 60 iterations (the tests assert 1e-5), far
below the detector's noise.  The opt-in ``tol=`` knob adds an early
convergence exit; the default ``tol=None`` preserves the exact iteration
count.
"""

from __future__ import annotations

import inspect
import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import PipelineError
from repro.obs import kernel_scope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.pipeline.config import ShardPlan


def _gradient(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences with Neumann boundary."""
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:-1, :] = u[1:, :] - u[:-1, :]
    gy[:, :-1] = u[:, 1:] - u[:, :-1]
    return gx, gy


def _divergence(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Backward-difference divergence, adjoint of :func:`_gradient`."""
    div = np.zeros_like(px)
    div[0, :] += px[0, :]
    div[1:-1, :] += px[1:-1, :] - px[:-2, :]
    div[-1, :] += -px[-2, :]
    div[:, 0] += py[:, 0]
    div[:, 1:-1] += py[:, 1:-1] - py[:, :-2]
    div[:, -1] += -py[:, -2]
    return div


# ---------------------------------------------------------------------------
# Thread-local buffer pool.  TV denoising runs per slice inside thread pools
# (``denoise_stack(workers=...)`` and the campaign runtime), so free lists are
# kept per thread: leasing never takes a lock and never hands a buffer to two
# slices at once.

_POOL = threading.local()
#: pooled bytes kept per thread; least-recently-used (shape, dtype) keys go first
_POOL_MAX_BYTES = 64 << 20


def _free_lists() -> dict:
    """This thread's free lists, oldest-used key first."""
    free = getattr(_POOL, "free", None)
    if free is None:
        free = _POOL.free = {}
        _POOL.nbytes = 0
    return free


def _lease(shape: tuple[int, ...], n: int, dtype: np.dtype) -> list[np.ndarray]:
    """Take *n* scratch arrays of *shape* and *dtype* from this thread's pool.

    The solvers lease in :func:`_work_dtype` of their input, and the pool
    is keyed by ``(shape, dtype)``: a float32 call never gets a float64
    buffer, so its ``out=`` ufuncs run at the slice's own precision.  The
    matching oracle is the reference solver on the same input (bit for
    bit); the float64 reference bounds the float32 error (module note).
    """
    free = _free_lists()
    key = (shape, np.dtype(dtype))
    stack = free.pop(key, [])
    free[key] = stack  # re-inserted: now the most recently used key
    out = []
    for _ in range(n):
        if stack:
            out.append(stack.pop())
            _POOL.nbytes -= out[-1].nbytes
        else:
            out.append(np.empty(shape, dtype))
    return out


def _release(buffers: list[np.ndarray]) -> None:
    """Return leased arrays to this thread's pool (contents left dirty).

    Long-lived workers see a new slice shape per chip, so the pool holds
    at most :data:`_POOL_MAX_BYTES`: past it, whole least-recently-used
    keys are dropped.
    """
    free = _free_lists()
    for buf in buffers:
        key = (buf.shape, buf.dtype)
        stack = free.pop(key, [])
        stack.append(buf)
        free[key] = stack
        _POOL.nbytes += buf.nbytes
    while _POOL.nbytes > _POOL_MAX_BYTES:
        oldest = free.pop(next(iter(free)))
        _POOL.nbytes -= sum(buf.nbytes for buf in oldest)


def clear_buffer_pool() -> None:
    """Drop this thread's pooled scratch arrays (frees the memory)."""
    _POOL.free = {}
    _POOL.nbytes = 0


def _work_dtype(image: np.ndarray) -> np.dtype:
    """The solvers' arithmetic dtype: float32 stays float32, else float64."""
    return np.dtype(np.float32 if image.dtype == np.float32 else np.float64)


def _check_image(image: np.ndarray, name: str) -> None:
    """Reject what the finite-difference stencils cannot index."""
    if image.ndim != 2:
        raise PipelineError(f"{name} expects a 2-D image")
    if min(image.shape) < 2:
        raise PipelineError(f"{name} needs at least 2x2 pixels, got {image.shape}")


def _diff_z(a: np.ndarray, out: np.ndarray, forward: bool) -> None:
    """Differences along z (axis 1) of C-contiguous rows, as one flat pass.

    Computes ``a[i, j + 1] - a[i, j]`` for every flat neighbour pair and
    writes it to ``out[i, j]`` (``forward``, the gradient stencil) or to
    ``out[i, j + 1]`` (backward, the divergence stencil).  Each in-row
    element gets exactly the scalar operation of the narrow
    ``a[:, 1:] - a[:, :-1]`` form; the pairs that straddle a row break
    land in column −1 (forward) or column 0 (backward), which the caller
    overwrites with the stencil's boundary value, as the reference does.
    *a* and *out* must be C-contiguous and of one shape, so that
    ``reshape(-1)`` is a view.
    """
    af, of = a.reshape(-1), out.reshape(-1)
    np.subtract(af[1:], af[:-1], out=of[:-1] if forward else of[1:])


def _gradient_into(u: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> None:
    """:func:`_gradient` into preallocated outputs (same values, no allocs)."""
    np.subtract(u[1:, :], u[:-1, :], out=gx[:-1, :])
    gx[-1, :] = 0.0
    _diff_z(u, gy, forward=True)
    gy[:, -1] = 0.0


def _divergence_into(
    px: np.ndarray, py: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    """:func:`_divergence` into a preallocated output.

    Accumulates in the exact order of the allocating version (zero-filled
    buffer, then the same ``+=`` updates) so results match bit for bit.
    The z term is assembled whole in *scratch* (its boundary columns
    written as the reference's ``py[:, 0]`` and ``-py[:, -2]``) and added
    in one flat pass: ``x + (-y)`` is ``x - y`` in IEEE arithmetic, so
    every element still gets its one addition.
    """
    out.fill(0.0)
    out[0, :] += px[0, :]
    np.subtract(px[1:-1, :], px[:-2, :], out=scratch[1:-1, :])
    out[1:-1, :] += scratch[1:-1, :]
    out[-1, :] -= px[-2, :]
    _diff_z(py, scratch, forward=False)
    scratch[:, 0] = py[:, 0]
    scratch[:, -1] = -py[:, -2]
    out += scratch


def _block_rows(nx: int, nz: int, itemsize: int) -> int:
    """Row-block height whose scratch rows stay L2-resident (~96 KB)."""
    return max(16, min(nx, 98304 // max(nz * itemsize, 1)))


def chambolle_tv(
    image: np.ndarray,
    weight: float = 0.08,
    iterations: int = 60,
    tau: float = 0.248,
    tol: float | None = None,
) -> np.ndarray:
    """Chambolle (2004) dual projection TV denoising.

    ``weight`` is the ROF fidelity weight λ (larger → smoother); ``tau`` the
    dual step (stable for τ ≤ 1/4 in 2-D).  With ``tol`` set, iteration
    stops once the largest per-pixel change of the dual field drops below
    it (an opt-in speedup — the default ``None`` runs exactly
    ``iterations`` sweeps and is bit-identical to the reference
    implementation).  A float32 image is denoised in float32, any other
    in float64; the result has the input's dtype.

    Each sweep runs in two row-blocked phases (divergence + fidelity, then
    gradient/norm/dual update) so the per-block scratch stays cache-resident
    instead of streaming ~10 full-size intermediates per sweep.  Every
    element still sees the reference's exact scalar operation sequence —
    block boundaries only change *which ufunc call* computes an element,
    not its value.
    """
    _check_image(image, "chambolle_tv")
    shape = image.shape
    nx, nz = shape
    dtype = _work_dtype(image)
    block = _block_rows(nx, nz, dtype.itemsize)
    bshape = (min(block, nx), nz)
    full = _lease(shape, 5, dtype)
    blocked = _lease(bshape, 4 if tol is None else 5, dtype)
    try:
        f, f_over_w, px, py, div = full
        gx, gy, norm, scratch = blocked[:4]
        prev = blocked[4] if tol is not None else None
        f[...] = image
        np.divide(f, weight, out=f_over_w)
        px.fill(0.0)
        py.fill(0.0)
        for _ in range(iterations):
            delta = 0.0
            # Phase 1: div ← div(p) − f/λ, one pass over each full array.
            for r0 in range(0, nx, block):
                r1 = min(r0 + block, nx)
                d = div[r0:r1]
                hi = min(r1, nx - 1)
                if r0 == 0:
                    d[0, :] = px[0, :]
                    np.subtract(px[1:hi, :], px[: hi - 1, :], out=d[1:hi, :])
                else:
                    np.subtract(px[r0:hi, :], px[r0 - 1 : hi - 1, :], out=d[: hi - r0, :])
                if r1 == nx:
                    d[-1, :] = -px[-2, :]
                s = scratch[: r1 - r0]
                _diff_z(py[r0:r1], s, forward=False)
                s[:, 0] = py[r0:r1, 0]
                # Plain assignment, not np.negative(..., out=): unary ufuncs
                # mis-read strided 1-D inputs when writing to a strided out
                # view on some numpy builds (observed on 2.4.x).
                s[:, -1] = -py[r0:r1, -2]
                d += s
                d -= f_over_w[r0:r1]
            # Phase 2: ∇div, the 1 + τ‖∇‖ denominator, and the dual update.
            for r0 in range(0, nx, block):
                r1 = min(r0 + block, nx)
                n = r1 - r0
                g_x, g_y, nm, s = gx[:n], gy[:n], norm[:n], scratch[:n]
                if r1 < nx:
                    np.subtract(div[r0 + 1 : r1 + 1, :], div[r0:r1, :], out=g_x)
                else:
                    np.subtract(div[r0 + 1 : r1, :], div[r0 : r1 - 1, :], out=g_x[:-1])
                    g_x[-1, :] = 0.0
                _diff_z(div[r0:r1], g_y, forward=True)
                g_y[:, -1] = 0.0
                np.multiply(g_x, g_x, out=nm)
                np.multiply(g_y, g_y, out=s)
                nm += s
                np.sqrt(nm, out=nm)
                nm *= tau
                nm += 1.0  # now the denominator 1 + τ‖∇‖
                if prev is not None:
                    np.copyto(prev[:n], px[r0:r1])
                g_x *= tau
                px[r0:r1] += g_x
                px[r0:r1] /= nm
                g_y *= tau
                py[r0:r1] += g_y
                py[r0:r1] /= nm
                if prev is not None:
                    np.subtract(px[r0:r1], prev[:n], out=prev[:n])
                    np.abs(prev[:n], out=prev[:n])
                    delta = max(delta, float(prev[:n].max()))
            if tol is not None and delta < tol:
                break
        # f − λ·div(p), with f_over_w (no longer needed) as the scratch.
        _divergence_into(px, py, div, f_over_w)
        div *= weight
        np.subtract(f, div, out=div)
        return div.astype(image.dtype)
    finally:
        _release(full)
        _release(blocked)


def _reference_chambolle_tv(
    image: np.ndarray,
    weight: float = 0.08,
    iterations: int = 60,
    tau: float = 0.248,
) -> np.ndarray:
    """The seed (allocating) Chambolle solver, retained as ground truth.

    Computes in the same dtype as :func:`chambolle_tv` (float32 for
    float32 input, else float64).  The equality tests assert the pooled
    solver reproduces this bit for bit at default settings, for either
    dtype; called on ``image.astype(np.float64)`` it is the accuracy
    oracle for the float32 path.  The perf harness reports the
    pooled-buffer speedup against it.
    """
    _check_image(image, "chambolle_tv")
    f = image.astype(_work_dtype(image))
    px = np.zeros_like(f)
    py = np.zeros_like(f)
    for _ in range(iterations):
        div_p = _divergence(px, py)
        gx, gy = _gradient(div_p - f / weight)
        norm = np.sqrt(gx * gx + gy * gy)
        denom = 1.0 + tau * norm
        px = (px + tau * gx) / denom
        py = (py + tau * gy) / denom
    return (f - weight * _divergence(px, py)).astype(image.dtype)


def _shrink(x: np.ndarray, gamma: float) -> np.ndarray:
    """Soft-thresholding (the Bregman shrink operator)."""
    return np.sign(x) * np.maximum(np.abs(x) - gamma, 0.0)


def split_bregman_tv(
    image: np.ndarray,
    weight: float = 0.08,
    iterations: int = 12,
    inner_iterations: int = 2,
    bregman_mu: float | None = None,
    tol: float | None = None,
) -> np.ndarray:
    """Goldstein–Osher (2009) split-Bregman anisotropic TV denoising.

    Solves ``min_u μ/2 ‖u − f‖² + |∇u|₁`` by splitting ``d = ∇u`` with
    Bregman variables ``b`` and alternating: a Gauss–Seidel (Jacobi-swept)
    solve for ``u``, shrinkage for ``d``, and the Bregman update.
    ``weight`` plays the role of 1/μ so the API matches
    :func:`chambolle_tv`.  With ``tol`` set, the outer loop exits early
    once the largest per-pixel change of ``u`` over one outer iteration
    drops below it; the default ``None`` is bit-identical to the
    reference implementation.  Like :func:`chambolle_tv`, it computes in
    float32 for float32 input and in float64 otherwise.
    """
    _check_image(image, "split_bregman_tv")
    shape = image.shape
    mu = bregman_mu if bregman_mu is not None else 1.0 / max(weight, 1e-6)
    lam = mu / 2.0  # splitting weight (λ ∝ μ keeps the subproblems balanced)
    gamma = 1.0 / lam
    denom = mu + 4.0 * lam

    buffers = _lease(shape, 14 if tol is None else 15, _work_dtype(image))
    try:
        (f, u, nb, rhs, div, dx, dy, bx, by, gx, gy,
         mag, sign, scratch) = buffers[:14]
        prev = buffers[14] if tol is not None else None
        # The wrapped-column sums, in scratch (free during the sweeps).
        wrap_first, wrap_last = scratch.reshape(-1)[: 2 * shape[0]].reshape(2, -1)
        f[...] = image
        u[...] = f
        for b in (dx, dy, bx, by):
            b.fill(0.0)

        for _ in range(iterations):
            if prev is not None:
                np.copyto(prev, u)
            # rhs = μf − λ∇ᵀ(d − b) is invariant across the inner sweeps
            # (d and b only change outside them), so hoist it out.
            np.subtract(dx, bx, out=gx)
            np.subtract(dy, by, out=gy)
            _divergence_into(gx, gy, div, scratch)
            div *= lam
            np.multiply(f, mu, out=rhs)
            rhs -= div
            for _ in range(inner_iterations):
                # Jacobi sweep of (μ + λ ∇ᵀ∇) u = rhs: the four wrapped
                # neighbour shifts of np.roll, by slice assignment.
                nb[1:, :] = u[:-1, :]
                nb[0, :] = u[-1, :]
                nb[:-1, :] += u[1:, :]
                nb[-1, :] += u[0, :]
                # The z neighbours as flat passes over whole rows.  Each
                # wrapped column is summed aside in its own order (left
                # neighbour, then right) and written back over the entry
                # the flat pass carried across a row break.
                nbf, uf = nb.reshape(-1), u.reshape(-1)
                np.add(nb[:, 0], u[:, -1], out=wrap_first)
                nbf[1:] += uf[:-1]
                nb[:, 0] = wrap_first
                np.add(nb[:, -1], u[:, 0], out=wrap_last)
                nbf[:-1] += uf[1:]
                nb[:, -1] = wrap_last
                nb *= lam
                nb += rhs
                nb /= denom
                u, nb = nb, u  # u now holds the sweep result
            _gradient_into(u, gx, gy)
            for g, b, d in ((gx, bx, dx), (gy, by, dy)):
                np.add(g, b, out=mag)  # the shrink argument g + b
                np.sign(mag, out=sign)
                np.abs(mag, out=mag)
                mag -= gamma
                np.maximum(mag, 0.0, out=mag)
                np.multiply(sign, mag, out=d)
                b += g
                b -= d
            if prev is not None:
                np.subtract(u, prev, out=prev)
                np.abs(prev, out=prev)
                if float(prev.max()) < tol:
                    break
        return u.astype(image.dtype)
    finally:
        _release(buffers)


def _reference_split_bregman_tv(
    image: np.ndarray,
    weight: float = 0.08,
    iterations: int = 12,
    inner_iterations: int = 2,
    bregman_mu: float | None = None,
) -> np.ndarray:
    """The seed (allocating, ``np.roll``-based) split-Bregman solver.

    Retained as ground truth for the pooled-buffer rewrite, at the same
    working dtype — see :func:`_reference_chambolle_tv`.
    """
    _check_image(image, "split_bregman_tv")
    f = image.astype(_work_dtype(image))
    mu = bregman_mu if bregman_mu is not None else 1.0 / max(weight, 1e-6)
    lam = mu / 2.0

    u = f.copy()
    dx = np.zeros_like(f)
    dy = np.zeros_like(f)
    bx = np.zeros_like(f)
    by = np.zeros_like(f)

    for _ in range(iterations):
        for _ in range(inner_iterations):
            rhs = mu * f - lam * _divergence(dx - bx, dy - by)
            neighbours = (
                np.roll(u, 1, axis=0)
                + np.roll(u, -1, axis=0)
                + np.roll(u, 1, axis=1)
                + np.roll(u, -1, axis=1)
            )
            u = (rhs + lam * neighbours) / (mu + 4.0 * lam)
        gx, gy = _gradient(u)
        dx = _shrink(gx + bx, 1.0 / lam)
        dy = _shrink(gy + by, 1.0 / lam)
        bx = bx + gx - dx
        by = by + gy - dy
    return u.astype(image.dtype)


def _solver_for(method: str):
    if method == "chambolle":
        return chambolle_tv
    if method == "split_bregman":
        return split_bregman_tv
    raise PipelineError(f"unknown denoising method {method!r}")


def _denoise_shard(
    images: list[np.ndarray], method: str, weight: float, kwargs: dict
) -> list[np.ndarray]:
    """Denoise one slice batch (runs in shard workers; pure per slice)."""
    fn = _solver_for(method)
    return [fn(img, weight=weight, **kwargs) for img in images]


def denoise_one(
    image: np.ndarray, method: str, weight: float, kwargs: dict
) -> np.ndarray:
    """Denoise a single slice — the unit the fused acquire trip applies.

    Exactly the per-slice kernel :func:`denoise_stack` runs, so a stack
    denoised slice-by-slice inside the fused imaging pool trip
    (:func:`repro.imaging.fib.acquire_stack` with ``fuse=``) is
    bit-identical to a separate ``denoise`` stage pass.
    """
    return _denoise_shard([image], method, weight, kwargs)[0]


def denoise_stack(
    images: list[np.ndarray],
    method: str = "chambolle",
    weight: float = 0.08,
    workers: int = 1,
    shard: "ShardPlan | None" = None,
    **kwargs,
) -> list[np.ndarray]:
    """Denoise every slice of a stack with the chosen algorithm.

    Slices are independent, so with ``workers > 1`` they are processed by a
    thread pool (numpy releases the GIL in the inner array ops; the scratch
    buffer pool is thread-local, so workers never contend).  With ``shard``
    (a :class:`repro.pipeline.config.ShardPlan`) engaged, slice batches go
    to the campaign's shared shard *process* pool instead — the scheduling
    level that lets a single-chip campaign use every core.  Output order —
    and every output value — is identical for any worker count, shard
    batch size and ordering.  Extra keywords (``iterations=``, ``tol=``,
    …) pass through to the solver.

    The kernel span records ``iterations``, the solver's ``iterations``
    requested (its default when not passed: Chambolle sweeps, or
    split-Bregman outer iterations), and ``pixel_iterations``, their
    product with the stack's pixels: the exact TV work beside the wall
    time (an upper bound when an opt-in ``tol=`` exits early).
    """
    fn = _solver_for(method)
    pixels = sum(int(img.size) for img in images)
    iterations = kwargs.get(
        "iterations", inspect.signature(fn).parameters["iterations"].default
    )
    with kernel_scope(
        "denoise_stack",
        pixels=pixels,
        iterations=iterations,
        pixel_iterations=pixels * iterations,
        method=method,
        slices=len(images),
        workers=workers,
    ):
        if shard is not None and shard.engaged(len(images)):
            from functools import partial

            from repro.runtime.shard import shard_map

            return shard_map(
                "denoise",
                partial(_denoise_shard, method=method, weight=weight, kwargs=kwargs),
                images,
                shard,
            )
        if workers > 1 and len(images) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(
                    pool.map(lambda img: fn(img, weight=weight, **kwargs), images)
                )
        return [fn(img, weight=weight, **kwargs) for img in images]


def _reference_denoise_stack(
    images: list[np.ndarray],
    method: str = "chambolle",
    weight: float = 0.08,
    **kwargs,
) -> list[np.ndarray]:
    """Stack denoising over the retained reference solvers (perf harness)."""
    if method == "chambolle":
        fn = _reference_chambolle_tv
    elif method == "split_bregman":
        fn = _reference_split_bregman_tv
    else:
        raise PipelineError(f"unknown denoising method {method!r}")
    return [fn(img, weight=weight, **kwargs) for img in images]


def residual_noise(clean: np.ndarray, denoised: np.ndarray) -> float:
    """RMS error against a known clean image (for scoring the denoisers)."""
    return float(np.sqrt(np.mean((clean.astype(np.float64) - denoised) ** 2)))
