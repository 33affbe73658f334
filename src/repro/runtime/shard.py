"""Slice-shard executor: the second scheduling level of the campaign runtime.

The chip-level pool in :mod:`repro.runtime.campaign` parallelises across
chips; this module parallelises *within* a chip.  The per-slice stages
(acquire imaging, TV denoise, slice QC, and the MI searches of
alignment) are embarrassingly parallel across slices, so a
:class:`~repro.pipeline.config.ShardPlan` partitions their slices into
deterministic batches and :func:`shard_map` fans the batches out to a
process pool shared by every stage running in this process.  The two
levels compose: a six-chip campaign on a 32-core machine runs six chip
workers with five shard workers each, and a single-chip campaign gives
all its workers to shards — either way the machine is saturated.

Determinism contract
--------------------
Per-slice work is pure per slice (the acquire RNG is a counter-based
per-slice stream, denoise and QC read only their own slice, an align
item carries the raw slices its searches read), batches are
a pure function of ``(n_items, plan)``, and the merge reassembles
results by slice index.  Output is therefore bit-identical to the serial
path for **every** batch size, ordering and worker count — the property
the ``parallel-determinism`` CI job and the hypothesis tests in
``tests/test_runtime_shard.py`` pin down.

Backpressure
------------
Submitting a whole stack at once would pickle every slice into the
pool's call queue up front.  ``plan.max_inflight_bytes`` bounds the
payload bytes outstanding at any moment: the submitter blocks on the
*oldest* incomplete batch (completion order is irrelevant — the merge is
by index) before pushing more work.

Data plane
----------
With ``plan.data_plane == "shm"`` (the default) batch payloads cross the
pool boundary through :mod:`repro.runtime.dataplane`: large ndarrays are
published into shared-memory segments and only tiny headers ride the
pickle pipe, in both directions.  The submitter owns the input segments
of every in-flight batch and the (transferred) result segments of every
completed one; the ``try/finally`` around the submit loop releases all
of them on any exit — normal completion, a worker exception, or a
quarantine/timeout propagating through this frame.  When shared memory
is unavailable the call transparently degrades to the pickle plane and
counts ``repro_dataplane_fallback_total``.

Observability
-------------
Each batch is wrapped in a ``kind="shard"`` span on the submitting
process's tracer, so shard spans nest under whatever span issued them —
in the pipeline, the stage's ``kernel_scope`` span (``acquire_stack``,
``denoise_stack``, ``qc_stack``, ``align_stack``), which itself nests
under the stage span.  The batch runs remotely; the span measures the
submitter's wait, which is the schedulable quantity.  Counters:

=====================================  ====================================
``repro_shard_batches_total{stage}``   batches dispatched
``repro_shard_slices_total{stage}``    slices dispatched
``repro_shard_bytes_total{stage}``     estimated payload bytes shipped
``repro_shard_backpressure_total{stage}``  submissions that had to wait
``repro_shard_fallback_total{stage,reason}``  sharding declined (callers
                                       increment, e.g. active fault plan)
=====================================  ====================================
"""

from __future__ import annotations

import atexit
import dataclasses
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from repro.obs import current_events, current_metrics, current_tracer, get_logger
from repro.pipeline.config import ShardPlan
from repro.runtime import dataplane

logger = get_logger("repro.runtime.shard")

T = TypeVar("T")
R = TypeVar("R")

# One pool per (process, worker count).  Shared across stages and chips
# running in this process so pool start-up (fork + import) is paid once,
# not once per stage invocation.
_POOLS: dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def shared_shard_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide shard pool for *workers* (created lazily)."""
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=workers)
            _POOLS[workers] = pool
        return pool


def shutdown_shard_pools() -> None:
    """Shut down every shard pool this process created (tests, atexit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_shard_pools)


def payload_nbytes(item: Any) -> int:
    """Estimate the payload size of one shard item **without serializing**.

    This runs per item on the submit hot path purely to drive
    backpressure, so it must never fall back to ``pickle.dumps`` (a
    serialization per item would cost as much as the transport it is
    budgeting — ``tests/test_runtime_shard.py`` pins the no-serialize
    contract with an object whose ``__reduce__`` raises).  Array-bearing
    items dominate shard traffic, so the estimate walks ``nbytes`` over
    arrays, buffers, tuples/lists, dicts and dataclass-like objects;
    everything else is charged a nominal 256 bytes.
    """
    if isinstance(item, np.ndarray):
        return int(item.nbytes)
    if isinstance(item, (bytes, bytearray, memoryview)):
        return len(item)
    nbytes = getattr(item, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    if isinstance(item, (tuple, list)):
        return sum(payload_nbytes(v) for v in item) + 64
    if isinstance(item, dict):
        return sum(payload_nbytes(v) for v in item.values()) + 64
    state = getattr(item, "__dict__", None)
    if state:
        return sum(payload_nbytes(v) for v in state.values()) + 64
    if dataclasses.is_dataclass(item) and not isinstance(item, type):
        # frozen/slotted dataclasses (e.g. _SliceShot) have no __dict__
        return sum(
            payload_nbytes(getattr(item, f.name, None))
            for f in dataclasses.fields(item)
        ) + 64
    return 256


def _canonical_result(value: Any) -> Any:
    """Re-intern shared objects on results that crossed the pool boundary.

    An unpickled array carries a fresh ``dtype`` instance instead of the
    process-wide singleton, and unpickled dict keys are fresh string
    objects instead of the interned literals the serial path shares
    across every slice.  Values compare equal either way, but
    ``pickle.dumps`` of a result *list* then differs from the serial
    run's bytes (a shared object is memo-referenced once, a fresh
    instance is re-serialized per occurrence) — breaking the
    bit-identity contract at the byte level.  A zero-copy ``view`` with
    the canonical dtype and ``sys.intern`` on string keys restore both.
    """
    if isinstance(value, np.ndarray):
        return value.view(np.dtype(value.dtype.str))
    if isinstance(value, tuple):
        return tuple(_canonical_result(v) for v in value)
    if isinstance(value, list):
        return [_canonical_result(v) for v in value]
    if isinstance(value, dict):
        return {
            sys.intern(k) if isinstance(k, str) else k: _canonical_result(v)
            for k, v in value.items()
        }
    return value


def shard_map(
    stage: str,
    fn: Callable[[list[T]], list[R]],
    items: Sequence[T],
    plan: ShardPlan,
    bytes_of: Callable[[T], int] = payload_nbytes,
) -> list[R]:
    """Apply batch function *fn* to *items*, sharded per *plan*.

    *fn* must be a picklable top-level callable mapping a list of items
    to the list of their results (same length, same order) with each
    result depending only on its own item — that per-item purity is what
    makes the batching invisible in the output.  Results come back in
    item order regardless of batch completion order.

    With the plan not engaged (sharding off, one worker, or a single
    item) the batches run in-process in index order — the same ``fn`` on
    the same batches, so the output is identical by construction.
    """
    n = len(items)
    if n == 0:
        return []
    batches = plan.batches(n)
    tracer = current_tracer()
    metrics = current_metrics()
    out: list[R | None] = [None] * n

    def _merge(index_batch: tuple[int, ...], results: list[R]) -> None:
        if len(results) != len(index_batch):
            raise RuntimeError(
                f"shard batch for stage {stage!r} returned {len(results)} "
                f"results for {len(index_batch)} items"
            )
        for i, result in zip(index_batch, results):
            out[i] = result

    if not plan.engaged(n):
        for k, idx in enumerate(batches):
            with tracer.span(
                f"shard[{k}]", kind="shard", stage=stage, slices=len(idx),
                inline=True,
            ):
                _merge(idx, fn([items[i] for i in idx]))
        return out  # type: ignore[return-value]

    pool = shared_shard_pool(plan.resolved_workers)
    if metrics.enabled:
        metrics.counter("repro_shard_batches_total", stage=stage).inc(len(batches))
        metrics.counter("repro_shard_slices_total", stage=stage).inc(n)

    use_shm = plan.data_plane == "shm"
    if use_shm and not dataplane.available():
        use_shm = False
        if metrics.enabled:
            metrics.counter(
                "repro_dataplane_fallback_total", reason="shm-unavailable"
            ).inc()

    # Submit with backpressure: block on the oldest outstanding batch
    # once the estimated in-flight payload exceeds the plan's ceiling.
    # Each inflight record carries the headers of the input segments the
    # submitter published for that batch (empty on the pickle plane).
    inflight: list[tuple[int, tuple[int, ...], Any, int, list]] = []
    inflight_bytes = 0
    pending: list[tuple[int, tuple[int, ...], Any]] = []

    def _decode(raw: Any) -> Any:
        if not use_shm:
            return _canonical_result(raw)
        out_blob, out_headers = raw
        try:
            results, _ = dataplane.loads(out_blob, materialize=True, unlink=True)
        except BaseException:
            dataplane.release_headers(out_headers)
            raise
        dataplane._count_transport("back", out_headers)
        return _canonical_result(results)

    def _retire_oldest() -> None:
        nonlocal inflight_bytes
        k, idx, future, nbytes, in_headers = inflight.pop(0)
        with tracer.span(
            f"shard[{k}]", kind="shard", stage=stage, slices=len(idx),
            payload_bytes=nbytes,
        ):
            try:
                raw = future.result()
            finally:
                # The worker is done with the inputs either way.
                dataplane.release_headers(in_headers)
            results = _decode(raw)
        inflight_bytes -= nbytes
        pending.append((k, idx, results))

    def _abandon_inflight() -> None:
        # Error teardown: every outstanding batch's segments — the
        # inputs the submitter owns and any results a finished worker
        # already transferred — must be unlinked before the exception
        # (quarantine, timeout, worker crash) propagates past us.
        for _, _, future, _, in_headers in inflight:
            raw = None
            try:
                raw = future.result()
            except BaseException:
                pass
            dataplane.release_headers(in_headers)
            if use_shm and isinstance(raw, tuple) and len(raw) == 2:
                dataplane.release_headers(raw[1])
        inflight.clear()

    try:
        for k, idx in enumerate(batches):
            payload = [items[i] for i in idx]
            nbytes = sum(bytes_of(item) for item in payload)
            while inflight and inflight_bytes + nbytes > plan.max_inflight_bytes:
                if metrics.enabled:
                    metrics.counter(
                        "repro_shard_backpressure_total", stage=stage
                    ).inc()
                current_events().emit(
                    "shard_backpressure", stage=stage,
                    inflight_bytes=inflight_bytes, batch_bytes=nbytes,
                )
                _retire_oldest()
            if use_shm:
                blob, in_headers = dataplane.dumps(
                    payload, min_bytes=plan.shm_min_bytes
                )
                dataplane._count_transport("out", in_headers)
                future = pool.submit(
                    dataplane.shm_batch_call, fn, blob, plan.shm_min_bytes
                )
            else:
                in_headers = []
                future = pool.submit(fn, payload)
            inflight.append((k, idx, future, nbytes, in_headers))
            inflight_bytes += nbytes
            if metrics.enabled:
                metrics.counter("repro_shard_bytes_total", stage=stage).inc(nbytes)
        while inflight:
            _retire_oldest()
    except BaseException:
        _abandon_inflight()
        raise
    for _, idx, results in pending:
        _merge(idx, results)
    return out  # type: ignore[return-value]


def note_shard_fallback(stage: str, reason: str) -> None:
    """Record that a stage declined to shard (serial fallback)."""
    metrics = current_metrics()
    if metrics.enabled:
        metrics.counter(
            "repro_shard_fallback_total", stage=stage, reason=reason
        ).inc()
    logger.debug(
        "slice sharding fell back to serial",
        extra={"fields": {"stage": stage, "reason": reason}},
    )
