"""Content-addressed on-disk stage cache.

Every pipeline stage stores ``(payload, notes)`` under the SHA-256 chain
key of everything that determines its output: the region spec, the
acquisition parameters, the stage version, the stage's own parameters and
— transitively, through the parent key — every upstream stage.  Re-running
a campaign after changing one stage's parameters therefore re-executes
only that stage and everything downstream of it; a warm re-run touches
nothing but the final entry.

Storage format
--------------
An entry is a pickle (``<key>.pkl``) plus zero or more ``.npy`` sidecar
blobs (``<key>.b<i>.npy``): large plain ndarrays inside the payload are
extracted out of the pickle stream (the same ``persistent_id`` protocol
the zero-copy shard transport uses — see
:mod:`repro.runtime.dataplane`) and written as raw array files.  A cache
hit then **maps** the heavy bytes — ``np.load(mmap_mode="r")`` — instead
of unpickling them: pages fault in lazily as stages touch the data, and
a deep warm hit on a multi-hundred-MB stack costs milliseconds.  Loaded
arrays are read-only plain ``ndarray`` views over the mapping; they
pickle byte-identically to the in-band arrays they replace, so the
campaign bit-identity contract is unaffected by the format.

Writers emit sidecars first and the pickle last (readers key existence
off the pickle, so a half-written entry is invisible), each through
``mkstemp`` + ``os.replace`` so concurrent campaign workers can share
one cache directory.  A corrupt, truncated or zero-length entry — pickle
*or* sidecar, including a failed mmap open — reads as a miss, never as
an error, and is **evicted** so the recompute rewrites it cleanly and
``contains()`` stays honest.  Entries written by older releases (plain
pickles, no sidecars) still load; old readers see new-format entries as
a clean miss.
"""

from __future__ import annotations

import io
import os
import pickle
import tempfile
import time
import tokenize
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.errors import CampaignError
from repro.obs import current_metrics, get_logger

logger = get_logger("repro.runtime.cache")

#: arrays below this byte count stay inline in the entry pickle
DEFAULT_BLOB_MIN_BYTES = 16 * 1024


class _BlobCorruption(Exception):
    """A sidecar blob failed to load — distinguishes a torn entry from a
    plain missing pickle so the loader can evict instead of just miss."""


class _BlobPickler(pickle.Pickler):
    """Pickler that diverts large plain ndarrays into ``.npy`` sidecars."""

    def __init__(self, file: io.BytesIO, min_bytes: int) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._min_bytes = min_bytes
        self.arrays: list[np.ndarray] = []

    def persistent_id(self, obj: Any) -> Any:
        if (
            type(obj) is np.ndarray
            and not obj.dtype.hasobject
            and obj.nbytes >= self._min_bytes
        ):
            self.arrays.append(obj)
            return ("repro-npy", len(self.arrays) - 1)
        return None


class _BlobUnpickler(pickle.Unpickler):
    """Unpickler resolving sidecar references via lazy mmap loads."""

    def __init__(
        self, file: Any, blob_path: Callable[[int], Path]
    ) -> None:
        super().__init__(file)
        self._blob_path = blob_path

    def persistent_load(self, pid: Any) -> Any:
        if not (isinstance(pid, tuple) and len(pid) == 2 and pid[0] == "repro-npy"):
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        path = self._blob_path(pid[1])
        try:
            arr = np.load(path, mmap_mode="r")
        except (OSError, EOFError, ValueError, SyntaxError, tokenize.TokenError) as exc:
            # Missing (OSError), zero-length (EOFError), truncated — mmap
            # shorter than the header's shape promises — or not an .npy
            # at all (ValueError), and a garbage header dict, which numpy
            # tokenizes and evaluates (TokenError, SyntaxError, ValueError).
            raise _BlobCorruption(
                f"sidecar {path.name}: {type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(arr, np.ndarray):
            raise _BlobCorruption(f"sidecar {path.name}: not an array")
        # Plain-ndarray view: pickles identically to the stored array
        # (the memmap base keeps the mapping alive); read-only by mode.
        return arr.view(np.ndarray)


class StageCache:
    """Pickle-plus-sidecar store under a root directory.

    ``root=None`` disables the cache entirely (every lookup misses, every
    store is a no-op) so callers need no conditional wiring.
    ``blob_min_bytes`` sets the sidecar-extraction threshold;
    ``blob_min_bytes=None`` disables sidecars and stores classic
    all-in-one pickles (the pre-dataplane format).
    """

    def __init__(
        self,
        root: str | Path | None,
        blob_min_bytes: int | None = DEFAULT_BLOB_MIN_BYTES,
    ) -> None:
        self.root = Path(root) if root is not None else None
        if blob_min_bytes is not None and blob_min_bytes < 1:
            raise CampaignError("blob_min_bytes must be >= 1 (or None to disable)")
        self.blob_min_bytes = blob_min_bytes

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def path_for(self, key: str) -> Path:
        """Entry path: two-level fan-out to keep directories small."""
        if self.root is None:
            raise CampaignError("cache is disabled")
        return self.root / key[:2] / f"{key}.pkl"

    def blob_path(self, key: str, index: int) -> Path:
        """Path of one entry's ``.npy`` sidecar blob."""
        return self.path_for(key).with_name(f"{key}.b{index}.npy")

    def contains(self, key: str) -> bool:
        return self.enabled and self.path_for(key).is_file()

    def entry_bytes(self, key: str) -> int:
        """Size of the stored entry, sidecars included (0 when absent)."""
        if not self.enabled:
            return 0
        path = self.path_for(key)
        try:
            total = path.stat().st_size
        except OSError:
            return 0
        for blob in path.parent.glob(f"{key}.b*.npy"):
            try:
                total += blob.stat().st_size
            except OSError:
                continue
        return total

    def load(self, key: str) -> tuple[dict[str, Any], dict[str, float]] | None:
        """Return ``(payload, notes)`` or ``None`` on miss/corruption.

        A plain missing pickle is a silent miss; an entry that *exists*
        but will not decode — bad pickle, missing/zero-length/truncated
        sidecar, failed mmap open — is corruption: logged, counted,
        **evicted** (so ``contains()`` stops advertising it) and still
        returned as a miss so the caller recomputes.
        """
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            with path.open("rb") as fh:
                entry = _BlobUnpickler(
                    fh, lambda i: self.blob_path(key, i)
                ).load()
        except FileNotFoundError:
            return None
        except _BlobCorruption as exc:
            self._note_corrupt(key, str(exc))
            self.evict(key)
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, TypeError, KeyError, ValueError,
                UnicodeDecodeError) as exc:
            # The extra-wide net is deliberate: a truncated or hostile
            # pickle raises whatever its mangled opcodes happen to hit
            # (TypeError from bad constructor args, KeyError from a
            # missing memo slot, UnicodeDecodeError from a torn string),
            # and every one of those must read as a logged miss, not a
            # crash that takes the campaign worker with it.
            self._note_corrupt(key, type(exc).__name__)
            self.evict(key)
            return None
        if not isinstance(entry, dict) or "payload" not in entry:
            self._note_corrupt(key, "bad-entry-shape")
            self.evict(key)
            return None
        metrics = current_metrics()
        if metrics.enabled:
            metrics.counter("repro_cache_mmap_loads_total").inc()
        return entry["payload"], dict(entry.get("notes", {}))

    @staticmethod
    def _note_corrupt(key: str, reason: str) -> None:
        logger.warning(
            "corrupt stage-cache entry read as a miss",
            extra={"fields": {"key": key, "reason": reason}},
        )
        current_metrics().counter("repro_cache_corrupt_total").inc()

    def evict(self, key: str) -> int:
        """Delete an entry and its sidecars; returns files removed.

        Racing a concurrent writer is benign: the writer replaces
        atomically, so the entry ends up either gone or fully rewritten.
        """
        if not self.enabled:
            return 0
        removed = 0
        path = self.path_for(key)
        targets = [path, *path.parent.glob(f"{key}.b*.npy")]
        for target in targets:
            try:
                target.unlink()
            except OSError:
                continue
            removed += 1
        if removed:
            current_metrics().counter("repro_cache_evictions_total").inc()
        return removed

    def sweep_stale_tmp(self, max_age_s: float = 3600.0) -> int:
        """Remove abandoned ``*.tmp`` files and orphaned sidecar blobs.

        :meth:`store` writes sidecars first and the pickle last, each
        through ``mkstemp`` + ``os.replace``; a worker killed mid-store
        (OOM, SIGKILL, power loss) leaves tmp files — or fully-written
        sidecars with no pickle — behind forever: invisible to lookups
        but leaking disk on every crash.  Campaigns call this once at
        start-up; returns how many files were removed.

        ``max_age_s`` guards live writers: a *concurrent* campaign
        sharing the cache directory may have in-flight tmp files (or
        sidecars whose pickle is about to land), so only files older
        than the threshold are removed.  Races with a writer finishing
        (``os.replace`` already consumed the tmp) or another sweeper are
        benign — a vanished file is skipped silently.  Each fan-out
        directory is listed once, and only tmp files and sidecars with no
        listed pickle are ``stat``-ed for the age guard.
        """
        if not self.enabled:
            return 0
        cutoff = time.time() - max_age_s
        removed = 0
        try:
            fan_out = [e.path for e in os.scandir(self.root) if e.is_dir()]
        except OSError:
            fan_out = []
        for directory in fan_out:
            try:
                names = {e.name for e in os.scandir(directory)}
            except OSError:
                continue
            for name in names:
                # a tmp file, or a sidecar whose entry pickle is not listed
                key, blob, _ = name.partition(".b")
                if not name.endswith(".tmp") and not (
                    blob and name.endswith(".npy") and f"{key}.pkl" not in names
                ):
                    continue
                path = os.path.join(directory, name)
                try:
                    if os.stat(path).st_mtime > cutoff:
                        continue
                    os.unlink(path)
                except OSError:
                    continue
                removed += 1
        if removed:
            logger.warning(
                "swept stale stage-cache files",
                extra={"fields": {"removed": removed, "root": str(self.root)}},
            )
            current_metrics().counter("repro_cache_tmp_swept_total").inc(removed)
        return removed

    def _write_atomic(self, path: Path, write: Callable[[Any], None]) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def store(self, key: str, payload: dict[str, Any], notes: dict[str, float]) -> int:
        """Persist an entry; returns its total size in bytes (0 when disabled)."""
        if not self.enabled:
            return 0
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        buf = io.BytesIO()
        if self.blob_min_bytes is None:
            pickle.dump(
                {"payload": payload, "notes": notes}, buf,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            arrays: list[np.ndarray] = []
        else:
            pickler = _BlobPickler(buf, self.blob_min_bytes)
            pickler.dump({"payload": payload, "notes": notes})
            arrays = pickler.arrays
        blob = buf.getvalue()
        total = len(blob)
        written: list[Path] = []
        try:
            # Sidecars first, pickle last: readers key off the pickle,
            # so a crash mid-store leaves only orphans for the sweeper.
            for i, arr in enumerate(arrays):
                blob_path = self.blob_path(key, i)
                self._write_atomic(
                    blob_path,
                    lambda fh, a=arr: np.lib.format.write_array(
                        fh, a, allow_pickle=False
                    ),
                )
                written.append(blob_path)
                total += blob_path.stat().st_size
            self._write_atomic(path, lambda fh: fh.write(blob))
        except OSError:
            for blob_path in written:
                try:
                    blob_path.unlink()
                except OSError:
                    pass
            raise
        return total
