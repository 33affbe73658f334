"""Deterministic, seed-driven acquisition fault injection.

Real FIB/SEM campaigns are messy: detectors saturate or black out, the
stage jumps, the mill overshoots a face, focus drifts for a few frames,
and whole slices are simply lost.  The paper's post-processing pipeline
exists *because* of those defects — so a reproduction that only ever sees
clean-path data cannot exercise the interesting half of the system.

This module injects those defects into :func:`repro.imaging.fib.
acquire_stack` in a way that is **reproducible bit-for-bit**:

* a :class:`FaultPlan` holds a seed plus per-fault rates;
* a :class:`FaultInjector` derives one RNG stream *per slice* from
  ``(plan seed, attempt, slice index)`` — completely separate from the
  acquisition's own RNG, so a plan with every rate at 0 produces output
  bit-identical to running with no plan at all;
* re-acquiring a stack (``attempt + 1``) re-rolls the faults while the
  clean image content stays identical — exactly what a retry gets from
  real hardware;
* every injected defect is recorded as a :class:`FaultEvent`, which
  travels on the :class:`~repro.imaging.fib.SliceStack` and into the
  campaign's quarantine/telemetry records.

The fault taxonomy (one knob each, all rates are per-slice
probabilities):

=================  ======================================================
``drop_rate``      slice lost: the frame is replaced by detector noise
                   around the black level (caught by the QC blackout /
                   spread gates)
``saturation_rate``  detector saturation: the frame is pushed into the
                   white clip rail (QC saturation gate)
``blackout_rate``  detector blackout: the frame collapses toward 0 with
                   only the noise floor left (QC blackout gate)
``drift_spike_rate``  stage jump: a one-off ``drift_spike_px`` kick to
                   the drift random walk (QC drift-step gate)
``overshoot_rate``  milling overshoot: the mill eats one extra slice of
                   material, so the imaged face is a face *deeper* than
                   intended (content defect; recorded, not QC-gated)
``blur_rate``      focus loss: a Gaussian blur **burst** covering
                   ``blur_burst_len`` consecutive slices (QC sharpness
                   gate)
=================  ======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any

import numpy as np

from repro.errors import CampaignError
from repro.obs import current_metrics, get_logger

logger = get_logger("repro.faults")

#: FaultPlan rate fields, in the (fixed) order their RNG draws happen.
_RATE_FIELDS = (
    "drop_rate",
    "saturation_rate",
    "blackout_rate",
    "drift_spike_rate",
    "overshoot_rate",
    "blur_rate",
)

#: short CLI spec aliases → FaultPlan field names
_SPEC_ALIASES = {
    "drop": "drop_rate",
    "saturate": "saturation_rate",
    "saturation": "saturation_rate",
    "blackout": "blackout_rate",
    "drift": "drift_spike_rate",
    "drift_spike": "drift_spike_rate",
    "spike_px": "drift_spike_px",
    "overshoot": "overshoot_rate",
    "blur": "blur_rate",
    "blur_sigma": "blur_sigma_px",
    "burst": "blur_burst_len",
    "seed": "seed",
}


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault rates for one chip's acquisition.

    All ``*_rate`` fields are per-slice probabilities in [0, 1].  A plan
    whose rates are all zero is inert: the acquisition output is
    bit-identical to running without a plan (the injector never touches
    the acquisition RNG).
    """

    seed: int = 0
    drop_rate: float = 0.0
    saturation_rate: float = 0.0
    blackout_rate: float = 0.0
    drift_spike_rate: float = 0.0
    #: magnitude of an injected stage jump, px (applied to x; half to z)
    drift_spike_px: float = 9.0
    overshoot_rate: float = 0.0
    blur_rate: float = 0.0
    blur_sigma_px: float = 2.5
    #: consecutive slices covered by one focus-loss burst
    blur_burst_len: int = 3

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise CampaignError(f"fault rate {name}={rate} outside [0, 1]")
        if self.drift_spike_px < 0:
            raise CampaignError("drift_spike_px must be >= 0")
        if self.blur_sigma_px < 0:
            raise CampaignError("blur_sigma_px must be >= 0")
        if self.blur_burst_len < 1:
            raise CampaignError("blur_burst_len must be >= 1")

    @property
    def active(self) -> bool:
        """True when any fault can actually fire."""
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    def for_chip(self, chip_name: str) -> "FaultPlan":
        """The same rates with a per-chip seed derived from *chip_name*.

        Campaign fan-out uses this so sibling chips draw independent
        fault streams from one campaign-level plan.
        """
        from repro.runtime.hashing import stable_hash

        derived = int(stable_hash({"fault_seed": self.seed, "chip": chip_name})[:12], 16)
        return replace(self, seed=derived)

    def cache_token(self) -> dict[str, Any]:
        """Every result-affecting knob, for stage cache keys."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``key=value,key=value`` CLI spec.

        Keys accept short aliases (``drop``, ``saturate``, ``blackout``,
        ``drift``, ``spike_px``, ``overshoot``, ``blur``, ``blur_sigma``,
        ``burst``, ``seed``) as well as the full field names.  Example::

            --fault-plan "seed=7,drop=0.1,drift=0.08,spike_px=9"
        """
        kwargs: dict[str, Any] = {}
        valid = {f.name for f in fields(cls)}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise CampaignError(f"bad fault spec item {part!r} (want key=value)")
            key, _, value = part.partition("=")
            key = key.strip().lower()
            name = _SPEC_ALIASES.get(key, key)
            if name not in valid:
                raise CampaignError(
                    f"unknown fault spec key {key!r} "
                    f"(known: {', '.join(sorted(_SPEC_ALIASES))})"
                )
            try:
                parsed: Any = int(value) if name in ("seed", "blur_burst_len") else float(value)
            except ValueError:
                raise CampaignError(f"bad value for fault spec key {key!r}: {value!r}") from None
            kwargs[name] = parsed
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultEvent:
    """One injected defect (picklable, JSON-friendly via :meth:`to_dict`)."""

    kind: str  #: drop / saturation / blackout / drift_spike / overshoot / blur
    slice_index: int
    attempt: int = 0
    magnitude: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "slice_index": self.slice_index,
            "attempt": self.attempt,
            "magnitude": self.magnitude,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultEvent":
        return cls(
            kind=str(data["kind"]),
            slice_index=int(data["slice_index"]),
            attempt=int(data.get("attempt", 0)),
            magnitude=float(data.get("magnitude", 0.0)),
        )


class FaultInjector:
    """Applies one :class:`FaultPlan` to one acquisition attempt.

    The acquisition loop calls, per slice and in this order:

    1. :meth:`overshoot_slices` — before milling, how many extra faces
       the mill eats;
    2. :meth:`drift_spike` — after the clean drift update, the injected
       stage jump (if any);
    3. :meth:`apply` — after imaging + drift, the frame-level defects.

    Each slice draws from its own RNG stream seeded by
    ``(plan.seed, attempt, slice_index)``, so slices are independent and
    a re-acquisition (``attempt + 1``) re-rolls everything while the
    clean content is untouched.  With all rates at zero every draw
    compares against 0 probability, no image is modified, and no event is
    recorded — the inert plan is bit-identical to no plan.
    """

    def __init__(self, plan: FaultPlan, attempt: int = 0) -> None:
        self.plan = plan
        self.attempt = attempt
        self.events: list[FaultEvent] = []
        self._rngs: dict[int, np.random.Generator] = {}
        self._blur_until = -1  #: exclusive end of the current blur burst

    def _rng(self, slice_index: int) -> np.random.Generator:
        rng = self._rngs.get(slice_index)
        if rng is None:
            rng = np.random.default_rng((self.plan.seed, self.attempt, slice_index))
            self._rngs[slice_index] = rng
        return rng

    def _fires(self, slice_index: int, rate: float) -> bool:
        # Always draw so the per-slice stream stays aligned regardless of
        # which rates are zero.
        return self._rng(slice_index).random() < rate

    def _record(self, kind: str, slice_index: int, magnitude: float) -> None:
        """Append a :class:`FaultEvent` and feed the observability layer.

        The single point where injected faults are counted
        (``repro_faults_injected_total``) and logged — call sites in the
        engine must not double count.
        """
        self.events.append(FaultEvent(kind, slice_index, self.attempt, magnitude))
        current_metrics().counter("repro_faults_injected_total", kind=kind).inc()
        logger.debug(
            "injected fault",
            extra={"fields": {
                "kind": kind,
                "slice": slice_index,
                "attempt": self.attempt,
                "magnitude": magnitude,
            }},
        )

    def overshoot_slices(self, slice_index: int) -> int:
        """Extra slice thicknesses milled away before imaging this face."""
        if not self._fires(slice_index, self.plan.overshoot_rate):
            return 0
        self._record("overshoot", slice_index, 1.0)
        return 1

    def drift_spike(self, slice_index: int) -> tuple[float, float] | None:
        """An injected stage jump: (dx, dz) to add to the drift walk."""
        if not self._fires(slice_index, self.plan.drift_spike_rate):
            return None
        sign = 1.0 if self._rng(slice_index).random() < 0.5 else -1.0
        spike = sign * self.plan.drift_spike_px
        self._record("drift_spike", slice_index, spike)
        return spike, spike * 0.5

    def apply(self, image: np.ndarray, slice_index: int) -> np.ndarray:
        """Frame-level defects; returns *image* untouched when none fire."""
        plan = self.plan
        rng = self._rng(slice_index)
        # Burst continuation is checked first so an ongoing focus loss
        # blurs the frame even when no new fault fires on this slice.
        blurring = slice_index < self._blur_until
        if self._fires(slice_index, plan.drop_rate):
            self._record("drop", slice_index, 1.0)
            noise = rng.normal(0.0, 0.01, size=image.shape)
            return np.clip(noise, 0.0, 1.0).astype(np.float32)
        if self._fires(slice_index, plan.saturation_rate):
            self._record("saturation", slice_index, 1.0)
            # A blown detector gain: everything but the near-black floor
            # pins at the white rail.
            image = np.clip(image * 6.0 + 0.9, 0.0, 1.0).astype(np.float32)
        if self._fires(slice_index, plan.blackout_rate):
            self._record("blackout", slice_index, 1.0)
            image = np.clip(image * 0.02, 0.0, 1.0).astype(np.float32)
        if not blurring and self._fires(slice_index, plan.blur_rate):
            self._blur_until = slice_index + plan.blur_burst_len
            blurring = True
        if blurring:
            from scipy import ndimage  # only blur faults need scipy

            self._record("blur", slice_index, plan.blur_sigma_px)
            image = ndimage.gaussian_filter(
                image.astype(np.float32), sigma=plan.blur_sigma_px, mode="nearest"
            ).astype(np.float32)
        return image


__all__ = ["FaultPlan", "FaultEvent", "FaultInjector"]
