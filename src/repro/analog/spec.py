"""The unified analog characterization spec.

Historically every analog entry point grew its own keyword surface:
``sensing_yield(sigma_mv=, samples=, seed=, deadline_ns=, config=)``,
``model_optimism(sigma_mv=, samples=, deadline_margin=)``,
``yield_curve(sigmas_mv=, samples=, deadline_ns=)`` and
``TransientSolver.run(dt_ns=)`` all name overlapping knobs with drifting
defaults.  That shape neither composes (a sweep over corners × topologies
× geometries wants *one* value object to hash, cache and replay) nor
rides the campaign runtime (stage-cache keys need a canonicalizable
parameter object).  This module replaces it — the same move
:class:`repro.pipeline.config.PipelineConfig` made for the imaging
pipeline in 1.1:

* :class:`DeviceCorner` — a named process corner (kp factors + Vt shifts
  per channel), with the five classic corners in :data:`CORNERS`;
* :class:`CharacterizationSpec` — one frozen, validated dataclass holding
  every tunable of the Monte-Carlo/corner characterization surface, with
  ``from_legacy_kwargs`` shims translating the old keywords for one
  deprecation cycle.

Everything in the spec is plain dataclasses/enums/tuples, so it passes
:func:`repro.runtime.hashing.canonicalize` unchanged — which is what lets
:mod:`repro.analog.characterizer` use spec subsets as stage-cache params.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Any

from repro.analog.bitline_parasitics import BitlineGeometry, total_capacitance_f
from repro.analog.devices import MosModel, NMOS_DEFAULT, PMOS_DEFAULT
from repro.analog.sense_amp import SenseAmpConfig
from repro.circuits.topologies import SaSizes, SaTopology
from repro.errors import AnalogError


@dataclass(frozen=True)
class DeviceCorner:
    """A named process corner: per-channel kp factors and Vt shifts.

    ``apply`` derives the corner's device models from nominal ones; the
    typical-typical corner is the exact identity (multiplying by 1.0 and
    adding 0.0 are bit-exact no-ops), so a TT sweep cell reproduces the
    nominal models bit-for-bit.
    """

    name: str
    nmos_kp_factor: float = 1.0
    pmos_kp_factor: float = 1.0
    nmos_vt_shift_mv: float = 0.0
    pmos_vt_shift_mv: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise AnalogError("device corner needs a name")
        if self.nmos_kp_factor <= 0 or self.pmos_kp_factor <= 0:
            raise AnalogError("corner kp factors must be positive")

    def apply(self, nmos: MosModel, pmos: MosModel) -> tuple[MosModel, MosModel]:
        """Nominal NMOS/PMOS models shifted to this corner."""
        return (
            MosModel(
                "nmos",
                nmos.kp * self.nmos_kp_factor,
                nmos.vt + self.nmos_vt_shift_mv / 1000.0,
                nmos.lam,
            ),
            MosModel(
                "pmos",
                pmos.kp * self.pmos_kp_factor,
                pmos.vt + self.pmos_vt_shift_mv / 1000.0,
                pmos.lam,
            ),
        )


#: The five classic device corners (fast/slow per channel).  Slow devices
#: lose drive (lower kp, higher Vt); fast ones gain it.
CORNERS: dict[str, DeviceCorner] = {
    "TT": DeviceCorner("TT"),
    "FF": DeviceCorner("FF", 1.15, 1.15, -30.0, -30.0),
    "SS": DeviceCorner("SS", 0.85, 0.85, +30.0, +30.0),
    "FS": DeviceCorner("FS", 1.15, 0.85, -30.0, +30.0),
    "SF": DeviceCorner("SF", 0.85, 1.15, +30.0, -30.0),
}

#: Default offset-tolerance scan ladder (mV of latch Vt mismatch).
DEFAULT_OFFSET_SCAN_MV: tuple[float, ...] = tuple(float(mv) for mv in range(0, 401, 25))

#: Map from the legacy analog keywords to spec fields.
LEGACY_SPEC_KWARGS = {
    "sigma_mv": "sigma_mv",
    "samples": "trials",
    "data": "data",
    "seed": "seed",
    "deadline_ns": "deadline_ns",
    "deadline_margin": "deadline_margin",
    "sigmas_mv": "sigmas_mv",
}


def _corner(value: "str | DeviceCorner") -> DeviceCorner:
    if isinstance(value, DeviceCorner):
        return value
    try:
        return CORNERS[str(value).upper()]
    except KeyError:
        raise AnalogError(
            f"unknown device corner {value!r} (expected one of {sorted(CORNERS)} "
            "or a DeviceCorner)"
        ) from None


def _topology(value: "str | SaTopology") -> SaTopology:
    if isinstance(value, SaTopology):
        return value
    try:
        return SaTopology(str(value).lower())
    except ValueError:
        raise AnalogError(f"unknown SA topology {value!r}") from None


@dataclass(frozen=True)
class CharacterizationSpec:
    """Every tunable of the analog characterization surface, in one object.

    The defaults reproduce the historical ``sensing_yield`` behaviour
    exactly (same RNG stream, same bench electricals).  Sweep axes
    (``topologies`` × ``corners`` × the bitline axis) drive
    :func:`repro.analog.characterizer.characterize`; the scalar fields
    configure each sweep cell's Monte-Carlo run.
    """

    #: sweep axis: SA topologies to characterize
    topologies: tuple[SaTopology, ...] = (SaTopology.CLASSIC, SaTopology.OCSA)
    #: sweep axis: device corners (names into :data:`CORNERS` or
    #: :class:`DeviceCorner` objects)
    corners: tuple[DeviceCorner, ...] = (CORNERS["TT"],)
    #: Monte-Carlo trials per sweep cell (the legacy ``samples``)
    trials: int = 40
    #: latch Vt mismatch sigma (mV) the trials draw from
    sigma_mv: float = 60.0
    #: sigma axis for :func:`~repro.analog.montecarlo.yield_curve`
    sigmas_mv: tuple[float, ...] = (20.0, 60.0, 100.0, 140.0)
    #: RNG seed for the mismatch draws (deterministic per cell)
    seed: int = 7
    #: stored data value the activation senses
    data: int = 1
    #: sensing deadline (ns); ``None`` counts only wrong senses as failures
    deadline_ns: float | None = None
    #: deadline margin for :func:`~repro.analog.montecarlo.model_optimism`
    deadline_margin: float = 1.05
    #: transistor sizes of the SA under test
    sizes: SaSizes = field(default_factory=SaSizes)
    #: sweep axis: bitline geometries — when set, each geometry's
    #: :func:`~repro.analog.bitline_parasitics.total_capacitance_f`
    #: becomes one bitline-capacitance sweep point
    geometries: tuple[BitlineGeometry, ...] | None = None
    #: sweep axis: explicit per-bitline capacitances (F); ignored when
    #: ``geometries`` is set
    bitline_caps_f: tuple[float, ...] = (90e-15,)
    cell_cap_f: float = 18e-15
    internal_cap_f: float = 4e-15
    vdd: float = 1.1
    vpp: float = 2.4
    #: transient time step (the legacy ``TransientSolver.run(dt_ns=)``)
    dt_ns: float = 0.05
    #: offset-tolerance scan ladder (mV of latch Vt mismatch)
    offset_scan_mv: tuple[float, ...] = DEFAULT_OFFSET_SCAN_MV
    #: Newton iteration cap of the transient solver
    max_newton: int = 80

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        topologies = self.topologies
        if isinstance(topologies, (str, SaTopology)):
            topologies = (topologies,)
        coerce(self, "topologies", tuple(_topology(t) for t in topologies))
        corners = self.corners
        if isinstance(corners, (str, DeviceCorner)):
            corners = (corners,)
        coerce(self, "corners", tuple(_corner(c) for c in corners))
        coerce(self, "sigmas_mv", tuple(float(s) for s in self.sigmas_mv))
        coerce(self, "bitline_caps_f", tuple(float(c) for c in self.bitline_caps_f))
        coerce(self, "offset_scan_mv", tuple(float(m) for m in self.offset_scan_mv))
        if self.geometries is not None:
            coerce(self, "geometries", tuple(self.geometries))

        if not self.topologies:
            raise AnalogError("spec needs at least one topology")
        if not self.corners:
            raise AnalogError("spec needs at least one corner")
        names = [c.name for c in self.corners]
        if len(set(names)) != len(names):
            raise AnalogError(f"duplicate corner names: {sorted(names)}")
        if self.trials < 1:
            raise AnalogError("need at least one sample")
        if self.sigma_mv < 0:
            raise AnalogError("sigma must be non-negative")
        if any(s < 0 for s in self.sigmas_mv) or not self.sigmas_mv:
            raise AnalogError("sigmas_mv must be a non-empty tuple of >= 0 values")
        if self.data not in (0, 1):
            raise AnalogError("data must be 0 or 1")
        if self.deadline_ns is not None and self.deadline_ns <= 0:
            raise AnalogError("deadline must be positive (or None)")
        if self.deadline_margin <= 0:
            raise AnalogError("deadline margin must be positive")
        if not self.bitline_caps_f or any(c <= 0 for c in self.bitline_caps_f):
            raise AnalogError("bitline capacitances must be positive")
        if self.geometries is not None and not self.geometries:
            raise AnalogError("geometries must be None or non-empty")
        if self.cell_cap_f <= 0 or self.internal_cap_f <= 0:
            raise AnalogError("capacitances must be positive")
        if self.vdd <= 0 or self.vpp <= 0:
            raise AnalogError("rails must be positive")
        if self.dt_ns <= 0:
            raise AnalogError("dt must be positive")
        if any(m < 0 for m in self.offset_scan_mv) or not self.offset_scan_mv:
            raise AnalogError("offset scan must be a non-empty tuple of >= 0 mV levels")
        scan = self.offset_scan_mv
        if any(hi <= lo for lo, hi in zip(scan, scan[1:])):
            # The ladder reports the last level before the first failure,
            # which is a tolerance only when the levels ascend.
            raise AnalogError(
                f"offset scan must be strictly ascending, got {scan}"
            )
        if self.max_newton < 1:
            raise AnalogError("max_newton must be >= 1")

    def replaced(self, **changes: Any) -> "CharacterizationSpec":
        """A copy with *changes* applied (``dataclasses.replace`` sugar)."""
        return replace(self, **changes)

    def bitline_axis(self) -> tuple[float, ...]:
        """The bitline-capacitance sweep points (F), geometry-derived or
        explicit."""
        if self.geometries is not None:
            return tuple(total_capacitance_f(g) for g in self.geometries)
        return self.bitline_caps_f

    def bench_config(
        self,
        topology: SaTopology | None = None,
        corner: DeviceCorner | None = None,
        bitline_cap_f: float | None = None,
        sizes: SaSizes | None = None,
    ) -> SenseAmpConfig:
        """The :class:`SenseAmpConfig` of one sweep cell.

        Defaults to the first point of each axis, so a spec with all
        defaults reproduces the historical default bench bit-for-bit
        (TT's ``apply`` is the identity).
        """
        corner = corner or self.corners[0]
        nmos, pmos = corner.apply(NMOS_DEFAULT, PMOS_DEFAULT)
        return SenseAmpConfig(
            topology=topology or self.topologies[0],
            sizes=sizes or self.sizes,
            vdd=self.vdd,
            vpp=self.vpp,
            cell_cap_f=self.cell_cap_f,
            bitline_cap_f=(
                bitline_cap_f if bitline_cap_f is not None else self.bitline_axis()[0]
            ),
            internal_cap_f=self.internal_cap_f,
            nmos=nmos,
            pmos=pmos,
        )

    def cell_token(self) -> dict[str, Any]:
        """The per-cell result-affecting fields, as a plain dict.

        Sweep axes are *not* included — each sweep cell keys on its own
        axis point (see :mod:`repro.analog.characterizer`), so two specs
        differing only in the axes share cache entries for the cells
        they have in common.
        """
        from repro.runtime.hashing import canonicalize

        return {
            "trials": self.trials,
            "sigma_mv": self.sigma_mv,
            "seed": self.seed,
            "data": self.data,
            "deadline_ns": self.deadline_ns,
            "sizes": canonicalize(self.sizes),
            "cell_cap_f": self.cell_cap_f,
            "internal_cap_f": self.internal_cap_f,
            "vdd": self.vdd,
            "vpp": self.vpp,
            "dt_ns": self.dt_ns,
            "offset_scan_mv": list(self.offset_scan_mv),
            "max_newton": self.max_newton,
        }

    @classmethod
    def from_legacy_kwargs(
        cls,
        base: "CharacterizationSpec | None" = None,
        **legacy: Any,
    ) -> "CharacterizationSpec":
        """Translate the pre-1.5 analog keywords into a spec.

        Emits one :class:`DeprecationWarning` naming the migration and
        the removal version; raises ``TypeError`` on keywords that never
        existed.
        """
        unknown = set(legacy) - set(LEGACY_SPEC_KWARGS)
        if unknown:
            raise TypeError(
                f"unexpected keyword argument(s) {sorted(unknown)}; "
                "pass a CharacterizationSpec via spec= instead"
            )
        if legacy:
            warnings.warn(
                f"keyword(s) {sorted(legacy)} are deprecated; pass "
                "spec=CharacterizationSpec(...) instead (they will be "
                "removed in repro 2.0)",
                DeprecationWarning,
                stacklevel=3,
            )
        base = base or cls()
        return replace(base, **{LEGACY_SPEC_KWARGS[k]: v for k, v in legacy.items()})
