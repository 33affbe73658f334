"""Device models for the MNA solver.

MOSFETs use the level-1 square-law model with channel-length modulation.
That is deliberately simple — the goal is not SPICE-grade accuracy but a
model in which **W/L matters**, because the paper's model-accuracy argument
(§VI-A) is entirely about W/L ratios: "higher width-to-length ratios
correspond to more optimistic simulations".

All voltages in volts, currents in amperes, lengths in nm (W/L is a ratio,
so the unit cancels), capacitance in farads.

The solver linearises devices by finite differences around the current
Newton guess, so the only thing a model must provide is a smooth(ish)
current function; :func:`mos_current` is that function.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: Sub-threshold leak conductance (S): keeps cut-off devices numerically
#: visible so Newton never sees a floating node through a stack of
#: cut-off transistors.
GLEAK = 1e-12

#: Finite-difference step (V) used for device linearisation.
FD_STEP = 1e-6


@dataclass(frozen=True)
class MosModel:
    """Square-law MOSFET parameters.

    ``kp`` is the process transconductance (A/V²), ``vt`` the threshold
    voltage magnitude (V, positive for both channels), ``lam`` the
    channel-length-modulation coefficient (1/V).
    """

    channel: str  # "nmos" | "pmos"
    kp: float
    vt: float
    lam: float = 0.02

    def __post_init__(self) -> None:
        if self.channel not in ("nmos", "pmos"):
            raise ValueError(f"bad channel {self.channel!r}")

    def with_vt_shift(self, delta: float) -> "MosModel":
        """Return a copy with the threshold shifted by *delta* volts.

        Sense-amplifier offset is dominated by Vt mismatch between the two
        latch devices; the sense-margin analysis sweeps this shift.
        """
        return replace(self, vt=self.vt + delta)


#: DRAM-array NMOS at a generic modern node.
NMOS_DEFAULT = MosModel(channel="nmos", kp=220e-6, vt=0.45)
#: DRAM-array PMOS (weaker, as usual).
PMOS_DEFAULT = MosModel(channel="pmos", kp=110e-6, vt=0.45)


def _nmos_forward(kp: float, vt: float, lam: float, wl: float, vgs: float, vds: float) -> float:
    """NMOS current with vds >= 0."""
    vov = vgs - vt
    if vov <= 0.0:
        return GLEAK * vds
    if vds < vov:
        return kp * wl * (vov * vds - 0.5 * vds * vds) * (1.0 + lam * vds) + GLEAK * vds
    return 0.5 * kp * wl * vov * vov * (1.0 + lam * vds) + GLEAK * vds


def mos_current(model: MosModel, w_over_l: float, vg: float, vd: float, vs: float) -> float:
    """Drain-to-source current of a MOSFET at the given terminal voltages.

    The device is treated symmetrically: when the nominal drain sits below
    the nominal source (NMOS frame), the terminals swap roles and the
    current sign flips.  This matters for pass transistors (column, ISO,
    OC) whose conduction direction reverses between events.
    """
    if model.channel == "pmos":
        # A PMOS is an NMOS in a mirrored voltage frame with mirrored
        # current direction.
        return -mos_current(
            MosModel("nmos", model.kp, model.vt, model.lam), w_over_l, -vg, -vd, -vs
        )

    if vd >= vs:
        return _nmos_forward(model.kp, model.vt, model.lam, w_over_l, vg - vs, vd - vs)
    # Swapped frame: terminal at vd acts as source.
    return -_nmos_forward(model.kp, model.vt, model.lam, w_over_l, vg - vd, vs - vd)


def _nmos_forward_vec(
    kp_wl: float | np.ndarray,
    half_kp_wl: float | np.ndarray,
    vt: float | np.ndarray,
    lam: float | np.ndarray,
    vgs: np.ndarray,
    vds: np.ndarray,
) -> np.ndarray:
    """Vectorized :func:`_nmos_forward` over instance arrays.

    Every branch evaluates the *same* IEEE expression, in the same
    operation order, as the scalar path; ``np.where`` only selects which
    branch's value survives.  That is what makes the batched solver
    bit-identical to the scalar one per instance.  The scalar evaluates
    ``kp * wl`` and ``0.5 * kp * wl`` first (left to right), so callers
    pass those bias-independent products in, and the repeated
    ``GLEAK * vds`` and ``1.0 + lam * vds`` factors are computed once.
    """
    vov = vgs - vt
    leak = GLEAK * vds
    clm = 1.0 + lam * vds
    triode = kp_wl * (vov * vds - 0.5 * vds * vds) * clm + leak
    sat = half_kp_wl * vov * vov * clm + leak
    conducting = np.where(vds < vov, triode, sat)
    return np.where(vov <= 0.0, leak, conducting)


def nmos_current_vec(
    kp_wl: float | np.ndarray,
    half_kp_wl: float | np.ndarray,
    vt: float | np.ndarray,
    lam: float | np.ndarray,
    vg: np.ndarray,
    vd: np.ndarray,
    vs: np.ndarray,
) -> np.ndarray:
    """Batched NMOS :func:`mos_current` with ``kp·W/L`` and ``0.5·kp·W/L``
    folded in by the caller.

    The drain/source swap picks each element's frame *before* one
    forward evaluation, which then subtracts exactly the operands the
    scalar branch would, so one evaluation replaces computing both
    frames and selecting.
    """
    forward = vd >= vs
    source = np.where(forward, vs, vd)
    drain = np.where(forward, vd, vs)
    current = _nmos_forward_vec(kp_wl, half_kp_wl, vt, lam, vg - source, drain - source)
    return np.where(forward, current, -current)


def mos_current_vec(
    channel: str,
    kp: float | np.ndarray,
    vt: float | np.ndarray,
    lam: float | np.ndarray,
    w_over_l: float,
    vg: np.ndarray,
    vd: np.ndarray,
    vs: np.ndarray,
) -> np.ndarray:
    """Batched :func:`mos_current`: model params and voltages per instance.

    ``kp``/``vt``/``lam`` may be scalars (one model shared by the batch)
    or ``(N,)`` arrays (per-instance corners/mismatch); the terminal
    voltages are ``(N,)`` arrays.  Elementwise bit-identical to the
    scalar :func:`mos_current` — the pmos mirror and the drain/source
    swap reuse the exact scalar formulation.
    """
    if channel == "pmos":
        return -mos_current_vec("nmos", kp, vt, lam, w_over_l, -vg, -vd, -vs)
    return nmos_current_vec(kp * w_over_l, 0.5 * kp * w_over_l, vt, lam, vg, vd, vs)


def mos_ids(
    model: MosModel, w_over_l: float, vg: float, vd: float, vs: float
) -> tuple[float, float, float]:
    """Current plus finite-difference ``(ids, gm, gds)`` around a bias point.

    Provided for analysis/tests; the transient solver computes its own
    finite differences against all three terminals.
    """
    ids = mos_current(model, w_over_l, vg, vd, vs)
    gm = (mos_current(model, w_over_l, vg + FD_STEP, vd, vs) - ids) / FD_STEP
    gds = (mos_current(model, w_over_l, vg, vd + FD_STEP, vs) - ids) / FD_STEP
    return ids, gm, gds


def mos_operating_region(
    model: MosModel, vg: float, vd: float, vs: float
) -> str:
    """Classify the operating region ('cutoff' | 'triode' | 'saturation')."""
    if model.channel == "pmos":
        vg, vd, vs = -vg, -vd, -vs
    if vd < vs:
        vd, vs = vs, vd
    vov = vg - vs - model.vt
    if vov <= 0:
        return "cutoff"
    if vd - vs < vov:
        return "triode"
    return "saturation"
