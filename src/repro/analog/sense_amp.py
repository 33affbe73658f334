"""Sense-amplifier testbenches: activation simulation and margin analysis.

Builds a full single-pair testbench around the reference topologies of
:mod:`repro.circuits.topologies`:

* a cell capacitor behind a BCAT access transistor on BL,
* bitline capacitances on BL and BLB (the open-bitline reference comes
  precharged, as in the chips),
* parasitic capacitance on the OCSA internal nodes,
* voltage sources for every control net, driven by an
  :class:`~repro.analog.events.EventTimeline`.

On top of the raw transient, two analyses the paper's arguments rest on:

* :func:`offset_tolerance` — the largest latch Vt mismatch the SA still
  senses correctly; OCSA chips tolerate substantially more, which is *why*
  vendors deployed the design in smaller nodes (§V-A);
* :func:`charge_sharing_onset` — when the bitline actually starts moving
  after ACT; delayed on OCSA chips (§VI-D, out-of-spec experiments).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.analog.devices import MosModel, NMOS_DEFAULT, PMOS_DEFAULT
from repro.analog.events import EventTimeline, timeline_for
from repro.analog.solver import (
    BatchedTransientSolver,
    TransientResult,
    TransientSolver,
    Waveform,
)
from repro.circuits.netlist import Circuit
from repro.circuits.topologies import SaSizes, SaTopology, build_classic_sa, build_ocsa
from repro.errors import AnalogError


@dataclass(frozen=True)
class SenseAmpConfig:
    """Electrical configuration of the single-pair testbench."""

    topology: SaTopology = SaTopology.CLASSIC
    sizes: SaSizes = SaSizes()
    vdd: float = 1.1
    vpp: float = 2.4
    cell_cap_f: float = 18e-15  #: storage capacitor
    bitline_cap_f: float = 90e-15  #: per-bitline parasitic
    internal_cap_f: float = 4e-15  #: OCSA internal-node parasitic
    access_w: float = 40.0
    access_l: float = 45.0
    nmos: MosModel = NMOS_DEFAULT
    pmos: MosModel = PMOS_DEFAULT

    @property
    def vpre(self) -> float:
        """Bitline precharge level (half Vdd)."""
        return self.vdd / 2

    @property
    def transfer_ratio(self) -> float:
        """Charge-sharing transfer ratio Cs/(Cs+Cbl)."""
        return self.cell_cap_f / (self.cell_cap_f + self.bitline_cap_f)

    def expected_signal(self, data: int) -> float:
        """Ideal charge-sharing bitline perturbation for stored *data*."""
        stored = self.vdd if data else 0.0
        return (stored - self.vpre) * self.transfer_ratio


@dataclass
class ActivationOutcome:
    """Result of one simulated activation."""

    config: SenseAmpConfig
    timeline: EventTimeline
    result: TransientResult
    data_written: int
    data_sensed: int
    bl_final: float
    blb_final: float
    cell_final: float

    @property
    def correct(self) -> bool:
        """True when the SA latched the stored value."""
        return self.data_written == self.data_sensed

    @property
    def restored(self) -> bool:
        """True when the cell capacitor was recharged toward its rail."""
        target = self.config.vdd if self.data_written else 0.0
        return abs(self.cell_final - target) < 0.25 * self.config.vdd


class SenseAmpBench:
    """A reusable single-pair SA testbench."""

    def __init__(self, config: SenseAmpConfig | None = None) -> None:
        self.config = config or SenseAmpConfig()

    # -- circuit construction -------------------------------------------------

    def build_circuit(self) -> Circuit:
        """Assemble the SA plus cell, bitline parasitics and control sources."""
        cfg = self.config
        if cfg.topology is SaTopology.CLASSIC:
            sa = build_classic_sa(cfg.sizes)
            controls = ("PEQ", "WL", "LA", "LAB", "VPRE")
        else:
            sa = build_ocsa(cfg.sizes)
            controls = ("PRE", "ISO", "OC", "WL", "LA", "LAB", "VPRE")

        c = Circuit(f"{cfg.topology.value}_bench")
        for dev in sa:
            c.add(replace_device(dev))
        # Cell: access transistor + storage capacitor on BL.
        c.add_mos("acc", "nmos", d="BL", g="WL", s="CELL",
                  w=cfg.access_w, l=cfg.access_l, role="mat_access")
        c.add_capacitor("cs", "CELL", "0", cfg.cell_cap_f, role="cell")
        # Bitline parasitics.
        c.add_capacitor("cbl", "BL", "0", cfg.bitline_cap_f, role="bitline")
        c.add_capacitor("cblb", "BLB", "0", cfg.bitline_cap_f, role="bitline")
        if cfg.topology is SaTopology.OCSA:
            c.add_capacitor("csabl", "SABL", "0", cfg.internal_cap_f, role="internal")
            c.add_capacitor("csablb", "SABLB", "0", cfg.internal_cap_f, role="internal")
        # Column kept closed; LIO modelled as a small load.
        c.add_vsource("vy", "Y", "0", 0.0)
        c.add_capacitor("clio", "LIO", "0", 1e-15, role="lio")
        c.add_capacitor("cliob", "LIOB", "0", 1e-15, role="lio")
        # Control sources.
        for net in controls:
            c.add_vsource(f"v{net.lower()}", net, "0", 0.0)
        return c

    def initial_conditions(self, data: int) -> dict[str, float]:
        """Precharged-idle node voltages with *data* stored in the cell."""
        cfg = self.config
        ic = {
            "BL": cfg.vpre,
            "BLB": cfg.vpre,
            "CELL": cfg.vdd if data else 0.0,
            "LA": cfg.vpre,
            "LAB": cfg.vpre,
            "VPRE": cfg.vpre,
            "LIO": cfg.vpre,
            "LIOB": cfg.vpre,
        }
        if cfg.topology is SaTopology.OCSA:
            ic["SABL"] = cfg.vpre
            ic["SABLB"] = cfg.vpre
        return ic

    # -- simulation -------------------------------------------------------------

    def run(
        self,
        data: int,
        vt_mismatch: float = 0.0,
        timeline: EventTimeline | None = None,
        dt_ns: float = 0.05,
        stop_after_restore: bool = True,
    ) -> ActivationOutcome:
        """Simulate one activation with *data* stored in the cell.

        ``vt_mismatch`` shifts the threshold of the ``n2``/``p2`` latch
        devices (the pair whose gate is BL) by +/− half the mismatch,
        modelling the manufacturing asymmetry the OCSA compensates.
        """
        if data not in (0, 1):
            raise AnalogError("data must be 0 or 1")
        cfg = self.config
        timeline = timeline or timeline_for(cfg.topology, vdd=cfg.vdd, vpp=cfg.vpp)
        circuit = self.build_circuit()

        stimuli: dict[str, Waveform] = {}
        for net, wave in timeline.waveforms.items():
            stimuli[f"v{net.lower()}"] = wave
        stimuli["vy"] = Waveform.constant(0.0)

        device_models: dict[str, MosModel] = {}
        if vt_mismatch:
            half = vt_mismatch / 2
            device_models["n2"] = cfg.nmos.with_vt_shift(+half)
            device_models["n1"] = cfg.nmos.with_vt_shift(-half)
            device_models["p2"] = cfg.pmos.with_vt_shift(+half)
            device_models["p1"] = cfg.pmos.with_vt_shift(-half)

        solver = TransientSolver(
            circuit, stimuli, nmos=cfg.nmos, pmos=cfg.pmos, device_models=device_models
        )
        t_stop = timeline.event("latch_restore").end_ns if stop_after_restore else timeline.t_end_ns
        record = ["BL", "BLB", "CELL", "LA", "LAB"]
        if cfg.topology is SaTopology.OCSA:
            record += ["SABL", "SABLB"]
        result = solver.run(
            t_stop_ns=t_stop,
            dt_ns=dt_ns,
            ic=self.initial_conditions(data),
            record=record,
        )

        t_eval = timeline.event("latch_restore").end_ns - 0.2
        bl = result.at("BL", t_eval)
        blb = result.at("BLB", t_eval)
        sensed = 1 if bl > blb else 0
        return ActivationOutcome(
            config=cfg,
            timeline=timeline,
            result=result,
            data_written=data,
            data_sensed=sensed,
            bl_final=bl,
            blb_final=blb,
            cell_final=result.at("CELL", t_eval),
        )

    def run_batch(
        self,
        data: int | Sequence[int],
        vt_mismatches: Sequence[float],
        timeline: EventTimeline | None = None,
        dt_ns: float = 0.05,
        stop_after_restore: bool = True,
        max_newton: int = 80,
    ) -> list[ActivationOutcome]:
        """Simulate one activation per mismatch value, as a single batch.

        All instances share the circuit and stimuli and differ only in
        the latch Vt mismatch and, when *data* is a per-instance sequence
        (one stored value per mismatch), in the stored cell value; the
        whole set is stamped into one stacked ``(N, nodes, nodes)`` MNA
        system and integrated in a single time loop (see
        :class:`BatchedTransientSolver`).  Each returned outcome is
        bit-identical to a scalar :meth:`run` with the same data and
        mismatch — including mismatch 0.0, since shifting a threshold by
        ``+0.0/2`` is a bit-exact no-op.
        """
        mismatches = [float(m) for m in vt_mismatches]
        if isinstance(data, (int, np.integer)):
            stored = [data] * max(len(mismatches), 1)
        else:
            stored = list(data)
        if any(d not in (0, 1) for d in stored):
            raise AnalogError("data must be 0 or 1")
        if not mismatches:
            raise AnalogError("need at least one mismatch value")
        if len(stored) != len(mismatches):
            raise AnalogError(
                f"got {len(stored)} data values for {len(mismatches)} mismatches"
            )
        cfg = self.config
        timeline = timeline or timeline_for(cfg.topology, vdd=cfg.vdd, vpp=cfg.vpp)
        circuit = self.build_circuit()

        stimuli: dict[str, Waveform] = {}
        for net, wave in timeline.waveforms.items():
            stimuli[f"v{net.lower()}"] = wave
        stimuli["vy"] = Waveform.constant(0.0)

        halves = [m / 2 for m in mismatches]
        device_models: dict[str, list[MosModel]] = {
            "n2": [cfg.nmos.with_vt_shift(+h) for h in halves],
            "n1": [cfg.nmos.with_vt_shift(-h) for h in halves],
            "p2": [cfg.pmos.with_vt_shift(+h) for h in halves],
            "p1": [cfg.pmos.with_vt_shift(-h) for h in halves],
        }
        solver = BatchedTransientSolver(
            circuit,
            stimuli,
            nmos=cfg.nmos,
            pmos=cfg.pmos,
            device_models=device_models,
            batch=len(mismatches),
            max_newton=max_newton,
        )
        t_stop = timeline.event("latch_restore").end_ns if stop_after_restore else timeline.t_end_ns
        record = ["BL", "BLB", "CELL", "LA", "LAB"]
        if cfg.topology is SaTopology.OCSA:
            record += ["SABL", "SABLB"]
        per_data = {d: self.initial_conditions(d) for d in set(stored)}
        ic = {
            net: np.array([per_data[d][net] for d in stored])
            for net in per_data[stored[0]]
        }
        batch = solver.run(t_stop_ns=t_stop, dt_ns=dt_ns, ic=ic, record=record)

        t_eval = timeline.event("latch_restore").end_ns - 0.2
        outcomes: list[ActivationOutcome] = []
        for i in range(batch.batch):
            result = batch.instance(i)
            bl = result.at("BL", t_eval)
            blb = result.at("BLB", t_eval)
            outcomes.append(
                ActivationOutcome(
                    config=cfg,
                    timeline=timeline,
                    result=result,
                    data_written=stored[i],
                    data_sensed=1 if bl > blb else 0,
                    bl_final=bl,
                    blb_final=blb,
                    cell_final=result.at("CELL", t_eval),
                )
            )
        return outcomes


def replace_device(dev):
    """Deep-copy a device (so benches never mutate the shared references)."""
    from repro.circuits.netlist import Device

    return Device(dev.name, dev.dtype, dict(dev.nets), dict(dev.params), dev.role)


def simulate_activation(
    topology: SaTopology,
    data: int = 1,
    vt_mismatch: float = 0.0,
    config: SenseAmpConfig | None = None,
    **run_kwargs,
) -> ActivationOutcome:
    """One-call activation simulation for a topology."""
    cfg = config or SenseAmpConfig(topology=topology)
    if cfg.topology is not topology:
        cfg = replace(cfg, topology=topology)
    return SenseAmpBench(cfg).run(data=data, vt_mismatch=vt_mismatch, **run_kwargs)


def offset_tolerance(
    topology: SaTopology,
    data: int = 1,
    config: SenseAmpConfig | None = None,
    lo: float = 0.0,
    hi: float = 0.4,
    resolution: float = 0.005,
    **run_kwargs,
) -> float:
    """Largest latch Vt mismatch (V) that still senses *data* correctly.

    Bisection over the mismatch; the returned value is the last passing
    mismatch, accurate to *resolution*.  The paper's motivation for OCSA
    deployment is exactly that this figure shrinks with technology scaling
    for the classic design.
    """
    cfg = config or SenseAmpConfig(topology=topology)
    if cfg.topology is not topology:
        cfg = replace(cfg, topology=topology)
    bench = SenseAmpBench(cfg)

    if not bench.run(data=data, vt_mismatch=lo, **run_kwargs).correct:
        return 0.0
    if bench.run(data=data, vt_mismatch=hi, **run_kwargs).correct:
        return hi
    while hi - lo > resolution:
        mid = (lo + hi) / 2
        if bench.run(data=data, vt_mismatch=mid, **run_kwargs).correct:
            lo = mid
        else:
            hi = mid
    return lo


def worst_case_offset_tolerance(
    topology: SaTopology,
    config: SenseAmpConfig | None = None,
    resolution: float = 0.01,
    hi: float = 0.5,
    **run_kwargs,
) -> float:
    """Offset tolerance minimised over the stored data value.

    A single mismatch polarity favours one data value and punishes the
    other; the design's real margin is the worse of the two.
    """
    return min(
        offset_tolerance(
            topology, data=data, config=config, resolution=resolution, hi=hi, **run_kwargs
        )
        for data in (0, 1)
    )


def charge_sharing_onset(
    topology: SaTopology,
    data: int = 1,
    config: SenseAmpConfig | None = None,
    threshold: float = 0.01,
    **run_kwargs,
) -> float:
    """Time (ns after ACT) at which the bitline departs Vpre by *threshold*.

    §VI-D: with the classic SA this happens essentially at wordline rise;
    with the OCSA it waits for the offset-cancellation phase to finish, so
    out-of-spec experiments that assume immediate charge sharing misread
    OCSA chips.
    """
    cfg = config or SenseAmpConfig(topology=topology)
    if cfg.topology is not topology:
        cfg = replace(cfg, topology=topology)
    outcome = SenseAmpBench(cfg).run(data=data, **run_kwargs)
    cell0 = cfg.vdd if data else 0.0
    level = cell0 - threshold if data else cell0 + threshold
    t = outcome.result.crossing_time("CELL", level, after_ns=0.0)
    if t is None:
        raise AnalogError("the cell never shared charge with the bitline")
    return t
