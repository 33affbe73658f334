"""Analog simulation substrate.

The paper's §VI-A argues that analog simulations of DRAM SAs are only as
good as the transistor dimensions and topology they assume.  This package
provides the simulator those arguments need:

* :mod:`repro.analog.devices` — square-law MOSFET model and passives;
* :mod:`repro.analog.solver` — modified-nodal-analysis transient solver
  (Newton iteration + backward Euler companion models);
* :mod:`repro.analog.events` — DDR activation/precharge control sequences
  for the classic SA (Fig 2c) and the OCSA (Fig 9b);
* :mod:`repro.analog.sense_amp` — end-to-end testbenches: charge sharing,
  offset cancellation, pre-sensing, latch & restore, sense-margin sweeps;
* :mod:`repro.analog.spec` — the :class:`CharacterizationSpec` config
  object fronting the whole characterization surface;
* :mod:`repro.analog.characterizer` — corner × topology × bitline sweeps
  run as campaign jobs on the batched solver.
"""

from repro import _lazy_exports

#: exported name -> defining module, imported on the first access of the name
_EXPORTS = {
    "BatchTransientResult": "repro.analog.solver",
    "BatchedTransientSolver": "repro.analog.solver",
    "CORNERS": "repro.analog.spec",
    "CharacterizationSpec": "repro.analog.spec",
    "DeviceCorner": "repro.analog.spec",
    "CellResult": "repro.analog.characterizer",
    "CharacterizationJob": "repro.analog.characterizer",
    "CharacterizationReport": "repro.analog.characterizer",
    "SweepCell": "repro.analog.characterizer",
    "characterize": "repro.analog.characterizer",
    "sweep_cells": "repro.analog.characterizer",
    "MosModel": "repro.analog.devices",
    "NMOS_DEFAULT": "repro.analog.devices",
    "PMOS_DEFAULT": "repro.analog.devices",
    "TransientResult": "repro.analog.solver",
    "TransientSolver": "repro.analog.solver",
    "Waveform": "repro.analog.solver",
    "EventTimeline": "repro.analog.events",
    "classic_activation_timeline": "repro.analog.events",
    "ocsa_activation_timeline": "repro.analog.events",
    "SenseAmpBench": "repro.analog.sense_amp",
    "SenseAmpConfig": "repro.analog.sense_amp",
    "ActivationOutcome": "repro.analog.sense_amp",
    "simulate_activation": "repro.analog.sense_amp",
    "offset_tolerance": "repro.analog.sense_amp",
    "worst_case_offset_tolerance": "repro.analog.sense_amp",
    "charge_sharing_onset": "repro.analog.sense_amp",
    "activation_comparison": "repro.analog.metrics",
    "restore_latency_ns": "repro.analog.metrics",
    "sensing_latency_ns": "repro.analog.metrics",
    "switched_energy_fj": "repro.analog.metrics",
    "YieldResult": "repro.analog.montecarlo",
    "model_optimism": "repro.analog.montecarlo",
    "sensing_yield": "repro.analog.montecarlo",
    "yield_curve": "repro.analog.montecarlo",
    "BitlineGeometry": "repro.analog.bitline_parasitics",
    "crosstalk_ratio": "repro.analog.bitline_parasitics",
    "settling_time_ns": "repro.analog.bitline_parasitics",
    "shrink_report": "repro.analog.bitline_parasitics",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, globals(), _EXPORTS)
