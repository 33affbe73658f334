"""The batched transient solver (repro.analog.solver.BatchedTransientSolver).

The headline contract under test: instance *i* of a batched run is
*bit-identical* to a scalar :class:`TransientSolver` run with that
instance's device models — not approximately equal.  Every comparison
here is ``np.array_equal`` / ``==``, never ``allclose``.
"""

import numpy as np
import pytest

from repro.analog.devices import (
    MosModel,
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    mos_current,
    mos_current_vec,
)
from repro.analog.sense_amp import SenseAmpBench, SenseAmpConfig
from repro.analog.solver import BatchedTransientSolver, Waveform
from repro.circuits.netlist import Circuit, Device, DeviceType
from repro.circuits.topologies import SaTopology
from repro.errors import AnalogError, ConvergenceError


class TestMosCurrentVec:
    @pytest.mark.parametrize("channel,base", [
        ("nmos", NMOS_DEFAULT), ("pmos", PMOS_DEFAULT),
    ])
    def test_matches_scalar_bitwise(self, channel, base):
        """Vectorized device evaluation is the same IEEE expression."""
        rng = np.random.default_rng(42)
        n = 128
        kp = base.kp * rng.uniform(0.7, 1.3, size=n)
        vt = base.vt + rng.normal(0.0, 0.08, size=n)
        lam = np.full(n, base.lam)
        vg = rng.uniform(-0.5, 2.5, size=n)
        vd = rng.uniform(-0.5, 2.5, size=n)
        vs = rng.uniform(-0.5, 2.5, size=n)
        vec = mos_current_vec(channel, kp, vt, lam, 3.0, vg, vd, vs)
        for i in range(n):
            model = MosModel(channel, float(kp[i]), float(vt[i]), float(lam[i]))
            assert vec[i] == mos_current(model, 3.0, vg[i], vd[i], vs[i])

    def test_shared_scalar_params_broadcast(self):
        vg = np.array([0.0, 0.8, 1.6])
        vd = np.array([1.1, 1.1, 1.1])
        vs = np.zeros(3)
        vec = mos_current_vec(
            "nmos", NMOS_DEFAULT.kp, NMOS_DEFAULT.vt, NMOS_DEFAULT.lam,
            2.0, vg, vd, vs,
        )
        for i in range(3):
            assert vec[i] == mos_current(NMOS_DEFAULT, 2.0, vg[i], vd[i], vs[i])


def _outcomes_identical(batched, scalar):
    """Bit-identity of two ActivationOutcomes, traces included."""
    if batched.data_sensed != scalar.data_sensed:
        return False
    if not np.array_equal(batched.result.time_ns, scalar.result.time_ns):
        return False
    return all(
        np.array_equal(batched.result.voltages[net], scalar.result.voltages[net])
        for net in scalar.result.voltages
    )


class TestRunBatchBitIdentity:
    def test_single_instance_matches_scalar_run(self):
        """N=1 regression: batching one instance changes nothing."""
        bench = SenseAmpBench()
        scalar = bench.run(data=1, vt_mismatch=0.03)
        (batched,) = bench.run_batch(1, [0.03])
        assert _outcomes_identical(batched, scalar)
        assert batched.bl_final == scalar.bl_final
        assert batched.blb_final == scalar.blb_final

    def test_zero_mismatch_is_bit_exact(self):
        """Shifting a threshold by +0.0/2 is a no-op, so the nominal
        instance of a batch reproduces the unshifted scalar run."""
        bench = SenseAmpBench()
        (batched,) = bench.run_batch(1, [0.0])
        scalar = bench.run(data=1, vt_mismatch=0.0)
        assert _outcomes_identical(batched, scalar)

    @pytest.mark.parametrize("topology", [SaTopology.CLASSIC, SaTopology.OCSA])
    def test_every_instance_matches_its_scalar_run(self, topology):
        """The property the Monte-Carlo engine rests on, both topologies."""
        rng = np.random.default_rng(7)
        mismatches = [float(m) for m in rng.normal(0.0, 0.06, size=4)]
        bench = SenseAmpBench(SenseAmpConfig(topology=topology))
        batched = bench.run_batch(0, mismatches)
        assert len(batched) == len(mismatches)
        for out, mismatch in zip(batched, mismatches):
            scalar = bench.run(data=0, vt_mismatch=mismatch)
            assert _outcomes_identical(out, scalar)

    def test_per_instance_data_matches_scalar_runs(self):
        """A batch mixing stored values gives each instance the scalar
        run of its own data: only the CELL initial condition differs."""
        bench = SenseAmpBench(SenseAmpConfig(topology=SaTopology.OCSA))
        data, mismatches = [1, 0, 1, 0], [0.0, 0.05, 0.05, 0.0]
        batched = bench.run_batch(data, mismatches)
        for out, d, mismatch in zip(batched, data, mismatches):
            assert out.data_written == d
            assert _outcomes_identical(out, bench.run(data=d, vt_mismatch=mismatch))

    def test_run_batch_validates_inputs(self):
        bench = SenseAmpBench()
        with pytest.raises(AnalogError, match="data must be 0 or 1"):
            bench.run_batch(2, [0.0])
        with pytest.raises(AnalogError, match="data must be 0 or 1"):
            bench.run_batch([1, 2], [0.0, 0.0])
        with pytest.raises(AnalogError, match="at least one mismatch"):
            bench.run_batch(1, [])
        with pytest.raises(AnalogError, match="2 data values for 3 mismatches"):
            bench.run_batch([0, 1], [0.0, 0.0, 0.0])


def _every_stamp_path_circuit() -> Circuit:
    """A circuit reaching every stamp path of the assembly, which the SA
    benches (no resistor, no switch, grounded sources only) never do."""
    c = Circuit("stamp_paths")
    c.add_vsource("vdd", "VDD", "0", 1.1)
    c.add_vsource("vfloat", "A", "B", 0.3)  # both terminals off ground
    c.add_resistor("r1", "VDD", "A", 12e3)
    c.add(Device("sw", DeviceType.SWITCH, {"p": "B", "n": "OUT"}, {"ron": 2e3}))
    c.add_capacitor("cout", "OUT", "0", 5e-15)
    c.add_capacitor("cab", "A", "B", 2e-15)
    c.add_mos("mn", "nmos", d="OUT", g="A", s="0", w=120.0, l=45.0)
    c.add_mos("mp", "pmos", d="OUT", g="B", s="VDD", w=90.0, l=45.0)
    c.add_mos("mgate", "nmos", d="A", g="0", s="B", w=60.0, l=45.0)
    c.add_mos("mdrain", "pmos", d="0", g="OUT", s="B", w=60.0, l=45.0)
    return c


class TestAssemblyBitIdentity:
    @pytest.mark.parametrize("n", [1, 3])
    def test_assemble_matches_reference_solver_bitwise(self, n):
        """Every stamp path: G and RHS of each instance equal the scalar
        assembly bit for bit, at random states, steps and times."""
        rng = np.random.default_rng(n)
        models = {
            "mn": [NMOS_DEFAULT.with_vt_shift(float(v)) for v in rng.normal(0, 0.05, n)],
            "mp": [PMOS_DEFAULT.with_vt_shift(float(v)) for v in rng.normal(0, 0.05, n)],
            "mdrain": MosModel("pmos", 90e-6, 0.4, lam=0.05),
        }
        solver = BatchedTransientSolver(
            _every_stamp_path_circuit(),
            {"vfloat": Waveform(((0.2, 0.0), (0.5, 0.7), (1.5, -0.2)))},
            device_models=models,
            batch=n,
        )
        references = [solver.reference_solver(i) for i in range(n)]
        for _ in range(6):
            x = rng.uniform(-0.6, 2.6, size=(n, solver._n_unknowns))
            v_prev = rng.uniform(-0.6, 2.6, size=(n, solver._n_nodes))
            h_s = float(rng.choice([5e-11, 1e-10]))
            t_ns = float(rng.uniform(0.0, 2.0))
            g_mat, rhs = solver._assemble(x, v_prev, h_s, t_ns)
            for i, reference in enumerate(references):
                g_ref, rhs_ref = reference._assemble(x[i], v_prev[i], h_s, t_ns)
                assert np.array_equal(g_mat[i], g_ref)
                assert np.array_equal(rhs[i], rhs_ref)


class TestBatchedSolverConstruction:
    def _circuit(self):
        return SenseAmpBench().build_circuit()

    def test_ambiguous_batch_rejected(self):
        with pytest.raises(AnalogError, match="ambiguous"):
            BatchedTransientSolver(self._circuit())

    def test_empty_model_sequence_rejected(self):
        with pytest.raises(AnalogError, match="empty model sequence"):
            BatchedTransientSolver(self._circuit(), device_models={"n2": []})

    def test_inconsistent_sequence_lengths_rejected(self):
        models = {
            "n1": [NMOS_DEFAULT],
            "n2": [NMOS_DEFAULT, NMOS_DEFAULT],
        }
        with pytest.raises(AnalogError, match="inconsistent batch sizes"):
            BatchedTransientSolver(self._circuit(), device_models=models)

    def test_batch_conflicting_with_sequences_rejected(self):
        with pytest.raises(AnalogError, match="conflicts"):
            BatchedTransientSolver(
                self._circuit(), device_models={"n2": [NMOS_DEFAULT]}, batch=3
            )

    def test_instance_models_round_trip(self):
        shifted = [NMOS_DEFAULT.with_vt_shift(0.01), NMOS_DEFAULT.with_vt_shift(-0.01)]
        solver = BatchedTransientSolver(
            self._circuit(), device_models={"n2": shifted, "p1": PMOS_DEFAULT}
        )
        assert solver.batch == 2
        assert solver.instance_models(1) == {"n2": shifted[1], "p1": PMOS_DEFAULT}
        reference = solver.reference_solver(0)
        assert reference.device_models == {"n2": shifted[0], "p1": PMOS_DEFAULT}


class TestConvergenceFailure:
    def test_convergence_error_names_instances(self):
        """A starved Newton loop reports *which* batch instances failed."""
        bench = SenseAmpBench()
        with pytest.raises(ConvergenceError) as excinfo:
            bench.run_batch(1, [0.0, 0.02], max_newton=1)
        instances = excinfo.value.instances
        assert instances and all(isinstance(i, int) for i in instances)
        assert set(instances) <= {0, 1}
