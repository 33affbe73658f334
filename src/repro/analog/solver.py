"""Modified-nodal-analysis transient solver.

A small but genuine circuit simulator:

* **Unknowns** — node voltages (every net except ground) plus one branch
  current per voltage source.
* **Time integration** — backward Euler with a fixed step; capacitors become
  Norton companions ``G = C/h``, ``I = C/h · v_prev``.
* **Nonlinearity** — Newton-Raphson; MOSFETs are linearised by finite
  differences of :func:`repro.analog.devices.mos_current` against all three
  terminals each iteration (a Norton companion with three controlled
  conductances).
* **Robustness** — a ``gmin`` conductance from every node to ground, an
  iteration cap with an informative :class:`~repro.errors.ConvergenceError`,
  and voltage-step damping.

The solver reads a :class:`repro.circuits.netlist.Circuit`; time-varying
stimuli are :class:`Waveform` objects attached to voltage sources by name.
Time is in nanoseconds externally and converted to seconds internally.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from typing import Any, Sequence

from repro.analog.devices import (
    FD_STEP,
    MosModel,
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    mos_current,
    nmos_current_vec,
)
from repro.circuits.netlist import Circuit, Device, DeviceType
from repro.errors import AnalogError, ConvergenceError

GROUND_NAMES = ("0", "GND", "gnd", "VSS")


@dataclass(frozen=True)
class Waveform:
    """Piecewise-linear waveform: (time_ns, volts) breakpoints.

    Before the first breakpoint the first value holds; after the last, the
    last value holds.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        times = [t for t, _v in self.points]
        if not self.points:
            raise AnalogError("empty waveform")
        if times != sorted(times):
            raise AnalogError("waveform breakpoints must be time-sorted")

    @classmethod
    def constant(cls, volts: float) -> "Waveform":
        """A DC waveform."""
        return cls(((0.0, volts),))

    @classmethod
    def step(cls, t_ns: float, before: float, after: float, rise_ns: float = 0.2) -> "Waveform":
        """A single linear-ramp step at *t_ns*."""
        return cls(((t_ns, before), (t_ns + rise_ns, after)))

    def value(self, t_ns: float) -> float:
        """Evaluate at time *t_ns* (linear interpolation)."""
        pts = self.points
        if t_ns <= pts[0][0]:
            return pts[0][1]
        if t_ns >= pts[-1][0]:
            return pts[-1][1]
        times = [p[0] for p in pts]
        i = bisect_right(times, t_ns)
        t0, v0 = pts[i - 1]
        t1, v1 = pts[i]
        if t1 == t0:
            return v1
        frac = (t_ns - t0) / (t1 - t0)
        return v0 + frac * (v1 - v0)

    def shifted(self, dt_ns: float) -> "Waveform":
        """Return a copy delayed by *dt_ns*."""
        return Waveform(tuple((t + dt_ns, v) for t, v in self.points))


@dataclass
class TransientResult:
    """Simulation output: time axis plus per-net voltage traces."""

    time_ns: np.ndarray
    voltages: dict[str, np.ndarray]

    def at(self, net: str, t_ns: float) -> float:
        """Voltage of *net* at the sample nearest to *t_ns*."""
        idx = int(np.argmin(np.abs(self.time_ns - t_ns)))
        return float(self.voltages[net][idx])

    def final(self, net: str) -> float:
        """Voltage of *net* at the last sample."""
        return float(self.voltages[net][-1])

    def crossing_time(self, net: str, level: float, after_ns: float = 0.0) -> float | None:
        """First time *net* crosses *level* after *after_ns*, or ``None``."""
        v = self.voltages[net]
        t = self.time_ns
        mask = t >= after_ns
        vs = v[mask]
        ts = t[mask]
        if len(vs) < 2:
            return None
        above = vs >= level
        flips = np.nonzero(above[1:] != above[:-1])[0]
        if len(flips) == 0:
            return None
        i = int(flips[0])
        # Linear interpolation inside the flip interval.
        v0, v1 = float(vs[i]), float(vs[i + 1])
        t0, t1 = float(ts[i]), float(ts[i + 1])
        if v1 == v0:
            return t1
        return t0 + (level - v0) / (v1 - v0) * (t1 - t0)

    def separation(self, net_a: str, net_b: str) -> np.ndarray:
        """Trace of ``V(net_a) − V(net_b)`` (the latched differential)."""
        return self.voltages[net_a] - self.voltages[net_b]


class TransientSolver:
    """Transient simulator over a :class:`Circuit`.

    Parameters
    ----------
    circuit:
        The netlist.  Voltage sources whose names appear in *stimuli* are
        driven by the associated waveform; others hold their ``v`` param.
    stimuli:
        Mapping of voltage-source device name → :class:`Waveform`.
    models:
        Optional override of the NMOS/PMOS models; per-device overrides go
        in ``device_models`` keyed by device name (how Vt mismatch is
        injected for the sense-margin analysis).
    """

    def __init__(
        self,
        circuit: Circuit,
        stimuli: dict[str, Waveform] | None = None,
        nmos: MosModel = NMOS_DEFAULT,
        pmos: MosModel = PMOS_DEFAULT,
        device_models: dict[str, MosModel] | None = None,
        gmin: float = 1e-10,
        max_newton: int = 80,
        tol: float = 1e-6,
    ) -> None:
        self.circuit = circuit
        self.stimuli = dict(stimuli or {})
        self.nmos = nmos
        self.pmos = pmos
        self.device_models = dict(device_models or {})
        self.gmin = gmin
        self.max_newton = max_newton
        self.tol = tol

        self._nodes: list[str] = sorted(
            net for net in circuit.nets() if net not in GROUND_NAMES
        )
        self._node_index = {net: i for i, net in enumerate(self._nodes)}
        self._vsources = [d for d in circuit if d.dtype is DeviceType.VSOURCE]
        self._n_nodes = len(self._nodes)
        self._n_unknowns = self._n_nodes + len(self._vsources)

        unknown_stimuli = set(self.stimuli) - {d.name for d in self._vsources}
        if unknown_stimuli:
            raise AnalogError(f"stimuli target unknown sources: {sorted(unknown_stimuli)}")

    # -- helpers -------------------------------------------------------------

    def _v_of(self, x: np.ndarray, net: str) -> float:
        net = self.circuit.resolve(net)
        if net in GROUND_NAMES:
            return 0.0
        return float(x[self._node_index[net]])

    def _idx(self, net: str) -> int | None:
        net = self.circuit.resolve(net)
        if net in GROUND_NAMES:
            return None
        return self._node_index[net]

    def _model_for(self, dev: Device) -> MosModel:
        if dev.name in self.device_models:
            return self.device_models[dev.name]
        return self.nmos if dev.dtype is DeviceType.NMOS else self.pmos

    def _stamp_conductance(self, g_mat: np.ndarray, a: int | None, b: int | None, g: float) -> None:
        if a is not None:
            g_mat[a, a] += g
        if b is not None:
            g_mat[b, b] += g
        if a is not None and b is not None:
            g_mat[a, b] -= g
            g_mat[b, a] -= g

    def _stamp_current(self, rhs: np.ndarray, into: int | None, out_of: int | None, i: float) -> None:
        """Stamp a current *i* flowing from node *out_of* into node *into*."""
        if into is not None:
            rhs[into] += i
        if out_of is not None:
            rhs[out_of] -= i

    # -- assembly -------------------------------------------------------------

    def _assemble(
        self, x: np.ndarray, v_prev: np.ndarray, h_s: float, t_ns: float
    ) -> tuple[np.ndarray, np.ndarray]:
        n = self._n_unknowns
        g_mat = np.zeros((n, n))
        rhs = np.zeros(n)

        # gmin to ground for every node.
        for i in range(self._n_nodes):
            g_mat[i, i] += self.gmin

        branch = self._n_nodes
        for dev in self.circuit:
            if dev.dtype is DeviceType.RESISTOR:
                a, b = self._idx(dev.nets["p"]), self._idx(dev.nets["n"])
                self._stamp_conductance(g_mat, a, b, 1.0 / dev.params["r"])

            elif dev.dtype is DeviceType.CAPACITOR:
                a, b = self._idx(dev.nets["p"]), self._idx(dev.nets["n"])
                c = dev.params["c"]
                geq = c / h_s
                self._stamp_conductance(g_mat, a, b, geq)
                vp_prev = v_prev[a] if a is not None else 0.0
                vn_prev = v_prev[b] if b is not None else 0.0
                ieq = geq * (vp_prev - vn_prev)
                # Norton companion injects from n into p.
                self._stamp_current(rhs, a, b, ieq)

            elif dev.dtype is DeviceType.VSOURCE:
                a, b = self._idx(dev.nets["p"]), self._idx(dev.nets["n"])
                wave = self.stimuli.get(dev.name)
                v_val = wave.value(t_ns) if wave is not None else dev.params.get("v", 0.0)
                k = branch
                if a is not None:
                    g_mat[a, k] += 1.0
                    g_mat[k, a] += 1.0
                if b is not None:
                    g_mat[b, k] -= 1.0
                    g_mat[k, b] -= 1.0
                rhs[k] += v_val
                branch += 1

            elif dev.dtype.is_mos:
                model = self._model_for(dev)
                wl = dev.params["w"] / dev.params["l"]
                d_i, g_i, s_i = (
                    self._idx(dev.nets["d"]),
                    self._idx(dev.nets["g"]),
                    self._idx(dev.nets["s"]),
                )
                vd = self._v_of(x, dev.nets["d"])
                vg = self._v_of(x, dev.nets["g"])
                vs = self._v_of(x, dev.nets["s"])
                ids = mos_current(model, wl, vg, vd, vs)
                gdd = (mos_current(model, wl, vg, vd + FD_STEP, vs) - ids) / FD_STEP
                gdg = (mos_current(model, wl, vg + FD_STEP, vd, vs) - ids) / FD_STEP
                gds_ = (mos_current(model, wl, vg, vd, vs + FD_STEP) - ids) / FD_STEP
                # Linearised: I = ids + gdd·Δvd + gdg·Δvg + gds·Δvs.
                # KCL: I leaves the drain node and enters the source node.
                i0 = ids - gdd * vd - gdg * vg - gds_ * vs
                for node_idx, gval in ((d_i, gdd), (g_i, gdg), (s_i, gds_)):
                    if node_idx is None:
                        continue
                    if d_i is not None:
                        g_mat[d_i, node_idx] += gval
                    if s_i is not None:
                        g_mat[s_i, node_idx] -= gval
                self._stamp_current(rhs, s_i, d_i, i0)

            elif dev.dtype is DeviceType.SWITCH:
                a, b = self._idx(dev.nets["p"]), self._idx(dev.nets["n"])
                ron = dev.params.get("ron", 1e3)
                self._stamp_conductance(g_mat, a, b, 1.0 / ron)

        return g_mat, rhs

    # -- main entry -------------------------------------------------------------

    def run(
        self,
        t_stop_ns: float,
        dt_ns: float = 0.05,
        ic: dict[str, float] | None = None,
        record: list[str] | None = None,
    ) -> TransientResult:
        """Run a transient simulation from 0 to *t_stop_ns*.

        ``ic`` sets initial node voltages (unspecified nodes start at 0 V);
        ``record`` limits the returned traces (default: every node).
        """
        if t_stop_ns <= 0 or dt_ns <= 0:
            raise AnalogError("t_stop and dt must be positive")
        h_s = dt_ns * 1e-9
        steps = int(round(t_stop_ns / dt_ns))
        record = record or list(self._nodes)
        for net in record:
            if self.circuit.resolve(net) not in self._node_index:
                raise AnalogError(f"cannot record unknown net {net!r}")

        x = np.zeros(self._n_unknowns)
        for net, v0 in (ic or {}).items():
            idx = self._idx(net)
            if idx is None:
                continue
            x[idx] = v0

        times = np.empty(steps + 1)
        traces = {net: np.empty(steps + 1) for net in record}
        times[0] = 0.0
        for net in record:
            traces[net][0] = self._v_of(x, net)

        v_prev = x[: self._n_nodes].copy()
        for step in range(1, steps + 1):
            t_ns = step * dt_ns
            x = self._newton(x, v_prev, h_s, t_ns)
            v_prev = x[: self._n_nodes].copy()
            times[step] = t_ns
            for net in record:
                traces[net][step] = self._v_of(x, net)

        return TransientResult(time_ns=times, voltages=traces)

    def _newton(self, x0: np.ndarray, v_prev: np.ndarray, h_s: float, t_ns: float) -> np.ndarray:
        x = x0.copy()
        residual = float("inf")
        for _iteration in range(self.max_newton):
            g_mat, rhs = self._assemble(x, v_prev, h_s, t_ns)
            try:
                x_new = np.linalg.solve(g_mat, rhs)
            except np.linalg.LinAlgError as exc:
                raise AnalogError(f"singular MNA matrix at t={t_ns:.3f} ns") from exc
            delta = x_new - x
            # Damp large voltage steps to keep square-law Newton stable.
            max_step = 0.5
            biggest = float(np.max(np.abs(delta[: self._n_nodes]))) if self._n_nodes else 0.0
            if biggest > max_step:
                delta *= max_step / biggest
            x = x + delta
            residual = float(np.max(np.abs(delta[: self._n_nodes]))) if self._n_nodes else 0.0
            if residual < self.tol:
                return x
        raise ConvergenceError(t_ns, residual, self.max_newton)


@dataclass
class BatchTransientResult:
    """Batched simulation output: one time axis, ``(N, T)`` voltage traces.

    Instance *i* of the batch is exactly the trace the scalar
    :class:`TransientSolver` would have produced for that instance's
    device models — :meth:`instance` materialises it as a plain
    :class:`TransientResult` for the per-instance analysis helpers.
    """

    time_ns: np.ndarray
    voltages: dict[str, np.ndarray]

    @property
    def batch(self) -> int:
        for trace in self.voltages.values():
            return int(trace.shape[0])
        return 0

    def instance(self, i: int) -> TransientResult:
        """The scalar-shaped result of batch instance *i* (a view)."""
        return TransientResult(
            time_ns=self.time_ns,
            voltages={net: trace[i] for net, trace in self.voltages.items()},
        )

    def final(self, net: str) -> np.ndarray:
        """Per-instance voltage of *net* at the last sample, shape ``(N,)``."""
        return self.voltages[net][:, -1]


class BatchedTransientSolver(TransientSolver):
    """N lock-step instances of one circuit, solved as stacked MNA systems.

    The Monte-Carlo and corner sweeps vary only *device models* between
    instances (Vt mismatch, kp corners); topology, passives and stimuli
    are shared.  That makes every instance's conductance matrix the same
    shape with different entries, so the whole batch assembles into one
    ``(N, nodes, nodes)`` stack and one batched ``numpy.linalg.solve``
    per Newton iteration.  Assembly walks no devices at run time: a
    stamp plan built once per solver lists every stamp of the scalar
    device walk as a flat index, all MOS devices (and their three
    ``FD_STEP`` perturbations) are evaluated in one ``(4, D, N)`` pass,
    and the stamps are scattered into the stack in one weighted
    ``np.bincount`` per matrix.

    Bit-identity contract: instance *i* of a batched run is bit-identical
    to a scalar :class:`TransientSolver` run with that instance's device
    models.  Four things uphold it:

    * the device evaluation computes the scalar's IEEE expressions in the
      scalar's order (:func:`~repro.analog.devices.nmos_current_vec`);
      the PMOS mirror is ``s·f(s·vg, s·vd, s·vs)`` with ``s = −1.0``,
      and multiplying by ±1.0 is exact;
    * the scatter preserves each entry's accumulation order: the stamp
      plan lists stamps in the scalar walk order (gmin, then each
      device's stamps; subtraction stored as adding the negated value,
      which IEEE defines as the same operation), and ``np.bincount``
      adds each bin's weights in input order starting from 0.0, exactly
      as the scalar ``+=`` walk starts from ``np.zeros``;
    * Newton damps/converges *per instance* — a converged instance
      freezes while stragglers iterate, exactly like the scalar early
      return, so batch composition cannot change an instance's result;
    * LAPACK's batched ``solve`` factors each matrix independently.

    The scalar :class:`TransientSolver` is the retained reference
    implementation the perf harness and the property tests compare
    against (``tests/test_analog_batch.py`` checks the assembly itself,
    entry by entry, over every stamp path).

    ``device_models`` accepts per-instance sequences: ``{"n2": [m0, m1,
    ...]}`` gives instance *i* model ``m_i`` for device ``n2``.  Scalar
    entries (a single :class:`MosModel`) are shared by the whole batch.
    ``batch`` may be omitted when at least one sequence fixes it.
    """

    def __init__(
        self,
        circuit: Circuit,
        stimuli: dict[str, Waveform] | None = None,
        nmos: MosModel = NMOS_DEFAULT,
        pmos: MosModel = PMOS_DEFAULT,
        device_models: dict[str, MosModel | Sequence[MosModel]] | None = None,
        batch: int | None = None,
        gmin: float = 1e-10,
        max_newton: int = 80,
        tol: float = 1e-6,
    ) -> None:
        super().__init__(
            circuit, stimuli, nmos=nmos, pmos=pmos, device_models=None,
            gmin=gmin, max_newton=max_newton, tol=tol,
        )
        self._raw_device_models = dict(device_models or {})
        inferred: int | None = None
        for name, entry in self._raw_device_models.items():
            if isinstance(entry, MosModel):
                continue
            n = len(entry)
            if n < 1:
                raise AnalogError(f"empty model sequence for device {name!r}")
            if inferred is None:
                inferred = n
            elif inferred != n:
                raise AnalogError(
                    f"inconsistent batch sizes in device_models "
                    f"({inferred} vs {n} for {name!r})"
                )
        if batch is None:
            batch = inferred
        if batch is None:
            raise AnalogError(
                "batch size is ambiguous: pass batch= or at least one "
                "per-instance model sequence"
            )
        if batch < 1:
            raise AnalogError("batch must be >= 1")
        if inferred is not None and inferred != batch:
            raise AnalogError(
                f"batch={batch} conflicts with model sequences of length {inferred}"
            )
        self.batch = batch

        self._build_stamp_plan()

    def _build_stamp_plan(self) -> None:
        """Flatten the scalar device walk into index arrays, once.

        Every ``+=``/``-=`` the scalar :meth:`TransientSolver._assemble`
        performs becomes one *stamp*: a flat matrix (or RHS) index plus
        where its value comes from, listed in the scalar walk order
        (gmin first, then each device's stamps).  Subtraction is stored
        as adding the negated value, which IEEE defines to be the same
        operation.
        """
        n = self._n_unknowns
        ground = self._n_nodes  # the zero row appended to gathered voltages
        n_mos = self.circuit.mos_count()
        n_caps = self.circuit.count(DeviceType.CAPACITOR)
        n_vsrc = len(self._vsources)

        def slot(net: str) -> int:
            idx = self._idx(net)
            return ground if idx is None else idx

        # Matrix stamps: constant ones carry (value, divide-by-h) and MOS
        # ones a (source row into the (3·D, N) conductances, ±1) pair.
        g_flat: list[int] = []
        const_rows: list[int] = []
        const_val: list[float] = []
        const_per_h: list[bool] = []
        mos_rows: list[int] = []
        mos_src: list[int] = []
        mos_sign: list[float] = []
        # RHS stamps, sourced from rows of concat(ieq, v_source, i0).
        r_flat: list[int] = []
        r_src: list[int] = []
        r_sign: list[float] = []

        def const(a: int, b: int, value: float, per_h: bool = False) -> None:
            const_rows.append(len(g_flat))
            g_flat.append(a * n + b)
            const_val.append(value)
            const_per_h.append(per_h)

        def conductance(a: int | None, b: int | None, value: float, per_h: bool = False) -> None:
            if a is not None:
                const(a, a, value, per_h)
            if b is not None:
                const(b, b, value, per_h)
            if a is not None and b is not None:
                const(a, b, -value, per_h)
                const(b, a, -value, per_h)

        def current(into: int | None, out_of: int | None, source: int) -> None:
            if into is not None:
                r_flat.append(into)
                r_src.append(source)
                r_sign.append(1.0)
            if out_of is not None:
                r_flat.append(out_of)
                r_src.append(source)
                r_sign.append(-1.0)

        for i in range(self._n_nodes):
            const(i, i, self.gmin)

        caps: list[tuple[int, int, float]] = []
        mos_terms: list[tuple[int, int, int]] = []
        mos_wl: list[float] = []
        mos_models: list[tuple[float, Any, Any, Any]] = []
        branch = self._n_nodes
        for dev in self.circuit:
            if dev.dtype is DeviceType.RESISTOR:
                a, b = self._idx(dev.nets["p"]), self._idx(dev.nets["n"])
                conductance(a, b, 1.0 / dev.params["r"])

            elif dev.dtype is DeviceType.CAPACITOR:
                a, b = self._idx(dev.nets["p"]), self._idx(dev.nets["n"])
                conductance(a, b, dev.params["c"], per_h=True)
                current(a, b, len(caps))
                caps.append((slot(dev.nets["p"]), slot(dev.nets["n"]), dev.params["c"]))

            elif dev.dtype is DeviceType.VSOURCE:
                a, b = self._idx(dev.nets["p"]), self._idx(dev.nets["n"])
                k = branch
                if a is not None:
                    const(a, k, 1.0)
                    const(k, a, 1.0)
                if b is not None:
                    const(b, k, -1.0)
                    const(k, b, -1.0)
                current(k, None, n_caps + (k - self._n_nodes))
                branch += 1

            elif dev.dtype.is_mos:
                m = len(mos_terms)
                d_i, g_i, s_i = (self._idx(dev.nets[p]) for p in ("d", "g", "s"))
                for k, node_idx in enumerate((d_i, g_i, s_i)):
                    if node_idx is None:
                        continue
                    for row, sign in ((d_i, 1.0), (s_i, -1.0)):
                        if row is not None:
                            mos_rows.append(len(g_flat))
                            g_flat.append(row * n + node_idx)
                            mos_src.append(k * n_mos + m)
                            mos_sign.append(sign)
                current(s_i, d_i, n_caps + n_vsrc + m)
                mos_terms.append(tuple(slot(dev.nets[p]) for p in ("d", "g", "s")))
                mos_wl.append(dev.params["w"] / dev.params["l"])
                mos_models.append(self._batch_model(dev))

            elif dev.dtype is DeviceType.SWITCH:
                a, b = self._idx(dev.nets["p"]), self._idx(dev.nets["n"])
                conductance(a, b, 1.0 / dev.params.get("ron", 1e3))

        batch = self.batch
        self._g_flat = np.array(g_flat, dtype=np.intp)
        self._const_rows = np.array(const_rows, dtype=np.intp)
        self._const_val = np.array(const_val, dtype=float)
        self._const_per_h = np.array(const_per_h, dtype=bool)
        self._mos_rows = np.array(mos_rows, dtype=np.intp)
        self._mos_src = np.array(mos_src, dtype=np.intp)
        self._mos_stamp_sign = np.array(mos_sign)[:, None]
        self._const_cache: tuple[float, np.ndarray, np.ndarray] | None = None

        self._r_flat = np.array(r_flat, dtype=np.intp)
        self._r_src = np.array(r_src, dtype=np.intp)
        self._r_sign = np.array(r_sign)[:, None]
        # Flat (instance, entry) bins of the (S, N) stamp values, so one
        # weighted bincount adds each bin's terms in stamp order.
        instances = np.arange(batch)[None, :]
        self._g_scatter = (instances * (n * n) + self._g_flat[:, None]).ravel()
        self._r_scatter = (instances * n + self._r_flat[:, None]).ravel()

        self._cap_p = np.array([p for p, _n, _c in caps], dtype=np.intp)
        self._cap_n = np.array([q for _p, q, _c in caps], dtype=np.intp)
        self._cap_c = np.array([c for _p, _q, c in caps], dtype=float)[:, None]

        self._mos_terms = np.array(mos_terms, dtype=np.intp).reshape(-1, 3).T.copy()
        self._mos_sign = np.array([m[0] for m in mos_models], dtype=float)[:, None]
        params = np.empty((3, n_mos, batch))
        for m, model in enumerate(mos_models):
            for k in range(3):
                params[k, m] = model[k + 1]
        kp, self._mos_vt, self._mos_lam = params
        wl = np.array(mos_wl, dtype=float)[:, None]
        self._mos_kp_wl = kp * wl
        self._mos_half_kp_wl = 0.5 * kp * wl

    def _batch_model(self, dev: Device) -> tuple[float, Any, Any, Any]:
        """``(channel sign, kp, vt, lam)`` of a MOS device: floats when
        shared by the batch, ``(N,)`` arrays when per-instance.  Channel
        cannot vary across a batch (it would change the circuit, not a
        parameter); the sign is +1 for NMOS, −1 for the PMOS mirror."""
        entry = self._raw_device_models.get(dev.name)
        if entry is None:
            entry = self.nmos if dev.dtype is DeviceType.NMOS else self.pmos
        if isinstance(entry, MosModel):
            channel, kp, vt, lam = entry.channel, entry.kp, entry.vt, entry.lam
        else:
            models = list(entry)
            channels = {m.channel for m in models}
            if len(channels) != 1:
                raise AnalogError(
                    f"device {dev.name!r} mixes channels across the batch"
                )
            channel = models[0].channel
            kp = np.array([m.kp for m in models])
            vt = np.array([m.vt for m in models])
            lam = np.array([m.lam for m in models])
        return (1.0 if channel == "nmos" else -1.0), kp, vt, lam

    def instance_models(self, i: int) -> dict[str, MosModel]:
        """The ``device_models`` dict reproducing batch instance *i*."""
        out: dict[str, MosModel] = {}
        for name, entry in self._raw_device_models.items():
            out[name] = entry if isinstance(entry, MosModel) else entry[i]
        return out

    def reference_solver(self, i: int) -> TransientSolver:
        """A scalar :class:`TransientSolver` equivalent to instance *i*."""
        return TransientSolver(
            self.circuit, self.stimuli, nmos=self.nmos, pmos=self.pmos,
            device_models=self.instance_models(i),
            gmin=self.gmin, max_newton=self.max_newton, tol=self.tol,
        )

    def _v_of_batch(self, x: np.ndarray, net: str) -> np.ndarray:
        net = self.circuit.resolve(net)
        if net in GROUND_NAMES:
            return np.zeros(self.batch)
        return x[:, self._node_index[net]]

    # -- batched assembly ----------------------------------------------------

    def _constant_stamps(self, h_s: float) -> tuple[np.ndarray, np.ndarray]:
        """Matrix stamp values with the constant rows filled (gmin, R,
        C/h, ±1, switch), plus the capacitors' ``(C, 1)`` C/h; cached
        per step size."""
        cached = self._const_cache
        if cached is None or cached[0] != h_s:
            const = self._const_val.copy()
            per_h = self._const_per_h
            # -(c / h) for the off-diagonal capacitor stamps: the sign is
            # stored on c and division commutes with negation exactly.
            const[per_h] = const[per_h] / h_s
            values = np.empty((self._g_flat.size, self.batch))
            values[self._const_rows] = const[:, None]
            cached = (h_s, values, self._cap_c / h_s)
            self._const_cache = cached
        return cached[1], cached[2]

    def _assemble(
        self, x: np.ndarray, v_prev: np.ndarray, h_s: float, t_ns: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked MNA assembly: ``(N, n, n)`` conductances, ``(N, n)`` RHS.

        All MOS devices are evaluated in one vectorized pass, then every
        stamp is scattered by a weighted ``np.bincount`` in the scalar
        walk order, so each matrix entry sums the scalar's IEEE terms in
        the scalar order (see the class docstring).
        """
        n, n_nodes, batch = self._n_unknowns, self._n_nodes, self.batch
        g_values, geq = self._constant_stamps(h_s)

        # Terminal voltages (3, D, N) in (d, g, s) order; the ground slot
        # reads 0.0 like the scalar ``_v_of``.
        volts = np.zeros((n_nodes + 1, batch))
        volts[:n_nodes] = x[:, :n_nodes].T
        terms = volts[self._mos_terms]
        # The base bias and its three FD_STEP perturbations (drain, gate,
        # source), mirrored into the NMOS frame for PMOS: s·f(s·v).
        probe = np.repeat(terms[:, None], 4, axis=1)
        for k in range(3):
            probe[k, k + 1] += FD_STEP
        vd, vg, vs = probe * self._mos_sign
        current = self._mos_sign * nmos_current_vec(
            self._mos_kp_wl, self._mos_half_kp_wl, self._mos_vt, self._mos_lam,
            vg, vd, vs,
        )
        ids = current[0]
        cond = (current[1:] - ids) / FD_STEP  # gdd, gdg, gds
        i0 = ids - cond[0] * terms[0] - cond[1] * terms[1] - cond[2] * terms[2]

        g_values[self._mos_rows] = (
            cond.reshape(-1, batch)[self._mos_src] * self._mos_stamp_sign
        )
        g_mat = np.bincount(
            self._g_scatter, weights=g_values.ravel(), minlength=batch * n * n
        )

        prev = np.zeros((n_nodes + 1, batch))
        prev[:n_nodes] = v_prev.T
        ieq = geq * (prev[self._cap_p] - prev[self._cap_n])
        v_src = np.empty((len(self._vsources), batch))
        for k, dev in enumerate(self._vsources):
            wave = self.stimuli.get(dev.name)
            v_src[k] = wave.value(t_ns) if wave is not None else dev.params.get("v", 0.0)
        sources = np.concatenate((ieq, v_src, i0))
        r_values = sources[self._r_src] * self._r_sign
        rhs = np.bincount(self._r_scatter, weights=r_values.ravel(), minlength=batch * n)
        return g_mat.reshape(batch, n, n), rhs.reshape(batch, n)

    # -- batched Newton / time stepping --------------------------------------

    def _newton(self, x0: np.ndarray, v_prev: np.ndarray, h_s: float, t_ns: float) -> np.ndarray:
        x = x0.copy()
        n_nodes = self._n_nodes
        active = np.arange(self.batch)
        residual = np.full(self.batch, float("inf"))
        for _iteration in range(self.max_newton):
            g_mat, rhs = self._assemble(x, v_prev, h_s, t_ns)
            try:
                x_new = np.linalg.solve(g_mat[active], rhs[active][..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise AnalogError(
                    f"singular MNA matrix at t={t_ns:.3f} ns (batched)"
                ) from exc
            delta = x_new - x[active]
            max_step = 0.5
            if n_nodes:
                biggest = np.max(np.abs(delta[:, :n_nodes]), axis=1)
            else:
                biggest = np.zeros(active.size)
            # Per-instance damping: only over-stepping instances get
            # scaled (scaling by exactly 1.0 would also be bit-exact, but
            # mirroring the scalar control flow keeps the intent obvious).
            damped = biggest > max_step
            if np.any(damped):
                scale = np.ones(active.size)
                scale[damped] = max_step / biggest[damped]
                delta = delta * scale[:, None]
            x[active] = x[active] + delta
            if n_nodes:
                res = np.max(np.abs(delta[:, :n_nodes]), axis=1)
            else:
                res = np.zeros(active.size)
            residual[active] = res
            # Per-instance convergence freezing — the batched analogue of
            # the scalar early return.
            still = res >= self.tol
            active = active[still]
            if active.size == 0:
                return x
        error = ConvergenceError(
            t_ns, float(np.max(residual[active])), self.max_newton
        )
        error.instances = [int(i) for i in active]
        raise error

    def run(
        self,
        t_stop_ns: float,
        dt_ns: float = 0.05,
        ic: dict[str, float | np.ndarray] | None = None,
        record: list[str] | None = None,
    ) -> BatchTransientResult:
        """Run the batch from 0 to *t_stop_ns* in lock-step.

        ``ic`` values may be floats (shared) or ``(N,)`` arrays
        (per-instance initial conditions).
        """
        if t_stop_ns <= 0 or dt_ns <= 0:
            raise AnalogError("t_stop and dt must be positive")
        h_s = dt_ns * 1e-9
        steps = int(round(t_stop_ns / dt_ns))
        record = record or list(self._nodes)
        for net in record:
            if self.circuit.resolve(net) not in self._node_index:
                raise AnalogError(f"cannot record unknown net {net!r}")

        x = np.zeros((self.batch, self._n_unknowns))
        for net, v0 in (ic or {}).items():
            idx = self._idx(net)
            if idx is None:
                continue
            x[:, idx] = v0

        times = np.empty(steps + 1)
        traces = {net: np.empty((self.batch, steps + 1)) for net in record}
        times[0] = 0.0
        for net in record:
            traces[net][:, 0] = self._v_of_batch(x, net)

        v_prev = x[:, : self._n_nodes].copy()
        for step in range(1, steps + 1):
            t_ns = step * dt_ns
            x = self._newton(x, v_prev, h_s, t_ns)
            v_prev = x[:, : self._n_nodes].copy()
            times[step] = t_ns
            for net in record:
                traces[net][:, step] = self._v_of_batch(x, net)

        return BatchTransientResult(time_ns=times, voltages=traces)


def dc_operating_point(
    circuit: Circuit,
    stimuli: dict[str, Waveform] | None = None,
    **solver_kwargs,
) -> dict[str, float]:
    """Solve the DC operating point (long transient settle at t=0 stimuli).

    Capacitors are open at DC; rather than special-casing the assembly we
    run a short settling transient with a large step, which converges to
    the same point for the circuits this library builds.
    """
    solver = TransientSolver(circuit, stimuli, **solver_kwargs)
    result = solver.run(t_stop_ns=200.0, dt_ns=10.0)
    return {net: result.final(net) for net in result.voltages}
