"""``bench run``: time set-up, run each workload in a fresh process, report.

This process never imports the program.  For each workload it

1. times ``setup_s`` (untraced runs only): :data:`SETUP_RUNS` fresh
   interpreters each import ``repro`` and build the workload's inputs
   from the seed, timed from spawn to the moment the inputs exist;
2. runs the workload in one more fresh interpreter, with one BLAS/OpenMP
   thread and ``src/`` of this checkout first on ``PYTHONPATH``, killing
   its whole process group if it overruns;
3. turns the raw record into metrics, adds its own checks, writes
   ``<out>/<workload>.json`` (untraced) or ``<out>/<workload>.layers.json``
   and ``<out>/<workload>.trace.json`` (traced), and prints the result.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed check makes the
exit status 1; a checkout without the program makes it 2, before any
result is printed.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from bench import report
from bench.spec import ROOT, load
from bench.stats import summary
from bench.workloads import WORKLOADS

#: fresh interpreters timed for setup_s; the metric is their median
SETUP_RUNS = 5
#: a workload process running longer than this is killed with its children
WORKLOAD_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RECORD_KIND = "bench-record/1"


def child_env() -> dict[str, str]:
    """Environment of every child: this checkout's program, one BLAS thread."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of *proc*'s process group and wait for it to go."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _workload_argv(mode: str, name: str, seed: int, seconds: float) -> list[str]:
    return [sys.executable, "-m", "bench.workloads", mode, "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds)]


def time_setup(name: str, seed: int, seconds: float) -> tuple[list[float], set[str]]:
    """Seconds from spawn to built inputs, per fresh interpreter, and their digests."""
    samples, digests = [], set()
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            _workload_argv("inputs", name, seed, seconds), env=child_env(), cwd=ROOT,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"set-up of {name} did not exit and was killed")
        finally:
            proc.stdout.close()
            _stop_group(proc)
        if proc.returncode != 0 or not line.startswith("inputs "):
            raise RuntimeError(f"set-up of {name} failed (exit {proc.returncode})")
        digests.add(line.split()[1])
    return samples, digests


def run_workload(mode: str, name: str, seed: int, seconds: float, out: Path) -> dict:
    """Run one workload process; returns its raw record."""
    record_path = out / f".{name}.{mode}.raw.json"
    record_path.unlink(missing_ok=True)
    argv = _workload_argv(mode, name, seed, seconds) + [
        "--scratch", str(out / "scratch"), "--record", str(record_path),
    ]
    proc = subprocess.Popen(
        argv, env=child_env(), cwd=ROOT, stdout=sys.stderr, start_new_session=True
    )
    try:
        proc.wait(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{name} ran past {WORKLOAD_TIMEOUT_S:.0f} s and was killed")
    finally:
        _stop_group(proc)
    if proc.returncode != 0 or not record_path.is_file():
        raise RuntimeError(f"{name} exited with status {proc.returncode}")
    raw = json.loads(record_path.read_text())
    record_path.unlink()
    return raw


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(numpy_version: str | None) -> dict:
    """The stamp every record carries: commit, box and thread settings."""
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def measure(name: str, seed: int, seconds: float, traced: bool, out: Path) -> dict:
    """One workload, untraced or traced, as a finished record."""
    checks: dict[str, dict] = {}
    if traced:
        raw = run_workload("trace", name, seed, seconds, out)
        metrics = report.layer_metrics(raw["rows"])
        checks.update(report.trace_checks(raw["rows"], name))
    else:
        setup, digests = time_setup(name, seed, seconds)
        raw = run_workload("measure", name, seed, seconds, out)
        metrics = {
            "setup_s": summary(setup),
            "unit_s": summary(raw["samples"]["unit_s"]),
            "peak_rss_mb": summary([raw["peak_rss_mb"]]),
        }
        checks["set-up builds the workload's inputs"] = {
            "ok": digests == {raw["inputs_digest"]}, "count": len(setup),
            "detail": f"{sorted(digests)} vs {raw['inputs_digest']}",
        }
    checks.update(raw["checks"])
    record = {
        "kind": RECORD_KIND,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "cycles": raw["cycles"],
        "correct": raw["failed"] == 0 and all(c["ok"] for c in checks.values()),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
        "checks": checks,
        "env": environment(raw["numpy"]),
        "inputs_digest": raw["inputs_digest"],
    }
    if traced:
        record["units"] = raw["rows"]
        (out / f"{name}.trace.json").write_text(json.dumps(raw["chrome_trace"]) + "\n")
        (out / f"{name}.layers.json").write_text(json.dumps(record, indent=1) + "\n")
    else:
        record.update(
            samples={"setup_s": setup, **raw["samples"]},
            results_digest=raw["results_digest"],
            exact=raw["exact"],
            extra=raw["extra"],
        )
        (out / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _render(record: dict, units: dict[str, str]) -> str:
    mode = "traced" if record["trace"] else "untraced"
    lines = [f"{record['workload']} (seed {record['seed']}, {mode}, "
             f"{record['cycles']} cycles, {record['attempted']} units, "
             f"{record['failed']} failed)"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<26} {m['value']:>12.6g} {units[name]:<12} "
                     f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")
    for name, exact in record.get("exact", {}).items():
        lines.append(f"  {name:<26} {exact!s:>12} (exact)")
    if "results_digest" in record:
        lines.append(f"  results_digest {record['results_digest']}")
    for name, check in record["checks"].items():
        if not check["ok"]:
            lines.append(f"  CHECK FAILED: {name}: {check['detail']}")
    return "\n".join(lines)


def main(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        print(f"bench: BENCHMARK.json workloads {declared} are not the implemented "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in declared:
        print(f"bench: unknown workload {args.workload!r} (one of {declared})", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else declared
    out = (args.out or ROOT / ".bench_out").resolve()
    out.mkdir(parents=True, exist_ok=True)
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, seconds, bool(args.trace), out)
            print(_render(record, units), file=sys.stderr)
            records.append(record)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out / "scratch", ignore_errors=True)
    if len(records) == 1:
        line = report.result_line(records[0], units)
    else:
        line = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{name}": {"value": m["value"], "unit": units[name]}
                for r in records for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1
