"""CLI: ``python -m repro.perf`` — run the kernel perf harness.

Writes ``BENCH_pipeline.json`` (per-kernel ns/pixel, speedup vs the
retained reference implementations, end-to-end pipeline time, campaign
wall time) and prints the human-readable table.  ``--analog``,
``--dataplane`` and ``--catalog`` run the analog, zero-copy data-plane
and chip-catalog suites instead (``BENCH_analog.json`` /
``BENCH_dataplane.json`` / ``BENCH_catalog.json``).
"""

from __future__ import annotations

import os
import sys

from repro.errors import ReproError
from repro.perf.history import (
    DEFAULT_HISTORY_PATH,
    check_regression,
    record_run,
    render_regressions,
)
from repro.perf.bench import (
    ANALOG_REPORT_PATH,
    CATALOG_REPORT_PATH,
    DATAPLANE_REPORT_PATH,
    DEFAULT_REPORT_PATH,
    _SCALES,
    analog_gate_failures,
    catalog_gate_failures,
    dataplane_gate_failures,
    measure_catalog,
    measure_dataplane,
    render_analog_report,
    render_catalog_report,
    render_dataplane_report,
    render_report,
    run_analog_benchmarks,
    run_benchmarks,
    write_analog_report,
    write_catalog_report,
    write_dataplane_report,
    write_report,
)

_USAGE = f"""\
usage: python -m repro.perf [options]

options:
  --scale S          workload scale: {', '.join(sorted(_SCALES))} (default: default)
  --out PATH         report path (default: {DEFAULT_REPORT_PATH},
                     {ANALOG_REPORT_PATH} with --analog,
                     {DATAPLANE_REPORT_PATH} with --dataplane,
                     {CATALOG_REPORT_PATH} with --catalog)
  --no-campaign      skip the one-chip campaign wall-time probe
  --analog           run the analog suite instead (batched solver vs scalar,
                     sensing_yield parity, characterize cache re-run)
  --dataplane        run the zero-copy data-plane suite instead (shm vs
                     pickle shard transport, peak RSS, cache mmap hits)
  --catalog          run the chip-catalog suite instead (population
                     campaign variants/sec, digest parity, warm cache)
  --workers N        shard workers for --dataplane (default: 4), or
                     campaign workers for --catalog (default: 2)
  --rss-ceiling-mb M with --dataplane: fail if the shm-plane peak RSS
                     exceeds M MiB (default: record only, no ceiling)
  --history PATH     append-mode perf history file (default:
                     {DEFAULT_HISTORY_PATH}, beside --out when that is
                     given); every run is recorded
  --no-history       skip the history append entirely
  --check-regression fail (exit 1) when a key timing exceeds the gate
                     threshold times the trailing same-environment
                     median for this probe
  --regression-threshold X
                     the --check-regression gate multiplier (default: 1.5)
"""


def _finish_history(
    data: dict,
    history: str | None,
    check: bool,
    threshold: float,
) -> int:
    """Record *data* in the history log, then gate on its regressions.

    The comparison runs *before* the append so a run never baselines
    itself; the append happens even when the gate fires, because the
    history must reflect what actually ran.
    """
    if history is None:
        return 0
    regressions = check_regression(data, history, threshold=threshold) if check else []
    record_run(data, history)
    if regressions:
        print(render_regressions(regressions), file=sys.stderr)
        return 1
    return 0


def _run_analog(
    scale: str, out: str | None,
    history: str | None, check: bool, threshold: float,
) -> int:
    try:
        data = run_analog_benchmarks(scale=scale)
    except ReproError as exc:
        print(f"analog perf run failed: {exc}", file=sys.stderr)
        return 1
    path = write_analog_report(data, out or ANALOG_REPORT_PATH)
    print(render_analog_report(data))
    print(f"\nreport written: {path}")
    failures = analog_gate_failures(data)
    if failures:
        print(f"ANALOG GATE FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    return _finish_history(data, history, check, threshold)


def _run_dataplane(
    scale: str, out: str | None, workers: int, rss_ceiling_mb: float | None,
    history: str | None, check: bool, threshold: float,
) -> int:
    try:
        data = measure_dataplane(scale=scale, shard_workers=workers)
    except ReproError as exc:
        print(f"dataplane perf run failed: {exc}", file=sys.stderr)
        return 1
    path = write_dataplane_report(data, out or DATAPLANE_REPORT_PATH)
    print(render_dataplane_report(data))
    print(f"\nreport written: {path}")
    failures = dataplane_gate_failures(data, rss_ceiling_mb=rss_ceiling_mb)
    if failures:
        print(f"DATAPLANE GATE FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    return _finish_history(data, history, check, threshold)


def _run_catalog(
    scale: str, out: str | None, workers: int | None,
    history: str | None, check: bool, threshold: float,
) -> int:
    try:
        data = measure_catalog(scale=scale, workers=workers)
    except ReproError as exc:
        print(f"catalog perf run failed: {exc}", file=sys.stderr)
        return 1
    path = write_catalog_report(data, out or CATALOG_REPORT_PATH)
    print(render_catalog_report(data))
    print(f"\nreport written: {path}")
    failures = catalog_gate_failures(data)
    if failures:
        print(f"CATALOG GATE FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    return _finish_history(data, history, check, threshold)


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    scale = "default"
    out: str | None = None
    include_campaign = True
    analog = False
    dataplane = False
    catalog = False
    workers: int | None = None
    rss_ceiling_mb: float | None = None
    history: str | None = DEFAULT_HISTORY_PATH
    history_given = False
    check = False
    threshold = 1.5
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--scale":
            i += 1
            if i >= len(args):
                print("--scale requires a value", file=sys.stderr)
                return 2
            scale = args[i]
        elif arg == "--out":
            i += 1
            if i >= len(args):
                print("--out requires a value", file=sys.stderr)
                return 2
            out = args[i]
        elif arg == "--workers":
            i += 1
            if i >= len(args):
                print("--workers requires a value", file=sys.stderr)
                return 2
            try:
                workers = int(args[i])
            except ValueError:
                print(f"--workers expects an integer, got {args[i]!r}", file=sys.stderr)
                return 2
        elif arg == "--rss-ceiling-mb":
            i += 1
            if i >= len(args):
                print("--rss-ceiling-mb requires a value", file=sys.stderr)
                return 2
            try:
                rss_ceiling_mb = float(args[i])
            except ValueError:
                print(
                    f"--rss-ceiling-mb expects a number, got {args[i]!r}",
                    file=sys.stderr,
                )
                return 2
        elif arg == "--history":
            i += 1
            if i >= len(args):
                print("--history requires a value", file=sys.stderr)
                return 2
            history = args[i]
            history_given = True
        elif arg == "--no-history":
            history = None
            history_given = True
        elif arg == "--check-regression":
            check = True
        elif arg == "--regression-threshold":
            i += 1
            if i >= len(args):
                print("--regression-threshold requires a value", file=sys.stderr)
                return 2
            try:
                threshold = float(args[i])
            except ValueError:
                print(
                    f"--regression-threshold expects a number, got {args[i]!r}",
                    file=sys.stderr,
                )
                return 2
        elif arg == "--no-campaign":
            include_campaign = False
        elif arg == "--analog":
            analog = True
        elif arg == "--dataplane":
            dataplane = True
        elif arg == "--catalog":
            catalog = True
        elif arg in ("--help", "-h"):
            print(_USAGE)
            return 0
        else:
            print(f"unknown option {arg!r}", file=sys.stderr)
            print(_USAGE, file=sys.stderr)
            return 2
        i += 1

    if out is not None and not history_given:
        history = os.path.join(os.path.dirname(out), DEFAULT_HISTORY_PATH)
    if analog + dataplane + catalog > 1:
        print(
            "--analog, --dataplane and --catalog are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if analog:
        return _run_analog(scale, out, history, check, threshold)
    if dataplane:
        return _run_dataplane(scale, out, workers if workers is not None else 4,
                              rss_ceiling_mb, history, check, threshold)
    if catalog:
        return _run_catalog(scale, out, workers, history, check, threshold)

    out = out or DEFAULT_REPORT_PATH
    try:
        report = run_benchmarks(scale=scale, include_campaign=include_campaign)
    except ReproError as exc:
        print(f"perf run failed: {exc}", file=sys.stderr)
        return 1
    path = write_report(report, out)
    print(render_report(report))
    print(f"\nreport written: {path}")
    mismatched = [k.name for k in report.kernels if k.outputs_match is False]
    if report.shard is not None and not report.shard["outputs_match"]:
        mismatched.append("shard[campaign]")
    if mismatched:
        print(f"OUTPUT MISMATCH in: {', '.join(mismatched)}", file=sys.stderr)
        return 1
    return _finish_history(report.as_dict(), history, check, threshold)


if __name__ == "__main__":
    raise SystemExit(main())
