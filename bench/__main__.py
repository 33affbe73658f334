"""Command line: ``python -m bench run`` and ``python -m bench compare``.

Run from the repository root (the directory holding ``BENCHMARK.json``
and ``src/``)::

    python -m bench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
    python -m bench compare PARENT_DIR CHANGE_DIR

``run`` measures every workload of ``BENCHMARK.json`` (or one), untraced
by default; ``--trace`` runs the traced pass instead, which reports the
per-layer metrics and writes a Chrome trace per workload.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads and check their answers")
    run.add_argument("--workload", help="one workload (default: all of BENCHMARK.json)")
    run.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    run.add_argument("--seconds", type=int,
                     help="measurement length (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="1 (or the bare flag) runs the traced pass")
    run.add_argument("--out", type=Path, help="record directory (default: .bench_out)")

    compare = commands.add_parser("compare", help="verdicts between two sets of runs")
    compare.add_argument("parent", type=Path)
    compare.add_argument("change", type=Path)

    args = parser.parse_args(argv)
    if args.command == "run":
        from bench import run as command
    else:
        from bench import compare as command
    return command.main(args)


if __name__ == "__main__":
    sys.exit(main())
