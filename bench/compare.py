"""``bench compare PARENT_DIR CHANGE_DIR``: verdicts between two sets of runs.

Each directory holds untraced records written by ``bench run`` (any
depth; one file per workload and run).  For every (workload, end-to-end
metric) the run values of each side are the samples: their median,
quartiles and count are printed, and the verdict follows the benchmark's
rules with the bounds of ``BENCHMARK.json``:

* **worse** -- the change's median is worse than the parent's by more
  than the bound;
* **unresolved** -- either side's run-to-run spread (inter-quartile
  distance over median) exceeds the bound, unless every change run beats
  every parent run;
* **improved** -- at least ten pairs (runs of one seed on both sides),
  the change wins at least nine tenths of them (ties count for neither),
  and the medians differ by more than the parent's inter-quartile
  distance;
* **unchanged** -- otherwise.

A side with a single run has no run-to-run spread; its verdict then
rests on the bound alone and the spread column reads ``n/a``.

The accuracy numbers (``exact``) and ``results_digest`` of runs with the
same seed must match exactly: **identical** or **differs**.  The exit
status is 1 when any pair is worse or differs.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

from bench.run import RECORD_KIND
from bench.spec import load
from bench.stats import quartiles, spread

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


@dataclass(frozen=True)
class Verdict:
    verdict: str
    wins: int
    pairs: int


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, better: str) -> Verdict:
    """The verdict on one metric; *pairs* are (parent, change) runs of one seed."""
    sign = 1.0 if better == "lower" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    gain = (p_med - c_med) * sign
    wins = sum(1 for p, c in pairs if (p - c) * sign > 0)
    beats_all = all((p - c) * sign > 0 for p in parent for c in change)
    noisy = any(len(side) > 1 and spread(side) > bound for side in (parent, change))
    if noisy and not beats_all:
        return Verdict("unresolved", wins, len(pairs))
    if -gain > bound * abs(p_med):
        return Verdict("worse", wins, len(pairs))
    q1, q3 = quartiles(parent)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= WIN_SHARE_FOR_GAIN * len(pairs)
            and gain > q3 - q1):
        return Verdict("improved", wins, len(pairs))
    return Verdict("unchanged", wins, len(pairs))


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced records under *directory*, by workload, in (seed, path) order."""
    runs: dict[str, list[tuple[int, str, dict]]] = {}
    for path in sorted(directory.rglob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(record, dict) and record.get("kind") == RECORD_KIND \
                and not record.get("trace"):
            runs.setdefault(record["workload"], []).append((record["seed"], str(path), record))
    return {w: [r for _, _, r in sorted(rs, key=lambda t: t[:2])] for w, rs in runs.items()}


def _paired(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Runs of the same seed, matched in order."""
    by_seed: dict[int, list[dict]] = {}
    for record in change:
        by_seed.setdefault(record["seed"], []).append(record)
    pairs = []
    for record in parent:
        partners = by_seed.get(record["seed"])
        if partners:
            pairs.append((record, partners.pop(0)))
    return pairs


def _side(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    shown = f"{spread(values):6.1%}" if len(values) > 1 else "   n/a"
    return (f"n {len(values):>2}  med {statistics.median(values):>11.6g}  "
            f"q1 {q1:>11.6g}  q3 {q3:>11.6g}  spread {shown}")


def compare(parent_dir: Path, change_dir: Path) -> tuple[list[str], bool]:
    """Report lines, and whether nothing got worse and every answer matched."""
    spec = load()
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    lines, ok = [], True
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            lines.append(f"{workload:<13} no runs to compare on one side or both")
            continue
        pairs = _paired(parent[workload], change[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            pv = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in pairs]
            v = verdict(p, c, pv, metric["bound"], metric["better"])
            ok = ok and v.verdict != "worse"
            lines.append(f"{workload:<13} {name:<12} {v.verdict:<10} "
                         f"won {v.wins}/{v.pairs}  bound {metric['bound']:.0%}")
            lines.append(f"    parent  {_side(p)}")
            lines.append(f"    change  {_side(c)}")
        same = all(
            a["exact"] == b["exact"] and a["results_digest"] == b["results_digest"]
            for a, b in pairs
        )
        ok = ok and same
        lines.append(f"{workload:<13} {'exact':<12} {'identical' if same else 'differs':<10} "
                     f"over {len(pairs)} same-seed pairs")
    return lines, ok


def main(args) -> int:
    lines, ok = compare(args.parent, args.change)
    print("\n".join(lines))
    return 0 if ok else 1
