"""The benchmark's workloads, each run in a fresh process of its own.

``python -m bench.workloads {inputs,measure,trace} --workload W --seed N
--seconds S [--record FILE]`` builds the workload's inputs from the seed
(``inputs`` prints their digest and stops, which is what ``setup_s``
times), runs the untraced measurement (``measure``) or the traced pass
(``trace``), checks every answer, and writes a raw JSON record for
``bench.run`` to turn into metrics.

Every workload is closed-loop: the next unit starts when the previous
public call returns.  Units come in *cycles* whose mix never changes (a
classic and an OCSA chip, a fixed set of catalog strata, ...), and a run
measures a whole number of cycles fixed by ``--seconds`` and the nominal
cycle length sized on a 2-CPU box, never by how fast the cycles go.  So
two commits run with the same ``--seconds`` measure identical work, and a
faster layer cannot change which units a median is taken over.  The
median over units, rather than a mean, keeps one unit caught by a burst
of load from other processes on the host from moving a run's number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pickle
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from bench.spans import SpanRecorder, chrome_trace, unit_rows
from bench.spec import ROOT

#: the two topology families every imaging cycle holds one chip of
TOPOLOGIES = ("classic", "ocsa")
#: catalog strata (topology, generation, vendor, body taps), one-word regions:
#: both topologies and generations, every vendor profile and both tap styles
CATALOG_STRATA = (
    ("classic", "ddr4", "fab-a", "none"),
    ("ocsa", "ddr4", "fab-b", "edge"),
    ("classic", "ddr5", "fab-c", "edge"),
    ("ocsa", "ddr5", "fab-a", "none"),
)
#: one characterization cycle: both topologies and both corners, one cell each
CELLS = (("classic", "SS"), ("ocsa", "TT"))
#: segmentation tolerance of rescore pass k is 0.5 - RESCORE_STEP * k, so
#: every pass keys a new reveng entry while layout…assemble hit
RESCORE_STEP = 0.001
#: largest rescore pass count (keeps the tolerance at or above 0.4)
MAX_RESCORE_PASSES = 100


def derive_seed(*parts) -> int:
    """A 48-bit seed from the workload seed and a unit's position."""
    digest = hashlib.sha256(json.dumps(parts).encode()).hexdigest()
    return int(digest[:12], 16)


def digest(obj) -> str:
    """SHA-256 of the canonical JSON of *obj* (floats by exact repr)."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def same_pickle(a, b) -> bool:
    """Whether *a* and *b* pickle to the same bytes.

    Each side goes through one pickle round trip first: a result that
    crossed a process pool has fresh copies where an in-process one shares
    objects, which changes the pickle's memo layout but not a value.
    """
    def canonical(obj) -> bytes:
        return pickle.dumps(pickle.loads(pickle.dumps(obj)))

    return canonical(a) == canonical(b)


def _check_same(tally: "Tally", traced, untraced, name: str) -> None:
    tally.check(
        "traced result pickles identical to the untraced public call's",
        untraced is not None and same_pickle(traced, untraced), name,
    )


class Tally:
    """Units attempted and failed, and each named check's outcome."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, dict] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        entry = self.checks.setdefault(name, {"ok": True, "count": 0, "detail": ""})
        entry["count"] += 1
        if not ok and entry["ok"]:
            entry.update(ok=False, detail=detail)
        return ok

    def unit(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def chip_answer(result, expected: str) -> dict:
    """What a reverse-engineered chip answers, for digests and accuracy."""
    errors: dict[str, float] = {}
    if result.validation is not None:
        for suffix, table in (("w", result.validation.width_error),
                              ("l", result.validation.length_error)):
            for cls, err in table.items():
                errors[f"{cls.value}.{suffix}"] = float(err)
    topology = result.topology.value if result.lanes_matched else None
    return {
        "topology": topology,
        "lanes_matched": result.lanes_matched,
        "exact": result.all_exact,
        "identified": topology == expected,
        "devices": len(result.extracted.devices),
        "wl_errors": dict(sorted(errors.items())),
    }


def check_identified(tally: Tally, name: str, answer: dict | None, expected: str) -> None:
    """Count one imaging chip as a unit and check its topology was recovered.

    VF2 exactness is not required here: at the fast preset an occasional
    OCSA chip is identified with a lane that is not VF2-exact, an accuracy
    outcome that ``exact_rate`` records and ``bench compare`` holds fixed.
    """
    if answer is None:
        detail = f"{name} did not complete"
    else:
        detail = (f"{name}: expected {expected}, got {answer['topology']} "
                  f"(exact={answer['exact']})")
    tally.unit(tally.check(
        "every chip's topology identified",
        answer is not None and answer["identified"], detail,
    ))


def check_chip(tally: Tally, name: str, expected: str, result) -> dict | None:
    """Check one imaging chip; returns its answer, or None when it failed."""
    answer = chip_answer(result, expected) if result is not None else None
    check_identified(tally, name, answer, expected)
    return answer


def accuracy(answers: list) -> dict:
    """RE accuracy of chip answers (None marks a chip that did not complete).

    ``ident_rate`` is the share of chips whose recovered topology is the
    generating one, ``exact_rate`` the share whose every matched lane is
    VF2-exact; the W/L errors pool every per-class relative error against
    the generator's ground truth.
    """
    errors = [e for a in answers if a for e in a["wl_errors"].values()]

    def share(key: str) -> float:
        return sum(1 for a in answers if a and a[key]) / len(answers) if answers else 0.0

    return {
        "ident_rate": share("identified"),
        "exact_rate": share("exact"),
        "wl_err_mean": statistics.fmean(errors) if errors else None,
        "wl_err_max": max(errors) if errors else None,
    }


def _timed(call, *args, **kwargs):
    t0 = time.perf_counter()
    out = call(*args, **kwargs)
    return out, time.perf_counter() - t0


class Workload:
    """One workload: its inputs, its untraced loop and its traced pass."""

    name = ""
    #: seconds one untraced / traced cycle takes on the sizing box
    cycle_s = 1.0
    trace_cycle_s = 1.0
    min_cycles = 1

    def cycles(self, seconds: float, traced: bool) -> int:
        if traced:
            return max(1, int(seconds // self.trace_cycle_s))
        return max(self.min_cycles, int(seconds // self.cycle_s))

    def inputs(self, seed: int, cycles: int) -> list:
        raise NotImplementedError

    def measure(self, inputs: list, seed: int, scratch: Path, tally: Tally) -> dict:
        raise NotImplementedError

    def trace(self, inputs: list, seed: int, scratch: Path, tally: Tally,
              rec: SpanRecorder) -> None:
        raise NotImplementedError


class ChipWorkload(Workload):
    """Chips through ``run_campaign``, one call per chip, no cache."""

    def __init__(self, name: str, preset: str, workers: int,
                 cycle_s: float, trace_cycle_s: float) -> None:
        self.name = name
        self.preset = preset
        self.workers = workers
        self.cycle_s = cycle_s
        self.trace_cycle_s = trace_cycle_s

    def config(self):
        from repro.catalog import catalog_pipeline_config
        from repro.pipeline.config import PipelineConfig, ShardPlan

        if self.preset == "fast":
            return catalog_pipeline_config()
        return PipelineConfig(shard=ShardPlan(slices=True))

    def inputs(self, seed: int, cycles: int) -> list:
        from repro.runtime.campaign import ChipJob

        out = []
        for j in range(cycles):
            cycle = []
            for i, topology in enumerate(TOPOLOGIES):
                job = ChipJob.synthetic(f"chip{j:02d}-{topology}", topology, n_pairs=1)
                index = j * len(TOPOLOGIES) + i
                acquisition = replace(job.campaign, seed=derive_seed(seed, index))
                cycle.append(replace(job, campaign=acquisition))
            out.append(cycle)
        return out

    def _run(self, job):
        from repro.runtime.campaign import run_campaign

        report, seconds = _timed(
            run_campaign, [job], config=self.config(), workers=self.workers
        )
        run = report.chips.get(job.name)
        return (run.result if run is not None else None), seconds

    def measure(self, inputs, seed, scratch, tally) -> dict:
        samples, answers = [], []
        for cycle in inputs:
            for job in cycle:
                result, dt = self._run(job)
                samples.append(dt)
                answers.append(check_chip(tally, job.name, job.spec.topology, result))
        return {"unit_s": samples, "answers": answers, "exact": accuracy(answers)}

    def trace(self, inputs, seed, scratch, tally, rec) -> None:
        from bench import layers

        config = self.config()
        if config.shard.slices:
            # run_campaign gives a lone chip every worker as a shard worker
            config = config.replaced(shard=replace(config.shard, workers=self.workers))
        layers.chip(SpanRecorder(), inputs[0][0], config)  # warm-up, not recorded
        for cycle in inputs:
            for job in cycle:
                reference, untraced_s = self._run(job)
                check_chip(tally, job.name, job.spec.topology, reference)
                with rec.span(job.name, "unit") as unit:
                    result = layers.chip(rec, job, config)
                unit.args["untraced_call_s"] = untraced_s
                _check_same(tally, result, reference, job.name)


def catalog_variants(seed: int) -> list:
    """One catalog variant per stratum, each with its own seeded acquisition.

    Every axis that sets a chip's size, and so its imaging cost, is fixed
    by the stratum; the seed draws only the acquisitions (drift walk and
    SEM noise).  A random draw over the axes would make the cost of a pass
    depend on the seed: volumes of the default grid's one-word variants
    differ by more than 10%.
    """
    from repro.catalog import ChipVariantSpec

    return [
        ChipVariantSpec(
            name=f"v{i}-{variant}-{vendor}-{generation}-w1-{taps}",
            variant=variant, vendor=vendor, generation=generation,
            word_size=1, body_tap=taps, seed=derive_seed(seed, i),
        )
        for i, (variant, generation, vendor, taps) in enumerate(CATALOG_STRATA)
    ]


def rescore_config(k: int):
    from repro.catalog import catalog_pipeline_config

    return catalog_pipeline_config().replaced(segment_tolerance=0.5 - RESCORE_STEP * k)


def check_catalog(tally: Tally, report, hits: int, misses: int) -> list:
    """Check a catalog pass (*hits*/*misses* per variant); returns its answers."""
    n = len(report.scores) + len(report.quarantined)
    tally.check(
        "cache hits and misses as expected",
        (report.cache_hits, report.cache_misses) == (hits * n, misses * n),
        f"{report.cache_hits} hits / {report.cache_misses} misses for {n} variants",
    )
    answers = []
    for score in report.scores:
        answer = {
            "topology": score.recovered_topology,
            "exact": score.exact,
            "identified": score.identified,
            "wl_errors": score.wl_errors,
        }
        check_identified(tally, score.name, answer, score.expected_topology)
        answers.append(answer)
    for name in report.quarantined:
        check_identified(tally, name, None, "")
        answers.append(None)
    return answers


def _pool_efficiency(report) -> float:
    chips = report.campaign.chips.values()
    return sum(run.seconds for run in chips) / (report.workers * report.wall_seconds)


class CatalogWorkload(Workload):
    """Cold catalog passes: chip-level pool of 2, each pass a fresh stage cache."""

    name = "catalog"
    cycle_s = 7.5
    trace_cycle_s = 12.0
    min_cycles = 2  # two cold passes, so their digests can be compared

    def inputs(self, seed, cycles):
        variants = catalog_variants(seed)
        return [variants for _ in range(cycles)]

    def measure(self, inputs, seed, scratch, tally) -> dict:
        from repro.catalog import run_catalog_campaign

        samples, answers, digests = [], [], []
        for variants in inputs:
            with tempfile.TemporaryDirectory(dir=scratch) as cache:
                report, dt = _timed(
                    run_catalog_campaign, variants, workers=2, cache_dir=cache, seed=seed
                )
            answers.extend(check_catalog(tally, report, 0, 7))
            samples.append(dt / len(variants))
            digests.append(report.results_digest())
        tally.check("cold passes agree on results_digest", len(set(digests)) == 1, str(digests))
        return {"unit_s": samples, "answers": digests[0], "exact": accuracy(answers)}

    def trace(self, inputs, seed, scratch, tally, rec) -> None:
        from repro.catalog import build_job, catalog_pipeline_config, run_catalog_campaign
        from repro.runtime.cache import StageCache

        from bench import layers

        config = catalog_pipeline_config()
        with tempfile.TemporaryDirectory(dir=scratch) as warm:  # warm-up, not recorded
            layers.chip(SpanRecorder(), build_job(inputs[0][0]), config, cache=StageCache(warm))
        for variants in inputs:
            pair = variants[:2]  # the ddr4 classic and OCSA strata
            with tempfile.TemporaryDirectory(dir=scratch) as cold, \
                    tempfile.TemporaryDirectory(dir=scratch) as traced:
                report = run_catalog_campaign(pair, workers=2, cache_dir=cold, seed=seed)
                check_catalog(tally, report, 0, 7)
                efficiency = _pool_efficiency(report)
                for spec in pair:
                    job = build_job(spec)
                    with rec.span(spec.name, "unit") as unit:
                        result = layers.chip(rec, job, config, cache=StageCache(traced))
                    unit.args["pool_eff"] = efficiency
                    _check_same(tally, result, report.campaign.chips[spec.name].result,
                                spec.name)


class RescoreWorkload(Workload):
    """Re-scoring a warm catalog cache: only reveng runs, everything else loads.

    The passes run in-process (``workers=1``): the catalog workload already
    covers the chip-level pool, and without pool start-up and result
    transfer a pass is the cache-read path and reveng alone.
    """

    name = "rescore"
    cycle_s = 0.5
    trace_cycle_s = 1.0
    min_cycles = 2

    def cycles(self, seconds, traced):
        return min(MAX_RESCORE_PASSES, super().cycles(seconds, traced))

    def inputs(self, seed, cycles):
        variants = catalog_variants(seed)
        return [(variants, k) for k in range(1, cycles + 1)]

    def measure(self, inputs, seed, scratch, tally) -> dict:
        from repro.catalog import run_catalog_campaign

        variants = inputs[0][0]
        samples, answers, digests = [], [], []
        with tempfile.TemporaryDirectory(dir=scratch) as cache:
            warm, warmup_s = _timed(
                run_catalog_campaign, variants, workers=2, cache_dir=cache, seed=seed
            )
            check_catalog(tally, warm, 0, 7)
            for _, k in inputs:
                report, dt = _timed(
                    run_catalog_campaign, variants, config=rescore_config(k),
                    workers=1, cache_dir=cache, seed=seed,
                )
                answers.extend(check_catalog(tally, report, 6, 1))
                samples.append(dt)
                digests.append(report.results_digest())
        return {
            "unit_s": samples,
            "answers": digests,
            "exact": accuracy(answers),
            "warmup_s": warmup_s,
        }

    def trace(self, inputs, seed, scratch, tally, rec) -> None:
        from repro.catalog import build_job, catalog_pipeline_config, run_catalog_campaign
        from repro.runtime.cache import StageCache

        from bench import layers

        pair = inputs[0][0][:2]
        with tempfile.TemporaryDirectory(dir=scratch) as cache:
            warm = run_catalog_campaign(pair, workers=2, cache_dir=cache, seed=seed)
            check_catalog(tally, warm, 0, 7)
            # warm-up, not recorded: the cold pass's own config, whose
            # reveng entry already exists, so no later pass is disturbed
            layers.rescore(SpanRecorder(), build_job(pair[0]), catalog_pipeline_config(),
                           StageCache(cache))
            for _, k in inputs:
                config = rescore_config(k)
                for spec in pair:
                    report, untraced_s = _timed(
                        run_catalog_campaign, [spec], config=config, workers=1,
                        cache_dir=cache, seed=seed,
                    )
                    check_catalog(tally, report, 6, 1)
                    job = build_job(spec)
                    with rec.span(f"{spec.name}@{k}", "unit") as unit:
                        result = layers.rescore(rec, job, config, StageCache(cache))
                    unit.args["untraced_call_s"] = untraced_s
                    _check_same(tally, result, report.campaign.chips[spec.name].result,
                                spec.name)


class CharacterizeWorkload(Workload):
    """Single-cell ``characterize`` calls: the analog layer alone."""

    name = "characterize"
    cycle_s = 16.0
    trace_cycle_s = 32.0

    def inputs(self, seed, cycles):
        from repro.analog.spec import CharacterizationSpec

        return [
            [
                CharacterizationSpec(
                    topologies=(topology,), corners=(corner,),
                    seed=derive_seed(seed, j, i),
                )
                for i, (topology, corner) in enumerate(CELLS)
            ]
            for j in range(cycles)
        ]

    def _run(self, tally: Tally, spec):
        from repro.analog.characterizer import characterize

        report, seconds = _timed(characterize, spec, workers=1)
        cell = next(iter(report.cells.values()), None)
        ok = tally.check(
            "every cell completes", cell is not None and not report.degraded,
            str(sorted(report.quarantined or {})),
        )
        tally.unit(ok)
        return cell, seconds

    def measure(self, inputs, seed, scratch, tally) -> dict:
        samples, answers = [], []
        for cycle in inputs:
            for spec in cycle:
                cell, dt = self._run(tally, spec)
                samples.append(dt)
                answers.append(cell.to_dict() if cell is not None else None)
        return {"unit_s": samples, "answers": answers, "exact": {}}

    def trace(self, inputs, seed, scratch, tally, rec) -> None:
        from bench import layers

        def same(a: float, b: float) -> bool:
            return a == b or (math.isnan(a) and math.isnan(b))

        first = inputs[0][0]
        layers.characterize_cell(  # warm-up, not recorded
            SpanRecorder(), first, first.topologies[0], first.corners[0]
        )
        for cycle in inputs:
            for spec in cycle:
                reference, untraced_s = self._run(tally, spec)
                topology, corner = spec.topologies[0], spec.corners[0]
                name = f"{topology.value}-{corner.name}"
                with rec.span(name, "unit") as unit:
                    latency, sense_yield = layers.characterize_cell(rec, spec, topology, corner)
                unit.args["untraced_call_s"] = untraced_s
                tally.check(
                    "traced cell reproduces MC failures and nominal latency",
                    reference is not None
                    and sense_yield.failures == reference.sense_yield.failures
                    and same(latency, reference.sensing_latency_ns),
                    name,
                )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        ChipWorkload("chip-fast", "fast", workers=1, cycle_s=4.6, trace_cycle_s=9.5),
        ChipWorkload("chip-default", "default", workers=2, cycle_s=17.0, trace_cycle_s=34.0),
        CatalogWorkload(),
        RescoreWorkload(),
        CharacterizeWorkload(),
    )
}


def inputs_digest(inputs: list) -> str:
    from repro.runtime.hashing import stable_hash

    return stable_hash(inputs)


def peak_rss_mib() -> float:
    """This process's peak RSS plus the largest reaped child's, in MiB."""
    from repro.runtime.shard import shutdown_shard_pools

    shutdown_shard_pools()  # reap shard workers so RUSAGE_CHILDREN sees them
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run(mode: str, name: str, seed: int, seconds: float, scratch: Path) -> dict:
    """Run one workload in this process and return its raw record."""
    import numpy
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"repro was imported from {source}, not from this checkout's src/")
    workload = WORKLOADS[name]
    traced = mode == "trace"
    inputs = workload.inputs(seed, workload.cycles(seconds, traced))
    record = {
        "workload": name,
        "seed": seed,
        "cycles": len(inputs),
        "inputs_digest": inputs_digest(inputs),
        "numpy": numpy.__version__,
    }
    tally = Tally()
    if traced:
        rec = SpanRecorder()
        with rec.span(name, "workload", seed=seed):
            workload.trace(inputs, seed, scratch, tally, rec)
        record["rows"] = unit_rows(rec.spans)
        record["chrome_trace"] = chrome_trace(rec.spans)
    else:
        measured = workload.measure(inputs, seed, scratch, tally)
        record["peak_rss_mb"] = peak_rss_mib()
        record["samples"] = {"unit_s": measured.pop("unit_s")}
        record["results_digest"] = digest(measured.pop("answers"))
        record["exact"] = {
            **measured.pop("exact"),
            "failed_frac": tally.failed / tally.attempted if tally.attempted else 1.0,
        }
        record["extra"] = measured
    record.update(attempted=tally.attempted, failed=tally.failed, checks=tally.checks)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.workloads")
    parser.add_argument("mode", choices=("inputs", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scratch", type=Path)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "inputs":
        workload = WORKLOADS[args.workload]
        inputs = workload.inputs(args.seed, workload.cycles(args.seconds, traced=False))
        print(f"inputs {inputs_digest(inputs)}", flush=True)
        return 0
    args.scratch.mkdir(parents=True, exist_ok=True)
    record = run(args.mode, args.workload, args.seed, args.seconds, args.scratch)
    args.record.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
