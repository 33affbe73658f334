"""``BENCHMARK.json``: loading, validation, and the layer -> end-to-end map.

``BENCHMARK.json`` at the repository root names the workloads, the
end-to-end metrics with their regression bounds, and the per-layer
metrics.  What it cannot hold lives in :data:`LAYERS`: for each per-layer
metric, the module it describes, the end-to-end metric a change to that
layer should move and on which workloads, and the workloads that bypass
the layer.  A bypassed layer never runs there, so its metric reads 0 and
the prediction for that workload is "no change"; the traced run checks
both halves of that claim (see ``bench.workloads``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")

_IMAGING = ("chip-fast", "chip-default", "catalog", "rescore")
_ALL = _IMAGING + ("characterize",)


@dataclass(frozen=True)
class LayerMetric:
    """Where one per-layer metric comes from and what it should move."""

    layer: str  #: repository module (under ``repro``) the number describes
    source: str  #: public call timed, or how the number is derived
    moves: str  #: end-to-end metric a change to this layer should move
    on: tuple[str, ...]  #: workloads where it should move it
    bypassed: tuple[str, ...] = ()  #: workloads where the layer never runs
    span: str | None = None  #: layer span summed into this metric, if timed


def _layer(layer, source, on, bypassed=(), span=None, moves="unit_s") -> LayerMetric:
    return LayerMetric(layer, source, moves, tuple(on), tuple(bypassed), span)


_NO_IMAGING = ("characterize",)
_NO_ACQUISITION = ("rescore", "characterize")
_NO_CACHE = ("chip-fast", "chip-default", "characterize")

LAYERS: dict[str, LayerMetric] = {
    "layout.s": _layer("layout.generator", "generate_sa_region",
                       ["chip-fast"], _NO_ACQUISITION, "layout"),
    "voxel.s": _layer("imaging.voxel", "voxelize", ["chip-fast"], _NO_ACQUISITION, "voxel"),
    "fib.s": _layer("imaging.fib", "acquire_stack(shard=<workload plan>)",
                    ["chip-fast", "chip-default"], _NO_ACQUISITION, "fib"),
    "fib.ns_per_px": _layer("imaging.fib", "fib.s / acquired pixels",
                            ["chip-fast", "chip-default"], _NO_ACQUISITION),
    "denoise.s": _layer("pipeline.denoise", "denoise_stack(shard=, **denoise_kwargs())",
                        ["chip-fast", "chip-default", "catalog"], _NO_ACQUISITION, "denoise"),
    "denoise.ns_per_px": _layer("pipeline.denoise", "denoise.s / denoised pixels",
                                ["chip-fast", "chip-default", "catalog"], _NO_ACQUISITION),
    "register.s": _layer("pipeline.register", "align_stack(**align_kwargs())",
                         ["chip-default", "chip-fast", "catalog"], _NO_ACQUISITION, "register"),
    "register.ns_per_candidate": _layer(
        "pipeline.register", "register.s / sum_b (slices-b)(2 search_px+1)^2",
        ["chip-default", "chip-fast", "catalog"], _NO_ACQUISITION),
    "stack.s": _layer("pipeline.stack", "assemble_volume + planar_views",
                      ["chip-fast"], _NO_ACQUISITION, "stack"),
    "features.s": _layer("reveng.features", "PlanarFeatures.from_views",
                         ["rescore"], _NO_IMAGING, "features"),
    "connectivity.s": _layer("reveng.connectivity", "extract_circuit",
                             ["rescore"], _NO_IMAGING, "connectivity"),
    "workflow.s": _layer("reveng.workflow", "finish_extraction",
                         ["rescore"], _NO_IMAGING, "workflow"),
    "cache.store_s": _layer("runtime.cache", "StageCache.store of each stage output",
                            ["catalog"], _NO_CACHE, "cache.store"),
    "cache.load_s": _layer("runtime.cache", "StageCache.load + full read of every array",
                           ["rescore"], _NO_CACHE + ("catalog",), "cache.load"),
    "cache.mb_per_chip": _layer("runtime.cache", "bytes stored per chip",
                                ["catalog"], _NO_CACHE),
    "campaign.pool_eff": _layer(
        "runtime.campaign", "sum of chip seconds / (workers x campaign wall)",
        ["catalog"], _NO_CACHE + ("rescore",)),
    "engine.overhead_s": _layer(
        "runtime.engine", "untraced public call - traced wall, same unit",
        ["chip-fast", "rescore"], ("catalog",)),
    "sense_amp.nominal_s": _layer(
        "analog.sense_amp", "SenseAmpBench.run_batch: nominal + both offset ladders",
        ["characterize"], _IMAGING, "sense_amp.nominal"),
    "sense_amp.mc_s": _layer("analog.montecarlo", "sensing_yield(topology, spec=)",
                             ["characterize"], _IMAGING, "sense_amp.mc"),
    "solver.ns_per_inst_step": _layer(
        "analog.solver", "(nominal_s + mc_s) / sum(batch x timesteps)",
        ["characterize"], _IMAGING),
    "trace.wall_s": _layer("-", "traced wall time per unit", _ALL),
    "trace.untraced_s": _layer("-", "trace.wall_s - sum of layer times", _ALL),
}


def load(path: Path = BENCHMARK_JSON) -> dict:
    """Read and validate ``BENCHMARK.json``; raises ``ValueError`` on any breach."""
    raw = path.read_bytes()
    if len(raw) > 64 * 1024:
        raise ValueError("BENCHMARK.json is larger than 64 KiB")
    spec = json.loads(raw)
    problems = validate(spec)
    if problems:
        raise ValueError("BENCHMARK.json: " + "; ".join(problems))
    return spec


def _check_keys(entry, keys: set[str], where: str, problems: list[str]) -> bool:
    if not isinstance(entry, dict) or set(entry) != keys:
        problems.append(f"{where} needs exactly the keys {sorted(keys)}")
        return False
    return True


def _check_path(text, where: str, problems: list[str]) -> None:
    if not isinstance(text, str) or not PATH.fullmatch(text):
        problems.append(f"{where} {text!r} is not a relative path of allowed characters")
    elif text.startswith("/") or ".." in text.split("/"):
        problems.append(f"{where} {text!r} leaves the repository")


def validate(spec) -> list[str]:
    """Every breach of the benchmark file's rules, as readable strings."""
    problems: list[str] = []
    top = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if not _check_keys(spec, top, "BENCHMARK.json", problems):
        return problems

    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        problems.append("paths must list 1 to 16 directories")
    else:
        for p in paths:
            _check_path(p, "path", problems)

    command = spec["command"]
    if not isinstance(command, list) or not 1 <= len(command) <= 32:
        problems.append("command must be a list of 1 to 32 strings")
    else:
        for arg in command:
            if not isinstance(arg, str) or len(arg) > 200:
                problems.append(f"command argument {arg!r} is not a string of <= 200 characters")
            elif arg.startswith("/") or ".." in arg.split("/"):
                problems.append(f"command argument {arg!r} leaves the repository")

    seconds = spec["run_seconds"]
    if type(seconds) is not int or not 1 <= seconds <= 60:
        problems.append("run_seconds must be a whole number from 1 to 60")

    names: list[str] = []
    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        problems.append("there must be 2 to 8 workloads")
        workloads = []
    for w in workloads:
        if _check_keys(w, {"name", "why"}, "workload", problems):
            names.append(w["name"])
            why = w["why"]
            if not isinstance(why, str) or not why or "\n" in why or len(why) > 200:
                problems.append(f"workload {w['name']!r} needs a one-line why of <= 200 characters")

    e2e = spec["end_to_end"]
    if not isinstance(e2e, list) or not 1 <= len(e2e) <= 16:
        problems.append("there must be 1 to 16 end-to-end metrics")
        e2e = []
    for m in e2e:
        if not _check_keys(m, {"name", "unit", "better", "bound"}, "end-to-end metric", problems):
            continue
        names.append(m["name"])
        bound = m["bound"]
        if isinstance(bound, bool) or not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
            problems.append(f"metric {m['name']!r} needs a bound in (0, 0.25]")

    layers = spec["per_layer"]
    if not isinstance(layers, list) or not 1 <= len(layers) <= 128:
        problems.append("there must be 1 to 128 per-layer metrics")
        layers = []
    for m in layers:
        if _check_keys(m, {"name", "unit", "better"}, "per-layer metric", problems):
            names.append(m["name"])

    for m in [*e2e, *layers]:
        if not isinstance(m, dict) or set(m) < {"unit", "better"}:
            continue
        if not isinstance(m["unit"], str) or not UNIT.fullmatch(m["unit"]):
            problems.append(f"metric {m.get('name')!r} has a malformed unit {m['unit']!r}")
        if m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m.get('name')!r} needs better = lower or higher")
    for name in names:
        if not isinstance(name, str) or not NAME.fullmatch(name):
            problems.append(f"name {name!r} does not match {NAME.pattern}")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"names used more than once: {duplicates}")

    e2e_by_name = {m["name"]: m for m in e2e if isinstance(m, dict) and "name" in m}
    setup = e2e_by_name.get("setup_s")
    if setup is None or setup.get("unit") != "s" or setup.get("better") != "lower":
        problems.append("setup_s (unit s, better lower) must be an end-to-end metric")
    elif any(m.get("bound", 0) > setup.get("bound", 0) for m in e2e_by_name.values()):
        problems.append("setup_s must have the largest bound")

    problems.extend(_check_layer_map(
        [w["name"] for w in workloads if isinstance(w, dict) and "name" in w],
        set(e2e_by_name),
        [m["name"] for m in layers if isinstance(m, dict) and "name" in m],
    ))
    return problems


def _check_layer_map(workloads: list[str], e2e: set[str], layer_names: list[str]) -> list[str]:
    problems = []
    if set(layer_names) != set(LAYERS):
        problems.append(
            "per-layer metrics and bench.spec.LAYERS disagree: "
            f"{sorted(set(layer_names) ^ set(LAYERS))}"
        )
    for name, entry in LAYERS.items():
        if entry.moves not in e2e:
            problems.append(f"layer metric {name!r} moves unknown metric {entry.moves!r}")
        named = set(entry.on) | set(entry.bypassed)
        if not entry.on or not named <= set(workloads):
            problems.append(f"layer metric {name!r} names unknown workloads")
        if set(entry.on) & set(entry.bypassed):
            problems.append(f"layer metric {name!r} is both moved and bypassed on a workload")
    return problems
