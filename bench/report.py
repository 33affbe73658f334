"""Metrics from raw workload records, and the one-line result object.

The workload process (``bench.workloads``) reports samples, unit rows and
checks; this module turns them into the named metrics of
``BENCHMARK.json``: end-to-end metrics for an untraced run, per-layer
metrics for a traced one.  It imports nothing from the program, so the
tests exercise it without running a workload.
"""

from __future__ import annotations

from bench.spec import LAYERS
from bench.stats import summary

#: a unit whose untraced time exceeds this share of its wall time means
#: the traced driver missed a layer
MAX_UNTRACED_SHARE = 0.05


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def unit_values(row: dict) -> dict[str, float]:
    """Every per-layer metric of one traced unit (0 where a layer did not run)."""
    layers, counts, args = row["layers"], row["counts"], row["args"]
    values = {
        name: layers.get(entry.span, 0.0)
        for name, entry in LAYERS.items() if entry.span is not None
    }
    analog_s = layers.get("sense_amp.nominal", 0.0) + layers.get("sense_amp.mc", 0.0)
    values.update({
        "fib.ns_per_px": 1e9 * _ratio(layers.get("fib", 0.0), counts.get("fib_px", 0.0)),
        "denoise.ns_per_px": 1e9 * _ratio(
            layers.get("denoise", 0.0), counts.get("denoise_px", 0.0)),
        "register.ns_per_candidate": 1e9 * _ratio(
            layers.get("register", 0.0), counts.get("candidates", 0.0)),
        "cache.mb_per_chip": counts.get("store_bytes", 0.0) / 2**20,
        "campaign.pool_eff": args.get("pool_eff", 0.0),
        "engine.overhead_s": (
            args["untraced_call_s"] - row["wall_s"] if "untraced_call_s" in args else 0.0
        ),
        "solver.ns_per_inst_step": 1e9 * _ratio(analog_s, counts.get("inst_steps", 0.0)),
        "trace.wall_s": row["wall_s"],
        "trace.untraced_s": row["untraced_s"],
    })
    return values


def layer_metrics(rows: list[dict]) -> dict[str, dict]:
    """Median (with quartiles and n) over units of every per-layer metric."""
    per_unit = [unit_values(row) for row in rows]
    return {name: summary([v[name] for v in per_unit]) for name in LAYERS}


def trace_checks(rows: list[dict], workload: str) -> dict[str, dict]:
    """Checks on the traced run itself, in the same shape as program checks.

    * every unit's layer times plus ``untraced_s`` are its wall time, with
      ``untraced_s`` at most :data:`MAX_UNTRACED_SHARE` of it;
    * a layer runs on exactly the workloads ``bench.spec.LAYERS`` does not
      list as bypassing it.
    """
    checks = {}
    worst = max(rows, key=lambda r: _ratio(r["untraced_s"], r["wall_s"]))
    share = _ratio(worst["untraced_s"], worst["wall_s"])
    checks["untraced time within 5% of each unit's wall"] = {
        "ok": share <= MAX_UNTRACED_SHARE and all(
            abs(sum(r["layers"].values()) + r["untraced_s"] - r["wall_s"])
            <= 1e-6 * max(1.0, r["wall_s"])
            for r in rows
        ),
        "count": len(rows),
        "detail": f"{worst['unit']}: {share:.1%} untraced",
    }
    ran = {name for r in rows for name in r["layers"]}
    wrong = sorted(
        name for name, entry in LAYERS.items() if entry.span is not None
        and (entry.span in ran) == (workload in entry.bypassed)
    )
    checks["layers run exactly where not bypassed"] = {
        "ok": not wrong, "count": len(LAYERS), "detail": ", ".join(wrong),
    }
    return checks


def result_line(record: dict, units: dict[str, str]) -> dict:
    """The benchmark's one-line result: correctness, counts and metrics."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": units[name]}
            for name, m in record["metrics"].items()
        },
    }
