import copy
import json

import pytest

from bench.report import layer_metrics, trace_checks, unit_values
from bench.spec import BENCHMARK_JSON, LAYERS, load, validate
from bench.workloads import WORKLOADS


@pytest.fixture
def spec():
    return json.loads(BENCHMARK_JSON.read_text())


def _problems(spec, mutate):
    broken = copy.deepcopy(spec)
    mutate(broken)
    return validate(broken)


def test_benchmark_json_is_valid():
    load()


def test_benchmark_json_names_the_implemented_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", ["-leading", "has space", "x" * 65, "a/b", ""])
def test_malformed_names_are_rejected(spec, name):
    assert _problems(spec, lambda s: s["per_layer"][0].update(name=name))


def test_names_are_used_once(spec):
    assert _problems(spec, lambda s: s["per_layer"][1].update(name=s["per_layer"][0]["name"]))


def test_workload_count_is_two_to_eight(spec):
    assert _problems(spec, lambda s: s.update(workloads=s["workloads"][:1]))
    extra = [{"name": f"w{i}", "why": "x"} for i in range(4)]
    assert _problems(spec, lambda s: s["workloads"].extend(extra))


def test_metric_counts_are_bounded(spec):
    more_e2e = [{"name": f"m{i}", "unit": "s", "better": "lower", "bound": 0.1}
                for i in range(14)]
    assert _problems(spec, lambda s: s["end_to_end"].extend(more_e2e))
    more_layers = [{"name": f"l{i}", "unit": "s", "better": "lower"} for i in range(107)]
    assert _problems(spec, lambda s: s["per_layer"].extend(more_layers))


def test_every_end_to_end_metric_needs_a_bound_and_a_direction(spec):
    assert _problems(spec, lambda s: s["end_to_end"][1].pop("bound"))
    assert _problems(spec, lambda s: s["end_to_end"][1].update(bound=0.3))
    assert _problems(spec, lambda s: s["end_to_end"][1].update(better="faster"))


def test_setup_s_has_the_largest_bound(spec):
    assert _problems(spec, lambda s: s["end_to_end"][1].update(bound=0.25 + 1e-9))
    assert _problems(spec, lambda s: s["end_to_end"].pop(0))


def test_command_and_paths_stay_in_the_repository(spec):
    assert _problems(spec, lambda s: s["paths"].append("../elsewhere"))
    assert _problems(spec, lambda s: s["command"].append("/usr/bin/x"))


def test_every_layer_metric_names_an_end_to_end_metric_and_workloads(spec):
    names = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert set(LAYERS) == {m["name"] for m in spec["per_layer"]}
    for entry in LAYERS.values():
        assert entry.moves in names
        assert entry.on and set(entry.on) <= workloads
        assert set(entry.bypassed) <= workloads
        assert not set(entry.on) & set(entry.bypassed)


def test_a_layer_metric_missing_from_the_file_is_caught(spec):
    assert _problems(spec, lambda s: s["per_layer"].pop())


def _row(layers, counts=None, args=None, wall=10.0):
    return {"unit": "u", "wall_s": wall, "layers": layers, "counts": counts or {},
            "args": args or {}, "untraced_s": wall - sum(layers.values())}


def test_unit_values_cover_every_layer_metric_and_zero_bypassed_layers():
    row = _row({"sense_amp.nominal": 6.0, "sense_amp.mc": 3.95},
               counts={"inst_steps": 1e9}, args={"untraced_call_s": 10.5})
    values = unit_values(row)
    assert set(values) == set(LAYERS)
    assert values["fib.s"] == 0.0 and values["fib.ns_per_px"] == 0.0
    assert values["solver.ns_per_inst_step"] == pytest.approx(9.95)
    assert values["engine.overhead_s"] == pytest.approx(0.5)
    assert values["trace.untraced_s"] == pytest.approx(0.05)


def test_layer_metrics_are_medians_over_units():
    rows = [_row({"register": s}) for s in (1.0, 2.0, 4.0)]
    assert layer_metrics(rows)["register.s"]["value"] == 2.0
    assert layer_metrics(rows)["register.s"]["n"] == 3


def test_a_layer_running_where_it_is_bypassed_fails_the_trace_check():
    analog = _row({"sense_amp.nominal": 6.0, "sense_amp.mc": 4.0})
    assert trace_checks([analog], "characterize")["layers run exactly where not bypassed"]["ok"]
    stray = _row({"sense_amp.nominal": 6.0, "sense_amp.mc": 3.9, "fib": 0.1})
    check = trace_checks([stray], "characterize")["layers run exactly where not bypassed"]
    assert not check["ok"] and "fib.s" in check["detail"]
