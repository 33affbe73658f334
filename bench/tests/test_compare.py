import json

from bench.compare import compare, verdict
from bench.run import RECORD_KIND
from bench.spec import load


def _pairs(parent, change):
    return list(zip(parent, change))


def test_same_numbers_are_unchanged():
    runs = [10.0, 10.1, 9.9, 10.0]
    assert verdict(runs, runs, _pairs(runs, runs), 0.1, "lower").verdict == "unchanged"


def test_median_worse_than_the_bound_is_worse():
    parent = [10.0, 10.1, 9.9]
    change = [11.5, 11.6, 11.4]
    assert verdict(parent, change, _pairs(parent, change), 0.1, "lower").verdict == "worse"


def test_direction_higher_is_better():
    parent = [1.0, 1.01, 0.99]
    change = [0.8, 0.81, 0.79]
    assert verdict(parent, change, _pairs(parent, change), 0.1, "higher").verdict == "worse"
    assert verdict(change, parent, _pairs(change, parent), 0.1, "higher").verdict == "unchanged"


def test_gain_needs_ten_pairs_nine_won_and_a_gap_beyond_the_parent_iqr():
    parent = [10.0 + 0.01 * i for i in range(10)]
    change = [9.0 + 0.01 * i for i in range(10)]
    assert verdict(parent, change, _pairs(parent, change), 0.1, "lower").verdict == "improved"
    # nine pairs are too few to claim a gain
    assert verdict(parent[:9], change[:9], _pairs(parent[:9], change[:9]), 0.1,
                   "lower").verdict == "unchanged"
    # eight wins of ten are too few
    lost = change[:8] + [10.5, 10.6]
    assert verdict(parent, lost, _pairs(parent, lost), 0.1, "lower").verdict == "unchanged"


def test_gap_within_the_parent_iqr_is_no_gain():
    parent = [9.0, 11.0] * 5
    change = [p - 0.05 for p in parent]
    assert verdict(parent, change, _pairs(parent, change), 0.25, "lower").verdict == "unchanged"


def test_spread_beyond_the_bound_is_unresolved():
    parent = [8.0, 10.0, 12.0, 9.0, 11.0]
    change = [8.5, 10.5, 12.5, 9.5, 11.5]
    assert verdict(parent, change, _pairs(parent, change), 0.1, "lower").verdict == "unresolved"


def test_noisy_but_every_change_run_better_is_resolved():
    parent = [20.0, 24.0, 28.0]
    change = [10.0, 12.0, 14.0]
    v = verdict(parent, change, _pairs(parent, change), 0.1, "lower")
    assert v.verdict != "unresolved"


def test_single_runs_rest_on_the_bound_alone():
    assert verdict([10.0], [10.5], [(10.0, 10.5)], 0.1, "lower").verdict == "unchanged"
    assert verdict([10.0], [11.5], [(10.0, 11.5)], 0.1, "lower").verdict == "worse"


def _record(workload, seed, value, digest="d0", ident=1.0):
    spec = load()
    return {
        "kind": RECORD_KIND,
        "workload": workload,
        "seed": seed,
        "trace": False,
        "metrics": {m["name"]: {"value": value, "q1": value, "q3": value, "n": 1}
                    for m in spec["end_to_end"]},
        "exact": {"ident_rate": ident, "failed_frac": 0.0},
        "results_digest": digest,
    }


def _write(directory, records):
    directory.mkdir()
    for i, record in enumerate(records):
        (directory / f"{record['workload']}-{i}.json").write_text(json.dumps(record))


def test_compare_reports_identical_answers_and_unchanged_metrics(tmp_path):
    _write(tmp_path / "a", [_record("chip-fast", 0, 2.0)])
    _write(tmp_path / "b", [_record("chip-fast", 0, 2.02)])
    lines, ok = compare(tmp_path / "a", tmp_path / "b")
    assert ok
    text = "\n".join(lines)
    assert "chip-fast     unit_s       unchanged" in text
    assert "identical" in text


def test_compare_flags_exact_metrics_that_differ(tmp_path):
    _write(tmp_path / "a", [_record("chip-fast", 0, 2.0)])
    _write(tmp_path / "b", [_record("chip-fast", 0, 2.0, ident=0.5)])
    lines, ok = compare(tmp_path / "a", tmp_path / "b")
    assert not ok
    assert any("differs" in line for line in lines)


def test_compare_flags_a_changed_digest_and_a_worse_metric(tmp_path):
    _write(tmp_path / "a", [_record("rescore", 1, 0.5)])
    _write(tmp_path / "b", [_record("rescore", 1, 0.7, digest="d1")])
    lines, ok = compare(tmp_path / "a", tmp_path / "b")
    assert not ok
    text = "\n".join(lines)
    assert "rescore       unit_s       worse" in text
    assert "differs" in text
