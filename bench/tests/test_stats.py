import statistics

import pytest

from bench.stats import quartiles, spread, summary


def test_quartiles_are_the_exclusive_method_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)


def test_a_single_value_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5)
    assert spread([2.5]) == 0.0


def test_two_values_extrapolate_like_statistics_quantiles():
    assert quartiles([1.0, 2.0]) == (0.75, 2.25)


def test_summary_reports_median_quartiles_and_count():
    s = summary([4.0, 1.0, 2.0, 3.0])
    assert s["value"] == 2.5
    assert s["n"] == 4
    assert (s["q1"], s["q3"]) == quartiles([1.0, 2.0, 3.0, 4.0])


def test_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / 10.0)


def test_empty_sample_is_rejected():
    with pytest.raises(ValueError):
        quartiles([])
