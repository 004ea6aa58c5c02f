import csv
import io
import math
import random
from fractions import Fraction

import pytest

from roenum.record import EmissionRecord
from roenum.stats import (InsufficientRuns, _chi2_sf, chi_square_counts,
                          delay_profile, emissions_csv, first_emission_test,
                          frac_str, position_frequency_test, profile_csv,
                          uniformity_test)

F = Fraction


def record(word, tick, attempts=1, low=F(0), width=F(1, 4)):
    return EmissionRecord(word, low, low + width, width, attempts, tick)


def emissions(words):
    return [record(w, tick=i + 1) for i, w in enumerate(words)]


def test_frac_str():
    assert frac_str(F(3, 8)) == "3/8"
    assert frac_str(None) == ""
    assert frac_str(2) == "2/1"


def test_chi_square_uniform_counts_high_p():
    stat, p = chi_square_counts({"a": 100, "b": 100, "c": 100}, 100)
    assert stat == 0.0
    assert p == 1.0


def test_chi_square_skewed_counts_low_p():
    _, p = chi_square_counts({"a": 300, "b": 0, "c": 0}, 100)
    assert p < 1e-6


@pytest.mark.parametrize("x, df", [(10.828, 1), (13.816, 2), (24.322, 7),
                                   (49.728, 23), (149.449, 100)])
def test_chi2_tail_at_tabulated_critical_values(x, df):
    # the tabulated 10^-3 upper points, given to three decimals
    assert _chi2_sf(x, df) == pytest.approx(1e-3, rel=1e-3)


def test_chi2_tail_low_df_closed_forms():
    for x in (1e-9, 0.3, 1.0, 7.5, 40.0, 700.0):
        assert _chi2_sf(x, 2) == math.exp(-x / 2)
        assert _chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))


def test_chi2_tail_at_zero_and_monotone():
    for df in (1, 2, 3, 50, 1001):
        assert _chi2_sf(0, df) == 1.0
    tail = [_chi2_sf(x, 1000) for x in range(800, 1300, 10)]
    assert all(a > b for a, b in zip(tail, tail[1:]))
    assert 0 < tail[-1] < 1e-6 and tail[0] > 0.999


def test_first_emission_requires_enough_runs():
    with pytest.raises(InsufficientRuns):
        first_emission_test(["a"] * 10, {"a", "b"})


def test_first_emission_accepts_uniform_rejects_biased():
    rng = random.Random(0)
    support = {f"{i:02b}" for i in range(4)}
    uniform = [rng.choice(sorted(support)) for _ in range(1000)]
    res = first_emission_test(uniform, support)
    assert res["passed"]
    biased = ["00"] * 700 + ["01"] * 100 + ["10"] * 100 + ["11"] * 100
    assert not first_emission_test(biased, support)["passed"]


def test_position_frequency_detects_fixed_order():
    support = {"a", "b", "c"}
    orders = [("a", "b", "c")] * 500
    res = position_frequency_test(orders, support)
    assert not res["passed"]
    rng = random.Random(1)
    shuffled = []
    for _ in range(500):
        o = ["a", "b", "c"]
        rng.shuffle(o)
        shuffled.append(tuple(o))
    assert position_frequency_test(shuffled, support)["passed"]


def test_uniformity_test_dispatch():
    rng = random.Random(2)
    runs = []
    for seed in range(500):
        o = ["a", "b", "c"]
        rng.shuffle(o)
        runs.append(o)
    first = uniformity_test(runs, mode="first")
    full = uniformity_test(runs, mode="full")
    assert first["test"] == "first-emission"
    assert full["test"] == "position-frequency"
    # one chi-square over positions: one position, or all three
    assert first.keys() == full.keys()
    assert len(first["pvalues"]) == 1 and len(full["pvalues"]) == 3
    assert full["pvalues"][0] == first["pvalue"]
    assert full["pvalue"] == min(full["pvalues"])
    with pytest.raises(InsufficientRuns):
        uniformity_test([], mode="first")


def test_single_solution_support_passes():
    # one solution: 0 degrees of freedom, and every order is uniform
    assert chi_square_counts({"": 50}, 50) == (0.0, 1.0)
    runs = [[""]] * 50
    for mode in ("first", "full"):
        result = uniformity_test(runs, mode=mode)
        assert result["passed"] and result["support"] == 1
        assert result["pvalue"] == 1.0 and result["pvalues"] == [1.0]
    with pytest.raises(InsufficientRuns):
        uniformity_test(runs[:49], mode="first")


def test_delay_profile_windows():
    recs = [record(w, tick=10 * (i + 1), attempts=i + 1)
            for i, w in enumerate(["00", "01", "10", "11"])]
    rows = delay_profile(recs, window=2)
    assert [r["window"] for r in rows] == [0, 1]
    assert rows[0]["mean_attempts"] == 1.5
    assert rows[0]["mean_ticks"] == 10.0  # ticks 0..20 over 2 emissions
    assert rows[1]["mean_ticks"] == 10.0  # ticks 20..40 over 2 emissions


def test_emissions_csv_roundtrip():
    text = emissions_csv(emissions(["00", "11"]))
    assert text.endswith("\r\n")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["index", "solution", "low", "high", "width",
                       "attempts", "tick"]
    assert rows[1][1] == "00"
    assert rows[1][4] == "1/4"
    assert len(rows) == 3


def test_profile_csv_layout():
    rows = [{"window": 0, "count": 2, "mean_attempts": 1.5,
             "mean_ticks": 10.0}]
    text = profile_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[1] == ["0", "2", "1.500000", "10.000000"]
