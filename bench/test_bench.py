"""Tests of the benchmark's own checks and helpers.

    python3 -m pytest bench/test_bench.py
"""

import json
from fractions import Fraction as F

import checks
import run
import spans


def stream(n=3):
    """A correct emission stream: every n-bit word once, word k owning
    [k/2^n, (k+1)/2^n)."""
    size = 1 << n
    return [(format(k, f"0{n}b"), F(k, size), F(k + 1, size), F(1, size))
            for k in range(size)]


def words(rows):
    return [r[0] for r in rows]


def intervals(rows):
    return [(low, high, width) for _, low, high, width in rows]


def test_correct_stream_passes():
    rows = stream()
    assert checks.check_solution_set(words(rows), checks.all_bitstrings(3)) == []
    assert checks.check_intervals(intervals(rows)) == []


def test_dropped_emission_fails():
    rows = stream()
    del rows[5]
    errors = checks.check_solution_set(words(rows), checks.all_bitstrings(3))
    assert any("never emitted" in e for e in errors)
    assert any("sum to 7/8" in e for e in checks.check_intervals(intervals(rows)))


def test_duplicated_emission_fails():
    rows = stream()
    rows.append(rows[2])
    errors = checks.check_solution_set(words(rows), checks.all_bitstrings(3))
    assert any("duplicated" in e for e in errors)


def test_overlapping_intervals_fail():
    rows = stream()
    word, low, high, _ = rows[3]
    rows[3] = (word, low - F(1, 16), high, high - low + F(1, 16))
    word, low, high, _ = rows[4]
    rows[4] = (word, low, high - F(1, 16), high - low - F(1, 16))
    errors = checks.check_intervals(intervals(rows))
    assert errors and "overlap" in errors[0]


def test_non_solution_fails():
    errors = checks.check_solution_set(["000", "111"], {"000"})
    assert any("not solutions" in e for e in errors)


def test_is_packing():
    sizes, cap = (3, 5, 2, 7), 8
    assert checks.is_packing(sizes, cap, "1100")
    assert checks.is_packing(sizes, cap, "0000")
    assert not checks.is_packing(sizes, cap, "0101")
    assert not checks.is_packing(sizes, cap, "110")


def test_percentile_nearest_rank():
    # hand-computed: ranks ceil(p/100 * 5) of the sorted sample
    sample = [35, 20, 50, 15, 40]
    assert checks.percentile(sample, 30) == 20
    assert checks.percentile(sample, 40) == 20
    assert checks.percentile(sample, 50) == 35
    assert checks.percentile(sample, 90) == 50
    assert checks.percentile(sample, 100) == 50
    assert checks.beyond(1000, 99) == 10
    assert checks.beyond(130, 90) == 13


def test_tiling_and_prefill_bound():
    assert checks.check_tiling([(F(0), F(1, 3)), (F(1, 3), F(1))]) == []
    assert checks.check_tiling([(F(0), F(1, 3)), (F(1, 2), F(1))])
    # 32 * ln(1320) = 229.93
    assert checks.prefill_bound(4, F(1, 2), F(1, 10)) == 230


def test_ratio_window():
    assert checks.ratio_outside(F(1, 2), [F(1), F(3, 4), F(1, 2), F(2)]) == 2


def test_tracer_self_time_and_absent_layers(monkeypatch):
    monkeypatch.setattr(spans, "LAYERS", {
        "gone.module": ("roenum_no_such_module", "f", "call"),
        "gone.attribute": ("checks", "no_such_function", "call"),
    })
    tracer = spans.Tracer()
    with tracer.patched():
        tracer.call("outer", lambda: tracer.call("inner", sum, range(10)))
        out = list(tracer.stream("gen", iter([1, 2])))
    assert sorted(tracer.absent) == ["gone.attribute", "gone.module"]
    assert out == [1, 2]
    assert tracer.calls == {"inner": 1, "outer": 1, "gen": 3}
    assert 0 <= tracer.self_s["outer"] and 0 <= tracer.self_s["inner"]


def test_benchmark_json_matches_spec():
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == run.SPEC
