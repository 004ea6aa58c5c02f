import random
from fractions import Fraction

from roenum.problem import brute_force_solutions
from roenum.problems import (AllBitstrings, Knapsack, SimulatedOracles,
                             generate_knapsack)
from roenum.swor import swor_enumerate

ALLBITS = AllBitstrings()
KNAP = Knapsack()


def test_swor_complete_no_repeats():
    x = generate_knapsack(8, seed=0)
    records = list(swor_enumerate(KNAP, KNAP.exact_count, x, random.Random(1)))
    words = [r.solution for r in records]
    assert len(words) == len(set(words))
    assert set(words) == set(brute_force_solutions(KNAP, x))


def test_swor_counts_one_residual_per_bit():
    # the root once for the total, then d counts per candidate
    x = generate_knapsack(8, seed=0)
    sim = SimulatedOracles(KNAP)
    records = list(swor_enumerate(KNAP, sim.exact, x, random.Random(1)))
    assert sim.calls["exact"] == 1 + 8 * sum(r.attempts for r in records)


def test_swor_empty_instance():
    records = list(swor_enumerate(ALLBITS, ALLBITS.exact_count, 0,
                                  random.Random(0)))
    assert [r.solution for r in records] == [""]


def test_swor_attempts_grow_hyperbolically():
    # expected total attempts is M * H_M (coupon collector); check +- 15%
    n = 6
    m = 1 << n
    expected = m * sum(Fraction(1, k) for k in range(1, m + 1))
    totals = []
    for seed in range(60):
        recs = list(swor_enumerate(ALLBITS, ALLBITS.exact_count, n,
                                   random.Random(seed)))
        totals.append(sum(r.attempts for r in recs))
    mean = sum(totals) / len(totals)
    assert abs(mean - float(expected)) < 0.15 * float(expected)


def test_swor_last_emission_is_expensive():
    # final emission needs ~M attempts on average, early ones ~1
    n = 7
    first = last = 0.0
    for seed in range(40):
        recs = list(swor_enumerate(ALLBITS, ALLBITS.exact_count, n,
                                   random.Random(seed)))
        first += recs[0].attempts
        last += recs[-1].attempts
    assert first / 40 < 2.0
    assert last / 40 > (1 << n) / 4


def test_swor_first_emission_uniform_smoke():
    from roenum.stats import chi_square_counts
    counts = {f"{i:02b}": 0 for i in range(4)}
    runs = 2000
    for seed in range(runs):
        rec = next(swor_enumerate(ALLBITS, ALLBITS.exact_count, 2,
                                  random.Random(seed)))
        counts[rec.solution] += 1
    _, p = chi_square_counts(counts, runs / 4)
    assert p > 1e-4
