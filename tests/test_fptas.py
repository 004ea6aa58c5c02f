import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from roenum.fpras import guarded_accept
from roenum.fptas import (EmptyBranch, aia_enumerate, bernoulli_less,
                          fptas_trie)
from roenum.problem import brute_force_solutions
from roenum.problems import (AllBitstrings, Knapsack, KnapsackInstance,
                             SimulatedOracleConfig, SimulatedOracles,
                             generate_knapsack)
from roenum.trie import NonTerminating

F = Fraction
ALLBITS = AllBitstrings()
KNAP = Knapsack()


def exact_counter(problem):
    return lambda x, eps: problem.exact_count(x)


def noisy_counter(problem, seed=0):
    cfg = SimulatedOracleConfig(noise_mode="extreme", seed=seed)
    return SimulatedOracles(problem, cfg).fptas


def test_fptas_trie_allbits_example():
    hit = fptas_trie(ALLBITS, exact_counter(ALLBITS), 2).descend(F(5, 8))
    assert hit.solution == "10"
    assert (hit.low, hit.high) == (F(1, 2), F(3, 4))


def test_fptas_trie_knapsack_example():
    x = KnapsackInstance(3, (1, 2, 3))
    hit = fptas_trie(KNAP, exact_counter(KNAP), x).descend(F(0))
    assert hit.solution == "000"
    assert (hit.low, hit.high) == (F(0), F(1, 5))


def test_fptas_trie_exact_counts_tile_with_exact_widths():
    x = KnapsackInstance(6, (1, 2, 3, 4))
    n = KNAP.exact_count(x)
    seen = {}
    trie = fptas_trie(KNAP, exact_counter(KNAP), x)
    for k in range(4 * n):
        hit = trie.descend(F(2 * k + 1, 8 * n))
        seen[hit.solution] = hit.width
    assert set(seen) == set(brute_force_solutions(KNAP, x))
    # exact counts make every interval exactly 1/N wide
    assert all(w == F(1, n) for w in seen.values())


def test_fptas_trie_width_window_under_extreme_noise():
    x = generate_knapsack(10, seed=5)
    n = KNAP.exact_count(x)
    fptas = noisy_counter(KNAP, seed=5)
    rng = random.Random(1)
    trie = fptas_trie(KNAP, fptas, x)
    for _ in range(50):
        r = F(rng.getrandbits(64), 1 << 64)
        hit = trie.descend(r)
        assert F(49, 64) / n <= hit.width <= F(64, 49) / n
        assert hit.low <= r < hit.high
        assert hit.solution in brute_force_solutions(KNAP, x)


def test_fptas_trie_is_consistent_within_session():
    # deterministic counter => same seed, same answer, and intervals nest
    x = generate_knapsack(8, seed=9)
    fptas = noisy_counter(KNAP, seed=9)
    r = F(1, 3)
    a = fptas_trie(KNAP, fptas, x).descend(r)
    # a session's trie expands each pivot once and reuses it
    trie = fptas_trie(KNAP, fptas, x)
    b, c = trie.descend(r), trie.descend(r)
    assert (a.solution, a.low, a.high) == (b.solution, b.low, b.high) == \
        (c.solution, c.low, c.high)


def test_fptas_trie_empty_branch_raises():
    def zero_counter(x, eps):
        return 0

    with pytest.raises(EmptyBranch):
        fptas_trie(ALLBITS, zero_counter, 3).descend(F(1, 2))


def test_bernoulli_less_edges_and_mean():
    rng = random.Random(0)
    assert not bernoulli_less(rng, 0, 1)
    assert bernoulli_less(rng, 1, 1)
    n = 20_000
    hits = sum(bernoulli_less(rng, 3, 8) for _ in range(n))
    # 3 sigma around 3/8
    sigma = (n * F(3, 8) * F(5, 8)) ** Fraction(1, 2)
    assert abs(hits - n * F(3, 8)) < 3 * float(sigma)


def test_bernoulli_less_dyadic_threshold_terminates():
    rng = random.Random(2)
    hits = sum(bernoulli_less(rng, 1, 4) for _ in range(8000))
    assert abs(hits - 2000) < 3 * (8000 * 0.25 * 0.75) ** 0.5


class ScriptedBits:
    """A bit source that replays one fixed bit string, one bit per read."""

    def __init__(self, bits):
        self.bits = iter(bits)

    def getrandbits(self, k):
        assert k == 1
        bit = next(self.bits, None)
        assert bit is not None, "read past the end of the script"
        return bit


@pytest.mark.parametrize("length", range(9))
def test_bernoulli_less_exact_law_on_every_bit_string(length):
    # run over all 2**L scripts of length L, exactly p accept t = p/2**L
    # (t = 0 and t = 1 included), so P(accept) = t exactly, with no
    # sampling noise; no draw reads more than L bits
    scripts = list(itertools.product((0, 1), repeat=length))
    for p in range(2 ** length + 1):
        assert sum(bernoulli_less(ScriptedBits(s), p, 2 ** length)
                   for s in scripts) == p


def fraction_bernoulli_less(rng, threshold):
    """The reference: the bit loop of `bernoulli_less` on a `Fraction`."""
    if threshold <= 0:
        return False
    if threshold >= 1:
        return True
    t = threshold
    while True:
        t *= 2
        if t >= 1:
            t_bit = 1
            t -= 1
        else:
            t_bit = 0
        p_bit = rng.getrandbits(1)
        if p_bit != t_bit:
            return p_bit < t_bit
        if t == 0:
            return False


def fraction_guarded_accept(rng, ratio):
    """The reference: the (1/4, 1) guard compared as `Fraction`s."""
    return not (F(1, 4) < ratio < 1) or fraction_bernoulli_less(rng, ratio)


# thresholds around [0, 1] and the guard's window, with denominators up to
# those of a ratio phi*/width on a deep trie
THRESHOLDS = st.integers(1, 1 << 130).flatmap(
    lambda b: st.builds(F, st.integers(-b, 2 * b), st.just(b)))


@given(THRESHOLDS, st.integers(1, 1 << 40), st.integers(0, 2 ** 32))
@example(F(0), 1, 0)
@example(F(1), 1, 0)
@example(F(1, 4), 1, 1)
@example(F(3, 8), 1, 2)
@example(F(1, 4) + F(1, 1 << 128), 1, 3)
@example(F(1) - F(1, 1 << 128), 1, 4)
@example(F(3, 8), 6, 2)
@example(F(1, 4), 1 << 40, 5)
@example(F(1) - F(1, 1 << 128), 3, 4)
def test_integer_acceptance_matches_the_fraction_loop(threshold, k, seed):
    # the pair (k*a, k*b) of threshold a/b, unreduced for k > 1, gives the
    # same answer and reads the same random bits, for both tests
    a, b = k * threshold.numerator, k * threshold.denominator
    for test, reference in ((bernoulli_less, fraction_bernoulli_less),
                            (guarded_accept, fraction_guarded_accept)):
        rng, ref = random.Random(seed), random.Random(seed)
        assert test(rng, a, b) == reference(ref, threshold)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [0, 1, 4])
def test_aia_allbits_complete_and_exact(n):
    records = list(aia_enumerate(ALLBITS, exact_counter(ALLBITS), n,
                                 random.Random(n)))
    assert [r.solution for r in sorted(records, key=lambda r: r.low)] == \
        sorted(r.solution for r in records)
    assert {r.solution for r in records} == set(brute_force_solutions(ALLBITS, n))
    assert sum(r.width for r in records) == F(1)


def test_aia_noisy_complete_and_tiles():
    x = generate_knapsack(9, seed=4)
    fptas = noisy_counter(KNAP, seed=4)
    records = list(aia_enumerate(KNAP, fptas, x, random.Random(7)))
    assert {r.solution for r in records} == set(brute_force_solutions(KNAP, x))
    assert sum(r.width for r in records) == F(1)
    # intervals are pairwise disjoint
    spans = sorted((r.low, r.high) for r in records)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_aia_acceptance_ratio_window():
    x = generate_knapsack(9, seed=13)
    fptas = noisy_counter(KNAP, seed=13)
    phi_star = F(4, 9) / fptas(x, F(1, 3))
    rng = random.Random(0)
    trie = fptas_trie(KNAP, fptas, x)
    for _ in range(40):
        r = F(rng.getrandbits(64), 1 << 64)
        hit = trie.descend(r)
        assert F(1, 4) < phi_star / hit.width < F(1)


def test_aia_mean_attempts_bounded():
    x = generate_knapsack(10, seed=2)
    fptas = noisy_counter(KNAP, seed=2)
    total = runs = 0
    for seed in range(20):
        for rec in aia_enumerate(KNAP, fptas, x, random.Random(seed)):
            total += rec.attempts
            runs += 1
    assert total / runs < 4.0


def test_aia_empty_instance_yields_nothing():
    x = KnapsackInstance(-1, (1, 2))
    assert list(aia_enumerate(KNAP, exact_counter(KNAP), x,
                              random.Random(0))) == []


def test_aia_watchdog_fires_on_broken_oracle():
    calls = {"n": 0}

    def hostile(x, eps):
        # huge root estimate makes phi*/width vanish: nothing ever accepts
        calls["n"] += 1
        return 10 ** 9 if ALLBITS.zeta(x) == 3 else ALLBITS.exact_count(x)

    with pytest.raises(NonTerminating):
        list(aia_enumerate(ALLBITS, hostile, 3, random.Random(0)))


def test_aia_first_emission_uniform_smoke():
    from roenum.stats import chi_square_counts
    counts = {}
    for seed in range(2000):
        first = next(aia_enumerate(ALLBITS, exact_counter(ALLBITS), 2,
                                   random.Random(seed)))
        counts[first.solution] = counts.get(first.solution, 0) + 1
    full = {f"{i:02b}": counts.get(f"{i:02b}", 0) for i in range(4)}
    _, p = chi_square_counts(full, 2000 / 4)
    assert p > 1e-4
