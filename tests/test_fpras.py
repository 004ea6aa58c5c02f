import random
from fractions import Fraction

import pytest

from roenum.fpras import (PrefixDictionary, axa_enumerate, fpras_trie,
                          root_estimate)
from roenum.fptas import fptas_trie
from roenum.parallel import RangeAssignment, slave_session
from roenum.problem import brute_force_solutions
from roenum.problems import (AllBitstrings, Knapsack, KnapsackInstance,
                             SimulatedOracleConfig, SimulatedOracles,
                             generate_knapsack)

F = Fraction
ALLBITS = AllBitstrings()
KNAP = Knapsack()


def make_oracles(problem, noise="hash", seed=0, forced=frozenset()):
    cfg = SimulatedOracleConfig(noise_mode=noise, seed=seed,
                                forced_failures=forced)
    return SimulatedOracles(problem, cfg)


def test_dictionary_write_once():
    d = PrefixDictionary()
    assert d.lookup("0", lambda: 7) == 7
    assert d.lookup("0", lambda: 99) == 7  # second compute never runs
    assert d.hits == 1 and d.misses == 1
    assert d.computed == {"0"}


def test_dictionary_compute_that_raises_leaves_no_entry():
    d = PrefixDictionary({"0": 3})

    def fail():
        raise RuntimeError("counter failed")

    with pytest.raises(RuntimeError):
        d.lookup("1", fail)
    assert d.entries == {"0": 3}
    assert d.misses == 0 and d.computed == set() and d.hits == 0
    assert d.lookup("1", lambda: 5) == 5  # a later compute still runs
    assert d.misses == 1 and d.computed == {"1"}


def test_dictionary_preloaded_tracked_separately():
    d = PrefixDictionary({"0": 3, "1": 5})
    assert d.lookup("0", lambda: 0) == 3
    assert d.preloaded == {"0", "1"}
    d.lookup("01", lambda: 2)
    assert d.computed == {"01"}
    assert d.piece(["0", "01", "ganz"]) == {"0": 3, "01": 2}


def test_fpras_trie_dictionary_keeps_every_estimate():
    x = generate_knapsack(8, seed=1)
    oracles = make_oracles(KNAP, seed=1)
    d = PrefixDictionary()

    def access(r):  # a fresh trie on the shared dictionary
        return fpras_trie(KNAP, oracles.fpras, x, F(1, 10), d).descend(r)

    access(F(1, 3))
    calls_after_first = oracles.calls["fpras"]
    hit1 = access(F(1, 3))
    # identical seed: fully served from the dictionary
    assert oracles.calls["fpras"] == calls_after_first
    hit2 = access(F(1, 3))
    assert (hit1.solution, hit1.low, hit1.high) == \
        (hit2.solution, hit2.low, hit2.high)


def test_fpras_trie_delta_zero_matches_fptas_trie():
    # with a zero failure budget the randomized counter degenerates to the
    # deterministic one, so both accesses induce the same partition
    x = generate_knapsack(9, seed=3)
    oracles = make_oracles(KNAP, seed=3)
    d = PrefixDictionary()
    rng = random.Random(5)
    randomized = fpras_trie(KNAP, oracles.fpras, x, F(0), d)
    deterministic = fptas_trie(KNAP, oracles.fptas, x)
    for _ in range(25):
        r = F(rng.getrandbits(64), 1 << 64)
        a, b = randomized.descend(r), deterministic.descend(r)
        assert (a.solution, a.low, a.high) == (b.solution, b.low, b.high)


def test_fpras_trie_midpoint_fallback_keeps_tiling():
    def zero_counter(x, eps, delta_fail):
        return 0

    d = PrefixDictionary()
    widths = {}
    trie = fpras_trie(ALLBITS, zero_counter, 3, F(1, 10), d)
    for k in range(16):
        hit = trie.descend(F(2 * k + 1, 32))
        widths[hit.solution] = hit.width
    assert set(widths) == {f"{i:03b}" for i in range(8)}
    assert sum(widths.values()) == F(1)
    assert d.midpoint_fallbacks > 0


@pytest.mark.parametrize("n", [0, 1, 3])
def test_axa_allbits_complete(n):
    oracles = make_oracles(ALLBITS)
    records = list(axa_enumerate(ALLBITS, oracles.fpras, n, F(1, 20),
                                 random.Random(n)))
    assert {r.solution for r in records} == set(brute_force_solutions(ALLBITS, n))
    assert sum(r.width for r in records) == F(1)


def test_axa_complete_despite_forced_failure():
    # the estimate for the whole item-1-included branch is doubled, pushing
    # widths out of the Las Vegas window -- the ratio guard must still emit
    x = generate_knapsack(8, seed=6)
    bad = KNAP.instance_key(KNAP.reduce(x, "1"))
    oracles = make_oracles(KNAP, seed=6, forced=frozenset([bad]))
    records = list(axa_enumerate(KNAP, oracles.fpras, x, F(1, 10),
                                 random.Random(2)))
    assert {r.solution for r in records} == set(brute_force_solutions(KNAP, x))
    assert sum(r.width for r in records) == F(1)
    assert oracles.failures > 0


def test_axa_span_restricts_output():
    oracles = make_oracles(ALLBITS, noise="none")

    def session(index, low, high):
        a = RangeAssignment(index, low, high, {}, F(4, 9) / 8, F(1, 10))
        gen, _ = slave_session(ALLBITS, oracles.fpras, 3, a,
                               random.Random(index - 1))
        return list(gen)

    left = session(1, F(0), F(1, 2))
    right = session(2, F(1, 2), F(1))
    assert {r.solution for r in left} == {f"0{i:02b}" for i in range(4)}
    assert {r.solution for r in right} == {f"1{i:02b}" for i in range(4)}


def test_axa_failure_free_ratio_in_window():
    x = generate_knapsack(9, seed=8)
    oracles = make_oracles(KNAP, noise="extreme", seed=8)
    delta = F(1, 100)
    est = root_estimate(KNAP, oracles.fpras, x, delta)
    if oracles.failures:  # hash failures possible at delta/2^(d+1); rare
        pytest.skip("hash failure hit the root draw for this seed")
    phi_star = F(4, 9) / est
    d = PrefixDictionary()
    rng = random.Random(4)
    trie = fpras_trie(KNAP, oracles.fpras, x, delta, d)
    in_window = total = 0
    for _ in range(40):
        r = F(rng.getrandbits(64), 1 << 64)
        hit = trie.descend(r)
        total += 1
        in_window += F(1, 4) < phi_star / hit.width < F(1)
    assert in_window == total


def test_axa_mean_attempts_bounded():
    x = generate_knapsack(10, seed=12)
    oracles = make_oracles(KNAP, seed=12)
    total = count = 0
    for seed in range(15):
        for rec in axa_enumerate(KNAP, oracles.fpras, x, F(1, 20),
                                 random.Random(seed)):
            total += rec.attempts
            count += 1
    assert total / count < 4.0


def test_axa_empty_instance():
    x = KnapsackInstance(-1, (1, 2, 3))
    oracles = make_oracles(KNAP)
    assert list(axa_enumerate(KNAP, oracles.fpras, x, F(1, 10),
                              random.Random(0))) == []
