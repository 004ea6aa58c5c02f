import random

from roenum.exact import SparsePermutation, ara_enumerate, raccess
from roenum.problem import brute_force_solutions
from roenum.problems import (AllBitstrings, Knapsack, KnapsackInstance,
                             SimulatedOracles)
from roenum.stats import chi_square_counts

AB = AllBitstrings()
KS = Knapsack()


def test_raccess_examples():
    sim = SimulatedOracles(AB)
    assert raccess(AB, sim.exact, 2, 3) == "10"
    inst = KnapsackInstance(3, (1, 2, 3))
    ks_sim = SimulatedOracles(KS)
    assert raccess(KS, ks_sim.exact, inst, 1) == "000"
    assert raccess(KS, ks_sim.exact, inst, 6) is None
    assert raccess(KS, ks_sim.exact, inst, 0) is None


def test_raccess_is_lexicographic():
    for inst in [KnapsackInstance(3, (1, 2, 3)),
                 KnapsackInstance(9, (2, 3, 4, 5, 6))]:
        sim = SimulatedOracles(KS)
        expected = sorted(brute_force_solutions(KS, inst))
        got = [raccess(KS, sim.exact, inst, i)
               for i in range(1, len(expected) + 1)]
        assert got == expected
        assert raccess(KS, sim.exact, inst, len(expected) + 1) is None


def test_sparse_permutation_is_bijection():
    for n in (1, 2, 7, 64, 1000):
        perm = list(SparsePermutation(n, random.Random(n)))
        assert sorted(perm) == list(range(1, n + 1))


def test_sparse_permutation_memory_is_lazy():
    # only consumed draws occupy memory even for astronomical ranges
    perm = SparsePermutation(10**30, random.Random(0))
    draws = [next(perm) for _ in range(100)]
    assert len(set(draws)) == 100
    assert len(perm.displaced) <= 200


def test_sparse_permutation_first_draw_uniform():
    n = 16
    trials = 50 * n * 4
    counts = dict.fromkeys(range(1, n + 1), 0)
    for seed in range(trials):
        counts[next(SparsePermutation(n, random.Random(seed)))] += 1
    _, p = chi_square_counts(counts, trials / n)
    assert p >= 1e-3


def test_ara_emits_exact_solution_set():
    inst = KnapsackInstance(3, (1, 2, 3))
    sim = SimulatedOracles(KS)
    got = list(ara_enumerate(KS, sim.exact, inst, random.Random(5)))
    assert sorted(got) == sorted(brute_force_solutions(KS, inst))
    assert len(got) == len(set(got))


def test_ara_base_case():
    sim = SimulatedOracles(AB)
    assert list(ara_enumerate(AB, sim.exact, 0, random.Random(1))) == [""]


def test_ara_order_distribution():
    # all 24 orders of 4 solutions occur with roughly equal frequency
    trials = 24 * 300
    counts = {}
    sim = SimulatedOracles(AB)
    for seed in range(trials):
        order = tuple(ara_enumerate(AB, sim.exact, 2, random.Random(seed)))
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 24
    _, p = chi_square_counts(counts, trials / 24)
    assert p >= 1e-3


def test_per_emission_oracle_budget():
    inst = KnapsackInstance(9, (2, 3, 4, 5, 6))
    sim = SimulatedOracles(KS)
    total = sim.exact(inst)
    d = KS.zeta(inst)
    before = sim.calls["exact"]
    emitted = list(ara_enumerate(KS, sim.exact, inst, random.Random(2)))
    # the root once for the total, then one count per bit: no emission
    # recounts the root for a range check
    assert sim.calls["exact"] - before == 1 + d * len(emitted)
    assert len(emitted) == total
