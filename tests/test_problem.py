import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from roenum.fptas import aia_enumerate
from roenum.problem import (BudgetExceeded, brute_force_solutions,
                            verify_self_reducibility)
from roenum.problems import (AllBitstrings, Knapsack, KnapsackInstance,
                             generate_knapsack)


AB = AllBitstrings()
KS = Knapsack()


class BrokenReduction(AllBitstrings):
    """Breaks the length contract: reduce never shrinks the instance."""

    def reduce(self, x, word):
        return x


def test_brute_force_all_bitstrings():
    assert brute_force_solutions(AB, 2) == {"00", "01", "10", "11"}
    assert brute_force_solutions(AB, 0) == {""}


def test_brute_force_knapsack():
    got = brute_force_solutions(KS, KnapsackInstance(3, (1, 2, 3)))
    assert got == {"000", "001", "010", "100", "110"}
    assert brute_force_solutions(KS, KnapsackInstance(0, (5,))) == {"0"}


def test_brute_force_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_solutions(AB, 30)


def test_verify_all_bitstrings():
    assert verify_self_reducibility(AB, 3)


def test_verify_knapsack():
    assert verify_self_reducibility(KS, KnapsackInstance(3, (1, 2, 3)))


@pytest.mark.parametrize("inst", [KnapsackInstance(-4, (0, 0, 3)),
                                  KnapsackInstance(-1, (1, 2))])
def test_verify_knapsack_with_negative_capacity(inst):
    # every negative capacity is infeasible and sizes alike
    assert verify_self_reducibility(KS, inst)


def test_verify_rejects_broken_reduction():
    assert not verify_self_reducibility(BrokenReduction(), 3)


class LossyKey(Knapsack):
    """Breaks the key contract: the key drops the capacity, so residuals
    with one sizes suffix and different capacities share a key."""

    def instance_key(self, x):
        return ("ks", x.sizes)


def test_verify_rejects_a_key_that_drops_the_capacity():
    lossy, x = LossyKey(), generate_knapsack(8, seed=5, capacity_frac=0.5)
    assert verify_self_reducibility(KS, x)
    assert not verify_self_reducibility(lossy, x)
    # what the check guards: the tiers count each key once, so prefixes
    # 0 and 1 get one count and AIA emits every word, solution or not
    sol = brute_force_solutions(KS, x)
    words = {r.solution for r in aia_enumerate(
        lossy, lambda inst, eps: lossy.exact_count(inst), x,
        random.Random(0))}
    assert (len(sol), len(words), len(words - sol)) == (128, 256, 128)


def test_verify_budget():
    with pytest.raises(BudgetExceeded):
        verify_self_reducibility(AB, 10, max_count=100)


@pytest.mark.parametrize("inst", [
    KnapsackInstance(3, (1, 2, 3)),
    KnapsackInstance(7, (2, 2, 3, 5)),
    KnapsackInstance(4, (1, 1, 1, 1, 1)),
])
def test_count_decomposes_along_reduction(inst):
    # counting splits exactly along the prefix tree
    sol = brute_force_solutions(KS, inst)
    n = KS.zeta(inst)
    for k in range(n):
        for bits in range(1 << k):
            w = format(bits, f"0{k}b") if k else ""
            c = KS.exact_count(KS.reduce(inst, w))
            c0 = KS.exact_count(KS.reduce(inst, w + "0"))
            c1 = KS.exact_count(KS.reduce(inst, w + "1"))
            assert c == c0 + c1
    assert KS.exact_count(inst) == len(sol)


@given(st.integers(-10**9, 10**9), st.integers(1, 10**9),
       st.integers(-10**9, 10**9), st.integers(1, 10**9))
def test_rational_roundtrip(a, b, c, d):
    # exact rational arithmetic: (a/b + c/d) - c/d == a/b with no drift
    x, y = Fraction(a, b), Fraction(c, d)
    assert (x + y) - y == x


def test_reduced_instances_shrink():
    inst = KnapsackInstance(5, (2, 3, 4))
    rng = random.Random(0)
    for _ in range(20):
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        assert KS.size(KS.reduce(inst, w)) <= KS.size(inst)
