import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from roenum import problems
from roenum.exact import ara_enumerate
from roenum.problem import (BudgetExceeded, brute_force_solutions,
                            verify_self_reducibility)
from roenum.problems import (AllBitstrings, Knapsack, KnapsackInstance,
                             SimulatedOracleConfig, SimulatedOracles,
                             format_instance, generate_knapsack,
                             parse_instance)

KS = Knapsack()


@pytest.mark.parametrize("inst,expected", [
    (KnapsackInstance(3, (1, 2, 3)), 5),
    (KnapsackInstance(0, (1, 1)), 1),
    (KnapsackInstance(6, (1, 2, 3)), 8),
    (KnapsackInstance(-1, (4, 4)), 0),
])
def test_knapsack_exact_count(inst, expected):
    assert KS.exact_count(inst) == expected


def test_knapsack_count_matches_brute_force_on_random_instances():
    for seed in range(10):
        inst = generate_knapsack(9, seed)
        assert KS.exact_count(inst) == len(brute_force_solutions(KS, inst))


@pytest.mark.parametrize("slack", [-2, -1, 0, 1, 5, 10**9])
def test_knapsack_count_around_the_size_sum(slack):
    # at and above sum(sizes) every subset fits and no DP is run: the last
    # capacity is far over the DP budget
    sizes = (3, 1, 4, 1, 5, 9)
    inst = KnapsackInstance(sum(sizes) + slack, sizes)
    assert Knapsack().exact_count(inst) == \
        len(brute_force_solutions(KS, inst))


def loop_count(capacity, sizes):
    """Reference: the loop-over-capacities DP that the bit-parallel
    counter replaced (packings with total exactly c, for c = 0..C)."""
    if capacity < 0:
        return 0
    table = [0] * (capacity + 1)
    table[0] = 1
    for s in sizes:
        if s <= capacity:
            for c in range(capacity, s - 1, -1):
                table[c] += table[c - s]
    return sum(table)


@given(sizes=st.lists(st.integers(0, 12), max_size=10), data=st.data())
def test_bit_parallel_count_matches_loop_dp_and_brute_force(sizes, data):
    total = sum(sizes)
    capacity = data.draw(st.one_of(
        st.integers(-3, 0),                  # empty and negative capacities
        st.integers(0, total),
        st.integers(total - 2, total + 3)))  # around the every-subset-fits cut
    inst = KnapsackInstance(capacity, tuple(sizes))
    count = Knapsack().exact_count(inst)
    assert count == loop_count(capacity, sizes)
    assert count == len(brute_force_solutions(KS, inst))


@pytest.mark.parametrize("n", [70, 90])
def test_bit_parallel_count_beyond_64_bits(n):
    inst = generate_knapsack(n, seed=5, capacity_frac=0.4)
    count = Knapsack().exact_count(inst)
    assert count > 1 << 64
    assert count == loop_count(inst.capacity, inst.sizes)


@pytest.mark.parametrize("inst", [KnapsackInstance(-1, (1, 2)),
                                  KnapsackInstance(-4, (0, 0, 3)),
                                  KnapsackInstance(-1, ())])
def test_negative_capacity_counts_no_packing(inst):
    assert Knapsack().exact_count(inst) == 0
    assert brute_force_solutions(KS, inst) == set()


def test_reducing_past_the_capacity_leaves_a_negative_capacity():
    x = KnapsackInstance(3, (2, 2, 5))
    over = KS.reduce(x, "11")
    assert over == KnapsackInstance(-1, (5,))
    assert KS.reduce(over, "0") == KnapsackInstance(-1, ())
    assert KS.reduce(x, "001") == KnapsackInstance(-2, ())
    assert KS.exact_count(over) == 0
    assert not KS.base_check(over)
    assert not any(KS.membership(over, w) for w in ("0", "1"))
    assert not KS.membership(x, "110")
    assert verify_self_reducibility(KS, x)


def test_chain_holds_one_key_per_suffix():
    problem = Knapsack()
    x = generate_knapsack(64, seed=3)
    words = ara_enumerate(problem, SimulatedOracles(problem).exact, x,
                          random.Random(3))
    assert len(list(itertools.islice(words, 20))) == 20
    suffixes = {x.sizes[k:] for k in range(len(x.sizes) + 1)}
    assert len(problem._chain) <= len(x.sizes) + 1
    assert set(problem._chain) <= suffixes


@given(data=st.data())
def test_one_counter_answers_residuals_of_two_roots_in_any_order(data):
    # one Knapsack serves every query, so the chain is reused and rebuilt:
    # the two roots share a suffix, every root suffix is queried at up to
    # three capacities, and the queries come in a random order (a residual
    # before its root, a larger capacity after a smaller one)
    sizes = st.lists(st.integers(0, 9), max_size=4)
    shared = data.draw(sizes)
    roots = [tuple(data.draw(sizes) + shared) for _ in range(2)]
    queries = []
    for root in roots:
        cap = data.draw(st.integers(0, sum(root) + 1))
        queries.append((cap, root))
        for k in range(1, len(root) + 1):
            caps = st.integers(-1, sum(root) + 2)
            queries += [(data.draw(caps), root[k:]) for _ in range(3)]
    problem = Knapsack()
    for cap, suffix in data.draw(st.permutations(queries)):
        inst = KnapsackInstance(cap, suffix)
        assert problem.exact_count(inst) == loop_count(cap, suffix)
    suffixes = {root[k:] for root in roots for k in range(len(root) + 1)}
    assert set(problem._chain) <= suffixes


def test_chain_budget_bounds_the_bits_a_build_holds():
    # n = 2, C = 10: (n+1)(C+1)(n+2) = 3*11*4 = 132 bits
    inst = KnapsackInstance(10, (5, 7))
    assert Knapsack(budget=132).exact_count(inst) == 3
    problem = Knapsack(budget=131)
    with pytest.raises(BudgetExceeded, match="budget"):
        problem.exact_count(inst)
    assert problem._chain == {}


def test_a_new_root_replaces_the_chain():
    first = KnapsackInstance(10, (5, 7))      # 132 bits
    second = KnapsackInstance(10, (6, 8))     # 132 bits
    problem = Knapsack(budget=200)
    assert problem.exact_count(first) == 3
    assert problem.exact_count(second) == 3
    assert set(problem._chain) == {(6, 8), (8,), ()}
    assert problem.exact_count(first) == 3


def test_one_counter_holds_the_chain_of_the_root_counted_last():
    a = generate_knapsack(12, seed=1, capacity_frac=0.4)
    b = generate_knapsack(9, seed=2, capacity_frac=0.4)
    assert a.sizes[-1] != b.sizes[-1]  # no suffix but () in common
    problem = Knapsack()
    for root in (a, b, a):
        assert problem.exact_count(root) == loop_count(root.capacity,
                                                       root.sizes)
        suffixes = {root.sizes[k:] for k in range(len(root.sizes) + 1)}
        assert set(problem._chain) <= suffixes
        assert len(problem._chain) <= len(root.sizes) + 1


@pytest.mark.parametrize("inst", [KnapsackInstance(3, (2, -1)),
                                  KnapsackInstance(10, (2, -1)),
                                  KnapsackInstance(0, (-1,))])
def test_negative_size_is_named_in_a_value_error(inst):
    with pytest.raises(ValueError, match="size -1 is negative"):
        Knapsack().exact_count(inst)


def test_all_bitstrings_closed_form():
    ab = AllBitstrings()
    for n in range(6):
        for k in range(n + 1):
            assert ab.exact_count(ab.reduce(n, "0" * k)) == 1 << (n - k)


def test_fptas_zero_iff_empty():
    sim = SimulatedOracles(KS, SimulatedOracleConfig(noise_mode="hash"))
    assert sim.fptas(KnapsackInstance(-1, (2,)), Fraction(1, 4)) == 0
    assert sim.fptas(KnapsackInstance(2, (1,)), Fraction(1, 4)) >= 1


def test_config_rejects_an_unknown_noise_mode():
    # caught at construction, not at the first nonzero estimate
    with pytest.raises(ValueError, match="'hsah'"):
        SimulatedOracleConfig(noise_mode="hsah")


def test_fptas_no_noise_is_exact():
    sim = SimulatedOracles(KS)
    assert sim.fptas(KnapsackInstance(3, (1, 2, 3)), Fraction(1, 8)) == 5


def test_fptas_band():
    sim = SimulatedOracles(KS, SimulatedOracleConfig(noise_mode="hash", seed=3))
    inst = KnapsackInstance(20, tuple([1] * 6))  # all 64 subsets fit
    value = sim.fptas(inst, Fraction(1, 8))
    assert 56 <= value <= 72


def test_fptas_is_deterministic():
    sim = SimulatedOracleConfig(noise_mode="hash", seed=9)
    inst = KnapsackInstance(10, (2, 3, 4, 5))
    values = {SimulatedOracles(KS, sim).fptas(inst, Fraction(1, 16))
              for _ in range(10)}
    assert len(values) == 1


def test_extreme_noise_stays_in_band():
    sim = SimulatedOracles(KS, SimulatedOracleConfig(noise_mode="extreme"))
    inst = KnapsackInstance(20, tuple([1] * 6))
    eps = Fraction(1, 8)
    value = sim.fptas(inst, eps)
    assert 64 * (1 - eps) <= value <= 64 * (1 + eps)


def test_fpras_delta_zero_matches_fptas():
    cfg = SimulatedOracleConfig(noise_mode="hash", seed=5)
    inst = KnapsackInstance(9, (2, 3, 4))
    a = SimulatedOracles(KS, cfg).fptas(inst, Fraction(1, 8))
    b = SimulatedOracles(KS, cfg).fpras(inst, Fraction(1, 8), Fraction(0))
    assert a == b


def test_fpras_forced_failure_distorts():
    inst = KnapsackInstance(3, (1, 2, 3))
    cfg = SimulatedOracleConfig(forced_failures=frozenset({KS.instance_key(inst)}))
    sim = SimulatedOracles(KS, cfg)
    assert sim.fpras(inst, Fraction(1, 8), Fraction(0)) == 10


def test_fpras_failure_frequency():
    # hash-driven failures hit at the requested pseudo-probability
    cfg = SimulatedOracleConfig(seed=11)
    sim = SimulatedOracles(KS, cfg)
    delta_fail = Fraction(1, 16)
    trials = 20000
    fails = 0
    for cap in range(trials):
        inst = KnapsackInstance(cap + 1, (1,))
        before = sim.failures
        sim.fpras(inst, Fraction(1, 8), delta_fail)
        fails += sim.failures - before
    p = float(delta_fail)
    sigma = (trials * p * (1 - p)) ** 0.5
    assert abs(fails - trials * p) <= 3 * sigma


class KeyCountingKnapsack(Knapsack):
    def __init__(self):
        super().__init__()
        self.key_calls = 0

    def instance_key(self, x):
        self.key_calls += 1
        return super().instance_key(x)


def test_fpras_builds_the_instance_key_once():
    # the failure draw and the noise draw hash the same key
    problem = KeyCountingKnapsack()
    sim = SimulatedOracles(problem, SimulatedOracleConfig(noise_mode="hash"))
    inst = KnapsackInstance(7, (2, 2, 3, 5))
    sim.fpras(inst, Fraction(1, 8), Fraction(1, 16))
    assert sim.failures == 0
    assert problem.key_calls == 1


def test_fpras_counts_once_per_call():
    problem = Knapsack()
    counted = []
    real_count = problem.exact_count

    def counting(x):
        counted.append(x)
        return real_count(x)

    problem.exact_count = counting
    sim = SimulatedOracles(problem, SimulatedOracleConfig(noise_mode="hash"))
    inst = KnapsackInstance(7, (2, 2, 3, 5))
    sim.fpras(inst, Fraction(1, 8), Fraction(0))
    assert sim.failures == 0
    assert counted == [inst]


class CountIsInstance(AllBitstrings):
    """The instance is its own exact count."""

    def exact_count(self, x: int) -> int:
        return x


def fraction_estimate(mode: str, exact: int, eps: Fraction, h: int) -> int:
    """Reference: the simulated FPTAS in Fraction arithmetic, with the hash
    value read as the point u = h / 2**64 of [0, 1)."""
    u = Fraction(h, 1 << 64)
    lo = max(math.ceil(exact * (1 - eps)), 1)
    hi = max(math.floor(exact * (1 + eps)), 1)
    if mode == "hash":
        return lo + int(u * (hi - lo + 1))
    return hi if u >= Fraction(1, 2) else lo


HASH_EDGES = (0, (1 << 63) - 1, 1 << 63, (1 << 64) - 1)
fractions_0_to_2 = st.builds(
    lambda p, q: Fraction(min(p, 2 * q), q),
    st.integers(0, 10**6), st.integers(1, 10**6))


@given(exact=st.integers(1, 10**40), eps=fractions_0_to_2,
       delta_fail=fractions_0_to_2,
       h=st.integers(0, (1 << 64) - 1))
@example(exact=7, eps=Fraction(3, 2), delta_fail=Fraction(1, 2), h=1 << 63)
def test_integer_oracles_match_fraction_reference(exact, eps, delta_fail, h):
    for point in (h, *HASH_EDGES):
        with mock.patch.object(problems, "_hash_unit", lambda *_: point):
            for mode in ("hash", "extreme"):
                sim = SimulatedOracles(CountIsInstance(),
                                       SimulatedOracleConfig(noise_mode=mode))
                expected = fraction_estimate(mode, exact, eps, point)
                assert sim.fptas(exact, eps) == expected
                failed = (delta_fail > 0
                          and Fraction(point, 1 << 64) < delta_fail)
                estimate = sim.fpras(exact, eps, delta_fail)
                assert sim.failures == failed
                distorted = exact * sim.config.failure_distortion
                assert estimate == (distorted if failed else expected)


counted_instances = st.one_of(
    st.builds(lambda cap, sizes: (KS, KnapsackInstance(cap, tuple(sizes))),
              st.integers(0, 60), st.lists(st.integers(0, 40), max_size=8)),
    st.builds(lambda n: (AllBitstrings(), n), st.integers(0, 64)))


@given(instance=counted_instances,
       eps=st.one_of(st.integers(0, 3), fractions_0_to_2),
       delta_fail=st.builds(lambda p, q: Fraction(p % q or 1, q),
                            st.integers(1, 10**6), st.integers(2, 10**6)),
       seed=st.integers(0, 1 << 64), nonce=st.integers(1, 10**6))
@example(instance=(KS, KnapsackInstance(7, (2, 2, 3, 5))),
         eps=Fraction(1, 56), delta_fail=Fraction(1, 20480), seed=0, nonce=3)
def test_hash_input_is_the_repr_of_its_parts(instance, eps, delta_fail, seed,
                                             nonce):
    # the bytes the golden digests were hashed from; an int eps was always
    # hashed as its Fraction
    problem, x = instance
    key = problem.instance_key(x)
    parts = (key, Fraction(eps), seed)
    fail = repr(("fail", key, Fraction(eps), delta_fail, seed, nonce)).encode()
    for mode, tag in (("hash", "noise"), ("extreme", "edge")):
        hashed = []

        def record(data):
            hashed.append(data)
            return (1 << 64) - 1  # above delta_fail < 1: no failure

        with mock.patch.object(problems, "_hash_unit", record):
            sim = SimulatedOracles(problem, SimulatedOracleConfig(
                noise_mode=mode, seed=seed, nonce=nonce))
            sim.fptas(x, eps)
            sim.fpras(x, eps, delta_fail)
            sim.fptas(x, eps)  # a repeated call hashes the same bytes
        noise = repr((tag, *parts)).encode()
        assert hashed == [noise, fail, noise, noise]


def test_instance_file_roundtrip():
    inst = generate_knapsack(12, 7)
    text = format_instance(KS, inst)
    problem, parsed = parse_instance(text)
    assert isinstance(problem, Knapsack)
    assert parsed == inst
    ab_problem, n = parse_instance("allbits 5\n")
    assert isinstance(ab_problem, AllBitstrings)
    assert n == 5
    empty = KnapsackInstance(3, ())  # n = 0: the sizes line is blank
    text = format_instance(KS, empty)
    assert text == "knapsack 0 3\n\n"
    problem, parsed = parse_instance(text)
    assert isinstance(problem, Knapsack)
    assert parsed == empty


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_instance("subsetsum 3\n1 2 3\n")
