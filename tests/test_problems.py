import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from roenum import problems
from roenum.problem import brute_force_solutions
from roenum.problems import (AllBitstrings, Knapsack, KnapsackInstance,
                             SimulatedOracleConfig, SimulatedOracles,
                             format_instance, generate_knapsack,
                             parse_instance)

KS = Knapsack()


@pytest.mark.parametrize("inst,expected", [
    (KnapsackInstance(3, (1, 2, 3)), 5),
    (KnapsackInstance(0, (1, 1)), 1),
    (KnapsackInstance(6, (1, 2, 3)), 8),
    (KnapsackInstance(None, (4, 4)), 0),
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


def test_all_bitstrings_closed_form():
    ab = AllBitstrings()
    for n in range(6):
        for k in range(n + 1):
            assert ab.exact_count(ab.reduce(n, "0" * k)) == 1 << (n - k)


def test_fptas_zero_iff_empty():
    sim = SimulatedOracles(KS, SimulatedOracleConfig(noise_mode="hash"))
    assert sim.fptas(KnapsackInstance(None, (2,)), Fraction(1, 4)) == 0
    assert sim.fptas(KnapsackInstance(2, (1,)), Fraction(1, 4)) >= 1


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


def test_instance_file_roundtrip():
    inst = generate_knapsack(12, 7)
    text = format_instance(KS, inst)
    problem, parsed = parse_instance(text)
    assert isinstance(problem, Knapsack)
    assert parsed == inst
    ab_problem, n = parse_instance("allbits 5\n")
    assert isinstance(ab_problem, AllBitstrings)
    assert n == 5


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_instance("subsetsum 3\n1 2 3\n")
