import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, strategies as st

from roenum import parallel
from roenum.fpras import PrefixDictionary, fpras_trie
from roenum.parallel import (DegeneratePartition, boundary_piece_keys,
                             dequeue, master_phase1, prefill_target,
                             pswor_run, run_parallel, weighted_pick)
from roenum.problem import brute_force_solutions
from roenum.problems import (AllBitstrings, Knapsack, default_oracle_factory,
                             generate_knapsack)
from roenum.swor import swor_enumerate

F = Fraction
ALLBITS = AllBitstrings()
KNAP = Knapsack()


def test_boundary_piece_keys():
    assert boundary_piece_keys("10") == ["0", "1", "10", "11"]
    assert boundary_piece_keys("") == []


def test_master_phase1_allbits_m2_exact():
    factory = default_oracle_factory(ALLBITS)
    assignments, _ = master_phase1(ALLBITS, factory(0), 3, F(1, 10), 2)
    assert [(a.low, a.high) for a in assignments] == \
        [(F(0), F(1, 2)), (F(1, 2), F(1))]
    # the one boundary solution is "100": both slaves share its piece
    for a in assignments:
        assert sorted(a.piece) == sorted(boundary_piece_keys("100"))
    assert all(a.phi_star == F(4, 9) / 8 for a in assignments)


def test_master_phase1_partition_is_exact():
    x = generate_knapsack(10, seed=3)
    factory = default_oracle_factory(KNAP, noise_mode="hash", seed=3)
    assignments, _ = master_phase1(KNAP, factory(0), x, F(1, 20), 4)
    assert assignments[0].low == F(0)
    assert assignments[-1].high == F(1)
    for a, b in zip(assignments, assignments[1:]):
        assert a.high == b.low
        assert a.width > 0


def test_master_phase1_degenerate_m():
    with pytest.raises(DegeneratePartition):
        master_phase1(ALLBITS, default_oracle_factory(ALLBITS)(0), 1,
                      F(1, 10), 8)


def test_slaves_reuse_boundary_pieces(monkeypatch):
    # every preloaded boundary entry must be served from the piece, never
    # recomputed by the slave's own counter
    recomputed = []
    real_lookup = PrefixDictionary.lookup

    def lookup(self, prefix, compute):
        def tracked():
            if prefix in self.preloaded:
                recomputed.append(prefix)
            return compute()
        return real_lookup(self, prefix, tracked)

    monkeypatch.setattr(PrefixDictionary, "lookup", lookup)
    x = generate_knapsack(10, seed=7)
    factory = default_oracle_factory(KNAP, noise_mode="hash", seed=7)
    result = run_parallel(KNAP, x, F(1, 20), 4, seed=7,
                          oracle_factory=factory)
    assert result.complete
    for a, d in zip(result.assignments, result.slave_dicts):
        assert d.preloaded == frozenset(a.piece)
        assert not (d.computed & d.preloaded)
        assert d.piece(a.piece) == a.piece  # no preloaded entry overwritten
        # the piece holds exactly the master's entries for the boundary keys
        for key, value in a.piece.items():
            assert result.master_dict.entries[key] == value
    assert recomputed == []


class FixedDraw:
    """Stands in for the master's rng: its one 96-bit draw is `bits`."""

    def __init__(self, bits):
        self.bits = bits

    def getrandbits(self, k):
        assert k == 96
        return self.bits


def fraction_pick(remaining, bits):
    """Reference: the weighted pick in Fraction arithmetic."""
    u = F(bits, 1 << 96) * sum(w for w in remaining if w > 0)
    for j, w in enumerate(remaining):
        if w > 0:
            if u < w:
                return j
            u -= w
    raise AssertionError("draw beyond the total remaining width")


DRAW_EDGES = (0, (1 << 96) - 1)
# big arbitrary widths, and small dyadic ones that draws of the form k/256
# hit exactly at the boundaries between slaves
WIDTH = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(1, 10**30), st.integers(1, 10**30)),
    st.builds(lambda k, e: F(k, 1 << e), st.integers(1, 8), st.integers(0, 6)))
DRAW = st.one_of(st.integers(0, (1 << 96) - 1),
                 st.integers(0, 255).map(lambda k: k << 88))


@given(remaining=st.lists(WIDTH, min_size=1, max_size=8).filter(
           lambda ws: any(w > 0 for w in ws)),
       bits=DRAW)
@example(remaining=[F(0), F(3, 7), F(0)], bits=0)  # one positive width
@example(remaining=[F(5, 3)], bits=(1 << 96) - 1)
@example(remaining=[F(1, 2), F(0), F(1, 2)], bits=1 << 95)
def test_weighted_pick_matches_fraction_reference(remaining, bits):
    total = sum(w for w in remaining if w > 0)
    for draw in (bits, *DRAW_EDGES):
        assert weighted_pick(remaining, total, FixedDraw(draw)) == \
            fraction_pick(remaining, draw)


@given(remaining=st.lists(WIDTH, min_size=1, max_size=8).filter(
           lambda ws: any(w > 0 for w in ws)))
@example(remaining=[F(1, 3), F(0), F(2, 3)])
@example(remaining=[F(10**30), F(1, 10**30)])  # a width no draw reaches
def test_weighted_pick_exact_law(remaining):
    # slave j owns the draws in [ceil(S_j 2^96/T), ceil((S_j + w_j) 2^96/T)),
    # S_j the positive width before j and T the total: the ranges tile
    # the 2^96 draws, the first and the last draw of each pick j, and its
    # share is w_j/T to within one draw
    total = sum(w for w in remaining if w > 0)
    scale = 1 << 96
    before, first = F(0), 0
    for j, w in enumerate(remaining):
        if w <= 0:
            continue
        before += w
        end = math.ceil(before * scale / total)
        assert abs(F(end - first, scale) - w / total) <= F(1, scale)
        if end > first:
            for draw in (first, end - 1):
                assert weighted_pick(remaining, total, FixedDraw(draw)) == j
        first = end
    assert first == scale


def draw_counts(widths, scale):
    """How many of `scale` equally likely draws k reach each of `widths`,
    laid end to end, when u = k/scale * total descends through them: the
    draws of a width w after S start at ceil(S*scale/T), T the total, as
    `weighted_pick` draws a slave and a trie draws a solution."""
    total, before, first, counts = sum(widths), F(0), 0, []
    for w in widths:
        before += w
        end = math.ceil(before * scale / total)
        counts.append(end - first)
        first = end
    return counts


def guarded_factor(ratio):
    # AXA's guard emits without the test when the ratio is outside (1/4, 1)
    return ratio if F(1, 4) < ratio < 1 else F(1)


def slave_step_law(intervals, phi, depth):
    """A slave's serial step law over the leaf intervals it has not yet
    emitted: an attempt reaches each in its share of the 2^(depth+128)
    draws, and accepts with probability guarded_factor(phi/width)."""
    widths = [high - low for low, high in sorted(intervals)]
    draws = draw_counts(widths, 1 << (max(depth, 1) + 128))
    accepted = [d * guarded_factor(phi / w) for d, w in zip(draws, widths)]
    mass = sum(accepted)
    return [a / mass for a in accepted]


def parallel_step_law_distances(problem, x, m, seed):
    """Run `run_parallel` at delta = 0 with hash noise and Q = 1, and
    compute before each output the exact law of that output: slave j is
    picked in the 96-bit draws `weighted_pick` maps to it, and its next
    record follows its serial step law. Returns the largest
    total-variation distance from uniform over the remaining solutions,
    with that pick and with the exact share R_j/R of the remaining width."""
    factory = default_oracle_factory(problem, noise_mode="hash", seed=seed)
    result = run_parallel(problem, x, F(0), m, seed=seed,
                          oracle_factory=factory, q_override=1)
    assert result.complete
    # each slave's leaf intervals, walked left to right on an unbanned trie
    trie = fpras_trie(problem, factory(0), x, F(0), PrefixDictionary())
    left = [{} for _ in result.assignments]
    y = F(0)
    while y < 1:
        hit = trie.descend(y)
        j = next(i for i, a in enumerate(result.assignments) if y < a.high)
        left[j][hit.solution] = (hit.low, hit.high)
        y = hit.high
    depth = problem.zeta(x)
    laws = [slave_step_law(r.values(), a.phi_star, depth)
            for r, a in zip(left, result.assignments)]
    worst = [F(0), F(0)]
    for record, j in zip(result.outputs, result.output_slaves):
        uniform = F(1, sum(map(len, left)))
        widths = [sum(high - low for low, high in r.values()) for r in left]
        total = sum(widths)
        picks = ([F(d, 1 << 96) for d in draw_counts(widths, 1 << 96)],
                 [w / total for w in widths])
        for k, pick in enumerate(picks):
            tv = sum(abs(p * q - uniform)
                     for p, law in zip(pick, laws) for q in law) / 2
            worst[k] = max(worst[k], tv)
        assert (record.low, record.high) == left[j - 1].pop(record.solution)
        laws[j - 1] = slave_step_law(left[j - 1].values(),
                                     result.assignments[j - 1].phi_star, depth)
    assert not any(left)
    return worst


@pytest.mark.parametrize("m", [2, 4])
def test_parallel_order_is_uniform_when_widths_are_equal(m):
    # an all-bitstrings key is the residual length, so both children of a
    # node get one estimate and every width is equal: with the exact
    # share the law is as close to uniform as the slaves' serial laws, and
    # the 96-bit pick adds its resolution, one draw in 2^96 per slave
    with_pick, exact_share = parallel_step_law_distances(ALLBITS, 7, m, 7)
    assert exact_share <= F(1, 1 << 100)
    assert with_pick <= F(m, 1 << 97) + F(1, 1 << 100)


@pytest.mark.parametrize("n, seed, capacity_frac, m", [
    (10, 4, 0.5, 4), (8, 5, 0.7, 2), (8, 5, 0.7, 3)])
def test_parallel_order_is_biased_when_widths_are_unequal(
        n, seed, capacity_frac, m):
    # known bias (ROADMAP item 2): the pick follows the remaining width
    # R_j/R, so the next output is a given solution of slave j with
    # probability (R_j/R)/n_j, which hash noise makes unequal across slaves
    x = generate_knapsack(n, seed=seed, capacity_frac=capacity_frac)
    with_pick, _ = parallel_step_law_distances(KNAP, x, m, seed)
    assert F(1, 10**3) <= with_pick <= F(1, 10**2)


def test_prefill_target_reference_value():
    assert prefill_target(4, F(1, 2), F(1, 10)) == 230


def test_run_parallel_m1_matches_serial_support():
    x = generate_knapsack(8, seed=1)
    factory = default_oracle_factory(KNAP, noise_mode="hash", seed=1)
    result = run_parallel(KNAP, x, F(1, 10), 1, seed=1,
                          oracle_factory=factory)
    assert result.complete
    assert {r.solution for r in result.outputs} == \
        set(brute_force_solutions(KNAP, x))


@pytest.mark.parametrize("m", [2, 4])
def test_run_parallel_complete_and_routed(m):
    x = generate_knapsack(10, seed=2)
    factory = default_oracle_factory(KNAP, noise_mode="hash", seed=2)
    result = run_parallel(KNAP, x, F(1, 20), m, seed=5,
                          oracle_factory=factory)
    assert result.complete
    words = [r.solution for r in result.outputs]
    assert len(words) == len(set(words))
    assert set(words) == set(brute_force_solutions(KNAP, x))
    # each emission must come from the slave owning its interval
    for rec, idx in zip(result.outputs, result.output_slaves):
        a = result.assignments[idx - 1]
        assert a.low <= rec.low and rec.high <= a.high


def test_run_parallel_ticks_monotone_and_prefill():
    result = run_parallel(ALLBITS, 5, F(1, 10), 2, seed=9,
                          oracle_factory=default_oracle_factory(ALLBITS),
                          s_ticks=10, t_ticks=30, q_override=3)
    assert result.prefill_q == 3
    assert result.prefill_tick == 3 * 10 + 30
    ticks = [r.tick for r in result.outputs]
    assert all(a <= b for a, b in zip(ticks, ticks[1:]))
    assert result.makespan == ticks[-1]


def test_run_parallel_paced_gap_is_constant_without_stalls():
    # pace = (1+alpha) * (3/2) * t/m; with deep prefill no stall occurs
    result = run_parallel(ALLBITS, 6, F(1, 10), 4, seed=3,
                          oracle_factory=default_oracle_factory(ALLBITS),
                          mode="paced", alpha=F(1, 2),
                          s_ticks=10, t_ticks=40, q_override=16)
    pace = F(3, 2) * F(3, 2) * F(40, 4)
    assert result.stalls == 0
    assert all(g == pace for g in result.gaps)
    assert result.complete


def test_run_parallel_greedy_op_cost_spacing():
    result = run_parallel(ALLBITS, 4, F(1, 10), 2, seed=11,
                          oracle_factory=default_oracle_factory(ALLBITS),
                          mode="greedy", s_ticks=1, t_ticks=8, q_override=16)
    # with everything prefilled, outputs are spaced exactly t/m apart
    assert all(g == F(8, 2) for g in result.gaps)


def test_run_parallel_rejects_an_unknown_mode():
    # a misspelled mode must not run greedy in its place
    with pytest.raises(ValueError, match="'pacde'"):
        run_parallel(ALLBITS, 3, F(1, 10), 2, seed=0,
                     oracle_factory=default_oracle_factory(ALLBITS),
                     mode="pacde")


def test_run_parallel_max_outputs_truncates():
    result = run_parallel(ALLBITS, 6, F(1, 10), 2, seed=0,
                          oracle_factory=default_oracle_factory(ALLBITS),
                          max_outputs=5, q_override=1)
    assert len(result.outputs) == 5
    assert not result.complete


def test_run_parallel_max_outputs_zero_ends_at_the_prefill():
    result = run_parallel(ALLBITS, 5, F(1, 10), 2, seed=9,
                          oracle_factory=default_oracle_factory(ALLBITS),
                          s_ticks=10, t_ticks=30, q_override=3,
                          max_outputs=0)
    assert result.outputs == [] and result.gaps == []
    assert result.makespan == result.prefill_tick == 3 * 10 + 30
    assert not result.complete


def test_dequeue_names_a_slave_drained_early():
    with pytest.raises(RuntimeError, match="slave 1 drained"):
        list(dequeue([iter([])], [F(1)], random.Random(0)))


def test_run_parallel_reads_no_record_past_its_output(monkeypatch):
    # after the prefill of Q records, each output advances only the slave
    # it was taken from, by one record
    q, cap = 3, 7
    pulls = {}
    real_session = parallel.slave_session

    def counted_session(problem, oracles, x, a, rng):
        gen, dictionary = real_session(problem, oracles, x, a, rng)
        pulls[a.index] = 0

        def counted():
            for rec in gen:
                pulls[a.index] += 1
                yield rec
        return counted(), dictionary

    monkeypatch.setattr(parallel, "slave_session", counted_session)
    result = run_parallel(ALLBITS, 6, F(1, 10), 3, seed=4,
                          oracle_factory=default_oracle_factory(ALLBITS),
                          s_ticks=1, t_ticks=30, q_override=q,
                          max_outputs=cap)
    assert len(result.outputs) == cap
    assert sorted(pulls) == [1, 2, 3]
    for index, n in pulls.items():
        assert n <= q + result.output_slaves.count(index)


def test_run_parallel_raises_a_slave_error(monkeypatch):
    # slave 1 yields 3 records and then raises: the master passes that
    # error on, neither reporting a drained slave nor returning a partial
    # result, whether the failure comes in the prefill or after it
    real_session = parallel.slave_session

    def failing_session(problem, oracles, x, a, rng):
        gen, dictionary = real_session(problem, oracles, x, a, rng)
        if a.index != 1:
            return gen, dictionary

        def three_then_fail():
            yield from islice(gen, 3)
            raise ValueError("slave 1 failed")
        return three_then_fail(), dictionary

    monkeypatch.setattr(parallel, "slave_session", failing_session)
    x = generate_knapsack(9, seed=8)
    factory = default_oracle_factory(KNAP, noise_mode="hash", seed=8)
    for q_override in (1, None):
        with pytest.raises(ValueError, match="slave 1 failed"):
            run_parallel(KNAP, x, F(1, 10), 3, seed=8,
                         oracle_factory=factory, q_override=q_override)


def test_pswor_complete_and_paced_by_s():
    outputs, draws, makespan = pswor_run(ALLBITS, ALLBITS.exact_count, 5,
                                         m=2, seed=4, s_ticks=7, t_ticks=20)
    words = [r.solution for r in outputs]
    assert set(words) == set(brute_force_solutions(ALLBITS, 5))
    assert len(words) == len(set(words))
    assert draws >= 32
    assert makespan == max(r.tick for r in outputs)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("s_ticks", [0, 7])
def test_pswor_is_serial_swor_on_the_clock(m, s_ticks):
    serial = list(swor_enumerate(ALLBITS, ALLBITS.exact_count, 4,
                                 random.Random(9)))
    outputs, draws, makespan = pswor_run(ALLBITS, ALLBITS.exact_count, 4,
                                         m=m, seed=9, s_ticks=s_ticks,
                                         t_ticks=20)
    assert [r.solution for r in outputs] == [r.solution for r in serial]
    assert [r.attempts for r in outputs] == [r.attempts for r in serial]
    k = 0  # candidates drawn so far; the k-th comes from slave (k-1) mod m
    for record in outputs:
        k += record.attempts
        assert record.tick == ((k - 1) // m + 1) * s_ticks + 20
    assert draws == k
    assert makespan == outputs[-1].tick
    cut, _, _ = pswor_run(ALLBITS, ALLBITS.exact_count, 4, m=m, seed=9,
                          s_ticks=s_ticks, t_ticks=20, max_outputs=5)
    assert cut == outputs[:5]
