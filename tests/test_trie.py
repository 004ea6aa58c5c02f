import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from roenum import trie as trie_module
from roenum.fpras import (PrefixDictionary, axa_enumerate, fpras_trie,
                          guarded_accept, root_estimate)
from roenum.fptas import aia_enumerate, bernoulli_less, fptas_trie
from roenum.parallel import RangeAssignment, master_phase1, slave_session
from roenum.problem import brute_force_solutions
from roenum.problems import (AllBitstrings, Knapsack, SimulatedOracleConfig,
                             SimulatedOracles, generate_knapsack)
from roenum.record import EmissionRecord
from roenum.trie import SelfReductionTrie, _Node, enumerate_trie

F = Fraction
KNAP = Knapsack()


def uneven(word):
    # child 0 gets 1/4, 1/2 or 3/4 of a node, by the node's prefix
    n0 = 1 + word.count("1") % 3
    return n0, 4 - n0


def dyadic(word):
    return 1, 1


def old_pivot(low, high, n0, n1):
    # the pivot as a share and three normalised operations
    return low + F(n0, n0 + n1) * (high - low)


def reference_leaves(split, depth):
    """Every leaf's interval, by recursing the split outside the trie."""
    out = {}

    def walk(word, low, high):
        if len(word) == depth:
            out[word] = (low, high)
            return
        pivot = old_pivot(low, high, *split(word))
        walk(word + "0", low, pivot)
        walk(word + "1", pivot, high)

    walk("", F(0), F(1))
    return out


def reference_shift(intervals, y):
    # sorted-list reference: the y-th point of [0,1) outside the intervals
    b = F(0)
    for low, high in sorted(intervals):
        if y + b < low:
            break
        b += high - low
    return y + b


def drawn_and_banned(depth, count, seed):
    """A trie with `count` random leaves drawn (on the unbanned trie, where
    y = r) and then banned; returns (trie, leaves, banned words)."""
    leaves = reference_leaves(uneven, depth)
    banned = random.Random(seed).sample(sorted(leaves), count)
    trie = SelfReductionTrie(depth, uneven)
    hits = [trie.descend(leaves[word][0]) for word in banned]
    for word, hit in zip(banned, hits):
        assert (hit.solution, hit.low, hit.high) == (word, *leaves[word])
    for hit in hits:
        trie.ban(hit)
    return trie, leaves, set(banned)


def test_descend_hand_walks():
    trie = SelfReductionTrie(2, dyadic)
    hit = trie.descend(F(1, 3))
    assert (hit.solution, hit.low, hit.high) == ("01", F(1, 4), F(1, 2))
    trie.ban(trie.descend(F(0)))
    assert trie.available == F(3, 4)
    # the first quarter is banned: every draw shifts past it
    hit = trie.descend(F(1, 8))
    assert (hit.solution, hit.low, hit.high) == ("01", F(1, 4), F(1, 2))
    hit = trie.descend(F(1, 4))
    assert hit.solution == "10"
    trie.ban(hit)
    assert trie.descend(F(1, 4)).solution == "11"


def test_ban_adds_mass_along_path():
    trie = SelfReductionTrie(2, uneven)
    trie.ban(trie.descend(F(0)))
    assert trie.available == 1 - F(1, 4) * F(1, 4)
    assert trie.root.banned == trie.root.left.banned == F(1, 16)
    assert trie.root.right.banned == 0


def test_two_bans_add_and_keep_order():
    trie = SelfReductionTrie(2, dyadic)
    trie.ban(trie.descend(F(0)))  # "00" = [0, 1/4)
    trie.ban(trie.descend(F(1, 4)))  # "10" = [1/2, 3/4), past the first ban
    assert trie.root.banned == F(1, 2)
    assert trie.root.left.banned == trie.root.right.banned == F(1, 4)
    assert trie.available == F(1, 2)
    # what is left is "01" then "11", in the order of [0,1)
    assert [trie.descend(y).solution for y in (F(0), F(1, 4))] == \
        ["01", "11"]


def test_ban_twice_raises():
    trie = SelfReductionTrie(3, uneven)
    hit = trie.descend(F(1, 2))
    trie.ban(hit)
    with pytest.raises(ValueError):
        trie.ban(hit)
    # banning both halves prunes the root's children
    halves = SelfReductionTrie(1, dyadic)
    first, second = halves.descend(F(0)), halves.descend(F(1, 2))
    halves.ban(first)
    halves.ban(second)
    assert halves.root.left is None
    with pytest.raises(ValueError):
        halves.ban(first)


def test_ban_outside_span_raises():
    # a leaf outside the span starts banned
    clipped = SelfReductionTrie(2, dyadic, span=(F(1, 4), F(1)))
    assert clipped.available == F(3, 4)
    with pytest.raises(ValueError):
        clipped.ban(EmissionRecord("00", F(0), F(1, 4), F(1, 4)))


def test_span_must_end_on_a_leaf_endpoint():
    with pytest.raises(ValueError):
        SelfReductionTrie(2, dyadic, span=(F(1, 3), F(1)))


@st.composite
def node_ends(draw):
    # denominators up to 2^256 stand for deep nodes, whose endpoints carry
    # the product of every estimate sum above them
    ends = []
    for _ in range(2):
        den = draw(st.integers(1, 1 << 256))
        ends.append(F(draw(st.integers(0, den)), den))
    low, high = sorted(ends)
    assume(low < high)
    return low, high


ESTIMATE = st.integers(1, 1 << 64)
ESTIMATES = st.one_of(st.just((1, 1)), st.tuples(st.just(0), ESTIMATE),
                      st.tuples(ESTIMATE, st.just(0)),
                      st.tuples(ESTIMATE, ESTIMATE))


@settings(max_examples=300, deadline=None)
@given(ends=node_ends(), estimates=ESTIMATES)
@example(ends=(F(0), F(1)), estimates=(1, 1))
@example(ends=(F(1, 3), F(1, 2)), estimates=(0, 7))
@example(ends=(F(1, 3), F(1, 2)), estimates=(7, 0))
def test_expand_pivot_matches_the_share_formula(ends, estimates):
    low, high = ends
    trie = SelfReductionTrie(1, lambda word: estimates)
    pair = trie._expand(trie.root, "", *low.as_integer_ratio(),
                        *high.as_integer_ratio())
    assert pair == trie.root.pivot
    num, den = pair
    assert F(num, den) == old_pivot(low, high, *estimates)
    assert den > 0 and math.gcd(num, den) == 1
    assert low <= F(num, den) <= high


@pytest.mark.parametrize("count", [1, 3, 10, 100, 1000])
def test_descend_matches_reference_shift(count):
    trie, leaves, banned = drawn_and_banned(11, count, seed=count)
    intervals = [leaves[w] for w in banned]
    assert trie.available == 1 - sum(h - l for l, h in intervals)
    for k in range(200):
        y = F(k, 200) * trie.available
        hit = trie.descend(y)
        r = reference_shift(intervals, y)
        assert hit.low <= r < hit.high
        assert (hit.low, hit.high) == leaves[hit.solution]
        assert hit.solution not in banned


def test_descend_is_monotone():
    trie, _, _ = drawn_and_banned(9, 50, seed=7)
    lows = [trie.descend(F(k, 500) * trie.available).low for k in range(500)]
    assert all(a <= b for a, b in zip(lows, lows[1:]))


def test_descend_avoids_banned():
    trie, _, banned = drawn_and_banned(6, 20, seed=11)
    rng = random.Random(11)
    for _ in range(500):
        y = F(rng.getrandbits(40), 1 << 40) * trie.available
        assert trie.descend(y).solution not in banned


def test_banned_mass_consistency_after_bans():
    trie, leaves, banned = drawn_and_banned(10, 500, seed=3)

    def check(node, low, high):
        if node.left is None:  # unexpanded, or pruned when fully banned
            assert node.banned in (0, high - low)
            return
        pivot = F(*node.pivot)
        check(node.left, low, pivot)
        check(node.right, pivot, high)
        assert node.banned == node.left.banned + node.right.banned

    check(trie.root, F(0), F(1))
    assert trie.root.banned == sum(leaves[w][1] - leaves[w][0]
                                   for w in banned)
    assert trie.available == 1 - trie.root.banned


class FractionTrie(SelfReductionTrie):
    """The trie with `Fraction` pivots and bounds, as the reference of the
    pair trie. `__init__` and `ban` are shared: they read only the banned
    masses, which are `Fraction`s in both."""

    def _expand(self, node, word, low, high):
        node.pivot = pivot = old_pivot(low, high, *self.split(word))
        node.left, node.right = _Node(), _Node()
        return pivot

    def _clip(self, node, word, low, high, lo, hi):
        if high <= lo or hi <= low:
            node.banned = high - low
        elif low < lo or hi < high:
            if len(word) == self.depth:
                raise ValueError(f"span end inside the interval of {word!r}")
            pivot = self._expand(node, word, low, high)
            self._clip(node.left, word + "0", low, pivot, lo, hi)
            self._clip(node.right, word + "1", pivot, high, lo, hi)
            node.banned = node.left.banned + node.right.banned

    def descend(self, y):
        node, word, low, high, r = self.root, "", F(0), F(1), y
        for _ in range(self.depth):
            pivot = node.pivot
            if pivot is None:
                pivot = self._expand(node, word, low, high)
            left = node.left
            shifted = r + left.banned if left.banned else r
            if shifted < pivot:
                node, word, high = left, word + "0", pivot
            else:
                node, word, low, r = node.right, word + "1", pivot, shifted
        return EmissionRecord(word, low, high, high - low)


def random_split(seed):
    # per-prefix estimates: a zero on one side, one, or up to 2^64
    def split(word):
        rng = random.Random(f"{seed}/{word}")
        n0, n1 = (rng.choice((0, 1, rng.getrandbits(64))) for _ in range(2))
        return (n0, n1) if n0 + n1 else (1, 1)

    return split


def same_nodes(pair, ref):
    """Walk two tries together: equal pivots, banned masses and shape."""
    assert (pair.left is None) == (ref.left is None)
    assert pair.banned == ref.banned
    assert (pair.pivot is None) == (ref.pivot is None)
    if pair.pivot is not None:
        assert F(*pair.pivot) == ref.pivot
    if pair.left is not None:
        same_nodes(pair.left, ref.left)
        same_nodes(pair.right, ref.right)


@settings(max_examples=200, deadline=None)
@given(depth=st.integers(0, 9), seed=st.integers(0, 1 << 32),
       draws=st.integers(0, 40), data=st.data())
def test_pair_trie_matches_the_fraction_reference(depth, seed, draws, data):
    split = random_split(seed)
    ends = sorted({end for leaf in reference_leaves(split, depth).values()
                   for end in leaf})
    lo = data.draw(st.sampled_from(ends[:-1]))
    hi = data.draw(st.sampled_from([e for e in ends if e > lo]))
    pair = SelfReductionTrie(depth, split, (lo, hi))
    ref = FractionTrie(depth, split, (lo, hi))
    rng = random.Random(seed)
    for _ in range(draws):
        assert pair.available == ref.available
        if not pair.available:
            break
        y = F(rng.getrandbits(64), 1 << 64) * pair.available
        got, want = pair.descend(y), ref.descend(y)
        assert (got.solution, got.low, got.high, got.width) == \
            (want.solution, want.low, want.high, want.width)
        pair.ban(got)
        ref.ban(want)
    same_nodes(pair.root, ref.root)


def test_exhausted_trie_emits_nothing():
    trie = SelfReductionTrie(2, dyadic)
    records = list(enumerate_trie(trie, random.Random(0), F(1, 9),
                                  bernoulli_less))
    assert sorted(r.solution for r in records) == ["00", "01", "10", "11"]
    assert trie.available == 0
    assert trie.root.left is None  # the banned tree is dropped
    assert list(enumerate_trie(trie, random.Random(0), F(1, 9),
                               bernoulli_less)) == []


def assert_tiles(records, low, high):
    spans = sorted((r.low, r.high) for r in records)
    assert spans[0][0] == low and spans[-1][1] == high
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert sum(r.width for r in records) == high - low


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 8), instance_seed=st.integers(0, 1 << 16),
       noise=st.sampled_from(["none", "hash", "extreme"]),
       nonce=st.integers(0, 1 << 16), data=st.data())
def test_emissions_are_the_solutions_and_tile_the_span(
        n, instance_seed, noise, nonce, data):
    x = generate_knapsack(n, seed=instance_seed)
    sim = SimulatedOracles(KNAP, SimulatedOracleConfig(
        noise_mode=noise, seed=instance_seed, nonce=nonce))
    brute = brute_force_solutions(KNAP, x)

    aia = list(aia_enumerate(KNAP, sim.fptas, x, random.Random(nonce)))
    assert sorted(r.solution for r in aia) == sorted(brute)
    assert_tiles(aia, F(0), F(1))

    # delta = 1/2 makes failed counter calls likely
    full = list(axa_enumerate(KNAP, sim.fpras, x, F(1, 2),
                              random.Random(nonce)))
    assert sorted(r.solution for r in full) == sorted(brute)
    assert_tiles(full, F(0), F(1))

    ends = sorted({r.low for r in full} | {F(1)})
    lo = data.draw(st.sampled_from(ends[:-1]))
    hi = data.draw(st.sampled_from([e for e in ends if e > lo]))
    phi = F(4, 9) / root_estimate(KNAP, sim.fpras, x, F(1, 2))
    part, _ = slave_session(KNAP, sim.fpras, x,
                            RangeAssignment(1, lo, hi, {}, phi, F(1, 2)),
                            random.Random(nonce + 1))
    part = list(part)
    inside = {r.solution for r in full if lo <= r.low and r.high <= hi}
    assert sorted(r.solution for r in part) == sorted(inside)
    assert_tiles(part, lo, hi)


def test_every_split_asks_for_one_eps():
    # one accuracy and one failure budget per trie: every split at
    # 1/(8*d0), the root at 1/3, and each randomized call at
    # delta/2**(d0+1); a slave asks for no root estimate
    x, delta = generate_knapsack(7, seed=4), F(1, 10)
    budget = delta / 2 ** 8
    asked = []  # (instance, eps, failure budget) of every counter call

    def fptas(y, eps):
        asked.append((y, eps, None))
        return KNAP.exact_count(y)

    def fpras(y, eps, fail_budget):
        asked.append((y, eps, fail_budget))
        return KNAP.exact_count(y)

    slave = master_phase1(KNAP, fpras, x, delta, 3)[0][1]
    root = [(F(1, 3), budget)]
    sessions = [  # (session, its split budget, its root calls)
        (lambda: list(aia_enumerate(KNAP, fptas, x, random.Random(1))),
         None, [(F(1, 3), None)]),
        (lambda: list(axa_enumerate(KNAP, fpras, x, delta,
                                    random.Random(1))), budget, root),
        (lambda: master_phase1(KNAP, fpras, x, delta, 3), budget, root),
        (lambda: list(slave_session(KNAP, fpras, x, slave,
                                    random.Random(1))[0]), budget, []),
    ]
    for session, fail_budget, root_calls in sessions:
        asked.clear()
        session()
        assert [(eps, b) for y, eps, b in asked if y == x] == root_calls
        assert {(eps, b) for y, eps, b in asked if y != x} == \
            {(F(1, 8 * 7), fail_budget)}


def leaf_intervals(trie):
    """Every solution's interval on an unbanned trie, walked left to right
    (there y = r, so each descent starts where the last interval ends)."""
    out, y = {}, F(0)
    while y < 1:
        hit = trie.descend(y)
        assert hit.low == y < hit.high
        out[hit.solution] = (hit.low, hit.high)
        y = hit.high
    return out


def pinned_session(trie, reference, records):
    """Run a session, checking before each emission and after the last
    that `descend` maps a_w, the unbanned mass left of w, to w and its
    exact interval for every solution w not yet emitted. Returns the
    emissions."""
    remaining = dict(reference)
    emitted = []
    for record in itertools.chain([None], records):
        if record is not None:
            assert (record.low, record.high) == remaining.pop(record.solution)
            emitted.append(record)
        a_w = F(0)
        for w, (low, high) in sorted(remaining.items(), key=lambda i: i[1]):
            hit = trie.descend(a_w)
            assert (hit.solution, hit.low, hit.high, hit.width) == \
                (w, low, high, high - low)
            a_w += high - low
        assert trie.available == a_w
    assert remaining == {}
    return emitted


# Each map session returns (trie, reference intervals, the session's
# emissions on that trie, the same session run by its public entry point).

def aia_map_session():
    x = generate_knapsack(10, seed=5)  # 101 solutions
    fptas = SimulatedOracles(KNAP, SimulatedOracleConfig(
        noise_mode="extreme", seed=5)).fptas
    reference = leaf_intervals(fptas_trie(KNAP, fptas, x))
    assert sorted(reference) == sorted(brute_force_solutions(KNAP, x))
    trie = fptas_trie(KNAP, fptas, x)
    phi = F(4, 9) / fptas(x, F(1, 3))
    return (trie, reference,
            enumerate_trie(trie, random.Random(5), phi, bernoulli_less),
            aia_enumerate(KNAP, fptas, x, random.Random(5)))


def axa_map_session():
    # delta = 0: no counter call fails, so a fresh dictionary gives the
    # same pivots
    x = generate_knapsack(9, seed=3)  # 57 solutions
    fpras = SimulatedOracles(KNAP, SimulatedOracleConfig(
        noise_mode="hash", seed=3)).fpras
    reference = leaf_intervals(
        fpras_trie(KNAP, fpras, x, F(0), PrefixDictionary()))
    assert sorted(reference) == sorted(brute_force_solutions(KNAP, x))
    trie = fpras_trie(KNAP, fpras, x, F(0), PrefixDictionary())
    phi = F(4, 9) / root_estimate(KNAP, fpras, x, F(0))
    return (trie, reference,
            enumerate_trie(trie, random.Random(3), phi, guarded_accept),
            axa_enumerate(KNAP, fpras, x, F(0), random.Random(3)))


def span_map_session():
    # slave 2 of 3 on a delta = 0 partition
    x = generate_knapsack(10, seed=4)
    fpras = SimulatedOracles(KNAP, SimulatedOracleConfig(
        noise_mode="hash", seed=4)).fpras
    a = master_phase1(KNAP, fpras, x, F(0), 3)[0][1]
    full = leaf_intervals(
        fpras_trie(KNAP, fpras, x, F(0), PrefixDictionary()))
    reference = {w: (low, high) for w, (low, high) in full.items()
                 if a.low <= low and high <= a.high}
    trie = fpras_trie(KNAP, fpras, x, a.delta,
                      PrefixDictionary(preloaded=a.piece), (a.low, a.high))
    return (trie, reference,
            enumerate_trie(trie, random.Random(4), a.phi_star,
                           guarded_accept),
            slave_session(KNAP, fpras, x, a, random.Random(4))[0])


@pytest.mark.parametrize("session", [aia_map_session, axa_map_session,
                                     span_map_session],
                         ids=["aia-extreme", "axa-hash", "slave-span"])
def test_descend_maps_remaining_mass_to_each_solution(session):
    trie, reference, records, public = session()
    assert pinned_session(trie, reference, records) == list(public)


def aia_factor(ratio):
    return min(F(1), ratio)


def guarded_factor(ratio):
    # AXA's guard emits without the test when the ratio is outside (1/4, 1)
    return ratio if F(1, 4) < ratio < 1 else F(1)


def step_law_distances(records, remaining, phi, factor, depth):
    """Compute before each emission of a session the exact law of that
    emission from the remaining widths. Returns the largest
    total-variation distance from uniform over the remaining solutions,
    with the rejection step and without it.

    `remaining` maps each solution not yet emitted to its interval. An
    attempt draws k uniform below 2^bits, bits = max(depth, 1) + 128, and
    descends from y = k/2^bits * A, A the remaining width, so it reaches w
    for ceil((a_w + width_w) 2^bits/A) - ceil(a_w 2^bits/A) values of k,
    a_w the remaining width left of w (the map test pins which draws reach
    which solution). It accepts w with probability factor(phi/width_w).
    """
    scale = 1 << (max(depth, 1) + 128)
    worst = [F(0), F(0)]
    for record in records:
        intervals = sorted(remaining.values())
        total = sum(high - low for low, high in intervals)
        drawn, accepted, a_w = [], [], F(0)
        for low, high in intervals:
            width = high - low
            draws = (math.ceil((a_w + width) * scale / total)
                     - math.ceil(a_w * scale / total))
            accepted.append(draws * factor(phi / width))
            drawn.append(draws)
            a_w += width
        for k, law in enumerate((accepted, drawn)):
            mass, r = sum(law), len(law)
            worst[k] = max(worst[k],
                           sum(abs(p / mass - F(1, r)) for p in law) / 2)
        assert (record.low, record.high) == remaining.pop(record.solution)
    assert remaining == {}
    return worst


def aia_step_law_distances(x, seed):
    """The step-law distances of a full AIA session with extreme noise."""
    fptas = SimulatedOracles(KNAP, SimulatedOracleConfig(
        noise_mode="extreme", seed=seed)).fptas
    remaining = leaf_intervals(fptas_trie(KNAP, fptas, x))
    phi = F(4, 9) / fptas(x, F(1, 3))
    return step_law_distances(
        aia_enumerate(KNAP, fptas, x, random.Random(seed)), remaining, phi,
        aia_factor, KNAP.zeta(x))


def axa_step_law_distances(x, seed):
    """The step-law distances of a full AXA session with hash noise and
    delta = 0, so no counter call fails."""
    fpras = SimulatedOracles(KNAP, SimulatedOracleConfig(
        noise_mode="hash", seed=seed)).fpras
    remaining = leaf_intervals(
        fpras_trie(KNAP, fpras, x, F(0), PrefixDictionary()))
    phi = F(4, 9) / root_estimate(KNAP, fpras, x, F(0))
    return step_law_distances(
        axa_enumerate(KNAP, fpras, x, F(0), random.Random(seed)), remaining,
        phi, guarded_factor, KNAP.zeta(x))


def slave_step_law_distances(x, seed):
    """The step-law distances of slave 2 of 3 on a delta = 0 partition
    with hash noise, over the solutions of its span."""
    fpras = SimulatedOracles(KNAP, SimulatedOracleConfig(
        noise_mode="hash", seed=seed)).fpras
    a = master_phase1(KNAP, fpras, x, F(0), 3)[0][1]
    full = leaf_intervals(
        fpras_trie(KNAP, fpras, x, F(0), PrefixDictionary()))
    remaining = {w: (low, high) for w, (low, high) in full.items()
                 if a.low <= low and high <= a.high}
    records, _ = slave_session(KNAP, fpras, x, a, random.Random(seed))
    return step_law_distances(records, remaining, a.phi_star,
                              guarded_factor, KNAP.zeta(x))


@pytest.mark.parametrize("seed, capacity_frac", [(5, 0.7), (3, 0.6)])
def test_aia_emission_is_uniform_over_the_remaining_at_every_step(
        seed, capacity_frac):
    # extreme noise gives these knapsacks unequal widths, so without the
    # rejection step the law is far from uniform
    x = generate_knapsack(8, seed=seed, capacity_frac=capacity_frac)
    with_rejection, without = aia_step_law_distances(x, seed)
    assert with_rejection <= F(1, 1 << 100)
    assert without > F(1, 1 << 20)


@pytest.mark.parametrize("law, n, seed, capacity_frac", [
    (axa_step_law_distances, 8, 5, 0.7),
    (slave_step_law_distances, 10, 4, 0.5),
], ids=["axa-hash", "slave-span"])
def test_guarded_emission_is_uniform_over_the_remaining_at_every_step(
        law, n, seed, capacity_frac):
    # hash noise leaves unequal widths, so without the rejection step the
    # law is far from uniform
    x = generate_knapsack(n, seed=seed, capacity_frac=capacity_frac)
    with_rejection, without = law(x, seed)
    assert with_rejection <= F(1, 1 << 100)
    assert without > F(1, 1 << 20)


# ---------------------------------------------------------------------------
# Each distinct residual counted once per trie: a session on the tiers'
# tries emits what a trie splitting through uncached counter calls emits.

ALLBITS = AllBitstrings()
MEMO_CASES = {
    "knapsack": (KNAP, generate_knapsack(10, seed=4, capacity_frac=0.5)),
    "allbits": (ALLBITS, 8),
}


def memo_oracles(problem, x, noise, nonce=0):
    # "forced": hash noise and one always-failing residual, "01"'s
    forced = (frozenset([problem.instance_key(problem.reduce(x, "01"))])
              if noise == "forced" else frozenset())
    return SimulatedOracles(problem, SimulatedOracleConfig(
        noise_mode="hash" if noise == "forced" else noise, seed=7,
        nonce=nonce, forced_failures=forced))


def uncached_fptas_trie(problem, fptas, x):
    d0 = problem.zeta(x)
    eps = F(1, 8 * max(d0, 1))

    def split(word):
        return (fptas(problem.reduce(x, word + "0"), eps),
                fptas(problem.reduce(x, word + "1"), eps))

    return SelfReductionTrie(d0, split)


def uncached_fpras_trie(problem, fpras, x, delta, dictionary,
                        span=(F(0), F(1))):
    d0 = problem.zeta(x)
    eps, budget = F(1, 8 * max(d0, 1)), F(delta, 1 << (d0 + 1))

    def split(word):
        n0, n1 = (dictionary.lookup(
            w, lambda w=w: fpras(problem.reduce(x, w), eps, budget))
            for w in (word + "0", word + "1"))
        return (n0, n1) if n0 + n1 else (1, 1)

    return SelfReductionTrie(d0, split, span)


def assert_complete(problem, x, records):
    assert sorted(r.solution for r in records) == \
        sorted(brute_force_solutions(problem, x))
    assert sum(r.width for r in records) == 1


@pytest.mark.parametrize("noise", ["hash", "extreme"])
@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_aia_session_matches_uncached_counts(case, noise):
    problem, x = MEMO_CASES[case]
    sim = memo_oracles(problem, x, noise)
    records = list(aia_enumerate(problem, sim.fptas, x, random.Random(3)))
    ref = memo_oracles(problem, x, noise)
    phi = F(4, 9) / ref.fptas(x, F(1, 3))
    expected = list(enumerate_trie(uncached_fptas_trie(problem, ref.fptas, x),
                                   random.Random(3), phi, bernoulli_less))
    assert records == expected
    assert_complete(problem, x, records)
    assert sim.calls["fptas"] < ref.calls["fptas"]


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_aia_counts_one_residual_per_depth_on_allbits(n):
    # the root at eps 1/3, then one residual for each of the depths 1..n
    sim = memo_oracles(ALLBITS, n, "hash")
    records = list(aia_enumerate(ALLBITS, sim.fptas, n, random.Random(n)))
    assert len(records) == 1 << n
    assert sim.calls["fptas"] == n + 1


@pytest.mark.parametrize("noise", ["hash", "extreme", "forced"])
@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_axa_session_matches_uncached_counts(case, noise, monkeypatch):
    problem, x = MEMO_CASES[case]
    delta = F(1, 10)
    dictionaries = []
    init = PrefixDictionary.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        dictionaries.append(self)

    monkeypatch.setattr(PrefixDictionary, "__init__", recorded)
    sim = memo_oracles(problem, x, noise, nonce=2)
    records = list(axa_enumerate(problem, sim.fpras, x, delta,
                                 random.Random(3)))
    # a serial session builds no prefix dictionary: its trie keeps each
    # pivot, which fixes the partition
    assert dictionaries == []
    ref = memo_oracles(problem, x, noise, nonce=2)
    ref_dict = PrefixDictionary()
    assert dictionaries == [ref_dict]  # the patch sees a construction
    phi = F(4, 9) / root_estimate(problem, ref.fpras, x, delta)
    expected = list(enumerate_trie(
        uncached_fpras_trie(problem, ref.fpras, x, delta, ref_dict),
        random.Random(3), phi, guarded_accept))
    assert records == expected
    assert_complete(problem, x, records)
    assert sim.calls["fpras"] < ref.calls["fpras"]
    if noise == "forced":
        assert sim.failures > 0


def dictionary_case_counter(problem, x, noise):
    """(oracles, fpras) for one dictionary case. "zero": hash noise, and
    every residual two levels below the root estimates 0, so each node
    at depth 1 takes the midpoint fallback."""
    sim = memo_oracles(problem, x, "hash" if noise == "zero" else noise,
                       nonce=2)
    if noise != "zero":
        return sim, sim.fpras
    depth = problem.zeta(x) - 2

    def fpras(residual, eps, budget):
        if problem.zeta(residual) == depth:
            return 0
        return sim.fpras(residual, eps, budget)

    return sim, fpras


@pytest.mark.parametrize("noise", ["hash", "extreme", "forced", "zero"])
@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_fpras_trie_with_and_without_dictionary_agree(case, noise,
                                                      monkeypatch):
    # the trie fixes each pivot once, so a dictionary in front of the
    # split changes no interval and no record
    computes = []  # (dictionary, prefix) of every compute a lookup runs
    real_lookup = PrefixDictionary.lookup

    def lookup(self, prefix, compute):
        def counted():
            computes.append((self, prefix))
            return compute()
        return real_lookup(self, prefix, counted)

    monkeypatch.setattr(PrefixDictionary, "lookup", lookup)
    problem, x = MEMO_CASES[case]
    delta = F(1, 10)
    _, bare = dictionary_case_counter(problem, x, noise)
    _, kept = dictionary_case_counter(problem, x, noise)
    assert leaf_intervals(fpras_trie(problem, bare, x, delta)) == \
        leaf_intervals(fpras_trie(problem, kept, x, delta, PrefixDictionary()))

    sim, bare = dictionary_case_counter(problem, x, noise)
    records = list(axa_enumerate(problem, bare, x, delta, random.Random(3)))
    _, kept = dictionary_case_counter(problem, x, noise)
    dictionary = PrefixDictionary()
    phi = F(4, 9) / root_estimate(problem, kept, x, delta)
    expected = list(enumerate_trie(
        fpras_trie(problem, kept, x, delta, dictionary), random.Random(3),
        phi, guarded_accept))
    assert records == expected
    assert sum(r.width for r in records) == 1
    ran = [key for d, key in computes if d is dictionary]
    assert dictionary.misses == len(ran) == len(set(ran)) > 0
    assert set(ran) == dictionary.computed
    assert (dictionary.midpoint_fallbacks > 0) == (noise == "zero")
    if noise == "forced":
        assert sim.failures > 0


@pytest.mark.parametrize("noise", ["hash", "extreme", "forced"])
@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_slave_sessions_match_uncached_counts(case, noise):
    problem, x = MEMO_CASES[case]
    delta, m = F(1, 10), 3
    master = memo_oracles(problem, x, noise)
    assignments, _ = master_phase1(problem, master.fpras, x, delta, m)
    ref_master = memo_oracles(problem, x, noise).fpras
    trie = uncached_fpras_trie(problem, ref_master, x, delta,
                               PrefixDictionary())
    assert [a.low for a in assignments[1:]] == \
        [trie.descend(F(i, m)).low for i in range(1, m)]
    emitted, failures = [], master.failures
    for a in assignments:
        sim = memo_oracles(problem, x, noise, nonce=a.index)
        records = list(slave_session(problem, sim.fpras, x, a,
                                     random.Random(a.index))[0])
        ref = memo_oracles(problem, x, noise, nonce=a.index)
        expected = list(enumerate_trie(
            uncached_fpras_trie(problem, ref.fpras, x, delta,
                                PrefixDictionary(a.piece), (a.low, a.high)),
            random.Random(a.index), a.phi_star, guarded_accept))
        assert records == expected
        emitted += records
        failures += sim.failures
    assert_complete(problem, x, emitted)
    if noise == "forced":
        assert failures > 0


def test_first_emission_builds_fractions_only_for_the_record(monkeypatch):
    # one first AIA emission on all bitstrings of length 12: no node
    # expansion builds a Fraction, and each descent builds three, the
    # record's endpoints and width
    built = []

    def counted_fraction(*args):
        built.append(args)
        return F(*args)

    monkeypatch.setattr(trie_module, "Fraction", counted_fraction)
    made = {"_expand": [], "descend": []}  # Fractions built by each call
    for name, calls in made.items():
        def counted(self, *args, method=getattr(SelfReductionTrie, name),
                    calls=calls):
            before = len(built)
            result = method(self, *args)
            calls.append(len(built) - before)
            return result

        monkeypatch.setattr(SelfReductionTrie, name, counted)
    sim = memo_oracles(ALLBITS, 12, "hash")
    next(aia_enumerate(ALLBITS, sim.fptas, 12, random.Random(12)))
    assert len(made["_expand"]) >= 12 and set(made["_expand"]) == {0}
    assert made["descend"] and set(made["descend"]) == {3}
