"""Golden emission digests of the exact, FPTAS and FPRAS tiers.

The digests were captured from the interval-tree implementation that the
self-reduction trie replaced; the trie must reproduce every emission
(solution, endpoints, width, attempts, tick), every slave's dictionary and
every parallel output byte for byte. The greedy-mode parallel digests
were captured from the master loop that still scanned every slave's queue
after each output and summed the remaining widths in `Fraction`; the lean
dequeue must reproduce them too. The ARA digests were captured from the
loop-over-capacities knapsack counter that the bit-parallel one replaced.
Regenerate a digest only for a change that is meant to alter the emitted
sequences:

    PYTHONPATH=src python -c "import tests.test_golden as g; g.print_digests()"
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from roenum.exact import ara_enumerate
from roenum.fpras import PrefixDictionary, axa_enumerate, fpras_trie
from roenum.fptas import aia_enumerate, fptas_trie
from roenum.parallel import master_phase1, run_parallel, slave_session
from roenum.problems import (AllBitstrings, Knapsack, KnapsackInstance,
                             SimulatedOracleConfig, SimulatedOracles,
                             default_oracle_factory, generate_knapsack)

F = Fraction
PROBLEMS = {"allbits9": (AllBitstrings(), 9),
            "knap12": (Knapsack(), generate_knapsack(12, seed=4))}


def knapsack64(seed):
    """An n=64 instance built like the benchmark's `ara-knapsack` inputs:
    one size from each pair {2i+1, 2i+2}, shuffled, capacity a quarter of
    the total."""
    rng = random.Random(seed)
    sizes = [2 * i + rng.randint(1, 2) for i in range(64)]
    rng.shuffle(sizes)
    return KnapsackInstance(sum(sizes) // 4, tuple(sizes))


# ARA instances and how many emissions each golden run takes (None: all)
ARA = {"knap12": (PROBLEMS["knap12"][1], None),
       "knap64a": (knapsack64(1), 20),
       "knap64b": (knapsack64(2), 20)}


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _records(records):
    return [(r.solution, str(r.low), str(r.high), str(r.width), r.attempts,
             str(r.tick)) for r in records]


def _forced(problem, x):
    # one always-failing counter call, so the AXA guard is exercised
    return frozenset([problem.instance_key(problem.reduce(x, "01"))])


def _oracles(problem, x, noise, seed):
    return SimulatedOracles(problem, SimulatedOracleConfig(
        noise_mode=noise, seed=seed, nonce=seed,
        forced_failures=_forced(problem, x)))


def aia_rows(name, noise, seed):
    problem, x = PROBLEMS[name]
    sim = _oracles(problem, x, noise, seed)
    return _records(aia_enumerate(problem, sim.fptas, x, random.Random(seed)))


def axa_rows(name, noise, seed):
    problem, x = PROBLEMS[name]
    sim = _oracles(problem, x, noise, seed)
    return _records(axa_enumerate(problem, sim.fpras, x, F(1, 4),
                                  random.Random(seed)))


def access_rows(name, noise, seed):
    problem, x = PROBLEMS[name]
    sim = _oracles(problem, x, noise, seed)
    rng = random.Random(seed)
    d = PrefixDictionary()
    rows = []
    for _ in range(20):
        r = F(rng.getrandbits(64), 1 << 64)
        # a fresh trie per access; the FPRAS ones share the dictionary
        for trie in (fptas_trie(problem, sim.fptas, x),
                     fpras_trie(problem, sim.fpras, x, F(1, 4), d)):
            hit = trie.descend(r)
            rows.append((hit.solution, str(hit.low), str(hit.high)))
    return rows


def ara_rows(name, noise, seed):
    x, limit = ARA[name]
    problem = Knapsack()
    words = ara_enumerate(problem, SimulatedOracles(problem).exact, x,
                          random.Random(seed))
    return list(itertools.islice(words, limit))


def span_rows(name, noise, seed):
    """Four slave sessions over the master's partition: each slave's
    emissions, dictionary entries and computed keys."""
    problem, x = PROBLEMS[name]
    factory = default_oracle_factory(problem, noise_mode=noise, seed=seed,
                                     forced=_forced(problem, x))
    assignments, master = master_phase1(problem, factory(0), x, F(1, 4), 4)
    rows = [sorted(master.entries.items())]
    for a in assignments:
        gen, d = slave_session(problem, factory(a.index), x, a,
                               random.Random(seed + a.index))
        rows.append((str(a.low), str(a.high), _records(gen),
                     sorted(d.entries.items()), sorted(d.computed)))
    return rows


def parallel_rows(name, noise, seed, mode="paced"):
    problem, x = PROBLEMS[name]
    factory = default_oracle_factory(problem, noise_mode=noise, seed=seed)
    result = run_parallel(problem, x, F(1, 20), 4, seed=seed,
                          oracle_factory=factory, mode=mode,
                          s_ticks=100, t_ticks=100)
    return (_records(result.outputs), result.output_slaves, result.stalls,
            str(result.prefill_tick))


KINDS = {"ara": ara_rows, "aia": aia_rows, "axa": axa_rows,
         "access": access_rows, "span": span_rows, "parallel": parallel_rows,
         "greedy": lambda *case: parallel_rows(*case, mode="greedy")}
CASES = [(kind, name, noise, seed)
         for kind in ("aia", "axa", "access", "span")
         for name in PROBLEMS
         for noise, seed in (("none", 1), ("hash", 2), ("extreme", 3))]
CASES += [(kind, name, "hash", 5)
          for kind in ("parallel", "greedy") for name in PROBLEMS]
CASES += [("ara", name, "none", seed) for name in ARA for seed in (1, 2)]

GOLDEN = {
    ("aia", "allbits9", "none", 1): "8fd6af693351000c",
    ("aia", "allbits9", "hash", 2): "195fce009bdaf879",
    ("aia", "allbits9", "extreme", 3): "94fe25886833b1c5",
    ("aia", "knap12", "none", 1): "cbf136fdac53c749",
    ("aia", "knap12", "hash", 2): "d94007359f2ad22d",
    ("aia", "knap12", "extreme", 3): "cf9f542235126d97",
    ("axa", "allbits9", "none", 1): "8fd6af693351000c",
    ("axa", "allbits9", "hash", 2): "195fce009bdaf879",
    ("axa", "allbits9", "extreme", 3): "94fe25886833b1c5",
    ("axa", "knap12", "none", 1): "28c4ba71067410b8",
    ("axa", "knap12", "hash", 2): "6a493bcec092f6be",
    ("axa", "knap12", "extreme", 3): "222ee86114a7355e",
    ("access", "allbits9", "none", 1): "7026666d3a909fd8",
    ("access", "allbits9", "hash", 2): "8c24507be785d9b5",
    ("access", "allbits9", "extreme", 3): "b6b81afe5f068d33",
    ("access", "knap12", "none", 1): "04f39f351d77b8ae",
    ("access", "knap12", "hash", 2): "d99cfe937375c453",
    ("access", "knap12", "extreme", 3): "3067b72a9af1f137",
    ("span", "allbits9", "none", 1): "9a97c2544248d9b8",
    ("span", "allbits9", "hash", 2): "9ead34aead3c9787",
    ("span", "allbits9", "extreme", 3): "1346fb9ea35e19a3",
    ("span", "knap12", "none", 1): "9b168f273dd5ede1",
    ("span", "knap12", "hash", 2): "04cce10018f24270",
    ("span", "knap12", "extreme", 3): "b2f7b7167186bee3",
    ("parallel", "allbits9", "hash", 5): "72c3132a6983d4a4",
    ("parallel", "knap12", "hash", 5): "b2d7f021501e837d",
    ("greedy", "allbits9", "hash", 5): "75ad7ed7d36d8b67",
    ("greedy", "knap12", "hash", 5): "94211dc94459d5ec",
    ("ara", "knap12", "none", 1): "c367aa1279f60a14",
    ("ara", "knap12", "none", 2): "24589267f81e1c77",
    ("ara", "knap64a", "none", 1): "2834b62c3d77b6a3",
    ("ara", "knap64a", "none", 2): "ba4f89af9d18fa7b",
    ("ara", "knap64b", "none", 1): "1a4cf9f1cf5212d4",
    ("ara", "knap64b", "none", 2): "99c325515a4a908c",
}


def print_digests():
    for case in CASES:
        kind, name, noise, seed = case
        digest = _digest(KINDS[kind](name, noise, seed))
        print(f"    {case!r}: {digest!r},".replace("'", '"'))


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_golden_digest(case):
    kind, name, noise, seed = case
    assert _digest(KINDS[kind](name, noise, seed)) == GOLDEN[case]
