"""Two-phase master/slave parallelization.

Phase I: the master partitions [0,1) into m near-equal ranges by running
interval access at the grid points i/m, extracts the boundary dictionary
pieces that adjacent slaves may share, and broadcasts assignments.
Phase II: each slave enumerates its range independently; the master
buffers per-slave queues, prefills them to Q records, then repeatedly
dequeues from a slave drawn with probability proportional to its
remaining range length.

Known bias: each slave emits uniformly over its own remaining solutions,
so the next output is a given solution of slave j with probability
(R_j/R)/n_j, for R_j its remaining width, R the total and n_j its
remaining solutions. The order is exactly uniform only when R_j/n_j is
the same for every slave, as on all bitstrings, where every width is
equal; on knapsacks the per-step law reads about 2e-3 from uniform in
total variation.

The timing harness is a deterministic virtual-clock simulation: a slave's
k-th emission arrives at the master at k*s + t ticks. "paced" mode spaces
outputs exactly (1+alpha)*(3/2)*(t/m) apart (the regime of the delay
bound); "greedy" mode outputs as fast as arrivals and the per-dequeue
master cost t/m allow (the regime of the speedup bound).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Iterator

from .fpras import PrefixDictionary, fpras_trie, guarded_accept, root_estimate
from .problem import SelfReducibleProblem
from .record import EmissionRecord
from .swor import swor_enumerate
from .trie import ONE, ZERO, correction_factor, enumerate_trie


class DegeneratePartition(Exception):
    """Some assigned range is empty; happens when m approaches |Sol(x)|."""


@dataclass
class RangeAssignment:
    index: int                 # slave index, 1-based
    low: Fraction
    high: Fraction
    piece: dict[str, int]      # boundary dictionary piece
    phi_star: Fraction
    delta: Fraction

    @property
    def width(self) -> Fraction:
        return self.high - self.low


def boundary_piece_keys(word: str) -> list[str]:
    """Dictionary keys shareable across the boundary at solution `word`:
    both children of every proper prefix."""
    keys = []
    for j in range(len(word)):
        keys.append(word[:j] + "0")
        keys.append(word[:j] + "1")
    return keys


def master_phase1(problem: SelfReducibleProblem, fpras: Callable, x,
                  delta: Fraction, m: int):
    """Compute the m range assignments.

    Returns (assignments, master_dictionary). Range i ends
    at the lower endpoint of the interval containing grid point i/m, so
    the boundary solution itself belongs to slave i+1.
    """
    delta = Fraction(delta)
    if m < 1:
        raise ValueError("need at least one slave")
    dictionary = PrefixDictionary()
    trie = fpras_trie(problem, fpras, x, delta, dictionary)
    bounds = [ZERO]
    boundary_words: list[str] = []
    for i in range(1, m):
        hit = trie.descend(Fraction(i, m))  # nothing is banned: y = r
        if hit.low <= bounds[-1]:
            raise DegeneratePartition(
                f"range {i} is empty (m={m} too large for this instance)")
        bounds.append(hit.low)
        boundary_words.append(hit.solution)
    bounds.append(ONE)

    root = root_estimate(problem, fpras, x, delta)
    if root == 0:
        raise DegeneratePartition("root estimate is 0: empty solution set")
    phi_star = correction_factor(root)

    assignments = []
    for i in range(1, m + 1):
        keys: list[str] = []
        if i >= 2:
            keys += boundary_piece_keys(boundary_words[i - 2])
        if i <= m - 1:
            keys += boundary_piece_keys(boundary_words[i - 1])
        assignments.append(RangeAssignment(
            i, bounds[i - 1], bounds[i], dictionary.piece(keys),
            phi_star, delta))
    return assignments, dictionary


def slave_session(problem: SelfReducibleProblem, fpras: Callable, x,
                  assignment: RangeAssignment, rng: random.Random):
    """AXA restricted to the assigned range: the complement of the range
    is pre-banned and the private dictionary starts from the piece.

    Returns (emission generator, dictionary) so callers can instrument."""
    dictionary = PrefixDictionary(preloaded=assignment.piece)
    trie = fpras_trie(problem, fpras, x, assignment.delta, dictionary,
                      (assignment.low, assignment.high))
    gen = enumerate_trie(trie, rng, assignment.phi_star, guarded_accept)
    return gen, dictionary


def prefill_target(m: int, alpha: Fraction, delta_star: Fraction) -> int:
    """Queue prefill Q = ceil((2m/a^2) * ln((2m^2 + m a^2) / (a^2 d*)))."""
    alpha = Fraction(alpha)
    delta_star = Fraction(delta_star)
    arg = Fraction(2 * m * m + m * alpha * alpha, 1) / (alpha * alpha * delta_star)
    bound = Fraction(2 * m, 1) / (alpha * alpha) * Fraction(math.log(arg))
    return math.ceil(bound)


@dataclass
class ParallelResult:
    outputs: list[EmissionRecord]          # tick = master output time
    output_slaves: list[int]
    prefill_q: int
    prefill_tick: Fraction
    stalls: int
    assignments: list[RangeAssignment]
    slave_dicts: list[PrefixDictionary]
    master_dict: PrefixDictionary
    complete: bool

    @property
    def gaps(self) -> list[Fraction]:
        """Ticks between consecutive outputs."""
        outputs = self.outputs
        return [b.tick - a.tick for a, b in zip(outputs, outputs[1:])]

    @property
    def makespan(self) -> Fraction:
        """Tick of the last output; `prefill_tick` when there is none."""
        return self.outputs[-1].tick if self.outputs else self.prefill_tick


def weighted_pick(remaining: list[Fraction], total: Fraction,
                  rng: random.Random) -> int:
    """Index of a slave drawn with probability proportional to its
    remaining range width; `total` is the sum of the positive widths.

    One draw of 96 random bits gives u = bits/2**96 * total, and the pick
    is the first positive width w with u < w, u decreasing by each width
    passed. u is kept as an unreduced integer pair num/den, so each step
    is a cross-multiplication and no `Fraction` is built."""
    num = rng.getrandbits(96) * total.numerator
    den = total.denominator << 96
    for j, w in enumerate(remaining):
        a = w.numerator
        if a > 0:
            b = w.denominator
            scaled, need = num * b, a * den  # u < w  iff  num*b < a*den
            if scaled < need:
                return j
            num, den = scaled - need, den * b
    raise AssertionError("draw beyond the total remaining width")


def dequeue(streams: list[Iterator[EmissionRecord]],
            remaining: list[Fraction],
            rng: random.Random) -> Iterator[tuple[int, EmissionRecord]]:
    """The master's phase-II order: yields (slave index, record), each
    from a slave drawn by `weighted_pick`, until no width remains.

    Advances only the picked stream, by one record, and subtracts the
    record's width from `remaining` in place."""
    total = sum(remaining)
    while total:
        idx = weighted_pick(remaining, total, rng)
        record = next(streams[idx], None)
        if record is None:
            raise RuntimeError(
                f"slave {idx + 1} drained with remaining width "
                f"{remaining[idx]} (accounting bug)")
        remaining[idx] -= record.width
        total -= record.width
        yield idx, record


def run_parallel(problem: SelfReducibleProblem, x, delta, m: int, seed: int,
                 oracle_factory: Callable,
                 mode: str = "greedy",
                 alpha: Fraction = Fraction(1, 2),
                 delta_star: Fraction = Fraction(1, 10),
                 s_ticks=1, t_ticks=1,
                 q_override: int | None = None,
                 max_outputs: int | None = None) -> ParallelResult:
    """Full two-phase run under the virtual clock."""
    if mode not in ("greedy", "paced"):
        raise ValueError(f"unknown mode {mode!r}: not 'greedy' or 'paced'")
    alpha = Fraction(alpha)
    master_rng = random.Random(seed)

    assignments, master_dict = master_phase1(
        problem, oracle_factory(0), x, delta, m)
    q_target = q_override if q_override is not None else \
        prefill_target(m, alpha, delta_star)

    # Prefill: wait until each queue holds min(Q, remaining) records. The
    # k-th record of a slave arrives at tick k*s + t however far its stream
    # has been read, so the stream itself serves as the queue.
    streams = []
    slave_dicts: list[PrefixDictionary] = []
    prefill_tick = ZERO
    for a in assignments:
        rng = random.Random(master_rng.getrandbits(64))
        gen, d_i = slave_session(problem, oracle_factory(a.index), x, a, rng)
        head = list(islice(gen, q_target))
        if head:
            prefill_tick = max(prefill_tick,
                               Fraction(len(head) * s_ticks + t_ticks))
        streams.append(chain(head, gen))
        slave_dicts.append(d_i)

    remaining = [a.width for a in assignments]
    if mode == "paced":
        step = (1 + alpha) * Fraction(3, 2) * Fraction(t_ticks, 1) / m
    else:
        step = Fraction(t_ticks, 1) / m  # the master's cost per dequeue

    outputs: list[EmissionRecord] = []
    output_slaves: list[int] = []
    taken = [0] * m
    stalls = 0
    for idx, record in islice(dequeue(streams, remaining, master_rng),
                              max_outputs):
        taken[idx] += 1
        out_time = outputs[-1].tick + step if outputs else prefill_tick
        arrival = taken[idx] * s_ticks + t_ticks
        if arrival > out_time:  # the record is not in its queue yet
            out_time = Fraction(arrival)
            if mode == "paced":
                stalls += 1
        record.tick = out_time
        outputs.append(record)
        output_slaves.append(idx + 1)

    return ParallelResult(
        outputs=outputs, output_slaves=output_slaves,
        prefill_q=q_target, prefill_tick=prefill_tick, stalls=stalls,
        assignments=assignments, slave_dicts=slave_dicts,
        master_dict=master_dict,
        complete=not any(remaining))


def pswor_run(problem: SelfReducibleProblem, exact: Callable, x, m: int,
              seed: int, s_ticks=1, t_ticks=1,
              max_outputs: int | None = None):
    """Parallel SWOR baseline: `swor_enumerate` on a round-robin clock. The
    k-th candidate (a record's tick k) comes from slave (k-1) mod m and
    arrives at tick ((k-1)//m + 1)*s + t. Returns (outputs, total
    candidate draws, makespan)."""
    outputs = list(islice(swor_enumerate(problem, exact, x,
                                         random.Random(seed)), max_outputs))
    for record in outputs:
        record.tick = ((record.tick - 1) // m + 1) * s_ticks + t_ticks
    makespan = outputs[-1].tick if outputs else 0
    return outputs, sum(r.attempts for r in outputs), makespan
