"""Two-phase master/slave parallelization.

Phase I: the master partitions [0,1) into m near-equal ranges by running
interval access at the grid points i/m, extracts the boundary dictionary
pieces that adjacent slaves may share, and broadcasts assignments.
Phase II: each slave enumerates its range independently; the master
buffers per-slave queues, prefills them to Q records, then repeatedly
dequeues from a slave drawn with probability proportional to its
remaining range length.

The timing harness is a deterministic virtual-clock simulation: a slave's
k-th emission arrives at the master at k*s + t ticks. "paced" mode spaces
outputs exactly (1+alpha)*(3/2)*(t/m) apart (the regime of the delay
bound); "greedy" mode outputs as fast as arrivals and the per-dequeue
master cost t/m allow (the regime of the speedup bound).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .exact import raccess
from .fpras import PrefixDictionary, axa_enumerate, fpras_trie, root_estimate
from .problem import SelfReducibleProblem
from .problems import SimulatedOracleConfig, SimulatedOracles
from .record import EmissionRecord

ZERO = Fraction(0)
ONE = Fraction(1)


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
                  delta: Fraction, m: int,
                  eps_mode: str = "proof"):
    """Compute the m range assignments.

    Returns (assignments, master_dictionary, boundary_words). Range i ends
    at the lower endpoint of the interval containing grid point i/m, so
    the boundary solution itself belongs to slave i+1.
    """
    delta = Fraction(delta)
    if m < 1:
        raise ValueError("need at least one slave")
    dictionary = PrefixDictionary()
    trie = fpras_trie(problem, fpras, x, delta, dictionary, eps_mode)
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

    estimate = root_estimate(problem, fpras, x, delta)
    if estimate == 0:
        raise DegeneratePartition("root estimate is 0: empty solution set")
    phi_star = Fraction(4, 9) / estimate

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
    return assignments, dictionary, boundary_words


def slave_session(problem: SelfReducibleProblem, fpras: Callable, x,
                  assignment: RangeAssignment, rng: random.Random,
                  eps_mode: str = "proof"):
    """AXA restricted to the assigned range: the complement of the range
    is pre-banned and the private dictionary starts from the piece.

    Returns (emission generator, dictionary) so callers can instrument."""
    dictionary = PrefixDictionary(preloaded=assignment.piece)
    gen = axa_enumerate(problem, fpras, x, assignment.delta, rng,
                        dictionary=dictionary,
                        span=(assignment.low, assignment.high),
                        phi_star=assignment.phi_star, eps_mode=eps_mode)
    return gen, dictionary


def prefill_target(m: int, alpha: Fraction, delta_star: Fraction) -> int:
    """Queue prefill Q = ceil((2m/a^2) * ln((2m^2 + m a^2) / (a^2 d*)))."""
    alpha = Fraction(alpha)
    delta_star = Fraction(delta_star)
    arg = Fraction(2 * m * m + m * alpha * alpha, 1) / (alpha * alpha * delta_star)
    bound = Fraction(2 * m, 1) / (alpha * alpha) * Fraction(math.log(arg))
    return math.ceil(bound)


class _SlaveFeed:
    """Lazy view of one slave's emission stream with virtual arrival times."""

    def __init__(self, gen, s_ticks, t_ticks):
        self.gen = gen
        self.s = s_ticks
        self.t = t_ticks
        self.produced: list[EmissionRecord] = []
        self.dequeued = 0
        self.exhausted = False

    def arrival(self, k: int):
        """Arrival tick of the k-th emission (1-based): k*s + t."""
        return k * self.s + self.t

    def _pull(self) -> bool:
        if self.exhausted:
            return False
        try:
            self.produced.append(next(self.gen))
            return True
        except StopIteration:
            self.exhausted = True
            return False

    def pull_until(self, now):
        while not self.exhausted and self.arrival(len(self.produced) + 1) <= now:
            self._pull()

    def pull_count(self, k: int):
        while not self.exhausted and len(self.produced) < k:
            self._pull()

    def next_arrival(self):
        if self.dequeued < len(self.produced):
            return self.arrival(self.dequeued + 1)
        if self._pull():
            return self.arrival(self.dequeued + 1)
        return None


@dataclass
class ParallelResult:
    outputs: list[EmissionRecord]          # tick = master output time
    output_slaves: list[int]
    gaps: list[Fraction]
    prefill_q: int
    prefill_tick: Fraction
    makespan: Fraction
    stalls: int
    assignments: list[RangeAssignment]
    slave_dicts: list[PrefixDictionary] = field(default_factory=list)
    master_dict: PrefixDictionary | None = None
    complete: bool = True


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


def default_oracle_factory(problem, noise_mode="none", seed=0,
                           distortion=2, forced=frozenset()):
    """Per-role FPRAS factory: role 0 is the master, 1..m the slaves; each
    role gets its own failure nonce (session-private randomness)."""

    def factory(role: int):
        cfg = SimulatedOracleConfig(noise_mode=noise_mode, seed=seed,
                                    failure_distortion=distortion,
                                    nonce=role, forced_failures=forced)
        return SimulatedOracles(problem, cfg).fpras

    return factory


def run_parallel(problem: SelfReducibleProblem, x, delta, m: int, seed: int,
                 oracle_factory: Callable | None = None,
                 mode: str = "greedy",
                 alpha: Fraction = Fraction(1, 2),
                 delta_star: Fraction = Fraction(1, 10),
                 s_ticks=1, t_ticks=1,
                 q_override: int | None = None,
                 max_outputs: int | None = None,
                 eps_mode: str = "proof") -> ParallelResult:
    """Full two-phase run under the virtual clock."""
    delta = Fraction(delta)
    alpha = Fraction(alpha)
    delta_star = Fraction(delta_star)
    if oracle_factory is None:
        oracle_factory = default_oracle_factory(problem)
    master_rng = random.Random(seed)

    assignments, master_dict, _ = master_phase1(
        problem, oracle_factory(0), x, delta, m, eps_mode)

    feeds: list[_SlaveFeed] = []
    slave_dicts: list[PrefixDictionary] = []
    for a in assignments:
        rng = random.Random(master_rng.getrandbits(64))
        gen, d_i = slave_session(problem, oracle_factory(a.index), x, a,
                                 rng, eps_mode)
        feeds.append(_SlaveFeed(gen, s_ticks, t_ticks))
        slave_dicts.append(d_i)

    q_target = q_override if q_override is not None else \
        prefill_target(m, alpha, delta_star)

    # Prefill: wait until each queue holds min(Q, remaining) records.
    prefill_tick = ZERO
    for feed in feeds:
        feed.pull_count(q_target)
        k = min(q_target, len(feed.produced))
        if k > 0:
            prefill_tick = max(prefill_tick, Fraction(feed.arrival(k)))

    remaining = [a.width for a in assignments]
    total = sum(remaining)
    pace = (1 + alpha) * Fraction(3, 2) * Fraction(t_ticks, 1) / m
    op_cost = Fraction(t_ticks, 1) / m

    outputs: list[EmissionRecord] = []
    output_slaves: list[int] = []
    gaps: list[Fraction] = []
    stalls = 0
    prev_time: Fraction | None = None
    now = prefill_tick

    while total:
        if max_outputs is not None and len(outputs) >= max_outputs:
            break
        idx = weighted_pick(remaining, total, master_rng)
        feed = feeds[idx]

        if mode == "paced":
            scheduled = prefill_tick if prev_time is None else prev_time + pace
        else:
            scheduled = prefill_tick if prev_time is None else prev_time + op_cost
        feed.pull_until(scheduled)
        if feed.dequeued < len(feed.produced) and \
                feed.arrival(feed.dequeued + 1) <= scheduled:
            out_time = scheduled
        else:
            arrival = feed.next_arrival()
            if arrival is None:
                raise RuntimeError(
                    f"slave {idx + 1} drained with remaining width "
                    f"{remaining[idx]} (accounting bug)")
            out_time = max(scheduled, Fraction(arrival))
            if mode == "paced":
                stalls += 1

        record = feed.produced[feed.dequeued]
        feed.dequeued += 1
        remaining[idx] -= record.width
        total -= record.width
        if prev_time is not None:
            gaps.append(out_time - prev_time)
        prev_time = out_time
        outputs.append(EmissionRecord(record.solution, record.low, record.high,
                                      record.width, record.attempts, out_time))
        output_slaves.append(idx + 1)
        now = out_time

    return ParallelResult(
        outputs=outputs, output_slaves=output_slaves, gaps=gaps,
        prefill_q=q_target, prefill_tick=prefill_tick,
        makespan=now, stalls=stalls,
        assignments=assignments, slave_dicts=slave_dicts,
        master_dict=master_dict,
        complete=all(w == 0 for w in remaining))


def pswor_run(problem: SelfReducibleProblem, exact: Callable, x, m: int,
              seed: int, s_ticks=1, t_ticks=1,
              max_outputs: int | None = None):
    """Parallel SWOR baseline: m independent uniform samplers feed a master
    that dedups. Returns (outputs, total candidate draws, makespan)."""
    total = exact(x)
    d = problem.zeta(x)
    rng = random.Random(seed)
    slave_rngs = [random.Random(rng.getrandbits(64)) for _ in range(m)]
    next_tick = [s_ticks + t_ticks] * m
    seen: set[str] = set()
    outputs: list[EmissionRecord] = []
    draws = 0
    limit = max_outputs if max_outputs is not None else total
    while len(outputs) < limit:
        j = min(range(m), key=lambda k: next_tick[k])
        tick = next_tick[j]
        next_tick[j] += s_ticks
        draws += 1
        i = slave_rngs[j].randint(1, total)
        word = raccess(problem, exact, x, i, d)
        if word not in seen:
            seen.add(word)
            outputs.append(EmissionRecord(word, None, None,
                                          Fraction(1, total), 1, tick))
    makespan = outputs[-1].tick if outputs else 0
    return outputs, draws, makespan
