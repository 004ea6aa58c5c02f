import random
import socket
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from roenum import transport
from roenum.parallel import (DegeneratePartition, boundary_piece_keys,
                             default_oracle_factory, master_phase1,
                             prefill_target, pswor_run, run_parallel,
                             slave_session, weighted_pick)
from roenum.problem import brute_force_solutions
from roenum.problems import (AllBitstrings, Knapsack, generate_knapsack)
from roenum.transport import run_parallel_tcp

F = Fraction
ALLBITS = AllBitstrings()
KNAP = Knapsack()


def test_boundary_piece_keys():
    assert boundary_piece_keys("10") == ["0", "1", "10", "11"]
    assert boundary_piece_keys("") == []


def test_master_phase1_allbits_m2_exact():
    factory = default_oracle_factory(ALLBITS)
    assignments, _, words = master_phase1(ALLBITS, factory(0), 3, F(1, 10), 2)
    assert [(a.low, a.high) for a in assignments] == \
        [(F(0), F(1, 2)), (F(1, 2), F(1))]
    assert words == ["100"]
    assert all(a.phi_star == F(4, 9) / 8 for a in assignments)


def test_master_phase1_partition_is_exact():
    x = generate_knapsack(10, seed=3)
    factory = default_oracle_factory(KNAP, noise_mode="hash", seed=3)
    assignments, _, _ = master_phase1(KNAP, factory(0), x, F(1, 20), 4)
    assert assignments[0].low == F(0)
    assert assignments[-1].high == F(1)
    for a, b in zip(assignments, assignments[1:]):
        assert a.high == b.low
        assert a.width > 0


def test_master_phase1_degenerate_m():
    with pytest.raises(DegeneratePartition):
        master_phase1(ALLBITS, default_oracle_factory(ALLBITS)(0), 1,
                      F(1, 10), 8)


def test_slaves_reuse_boundary_pieces():
    # every preloaded boundary entry must be served from the piece, never
    # recomputed by the slave's own counter
    x = generate_knapsack(10, seed=7)
    factory = default_oracle_factory(KNAP, noise_mode="hash", seed=7)
    result = run_parallel(KNAP, x, F(1, 20), 4, seed=7,
                          oracle_factory=factory)
    assert result.complete
    for a, d in zip(result.assignments, result.slave_dicts):
        assert d.preloaded == frozenset(a.piece)
        assert not (d.computed & d.preloaded)
        # the piece holds exactly the master's entries for the boundary keys
        for key, value in a.piece.items():
            assert result.master_dict.entries[key] == value


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


def test_run_parallel_max_outputs_truncates():
    result = run_parallel(ALLBITS, 6, F(1, 10), 2, seed=0,
                          oracle_factory=default_oracle_factory(ALLBITS),
                          max_outputs=5, q_override=1)
    assert len(result.outputs) == 5
    assert not result.complete


def test_pswor_complete_and_paced_by_s():
    outputs, draws, makespan = pswor_run(ALLBITS, ALLBITS.exact_count, 5,
                                         m=2, seed=4, s_ticks=7, t_ticks=20)
    words = [r.solution for r in outputs]
    assert set(words) == set(brute_force_solutions(ALLBITS, 5))
    assert len(words) == len(set(words))
    assert draws >= 32
    assert makespan == max(r.tick for r in outputs)


def test_tcp_transport_roundtrip():
    x = generate_knapsack(8, seed=5)
    factory = default_oracle_factory(KNAP, noise_mode="hash", seed=5)
    output = run_parallel_tcp(KNAP, x, F(1, 10), 2, seed=5,
                              oracle_factory=factory)
    assert set(output) == set(brute_force_solutions(KNAP, x))
    assert len(output) == len(set(output))


def test_tcp_transport_matches_run_parallel():
    # slave seeds follow the slave index, not the accept order
    x = generate_knapsack(9, seed=8)
    factory = default_oracle_factory(KNAP, noise_mode="hash", seed=8)
    expected = [o.solution for o in run_parallel(
        KNAP, x, F(1, 10), 3, seed=8, oracle_factory=factory).outputs]
    for _ in range(3):
        assert run_parallel_tcp(KNAP, x, F(1, 10), 3, seed=8,
                                oracle_factory=factory) == expected


def _tcp_within(seconds, *args, **kwargs):
    """run_parallel_tcp in a thread; the test fails if it is still waiting."""
    result = {}

    def target():
        try:
            result["value"] = run_parallel_tcp(*args, **kwargs)
        except Exception as exc:
            result["error"] = exc

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(seconds)
    assert not th.is_alive(), "run_parallel_tcp is still waiting"
    if "error" in result:
        raise result["error"]
    return result["value"]


def test_tcp_transport_names_a_failed_slave(monkeypatch):
    real_session = transport.slave_session

    def failing_session(problem, oracles, x, a, rng):
        if a.index == 2:
            raise ValueError("slave 2 failed")
        return real_session(problem, oracles, x, a, rng)

    monkeypatch.setattr(transport, "slave_session", failing_session)
    x = generate_knapsack(8, seed=5)
    factory = default_oracle_factory(KNAP, noise_mode="hash", seed=5)
    with pytest.raises(RuntimeError, match=r"slave\(s\) \[2\] of 3") as info:
        _tcp_within(60, KNAP, x, F(1, 10), 3, seed=5, oracle_factory=factory)
    assert isinstance(info.value.__cause__, ValueError)


def test_tcp_transport_names_a_slave_that_never_connects(monkeypatch):
    real_connect = socket.create_connection
    calls = []

    def connect_all_but_one(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise ConnectionRefusedError("slave died before connecting")
        return real_connect(*args, **kwargs)

    monkeypatch.setattr(transport.socket, "create_connection",
                        connect_all_but_one)
    x = generate_knapsack(6, seed=5)
    factory = default_oracle_factory(KNAP, noise_mode="hash", seed=5)
    with pytest.raises(RuntimeError, match=r"slave\(s\) \[2\] of 2") as info:
        _tcp_within(60, KNAP, x, F(1, 10), 2, seed=5, oracle_factory=factory)
    assert isinstance(info.value.__cause__, ConnectionRefusedError)


def test_tcp_transport_waits_for_slow_slaves(monkeypatch):
    # a late connection and long gaps between frames are not failures
    real_connect = socket.create_connection
    real_session = transport.slave_session
    calls = []

    def late_connect(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            time.sleep(20 * transport.ACCEPT_POLL_S)
        return real_connect(*args, **kwargs)

    def slow_session(problem, oracles, x, a, rng):
        gen, dictionary = real_session(problem, oracles, x, a, rng)

        def paced():
            for rec in gen:
                time.sleep(0.05)
                yield rec
        return paced(), dictionary

    monkeypatch.setattr(transport.socket, "create_connection", late_connect)
    monkeypatch.setattr(transport, "slave_session", slow_session)
    x = generate_knapsack(6, seed=5)
    factory = default_oracle_factory(KNAP, noise_mode="hash", seed=5)
    expected = [o.solution for o in run_parallel(
        KNAP, x, F(1, 10), 2, seed=5, oracle_factory=factory).outputs]
    assert _tcp_within(60, KNAP, x, F(1, 10), 2, seed=5,
                       oracle_factory=factory) == expected
