"""Stream-socket transport for the master/slave pipeline (demonstration).

Wire format: big-endian u32 length prefix, then a JSON payload. Fractions
travel as "num/den" strings. The virtual-clock harness in `parallel` is
what the timing theorems are tested on; this transport exists to show the
pipeline running over real sockets.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import threading
from fractions import Fraction

from .parallel import (RangeAssignment, master_phase1, slave_session,
                       weighted_pick)
from .record import EmissionRecord
from .stats import frac_str


def send_frame(sock: socket.socket, message: dict):
    payload = json.dumps(message).encode()
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def recv_frame(sock: socket.socket) -> dict | None:
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return json.loads(payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def assignment_message(a: RangeAssignment) -> dict:
    return {
        "kind": "assign",
        "index": a.index,
        "low": frac_str(a.low),
        "high": frac_str(a.high),
        "piece": a.piece,
        "phi_star": frac_str(a.phi_star),
        "delta": frac_str(a.delta),
    }


def parse_assignment(msg: dict) -> RangeAssignment:
    return RangeAssignment(
        msg["index"], Fraction(msg["low"]), Fraction(msg["high"]),
        dict(msg["piece"]), Fraction(msg["phi_star"]),
        Fraction(msg["delta"]))


def emission_message(index: int, rec: EmissionRecord) -> dict:
    return {
        "kind": "emission",
        "index": index,
        "solution": rec.solution,
        "low": frac_str(rec.low),
        "high": frac_str(rec.high),
        "attempts": rec.attempts,
    }


def run_parallel_tcp(problem, x, delta, m: int, seed: int,
                     oracle_factory) -> list[str]:
    """Run the two-phase pipeline over localhost TCP, one thread per slave.

    The master collects all emissions, then performs the weighted dequeue
    over the full queues. Returns the master's output order, which is the
    order of run_parallel's outputs for the same seed and oracle factory.
    """
    assignments, _, _ = master_phase1(problem, oracle_factory(0), x,
                                      Fraction(delta), m)
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(m)
    port = listener.getsockname()[1]

    # slave i seeds its session with the i-th draw, whatever order the
    # connections are accepted in, exactly as run_parallel does
    master_rng = random.Random(seed)
    seeds = [master_rng.getrandbits(64) for _ in range(m)]

    def slave_main():
        conn = socket.create_connection(("127.0.0.1", port))
        try:
            a = parse_assignment(recv_frame(conn))
            gen, _ = slave_session(problem, oracle_factory(a.index), x, a,
                                   random.Random(seeds[a.index - 1]))
            for rec in gen:
                send_frame(conn, emission_message(a.index, rec))
            send_frame(conn, {"kind": "done", "index": a.index})
        finally:
            conn.close()

    threads = [threading.Thread(target=slave_main) for _ in range(m)]
    for th in threads:
        th.start()

    conns = [listener.accept()[0] for _ in range(m)]
    queues: list[list] = [[] for _ in assignments]
    for conn, a in zip(conns, assignments):
        send_frame(conn, assignment_message(a))

    def reader(conn):
        while True:
            msg = recv_frame(conn)
            if msg is None or msg["kind"] == "done":
                return
            queues[msg["index"] - 1].append(
                (msg["solution"], Fraction(msg["high"]) - Fraction(msg["low"])))

    readers = [threading.Thread(target=reader, args=(c,)) for c in conns]
    for th in readers:
        th.start()
    for th in readers + threads:
        th.join()
    for conn in conns:
        conn.close()
    listener.close()

    remaining = [a.width for a in assignments]
    output: list[str] = []
    while any(w > 0 for w in remaining):
        idx = weighted_pick(remaining, master_rng)
        word, width = queues[idx].pop(0)
        remaining[idx] -= width
        output.append(word)
    return output
