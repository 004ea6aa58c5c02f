"""Stream-socket transport for the master/slave pipeline (demonstration).

Wire format: big-endian u32 length prefix, then a JSON payload. Fractions
travel as "num/den" strings. The master reads a slave's socket only when
`parallel.dequeue` takes from it, so TCP flow control holds back a slave
that runs ahead. The timing theorems are tested on the virtual clock in
`parallel`; this transport shows the pipeline over real sockets.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import threading
from fractions import Fraction

from .parallel import RangeAssignment, dequeue, master_phase1, slave_session
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


def emission_message(rec: EmissionRecord) -> dict:
    return {
        "kind": "emission",
        "solution": rec.solution,
        "low": frac_str(rec.low),
        "high": frac_str(rec.high),
        "attempts": rec.attempts,
    }


def parse_emission(msg: dict) -> EmissionRecord:
    low, high = Fraction(msg["low"]), Fraction(msg["high"])
    return EmissionRecord(msg["solution"], low, high, high - low,
                          msg["attempts"])


ACCEPT_POLL_S = 0.05  # how often accept() wakes to count slaves that gave up


def run_parallel_tcp(problem, x, delta, m: int, seed: int,
                     oracle_factory) -> list[str]:
    """Run the two-phase pipeline over localhost TCP, one thread per slave.

    The master drives the same `dequeue` as run_parallel, reading a
    slave's next frame only when `dequeue` takes from that slave.
    Returns the master's output order, which is the order of
    run_parallel's outputs for the same seed and oracle factory.
    Raises RuntimeError naming every slave that did not send `done`: one
    that could not connect, or whose session raised (its socket then
    closes, so the master sees end of stream instead of waiting). The
    other streams are read to their end first, so healthy slaves finish.
    """
    assignments, _ = master_phase1(problem, oracle_factory(0), x,
                                   Fraction(delta), m)
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(m)
    listener.settimeout(ACCEPT_POLL_S)
    port = listener.getsockname()[1]

    # slave i seeds its session with the i-th draw, whatever order the
    # connections are accepted in, exactly as run_parallel does
    master_rng = random.Random(seed)
    seeds = [master_rng.getrandbits(64) for _ in range(m)]
    unconnected: list[Exception] = []  # slaves that failed to connect
    errors: list[Exception] = []  # slaves that failed after connecting

    def slave_main():
        try:
            conn = socket.create_connection(("127.0.0.1", port))
        except Exception as exc:
            unconnected.append(exc)
            return
        try:
            with conn:
                a = parse_assignment(recv_frame(conn))
                gen, _ = slave_session(problem, oracle_factory(a.index), x, a,
                                       random.Random(seeds[a.index - 1]))
                for rec in gen:
                    send_frame(conn, emission_message(rec))
                send_frame(conn, {"kind": "done", "index": a.index})
        except Exception as exc:  # the master reports it with the missing ones
            errors.append(exc)

    threads = [threading.Thread(target=slave_main, daemon=True)
               for _ in range(m)]
    for th in threads:
        th.start()

    done: set[int] = set()

    def records(conn):  # one slave's stream, read as dequeue takes from it
        try:
            while (msg := recv_frame(conn)) is not None:
                if msg["kind"] == "done":
                    done.add(msg["index"])
                    return
                yield parse_emission(msg)
        except OSError:  # a dropped connection; reported below
            pass

    conns: list[socket.socket] = []
    try:
        # every slave either connects or adds itself to `unconnected`
        while len(conns) + len(unconnected) < m:
            try:
                conn = listener.accept()[0]
            except TimeoutError:
                continue
            conn.settimeout(None)
            conns.append(conn)
            send_frame(conn, assignment_message(assignments[len(conns) - 1]))
        streams = [records(conn) for conn in conns]
        streams += [iter(())] * (m - len(conns))  # never connected
        early_end = None
        try:
            output = [r.solution for _, r in dequeue(
                streams, [a.width for a in assignments], master_rng)]
        except RuntimeError as exc:  # a stream ended before its width did
            early_end = exc
        for stream in streams:  # read on to each `done`, discarding records
            for _ in stream:
                pass
    finally:
        for conn in conns:
            conn.close()
        listener.close()
    for th in threads:  # each has sent done, closed its socket or not connected
        th.join()

    missing = [a.index for a in assignments if a.index not in done]
    if missing:
        failures = unconnected + errors
        raise RuntimeError(
            f"slave(s) {missing} of {m} did not send done; slave errors: "
            f"{failures!r}") from (failures[0] if failures else None)

    if early_end is not None:
        raise early_end
    return output
