"""Benchmark of roenum's three enumeration tiers and its master/slave pipeline.

    python3 bench/run.py --workload aia-allbits --seed 1 --seconds 38 --trace 0
    python3 bench/run.py                      # every workload, untraced and traced
    python3 bench/run.py --write-spec         # rewrite BENCHMARK.json

One workload runs per process, single-threaded, as a closed loop: the
consumer asks for the next emission as soon as it holds the previous one.
Inputs are built here from --seed. With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it reports the per-layer split, taken
by wrapping the program's public layer functions (see spans.py). Outputs
are checked outside the timed region against references computed here
(see checks.py). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

F = Fraction

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 38,
    "workloads": [
        {"name": "aia-allbits",
         "why": "FPTAS tier on all 4096 bitstrings of length 12: counting is "
                "a bit shift, so the banned-interval tree and the descent "
                "dominate"},
        {"name": "ara-knapsack",
         "why": "exact tier on an n=64 knapsack: almost all time is the "
                "knapsack counting DP; the interval tree is not used"},
        {"name": "parallel-paced",
         "why": "run_parallel in the paced m=4, n=11 configuration of "
                "acceptance criterion 10, the slowest part of tier-1"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "emissions_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "delay_p50_us", "unit": "us", "better": "lower",
         "bound": 0.25},
        {"name": "delay_tail_us", "unit": "us", "better": "lower",
         "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.1},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in [
            ("interval_tree.generate_seed.calls", "per_emission", "lower"),
            ("interval_tree.generate_seed.self_us", "us", "lower"),
            ("interval_tree.insert.calls", "per_emission", "lower"),
            ("interval_tree.insert.self_us", "us", "lower"),
            ("fptas.iaccess.calls", "per_emission", "lower"),
            ("fptas.iaccess.self_us", "us", "lower"),
            ("fptas.aia_enumerate.self_us", "us", "lower"),
            ("fpras.xaccess.calls", "per_emission", "lower"),
            ("fpras.xaccess.self_us", "us", "lower"),
            ("fptas.bernoulli_less.calls", "per_emission", "lower"),
            ("fptas.bernoulli_less.self_us", "us", "lower"),
            ("fptas.attempts_per_emission", "attempts", "lower"),
            ("fpras.attempts_per_emission", "attempts", "lower"),
            ("fpras.guard_skips", "per_emission", "lower"),
            ("fpras.dict_hits", "per_emission", "higher"),
            ("fpras.dict_misses", "per_emission", "lower"),
            ("problems.exact_count.calls", "per_emission", "lower"),
            ("problems.exact_count.self_us", "us", "lower"),
            ("problems.exact_count.distinct", "per_emission", "lower"),
            ("problems.oracle.calls", "per_emission", "lower"),
            ("problems.oracle.self_us", "us", "lower"),
            ("exact.raccess.calls", "per_emission", "lower"),
            ("exact.raccess.self_us", "us", "lower"),
            ("parallel.master_phase1.self_ms", "ms", "lower"),
            ("parallel.slave.self_us", "us", "lower"),
            ("parallel.master.self_us", "us", "lower"),
            ("parallel.stalls", "count", "lower"),
            ("parallel.prefill_q", "count", "lower"),
            ("parallel.makespan_ticks", "ticks", "lower"),
            ("session.alloc_peak_kb", "kB", "lower"),
            ("trace.overhead_pct", "%", "lower"),
        ]
    ],
}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Shares of the traced run's wall time reported in the layer split.
SHARE_GROUPS = {
    "interval tree": ["interval_tree.generate_seed", "interval_tree.insert"],
    "descent": ["fptas.iaccess", "fpras.xaccess", "exact.raccess"],
    "driver": ["fptas.aia_enumerate",
               "exact.ara_enumerate", "parallel.slave"],
    "rejection test": ["fptas.bernoulli_less"],
    "oracle": ["problems.oracle.exact", "problems.oracle.fptas",
               "problems.oracle.fpras"],
    "exact_count": ["problems.exact_count"],
    "master": ["parallel.master", "parallel.master_phase1"],
}


def import_program():
    """Import roenum from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import roenum
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import roenum from {ROOT / 'src'}: {exc}")
    if not Path(roenum.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bench: roenum imported from {roenum.__file__}, "
                         f"not from this checkout")
    for module in ("exact", "fpras", "fptas", "parallel", "problems"):
        importlib.import_module(f"roenum.{module}")
    return roenum


def session_rng(workload: str, seed: int, rnd: int, probe: int) -> random.Random:
    """Input randomness of one session; str seeds hash stably (sha512)."""
    return random.Random(f"{workload}/{seed}/{rnd}/{probe}")


def knapsack_instance(rp, rng: random.Random, n: int):
    """n sizes in [1, 2n], one from each pair {2i+1, 2i+2}, in seeded
    order; capacity a quarter of the total. Drawing one size per pair
    keeps the total, and with it the solution count and the DP cost,
    nearly the same for every seed."""
    sizes = [2 * i + rng.randint(1, 2) for i in range(n)]
    rng.shuffle(sizes)
    return rp.problems.KnapsackInstance(sum(sizes) // 4, tuple(sizes))


# ---------------------------------------------------------------------------
# Streaming workloads: each session calls a tier's enumeration entry point
# and pulls its emissions in a closed loop.

class Session:
    """One enumeration session's inputs; `start()` calls the entry point."""

    limit: int | None = None  # emissions pulled; None runs to exhaustion
    alloc_limit: int | None = None  # emissions pulled under tracemalloc

    def rows(self, records):
        return [(r.solution, r.low, r.high, r.attempts) for r in records]


class AiaSession(Session):
    N = 12

    def __init__(self, rp, rng: random.Random):
        self.rp = rp
        self.problem = rp.problems.AllBitstrings()
        self.oracles = rp.problems.SimulatedOracles(
            self.problem, rp.problems.SimulatedOracleConfig(
                noise_mode="hash", seed=rng.getrandbits(32)))
        self.rng_seed = rng.getrandbits(64)

    def start(self):
        return self.rp.fptas.aia_enumerate(self.problem, self.oracles.fptas,
                                           self.N, random.Random(self.rng_seed))

    def phi_star(self):
        return F(4, 9) / self.oracles.fptas(self.N, F(1, 3))

    def check(self, records, full: bool):
        words = [r.solution for r in records]
        phi = self.phi_star()
        errors = []
        if full:
            errors += checks.check_solution_set(words, checks.all_bitstrings(self.N))
            errors += checks.check_intervals([(r.low, r.high, r.width)
                                              for r in records])
            mean = F(sum(r.attempts for r in records), len(records))
            if not mean < 4:
                errors.append(f"mean attempts per emission {float(mean):.3f} >= 4")
        elif not set(words) <= checks.all_bitstrings(self.N):
            errors.append(f"non-solution emitted: {words}")
        outside = checks.ratio_outside(phi, [r.width for r in records])
        if outside:
            errors.append(f"{outside} AIA emission(s) with phi*/width "
                          f"outside (1/4, 1)")
        return errors


class AraSession(Session):
    N = 64
    limit = 20
    alloc_limit = 3  # tracemalloc makes each big-int DP step ~40x slower

    def __init__(self, rp, rng: random.Random):
        self.rp = rp
        self.x = knapsack_instance(rp, rng, self.N)
        self.problem = rp.problems.Knapsack()
        self.oracles = rp.problems.SimulatedOracles(self.problem)
        self.rng_seed = rng.getrandbits(64)

    def start(self):
        return self.rp.exact.ara_enumerate(self.problem, self.oracles.exact,
                                           self.x, random.Random(self.rng_seed))

    def rows(self, records):
        return records

    def check(self, records, full: bool):
        errors = []
        if len(set(records)) != len(records):
            errors.append("ARA emitted a word twice")
        bad = [w for w in records
               if not checks.is_packing(self.x.sizes, self.x.capacity, w)]
        if bad:
            errors.append(f"{len(bad)} ARA emission(s) are not packings of "
                          f"length {self.N}, e.g. {bad[0]!r}")
        return errors


class StreamWorkload:
    """Rounds of one full session plus `probes` set-up probes (sessions
    stopped at their first emission), each with fresh inputs."""

    def __init__(self, name, session_cls, probes, block, tail_pct,
                 stream_label, attempts_metric=None):
        self.name = name
        self.session_cls = session_cls
        self.probes = probes
        self.block = block
        self.tail_pct = tail_pct
        self.stream_label = stream_label
        self.attempts_metric = attempts_metric

    def session(self, rp, seed, rnd, probe=0):
        return self.session_cls(rp, session_rng(self.name, seed, rnd, probe))

    @staticmethod
    def pull(session, limit=None, tracer=None, label=None):
        """Closed loop over one session: returns (records, t_call, stamps)
        where stamps[k] is when emission k was in hand."""
        records, stamps = [], []
        t0 = perf_counter()
        stream = session.start()
        if tracer is not None:
            stream = tracer.stream(label, stream)
        for record in stream:
            stamps.append(perf_counter())
            records.append(record)
            if len(records) == limit:
                break
        return records, t0, stamps

    def measure(self, rp, seed, seconds, out):
        setups, gaps = [], []
        deadline = perf_counter() + seconds
        rnd = 0
        while rnd == 0 or perf_counter() < deadline:
            s = self.session(rp, seed, rnd)
            records, t0, stamps = self.pull(s, s.limit)
            out.operation(s.check(records, full=s.limit is None))
            if rnd == 0:
                out.digest = checks.digest(s.rows(records))
            setups.append(stamps[0] - t0)
            gaps += [b - a for a, b in zip(stamps, stamps[1:])]
            for j in range(1, self.probes + 1):
                p = self.session(rp, seed, rnd, j)
                first, t0, stamps = self.pull(p, 1)
                out.operation(p.check(first, full=False))
                setups.append(stamps[0] - t0)
            rnd += 1
        out.metric("setup_s", statistics.median(setups),
                   f"median of {len(setups)} sessions")
        chunks = checks.blocks(gaps, self.block)
        out.metric("emissions_per_s",
                   self.block / statistics.median(sum(c) for c in chunks),
                   f"median over {len(chunks)} blocks of {self.block} gaps "
                   f"between emissions, {rnd} sessions")
        out.delays(gaps, self.block, self.tail_pct)

    def trace(self, rp, seed, seconds, out):
        # untraced pass sets the session count and the overhead baseline
        deadline = perf_counter() + seconds * 0.4
        plain = 0.0
        rnd = 0
        while rnd == 0 or perf_counter() < deadline:
            s = self.session(rp, seed, rnd)
            records, t0, stamps = self.pull(s, s.limit)
            plain += stamps[-1] - t0
            out.operation(s.check(records, full=s.limit is None))
            rnd += 1

        tracer = Tracer()
        traced = 0.0
        emitted = 0
        attempts = distinct = 0
        for r in range(rnd):
            s = self.session(rp, seed, r)
            with tracer.patched():
                records, t0, stamps = self.pull(s, s.limit, tracer,
                                                self.stream_label)
            traced += stamps[-1] - t0
            emitted += len(records)
            out.operation(s.check(records, full=s.limit is None))
            if self.attempts_metric:
                attempts += sum(r.attempts for r in records)
            distinct += len(tracer.distinct)
            tracer.distinct.clear()

        out.layer_metrics(tracer, emitted, traced)
        if self.attempts_metric:
            out.metric(self.attempts_metric, attempts / emitted)
        out.metric("problems.exact_count.distinct", distinct / emitted)
        out.metric("trace.overhead_pct", (traced / plain - 1) * 100,
                   f"{rnd} sessions traced against the same untraced")

        s = self.session(rp, seed, 0)
        tracemalloc.start()
        records, _, _ = self.pull(s, s.alloc_limit)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out.operation(s.check(records, full=s.alloc_limit is None))
        out.metric("session.alloc_peak_kb", peak / 1024,
                   f"session 0, {len(records)} emissions")


# ---------------------------------------------------------------------------
# The master/slave pipeline: run_parallel returns only when the run ends.

class ParallelWorkload:
    name = "parallel-paced"
    N, M_SLAVES = 11, 4
    DELTA, ALPHA, DELTA_STAR = F(1, 20), F(1, 2), F(1, 10)
    TICKS = 100
    block, tail_pct = 1000, 99

    def call(self, rp, seed, rnd, max_outputs=None):
        s = session_rng(self.name, seed, rnd, 0).getrandbits(32)
        problem = rp.problems.AllBitstrings()
        problems = rp.problems

        def factory(role):
            return problems.SimulatedOracles(problem, problems.SimulatedOracleConfig(
                seed=s, failure_distortion=2, nonce=role)).fpras

        return lambda: rp.parallel.run_parallel(
            problem, self.N, self.DELTA, self.M_SLAVES, seed=s,
            oracle_factory=factory, mode="paced", alpha=self.ALPHA,
            delta_star=self.DELTA_STAR, s_ticks=self.TICKS,
            t_ticks=self.TICKS, max_outputs=max_outputs)

    def check(self, result):
        errors = []
        if not result.complete:
            errors.append("run_parallel reports an incomplete run")
        errors += checks.check_solution_set(
            [o.solution for o in result.outputs], checks.all_bitstrings(self.N))
        errors += checks.check_tiling([(a.low, a.high)
                                       for a in result.assignments])
        q = checks.prefill_bound(self.M_SLAVES, self.ALPHA, self.DELTA_STAR)
        if result.prefill_q < q:
            errors.append(f"prefill_q {result.prefill_q} < Q = {q}")
        pace = (1 + self.ALPHA) * F(3, 2) * F(self.TICKS, self.M_SLAVES)
        short = [g for g in result.gaps if g < pace]
        if short:
            errors.append(f"{len(short)} virtual gap(s) below the pace {pace}")
        return errors

    def check_capped(self, result):
        if len(result.outputs) != 1 or len(result.outputs[0].solution) != self.N:
            return [f"capped run gave {len(result.outputs)} outputs"]
        return []

    @staticmethod
    def rows(result):
        return [(o.solution, o.low, o.high, o.attempts, k)
                for o, k in zip(result.outputs, result.output_slaves)]

    def measure(self, rp, seed, seconds, out):
        capped, full, emission_s = [], [], []
        deadline = perf_counter() + seconds
        rnd = 0
        while rnd == 0 or perf_counter() < deadline:
            run = self.call(rp, seed, rnd, max_outputs=1)
            t0 = perf_counter()
            result = run()
            capped.append(perf_counter() - t0)
            out.operation(self.check_capped(result))

            run = self.call(rp, seed, rnd)
            with timed_slaves(rp, emission_s):
                t0 = perf_counter()
                result = run()
                full.append(perf_counter() - t0)
            out.operation(self.check(result))
            if rnd == 0:
                out.digest = checks.digest(self.rows(result))
            rnd += 1
        out.metric("setup_s", statistics.median(capped),
                   f"median of {rnd} calls capped at one output")
        # The capped call did a full call's set-up work. Medians are taken
        # before the difference: a difference of two single readings is
        # noisier than either.
        out.metric("emissions_per_s",
                   (len(result.outputs) - 1)
                   / (statistics.median(full) - statistics.median(capped)),
                   f"outputs after the first over the median full call "
                   f"minus the median capped call, {rnd} seeds")
        out.delays(emission_s, self.block, self.tail_pct,
                   what="slave emission times")

    def trace(self, rp, seed, seconds, out):
        deadline = perf_counter() + seconds * 0.4
        plain = 0.0
        rnd = 0
        while rnd == 0 or perf_counter() < deadline:
            run = self.call(rp, seed, rnd)
            t0 = perf_counter()
            result = run()
            plain += perf_counter() - t0
            out.operation(self.check(result))
            rnd += 1

        tracer = Tracer()
        traced = 0.0
        emitted = skips = attempts = hits = misses = 0
        stalls, makespans, prefill = [], [], []
        for r in range(rnd):
            run = self.call(rp, seed, r)
            with tracer.patched():
                t0 = perf_counter()
                result = tracer.call("parallel.master", run)
                traced += perf_counter() - t0
            out.operation(self.check(result))
            emitted += len(result.outputs)
            attempts += sum(o.attempts for o in result.outputs)
            phi = result.assignments[0].phi_star
            skips += checks.ratio_outside(phi, [o.width for o in result.outputs])
            for d in result.slave_dicts:
                hits += d.hits
                misses += d.misses
            stalls.append(result.stalls)
            makespans.append(float(result.makespan))
            prefill.append(result.prefill_q)

        out.layer_metrics(tracer, emitted, traced)
        out.metric("parallel.master_phase1.self_ms",
                   tracer.self_s.get("parallel.master_phase1", 0.0) * 1e3 / rnd)
        out.metric("fpras.attempts_per_emission", attempts / emitted)
        out.metric("fpras.guard_skips", skips / emitted)
        out.metric("fpras.dict_hits", hits / emitted)
        out.metric("fpras.dict_misses", misses / emitted)
        out.metric("parallel.stalls", statistics.median(stalls))
        out.metric("parallel.prefill_q", statistics.median(prefill))
        out.metric("parallel.makespan_ticks", statistics.median(makespans))
        out.metric("trace.overhead_pct", (traced / plain - 1) * 100,
                   f"{rnd} runs traced against the same untraced")

        run = self.call(rp, seed, 0)
        tracemalloc.start()
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out.operation(self.check(result))
        out.metric("session.alloc_peak_kb", peak / 1024, "run 0")


@contextlib.contextmanager
def timed_slaves(rp, durations: list):
    """Record how long each next() on a slave's emission stream takes.

    run_parallel hands back its outputs only when the run ends, so the
    wall-time delay of the pipeline is observed at the slaves: one next()
    is one slave emission, the gap a slave on a processor of its own
    shows between consecutive records."""
    original = rp.parallel.slave_session

    def timed_stream(gen):
        while True:
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            durations.append(perf_counter() - t0)
            yield item

    def wrapped(*args, **kwargs):
        gen, *rest = original(*args, **kwargs)
        return (timed_stream(gen), *rest)

    rp.parallel.slave_session = wrapped
    try:
        yield
    finally:
        rp.parallel.slave_session = original


WORKLOADS = {
    "aia-allbits": StreamWorkload("aia-allbits", AiaSession, probes=40,
                                  block=1000, tail_pct=99,
                                  stream_label="fptas.aia_enumerate",
                                  attempts_metric="fptas.attempts_per_emission"),
    "ara-knapsack": StreamWorkload("ara-knapsack", AraSession, probes=1,
                                   block=AraSession.limit - 1, tail_pct=96,
                                   stream_label="exact.ara_enumerate"),
    "parallel-paced": ParallelWorkload(),
}


# ---------------------------------------------------------------------------
# Reporting

class Report:
    def __init__(self, workload: str, trace: int):
        self.workload = workload
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.notes: dict[str, str] = {}
        self.digest: str | None = None

    def operation(self, errors: list[str]):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors

    def metric(self, name: str, value: float, note: str = ""):
        self.metrics[name] = {"value": float(value), "unit": UNITS[name]}
        if note:
            self.notes[name] = note

    def delays(self, gaps, block, tail_pct, what="gaps between emissions"):
        """Median and tail gap, each as the median over blocks of `block`
        consecutive gaps, so that a phase of host contention that covers
        less than half the run moves them little. The tail is taken over
        all gaps when a block has fewer than ten beyond it."""
        chunks = checks.blocks(gaps, block)
        note = f"median over {len(chunks)} blocks of {block} {what}"
        self.metric("delay_p50_us", 1e6 * statistics.median(
            checks.percentile(c, 50) for c in chunks), note)
        if checks.beyond(block, tail_pct) >= 10:
            tail = statistics.median(checks.percentile(c, tail_pct)
                                     for c in chunks)
            note = (f"p{tail_pct}, {note}, "
                    f"{checks.beyond(block, tail_pct)} beyond it in each")
        else:
            tail = checks.percentile(gaps, tail_pct)
            note = (f"p{tail_pct} of all {len(gaps)} {what}, "
                    f"{checks.beyond(len(gaps), tail_pct)} beyond it")
        self.metric("delay_tail_us", tail * 1e6, note)

    def layer_metrics(self, tracer: Tracer, emitted: int, wall: float):
        calls, self_s = tracer.calls, tracer.self_s
        oracle = [k for k in self_s if k.startswith("problems.oracle.")]
        for label in ("interval_tree.generate_seed", "interval_tree.insert",
                      "fptas.iaccess", "fpras.xaccess", "fptas.bernoulli_less",
                      "problems.exact_count", "exact.raccess"):
            self.metric(f"{label}.calls", calls.get(label, 0) / emitted)
            self.metric(f"{label}.self_us", self_s.get(label, 0.0) * 1e6 / emitted)
        for label in ("fptas.aia_enumerate",
                      "parallel.slave", "parallel.master"):
            self.metric(f"{label}.self_us", self_s.get(label, 0.0) * 1e6 / emitted)
        self.metric("problems.oracle.calls",
                    sum(calls[k] for k in oracle) / emitted)
        self.metric("problems.oracle.self_us",
                    sum(self_s[k] for k in oracle) * 1e6 / emitted)
        for label in tracer.absent:
            print(f"layer {label}: absent (its public function no longer exists)")
        print(f"layer split of {wall:.3f} s traced wall time, "
              f"{emitted} emissions (self time share):")
        covered = 0.0
        for group, labels in SHARE_GROUPS.items():
            share = sum(self_s.get(k, 0.0) for k in labels)
            covered += share
            if share:
                print(f"  {group:15s} {100 * share / wall:6.2f}%  "
                      + ", ".join(f"{k} {100 * self_s[k] / wall:.2f}%"
                                  for k in labels if self_s.get(k)))
        print(f"  {'unattributed':15s} {100 * (wall - covered) / wall:6.2f}%")

    def finish(self) -> int:
        wanted = SPEC["per_layer"] if self.trace else SPEC["end_to_end"]
        for m in wanted:
            self.metrics.setdefault(m["name"], {"value": 0.0, "unit": m["unit"]})
        if not self.trace:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self.metric("peak_rss_mb", rss, "ru_maxrss of this process")
        print(f"workload {self.workload}: {self.attempted} operations attempted, "
              f"{self.failed} failed")
        if self.digest:
            print(f"emission digest {self.digest} (first session of this seed)")
        for err in self.errors[:20]:
            print(f"CHECK FAILED: {err}")
        for m in wanted:
            v = self.metrics[m["name"]]
            note = self.notes.get(m["name"], "")
            print(f"  {m['name']:36s} {v['value']:14.6g} {v['unit']:13s} {note}")
        metrics = {m["name"]: self.metrics[m["name"]] for m in wanted}
        print(json.dumps({"correct": not self.errors, "attempted": self.attempted,
                          "failed": self.failed, "metrics": metrics}))
        return 0


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    roenum = import_program()
    out = Report(name, trace)
    workload = WORKLOADS[name]
    (workload.trace if trace else workload.measure)(roenum, seed, seconds, out)
    return out.finish()


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process of its own, one at a time,
    untraced then traced; raw outputs go to bench/results/."""
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            raw = results / f"{name}-seed{seed}-trace{trace}.txt"
            raw.write_text(proc.stdout + proc.stderr)
            print(f"== {name} --trace {trace} (exit {proc.returncode}, raw output "
                  f"in {raw.relative_to(ROOT)})")
            print(proc.stdout.rstrip())
            if proc.returncode != 0:
                print(proc.stderr.rstrip())
                status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from this file's SPEC and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
