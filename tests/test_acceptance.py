"""Acceptance gate: the twelve release criteria.

Each test exercises one criterion end to end and prints a single
``ACCEPTANCE <k> ... PASS|FAIL`` line. Shared enumeration passes over the
instance corpus are computed once per session and reused.
"""

import math
import random
import time
import zlib
from fractions import Fraction

import pytest

from roenum.exact import ara_enumerate, raccess
from roenum.fpras import PrefixDictionary, axa_enumerate, root_estimate
from roenum.fptas import aia_enumerate
from roenum.parallel import master_phase1, prefill_target, run_parallel
from roenum.problem import brute_force_solutions
from roenum.problems import (AllBitstrings, Knapsack, KnapsackInstance,
                             SimulatedOracleConfig, SimulatedOracles,
                             default_oracle_factory, generate_knapsack)
from roenum.stats import delay_profile, first_emission_test, \
    position_frequency_test
from roenum.swor import swor_enumerate

F = Fraction
ALLBITS = AllBitstrings()
KNAP = Knapsack()

WIDTH_LO = F(49, 64)
WIDTH_HI = F(64, 49)


def _seed(label: str) -> int:
    """Stable per-instance seed (str hashing is salted per process)."""
    return zlib.crc32(label.encode()) & 0xFFFF


def _report(num: int, title: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {title}: {verdict}{suffix}")
    assert ok, f"criterion {num} ({title}) failed{suffix}"


@pytest.fixture(scope="session")
def corpus():
    """Criterion-1 corpus: 50 seeded knapsack instances plus all-bitstrings
    n in 0..12, each with its brute-force solution set."""
    items = []
    for s in range(50):
        x = generate_knapsack(8 + (s % 7), seed=s)
        items.append((KNAP, x, f"knapsack[{s}]",
                      set(brute_force_solutions(KNAP, x))))
    for n in range(13):
        items.append((ALLBITS, n, f"allbits[{n}]",
                      set(brute_force_solutions(ALLBITS, n))))
    return items


def recording_lookup(computes: list):
    """A `PrefixDictionary.lookup` that appends (dictionary, prefix) to
    `computes` each time it runs `compute`."""
    real_lookup = PrefixDictionary.lookup

    def lookup(self, prefix, compute):
        def recorded():
            computes.append((self, prefix))
            return compute()
        return real_lookup(self, prefix, recorded)

    return lookup


@pytest.fixture(scope="session")
def corpus_runs(corpus):
    """One full enumeration pass per algorithm over the corpus.

    exact-count AIA, hash-noise AXA (failure-free: delta = 0), hash-noise
    parallel m in {2, 4} where the instance is large enough, plus ARA.
    Each parallel run records the (dictionary, prefix) of every `compute`
    its dictionaries' lookups run.
    """
    t0 = time.monotonic()
    runs = []
    for problem, x, label, brute in corpus:
        entry = {"label": label, "brute": brute, "problem": problem, "x": x}
        rng = random.Random(_seed(label))
        entry["ara"] = list(ara_enumerate(problem, problem.exact_count, x,
                                          rng))

        exact_fptas = lambda inst, eps: problem.exact_count(inst)
        entry["aia"] = list(aia_enumerate(problem, exact_fptas, x, rng))

        sim = SimulatedOracles(problem, SimulatedOracleConfig(
            noise_mode="hash", seed=_seed(label)))
        entry["axa"] = list(axa_enumerate(problem, sim.fpras, x, F(0), rng))
        entry["axa_phi"] = (F(4, 9) / root_estimate(problem, sim.fpras, x, F(0))
                            if entry["axa"] else None)

        entry["parallel"], entry["computes"] = {}, {}
        for m in (2, 4):
            if len(brute) < 2 * m:
                continue
            factory = default_oracle_factory(problem, noise_mode="hash",
                                             seed=_seed(label))
            computes = entry["computes"][m] = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(PrefixDictionary, "lookup",
                              recording_lookup(computes))
                entry["parallel"][m] = run_parallel(
                    problem, x, F(1, 20), m, seed=_seed(label),
                    oracle_factory=factory)
        runs.append(entry)
    print(f"[corpus pass: {time.monotonic() - t0:.1f}s]")
    return runs


@pytest.fixture(scope="session")
def noisy_runs(corpus):
    """Full AIA pass with adversarial band-endpoint FPTAS noise."""
    out = []
    for problem, x, label, brute in corpus:
        sim = SimulatedOracles(problem, SimulatedOracleConfig(
            noise_mode="extreme", seed=_seed(label)))
        records = list(aia_enumerate(problem, sim.fptas, x,
                                     random.Random(1)))
        phi = F(4, 9) / sim.fptas(x, F(1, 3)) if records else None
        out.append({"label": label, "brute": brute, "records": records,
                    "phi": phi})
    return out


def test_criterion_01_oracle_equivalence(corpus_runs):
    bad = []
    for entry in corpus_runs:
        brute = entry["brute"]
        sets = {"ara": entry["ara"],
                "aia": [r.solution for r in entry["aia"]],
                "axa": [r.solution for r in entry["axa"]]}
        for m, result in entry["parallel"].items():
            sets[f"par{m}"] = [r.solution for r in result.outputs]
            if not result.complete:
                bad.append((entry["label"], f"par{m} incomplete"))
        for name, words in sets.items():
            if len(words) != len(set(words)):
                bad.append((entry["label"], f"{name} duplicates"))
            if set(words) != brute:
                bad.append((entry["label"], f"{name} set mismatch"))
    _report(1, "oracle equivalence", not bad, str(bad[:3]) if bad else
            f"{len(corpus_runs)} instances x 5 algorithms")


def test_criterion_02_lexicographic_random_access(corpus):
    bad = []
    for problem, x, label, brute in corpus:
        total = problem.exact_count(x)
        words = [raccess(problem, problem.exact_count, x, i)
                 for i in range(1, total + 1)]
        if words != sorted(brute):
            bad.append(label)
    _report(2, "lexicographic random access", not bad, str(bad[:3]))


def test_criterion_03_width_window(noisy_runs):
    bad = []
    for entry in noisy_runs:
        m = len(entry["brute"])
        for rec in entry["records"]:
            if not (WIDTH_LO / m <= rec.width <= WIDTH_HI / m):
                bad.append((entry["label"], rec.solution, rec.width))
    _report(3, "width window [(49/64)/M, (64/49)/M]", not bad, str(bad[:3]))


def test_criterion_04_tiling(corpus_runs, noisy_runs):
    bad = []
    all_runs = [(e["label"], e[k]) for e in corpus_runs for k in ("aia", "axa")]
    all_runs += [(e["label"], e["records"]) for e in noisy_runs]
    for label, records in all_runs:
        if not records:
            continue
        if sum(r.width for r in records) != F(1):
            bad.append((label, "widths do not sum to 1"))
        spans = sorted((r.low, r.high) for r in records)
        if any(a[1] > b[0] for a, b in zip(spans, spans[1:])):
            bad.append((label, "overlapping intervals"))
    _report(4, "exact tiling of [0,1)", not bad, str(bad[:3]))


def test_criterion_05_ratio_and_attempts(corpus_runs, noisy_runs):
    bad = []
    for entry in noisy_runs:
        for rec in entry["records"]:
            ratio = entry["phi"] / rec.width
            if not (F(1, 4) < ratio < F(1)):
                bad.append((entry["label"], "ratio", ratio))
    for entry in corpus_runs:
        if entry["axa_phi"] is None:
            continue
        for rec in entry["axa"]:
            ratio = entry["axa_phi"] / rec.width
            if not (F(1, 4) < ratio < F(1)):
                bad.append((entry["label"], "axa ratio", ratio))

    exact_attempts = [r.attempts for e in corpus_runs for r in e["aia"]]
    all_attempts = exact_attempts + \
        [r.attempts for e in corpus_runs for r in e["axa"]] + \
        [r.attempts for e in noisy_runs for r in e["records"]]
    mean_exact = sum(exact_attempts) / len(exact_attempts)
    mean_all = sum(all_attempts) / len(all_attempts)
    ok = not bad and mean_exact <= 3.0 and mean_all <= 4.0
    _report(5, "acceptance ratio in (1/4,1), attempts", ok,
            f"mean exact={mean_exact:.3f} <= 3.0, all={mean_all:.3f} <= 4.0"
            if not bad else str(bad[:3]))


def test_criterion_06_uniformity():
    t0 = time.monotonic()
    support3 = {f"{i:03b}" for i in range(8)}
    results = {}

    firsts = []
    for seed in range(20_000):
        rec = next(aia_enumerate(ALLBITS, lambda x, e: 1 << x, 3,
                                 random.Random(seed)))
        firsts.append(rec.solution)
    results["aia"] = first_emission_test(firsts, support3)

    firsts = []
    for seed in range(20_000):
        sim = SimulatedOracles(ALLBITS, SimulatedOracleConfig(
            noise_mode="hash", nonce=seed))
        rec = next(axa_enumerate(ALLBITS, sim.fpras, 3, F(1, 20),
                                 random.Random(seed)))
        firsts.append(rec.solution)
    results["axa"] = first_emission_test(firsts, support3)

    firsts = []
    for seed in range(20_000):
        res = run_parallel(ALLBITS, 3, F(1, 20), 2, seed=seed,
                           oracle_factory=default_oracle_factory(
                               ALLBITS, seed=seed),
                           q_override=1,
                           max_outputs=1)
        firsts.append(res.outputs[0].solution)
    results["par2"] = first_emission_test(firsts, support3)

    orders = []
    for seed in range(50_000):
        recs = aia_enumerate(ALLBITS, lambda x, e: 1 << x, 2,
                             random.Random(seed))
        orders.append(tuple(r.solution for r in recs))
    results["full"] = position_frequency_test(
        orders, {f"{i:02b}" for i in range(4)})

    detail = ", ".join(
        f"{k}: p={v['pvalue']:.2g}"
        for k, v in results.items())
    ok = all(v["passed"] for v in results.values())
    _report(6, "uniformity chi-square at 1e-3", ok,
            f"{detail} [{time.monotonic() - t0:.0f}s]")


def test_criterion_07_session_failure_bound():
    # M = 8 knapsack instance with pairwise distinct sub-instances, so a
    # failed estimate shifts the local pivot instead of cancelling out
    delta = F(1, 10)
    sessions = 2000
    x = KnapsackInstance(7, (1, 2, 4))
    support = set(brute_force_solutions(KNAP, x))
    m = len(support)
    assert m == 8
    polluted = incomplete = 0
    for nonce in range(sessions):
        sim = SimulatedOracles(KNAP, SimulatedOracleConfig(
            noise_mode="hash", nonce=nonce))
        records = list(axa_enumerate(KNAP, sim.fpras, x, delta,
                                     random.Random(nonce)))
        words = [r.solution for r in records]
        if set(words) != support or len(words) != m:
            incomplete += 1
        if any(not (WIDTH_LO / m <= r.width <= WIDTH_HI / m)
               for r in records):
            polluted += 1
    frac = polluted / sessions
    slack = 3 * math.sqrt(float(delta) * (1 - float(delta)) / sessions)
    ok = incomplete == 0 and frac <= float(delta) + slack
    _report(7, "session failure bound", ok,
            f"polluted={frac:.3f} <= {float(delta) + slack:.3f}, "
            f"incomplete={incomplete}")


def test_criterion_08_dictionary_consistency(corpus_runs):
    bad = []
    for entry in corpus_runs:
        for m, result in entry["parallel"].items():
            computes = entry["computes"][m]
            for a, d in zip(result.assignments, result.slave_dicts):
                if any(c is d and key in d.preloaded for c, key in computes):
                    bad.append((entry["label"], m, "piece recomputed"))
                if d.piece(a.piece) != a.piece:
                    bad.append((entry["label"], m, "entry overwritten"))
                for key, value in a.piece.items():
                    if result.master_dict.entries[key] != value:
                        bad.append((entry["label"], m, "piece mismatch"))
            for d in [result.master_dict, *result.slave_dicts]:
                keys = [key for c, key in computes if c is d]
                if len(keys) != len(set(keys)):
                    bad.append((entry["label"], m, "entry recomputed"))
    _report(8, "write-once dictionary consistency", not bad, str(bad[:3]))


def test_criterion_09_partition_quality():
    n, m_sol = 10, 1 << 10
    bad = []
    factory = default_oracle_factory(ALLBITS)
    for m in (2, 4, 8):
        assignments, _ = master_phase1(ALLBITS, factory(0), n, F(0), m)
        if assignments[0].low != F(0) or assignments[-1].high != F(1):
            bad.append((m, "union"))
        for a, b in zip(assignments, assignments[1:]):
            if a.high != b.low:
                bad.append((m, "gap/overlap"))
        for a in assignments:
            if abs(a.width - F(1, m)) >= F(8, 3) / m_sol:
                bad.append((m, a.index, a.width))
    _report(9, "partition quality", not bad, str(bad[:3]))


def test_criterion_10_parallel_delay_bound():
    t0 = time.monotonic()
    m, alpha, delta_star, delta = 4, F(1, 2), F(1, 10), F(1, 20)
    runs = 500
    pace = (1 + alpha) * F(3, 2) * F(100, m)  # 56.25 ticks
    q_bound = prefill_target(m, alpha, delta_star)
    good = 0
    q_seen = None
    for run in range(runs):
        factory = default_oracle_factory(ALLBITS, seed=run)
        result = run_parallel(ALLBITS, 11, delta, m, seed=run,
                              oracle_factory=factory, mode="paced",
                              alpha=alpha, delta_star=delta_star,
                              s_ticks=100, t_ticks=100)
        q_seen = result.prefill_q
        assert result.complete
        if result.stalls == 0 and all(g == pace for g in result.gaps):
            good += 1
    frac = good / runs
    target = 1 - float(delta) - float(delta_star)
    slack = 3 * math.sqrt(target * (1 - target) / runs)
    ok = q_seen >= q_bound and frac >= target - slack
    _report(10, "parallel delay bound", ok,
            f"Q={q_seen} >= {q_bound}, on-pace fraction={frac:.3f} >= "
            f"{target - slack:.3f} [{time.monotonic() - t0:.0f}s]")


def test_criterion_11_speedup():
    factory = default_oracle_factory(ALLBITS)
    serial = run_parallel(ALLBITS, 11, F(1, 20), 1, seed=0,
                          oracle_factory=factory, q_override=1,
                          s_ticks=100, t_ticks=100)
    bad = []
    spans = []
    for seed in (0, 1):
        par = run_parallel(ALLBITS, 11, F(1, 20), 4, seed=seed,
                           oracle_factory=factory, q_override=1,
                           s_ticks=100, t_ticks=100)
        spans.append(par.makespan)
        if not (par.complete and
                par.makespan <= F(16, 10) * serial.makespan / 4):
            bad.append((seed, par.makespan))
    _report(11, "speedup at m=4", not bad,
            f"makespans {[str(s) for s in spans]} <= "
            f"{float(F(16, 10) * serial.makespan / 4):.0f}")


def test_criterion_12_swor_contrast():
    n, m_sol, runs = 10, 1 << 10, 200
    harmonic = sum(F(1, k) for k in range(1, m_sol + 1))
    expected = float(m_sol * harmonic)  # ~ 7689
    totals = []
    first_decile = []
    last_decile = []
    decile = m_sol // 10
    for seed in range(runs):
        recs = list(swor_enumerate(ALLBITS, ALLBITS.exact_count, n,
                                   random.Random(seed)))
        totals.append(sum(r.attempts for r in recs))
        first_decile.append(sum(r.attempts for r in recs[:decile]) / decile)
        last_decile.append(sum(r.attempts for r in recs[-decile:]) / decile)
    mean_total = sum(totals) / runs
    mean_first = sum(first_decile) / runs
    mean_last = sum(last_decile) / runs

    aia = list(aia_enumerate(ALLBITS, lambda x, e: 1 << x, n,
                             random.Random(0)))
    profile = delay_profile(aia, 128)
    max_window = max(row["mean_attempts"] for row in profile)

    ok = (abs(mean_total - expected) <= 0.10 * expected and
          mean_last >= 4 * mean_first and max_window <= 4.0)
    _report(12, "SWOR contrast", ok,
            f"total={mean_total:.0f} (expect {expected:.0f} +-10%), "
            f"decile ratio={mean_last / mean_first:.1f} >= 4, "
            f"aia max window={max_window:.2f} <= 4")
