"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured numbers.  Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances are pinned here, not configurable: completeness and the
exhaustive enumerations admit zero failures; rate experiments carry the
stated absolute bands; runtime caps are asserted where stated.
"""

import itertools
import random
import socket
import threading
import time

import pytest

from mith import mpc
from mith import protocol as pr
from mith import session as ses
from mith.bench import BENCH_REPS, _time_ms, bench_proof, ladder
from mith.circuit import Statement, Witness, eval_plain, parse_circuit
from mith.commit import TEST_GROUP_64, PrfScheme, pedersen_commit, scheme_by_name
from mith.corpus import (
    bench_circuit_a, golden_corpus, random_circuit,
    random_instance,
)
from mith.field import Modulus, RandomSource, preset_modulus
from mith.harness import OneBadPairCheater, canonical_false_statement, run_soundness
from mith.sss import PARTY_PAIRS, share
from tests.test_commit import RFC4231
from tests.test_mpc import (
    ScriptedRng, all_pairs_consistent, honest_run, make_free,
    real_execution_from_free_coords, repetition_views, rerun_from_views, simulator_draws,
    tamper_cases,
)

PRF = scheme_by_name("prf")


def report(num, text, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{tag}] criterion {num}: {text}{suffix}")
    assert ok, f"criterion {num}: {text}{suffix}"


def single_run_accepts(s, w, rng, scheme=PRF):
    return pr.verify_repeated(s, pr.prove_repeated(w, s, 1, rng, scheme, "transcript"))


def test_criterion_1_completeness():
    """Exhaustive F_11 witnesses on a 20-circuit corpus plus 1000
    randomized F_101 runs: zero rejections, under a minute."""
    t0 = time.time()
    m11 = Modulus(11)
    rng = RandomSource(101)
    rejections = 0
    runs = 0
    for s, _ in golden_corpus(m11, 20):
        c = s.circuit
        n = c.topology.n_secret
        for combo in itertools.product(range(11), repeat=n):
            w = Witness(tuple(m11.element(v) for v in combo))
            target = eval_plain(Statement(c, s.public_inputs, m11.element(0)), w)
            stmt = Statement(c, s.public_inputs, target)
            runs += 1
            if not single_run_accepts(stmt, w, rng):
                rejections += 1
    m101 = Modulus(101)
    rnd = random.Random(7)
    for _ in range(1000):
        c = random_circuit(rnd, m101, n_public=rnd.randrange(2),
                           n_secret=rnd.randrange(1, 3),
                           max_depth=rnd.randrange(1, 5))
        s, w = random_instance(rnd, c)
        runs += 1
        if not single_run_accepts(s, w, rng):
            rejections += 1
    elapsed = time.time() - t0
    report(1, "completeness = 1 (exhaustive F_11 + randomized F_101)",
           rejections == 0 and elapsed < 60,
           f"{runs} runs, {rejections} rejections, {elapsed:.1f}s")


def test_criterion_2_per_run_soundness():
    """One-bad-pair cheater at 10^4 trials: rate within 0.01 of 0.9 and
    per-trial acceptance identical to 'challenge avoided the bad pair'."""
    t0 = time.time()
    s, w_guess = canonical_false_statement()
    rng = RandomSource(202)
    cheater = OneBadPairCheater(s, w_guess, (1, 2), rng)
    rep = run_soundness(cheater, 10_000, rng, tolerance=0.01)
    elapsed = time.time() - t0
    exact = "accept==challenge-avoids-bad-pair" in rep.detail
    report(2, "per-run soundness 0.9 +/- 0.01 with exact per-trial coincidence",
           rep.verdict == "pass" and exact and elapsed < 120,
           f"rate {rep.rate:.4f}, {elapsed:.1f}s")


def test_criterion_3_repetition_bound():
    """Same cheater at sigma=10 within 0.02 of 0.9^10; the 40-repetition
    bound evaluates to 0.01478 at 4 significant digits."""
    s, w_guess = canonical_false_statement()
    rng = RandomSource(303)
    cheater = OneBadPairCheater(s, w_guess, (3, 5), rng)
    rep = run_soundness(cheater, 6_000, rng, reps=10, tolerance=0.02)
    bound_40 = f"{pr.soundness_bound(40):.4g}"
    report(3, "repetition: rate within 0.02 of 0.9^10 and bound(40) = 0.01478",
           rep.verdict == "pass" and abs(rep.bound - 0.9**10) < 1e-12
           and bound_40 == "0.01478",
           f"rate {rep.rate:.4f} vs {0.9**10:.4f}, bound(40)={bound_40}")


def test_criterion_4_sharing_privacy_exact():
    """For p=11 and every one of the 10 pairs, the 121 corrupt-share pairs
    of two distinct secrets form the same (uniform) multiset."""
    m = Modulus(11)
    full = sorted((a, b) for a in range(11) for b in range(11))
    ok = True
    for (i, j) in PARTY_PAIRS:
        for secrets in ((3, 8), (0, 10)):
            dists = []
            for secret in secrets:
                # One lane per (a1, a2) in F_11^2.
                cols = share(secret, [a1 for a1 in range(11) for _ in range(11)],
                             [a2 for _ in range(11) for a2 in range(11)], 11)
                dists.append(sorted(zip(cols[i - 1], cols[j - 1])))
            ok = ok and dists[0] == dists[1] == full
    report(4, "exact 2-privacy of sharing (121-case enumeration, all pairs)", ok)


def test_criterion_5_mpc_correctness():
    """500 random circuit/input instances across F_11 and F_101: protocol
    output equals plain evaluation every time."""
    t0 = time.time()
    rng = RandomSource(505)
    mism = 0
    for p, count, seed in ((11, 250, 1), (101, 250, 2)):
        m = Modulus(p)
        rnd = random.Random(seed)
        for _ in range(count):
            c = random_circuit(rnd, m, n_public=rnd.randrange(2),
                               n_secret=rnd.randrange(1, 3),
                               max_depth=rnd.randrange(1, 7))
            s, w = random_instance(rnd, c)
            res, _, _ = honest_run(s, w, rng)
            want = eval_plain(s, w)
            if res.output != want:
                mism += 1
    elapsed = time.time() - t0
    report(5, "MPC output equals plain evaluation on 500 random instances",
           mism == 0 and elapsed < 120, f"{mism} mismatches, {elapsed:.1f}s")


def test_criterion_6_local_vs_global_consistency():
    """Honest runs pass all pairwise checks; on a 100-case tampered corpus
    pairwise consistency everywhere is equivalent to exact reproduction by
    re-execution, and every tamper breaks at least one pair."""
    m = Modulus(11)
    rng = RandomSource(606)
    rnd = random.Random(606)
    from mith.corpus import square_plus_one_circuit
    c = square_plus_one_circuit(m)
    s = Statement(c, (), m.element(10))
    honest_ok = True
    for _ in range(10):
        res, _, _ = honest_run(s, Witness((m.element(rnd.randrange(11)),)), rng)
        honest_ok = honest_ok and all_pairs_consistent(c, s.public_inputs, res.views)
        redo = rerun_from_views(c, s.public_inputs, res.views)
        honest_ok = honest_ok and redo is not None and redo.views == res.views
    tampered_ok = True
    checked = 0
    while checked < 100:
        res, _, _ = honest_run(s, Witness((m.element(rnd.randrange(11)),)), rng)
        for views in tamper_cases(c, res.views, rnd):
            if checked >= 100:
                break
            consistent = all_pairs_consistent(c, s.public_inputs, views)
            redo = rerun_from_views(c, s.public_inputs, views)
            reproduced = redo is not None and list(redo.views) == list(views)
            tampered_ok = tampered_ok and (consistent == reproduced) and not consistent
            checked += 1
    report(6, "pairwise consistency <=> honest re-execution (100 tampered cases)",
           honest_ok and tampered_ok, f"{checked} tampered tuples")


def test_criterion_7_zk_exactness():
    """One-mul F_11 statement: simulated and real transcripts coincide
    pointwise under coupled randomness for every challenge (121-case
    exhaustive sweep of an incoming block plus random sweeps of the rest),
    commitments on both sides verify, and the rejection-sampling retry
    count is geometric with mean 10."""
    m = Modulus(11)
    c = parse_circuit("field 11\ntopology 0 1 1\n(mul 1 (sinput 0) (sinput 0))")
    w_val = 3
    s = Statement(c, (), m.element(9))
    rnd = random.Random(707)
    coupling_ok = True
    verify_ok = True
    rng = RandomSource(707)
    for pair in PARTY_PAIRS:
        # Exhaustive over one honest party's incoming resharing block.
        honest_k = [k for k in (1, 2, 3, 4, 5) if k not in pair][0]
        base = make_free(rnd, pair, 11)
        for h_i in range(11):
            for h_j in range(11):
                free = list(base)
                hin = dict(base[5])
                hin[honest_k] = (h_i, h_j)
                free[5] = hin
                free = tuple(free)
                res = real_execution_from_free_coords(c, s, w_val, free, m)
                vi_r = res.views[pair[0] - 1]
                vj_r = res.views[pair[1] - 1]
                cs = [(m.element(free[1]), m.element(free[2]))]
                vi_s, vj_s = mpc.mpc_simulate(
                    c, (), pair, cs, s.target, ScriptedRng(simulator_draws(free)))
                coupling_ok = coupling_ok and vi_s == vi_r and vj_s == vj_r
        # Random full-coordinate sweeps, including the opening-verify bit.
        for _ in range(20):
            free = make_free(rnd, pair, 11)
            res = real_execution_from_free_coords(c, s, w_val, free, m)
            cs = [(m.element(free[1]), m.element(free[2]))]
            vi_s, vj_s = mpc.mpc_simulate(
                c, (), pair, cs, s.target, ScriptedRng(simulator_draws(free)))
            coupling_ok = (coupling_ok
                           and vi_s == res.views[pair[0] - 1]
                           and vj_s == res.views[pair[1] - 1])
            for view in (vi_s, vj_s):
                (key,) = PRF.keygen(rng, 1)
                (com,) = PRF.commit_view([key], [view])
                verify_ok = verify_ok and PRF.verify_view([view], [com], [key])[0]

    total_attempts = 0
    runs = 10_000
    for _ in range(runs):
        attempts = [0]

        def verifier(s_, cm_):
            attempts[0] += 1
            return rng.randbelow(10)

        pr.zk_simulate(s, verifier, rng=rng)
        total_attempts += attempts[0]
    mean = total_attempts / runs
    report(7, "ZK exactness: coupled real/simulated equality + geometric retries",
           coupling_ok and verify_ok and 9.0 <= mean <= 11.0,
           f"mean retries {mean:.2f}")


def test_criterion_8_commitment_bit_exactness():
    """HMAC-SHA256 reproduces every RFC 4231 vector; the PRF commitment
    of a fixed view under a fixed key is SHA-256(key || view), pinned;
    the Pedersen homomorphism holds on 1000 random cases in the 64-bit
    test group."""
    import hashlib
    import hmac as hmac_mod
    vec_ok = all(
        hmac_mod.new(key, data, hashlib.sha256).hexdigest() == want
        for key, data, want in RFC4231)
    # key 00 01 .. 1f, view 20 21 .. 5f: SHA-256 of the 96 bytes 00 .. 5f.
    key, view = bytes(range(32)), bytes(range(32, 96))
    prf_ok = PrfScheme().commit_view([key], [view]) == [bytes.fromhex(
        "08359b108fa567f5dcf319fa3434da6abbc1d595f426372666447f09cc5a87dc")]
    params = TEST_GROUP_64
    rnd = random.Random(808)
    q, P = params.order, params.group_prime
    hom_ok = True
    for _ in range(1000):
        m1, m2 = rnd.randrange(q), rnd.randrange(q)
        r1, r2 = rnd.randrange(q), rnd.randrange(q)
        (c1,), _ = pedersen_commit(params, [r1], [m1])
        (c2,), _ = pedersen_commit(params, [r2], [m2])
        (c12,), _ = pedersen_commit(params, [(r1 + r2) % q], [(m1 + m2) % q])
        hom_ok = hom_ok and c1 * c2 % P == c12
    report(8, "HMAC-SHA256 matches RFC 4231; PRF commitment known answer; "
           "Pedersen homomorphism on 10^3 cases", vec_ok and prf_ok and hom_ok)


def test_criterion_9_scheme_performance_shape():
    """PRF commit+verify at least 5x faster than Pedersen on the 256-bit
    preset, and whole proofs (prove plus verify) faster with PRF on both
    benchmark circuits."""
    m = preset_modulus("p256")
    rng = RandomSource(909)
    prf = scheme_by_name("prf")
    ped = scheme_by_name("pedersen", m.p)
    c = bench_circuit_a(m)
    s, w = random_instance(random.Random(909), c)
    st, _ = pr.commit_repetitions(w, s, 1, rng, prf)
    view = repetition_views(st.rows, 1)[0]
    runs = range(21)
    (key,) = prf.keygen(rng, 1)
    com = prf.commit_view([key], [view])
    prf_ms = (_time_ms(lambda _: prf.commit_view([key], [view]), runs)[0]
              + _time_ms(lambda _: prf.verify_view([view], com, [key]), runs)[0])
    (pkey,) = ped.keygen(rng, 1)
    pcom = ped.commit_view([pkey], [view])
    ped_ms = (_time_ms(lambda _: ped.commit_view([pkey], [view]), runs)[0]
              + _time_ms(lambda _: ped.verify_view([view], pcom, [pkey]), runs)[0])
    ratio = ped_ms / prf_ms

    e2e_ok = True
    rows = []
    for name, circuit in ladder(quick=True):
        r_prf = bench_proof(name, circuit, "prf", BENCH_REPS, rng)
        r_ped = bench_proof(name, circuit, "pedersen", BENCH_REPS, rng)
        prf_total = r_prf.prove_ms + r_prf.verify_ms
        ped_total = r_ped.prove_ms + r_ped.verify_ms
        rows.append((r_prf.circuit, prf_total, ped_total))
        e2e_ok = e2e_ok and r_prf.accepted and r_ped.accepted and prf_total < ped_total
    report(9, "PRF >= 5x faster than Pedersen (256-bit) and faster end to end",
           ratio >= 5.0 and e2e_ok,
           f"256-bit ratio {ratio:.0f}x; " + "; ".join(
               f"{n}: {a:.2f}ms vs {b:.2f}ms" for n, a, b in rows))


def test_criterion_10_session_equivalence():
    """100 loopback sessions (honest and cheating provers mixed): the live
    verdict equals offline verification of the captured transcript, and
    every frame log shows the full COMMIT arriving before the CHALLENGE."""
    m = Modulus(11)
    s_true, w = golden_corpus(m, 2)[1]
    s_false, w_guess = canonical_false_statement(m)
    rng = RandomSource(1010)
    cheater = OneBadPairCheater(s_false, w_guess, (1, 4), rng)
    mismatches = 0
    ordering_ok = True
    verdicts = []

    for k in range(100):
        cheating = k % 2 == 1
        s = s_false if cheating else s_true
        events = []

        class Probe:
            def __init__(self, inner):
                self.inner = inner

            def send_all(self, data):
                if data[4] == ses.MSG_CHALLENGE:
                    events.append(("challenge_sent", 0))
                self.inner.send_all(data)

            def recv_exactly(self, n):
                data = self.inner.recv_exactly(n)
                events.append(("recv", len(data)))
                return data

            def close(self):
                self.inner.close()

        a, b = socket.socketpair()
        ta = ses.Transport(a, 10)
        tb = Probe(ses.Transport(b, 10))
        captured = []
        out = {}

        def verifier():
            out["v"] = ses.verifier_session(tb, s, 2, rng, capture=captured)

        th = threading.Thread(target=verifier)
        th.start()
        if cheating:
            digest = pr.statement_hash(s)
            ses._send(ta, ses.MSG_HELLO, ses._hello_payload(0x01, 2, digest))
            ses._read_hello(ta)
            state, commit = cheater.commit(rng, 2)
            ses._send(ta, ses.MSG_COMMIT, commit)
            ch_payload = ses._expect(ta, ses.MSG_CHALLENGE, "challenge")
            ses._send(ta, ses.MSG_RESPONSE, pr.prover_respond(state, ch_payload[32:]))
            ses._expect(ta, ses.MSG_RESULT, "result")
        else:
            ses.prover_session(ta, s, w, 2, rng=rng)
        th.join()
        ta.close()
        tb.close()

        verdicts.append(out["v"])
        offline = pr.verify_repeated(s, captured[0])
        if offline != out["v"]:
            mismatches += 1
        sent_at = [i for i, e in enumerate(events) if e[0] == "challenge_sent"]
        commit_bytes = sum(
            e[1] for e in events[:sent_at[0]] if e[0] == "recv") if sent_at else 0
        # hello frame (43) + commit frame header (5) + payload (2 reps).
        min_commit = 43 + 5 + 2 * 5 * (4 + 32)
        ordering_ok = ordering_ok and sent_at and commit_bytes >= min_commit

    report(10, "100 loopback sessions match offline replay; commit precedes challenge",
           mismatches == 0 and ordering_ok and True in verdicts and False in verdicts,
           f"{mismatches} verdict mismatches, "
           f"{sum(1 for v in verdicts if not v)} rejects among cheats")
