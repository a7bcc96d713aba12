"""Proof protocol: completeness, soundness arithmetic, repetition,
serialization, and the rejection-sampling simulator."""

import collections
import hashlib
import hmac
import random
import socket
import threading

import pytest

from mith import circuit, commit, mpc
from mith import protocol as pr
from mith import session as ses
from mith.circuit import Statement, Witness, parse_circuit
from mith.commit import scheme_by_name
from mith.corpus import golden_corpus, random_instance
from mith.errors import MithError, ProofError, SimulationFailure
from mith.field import FieldElement, Modulus, RandomSource
from mith.harness import OneBadPairCheater, canonical_false_statement
from mith.sss import PARTY_IDS, PARTY_PAIRS

from test_commit import commit1, opens1
from test_field import chi2_uniform
from test_golden import CASES, SMUL_OVER_MUL
from test_mpc import fields, repetition_views
from test_reference import challenge_stream

PRF = scheme_by_name("prf")


def single_run(s, w, rng, scheme=PRF):
    return pr.prove_repeated(w, s, 1, rng, scheme, "transcript")


# One repetition of a proof with its opened views decoded: the commitment
# message, the challenge byte and a (view, opening) pair per opened party.
Rep = collections.namedtuple("Rep", "commitment challenge first second")


def response(*opened) -> bytes:
    """The response opening each (view, opening) pair given, in order."""
    return pr.serialize_response_block(*zip(*opened))


def block(cm, ch: int, resp: bytes) -> bytes:
    return cm + bytes([ch]) + resp


def recorded(s, cm, ch: int, resp: bytes):
    """A one-repetition PRF proof answering challenge byte ch."""
    return pr.Proof(PRF.name, pr.statement_hash(s), 1, block(cm, ch, resp))


def repetitions(proof, c) -> list[Rep]:
    (vi, n), (oi, o), (vj, _), (oj, _) = pr.block_fields(c, scheme_by_name(proof.scheme))[5:]
    size = len(proof.body) // proof.reps
    blocks = [proof.body[k:k + size] for k in range(0, len(proof.body), size)]
    return [Rep(b[:vi - 5], b[vi - 5], (mpc.decode_view(c, b[vi:vi + n]), b[oi:oi + o]),
                (mpc.decode_view(c, b[vj:vj + n]), b[oj:oj + o])) for b in blocks]


def with_repetitions(proof, reps):
    """proof with its repetitions replaced by reps."""
    return pr.Proof(proof.scheme, proof.stmt_hash, len(reps), b"".join(
        block(r.commitment, r.challenge, response(r.first, r.second)) for r in reps))


def commitment_of(msg: bytes, party: int) -> bytes:
    """party's commitment, sliced out of a commitment message."""
    n = len(msg) // 5
    return msg[(party - 1) * n + 4:party * n]


def drawn_challenges(s, commit, rng) -> bytes:
    """The challenges a transcript-mode proof draws for a commit phase
    (all-zero views and keys)."""
    n, L = len(commit) // pr.commit_length(PRF), mpc.encoded_view_length(s.circuit)
    unopened = pr.ProverState(bytes(5 * n * L), (bytes(PRF.opening_length),) * (5 * n))
    return pr.respond_repetitions(s, unopened, commit, rng, PRF, "transcript").challenges


def test_honest_single_run_accepts(m11, rng):
    for s, w in golden_corpus(m11, 10):
        assert pr.verify_repeated(s, single_run(s, w, rng))


@pytest.mark.parametrize("value", [11, 12, 256])
def test_witness_value_above_p_raises(m11, rng, value):
    """A witness value not below p raises before any sharing, where it once
    reached the views or the byte lanes."""
    c = parse_circuit("field 11\ntopology 1 1 1\n(mul 1 (pinput 0) (sinput 0))\n")
    s = Statement(c, (m11.element(2),), m11.element(6))
    with pytest.raises(MithError, match="witness value not below"):
        pr.run_repetitions(Witness((FieldElement(value, m11),)), s, 2, rng)
    with pytest.raises(MithError, match="witness value not below"):
        pr.prove_repeated(Witness((FieldElement(value, m11),)), s, 2, rng)
    assert pr.verify_repeated(s, pr.prove_repeated(Witness((m11.element(3),)), s, 2, rng))


def test_commitment_msg_has_five_verifiable_entries(m11, rng):
    s, w = golden_corpus(m11, 1)[0]
    st, cm = pr.commit_repetitions(w, s, 1, rng, PRF)
    assert len(cm) == 5 * (4 + PRF.commitment_length) == pr.commit_length(PRF)
    assert cm == pr.serialize_commitment_msg([commitment_of(cm, q) for q in PARTY_IDS])
    for q, view in zip(PARTY_IDS, repetition_views(st.rows, 1)):
        assert opens1(PRF, view, commitment_of(cm, q), st.openings[q - 1])


def test_commitment_msg_needs_five_entries():
    for n in (4, 6):
        with pytest.raises(MithError, match="needs 5 entries"):
            pr.serialize_commitment_msg([b"\x00" * 32] * n)


def test_serializers_join_batches_of_one():
    """A batch serializes to its batches of one, joined, with each field
    after its own length, whatever the lengths."""
    rng = RandomSource(b"serializers")
    coms = [rng.bytes(32) for _ in range(15)]
    assert pr.serialize_commitment_msg(coms) == b"".join(
        [pr.serialize_commitment_msg(coms[k:k + 5]) for k in range(0, 15, 5)])
    mixed = [b"a", b"bb", b"", b"ccc", b"d"]
    assert pr.serialize_commitment_msg(mixed) == b"".join(
        [len(x).to_bytes(4, "big") + x for x in mixed])
    with pytest.raises(MithError, match="needs 5 entries"):
        pr.serialize_commitment_msg([])
    views, openings = [rng.bytes(n) for n in (0, 3, 3, 40)], [rng.bytes(n) for n in (32, 32, 33, 0)]
    assert pr.serialize_response_block(iter(views), iter(openings)) == b"".join(
        [pr.serialize_response_block([v], [o]) for v, o in zip(views, openings)])
    assert pr.serialize_response_block([b"ab"], [b"c"]) == b"\0\0\0\x02ab\0\0\0\x01c"
    assert pr.serialize_response_block([], []) == b""


def test_commit_phase_deterministic_under_fixed_rand(m11):
    s, w = golden_corpus(m11, 1)[0]
    _, cm1 = pr.commit_repetitions(w, s, 3, RandomSource(5), PRF)
    _, cm2 = pr.commit_repetitions(w, s, 3, RandomSource(5), PRF)
    assert cm1 == cm2


def test_commit_phase_draws_in_three_passes(m11, monkeypatch):
    """A sigma=50 commit phase draws its sharing polynomials and its gate
    randomness once each, for every repetition at once."""
    calls = collections.Counter()
    share_draw, gate_draw = pr.random_share_randomness, mpc.random_gate_randomness
    monkeypatch.setattr(pr, "random_share_randomness",
                        lambda *a: calls.update(["share"]) or share_draw(*a))
    monkeypatch.setattr(mpc, "random_gate_randomness",
                        lambda *a: calls.update(["gate"]) or gate_draw(*a))
    s, w = golden_corpus(m11, 1)[0]
    st, commit = pr.commit_repetitions(w, s, 50, RandomSource(50), PRF)
    assert calls == {"share": 1, "gate": 1}
    assert len(commit) == 50 * pr.commit_length(PRF) and len(st.openings) == 250


@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
def test_prove_and_verify_without_stdlib_hmac(m11, monkeypatch, scheme_name):
    """Commitments, openings and challenges make no HMAC call: a PRF
    commitment is one SHA-256 and the challenges one SHAKE-256 stream."""
    def refuse(*args, **kwargs):
        raise AssertionError("hmac called")

    monkeypatch.setattr(hmac, "digest", refuse)
    monkeypatch.setattr(hmac, "new", refuse)
    s, w = golden_corpus(m11, 1)[0]
    proof = pr.prove_repeated(w, s, 5, RandomSource(8), scheme_by_name(scheme_name, 11))
    data = pr.serialize_proof(proof, s.circuit)
    assert pr.verify_repeated(s, pr.parse_proof(data, s.circuit))


def test_commitments_fresh_across_rand_draws(m11):
    s, w = golden_corpus(m11, 1)[0]
    rng = RandomSource(6)
    seen = set()
    for _ in range(1000):
        _, cm = pr.commit_repetitions(w, s, 1, rng, PRF)
        seen.add(commitment_of(cm, 1))
    assert len(seen) == 1000


def test_challenge_uniform_chi_square(m11):
    rng = RandomSource(7)
    s, w = golden_corpus(m11, 1)[0]
    cm = pr.serialize_commitment_msg([b"\x00" * 32] * 5)
    counts = [0] * 10
    for ch in drawn_challenges(s, cm * 100_000, rng):
        counts[ch] += 1
    _, pval = chi2_uniform(counts)
    assert pval >= 0.001


def test_challenge_ignores_commitment_content(m11):
    s, _ = golden_corpus(m11, 1)[0]
    c1 = pr.serialize_commitment_msg([b"\x00" * 32] * 5)
    c2 = pr.serialize_commitment_msg([b"\xff" * 32] * 5)
    ch1 = drawn_challenges(s, c1, RandomSource(8))
    ch2 = drawn_challenges(s, c2, RandomSource(8))
    assert ch1 == ch2


def test_response_is_pure_selection(m11, rng):
    s, w = golden_corpus(m11, 2)[1]
    reps = 3
    st, _ = pr.commit_repetitions(w, s, reps, rng, PRF)
    views = [repetition_views(st.rows, reps, k) for k in range(reps)]
    for t in range(len(PARTY_PAIRS)):  # every pair in every repetition
        chs = bytes((t + 3 * k) % len(PARTY_PAIRS) for k in range(reps))
        assert pr.prover_respond(st, chs) == b"".join([response(
            *[(views[k][q - 1], st.openings[(q - 1) * reps + k]) for q in PARTY_PAIRS[ch]])
            for k, ch in enumerate(chs)])


@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_prover_rows_are_what_the_proof_opens(name, scheme_name):
    """The commit phase's state holds row q*n + k for party q+1 in
    repetition k of n: the proof opens exactly the rows of each
    challenged pair, and every commitment recomputes from its row and
    its opening."""
    c = CASES[name][0]()
    s, w = random_instance(random.Random(17), c)
    scheme = scheme_by_name(scheme_name, c.modulus.p)
    reps, L = 7, mpc.encoded_view_length(c)
    st, commit = pr.commit_repetitions(w, s, reps, RandomSource(b"rows"), scheme)
    assert len(st.rows) == 5 * reps * L and len(st.openings) == 5 * reps

    def row(q, k):
        return st.rows[((q - 1) * reps + k) * L:((q - 1) * reps + k + 1) * L]

    assert commit == b"".join([pr.serialize_commitment_msg(
        [commit1(scheme, st.openings[(q - 1) * reps + k], row(q, k)) for q in PARTY_IDS])
        for k in range(reps)])
    proof = pr.respond_repetitions(s, st, commit, RandomSource(b"rows"), scheme, "derived")
    assert len(set(proof.challenges)) > 1
    assert pr.opened_views(c, proof) == b"".join(
        [row(q, k) for k, ch in enumerate(proof.challenges) for q in PARTY_PAIRS[ch]])
    assert pr.verify_repeated(s, proof)


def test_opened_views_joined_once_per_proof_file(m11, monkeypatch):
    """parse_proof joins the opened views to range-check them, and the
    verifier's replay reads that same buffer: one join per verify."""
    s, w = golden_corpus(m11, 1)[0]
    c = s.circuit
    proof = pr.parse_proof(pr.serialize_proof(pr.prove_repeated(w, s, 5, RandomSource(3)), c), c)
    joined, seen, replay = pr.opened_views(c, proof), [], mpc.out_messages
    monkeypatch.setattr(mpc, "out_messages",
                        lambda c, x, rows: seen.append(rows) or replay(c, x, rows))
    assert pr.verify_repeated(s, proof)
    assert len(seen) == 1 and seen[0] is joined


def test_tampered_state_breaks_check(m11, rng):
    s, w = golden_corpus(m11, 3)[2]
    (t,) = repetitions(single_run(s, w, rng), s.circuit)
    view = t.first[0]
    p = s.circuit.modulus.p
    bad_view = mpc.make_view(s.circuit, view, secret_shares=tuple(
        (x + 1) % p for x in fields(s.circuit, view).secret_shares))
    bad = response((bad_view, t.first[1]), t.second)
    assert not pr.verify_repeated(s, recorded(s, t.commitment, t.challenge, bad))


def test_flipped_opening_rejected(m11, rng):
    rnd = random.Random(11)
    for s, w in golden_corpus(m11, 5):
        (t,) = repetitions(single_run(s, w, rng), s.circuit)
        opening = bytearray(t.first[1])
        opening[rnd.randrange(32)] ^= 1 << rnd.randrange(8)
        bad = response((t.first[0], bytes(opening)), t.second)
        assert not pr.verify_repeated(s, recorded(s, t.commitment, t.challenge, bad))


def test_forged_view_never_opens_committed_digest(m11, rng):
    """Swapping the committed view for a different one requires a
    SHA-256(key || view) collision: zero acceptances over 10^5 key-search attempts."""
    s, w = golden_corpus(m11, 1)[0]
    c = s.circuit
    st, cm = pr.commit_repetitions(w, s, 1, rng, PRF)
    committed = commitment_of(cm, 1)
    blob = bytearray(repetition_views(st.rows, 1)[0])
    rnd = random.Random(99)
    wins = decoded = 0
    for _ in range(100_000):
        pos = rnd.randrange(len(blob))
        forged = bytes(blob[:pos]) + bytes([blob[pos] ^ 1]) + bytes(blob[pos + 1:])
        opening = rng.bytes(32)
        if opens1(PRF, forged, committed, opening):
            wins += 1
        try:
            view = mpc.decode_view(c, forged)
        except ProofError:
            continue
        decoded += 1
        # The scheme path must reject every forgery that is a view.
        if opens1(PRF, view, committed, opening):
            wins += 1
    assert decoded > 0
    assert wins == 0


def test_views_disagreeing_on_public_input_rejected(rng):
    m = Modulus(11)
    c = parse_circuit("field 11\ntopology 1 1 3\n"
                      "(add 2 (pinput 0) (smul 1 (const 3 1) (sinput 0)))")
    s = Statement(c, (m.element(5),), m.element(8))
    (t,) = repetitions(single_run(s, Witness((m.element(3),)), rng), c)
    ch = t.challenge
    v = t.first[0]
    bad_view = mpc.make_view(c, v, public_inputs=(6,))
    # Re-commit honestly to the altered view so only consistency can fail.
    (key,) = PRF.keygen(rng, 1)
    coms = [commitment_of(t.commitment, q) for q in PARTY_IDS]
    coms[PARTY_PAIRS[ch][0] - 1] = commit1(PRF, key, bad_view)
    assert not pr.verify_repeated(s, recorded(s, pr.serialize_commitment_msg(coms), ch,
                                              response((bad_view, key), t.second)))


@pytest.mark.parametrize("p, scheme_name", [(101, "prf"), (2**256 - 189, "pedersen")])
def test_proof_checked_against_other_public_input_fails_every_check(p, scheme_name):
    """An honest proof of SMUL_OVER_MUL, whose smul scalar is a mul of
    pinput 0, checked against the same circuit and target with another
    public input: every repetition's views replay to None, so every check
    fails, while the derived challenges still match the commitments: the
    file parses."""
    c = parse_circuit(SMUL_OVER_MUL.replace("field 101", f"field {p}"))
    s, w = random_instance(random.Random(5), c)
    proof = pr.prove_repeated(w, s, 6, RandomSource(16), scheme_by_name(scheme_name, p))
    proof = pr.parse_proof(pr.serialize_proof(proof, c), c)
    assert pr.verify_repeated(s, proof)
    other = Statement(c, (s.public_inputs[0] + c.modulus.one(),), s.target)
    assert pr.check_repetitions(other, proof) == [False] * 6


# ---------------------------------------------------------------------------
# Bounds


def test_soundness_bound_values():
    assert pr.soundness_bound(1) == pytest.approx(0.9)
    assert pr.soundness_bound(10) == pytest.approx(0.3486784401)
    assert f"{pr.soundness_bound(40):.4g}" == "0.01478"


def test_soundness_bound_monotone():
    vals = [pr.soundness_bound(k) for k in range(1, 60)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_soundness_bound_domain():
    with pytest.raises(MithError):
        pr.soundness_bound(0)


# ---------------------------------------------------------------------------
# Repetition and proof files


@pytest.mark.parametrize("mode", ["derived", "transcript"])
@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
def test_prove_verify_round_trip(m11, mode, scheme_name):
    """Both modes verify in memory; only a derived proof's file parses."""
    rng = RandomSource(13)
    scheme = scheme_by_name(scheme_name, 11)
    for s, w in golden_corpus(m11, 4):
        proof = pr.prove_repeated(w, s, 3, rng, scheme, mode=mode)
        assert pr.verify_repeated(s, proof)
        blob = pr.serialize_proof(proof, s.circuit)
        if mode == "transcript":
            with pytest.raises(ProofError, match="^challenge of repetition [0-2] is not"):
                pr.parse_proof(blob, s.circuit)
            continue
        parsed = pr.parse_proof(blob, s.circuit)
        assert pr.verify_repeated(s, parsed)


def test_verify_rejects_wrong_statement(m11):
    rng = RandomSource(14)
    s, w = golden_corpus(m11, 1)[0]
    proof = pr.prove_repeated(w, s, 2, rng)
    other = Statement(s.circuit, s.public_inputs,
                      s.target + s.circuit.modulus.one())
    assert not pr.verify_repeated(other, proof)


def test_verify_rejects_one_failing_transcript(m11):
    rng = RandomSource(15)
    s, w = golden_corpus(m11, 1)[0]
    proof = pr.prove_repeated(w, s, 4, rng, mode="transcript")
    ts = repetitions(proof, s.circuit)
    t = ts[2]
    bad = with_repetitions(proof, ts[:2] + [t._replace(first=(t.first[0], b"\x00" * 32))] + ts[3:])
    assert not pr.verify_repeated(s, bad)
    assert pr.check_repetitions(s, bad) == [True, True, False, True]


def test_derived_challenges_pin_commitments(m11):
    """A proof file with a challenge that does not match the hash of the
    commitments is malformed; in memory its check fails too."""
    rng = RandomSource(16)
    s, w = golden_corpus(m11, 1)[0]
    proof = pr.prove_repeated(w, s, 2, rng, mode="derived")
    t0, *rest = repetitions(proof, s.circuit)
    # Re-respond honestly for the wrong challenge is impossible without
    # state; simply relabel the challenge and keep the response.
    bad = with_repetitions(proof, [t0._replace(challenge=(t0.challenge + 1) % 10), *rest])
    with pytest.raises(ProofError, match="^challenge of repetition 0 is not"):
        pr.parse_proof(pr.serialize_proof(bad, s.circuit), s.circuit)
    assert not pr.verify_repeated(s, bad)


@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
def test_parse_names_the_first_challenge_not_derived(m11, scheme_name):
    """A derived proof file whose challenge byte of repetition 0, or of the
    last repetition, is replaced by any other value below 10 is malformed,
    and the error names that repetition."""
    s, w = golden_corpus(m11, 1)[0]
    c, reps, scheme = s.circuit, 5, scheme_by_name(scheme_name, 11)
    data = pr.serialize_proof(pr.prove_repeated(w, s, reps, RandomSource(44), scheme), c)
    size = (len(data) - pr.HEADER_LENGTH) // reps
    for k in (0, reps - 1):
        pos = pr.HEADER_LENGTH + k * size + pr.commit_length(scheme)
        for other in set(range(10)) - {data[pos]}:
            with pytest.raises(ProofError, match=f"^challenge of repetition {k} is not"):
                pr.parse_proof(data[:pos] + bytes([other]) + data[pos + 1:], c)
    assert pr.verify_repeated(s, pr.parse_proof(data, c))


@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
def test_out_of_range_challenge_fails_only_its_repetition(m11, scheme_name):
    """A Proof built in memory with a challenge byte of 10 or more: that
    repetition's check is False, the others are checked as usual, and
    nothing raises; a file of it stays malformed."""
    s, w = golden_corpus(m11, 1)[0]
    scheme = scheme_by_name(scheme_name, 11)
    proof = pr.prove_repeated(w, s, 2, RandomSource(45), scheme)
    size = len(proof.body) // 2
    for k, byte in ((0, 10), (1, 255)):
        pos = k * size + pr.commit_length(scheme)
        bad = pr.Proof(proof.scheme, proof.stmt_hash, proof.reps,
                       proof.body[:pos] + bytes([byte]) + proof.body[pos + 1:])
        assert pr.check_repetitions(s, bad) == [k != 0, k != 1]
        assert not pr.verify_repeated(s, bad)
        with pytest.raises(ProofError, match=f"^challenge byte {byte} out of range"):
            pr.parse_proof(pr.serialize_proof(bad, s.circuit), s.circuit)
    assert pr.check_repetitions(s, proof) == [True, True]


@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
def test_statement_hashed_once_from_prove_to_verify(m11, monkeypatch, scheme_name):
    """Proving, writing, reading and verifying against one Statement
    print and hash it once."""
    s, w = golden_corpus(m11, 1)[0]
    printed = []
    canonical = circuit.canonical_statement_bytes
    monkeypatch.setattr(circuit, "canonical_statement_bytes",
                        lambda st: printed.append(st) or canonical(st))
    scheme = scheme_by_name(scheme_name, 11)
    data = pr.serialize_proof(pr.prove_repeated(w, s, 3, RandomSource(46), scheme), s.circuit)
    assert pr.verify_repeated(s, pr.parse_proof(data, s.circuit))
    assert printed == [s]
    assert data[11:pr.HEADER_LENGTH] == hashlib.sha256(canonical(s)).digest()


def unopened_commitment_bytes(proof, data: bytes) -> set[int]:
    """Positions of the bytes of every commitment that proof's challenges
    leave unopened, in its file bytes data (length prefixes excluded)."""
    pos, out = 43, set()
    for ch in proof.challenges:
        for pid in range(1, 6):
            n = int.from_bytes(data[pos:pos + 4], "big")
            if pid not in PARTY_PAIRS[ch]:
                out.update(range(pos + 4, pos + 4 + n))
            pos += 4 + n
        pos += 1
        for _ in range(4):
            pos += 4 + int.from_bytes(data[pos:pos + 4], "big")
    assert pos == len(data)
    return out


def rederived_challenges(data: bytes) -> bytes:
    """The challenges derived from the commitments of proof file data,
    whatever challenge bytes it records."""
    reps, body = int.from_bytes(data[7:11], "big"), data[pr.HEADER_LENGTH:]
    m, size = pr.commit_length(commit.scheme_by_byte(data[5])), len(body) // reps
    blobs = pr.challenge_blobs(b"".join([body[k:k + m] for k in range(0, len(body), size)]))
    return pr.derive_challenge(data[11:pr.HEADER_LENGTH], reps, blobs)


def flip(data: bytes, pos: int, bit: int) -> bytes:
    return data[:pos] + bytes([data[pos] ^ (1 << bit)]) + data[pos + 1:]


def test_proof_file_fuzz_never_accepts(m11):
    """300 seeded one-bit flips of a sigma=2 file for a true statement.
    A flip inside an unopened commitment leaves both derived challenges
    unchanged with probability 1/100, and the verifier is then right to
    accept; every other flip is rejected."""
    rng = RandomSource(17)
    rnd = random.Random(17)
    s, w = golden_corpus(m11, 1)[0]
    proof = pr.prove_repeated(w, s, 2, rng)
    blob = pr.serialize_proof(proof, s.circuit)
    unopened = unopened_commitment_bytes(proof, blob)
    chs = proof.challenges
    for _ in range(300):
        pos = rnd.randrange(len(blob))
        bad = flip(blob, pos, rnd.randrange(8))
        if bad == blob:
            continue
        try:
            ok = pr.verify_repeated(s, pr.parse_proof(bad, s.circuit))
        except (ProofError, MithError):
            ok = False
        assert ok == (pos in unopened and rederived_challenges(bad) == chs)


def test_unopened_commitment_flip_keeping_challenges_is_accepted(m11):
    """The accepting case of the fuzz test above, found by search: a flip
    in an unopened commitment that re-derives the same challenges leaves
    a valid proof, and one that changes them is malformed: its first
    challenge that differs is named."""
    s, w = golden_corpus(m11, 1)[0]
    proof = pr.prove_repeated(w, s, 2, RandomSource(17))
    blob = pr.serialize_proof(proof, s.circuit)
    chs = proof.challenges
    kept = changed = None
    for pos in sorted(unopened_commitment_bytes(proof, blob)):
        for bit in range(8):
            bad = flip(blob, pos, bit)
            if rederived_challenges(bad) == chs:
                kept = kept or bad
            else:
                changed = changed or bad
        if kept and changed:
            break
    assert kept and changed
    assert pr.verify_repeated(s, pr.parse_proof(kept, s.circuit))
    first = next(k for k, (a, b) in enumerate(zip(rederived_challenges(changed), chs)) if a != b)
    with pytest.raises(ProofError, match=f"^challenge of repetition {first} is not"):
        pr.parse_proof(changed, s.circuit)


def test_proof_magic_and_shape_checks(m11):
    rng = RandomSource(18)
    s, w = golden_corpus(m11, 1)[0]
    blob = pr.serialize_proof(pr.prove_repeated(w, s, 1, rng), s.circuit)
    with pytest.raises(ProofError, match="magic"):
        pr.parse_proof(b"NOPE!" + blob[5:], s.circuit)
    with pytest.raises(ProofError, match="trailing"):
        pr.parse_proof(blob + b"\x00", s.circuit)
    with pytest.raises(ProofError, match="truncated proof"):
        pr.parse_proof(blob[:20], s.circuit)


@pytest.mark.parametrize("mode_byte", [0x00, 0x02, 0xFF])
def test_proof_file_mode_byte_must_be_derived(m11, mode_byte):
    """Byte 6 of a proof file is the challenge mode; anything but derived
    (0x01), transcript's old 0x00 included, is malformed."""
    s, w = golden_corpus(m11, 1)[0]
    blob = pr.serialize_proof(pr.prove_repeated(w, s, 1, RandomSource(18)), s.circuit)
    assert blob[6] == pr.DERIVED_MODE_BYTE
    with pytest.raises(ProofError, match=f"challenge-mode byte {mode_byte:#04x}"):
        pr.parse_proof(blob[:6] + bytes([mode_byte]) + blob[7:], s.circuit)


def test_pedersen_blinder_plus_order_rejected():
    """r + q opens the same Pedersen commitment as r; a proof carrying it
    is a second byte string for one proof and must not verify."""
    m = Modulus(101)
    s, w = golden_corpus(m, 1)[0]
    c = s.circuit
    ped = scheme_by_name("pedersen", m.p)
    proof = pr.prove_repeated(w, s, 1, RandomSource(19), ped)
    (t,) = repetitions(proof, c)
    view, opening = t.first
    bumped = (int.from_bytes(opening, "big") + ped.params.order).to_bytes(len(opening), "big")
    forged = with_repetitions(proof, [t._replace(first=(view, bumped))])
    data = pr.serialize_proof(forged, c)
    assert len(data) == len(pr.serialize_proof(proof, c)) and data != pr.serialize_proof(proof, c)
    with pytest.raises(ProofError, match="below the group order"):
        pr.parse_proof(data, c)
    assert not pr.verify_repeated(s, forged)


@pytest.mark.parametrize("case, match", [
    ("scheme-byte", "unknown commitment scheme byte"),
    ("element-zero", "element out of range"),
    ("element-P", "element out of range"),
    ("blinder-q", "below the group order"),
])
def test_malformed_fields_raise_proof_error(m11, case, match):
    """An unknown scheme byte, a Pedersen commitment outside (0, P) and a
    blinder of at least q, here in the second repetition, are malformed
    proof data: parse_proof raises ProofError."""
    s, w = golden_corpus(m11, 1)[0]
    c = s.circuit
    ped = scheme_by_name("pedersen", m11.p)
    data = bytearray(pr.serialize_proof(pr.prove_repeated(w, s, 2, RandomSource(40), ped), c))
    fields = pr.block_fields(c, ped)
    start = pr.HEADER_LENGTH + (len(data) - pr.HEADER_LENGTH) // 2
    pos, n = fields[8] if case == "blinder-q" else fields[3]  # second opening; party 4's commitment
    value = {"element-zero": 0, "element-P": ped.params.group_prime,
             "blinder-q": ped.params.order}.get(case)
    if value is None:
        data[5] = 0x03
    else:
        data[start + pos:start + pos + n] = value.to_bytes(n, "big")
    with pytest.raises(ProofError, match=match):
        pr.parse_proof(bytes(data), c)


# ---------------------------------------------------------------------------
# The challenges come from one digest of the commit phase (since MITH3),
# and each view is encoded once


def raw_proof_sections(data: bytes):
    """(statement hash, [(commitment section bytes, challenge byte)]) read
    straight off MITH6 proof bytes: header of 43 bytes, then per
    repetition five length-prefixed commitments, the challenge byte and
    four length-prefixed blocks."""
    assert data[:5] == b"MITH6"
    reps = int.from_bytes(data[7:11], "big")
    stmt_hash = data[11:43]
    pos = 43
    out = []
    for _ in range(reps):
        start = pos
        for _ in range(5):
            pos += 4 + int.from_bytes(data[pos:pos + 4], "big")
        section, ch = data[start:pos], data[pos]
        pos += 1
        for _ in range(4):
            pos += 4 + int.from_bytes(data[pos:pos + 4], "big")
        out.append((section, ch))
    assert pos == len(data)
    return stmt_hash, out


def session_echo(s, reps: int, commit_payload: bytes) -> bytes:
    """The digest a live verifier echoes in its CHALLENGE frame for a
    COMMIT frame carrying commit_payload."""
    a, b = socket.socketpair()
    ta, tb = ses.Transport(a, 5), ses.Transport(b, 5)
    th = threading.Thread(target=ses.verifier_session, args=(tb, s, reps, RandomSource(1)))
    th.start()
    ses._send(ta, ses.MSG_HELLO, ses._hello_payload(0x01, reps, pr.statement_hash(s)))
    ses._expect(ta, ses.MSG_HELLO, "hello")
    ses._send(ta, ses.MSG_COMMIT, commit_payload)
    echo = ses._expect(ta, ses.MSG_CHALLENGE, "challenge")[:32]
    ses._send(ta, ses.MSG_RESPONSE, b"")
    assert ses._expect(ta, ses.MSG_RESULT, "result") == b"\x00"
    th.join()
    ta.close()
    tb.close()
    return echo


def test_challenges_recomputed_from_raw_bytes(m11):
    """The challenges are SHAKE-256(statement hash || SHA-256(all
    commitment sections))'s bytes below 250, each mod 10, and that digest
    is the session's echo."""
    s, w = golden_corpus(m11, 1)[0]
    reps = 12
    data = pr.serialize_proof(pr.prove_repeated(w, s, reps, RandomSource(30)), s.circuit)
    stmt_hash, sections = raw_proof_sections(data)
    commit_payload = b"".join(section for section, _ in sections)
    digest = hashlib.sha256(commit_payload).digest()
    stream = challenge_stream(stmt_hash + digest)
    assert [ch for _, ch in sections] == [next(stream) for _ in range(reps)]
    assert session_echo(s, reps, commit_payload) == digest


def test_derived_challenges_uniform_chi_square():
    """100,000 derived challenges, 100 from each of 1,000 statement
    digests and commit-phase blobs, are uniform over the ten pairs at the
    alpha of the drawn challenges' test."""
    rng = RandomSource(b"derived-chi-square")
    counts = collections.Counter()
    for _ in range(1000):
        counts.update(pr.derive_challenge(rng.bytes(32), 100, [rng.bytes(32)]))
    _, pval = chi2_uniform([counts[ch] for ch in range(10)])
    assert sum(counts.values()) == 100_000 and pval >= 0.001


def test_derive_challenge_reads_a_longer_prefix_when_the_first_falls_short(monkeypatch):
    """A stream whose first reps + reps/8 + 16 bytes hold too few below
    250: the challenges go on from a longer prefix of the same stream."""
    reps, reads = 40, []
    stream = b"\xfa\xff" * 30 + hashlib.shake_256(b"tail").digest(4096)

    class Stream:
        def __init__(self, data):
            assert data == b"stmt" + b"blob"

        def digest(self, n):
            reads.append(n)
            return stream[:n]

    monkeypatch.setattr(hashlib, "shake_256", Stream)
    got = pr.derive_challenge(b"stmt", reps, [b"blob"])
    assert reads[0] == reps + reps // 8 + 16 and len(reads) > 1 and reads == sorted(reads)
    assert got == bytes(b % 10 for b in stream if b < 250)[:reps]


def test_derive_challenge_known_answer():
    """The first 24 challenges for statement hash 0^32 and the one blob
    0xff^32, indices into PARTY_PAIRS, pinned."""
    got = pr.derive_challenge(bytes(32), 24, [b"\xff" * 32])
    assert "".join(map(str, got)) == "447818967345171807342208"


def test_mith1_header_rejected(m11):
    s, w = golden_corpus(m11, 1)[0]
    data = pr.serialize_proof(pr.prove_repeated(w, s, 2, RandomSource(31)), s.circuit)
    with pytest.raises(ProofError, match="unsupported proof version MITH1"):
        pr.parse_proof(b"MITH1" + data[5:], s.circuit)


def test_mith4_proof_rejected_as_unsupported(m11):
    """A MITH4 file, HMAC commitments and per-repetition HMAC challenges,
    is an older version, whatever its body."""
    s, w = golden_corpus(m11, 1)[0]
    data = pr.serialize_proof(pr.prove_repeated(w, s, 2, RandomSource(31)), s.circuit)
    assert data[:5] == b"MITH6"
    with pytest.raises(ProofError,
                       match="unsupported proof version MITH4; this build reads MITH6"):
        pr.parse_proof(b"MITH4" + data[5:], s.circuit)


def test_mith5_proof_rejected_as_unsupported(m11):
    """A MITH5 file, whose randomness followed ascending gate ids, is an
    older version, whatever its body."""
    s, w = golden_corpus(m11, 1)[0]
    data = pr.serialize_proof(pr.prove_repeated(w, s, 2, RandomSource(31)), s.circuit)
    with pytest.raises(ProofError,
                       match="unsupported proof version MITH5; this build reads MITH6"):
        pr.parse_proof(b"MITH5" + data[5:], s.circuit)


def test_short_header_is_truncated_before_magic(m11):
    """Anything shorter than the 43-byte header is a truncated proof,
    whatever its first bytes say."""
    s, w = golden_corpus(m11, 1)[0]
    data = pr.serialize_proof(pr.prove_repeated(w, s, 1, RandomSource(31)), s.circuit)
    for short in (b"", b"MITH", b"MITH1", b"NOPE!", data[:42]):
        with pytest.raises(ProofError, match="^truncated proof$"):
            pr.parse_proof(short, s.circuit)


# ---------------------------------------------------------------------------
# Length-shift mutants: one byte moved across a field boundary, both
# length prefixes rewritten, so that the total length stays the same


def lp(b: bytes) -> bytes:
    return len(b).to_bytes(4, "big") + b


def field_shifts(data: bytes, start: int, lengths):
    """Each copy of data in which one byte crosses the boundary between
    two neighbouring fields of the length-prefixed run at start (field
    lengths in order): the first byte of the later field joins the
    earlier one, or the last byte of the earlier joins the later."""
    pos = start
    for n_a, n_b in zip(lengths, lengths[1:]):
        assert data[pos:pos + 4] == n_a.to_bytes(4, "big")
        a = data[pos + 4:pos + 4 + n_a]
        end = pos + 8 + n_a + n_b
        b = data[end - n_b:end]
        for a2, b2 in ((a + b[:1], b[1:]), (a[:-1], a[-1:] + b)):
            yield data[:pos] + lp(a2) + lp(b2) + data[end:]
        pos += 4 + n_a


def block_shifts(data: bytes, c, scheme, start: int, commitments: bool, responses: bool):
    """field_shifts over the commitment message and the response that
    begin a block at start; a proof repetition has a challenge byte
    between them."""
    vl, ol = mpc.encoded_view_length(c), scheme.opening_length
    if commitments:
        yield from field_shifts(data, start, [scheme.commitment_length] * 5)
        start += 5 * (4 + scheme.commitment_length) + responses
    if responses:
        yield from field_shifts(data, start, [vl, ol, vl, ol])


@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
def test_length_shift_mutants_are_malformed(m11, scheme_name):
    s, w = golden_corpus(m11, 1)[0]
    c = s.circuit
    scheme = scheme_by_name(scheme_name, m11.p)
    reps = 3
    data = pr.serialize_proof(pr.prove_repeated(w, s, reps, RandomSource(38), scheme), c)
    size = (len(data) - pr.HEADER_LENGTH) // reps
    assert size == sum(pr.block_lengths(c, scheme)) + 1
    mutants = [m for r in (0, reps - 1)
               for m in block_shifts(data, c, scheme, pr.HEADER_LENGTH + r * size, True, True)]
    assert len(mutants) == 2 * 2 * (4 + 3)
    mutants += [data[:7] + (reps + d).to_bytes(4, "big") + data[11:] for d in (-1, 1)]
    for mutant in mutants:
        assert len(mutant) == len(data) and mutant != data
        with pytest.raises(ProofError):
            pr.parse_proof(mutant, c)
    assert pr.verify_repeated(s, pr.parse_proof(data, c))


def test_round_trip_encodes_each_view_once(m11, monkeypatch):
    """PRF prove, serialize, parse and verify: encode_view runs only while
    proving, and writes every element column of all 5 * reps views
    exactly once, each column one value per lane; commitments and the
    proof file use those views' bytes."""
    written = []
    encode = mpc.encode_view

    def spy(c, rows, placed):
        placed = list(placed)
        assert len(rows) == 5 * reps * mpc.encoded_view_length(c)
        assert all(len(col) == 5 * reps for _, col in placed)
        written.extend(j for j, _ in placed)
        encode(c, rows, placed)

    monkeypatch.setattr(mpc, "encode_view", spy)
    s, w = golden_corpus(m11, 1)[0]
    reps = 7
    data = pr.serialize_proof(pr.prove_repeated(w, s, reps, RandomSource(32)), s.circuit)
    assert sorted(written) == list(range(mpc.view_element_count(s.circuit)))
    written.clear()
    assert pr.verify_repeated(s, pr.parse_proof(data, s.circuit))
    assert not written


@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
def test_commitments_and_openings_are_packed_once(m11, monkeypatch, scheme_name):
    """Prove plus serialize_proof packs each of the 5 * reps Pedersen
    commitments and openings once, where it is made, and makes one
    `commit_view`, one `serialize_commitment_msg` and one
    `serialize_response_block` call for all repetitions; PRF digests and
    keys are hashlib's bytes and slices of one draw, so nothing packs
    them.  Parse plus verify packs and joins none, since a commitment,
    an opening and a commitment message are their bytes, and checks
    every opening in at most two `verify_view` calls.  The call counts
    do not grow with sigma."""
    calls = collections.Counter()

    def counted(owner, name, method):
        f = getattr(owner, name)
        if method:
            monkeypatch.setattr(owner, name, lambda self, *a: calls.update([name]) or f(self, *a))
        else:
            monkeypatch.setattr(owner, name, lambda *a: calls.update([name]) or f(*a))

    for cls in (commit.PrfScheme, commit.PedersenScheme):
        for name in ("serialize_commitment", "serialize_opening", "commit_view", "verify_view"):
            counted(cls, name, True)
    for name in ("serialize_commitment_msg", "serialize_response_block"):
        counted(pr, name, False)
    s, w = golden_corpus(m11, 1)[0]
    c = s.circuit
    for reps in (1, 17):
        calls.clear()
        proof = pr.prove_repeated(w, s, reps, RandomSource(37), scheme_by_name(scheme_name, 11))
        data = pr.serialize_proof(proof, c)
        packed = 5 * reps if scheme_name == "pedersen" else 0
        assert calls == collections.Counter({"serialize_commitment": packed,
                                             "serialize_opening": packed,
                                             "commit_view": 1,
                                             "serialize_commitment_msg": 1,
                                             "serialize_response_block": 1})
        calls.clear()
        assert pr.verify_repeated(s, pr.parse_proof(data, c))
        assert set(calls) == {"verify_view"} and calls["verify_view"] <= 2


@pytest.mark.parametrize("side", ["prover", "verifier"])
def test_view_altered_after_encoding_fails_check(m11, side):
    """A view rebuilt by make_view is its own bytes, so the check reads
    those and not the original's."""
    s, w = golden_corpus(m11, 1)[0]
    c = s.circuit
    proof = pr.prove_repeated(w, s, 1, RandomSource(33))
    if side == "verifier":
        proof = pr.parse_proof(pr.serialize_proof(proof, c), c)
    (t,) = repetitions(proof, c)
    view, opening = t.first
    p = c.modulus.p

    def opened_as(v):
        return recorded(s, t.commitment, t.challenge, response((v, opening), t.second))

    f = fields(c, view)
    for new in (mpc.make_view(c, view, bcast=tuple((x + 1) % p for x in f.bcast)),
                mpc.make_view(c, view, randomness=f.randomness[::-1])):
        assert new != view
        assert not opens1(PRF, new, commitment_of(t.commitment, PARTY_PAIRS[t.challenge][0]),
                          opening)
        assert not pr.verify_repeated(s, opened_as(new))
    assert pr.verify_repeated(s, opened_as(mpc.make_view(c, view)))


def doctored_pair(m, side: int, what: str):
    """A one-repetition proof, challenged at (2, 4) and committed honestly,
    whose opened views pass every check but one, made in view ch[side]
    (T; the other opened view is O): "output", T recorded another
    broadcast share from unopened party 1, so T's output misses the
    target; "partner", T recorded another zero share from O, with T's own
    broadcast, O's record of it and both views' record of party 1's
    broadcast shifted to match, so only T's record of O fails."""
    s, w = golden_corpus(m, 2)[1]  # square_plus_one: one multiplication
    c = s.circuit
    st, _ = pr.commit_repetitions(w, s, 1, RandomSource(42), PRF)
    ch = (2, 4)
    t, o = ch[side], ch[1 - side]
    lam, p = m.recon_weights, m.p
    views = repetition_views(st.rows, 1)
    shift = {t: {}, o: {}}  # party: {bcast slot: delta}
    if what == "output":
        shift[t][1] = 1
    else:
        zin = list(fields(c, views[t - 1]).zin)
        zin[o - 1] = (zin[o - 1] + 1) % p
        views[t - 1] = mpc.make_view(c, views[t - 1], zin=zin)
        fix = -lam[t - 1] * pow(lam[0], -1, p) % p  # keeps the output
        shift = {q: {t: 1, 1: fix} for q in ch}
    for q, deltas in shift.items():
        bc = list(fields(c, views[q - 1]).bcast)
        for slot, d in deltas.items():
            bc[slot - 1] = (bc[slot - 1] + d) % p
        views[q - 1] = mpc.make_view(c, views[q - 1], bcast=bc)
    cm = pr.serialize_commitment_msg(PRF.commit_view(st.openings, views))
    b = PARTY_PAIRS.index(ch)
    return s, recorded(s, cm, b, pr.prover_respond(pr.ProverState(b"".join(views), st.openings),
                                                   bytes([b])))


@pytest.mark.parametrize("what", ["output", "partner"])
@pytest.mark.parametrize("side", [0, 1])
def test_each_opened_view_is_checked_both_ways(m11, side, what):
    """Each opened view's output and its record of its partner are
    checked, for the lower and the higher party of the pair alike."""
    s, proof = doctored_pair(m11, side, what)
    assert pr.check_repetitions(s, proof) == [False]
    rows = pr.opened_views(s.circuit, proof)
    ok, to = mpc.out_messages(s.circuit, s.public_inputs, rows)
    consistent = mpc.consistent_views(s.circuit, rows, proof.challenges, to)
    outputs = mpc.local_output(s.circuit, rows, s.target)
    assert ok == [True, True]
    if what == "output":
        assert consistent == [True] and outputs == [side == 1, side == 0]
    else:
        assert consistent == [False] and outputs == [True, True]


def test_other_public_input_fails_a_view_consistent_without_it():
    """The all-zero view is consistent with itself for public input 0 and
    output 0, and so is the replay of a view that carries public input 1
    but is zero elsewhere, which replays as the all-zero view: only the
    public-input check rejects that one."""
    m = Modulus(11)
    c = parse_circuit("field 11\ntopology 1 1 3\n"
                      "(add 2 (pinput 0) (smul 1 (const 3 1) (sinput 0)))")
    s = Statement(c, (m.zero(),), m.zero())
    zero = mpc.decode_view(c, bytes(mpc.encoded_view_length(c)))
    rng = RandomSource(43)
    for pubs, verdict in (((0,), True), ((1,), False)):
        views = (mpc.make_view(c, zero, public_inputs=pubs),) + (zero,) * 4
        keys = tuple(PRF.keygen(rng, len(views)))
        cm = pr.serialize_commitment_msg(PRF.commit_view(keys, views))
        resp = pr.prover_respond(pr.ProverState(b"".join(views), keys), b"\x00")  # (1, 2)
        assert pr.check_repetitions(s, recorded(s, cm, 0, resp)) == [verdict]


def test_altered_view_cannot_open_the_original_commitment():
    """Only the commitment stands between a doctored view that passes
    every other check and acceptance.  Commit to views A (which encodes
    them), then open B = make_view(c, A, ...) holding OneBadPairCheater's
    doctored values for a pair that avoids its bad pair: B must be
    checked against its own bytes, not A's."""
    s, w_guess = canonical_false_statement()
    cheater = OneBadPairCheater(s, w_guess, (1, 2), RandomSource(34))
    ch = PARTY_PAIRS.index((3, 4))
    st, cm = cheater.commit(RandomSource(35), 1)
    assert pr.verify_repeated(s, recorded(s, cm, ch, pr.prover_respond(st, bytes([ch]))))

    c = s.circuit
    p = c.modulus.p
    committed = [mpc.make_view(c, v, bcast=tuple((x + 1) % p for x in fields(c, v).bcast))
                 for v in cheater.views]
    rng = RandomSource(36)
    keys = [rng.bytes(32) for _ in committed]
    cm = pr.serialize_commitment_msg(PRF.commit_view(keys, committed))
    opened = [mpc.make_view(c, v, bcast=fields(c, d).bcast)
              for v, d in zip(committed, cheater.views)]
    assert opened == cheater.views
    resp = response((opened[2], keys[2]), (opened[3], keys[3]))
    assert not pr.verify_repeated(s, recorded(s, cm, ch, resp))


def chain_circuit_text(n: int) -> str:
    """w^(n+1) over F_101 as a chain of n nested multiplications."""
    return (f"field 101\ntopology 0 1 {n}\n"
            + "".join(f"(mul {gid} " for gid in range(n, 0, -1))
            + "(sinput 0)" + " (sinput 0))" * n + "\n")


def test_deep_chain_proves_and_verifies():
    """Depth is not bounded by the interpreter's recursion limit."""
    n = 5000
    c = parse_circuit(chain_circuit_text(n))
    m = c.modulus
    s = Statement(c, (), m.element(pow(3, n + 1, m.p)))
    proof = pr.prove_repeated(Witness((m.element(3),)), s, 1, RandomSource(20))
    data = pr.serialize_proof(proof, c)
    assert pr.verify_repeated(s, pr.parse_proof(data, c))


def test_proof_without_repetitions_is_rejected(m11):
    """A proof of no repetitions checks to no pairs and is not accepted."""
    s, _ = golden_corpus(m11, 1)[0]
    proof = pr.respond_repetitions(s, pr.ProverState(b"", ()), b"", RandomSource(1), PRF,
                                   "transcript")
    assert proof.reps == 0 and pr.check_repetitions(s, proof) == []
    assert not pr.verify_repeated(s, proof)


def test_prove_repeated_validates_reps(m11):
    s, w = golden_corpus(m11, 1)[0]
    with pytest.raises(MithError):
        pr.prove_repeated(w, s, 0, RandomSource(1))


# ---------------------------------------------------------------------------
# Zero-knowledge simulator


def one_mul_statement():
    m = Modulus(11)
    c = parse_circuit("field 11\ntopology 0 1 1\n(mul 1 (sinput 0) (sinput 0))")
    return Statement(c, (), m.element(9)), Witness((m.element(3),))


def test_simulated_transcript_accepts_on_guess_match(m11):
    rng = RandomSource(19)
    s, _ = one_mul_statement()
    hits = 0
    for _ in range(200):
        guess, cm, st = pr.zk_simulate_once(s, rng)
        assert pr.verify_repeated(s, recorded(s, cm, guess, pr.prover_respond(st, bytes([guess]))))
        hits += 1
    assert hits == 200


def test_simulator_abort_rate_matches_guess_probability():
    """Against an honest verifier the guess hits 1/10 of the time."""
    rng = RandomSource(20)
    s, _ = one_mul_statement()
    aborts = 0
    trials = 10_000
    for _ in range(trials):
        guess, _, _ = pr.zk_simulate_once(s, rng)
        if rng.randbelow(10) != guess:
            aborts += 1
    assert abs(aborts / trials - 0.9) <= 0.01


def test_zk_simulate_retry_statistics():
    """Retries are geometric with mean 10, and 1000 attempts never run out."""
    rng = RandomSource(21)
    s, _ = one_mul_statement()
    total_attempts = 0
    runs = 10_000
    for _ in range(runs):
        attempts = [0]

        def verifier(s_, cm_):
            attempts[0] += 1
            return rng.randbelow(10)

        proof = pr.zk_simulate(s, verifier, rng=rng)
        assert proof.reps == 1 and pr.verify_repeated(s, proof)
        total_attempts += attempts[0]
    mean = total_attempts / runs
    assert 9.0 <= mean <= 11.0


def test_zk_simulate_exhausts_retries():
    s, _ = one_mul_statement()
    # Seed 23's first guess draw is index 8 = pair (3,5); a verifier stuck
    # on 0 = pair (1,2) makes the single permitted attempt abort.
    with pytest.raises(SimulationFailure):
        pr.zk_simulate(s, lambda s_, c_: 0, max_retries=1,
                       rng=RandomSource(23))


def test_zk_simulate_validates_retries():
    s, _ = one_mul_statement()
    with pytest.raises(MithError):
        pr.zk_simulate(s, lambda s_, c_: 0, max_retries=0)


def test_simulator_takes_no_witness():
    import inspect
    assert "w" not in inspect.signature(pr.zk_simulate_once).parameters
    assert "witness" not in inspect.signature(pr.zk_simulate).parameters


def test_dummy_commitments_fixed_zero_encoding(m11):
    """Unopened slots commit to the all-zero view of the circuit (the
    all-zeros encoding of the right length), which the simulator never
    opens; the guessed pair commits to its simulated views.  The state
    keeps every row it committed to and every key it committed with."""
    s, _ = one_mul_statement()
    c = s.circuit
    committed = []

    class Recording(commit.PrfScheme):
        def commit_view(self, keys, views):
            views = list(views)
            coms = super().commit_view(keys, views)
            committed.extend(zip(views, coms))
            return coms

    guess, cm, st = pr.zk_simulate_once(s, RandomSource(24), Recording())
    i, j = PARTY_PAIRS[guess]
    assert [com for _, com in committed] == [commitment_of(cm, q) for q in PARTY_IDS]
    rows = repetition_views(st.rows, 1)
    assert [view for view, _ in committed] == rows and len(st.openings) == 5
    for pid, (view, com) in enumerate(committed, 1):
        assert opens1(PRF, view, com, st.openings[pid - 1])
        assert mpc.valid_view(c, [view]) == [True]
        if pid not in (i, j):
            assert view == bytes(mpc.encoded_view_length(c))
    assert pr.verify_repeated(s, recorded(s, cm, guess, pr.prover_respond(st, bytes([guess]))))
