"""Framing, the live 3-pass session, and its wire-level robustness."""

import hashlib
import random
import socket
import threading
import time

import pytest

from mith import circuit
from mith import protocol as pr
from mith import session as ses
from mith.circuit import Statement
from mith.commit import scheme_by_name
from mith.corpus import bench_circuit_a, golden_corpus, random_instance
from mith.errors import ProofError, SessionError
from mith.field import RandomSource
from mith.harness import OneBadPairCheater, canonical_false_statement

from test_field import chi2_uniform
from test_protocol import block_shifts, rederived_challenges


def pair(timeout=5.0):
    a, b = socket.socketpair()
    return ses.Transport(a, timeout), ses.Transport(b, timeout)


def run_session(s, w, reps, *, prover_rng=None, verifier_rng=None,
                capture=None, verifier_transport=None, prover_statement=None):
    ta, tb = pair()
    if verifier_transport is not None:
        tb = verifier_transport(tb)
    out = {}

    def verifier():
        try:
            out["verifier"] = ses.verifier_session(
                tb, s, reps, verifier_rng or RandomSource(), capture=capture)
        except SessionError as e:
            out["verifier_error"] = e

    th = threading.Thread(target=verifier)
    th.start()
    try:
        out["prover"] = ses.prover_session(
            ta, prover_statement or s, w, reps, rng=prover_rng or RandomSource())
    except SessionError as e:
        out["prover_error"] = e
    th.join()
    ta.close()
    tb.close()
    return out


# ---------------------------------------------------------------------------
# Frames


def test_frame_round_trip_random():
    rnd = random.Random(1)
    a, b = socket.socketpair()
    ta, tb = ses.Transport(a, 5), ses.Transport(b, 5)
    types = [0x01, 0x02, 0x03, 0x04, 0x05, 0x7F]
    for _ in range(10_000):
        f = ses.Frame(rnd.choice(types), rnd.randbytes(rnd.randrange(64)))
        ta.send_all(ses.encode_frame(f))
        assert ses.decode_frame(tb) == f
    ta.close()
    tb.close()


def test_empty_hello_frame_bytes():
    blob = ses.encode_frame(ses.Frame(ses.MSG_HELLO, b""))
    assert blob == bytes.fromhex("0000000001")


def test_frame_length_cap():
    with pytest.raises(SessionError):
        ses.encode_frame(ses.Frame(ses.MSG_COMMIT, b"\x00" * (2**24 + 1)))


def test_unknown_frame_type():
    with pytest.raises(SessionError):
        ses.encode_frame(ses.Frame(0x42, b""))
    a, b = socket.socketpair()
    ta, tb = ses.Transport(a, 2), ses.Transport(b, 2)
    ta.send_all(b"\x00\x00\x00\x00\x42")
    with pytest.raises(SessionError, match="unknown frame type"):
        ses.decode_frame(tb)
    ta.close()
    tb.close()


def test_truncated_stream():
    a, b = socket.socketpair()
    ta, tb = ses.Transport(a, 2), ses.Transport(b, 2)
    ta.send_all(b"\x00\x00\x00\x10\x02abc")
    a.close()
    with pytest.raises(SessionError, match="closed"):
        ses.decode_frame(tb)
    tb.close()


# ---------------------------------------------------------------------------
# Sessions


def test_honest_session_accepts(m11):
    for s, w in golden_corpus(m11, 4):
        out = run_session(s, w, 10)
        assert out["prover"] is True and out["verifier"] is True


def test_session_hashes_its_statement_once(m11, monkeypatch):
    """Loopback sessions whose prover and verifier share one Statement print
    it at most once per thread (both sides may ask at once), in the first
    session only: the next reads the kept digest."""
    s, w = golden_corpus(m11, 1)[0]
    printed = []
    canonical = circuit.canonical_statement_bytes
    monkeypatch.setattr(circuit, "canonical_statement_bytes",
                        lambda st: printed.append(st) or canonical(st))
    for _ in range(2):
        out = run_session(s, w, 4)
        assert out["prover"] is True and out["verifier"] is True
        assert printed in ([s], [s, s])


def test_session_verdict_matches_offline_replay(m11):
    s, w = golden_corpus(m11, 2)[1]
    captured = []
    out = run_session(s, w, 10, capture=captured)
    assert out["verifier"] is True
    assert len(captured) == 1
    proof = captured[0]
    assert pr.verify_repeated(s, proof) is True
    # The verifier drew its challenges: a file of the capture is not a
    # derived proof, and reading it names the first challenge that differs.
    data = pr.serialize_proof(proof, s.circuit)
    first = next(k for k, (a, b) in enumerate(zip(rederived_challenges(data), proof.challenges))
                 if a != b)
    with pytest.raises(ProofError, match=f"^challenge of repetition {first} is not"):
        pr.parse_proof(data, s.circuit)


def test_session_statement_hash_mismatch(m11):
    s, w = golden_corpus(m11, 2)[0]
    m = s.circuit.modulus
    other = Statement(s.circuit, s.public_inputs, s.target + m.one())
    out = run_session(other, w, 2, prover_statement=s)
    assert "prover_error" in out and "verifier_error" in out
    assert "different statement" in str(out["verifier_error"])


def test_session_rep_count_mismatch(m11):
    s, w = golden_corpus(m11, 2)[0]
    ta, tb = pair()
    out = {}

    def verifier():
        try:
            out["v"] = ses.verifier_session(tb, s, 5, RandomSource())
        except SessionError as e:
            out["ve"] = e

    th = threading.Thread(target=verifier)
    th.start()
    try:
        ses.prover_session(ta, s, w, 3, rng=RandomSource())
    except SessionError as e:
        out["pe"] = e
    th.join()
    assert "ve" in out and "pe" in out


def against_peer(session, peer):
    """session(transport) in a thread against peer(transport), a scripted
    other side, on a socket pair; returns the session's SessionError and
    the frame the peer read last."""
    ta, tb = pair(timeout=2.0)
    out = {}

    def run():
        try:
            session(ta)
        except SessionError as e:
            out["error"] = e

    th = threading.Thread(target=run)
    th.start()
    try:
        frame = peer(tb)
    finally:
        th.join(10)
        ta.close()
        tb.close()
    assert not th.is_alive()
    return out.get("error"), frame


def hello_peer(payload, reads_first):
    """A peer whose HELLO payload is payload, sent after reading the
    session's HELLO when reads_first (it plays the verifier)."""
    def peer(t):
        if reads_first:
            ses.decode_frame(t)
        t.send_all(ses.encode_frame(ses.Frame(ses.MSG_HELLO, payload)))
        return ses.decode_frame(t)
    return peer


def challenge_peer(challenge):
    """A verifier that acknowledges the prover's HELLO, reads its COMMIT
    and sends challenge(SHA-256 of the commit payload) as CHALLENGE."""
    def peer(t):
        t.send_all(ses.encode_frame(ses.decode_frame(t)))
        digest = hashlib.sha256(ses.decode_frame(t).payload).digest()
        t.send_all(ses.encode_frame(ses.Frame(ses.MSG_CHALLENGE, challenge(digest))))
        return ses.decode_frame(t)
    return peer


REPS = 3
SHORT_HELLO = bytes([ses.PROTOCOL_VERSION]) + bytes(36)
NEXT_VERSION_HELLO = bytes([ses.PROTOCOL_VERSION + 1]) + bytes(37)
# Version 2 carried per-element Pedersen commitments and blinders,
# version 3 HMAC-SHA256 commitments, and version 4 randomness in
# ascending gate-id order: version-3 and version-4 HELLOs for a PRF
# session of REPS repetitions.
VERSION_2_HELLO = bytes([2]) + bytes(37)
VERSION_3_HELLO = bytes([3, 0x01]) + REPS.to_bytes(4, "big") + bytes(32)
VERSION_4_HELLO = bytes([4, 0x01]) + REPS.to_bytes(4, "big") + bytes(32)
MALFORMED = {
    "prover-hello-short": ("prover", hello_peer(SHORT_HELLO, True)),
    "prover-hello-version": ("prover", hello_peer(NEXT_VERSION_HELLO, True)),
    "prover-hello-version-2": ("prover", hello_peer(VERSION_2_HELLO, True)),
    "prover-hello-version-3": ("prover", hello_peer(VERSION_3_HELLO, True)),
    "prover-hello-version-4": ("prover", hello_peer(VERSION_4_HELLO, True)),
    "verifier-hello-short": ("verifier", hello_peer(SHORT_HELLO, False)),
    "verifier-hello-version": ("verifier", hello_peer(NEXT_VERSION_HELLO, False)),
    "verifier-hello-version-2": ("verifier", hello_peer(VERSION_2_HELLO, False)),
    "verifier-hello-version-3": ("verifier", hello_peer(VERSION_3_HELLO, False)),
    "verifier-hello-version-4": ("verifier", hello_peer(VERSION_4_HELLO, False)),
    "prover-challenge-length": ("prover", challenge_peer(lambda d: d + bytes(REPS - 1))),
    "prover-challenge-byte": ("prover", challenge_peer(lambda d: d + bytes([0, 10, 0]))),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_frame_abort_tells_peer(m11, case):
    """Each malformed-frame abort sends ERROR with code ERR_BAD_FRAME
    before the session ends, so the peer learns why."""
    side, peer = MALFORMED[case]
    s, w = golden_corpus(m11, 1)[0]
    if side == "prover":
        session = lambda t: ses.prover_session(t, s, w, REPS, rng=RandomSource(1))
    else:
        session = lambda t: ses.verifier_session(t, s, REPS, RandomSource(1))
    error, frame = against_peer(session, peer)
    assert isinstance(error, SessionError)
    assert frame.msg_type == ses.MSG_ERROR
    assert int.from_bytes(frame.payload[:2], "big") == ses.ERR_BAD_FRAME == 2
    if "version" in case:
        assert "unsupported protocol version" in str(error)
    if case[-1] in "34":
        assert ses.PROTOCOL_VERSION == 5
        assert str(error).endswith(f"unsupported protocol version {case[-1]}")


def test_unencodable_frame_is_reported_to_peer(monkeypatch):
    """A side that cannot encode its own frame (a sigma=10 bench_a COMMIT
    over a 1000-byte cap) sends ERROR with ERR_INTERNAL before raising;
    an ERROR frame over the cap is dropped, not reported in turn."""
    monkeypatch.setattr(ses, "MAX_PAYLOAD", 1000)
    s, w = random_instance(random.Random(1), bench_circuit_a())
    out = run_session(s, w, 10)
    assert "exceeds the 1000-byte cap" in str(out["prover_error"])
    assert "peer error 4" in str(out["verifier_error"])
    ta, tb = pair()
    ses._send_error(ta, ses.ERR_INTERNAL, "x" * 1000)
    ta.close()
    with pytest.raises(SessionError, match="closed mid-frame"):
        ses.decode_frame(tb)
    tb.close()


def test_dropped_challenge_times_out(m11):
    """A verifier that dies after HELLO leaves the prover with a timeout,
    not a verdict."""
    s, w = golden_corpus(m11, 1)[0]
    a, b = socket.socketpair()
    ta, tb = ses.Transport(a, 0.3), ses.Transport(b, 0.3)
    digest_frame = {}

    def half_verifier():
        # Ack the hello, read the commit, then vanish.
        hello = ses.decode_frame(tb)
        tb.send_all(ses.encode_frame(hello))
        ses.decode_frame(tb)
        digest_frame["done"] = True

    th = threading.Thread(target=half_verifier)
    th.start()
    with pytest.raises(SessionError, match="timed out|closed"):
        ses.prover_session(ta, s, w, 2, rng=RandomSource())
    th.join()
    ta.close()
    tb.close()


def test_dripping_peer_cannot_stretch_a_read():
    """The timeout bounds a whole recv_exactly, not each recv: 8 bytes
    sent 0.3 s apart against a 0.5-s timeout time out within 1.5 s."""
    a, b = socket.socketpair()
    tb = ses.Transport(b, 0.5)
    stop = threading.Event()

    def drip():
        for _ in range(8):
            if stop.wait(0.3):
                return
            a.send(b"\x00")

    th = threading.Thread(target=drip)
    th.start()
    t0 = time.monotonic()
    try:
        with pytest.raises(SessionError, match="timed out waiting for peer"):
            tb.recv_exactly(8)
        assert time.monotonic() - t0 < 1.5
    finally:
        stop.set()
        th.join()
        a.close()
        tb.close()


def test_dripped_commit_frame_times_out(m11):
    """A prover that starts its COMMIT frame a byte every 0.2 s, each byte
    within the verifier's 0.5-s timeout, ends the session with a
    transport SessionError within 1.5 s."""
    s, w = golden_corpus(m11, 1)[0]
    _, commit = pr.commit_repetitions(w, s, 2, RandomSource(2), scheme_by_name("prf"))
    a, b = socket.socketpair()
    ta, tb = ses.Transport(a, 5), ses.Transport(b, 0.5)
    out = {}

    def verifier():
        try:
            out["verdict"] = ses.verifier_session(tb, s, 2, RandomSource(1))
        except SessionError as e:
            out["error"], out["at"] = e, time.monotonic()

    th = threading.Thread(target=verifier)
    th.start()
    try:
        ses._send(ta, ses.MSG_HELLO, ses._hello_payload(0x01, 2, pr.statement_hash(s)))
        ses._read_hello(ta)
        t0 = time.monotonic()
        for byte in ses.encode_frame(ses.Frame(ses.MSG_COMMIT, commit))[:10]:
            if not th.is_alive():
                break
            a.send(bytes([byte]))
            time.sleep(0.2)
    finally:
        th.join(5)
        ta.close()
        tb.close()
    assert not th.is_alive() and "verdict" not in out
    assert out["error"].phase == "transport" and "timed out" in str(out["error"])
    assert out["at"] - t0 < 1.5


def shifted_session(s, scheme, state, commit, target, k):
    """A session whose prover speaks the wire protocol directly and sends
    length-shift mutant k (`block_shifts`) of its COMMIT or RESPONSE
    payload, as target says; returns the verifier's verdict and the
    RESULT payload the prover reads."""
    c = s.circuit
    reps = len(state.openings) // 5
    sizes = dict(zip((ses.MSG_COMMIT, ses.MSG_RESPONSE), pr.block_lengths(c, scheme)))

    def mutate(msg_type, payload):
        if msg_type != target:
            return payload
        mutants = [m for r in range(reps) for m in block_shifts(
            payload, c, scheme, r * sizes[target], target == ses.MSG_COMMIT,
            target == ses.MSG_RESPONSE)]
        return mutants[k]

    ta, tb = pair()
    out = {}
    th = threading.Thread(target=lambda: out.update(
        verdict=ses.verifier_session(tb, s, reps, RandomSource(k))))
    th.start()
    try:
        ses._send(ta, ses.MSG_HELLO, ses._hello_payload(
            scheme.scheme_byte, reps, pr.statement_hash(s)))
        ses._read_hello(ta)
        ses._send(ta, ses.MSG_COMMIT, mutate(ses.MSG_COMMIT, commit))
        chs = ses._expect(ta, ses.MSG_CHALLENGE, "challenge")[32:]
        ses._send(ta, ses.MSG_RESPONSE, mutate(ses.MSG_RESPONSE, pr.prover_respond(state, chs)))
        result = ses._expect(ta, ses.MSG_RESULT, "result")
    finally:
        th.join(10)
        ta.close()
        tb.close()
    return out.get("verdict"), result


@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
def test_length_shift_mutants_in_session_reject(m11, scheme_name):
    """The proof file's length-shift mutants, in a live COMMIT or
    RESPONSE payload, end in the verifier's verdict False."""
    s, w = golden_corpus(m11, 1)[0]
    scheme = scheme_by_name(scheme_name, m11.p)
    reps = 2
    state, commit = pr.commit_repetitions(w, s, reps, RandomSource(39), scheme)
    assert shifted_session(s, scheme, state, commit, None, 0) == (True, b"\x01")
    # Per repetition: 4 commitment boundaries, or 3 response boundaries,
    # each crossed in both directions.
    for target, count in ((ses.MSG_COMMIT, reps * 4 * 2), (ses.MSG_RESPONSE, reps * 3 * 2)):
        for k in range(count):
            assert shifted_session(s, scheme, state, commit, target, k) == (False, b"\x00")


def test_cheating_prover_session_rate(m11):
    """The canonical cheater drives live sessions at the 9/10 rate."""
    s, w_guess = canonical_false_statement(m11)
    rng = RandomSource(900)
    cheater = OneBadPairCheater(s, w_guess, (2, 5), rng)
    accepts = 0
    trials = 400
    for _ in range(trials):
        ta, tb = pair()
        out = {}

        def verifier():
            out["v"] = ses.verifier_session(tb, s, 1, rng)

        th = threading.Thread(target=verifier)
        th.start()
        # Cheating prover speaks the wire protocol directly.
        digest = pr.statement_hash(s)
        ses._send(ta, ses.MSG_HELLO, ses._hello_payload(0x01, 1, digest))
        ses._read_hello(ta)
        st, commit = cheater.commit(rng, 1)
        ses._send(ta, ses.MSG_COMMIT, commit)
        ch_payload = ses._expect(ta, ses.MSG_CHALLENGE, "challenge")
        ses._send(ta, ses.MSG_RESPONSE, pr.prover_respond(st, ch_payload[32:]))
        result = ses._expect(ta, ses.MSG_RESULT, "result")
        th.join()
        assert bool(result[0]) == out["v"]
        accepts += out["v"]
        ta.close()
        tb.close()
    assert abs(accepts / trials - 0.9) <= 0.05


def test_challenge_bytes_uniform_on_wire(m11):
    """Chi-square over the challenge bytes captured from live frames."""
    s, w = golden_corpus(m11, 1)[0]
    counts = [0] * 10

    class Capture:
        def __init__(self, inner):
            self.inner = inner

        def send_all(self, data):
            # Verifier-side sends: frame type byte sits at offset 4.
            if data[4] == ses.MSG_CHALLENGE:
                for b in data[5 + 32:]:
                    counts[b] += 1
            self.inner.send_all(data)

        def recv_exactly(self, n):
            return self.inner.recv_exactly(n)

        def close(self):
            self.inner.close()

    for _ in range(50):
        out = run_session(s, w, 200, verifier_transport=Capture)
        assert out["verifier"] is True
    _, pval = chi2_uniform(counts)
    assert sum(counts) == 10_000
    assert pval >= 0.001


def test_commit_before_challenge_ordering(m11):
    """The CHALLENGE frame is emitted only after the full COMMIT payload
    arrived, observable on an instrumented transport."""
    s, w = golden_corpus(m11, 1)[0]
    events = []

    class Probe:
        def __init__(self, inner):
            self.inner = inner

        def send_all(self, data):
            if data[4] == ses.MSG_CHALLENGE:
                events.append(("send_challenge", None))
            self.inner.send_all(data)

        def recv_exactly(self, n):
            data = self.inner.recv_exactly(n)
            events.append(("recv", len(data)))
            return data

        def close(self):
            self.inner.close()

    out = run_session(s, w, 20, verifier_transport=Probe)
    assert out["verifier"] is True
    challenge_at = [k for k, e in enumerate(events) if e[0] == "send_challenge"]
    assert len(challenge_at) == 1
    received_before = sum(e[1] for e in events[:challenge_at[0]] if e[0] == "recv")
    # Hello (5 + 38) plus the full commit frame must be in before that.
    commit_payload = 20 * 5 * (4 + 32)
    assert received_before >= 43 + 5 + commit_payload


class Mutator:
    """Flips one payload bit of the first frame of a chosen type."""

    def __init__(self, inner, target_type, rnd):
        self.inner = inner
        self.target = target_type
        self.rnd = rnd
        self.buf = b""

    def recv_exactly(self, n):
        while len(self.buf) < n:
            frame = ses.decode_frame(self.inner)
            if frame.msg_type == self.target and frame.payload:
                pos = self.rnd.randrange(len(frame.payload))
                mutated = (frame.payload[:pos]
                           + bytes([frame.payload[pos] ^ (1 << self.rnd.randrange(8))])
                           + frame.payload[pos + 1:])
                frame = ses.Frame(frame.msg_type, mutated)
                self.target = None
            self.buf += ses.encode_frame(frame)
        out, self.buf = self.buf[:n], self.buf[n:]
        return out

    def send_all(self, data):
        self.inner.send_all(data)

    def close(self):
        self.inner.close()


@pytest.mark.parametrize("target", [ses.MSG_COMMIT, ses.MSG_RESPONSE])
def test_single_flipped_payload_byte_never_accepts(m11, target):
    s, w = golden_corpus(m11, 1)[0]
    rnd = random.Random(target)
    for k in range(500):
        out = run_session(
            s, w, 1,
            verifier_transport=lambda t: Mutator(t, target, rnd))
        # Reject or error on either side; never a True verdict.
        assert out.get("verifier") is not True
        prover_view = out.get("prover")
        assert prover_view is not True
