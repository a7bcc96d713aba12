"""Golden bytes: the canonical view encoding, the MITH2 proof file and the
session frames are fixed formats, so seeded runs must keep producing the
same bytes.

Each proof case pins the SHA-256 of the five encoded views of one seeded
protocol run and of a seeded two-repetition proof file.  Each session
case pins the SHA-256 of every frame both sides send, in send order.
"""

import hashlib
import random
import socket
import threading

import pytest

from mith import mpc
from mith import protocol as pr
from mith import session as ses
from mith.circuit import parse_circuit
from mith.commit import scheme_by_name
from mith.corpus import bench_circuit_a, bench_circuit_b, random_circuit, random_instance
from mith.field import Modulus, preset_modulus, RandomSource

# An smul whose public (scalar) subtree contains a mul: that mul is
# evaluated in the clear, exchanges no messages and draws no randomness.
SMUL_OVER_MUL = (
    "field 101\n"
    "topology 1 2 9\n"
    "(add 9 (smul 4 (mul 3 (pinput 0) (add 2 (pinput 0) (const 1 7)))"
    " (mul 5 (sinput 0) (sinput 1)))"
    " (mul 8 (sinput 1) (add 7 (sinput 0) (const 6 3))))\n"
)

CASES = {
    "deep9-f101-prf": (
        lambda: random_circuit(random.Random(3), Modulus(101), 1, 2, max_depth=9), "prf"),
    "bench-b-f97-prf": (bench_circuit_b, "prf"),
    "bench-a-p256-pedersen": (lambda: bench_circuit_a(preset_modulus("p256")), "pedersen"),
    "smul-over-mul-f101-prf": (lambda: parse_circuit(SMUL_OVER_MUL), "prf"),
}

# View digests computed with the tree-view implementation that preceded
# the compiled programs.  Proof digests are for MITH2: its challenges are
# derived from one SHA-256 of the commit phase.  The MITH1 proof digests
# were d08efaa3..., 506a5a03..., 8c4c93b9... and 8d763b05..., in order.
GOLDEN = {
    "deep9-f101-prf": (
        "4462f99ce2733e8dd74cd4945f50527d57a419c7ee1d34c1e377d2830850c2d9",
        "3e12175cc6cfb35f3dc5d50a1d2602ee03e1b104a105f6f7f925d83aff95b98b"),
    "bench-b-f97-prf": (
        "a51dd485444dc32e3aa26e058ad94afddd3c62651bdcee1f830421c5d105e211",
        "d4c95c6c54867134b9ce695304e7fd0f7eb66a345da904b2f87ce7191ea549c9"),
    "bench-a-p256-pedersen": (
        "66cc88446683e4638420d25acae5bc7805d74c3872766dd11541ccb66a2c1ada",
        "af5dcaab7a523d2d55d120302859b9440f8c7bb021cfdfdc52720ee2c118c558"),
    "smul-over-mul-f101-prf": (
        "a0d3085f70487a121ad356801cddea28d1343f5bd31b449696842a78598d2557",
        "41bffc18780062da5f3e875fd228ff4160f781d0463c4c9a43dc528d9294090b"),
}


def golden_digests(name: str) -> tuple[str, str]:
    make, scheme_name = CASES[name]
    c = make()
    s, w = random_instance(random.Random(17), c)
    scheme = scheme_by_name(scheme_name, c.modulus.p)
    (st,), _ = pr.commit_repetitions(w, s, 1, RandomSource(b"golden-views"), scheme)
    views = hashlib.sha256(b"".join(mpc.encode_view(c, v) for v in st.views)).hexdigest()
    proof = pr.prove_repeated(w, s, 2, RandomSource(b"golden-proof"), scheme, "derived")
    data = pr.serialize_proof(proof, c)
    assert pr.verify_repeated(s, pr.parse_proof(data, c))
    return views, hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name):
    assert golden_digests(name) == GOLDEN[name]


SESSION_CASES = {
    "bench-b-f97-prf-sigma3": (
        bench_circuit_b, "prf", 3,
        "b6ea6fa143548317714712e8a86667946c9adc788fda2f74c3b231ace9509ba1"),
    "bench-a-p256-pedersen-sigma2": (
        lambda: bench_circuit_a(preset_modulus("p256")), "pedersen", 2,
        "6e87db4ddc96a39d6dee4c2fb48a6c0306ccd81b064ac5f1c67f952053aa5b94"),
}


class RecordingTransport(ses.Transport):
    def __init__(self, sock, log):
        super().__init__(sock, 10.0)
        self.log = log

    def send_all(self, data):
        # Logged before it is sent: the peer answers only once it arrives,
        # so the shared log is in send order.
        self.log.append(data)
        super().send_all(data)


@pytest.mark.parametrize("name", sorted(SESSION_CASES))
def test_golden_session_frames(name):
    make, scheme_name, reps, digest = SESSION_CASES[name]
    c = make()
    s, w = random_instance(random.Random(17), c)
    log = []
    a, b = socket.socketpair()
    prover_t, verifier_t = RecordingTransport(a, log), RecordingTransport(b, log)
    out = {}

    def verifier():
        out["verifier"] = ses.verifier_session(
            verifier_t, s, reps, RandomSource(b"golden-verifier"))

    th = threading.Thread(target=verifier)
    th.start()
    try:
        out["prover"] = ses.prover_session(
            prover_t, s, w, reps, scheme_by_name(scheme_name, c.modulus.p),
            RandomSource(b"golden-prover"))
    finally:
        th.join(30)
        prover_t.close()
        verifier_t.close()
    assert out == {"prover": True, "verifier": True}
    assert len(log) == 6
    assert hashlib.sha256(b"".join(log)).hexdigest() == digest
