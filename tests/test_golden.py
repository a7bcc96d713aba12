"""Golden bytes: the canonical view encoding, the MITH6 proof file and the
session frames (HELLO version 5) are fixed formats, so seeded runs must
keep producing the same bytes.  The corpus circuits are pinned too, by their circuit text.

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
from mith.circuit import format_circuit, parse_circuit
from mith.commit import scheme_by_name
from mith.corpus import (
    bench_circuit_a, bench_circuit_b, golden_corpus, identity_circuit, random_circuit,
    random_instance, square_plus_one_circuit,
)
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

# Gate ids in pre-order: post-order runs muls 2, 3, 1, so a view's
# exchange order is not its ascending gate-id order.
PRE_ORDER_IDS = (
    "field 101\n"
    "topology 0 1 4\n"
    "(mul 1 (mul 2 (sinput 0) (sinput 0)) (mul 3 (sinput 0) (const 4 5)))\n"
)

CASES = {
    "deep9-f101-prf": (
        lambda: random_circuit(random.Random(3), Modulus(101), 1, 2, max_depth=9), "prf"),
    "bench-b-f97-prf": (bench_circuit_b, "prf"),
    "bench-a-p256-pedersen": (lambda: bench_circuit_a(preset_modulus("p256")), "pedersen"),
    "smul-over-mul-f101-prf": (lambda: parse_circuit(SMUL_OVER_MUL), "prf"),
    "pre-order-f101-prf": (lambda: parse_circuit(PRE_ORDER_IDS), "prf"),
}

# View digests are for the element-only encoding of MITH3 to MITH6.
# MITH6 orders a view's randomness as its messages: one pair per
# exchange, the messaging multiplications in post-order, the refresh
# last.  MITH3 to MITH5 ordered the multiplications' randomness by
# ascending gate id.  The first four circuits number their messaging
# multiplications in post-order, so their views did not change; the
# pre-order case's MITH5 view digest was 44ac84fe....  The MITH6 proof
# digests differ from MITH5's in the magic only: the MITH5 ones were
# b6976229..., cb8b8a7e..., 0c1bc1ad... and 9e5daf72..., in the order
# of the first four cases.  The view digests of the first four equal
# the SHA-256 of the element bytes of the MITH2 views of the same runs,
# which were pinned with the tree-view implementation that preceded the
# compiled programs; the MITH2 view digests were 4462f99c...,
# a51dd485..., 66cc8844... and a0d3085f..., in order.  Since MITH5 a PRF
# commitment is SHA-256(key || view), and all challenges come from one
# SHAKE-256 stream of the statement hash and one SHA-256 of the commit
# phase.  The MITH4 proof digests, HMAC-SHA256 commitments and one HMAC
# per challenge, were b740a779..., 77dba9fa..., 678bb067... and
# 3d028934..., in the order below.  MITH4 had one Pedersen commitment and
# one blinder per view, as MITH5 and MITH6 have, and challenges
# derived from one SHA-256 of the commit phase, as in MITH2 and MITH3.
# Both draw the commit phase's randomness in three passes:
# every repetition's sharing polynomials, then every repetition's gate
# randomness, then the 5 sigma commit keys.  One repetition draws as
# before, so the view digests stayed; the two-repetition proofs did not.
# With the draws made repetition by repetition the MITH4 proof digests
# were 7e60b9b4..., 67d46b80..., 663bbfbc... and 559e36d9..., in the
# order below.  The PRF proofs of that draw order differed from MITH3's
# in the magic only.  The MITH3 proof digests were 9d7c61a9...,
# 30edb648..., 780dddb7... and 86b990a4..., in the order below; the
# MITH2 ones 3e12175c...,
# d4c95c6c..., af5dcaab... and 41bffc18..., and the MITH1 ones
# d08efaa3..., 506a5a03..., 8c4c93b9... and 8d763b05....
GOLDEN = {
    "deep9-f101-prf": (
        "2bb65b327b3a8c4db3534534d1110853d93ba6d815cc0a2f438b29400982c2b2",
        "43bcc6ab7b323336c15d487534e9d4f2061b341dcd56995a2203028f121c682d"),
    "bench-b-f97-prf": (
        "1006120fee47a42dc6e373b5980f632432f00d57cd20fe5ea20b2370c1809b00",
        "c9a16a22905f6837d0694f7cbd2efa0b86b37990bf3d113507617e23c822c258"),
    "bench-a-p256-pedersen": (
        "7802798ada76d96e54ca8dec8ee90eadbb8c4559f79d550832669418cb4b877f",
        "55533f138876700848f648a99553530cdaca037392876344846acf2690d50337"),
    "smul-over-mul-f101-prf": (
        "fdf514caa52cb0b9bd21d4410d6de24dc4a3de2e3929bef35b5917b8bad6a221",
        "5dd4774f1aca88bbabf614db51147b0cea080fb8cab04997794bfa2767d0a783"),
    "pre-order-f101-prf": (
        "5aa04e2c14a335d5e2d7cdddcca979b1447b113fb8b7064789651d5b850b8a51",
        "df7bea7441c926384f5080585d09151bfa9a8da9c9f7649588aa6b0c2e7ccce2"),
}


def golden_digests(name: str) -> tuple[str, str]:
    make, scheme_name = CASES[name]
    c = make()
    s, w = random_instance(random.Random(17), c)
    scheme = scheme_by_name(scheme_name, c.modulus.p)
    st, _ = pr.commit_repetitions(w, s, 1, RandomSource(b"golden-views"), scheme)
    views = hashlib.sha256(st.rows).hexdigest()  # one repetition: the five views in party order
    proof = pr.prove_repeated(w, s, 2, RandomSource(b"golden-proof"), scheme, "derived")
    data = pr.serialize_proof(proof, c)
    assert pr.verify_repeated(s, pr.parse_proof(data, c))
    return views, hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name):
    assert golden_digests(name) == GOLDEN[name]


# SHA-256 of format_circuit for the hand-built and generated corpus
# circuits, pinned while they were still built as linked gate objects.
CIRCUIT_TEXT_GOLDEN = {
    "identity-f101": "8ec7291fde8efd040ba9c145215cc08496e66a3df8de5cb8204bcbcd4c0a8fd8",
    "square-plus-one-f101": "1f905eb87fe4386d8d60787e5144dab6b090f0980ad700dabfd167392897ec1f",
    "bench-a-f101": "676b4c6be2d52495b1275176fe78fe3c3fc454f6fffeb49474c0d71e6b001c88",
    "bench-a-p256": "bc5ae9d68e8c8eec9417af49f32a435b9e8aeb7ee227b583e18d4c874c1a1d26",
    "bench-b-f97": "21f29f06961b1743afa02c0fd486f223e506e1033ad4ea57a5d7f185df068973",
    "deep9-f101": "19ad5223a0b066a1f132bf7896ffd7e7f4398334aed3989d23630f59d249b9d2",
}
GOLDEN_CORPUS_F11_TEXT = [
    "0a62c4ce27c2f6f0ca22d4df02dc8a248d05cdd67cda34eff3c5e7d10b69f8d0",
    "79243ae7fa80e71a99b0462db1a8bb6081fc2a10c724323d39f47e96f5dfd346",
    "386347c07d1cb3558f6605dd8375f6cd13233bc774e2db98a354cd10d53ff35a",
    "fc72caeddf5f341ee9afe15c2ec46001016f87088cfa5ed3eeed13fa0e1be6ee",
    "09b68cfa48922f7f58edf35caa3141457b59dcb85b871313818214e830cc0537",
    "157c1fd94b05d5d2b09678ba840b3a2eebba7e55b7db313deb1674f53148391d",
    "27a0b2670677159b940efd1440702cdea6018188cd76e40680ca0cf3b1a028fa",
    "73d2e6a41fc659bec4a12d923452c8d870876ed31bc09ce338039e077d16c880",
    "7199c3b3c070692f5083b1ec60ace1bf6543d1393eec1c59db7a6c6df348cfc5",
    "d3bc687e8050c2873e8f65c3626639f7c300a7df33ba2622bdbcafea53eb82a7",
    "1b7f4395b5049b27e03edf141075b3807ab0f327d8e6ae370675725b5df35f41",
    "7df638c23cc8612c3f65f2c1b0965cd93c53c80075e0b5970b56752e81cecd2d",
    "c88b2d0b90b30fa98a70f40f6482f006d48257cfd0a3e44d18d216cccf09e1e6",
    "61f585f06a8d7a4f0addcdf44c6f068514659e311501e10673f6bab2efe05e71",
    "20d9ff0d607fc4004a7f783a5e6521533abe110598573f78c9909ee4723749fb",
    "cc204b37cbfc579891185806e6df1ef3cbe8034c1c4cefd46e524bd2533fc439",
    "cc450b2730a87960086174a317b1a97ecf050486cbd367ba6f88a4de3a7a1f59",
    "665b5eec3f799ed79fd60df21fb4e3b4bd4fa8cbfcfacf3704be96933fd711eb",
    "94b5a6d700db59aa9fddbbbc574f2a2005d84161eba6f40433849389307edf44",
    "b8f1bf3c070e5e07960b99e203c6deec3a0cafaa989327fe93455c2697c50500",
]
CIRCUITS = {
    "identity-f101": lambda: identity_circuit(Modulus(101)),
    "square-plus-one-f101": lambda: square_plus_one_circuit(Modulus(101)),
    "bench-a-f101": bench_circuit_a,
    "bench-a-p256": lambda: bench_circuit_a(preset_modulus("p256")),
    "bench-b-f97": bench_circuit_b,
    "deep9-f101": lambda: random_circuit(random.Random(3), Modulus(101), 1, 2, max_depth=9),
}


def text_digest(c) -> str:
    return hashlib.sha256(format_circuit(c).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_golden_circuit_text(name):
    assert text_digest(CIRCUITS[name]()) == CIRCUIT_TEXT_GOLDEN[name]


def test_golden_corpus_circuit_text():
    assert [text_digest(s.circuit) for s, _ in golden_corpus(Modulus(11), 20)] \
        == GOLDEN_CORPUS_F11_TEXT


# Frames of HELLO version 5: PRF commitments SHA-256(key || view), one
# Pedersen commitment and one blinder per view, element-only views, the
# commit phase's randomness in three passes (as for the proofs above).
# They differ from version 4's in the two HELLO version bytes only: the
# version-4 digests were 855872b1... and ef857f2e..., in order.
# The version-3 digests, HMAC-SHA256 commitments, were 73a62df5... and
# 11140be2..., in order; with the draws made repetition by repetition
# they were e7f974b1... and bd41c7cc....  The version-2
# digests were 50a4db16... and c0821016..., the version-1 ones
# b6ea6fa1... and 6e87db4d..., in order.
SESSION_CASES = {
    "bench-b-f97-prf-sigma3": (
        bench_circuit_b, "prf", 3,
        "02b71e963be74d2aceb00437ae7589851c5f2adef17b1d4537b22a9e51240cf3"),
    "bench-a-p256-pedersen-sigma2": (
        lambda: bench_circuit_a(preset_modulus("p256")), "pedersen", 2,
        "07cb1be40506b8ca5d9227a65a9d6d12ca891c8b9b1f6f43b2364068a31b0550"),
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
