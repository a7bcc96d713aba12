"""Golden bytes: the canonical view encoding, the MITH5 proof file and the
session frames (HELLO version 4) are fixed formats, so seeded runs must
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

CASES = {
    "deep9-f101-prf": (
        lambda: random_circuit(random.Random(3), Modulus(101), 1, 2, max_depth=9), "prf"),
    "bench-b-f97-prf": (bench_circuit_b, "prf"),
    "bench-a-p256-pedersen": (lambda: bench_circuit_a(preset_modulus("p256")), "pedersen"),
    "smul-over-mul-f101-prf": (lambda: parse_circuit(SMUL_OVER_MUL), "prf"),
}

# View digests are for the element-only encoding of MITH3 to MITH5.
# They equal the SHA-256 of the element bytes of the MITH2 views of the
# same runs, which were pinned with the tree-view implementation that
# preceded the compiled programs; the MITH2 view digests were
# 4462f99c..., a51dd485..., 66cc8844... and a0d3085f..., in order.  Proof
# digests are for MITH5: a PRF commitment is SHA-256(key || view), and all
# challenges come from one SHAKE-256 stream of the statement hash and one
# SHA-256 of the commit phase.  The MITH4 proof digests, HMAC-SHA256
# commitments and one HMAC per challenge, were b740a779..., 77dba9fa...,
# 678bb067... and 3d028934..., in the order below.  MITH4 had one Pedersen
# commitment and one blinder per view, as MITH5 has, and challenges
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
        "b69762295b5fe819a974936d0bc4950716067d32ccf53af25e87394fba0d9dec"),
    "bench-b-f97-prf": (
        "1006120fee47a42dc6e373b5980f632432f00d57cd20fe5ea20b2370c1809b00",
        "cb8b8a7e96ba7473608e559b6a5e9f1f159df9069857f1ed164819de5750ae90"),
    "bench-a-p256-pedersen": (
        "7802798ada76d96e54ca8dec8ee90eadbb8c4559f79d550832669418cb4b877f",
        "0c1bc1adcd110bef540868428cadc8e69c1b77115b475b344595932d013def25"),
    "smul-over-mul-f101-prf": (
        "fdf514caa52cb0b9bd21d4410d6de24dc4a3de2e3929bef35b5917b8bad6a221",
        "9e5daf7285f11ea6fe35da881bbbc01bc7cdd79319310930cc47c2417ff87c1b"),
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


# Frames of HELLO version 4: PRF commitments SHA-256(key || view), one
# Pedersen commitment and one blinder per view, element-only views, the
# commit phase's randomness in three passes (as for the proofs above).
# The version-3 digests, HMAC-SHA256 commitments, were 73a62df5... and
# 11140be2..., in order; with the draws made repetition by repetition
# they were e7f974b1... and bd41c7cc....  The version-2
# digests were 50a4db16... and c0821016..., the version-1 ones
# b6ea6fa1... and 6e87db4d..., in order.
SESSION_CASES = {
    "bench-b-f97-prf-sigma3": (
        bench_circuit_b, "prf", 3,
        "855872b16ed734e4c9ca5de829ca6421975450233750f683f19636a5a9e46714"),
    "bench-a-p256-pedersen-sigma2": (
        lambda: bench_circuit_a(preset_modulus("p256")), "pedersen", 2,
        "ef857f2eaa25de6c04b7d05f78a71866f692c567335bc917daa2e6811055ff28"),
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
