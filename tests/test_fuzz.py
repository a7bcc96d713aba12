"""Hostile input: every parser either raises a MithError or returns a
value.  Strict decoders also re-encode an accepted value to exactly its
input bytes, so every accepted view, proof and frame has one encoding."""

import random

from hypothesis import given, settings, strategies as st

from mith import mpc
from mith import protocol as pr
from mith import session as ses
from mith.circuit import parse_circuit, parse_statement, parse_witness
from mith.commit import scheme_by_name
from mith.corpus import bench_circuit_a, random_circuit, random_instance
from mith.errors import MithError, SessionError
from mith.field import Modulus, RandomSource

PRF = scheme_by_name("prf")
C = random_circuit(random.Random(3), Modulus(101), 1, 2, max_depth=5)
S, W = random_instance(random.Random(4), C)
PROG = mpc.program(C)
STATE, _ = pr.commit_repetitions(W, S, 1, RandomSource(1), PRF)
VIEW = bytes(STATE.rows[2 * PROG.view_length:3 * PROG.view_length])
PRF_PROOF = pr.serialize_proof(pr.prove_repeated(W, S, 2, RandomSource(2)), C)
C_PED = bench_circuit_a(Modulus(101))
S_PED, W_PED = random_instance(random.Random(5), C_PED)
PED_PROOF = pr.serialize_proof(pr.prove_repeated(
    W_PED, S_PED, 1, RandomSource(3), scheme_by_name("pedersen", 101)), C_PED)


def check_view(data: bytes) -> None:
    try:
        view = mpc.decode_view(C, data)
    except MithError:
        return
    assert bytes(view) == data


def check_proof(c, data: bytes) -> None:
    try:
        proof = pr.parse_proof(data, c)
    except MithError:
        return
    assert pr.serialize_proof(proof, c) == data


def mutate(data: bytes, pos: int, xor: int) -> bytes:
    pos %= len(data)
    return data[:pos] + bytes([data[pos] ^ xor]) + data[pos + 1:]


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=2 * len(VIEW)))
def test_decode_view_random_bytes(data):
    check_view(data)


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=PROG.view_length, max_size=PROG.view_length), st.integers(0, 255))
def test_decode_view_oracle_on_honest_length(raw, cap):
    """Bytes of the honest length, each capped at cap so that both
    outcomes occur: decoding succeeds iff every element is below p, and
    an accepted view re-encodes to its input."""
    data = bytes(min(b, cap) for b in raw)
    try:
        view = mpc.decode_view(C, data)
    except MithError:
        assert max(data) >= PROG.p
        return
    assert max(data) < PROG.p
    assert bytes(view) == data
    assert mpc.view_elements(C, view) == list(data)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 1 << 20), st.integers(1, 255))
def test_decode_view_single_byte_mutation(pos, xor):
    check_view(mutate(VIEW, pos, xor))


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=256))
def test_parse_proof_random_bytes(data):
    check_proof(C, data)
    check_proof(C, pr.MAGIC + data)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 1 << 20), st.integers(1, 255))
def test_parse_proof_single_byte_mutation_prf(pos, xor):
    check_proof(C, mutate(PRF_PROOF, pos, xor))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 20), st.integers(1, 255))
def test_parse_proof_single_byte_mutation_pedersen(pos, xor):
    check_proof(C_PED, mutate(PED_PROOF, pos, xor))


# ---------------------------------------------------------------------------
# Circuit text, then compilation and an honest proof


WIRES = st.one_of(st.integers(0, 3), st.sampled_from([-1, 4]))
LEAVES = st.one_of(
    st.tuples(st.just("pinput"), WIRES),
    st.tuples(st.just("sinput"), WIRES),
    st.tuples(st.just("const"), st.integers(0, 1 << 20), st.integers(-(10 ** 30), 10 ** 30)))
TREES = st.recursive(
    LEAVES,
    lambda kids: st.tuples(st.sampled_from(["add", "mul", "mul", "smul"]),
                           st.integers(0, 1 << 20), kids, kids),
    max_leaves=10)
# The edges of the u32 range the view encoding stores gate ids in, and
# ids far outside it.
HOSTILE_IDS = st.one_of(
    st.sampled_from([-1, 0xFFFFFFFE, 0xFFFFFFFF, 1 << 32, -(1 << 31)]),
    st.integers(-(1 << 70), 1 << 70))


def render(tree, hostile: int | None = None, at: int = 0) -> tuple[str, int]:
    """s-expression text of a small generated tree and its gate count;
    given hostile, gate number `at` (post-order, mod the count) takes it
    as its id."""
    gates = []

    def go(t) -> list:
        if t[0] in ("pinput", "sinput"):
            return [f"({t[0]} {t[1]})"]
        parts = [f"({t[0]} ", len(gates), " "]
        gates.append(t[1])
        if t[0] == "const":
            return parts + [f"{t[2]})"]
        return parts + go(t[2]) + [" "] + go(t[3]) + [")"]

    parts = go(tree)
    if hostile is not None and gates:
        gates[at % len(gates)] = hostile
    return "".join(str(gates[x]) if isinstance(x, int) else x for x in parts), len(gates)


def check_circuit(text) -> None:
    """Text either fails to parse with a MithError or gives a circuit whose
    honest one-repetition proof round-trips and verifies."""
    try:
        c = parse_circuit(text)
    except MithError:
        return
    mpc.program(c)
    s, w = random_instance(random.Random(0), c)
    data = pr.serialize_proof(pr.prove_repeated(w, s, 1, RandomSource(0)), c)
    assert pr.verify_repeated(s, pr.parse_proof(data, c))


COUNTS = st.one_of(st.just(4), st.integers(-1, 5))


@settings(max_examples=400, deadline=None)
@given(TREES, st.one_of(st.none(), HOSTILE_IDS), st.integers(0, 20),
       st.one_of(st.just(101), st.sampled_from([11, 97, 4, -7])), COUNTS, COUNTS,
       st.one_of(st.just(0), st.integers(-1, 1)))
def test_parse_circuit_generated_trees(tree, hostile, at, p, n_public, n_secret, gate_delta):
    """Well-formed trees with hostile ids, wires, fields and counts."""
    body, n_gates = render(tree, hostile, at)
    check_circuit(f"field {p}\ntopology {n_public} {n_secret} {n_gates + gate_delta}\n{body}\n")


@settings(max_examples=300, deadline=None)
@given(TREES, st.integers(0, 1 << 16), st.sampled_from("()- 0123456789\nxmulad\u00b2"),
       st.booleans())
def test_parse_circuit_single_char_edits(tree, pos, ch, insert):
    body, n_gates = render(tree)
    text = f"field 101\ntopology 2 2 {n_gates}\n{body}\n"
    pos %= len(text)
    check_circuit(text[:pos] + ch + text[pos + (not insert):])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=200), st.binary(max_size=200)))
def test_parse_circuit_random_input(data):
    check_circuit(data)


# ---------------------------------------------------------------------------
# Statement and witness files


FILE_C = parse_circuit("field 101\ntopology 2 1 3\n(add 3 (mul 2 (sinput 0) (pinput 1)) (const 1 1))")
WORDS = st.one_of(
    st.integers(-(10 ** 40), 10 ** 40).map(str),
    st.sampled_from(["", "x", "--1", "1.5", "\u00b2", "101", "9" * 5000, "#"]))
LINES = st.tuples(st.sampled_from(["field", "target", "public", "secret", "circuit", "#", ""]),
                  st.lists(WORDS, max_size=4)).map(lambda kw: " ".join([kw[0], *kw[1]]))
FILE_TEXTS = st.one_of(st.lists(LINES, max_size=6).map("\n".join), st.text(max_size=200))


@settings(max_examples=400, deadline=None)
@given(FILE_TEXTS)
def test_parse_statement_hostile_text(text):
    try:
        s = parse_statement(text, FILE_C)
    except MithError:
        return
    assert len(s.public_inputs) == 2 and s.circuit is FILE_C


@settings(max_examples=400, deadline=None)
@given(FILE_TEXTS)
def test_parse_witness_hostile_text(text):
    try:
        w = parse_witness(text, FILE_C)
    except MithError:
        return
    assert len(w.secret_inputs) == 1


# ---------------------------------------------------------------------------
# Wire frames


class BytesTransport:
    """An in-memory stream: recv_exactly reads from fixed bytes and fails
    like a closed connection at their end."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def recv_exactly(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SessionError("connection closed mid-frame", "transport")
        self.pos += n
        return self.data[self.pos - n:self.pos]


def check_frames(data: bytes) -> None:
    """Read frames until the stream fails; each frame read re-encodes to
    exactly the bytes it consumed."""
    t = BytesTransport(data)
    while True:
        start = t.pos
        try:
            frame = ses.decode_frame(t)
        except MithError:
            return
        assert ses.encode_frame(frame) == data[start:t.pos]


HONEST_FRAMES = b"".join(ses.encode_frame(ses.Frame(k, bytes(range(n))))
                         for k, n in ((0x01, 38), (0x02, 180), (0x03, 33), (0x05, 1)))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_decode_frame_random_bytes(data):
    check_frames(data)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 20), st.integers(1, 255))
def test_decode_frame_single_byte_mutation(pos, xor):
    check_frames(mutate(HONEST_FRAMES, pos, xor))
