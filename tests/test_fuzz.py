"""Strict decoding: hostile bytes either raise a MithError or decode to a
value whose canonical encoding is exactly those bytes, so every accepted
view and proof has one encoding."""

import random

from hypothesis import given, settings, strategies as st

from mith import mpc
from mith import protocol as pr
from mith.commit import scheme_by_name
from mith.corpus import bench_circuit_a, random_circuit, random_instance
from mith.errors import MithError
from mith.field import Modulus, RandomSource

PRF = scheme_by_name("prf")
C = random_circuit(random.Random(3), Modulus(101), 1, 2, max_depth=5)
S, W = random_instance(random.Random(4), C)
STATE, _ = pr.prover_commit(pr.random_prover_rand(RandomSource(1), C, PRF), W, S, PRF)
VIEW = mpc.encode_view(C, STATE.views[2])
PROG = mpc.program(C)
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
    assert mpc.encode_view(C, view) == data


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
@given(st.binary(min_size=PROG.n_elements * PROG.width,
                 max_size=PROG.n_elements * PROG.width))
def test_decode_view_random_elements_in_honest_layout(elements):
    """The honest counts and gate ids around arbitrary element bytes."""
    data = bytearray(VIEW)
    pos = k = 0
    for static, n in PROG.template:
        pos += len(static)
        data[pos:pos + n] = elements[k:k + n]
        pos += n
        k += n
    check_view(bytes(data))


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
