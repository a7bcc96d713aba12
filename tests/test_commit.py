"""Commitment schemes: known answers, fuzz, Pedersen group algebra."""

import hashlib
import hmac
import os
import random
import subprocess
import sys
import threading

import pytest

import mith
from mith import commit, mpc
from mith.circuit import Statement

from mith.commit import (
    BENCH_GROUP_257, TEST_GROUP_64, PedersenParams, PedersenScheme, PrfScheme,
    pedersen_commit, scheme_by_byte, scheme_by_name,
)
from mith.corpus import identity_circuit
from mith.errors import MithError
from mith.field import Modulus, RandomSource, is_probable_prime
from mith.sss import random_share_randomness, share

PRF = PrfScheme()


def commit1(scheme, key: bytes, view: bytes) -> bytes:
    """scheme's commitment to one view: `commit_view` on a batch of one."""
    (com,) = scheme.commit_view([key], [view])
    return com


def opens1(scheme, view: bytes, com: bytes, opening: bytes) -> bool:
    """Whether opening opens com to view: `verify_view` on a batch of one."""
    (ok,) = scheme.verify_view([view], [com], [opening])
    return ok

# HMAC-SHA256 test vectors from RFC 4231 (cases 1-4, 6, 7; case 5 tests
# truncated output and does not apply), which acceptance criterion 8 reads.
RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger "
     b"than block-size data. The key needs to be hashed before being "
     b"used by the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


# FIPS 180-2's two-block SHA-256 vector, cut into a 32-byte key and a view,
# and the SHA-256 of 32 zero bytes: the PRF commitment is SHA-256(key || view).
PRF_KAT = [
    (b"abcdbcdecdefdefgefghfghighijhijk", b"ijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    (bytes(32), b"", "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"),
]


def test_prf_commit_known_answers():
    for key, view, want in PRF_KAT:
        assert commit1(PRF, key, view).hex() == want
        assert opens1(PRF, view, bytes.fromhex(want), key)


@pytest.mark.parametrize("key_len", [0, 1, 31, 32, 33, 63, 64, 65, 131])
def test_prf_commit_matches_hashlib(key_len):
    """A 32-byte key commits to SHA-256(key || view), views around the
    64-byte block included; a key of any other length neither commits nor
    opens, even to the digest SHA-256(key || view) it would give."""
    rng = RandomSource(b"prf-key/%d" % key_len)
    for view_len in (0, 1, 31, 32, 33, 55, 56, 64, 65, 1000):
        key, view = rng.bytes(key_len), rng.bytes(view_len)
        digest = hashlib.sha256(key + view).digest()
        if key_len == 32:
            assert commit1(PRF, key, view) == digest
            assert opens1(PRF, view, digest, key)
        else:
            with pytest.raises(MithError, match="must be 32 bytes"):
                commit1(PRF, key, view)
            assert not opens1(PRF, view, digest, key)


def test_prf_commit_is_sha256_not_hmac():
    """Since `MITH5` the PRF commitment is SHA-256(key || view), not the
    HMAC-SHA256 that earlier proof formats committed with."""
    _, data, _ = RFC4231[2]
    key = b"\x00" * 32
    com = commit1(PRF, key, data)
    assert com == hashlib.sha256(key + data).digest()
    assert com != hmac.new(key, data, hashlib.sha256).digest()


def test_keygen_is_one_draw_of_the_one_key_stream():
    """keygen(rng, n) returns n openings, the same bytes as n one-key
    draws: PRF keys are 32-byte slices of one draw, Pedersen blinders
    one `randbelows` call."""
    for scheme in (PRF, scheme_by_name("pedersen")):
        keys = scheme.keygen(RandomSource(b"keys"), 7)
        one_by_one = RandomSource(b"keys")
        assert keys == [scheme.keygen(one_by_one, 1)[0] for _ in range(7)]
        assert len(set(keys)) == 7 and {len(k) for k in keys} == {scheme.opening_length}
        assert scheme.keygen(RandomSource(1), 0) == []


def test_prf_commit_key_length_enforced():
    with pytest.raises(MithError):
        commit1(PRF, b"short", b"m")


def test_prf_verify_rejects_wrong_lengths():
    key, msg = b"\x01" * 32, b"m"
    com = commit1(PRF, key, msg)
    assert opens1(PRF, msg, com, key)
    assert not opens1(PRF, msg, com[:-1], key)
    assert not opens1(PRF, msg, com, key + b"\x00")
    # key || view splits one way only because the key is 32 bytes: a
    # 33-byte opening that takes the view's first byte hashes alike.
    assert hashlib.sha256(key + msg).digest() == com
    assert not opens1(PRF, msg[1:], com, key + msg[:1])


def test_prf_determinism_and_round_trip():
    rng = RandomSource(3)
    for _ in range(1000):
        k = rng.bytes(32)
        msg = rng.bytes(rng.randbelow(64) + 1)
        c1 = commit1(PRF, k, msg)
        assert c1 == commit1(PRF, k, msg)
        assert opens1(PRF, msg, c1, k)


def test_prf_bit_flip_rejected():
    rng = RandomSource(4)
    rnd = random.Random(4)
    for _ in range(10_000):
        k = rng.bytes(32)
        msg = rng.bytes(16)
        c = commit1(PRF, k, msg)
        pos = rnd.randrange(len(msg))
        flipped = (msg[:pos] + bytes([msg[pos] ^ (1 << rnd.randrange(8))])
                   + msg[pos + 1:])
        assert not opens1(PRF, flipped, c, k)


def test_prf_wrong_key_rejected():
    rng = RandomSource(5)
    for _ in range(10_000):
        k, k2 = rng.bytes(32), rng.bytes(32)
        msg = rng.bytes(16)
        c = commit1(PRF, k, msg)
        assert not opens1(PRF, msg, c, k2)


def test_prf_hiding_digest_bytes_chi_square():
    """Digest-byte histograms of commitments to two fixed distinct
    messages under fresh keys are statistically indistinguishable."""
    from mith.stats import chi2_homogeneity
    rng = RandomSource(40)
    h0, h1 = [0] * 256, [0] * 256
    for _ in range(8_000):
        c0 = commit1(PRF, rng.bytes(32), b"message zero")
        c1 = commit1(PRF, rng.bytes(32), b"message one")
        h0[c0[0]] += 1
        h1[c1[0]] += 1
    _, pval = chi2_homogeneity(h0, h1)
    assert pval >= 0.001


# ---------------------------------------------------------------------------
# Pedersen


def naive_pow(base, exp, mod):
    """Repeated multiplication, the brute-force exponentiation oracle."""
    acc = 1
    for _ in range(exp):
        acc = acc * base % mod
    return acc


def test_pedersen_params_invariants():
    with pytest.raises(MithError):
        PedersenParams(15, 7, 2, 3)
    with pytest.raises(MithError):
        PedersenParams(TEST_GROUP_64.group_prime, TEST_GROUP_64.order, 1, 9)
    with pytest.raises(MithError):
        PedersenParams(TEST_GROUP_64.group_prime, TEST_GROUP_64.order, 4, 4)
    # Shipped groups construct cleanly.
    assert TEST_GROUP_64.element_bytes == 5
    assert BENCH_GROUP_257.order > 2**256


def test_composite_group_prime_above_q_squared_rejected():
    """A composite P = 1 (mod q) with q^2 > P has no element of order q
    (Pocklington), so no choice of generators passes the order check that
    stands in for Miller-Rabin on P: here with TEST_GROUP_64's q, and for
    every generator over every such P for small q."""
    q = TEST_GROUP_64.order
    P = next(k * q + 1 for k in range(2, 100, 2) if not is_probable_prime(k * q + 1))
    assert q * q > P
    rng = random.Random(7)
    candidates = [4, 9, P - 1] + [pow(rng.randrange(2, P - 1), (P - 1) // q, P)
                                  for _ in range(200)]
    for g in candidates:
        with pytest.raises(MithError, match="generator g"):
            PedersenParams(P, q, g, 9)
    for q in (2, 3, 5, 7, 11, 13):
        for P in range(q + 1, q * q, q):
            if is_probable_prime(P):
                continue
            for g in range(P + 1):
                with pytest.raises(MithError, match="generator g"):
                    PedersenParams(P, q, g, 2)


def test_composite_group_prime_below_q_squared_rejected():
    """With q^2 <= P the order checks prove nothing, and Miller-Rabin on P
    rejects a composite P whose generators do have order q: here the
    Carmichael number 561 = 3 * 11 * 17 with q = 5."""
    P, q = 561, 5
    g, h = [x for x in range(2, P) if pow(x, q, P) == 1][:2]
    assert (P - 1) % q == 0 and q * q <= P and g != h
    with pytest.raises(MithError, match="group prime P is not prime"):
        PedersenParams(P, q, g, h)


def test_pedersen_zero_exponents_identity():
    c, _ = pedersen_commit(TEST_GROUP_64, [0], [0])
    assert c == (1,)


def test_pedersen_matches_naive_exponentiation_oracle():
    params = TEST_GROUP_64
    rnd = random.Random(6)
    for _ in range(50):
        msg = rnd.randrange(500)
        blinder = rnd.randrange(500)
        (c,), _ = pedersen_commit(params, [blinder], [msg])
        want = (naive_pow(params.g, msg, params.group_prime)
                * naive_pow(params.h, blinder, params.group_prime)
                % params.group_prime)
        assert c == want


def test_pedersen_homomorphism():
    params = TEST_GROUP_64
    rnd = random.Random(7)
    q = params.order
    for _ in range(1000):
        m1, m2 = rnd.randrange(q), rnd.randrange(q)
        r1, r2 = rnd.randrange(q), rnd.randrange(q)
        (c1,), _ = pedersen_commit(params, [r1], [m1])
        (c2,), _ = pedersen_commit(params, [r2], [m2])
        (c12,), _ = pedersen_commit(params, [(r1 + r2) % q], [(m1 + m2) % q])
        assert c1 * c2 % params.group_prime == c12


def test_pedersen_verify_round_trip_and_fuzz():
    """Views of random elements of a 31-bit field: an opening verifies its
    view, and changing one element of the view or the blinder of the
    opening makes verify_view fail."""
    m = Modulus(2**31 - 1)
    c = identity_circuit(m)
    ped = PedersenScheme(BENCH_GROUP_257)
    n_el = mpc.view_element_count(c)
    q = ped.params.order
    rnd = random.Random(8)
    rng = RandomSource(8)

    def view_of(msg):
        return mpc.decode_view(c, b"".join(x.to_bytes(m.byte_length, "big") for x in msg))

    for _ in range(300):
        msg = [rnd.randrange(m.p) for _ in range(n_el)]
        (key,) = ped.keygen(rng, 1)
        com = commit1(ped, key, view_of(msg))
        assert opens1(ped, view_of(msg), com, key)
        k = rnd.randrange(n_el)
        bad_msg = list(msg)
        bad_msg[k] = (bad_msg[k] + 1 + rnd.randrange(m.p - 1)) % m.p
        assert not opens1(ped, view_of(bad_msg), com, key)
        bad_r = (int.from_bytes(key, "big") + 1 + rnd.randrange(q - 1)) % q
        assert not opens1(ped, view_of(msg), com, ped.serialize_opening(bad_r))


def test_pedersen_length_mismatch_is_false():
    rng = RandomSource(10)
    c, view = one_view(rng)
    ped = scheme_by_name("pedersen", 101)
    (key,) = ped.keygen(rng, 1)
    com = commit1(ped, key, view)
    assert opens1(ped, view, com, key)
    for short in (key[:-1], key[1:], key + b"\x00", b"\x00" + key):
        assert not opens1(ped, view, com, short)
        with pytest.raises(MithError):
            commit1(ped, short, view)
    assert not opens1(ped, view, com[:-1], key)
    assert not opens1(ped, view, b"\x00" + com, key)
    with pytest.raises(MithError):
        pedersen_commit(ped.params, [1], [3, 4])


def test_pedersen_message_must_fit_order():
    with pytest.raises(MithError):
        pedersen_commit(TEST_GROUP_64, [0], [TEST_GROUP_64.order])


def test_group_selection():
    """Every field commits in the 257-bit group: a SHA-256 exponent does
    not depend on the field's width."""
    for p in (11, 101, 2**31 - 1, 2**256 - 189, 2**300):
        assert scheme_by_name("pedersen", p).params == BENCH_GROUP_257
    assert scheme_by_name("pedersen").params == BENCH_GROUP_257
    assert scheme_by_byte(0x02).params == BENCH_GROUP_257


def test_pedersen_scheme_needs_order_above_2_256():
    """A group of order at most 2^256 would reduce the SHA-256 exponent,
    so two views whose digests agree mod q would open one commitment."""
    for params in (TEST_GROUP_64, custom_group()):
        with pytest.raises(MithError, match="exceed 2\\^256"):
            PedersenScheme(params)
    assert PedersenScheme(BENCH_GROUP_257).params == BENCH_GROUP_257


# ---------------------------------------------------------------------------
# Fixed-base window tables


def custom_group() -> PedersenParams:
    """A group whose 72-bit order is 9 bytes long, unlike either shipped
    group's (4 and 33 bytes)."""
    q = 2**71 + 1
    while not is_probable_prime(q):
        q += 2
    k = 2
    while not is_probable_prime(k * q + 1):
        k += 2
    P = k * q + 1
    return PedersenParams(P, q, pow(2, k, P), pow(3, k, P))


def edge_exponents(q: int) -> list[int]:
    """0, 1, q-1, 255, 256 and 2^(8k)-1, 2^(8k) for every k they fit."""
    edges = {0, 1, q - 1, 255, 256}
    for k in range(1, (q.bit_length() + 7) // 8 + 1):
        edges |= {2**(8 * k) - 1, 2**(8 * k)}
    return sorted(e for e in edges if e < q)


def pow_oracle(params, msg, blinders):
    P, q = params.group_prime, params.order
    return tuple(pow(params.g, v, P) * pow(params.h, r % q, P) % P
                 for v, r in zip(msg, blinders))


@pytest.mark.parametrize("params", [TEST_GROUP_64, BENCH_GROUP_257, custom_group()],
                         ids=["group64", "group257", "custom72"])
def test_fixed_base_matches_pow(params):
    """Table lookups give exactly pow(g, v, P) * pow(h, r, P) % P: random
    full-width exponents, every digit-boundary edge on both sides, and
    blinders at or above q, which are reduced mod q."""
    q = params.order
    rnd = random.Random(q)
    edges = edge_exponents(q)
    msg = [rnd.randrange(q) for _ in range(100)] + edges + edges + [0] * len(edges)
    blinders = ([rnd.randrange(q) for _ in range(100)] + edges[::-1]
                + [rnd.randrange(q) for _ in edges] + edges)
    c, o = pedersen_commit(params, blinders, msg)
    assert c == pow_oracle(params, msg, blinders)
    assert o == tuple(blinders)
    big = [q, q + 1, 2 * q - 1, 3 * q + 256, -1]
    c, o = pedersen_commit(params, big, [1] * len(big))
    assert c == pow_oracle(params, [1] * len(big), big)
    assert o == tuple(r % q for r in big)
    with pytest.raises(MithError):
        pedersen_commit(params, [0], [q])
    with pytest.raises(MithError):
        pedersen_commit(params, [0], [-1])


def test_fixed_base_tables_built_on_first_commit():
    """Building a scheme builds no tables; the first commit does."""
    commit._fixed_base_tables.cache_clear()
    scheme = scheme_by_name("pedersen", 2**256 - 189)
    assert commit._fixed_base_tables.cache_info().currsize == 0
    pedersen_commit(scheme.params, [5], [7])
    assert commit._fixed_base_tables.cache_info().currsize == 1


def test_fixed_base_cold_cache_threads():
    """Four threads committing at once on a cold table cache, with a short
    switch interval, all get the same, correct commitments."""
    params = BENCH_GROUP_257
    rnd = random.Random(41)
    msg = [rnd.randrange(params.order) for _ in range(20)]
    blinders = [rnd.randrange(params.order) for _ in range(20)]
    commit._fixed_base_tables.cache_clear()
    start = threading.Barrier(4)
    results = [None] * 4

    def worker(k):
        start.wait(timeout=30)
        results[k] = pedersen_commit(params, blinders, msg)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results[0][0] == pow_oracle(params, msg, blinders)
    assert results == [results[0]] * 4


def test_bench_group_built_on_first_access():
    """Importing mith.commit runs no Miller-Rabin round on a 257-bit
    number; the first access to BENCH_GROUP_257 validates the group, with
    64 rounds on q alone (P's primality follows from q's)."""
    code = (
        "import mith.field as f\n"
        "big = []\n"
        "real = f._miller_rabin_round\n"
        "def counting(n, a, d, r):\n"
        "    if n.bit_length() > 200: big.append(n)\n"
        "    return real(n, a, d, r)\n"
        "f._miller_rabin_round = counting\n"
        "import mith.commit\n"
        "assert not big, 'import ran rounds on a 257-bit number'\n"
        "from mith.commit import BENCH_GROUP_257\n"
        "assert big == [BENCH_GROUP_257.order] * 64, len(big)\n"
        "assert mith.commit.BENCH_GROUP_257 is BENCH_GROUP_257\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mith.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    with pytest.raises(AttributeError):
        commit.NO_SUCH_GROUP


# ---------------------------------------------------------------------------
# Scheme objects


def one_view(rng):
    """Party 1's view of an honest run of the F_101 identity circuit."""
    m = Modulus(101)
    c = identity_circuit(m)
    s = Statement(c, (), m.element(4))
    a1, a2 = random_share_randomness(rng, m.p, 1)
    sharing = share(4, (a1,), (a2,), m.p)
    rows = mpc.run_protocol(s, [sharing], mpc.random_gate_randomness(rng, c))
    return c, bytes(rows[:len(rows) // 5])


def test_scheme_serialization_round_trips():
    rng = RandomSource(9)
    c, view = one_view(rng)
    bcast = mpc.view_fields(c, view)["bcast"]
    other = mpc.make_view(c, view, bcast=((bcast[0] + 1) % 101,) + bcast[1:])
    for scheme in (scheme_by_name("prf"), scheme_by_name("pedersen", 101)):
        (key,) = scheme.keygen(rng, 1)
        com = commit1(scheme, key, view)
        assert type(key) is bytes and type(com) is bytes
        assert scheme.parse_commitment(com) == com
        assert scheme.parse_opening(key) == key
        assert opens1(scheme, view, com, key)
        assert not opens1(scheme, other, com, key)


def test_pedersen_commits_to_the_view_digest():
    """One group element g^SHA-256(view) * h^r, and a change to any one
    byte of the view changes it."""
    rng = RandomSource(12)
    c, view = one_view(rng)
    ped = scheme_by_name("pedersen", 101)
    P = ped.params.group_prime
    (key,) = ped.keygen(rng, 1)
    com = commit1(ped, key, view)
    digest = int.from_bytes(hashlib.sha256(view).digest(), "big")
    want = pow(ped.params.g, digest, P) * pow(ped.params.h, int.from_bytes(key, "big"), P) % P
    assert com == want.to_bytes(ped.params.element_bytes, "big")
    for k in range(len(view)):
        # Every element of an F_101 view is one byte below 101.
        other = mpc.decode_view(c, view[:k] + bytes([(view[k] + 1) % 101]) + view[k + 1:])
        assert commit1(ped, key, other) != com
        assert not opens1(ped, other, com, key)


def test_pedersen_opening_blinders_below_order():
    """r and r + q open the same commitment, so only r is accepted: by
    parse_opening, and by verify_view, which reads the opening itself."""
    rng = RandomSource(11)
    _, view = one_view(rng)
    ped = scheme_by_name("pedersen", 101)
    q = ped.params.order
    data = ped.serialize_opening(q - 1)
    assert len(data) == 33 and ped.parse_opening(data) == data
    com = commit1(ped, data, view)
    wrapped = ped.serialize_opening(q - 1 + q)
    assert len(wrapped) == 33
    for r in (q, q + 5, 2 * q - 1, 2**264 - 1):
        with pytest.raises(MithError, match="below the group order"):
            ped.parse_opening(ped.serialize_opening(r))
    with pytest.raises(MithError, match="below the group order"):
        commit1(ped, wrapped, view)
    assert (pedersen_commit(ped.params, [2 * q - 1], [7])[0]
            == pedersen_commit(ped.params, [q - 1], [7])[0])
    assert not opens1(ped, view, com, wrapped)
    for bad in (data[:-1], data + b"\x00"):
        with pytest.raises(MithError, match="must be 33 bytes"):
            ped.parse_opening(bad)


def test_pedersen_commitment_elements_in_group():
    """A commitment is one element of (0, P) in element_bytes big-endian
    bytes: 0, P and above are no group elements, and any other length is
    rejected."""
    ped = scheme_by_name("pedersen", 101)
    P, width = ped.params.group_prime, ped.params.element_bytes
    assert width == 34
    for element in (1, P - 1):
        data = ped.serialize_commitment(element)
        assert len(data) == width and ped.parse_commitment(data) == data
    for element in (0, P, P + 1, 2**(8 * width) - 1):
        with pytest.raises(MithError, match="commitment element out of range"):
            ped.parse_commitment(element.to_bytes(width, "big"))
    good = ped.serialize_commitment(P - 1)
    for data in (good[1:], good + b"\x00", b"", bytes(4) + good):
        with pytest.raises(MithError, match=f"must be {width} bytes"):
            ped.parse_commitment(data)


def test_scheme_lookup():
    assert isinstance(scheme_by_name("prf"), PrfScheme)
    assert isinstance(scheme_by_byte(0x02), PedersenScheme)
    with pytest.raises(MithError):
        scheme_by_name("nope")
    with pytest.raises(MithError):
        scheme_by_byte(0x55)


# ---------------------------------------------------------------------------
# The batch contract: one commit_view or verify_view call covers any
# number of views, and equals that many batches of one.


def batch_case(scheme, n: int = 7):
    """n keys and n distinct views of assorted lengths, the empty one first."""
    rng = RandomSource(b"batch/" + scheme.name.encode())
    return scheme.keygen(rng, n), [rng.bytes(5 * k) for k in range(n)]


def bad_openings(scheme) -> list[bytes]:
    """Openings that open nothing: every scheme's wrong lengths, and
    Pedersen blinders not below q."""
    o = scheme.opening_length
    bad = [b"", bytes(o - 1), bytes(o + 1)]
    if isinstance(scheme, PedersenScheme):
        q = scheme.params.order
        bad += [q.to_bytes(o, "big"), (q + 1).to_bytes(o, "big"), b"\xff" * o]
    return bad


@pytest.mark.parametrize("name", ["prf", "pedersen"])
def test_batch_equals_batches_of_one(name):
    scheme = scheme_by_name(name)
    keys, views = batch_case(scheme)
    coms = scheme.commit_view(keys, iter(views))
    assert coms == [commit1(scheme, k, v) for k, v in zip(keys, views)]
    assert len(set(coms)) == len(coms)
    for shift in (0, 1):  # each view against its own commitment, then its neighbour's
        cs = coms[shift:] + coms[:shift]
        want = [opens1(scheme, v, c, k) for v, c, k in zip(views, cs, keys)]
        assert want == [shift == 0] * len(views)
        assert scheme.verify_view(iter(views), iter(cs), iter(keys)) == want
    assert scheme.commit_view([], iter([])) == [] and scheme.verify_view([], [], []) == []


@pytest.mark.parametrize("name", ["prf", "pedersen"])
def test_batch_counts_must_agree(name):
    """A short batch never verifies to fewer verdicts than views."""
    scheme = scheme_by_name(name)
    keys, views = batch_case(scheme, 3)
    coms = scheme.commit_view(keys, views)
    with pytest.raises(ValueError):
        scheme.commit_view(keys, views[:-1])
    for short in ((views[:-1], coms, keys), (views, coms[:-1], keys), (views, coms, keys[:-1])):
        with pytest.raises(ValueError):
            scheme.verify_view(*short)


@pytest.mark.parametrize("pos", [0, 3, 6])
def test_prf_short_key_anywhere_in_a_batch_raises(pos):
    keys, views = batch_case(PRF)
    keys[pos] = keys[pos][:31]
    with pytest.raises(MithError, match="must be 32 bytes"):
        PRF.commit_view(keys, views)


@pytest.mark.parametrize("name", ["prf", "pedersen"])
def test_bad_opening_is_false_at_its_index_alone(name):
    scheme = scheme_by_name(name)
    keys, views = batch_case(scheme)
    coms = scheme.commit_view(keys, views)
    for pos in (0, 3, 6):
        for bad in bad_openings(scheme):
            openings = [bad if k == pos else key for k, key in enumerate(keys)]
            assert scheme.verify_view(views, coms, openings) == [k != pos for k in range(7)]
