"""A reference verifier for MITH6 proof files, written from the README's
layout alone, and a differential test against `parse_proof` +
`verify_repeated`.

The reference reads the file with plain slicing, derives the challenges
by reading a `hashlib.shake_256` stream byte by byte, opens PRF
commitments with `hashlib.sha256` and Pedersen commitments with `pow`,
and replays each opened view by walking the circuit's gate
list in post-order, numbering the exchanges as it goes: the t-th
messaging multiplication, and then the refresh, takes randomness pair t
and message slot t.  Of `mith` the reference (everything above the differential
tests) uses only `parse_circuit`; the tests use the package to make
proofs and mutants.
"""

import hashlib
import math
import random

import pytest

from mith import protocol as pr
from mith.circuit import Statement, format_circuit, parse_circuit
from mith.commit import scheme_by_name
from mith.corpus import bench_circuit_a, random_instance
from mith.errors import MithError
from mith.field import Modulus, RandomSource, preset_modulus
from mith.harness import OneBadPairCheater, canonical_false_statement

from test_golden import SMUL_OVER_MUL
from test_lanes import CIRCUITS

# The shipped 257-bit Pedersen group: P, q, g, h.
P = 95644265710023177419869633617176211886801007333819105896591964390536245082832459
Q = 115792089237316195423570985008687907853269984665640564039457584007913129640233
G = 31928947829963435951804009826220012569408962358774800608384794276299486007020642
H = 83411703274934786478899154415020041077440611362202044731496127736458924436078967
PAIRS = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
PARTIES = range(1, 6)


class Reject(Exception):
    pass


def take(data: bytes, pos: int, n: int) -> tuple[bytes, int]:
    """The n bytes after the length prefix at pos, which must state n."""
    if data[pos:pos + 4] != n.to_bytes(4, "big") or len(data) < pos + 4 + n:
        raise Reject
    return data[pos + 4:pos + 4 + n], pos + 4 + n


def circuit_facts(c):
    """Per gate whether it lies in an smul's scalar subtree, and the
    number of messaging multiplications (those outside every one)."""
    marks = [False] * len(c.gates)
    for k in range(len(c.gates) - 1, -1, -1):
        op, _, a, b = c.gates[k]
        if op in ("add", "mul", "smul"):
            marks[a] = marks[k] or op == "smul"
            marks[b] = marks[k]
    return marks, sum(g.op == "mul" and not m for g, m in zip(c.gates, marks))


def lagrange0(p: int) -> list[int]:
    """Weights recombining the values at x = 1..5 of a degree-4 polynomial into its value at 0."""
    return [math.prod(m * pow(m - t, -1, p) for m in PARTIES if m != t) % p for t in PARTIES]


def replay(c, x, e, marks, n_mul):
    """What the party of the view with elements e sent to parties 1..5,
    each in its recipient's record order: the resharing value of each
    messaging multiplication in post-order, the zero share, and the
    refreshed output share."""
    p, topo = c.modulus.p, c.topology
    lam = lagrange0(p)
    o = topo.n_public + topo.n_secret
    rnd = e[o:o + 2 * n_mul + 2]
    msgs = e[o + 2 * n_mul + 2:]
    vals, clear, rows = [], [], []
    for k, (op, _, a, b) in enumerate(c.gates):
        if op == "pinput":
            v = cv = x[a]
        elif op == "sinput":
            v, cv = e[topo.n_public + a], 0
        elif op == "const":
            v = cv = a
        elif op == "add":
            v, cv = (vals[a] + vals[b]) % p, (clear[a] + clear[b]) % p
        elif op == "smul":
            v, cv = clear[a] * vals[b] % p, clear[a] * clear[b] % p
        else:
            v = cv = clear[a] * clear[b] % p
            if not marks[k]:  # exchange t = len(rows)
                d, a1, a2 = vals[a] * vals[b], rnd[2 * len(rows)], rnd[2 * len(rows) + 1]
                rows.append([(d + a1 * t + a2 * t * t) % p for t in PARTIES])
                col = msgs[5 * len(rows) - 5:5 * len(rows)]
                v = sum(w * y for w, y in zip(lam, col)) % p
        vals.append(v)
        clear.append(cv)
    a1, a2 = rnd[2 * n_mul:]  # the refresh, exchange n_mul
    zin = msgs[5 * n_mul:5 * n_mul + 5]
    own = (vals[-1] + sum(zin)) % p
    return [[row[t - 1] for row in rows] + [(a1 * t + a2 * t * t) % p, own] for t in PARTIES]


def recorded_from(e, b, n_mul):
    """What the view with elements e recorded from party b."""
    msgs = e[-5 * n_mul - 10:]
    return [msgs[5 * m + b - 1] for m in range(n_mul + 2)]


def challenge_stream(seed: bytes):
    """The challenges SHAKE-256(seed) gives: its bytes in order, each
    below 250 taken mod 10, each above skipped."""
    n = 0
    while True:
        n += 256
        for b in hashlib.shake_256(seed).digest(n)[n - 256:]:
            if b < 250:
                yield b % 10


def reference_verdict(circuit_text: str, public: list[int], target: int, data: bytes) -> bool:
    """Accept iff data is a well-formed MITH6 proof of the statement
    (circuit_text in canonical form, public inputs, target) whose every
    repetition passes: derived challenge, both openings, pairwise
    consistency and both outputs."""
    try:
        return verify(circuit_text, public, target, data)
    except Reject:
        return False


def verify(circuit_text, public, target, data) -> bool:
    c = parse_circuit(circuit_text)
    p, topo = c.modulus.p, c.topology
    marks, n_mul = circuit_facts(c)
    w = (p.bit_length() + 7) // 8
    n_el = topo.n_public + topo.n_secret + 2 * n_mul + 2 + 5 * n_mul + 10
    if len(data) < 43 or data[:5] != b"MITH6" or data[5] not in (1, 2) or data[6] != 1:
        raise Reject
    pedersen = data[5] == 2
    n_com, n_open = (34, 33) if pedersen else (32, 32)
    reps = int.from_bytes(data[7:11], "big")
    if reps < 1:
        raise Reject
    pos, blocks = 43, []
    for _ in range(reps):
        start, coms = pos, []
        for _ in PARTIES:
            com, pos = take(data, pos, n_com)
            coms.append(com)
        section = data[start:pos]
        if pos >= len(data) or data[pos] >= 10:
            raise Reject
        ch, pos, opened = data[pos], pos + 1, []
        for _ in range(2):
            view, pos = take(data, pos, n_el * w)
            key, pos = take(data, pos, n_open)
            e = [int.from_bytes(view[k:k + w], "big") for k in range(0, len(view), w)]
            if max(e) >= p or pedersen and int.from_bytes(key, "big") >= Q:
                raise Reject
            opened.append((view, key, e))
        if pedersen and not all(0 < int.from_bytes(com, "big") < P for com in coms):
            raise Reject
        blocks.append((section, coms, ch, opened))
    if pos != len(data):
        raise Reject

    text = f"field {p}\ntarget {target}\n" + (
        "public " + " ".join(map(str, public)) + "\n" if public else "") + circuit_text
    stmt = data[11:43]
    ok = stmt == hashlib.sha256(text.encode()).digest()
    digest = hashlib.sha256(b"".join(b[0] for b in blocks)).digest()
    lam = lagrange0(p)
    derived = challenge_stream(stmt + digest)
    for _, coms, ch, opened in blocks:
        ok &= ch == next(derived)
        pair = PAIRS[ch]
        for q, (view, key, e) in zip(pair, opened):
            if pedersen:
                h = int.from_bytes(hashlib.sha256(view).digest(), "big")
                com = pow(G, h, P) * pow(H, int.from_bytes(key, "big"), P) % P
                ok &= com == int.from_bytes(coms[q - 1], "big")
            else:
                ok &= hashlib.sha256(key + view).digest() == coms[q - 1]
            ok &= e[:topo.n_public] == list(public)
            ok &= sum(a * b for a, b in zip(lam, e[-5:])) % p == target
        sent = {q: replay(c, public, e, marks, n_mul) for q, (_, _, e) in zip(pair, opened)}
        for q, (_, _, e) in zip(pair, opened):
            for b in pair:
                ok &= recorded_from(e, b, n_mul) == sent[b][q - 1]
    return ok


# ---------------------------------------------------------------------------
# Differential tests


def agree(s, data: bytes) -> bool:
    """Both verifiers' verdict on data for s, which must be the same; a
    MithError is a reject."""
    try:
        want = pr.verify_repeated(s, pr.parse_proof(data, s.circuit))
    except MithError:
        want = False
    got = reference_verdict(format_circuit(s.circuit), [x.value for x in s.public_inputs],
                            s.target.value, data)
    assert got == want
    return want


def statement(case: str, seed: int = 5):
    """A random instance of SMUL_OVER_MUL over F97 or F101, of bench_a
    over p256, or of a `test_lanes.py` circuit named case."""
    if case in CIRCUITS:
        c = CIRCUITS[case]()
    elif case == "p256":
        c = bench_circuit_a(preset_modulus("p256"))
    else:
        c = parse_circuit(SMUL_OVER_MUL.replace("field 101", f"field {case[1:]}"))
    return random_instance(random.Random(seed), c)


def proof_bytes(s, w, reps, scheme_name, seed=1):
    scheme = scheme_by_name(scheme_name, s.circuit.modulus.p)
    return pr.serialize_proof(pr.prove_repeated(w, s, reps, RandomSource(seed), scheme), s.circuit)


@pytest.mark.parametrize("reps", [1, 2, 7])
@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
@pytest.mark.parametrize("case", ["F97", "F101", "p256", *sorted(CIRCUITS)])
def test_reference_agrees_on_honest_proofs(case, scheme_name, reps):
    """Honest proofs are accepted by both verifiers, and rejected by both
    against the target plus one or the first public input plus one."""
    s, w = statement(case)
    data = proof_bytes(s, w, reps, scheme_name)
    assert agree(s, data)
    m = s.circuit.modulus
    assert not agree(Statement(s.circuit, s.public_inputs, s.target + m.one()), data)
    if s.public_inputs:
        other = (s.public_inputs[0] + m.one(), *s.public_inputs[1:])
        assert not agree(Statement(s.circuit, other, s.target), data)


@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
def test_reference_agrees_on_one_bad_pair_cheater(scheme_name):
    """Derived-mode proofs of a false statement: accepted exactly when no
    challenge lands on the cheater's bad pair, by both verifiers."""
    s, w_guess = canonical_false_statement(Modulus(11))
    scheme = scheme_by_name(scheme_name, 11)
    verdicts = set()
    for seed in range(40):
        cheater = OneBadPairCheater(s, w_guess, PAIRS[seed % 10], RandomSource(seed), scheme)
        rng = RandomSource(100 + seed)
        reps = 1 + seed % 2
        proof = pr.respond_repetitions(s, *cheater.commit(rng, reps), rng, scheme, "derived")
        verdicts.add(agree(s, pr.serialize_proof(proof, s.circuit)))
    assert verdicts == {True, False}


BASES = {name: (s, proof_bytes(s, w, 3, name, seed=9), proof_bytes(s, w, 3, name, seed=10))
         for name, (s, w) in (("prf", statement("F101")), ("pedersen", statement("F97")))}


def mutant(rnd: random.Random, name: str) -> bytes:
    """A mutant of the scheme's base proof: a bit flipped, the file cut or
    extended, a repetition spliced in from a second proof of the same
    statement, a repetition's two opened blocks swapped, or sigma or the
    scheme byte rewritten."""
    s, data, other = BASES[name]
    cm_len, resp_len = pr.block_lengths(s.circuit, scheme_by_name(name))
    size, pos = cm_len + 1 + resp_len, rnd.randrange(len(data))
    k = pr.HEADER_LENGTH + rnd.randrange(3) * size  # a repetition's block
    a, h = k + cm_len + 1, resp_len // 2  # its opened blocks
    return [data[:pos] + bytes([data[pos] ^ 1 << rnd.randrange(8)]) + data[pos + 1:],
            data[:pos],
            data + rnd.randbytes(rnd.randrange(1, 2 * size)),
            data[:k] + other[k:k + size] + data[k + size:],
            data[:a] + data[a + h:a + 2 * h] + data[a:a + h] + data[a + 2 * h:],
            data[:7] + rnd.randrange(7).to_bytes(4, "big") + data[11:],
            data[:5] + bytes([rnd.randrange(4)]) + data[6:]][rnd.randrange(7)]


@pytest.mark.parametrize("name", sorted(BASES))
def test_reference_agrees_on_mutants(name):
    """1,000 mutants per scheme; some (a flip in an unopened commitment
    that keeps the challenges, a byte rewritten to its own value) are
    accepted by both."""
    rnd = random.Random(name)
    verdicts = {agree(BASES[name][0], mutant(rnd, name)) for _ in range(1000)}
    assert verdicts == {True, False}
