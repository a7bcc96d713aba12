"""The lane-form commit phase against a per-repetition reference.

`reference_proof` runs the commit phase one repetition at a time, as
separate scalar executions: its own rejection sampler for every field
draw, each party's shares as single ints, the canonical view encoding
written out element by element, SHA-256(key || view) and Pedersen
commitments (the latter as pow(g, SHA-256(view), P) * pow(h, r, P) % P,
not through the window tables), challenges read from a SHAKE-256 stream
and the MITH6 file layout.  It walks the circuit's gate list in
post-order and numbers the exchanges itself, as the README lays a view
out: exchange t, the t-th messaging multiplication and then the refresh,
takes randomness pair t and fills message slot t.  Seeded alike, the lane
path (`commit_repetitions`, `prove_repeated`, `serialize_proof`) must give
the same views, commitments and proof bytes.
"""

import hashlib
import itertools
import math
import random
from collections import namedtuple

import pytest
from hypothesis import assume, given, settings, strategies as st

from mith import mpc
from mith import protocol as pr
from mith.circuit import parse_circuit, statement_hash
from mith.commit import PedersenScheme, scheme_by_name
from mith.corpus import bench_circuit_a, bench_circuit_b, random_circuit, random_instance
from mith.errors import MithError
from mith.field import Modulus, RandomSource
from mith.sss import PARTY_PAIRS, share_sim

from test_field import reference_randbelow
from test_fuzz import TREES, render
from test_golden import PRE_ORDER_IDS, SMUL_OVER_MUL
from test_mpc import repetition_views


def chain_circuit(n: int):
    node = "(sinput 0)"
    for gid in range(1, n + 1):
        node = f"(mul {gid} {node} (sinput 0))"
    return parse_circuit(f"field 101\ntopology 0 1 {n}\n{node}\n")


# Post-order runs mul 2 (depth 1), mul 1 (depth 2), then mul 3 (depth 1):
# exchanges 0 and 2 share the first multiplicative layer, and exchange 1
# runs after both.
INTERLEAVED_DEPTHS = (
    "field 101\n"
    "topology 1 1 4\n"
    "(add 4 (mul 1 (mul 2 (sinput 0) (sinput 0)) (sinput 0)) (mul 3 (sinput 0) (pinput 0)))\n"
)


CIRCUITS = {
    "bench_a": bench_circuit_a,
    "bench_b": bench_circuit_b,
    "depth-9": lambda: random_circuit(random.Random(3), Modulus(101), 1, 2, max_depth=9),
    "smul-over-mul": lambda: parse_circuit(SMUL_OVER_MUL),
    "chain-200": lambda: chain_circuit(200),
    "pre-order-ids": lambda: parse_circuit(PRE_ORDER_IDS),
    "interleaved-depths": lambda: parse_circuit(INTERLEAVED_DEPTHS),
}


# A reference view: its fields, in encoding order.
RefView = namedtuple("RefView", "public_inputs secret_shares randomness messages zin bcast")


def share5(s: int, a1: int, a2: int, p: int) -> tuple[int, ...]:
    """Evaluate s + a1*x + a2*x^2 mod p at x = 1..5."""
    return ((s + a1 + a2) % p, (s + 2 * a1 + 4 * a2) % p, (s + 3 * a1 + 9 * a2) % p,
            (s + 4 * a1 + 16 * a2) % p, (s + 5 * a1 + 25 * a2) % p)


def dot5(w, y, p: int) -> int:
    return (w[0] * y[0] + w[1] * y[1] + w[2] * y[2] + w[3] * y[3] + w[4] * y[4]) % p


def lagrange0(p: int) -> list[int]:
    """Weights recombining the values at x = 1..5 of a degree-4 polynomial into its value at 0."""
    return [math.prod(m * pow(m - t, -1, p) for m in range(1, 6) if m != t) % p
            for t in range(1, 6)]


def reference_execution(c, pubs, secs, rand):
    """One execution with scalar shares, walking c's gates in post-order:
    secs[w] is secret wire w's five shares, rand[q] party q+1's
    randomness vector, whose pair t each messaging multiplication t and
    then the refresh take in turn.  A gate inside an smul's scalar
    subtree is evaluated in the clear.  Returns the five views."""
    p, lam = c.modulus.p, lagrange0(c.modulus.p)
    vals, clear = [], []  # per gate: its five shares, its value in the clear
    msgs = [[] for _ in range(5)]
    for (op, _, a, b), messaging in zip(c.gates, messaging_flags(c)):
        if op == "pinput":
            v, cv = (pubs[a],) * 5, pubs[a]
        elif op == "sinput":
            v, cv = secs[a], 0  # never in a scalar subtree
        elif op == "const":
            v, cv = (a,) * 5, a
        elif op == "add":
            v = tuple((x + y) % p for x, y in zip(vals[a], vals[b]))
            cv = (clear[a] + clear[b]) % p
        elif op == "smul":
            v, cv = tuple(clear[a] * y % p for y in vals[b]), clear[a] * clear[b] % p
        else:
            cv = clear[a] * clear[b] % p
            v = (cv,) * 5
            if messaging:
                t = len(msgs[0])
                rows = [share5(vals[a][k] * vals[b][k] % p, rand[k][2 * t], rand[k][2 * t + 1], p)
                        for k in range(5)]
                cols = [tuple(row[q] for row in rows) for q in range(5)]
                for q in range(5):
                    msgs[q].append(cols[q])
                v = tuple(dot5(lam, col, p) for col in cols)
        vals.append(v)
        clear.append(cv)
    t = len(msgs[0])  # the refresh: the last exchange
    zrows = [share5(0, rand[k][2 * t], rand[k][2 * t + 1], p) for k in range(5)]
    zin = [tuple(row[q] for row in zrows) for q in range(5)]
    bcast = tuple((vals[-1][q] + sum(zin[q])) % p for q in range(5))
    return tuple(RefView(pubs, tuple(sh[q] for sh in secs), tuple(rand[q]), tuple(msgs[q]),
                         zin[q], bcast) for q in range(5))


def reference_elements(v):
    return [*v.public_inputs, *v.secret_shares, *v.randomness,
            *[x for col in v.messages for x in col], *v.zin, *v.bcast]


def messaging_flags(c) -> list[bool]:
    """Per circuit node in post-order: whether it is a multiplication that
    exchanges messages (one outside every smul's scalar subtree).  A
    subtree is the run of the post-order list from its leftmost leaf to
    its root."""
    first = []  # per node: index of its subtree's leftmost leaf
    for i, g in enumerate(c.gates):
        first.append(first[g.a] if g.op in ("add", "mul", "smul") else i)
    scalar = {k for g in c.gates if g.op == "smul" for k in range(first[g.a], g.a + 1)}
    return [g.op == "mul" and i not in scalar for i, g in enumerate(c.gates)]


def reference_encoding(c, v) -> bytes:
    """The view's elements and nothing else, each w-byte big-endian, in
    the order public inputs, secret shares, randomness (an (a1, a2) pair
    per messaging multiplication and the refresh pair), the column
    received at each messaging multiplication in post-order, zin and
    bcast.  The circuit fixes every count, so each is checked, not
    written."""
    topo = c.topology
    n_mul = sum(messaging_flags(c))
    assert (len(v.public_inputs), len(v.secret_shares)) == (topo.n_public, topo.n_secret)
    assert len(v.randomness) == 2 * (n_mul + 1) and len(v.messages) == n_mul
    assert all(len(col) == 5 for col in (*v.messages, v.zin, v.bcast))
    w = c.modulus.byte_length
    return b"".join(x.to_bytes(w, "big") for x in reference_elements(v))


def pack(v: int, bound: int) -> bytes:
    """v big-endian in bound's byte width: a Pedersen commitment (bound P)
    or opening (bound q)."""
    return v.to_bytes((bound.bit_length() + 7) // 8, "big")


def reference_proof(w, s, reps, rng, scheme):
    """Three passes of draws, each repetition by repetition: a1, a2 per
    secret wire; the gate randomness; five commit keys.  Then per
    repetition its execution and commitments.  Returns (views per
    repetition, commitments, openings, proof bytes)."""
    c = s.circuit
    p = c.modulus.p
    n_mul = sum(messaging_flags(c))
    pubs = tuple(x.value for x in s.public_inputs)
    coeffs = [[(reference_randbelow(rng, p), reference_randbelow(rng, p))
               for _ in w.secret_inputs] for _ in range(reps)]
    gate_draws = [[reference_randbelow(rng, p) for _ in range(10 * (n_mul + 1))]
                  for _ in range(reps)]
    if isinstance(scheme, PedersenScheme):
        rep_keys = [[reference_randbelow(rng, scheme.params.order) for _ in range(5)]
                    for _ in range(reps)]
    else:
        rep_keys = [[rng.bytes(32) for _ in range(5)] for _ in range(reps)]
    all_views, all_coms, all_ops = [], [], []
    for pairs, draws, keys in zip(coeffs, gate_draws, rep_keys):
        secs = [share5(v.value, a1, a2, p) for v, (a1, a2) in zip(w.secret_inputs, pairs)]
        rand = [sum(((draws[10 * r + 2 * q], draws[10 * r + 2 * q + 1])
                     for r in range(n_mul + 1)), ()) for q in range(5)]
        views = reference_execution(c, pubs, secs, rand)
        if isinstance(scheme, PedersenScheme):
            prm = scheme.params
            P = prm.group_prime
            digests = [int.from_bytes(hashlib.sha256(reference_encoding(c, v)).digest(), "big")
                       for v in views]
            coms = [pack(pow(prm.g, d, P) * pow(prm.h, r, P) % P, P)
                    for r, d in zip(keys, digests)]
            openings = [pack(r, prm.order) for r in keys]
        else:
            coms = [hashlib.sha256(k + reference_encoding(c, v)).digest()
                    for k, v in zip(keys, views)]
            openings = keys
        all_views.append(views)
        all_coms.append(coms)
        all_ops.append(openings)

    lp = lambda b: len(b).to_bytes(4, "big") + b  # noqa: E731
    com_blocks = [b"".join(map(lp, coms)) for coms in all_coms]
    digest = hashlib.sha256(b"".join(com_blocks)).digest()
    stmt = statement_hash(s)
    out = [b"MITH6", bytes([scheme.scheme_byte, 0x01]), reps.to_bytes(4, "big"), stmt]
    stream, chs = hashlib.shake_256(stmt + digest).digest(2 * reps + 64), []
    for b in stream:  # a byte of 250 or more is skipped
        if b < 250 and len(chs) < reps:
            chs.append(b % 10)
    assert len(chs) == reps
    for k, ch in enumerate(chs):
        out += (com_blocks[k], bytes([ch]))
        for pid in PARTY_PAIRS[ch]:
            out += (lp(reference_encoding(c, all_views[k][pid - 1])),
                    lp(all_ops[k][pid - 1]))
    return all_views, all_coms, all_ops, b"".join(out)


def check_against_reference(c, scheme_name, reps, seed):
    s, w = random_instance(random.Random(seed), c)
    scheme = scheme_by_name(scheme_name, c.modulus.p)
    label = b"lanes/%d/%d" % (seed, reps)
    views, coms, openings, data = reference_proof(w, s, reps, RandomSource(label), scheme)
    st, commit = pr.commit_repetitions(w, s, reps, RandomSource(label), scheme)
    runs = [repetition_views(st.rows, reps, k) for k in range(reps)]
    assert [[tuple(mpc.view_fields(c, v)[f] for f in RefView._fields) for v in vs]
            for vs in runs] == [[tuple(v) for v in vs] for vs in views]
    assert runs == [[reference_encoding(c, v) for v in vs] for vs in views]
    assert commit == b"".join([pr.serialize_commitment_msg(cs) for cs in coms])
    assert [[st.openings[q * reps + k] for q in range(5)] for k in range(reps)] == openings
    proof = pr.prove_repeated(w, s, reps, RandomSource(label), scheme)
    assert pr.serialize_proof(proof, c) == data
    assert pr.verify_repeated(s, pr.parse_proof(data, c))


@pytest.mark.parametrize("reps", [1, 2, 7])
@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_lanes_match_per_repetition_reference(name, scheme_name, reps):
    check_against_reference(CIRCUITS[name](), scheme_name, reps, seed=7)


def well_formed(tree, ids):
    """tree with its input wires in 0..3 and distinct gate ids."""
    if tree[0] in ("pinput", "sinput"):
        return (tree[0], abs(tree[1]) % 4)
    if tree[0] == "const":
        return ("const", next(ids), tree[2])
    gid = next(ids)
    return (tree[0], gid, well_formed(tree[2], ids), well_formed(tree[3], ids))


@settings(max_examples=60, deadline=None)
@given(TREES, st.sampled_from([11, 97, 101]), st.sampled_from(["prf", "pedersen"]),
       st.sampled_from([1, 2, 7]))
def test_lanes_match_reference_on_generated_circuits(tree, p, scheme_name, reps):
    body, n_gates = render(well_formed(tree, itertools.count(1)))
    try:
        c = parse_circuit(f"field {p}\ntopology 4 4 {n_gates}\n{body}\n")
    except MithError:  # an input leaf alone, or a secret smul scalar
        assume(False)
    check_against_reference(c, scheme_name, reps, seed=n_gates)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_program_layers_schedule_every_exchange_once(name):
    """Each multiplication is in one layer with its post-order exchange
    index, ascending within the layer, and reads only the inputs, the
    constants and what earlier layers wrote; a layer's ADD and SMUL ops
    read nothing a later layer writes."""
    c = CIRCUITS[name]()
    prog = mpc.program(c)
    ts = [t for layer_ts, _, _ in prog.layers for t in layer_ts]
    assert sorted(ts) == list(range(prog.n_mul)) == list(range(sum(messaging_flags(c))))
    assert all(list(layer_ts) == sorted(set(layer_ts)) for layer_ts, _, _ in prog.layers)
    dsts = {dst for _, muls, ops in prog.layers
            for dst in (*[m[0] for m in muls], *[op[1] for op in ops])}
    written = set(range(len(prog.init))) - dsts  # the inputs and the constants
    for layer_ts, muls, ops in prog.layers:
        assert len(layer_ts) == len(muls)
        assert all(a in written and b in written for _, a, b in muls)
        written |= {dst for dst, _, _ in muls}
        for code, dst, a, b in ops:
            assert b in written and (code == mpc.SMUL or a in written)
            written.add(dst)
    assert written == set(range(len(prog.init)))


def test_program_layer_sizes():
    """depth-9's 24 multiplications fall in 8 layers; the interleaved
    circuit runs exchanges 0 and 2 before exchange 1."""
    layers = mpc.program(CIRCUITS["depth-9"]()).layers
    assert [len(ts) for ts, _, _ in layers if ts] == [8, 6, 4, 2, 1, 1, 1, 1]
    layers = mpc.program(CIRCUITS["interleaved-depths"]()).layers
    assert [ts for ts, _, _ in layers if ts] == [(0, 2), (1,)]


@pytest.mark.parametrize("name, calls", [("depth-9", 9), ("interleaved-depths", 3),
                                         ("chain-200", 201), ("bench_a", 2)])
def test_one_exchange_per_layer(monkeypatch, name, calls):
    """The prover's and the verifier's runs each call their exchange once
    per multiplicative layer and once for the refresh, with the layer's
    exchange indices and one column per exchange, lanes long."""
    c = CIRCUITS[name]()
    prog = mpc.program(c)
    want = [ts for ts, _, _ in prog.layers if ts] + [(prog.n_mul,)]
    seen = []
    interpret = mpc._interpret

    def counting(prog, inputs, scalars, n, exchange):
        got = []

        def counted(d, ts):
            got.append(ts)
            assert len(d) == len(ts) * n
            return exchange(d, ts)

        own = interpret(prog, inputs, scalars, n, counted)
        seen.append(got)
        return own

    monkeypatch.setattr(mpc, "_interpret", counting)
    s, w = random_instance(random.Random(1), c)
    assert pr.verify_repeated(s, pr.prove_repeated(w, s, 3, RandomSource(1)))
    assert seen == [want, want] and len(want) == calls


# SHA-256 of the ten simulated view pairs, one per challenge pair in
# order, on random_instance(random.Random(5), c) with share_sim's draws
# and mpc_simulate's from one RandomSource(b"simulator-kat"): computed
# when each multiplication still called its own exchange, in post-order,
# so the simulator's draw order per exchange is pinned.
SIMULATOR_DIGESTS = {
    "interleaved-depths": "9769d8774a01c4e719a13aa65aca2bc19fdd0ea519c84d71f8b280a0316ac325",
    "depth-9": "d720f4686d387afcad57ececc11db4ad6e06a695a75867897f77e5a1de2cca84",
}


@pytest.mark.parametrize("name", sorted(SIMULATOR_DIGESTS))
def test_simulator_views_known_answer(name):
    c = CIRCUITS[name]()
    s, _ = random_instance(random.Random(5), c)
    rng, h = RandomSource(b"simulator-kat"), hashlib.sha256()
    for pair in PARTY_PAIRS:
        cs = [share_sim(rng, pair, c.modulus) for _ in range(c.topology.n_secret)]
        h.update(b"".join(mpc.mpc_simulate(c, s.public_inputs, pair, cs, s.target, rng)))
    assert h.hexdigest() == SIMULATOR_DIGESTS[name]
