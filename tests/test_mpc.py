"""5-party evaluation engine: correctness, consistency both ways,
view replay, encoding, and the exactness of the 2-privacy simulator."""

import random
import sys
import threading
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from mith import mpc
from mith.circuit import (
    Statement, Witness, eval_plain, parse_circuit,
)
from mith.corpus import (
    bench_circuit_a, golden_corpus, identity_circuit, random_circuit, random_instance,
    square_plus_one_circuit,
)
from mith.errors import MithError, ProofError
from mith.field import FieldElement, Modulus, RandomSource, preset_modulus
from mith.sss import PARTY_IDS, PARTY_PAIRS, random_share_randomness, share

from test_golden import SMUL_OVER_MUL
from test_sss import Sharing, reconstruct

ONE_MUL = "field 11\ntopology 0 1 1\n(mul 1 (sinput 0) (sinput 0))"


def share1(m, v, a1, a2):
    """The Sharing of v on v + a1*x + a2*x^2: one lane of sss.share."""
    v = v.value if isinstance(v, FieldElement) else v
    return Sharing(tuple(m.element(col[0]) for col in share(v, (a1,), (a2,), m.p)))


def drawn(parties):
    """Five per-party randomness vectors ((a1, a2) per randomness slot) in
    the drawn order of `random_gate_randomness`: slot by slot, parties
    1..5 within a slot."""
    return [parties[q][2 * r + t] for r in range(len(parties[0]) // 2)
            for q in range(5) for t in (0, 1)]


def fields(c, v):
    """The fields of c's view v (`mpc.view_fields`), as attributes."""
    return SimpleNamespace(**mpc.view_fields(c, v))


def repetition_views(rows, n, k=0):
    """Repetition k's five views, in party order, among the rows of n
    repetitions (`mpc.run_protocol`: row q*n + k is party q+1's)."""
    L = len(rows) // (5 * n)
    return [bytes(rows[r * L:(r + 1) * L]) for r in range(k, 5 * n, n)]


class Run(NamedTuple):
    """One repetition of run_protocol: its five views in party order,
    their fields and the opened output."""

    views: list
    fields: list
    output: FieldElement


def one_run(s, sharings, rand) -> Run:
    """run_protocol for one repetition: sharings holds each secret wire's
    five party columns of one share, rand the drawn randomness.  The
    output is the broadcast shares the run recorded, recombined."""
    views = repetition_views(mpc.run_protocol(s, sharings, rand), 1)
    fs = [fields(s.circuit, v) for v in views]
    m = s.circuit.modulus
    lam = mpc.program(s.circuit).lam
    return Run(views, fs, FieldElement(sum(x * y for x, y in zip(lam, fs[0].bcast)) % m.p, m))


def rerun_from_views(c, x, views):
    """Re-execute from the inputs and randomness recorded in five views:
    the honest execution they claim to come from, if any.  Compare its
    views against the originals to settle global consistency."""
    if len(views) != 5 or not all(mpc.valid_view(c, views)):
        return None
    fs = [fields(c, v) for v in views]
    sharings = [tuple((f.secret_shares[k],) for f in fs) for k in range(c.topology.n_secret)]
    return one_run(Statement(c, tuple(x), c.modulus.zero()), sharings,
                   drawn([f.randomness for f in fs]))


def run1(s, sharings, rand):
    """run_protocol on one lane: the given Sharings and drawn randomness."""
    return one_run(s, [tuple((x,) for x in sh.values()) for sh in sharings], rand)


def honest_run(s, w, rng):
    m = s.circuit.modulus
    sharings = [rand_sharing(m, rng, v) for v in w.secret_inputs]
    rand = mpc.random_gate_randomness(rng, s.circuit)
    return run1(s, sharings, rand), sharings, rand


def sharing_degree(ys, p: int) -> int:
    """Degree of the interpolating polynomial through the 5 share points."""
    # Fit through points 1..k+1 for ascending k; first fit that predicts
    # the remaining points gives the degree.
    for deg in range(5):
        pts = [(x, ys[x - 1]) for x in range(1, deg + 2)]
        ok = True
        for x in range(deg + 2, 6):
            acc = 0
            for k, (xk, yk) in enumerate(pts):
                num, den = 1, 1
                for l, (xl, _) in enumerate(pts):
                    if l != k:
                        num = num * (x - xl) % p
                        den = den * (xk - xl) % p
                acc = (acc + yk * num * pow(den, -1, p)) % p
            if acc != ys[x - 1]:
                ok = False
                break
        if ok:
            return deg
    return 4


# ---------------------------------------------------------------------------
# run_protocol


def test_identity_circuit_outputs_witness(m11, rng):
    c = identity_circuit(m11)
    for v in range(11):
        s = Statement(c, (), m11.element(v))
        res, _, _ = honest_run(s, Witness((m11.element(v),)), rng)
        assert res.output.value == v


@pytest.mark.parametrize("p", [11, 101])
def test_run_protocol_matches_eval_plain(p, rng):
    m = Modulus(p)
    rnd = random.Random(p)
    for _ in range(60):
        c = random_circuit(rnd, m, n_public=rnd.randrange(2),
                           n_secret=rnd.randrange(1, 3),
                           max_depth=rnd.randrange(1, 6))
        s, w = random_instance(rnd, c)
        res, _, _ = honest_run(s, w, rng)
        want = eval_plain(s, w)
        assert res.output == want


def test_run_protocol_missing_randomness(m11, rng):
    c = parse_circuit(ONE_MUL)
    s = Statement(c, (), m11.element(9))
    sharings = [share1(m11, 3, 1, 2)]
    bad = drawn(((0, 0),) * 5)  # refresh pair only, no mul pair
    with pytest.raises(MithError, match="missing randomness"):
        run1(s, sharings, bad)


def test_run_protocol_lane_count_mismatch(m11, rng):
    """Every input column needs one share per lane (per repetition's draws)."""
    c = parse_circuit(ONE_MUL)
    s = Statement(c, (), m11.element(9))
    one_lane = [tuple((x,) for x in share1(m11, 3, 1, 2).values())]
    rands = mpc.random_gate_randomness(rng, c, 2)
    with pytest.raises(MithError, match="one share per lane"):
        mpc.run_protocol(s, one_lane, rands)
    with pytest.raises(MithError, match="one share per lane"):
        mpc.run_protocol(s, [share(3, (), (), 11)], [])


def test_honest_views_all_pairs_consistent(m11, rng):
    for s, w in golden_corpus(m11, 6):
        res, _, _ = honest_run(s, w, rng)
        assert all_pairs_consistent(s.circuit, s.public_inputs, res.views)


# ---------------------------------------------------------------------------
# Gate arithmetic, read back from run_protocol's views


ADD = "field 11\ntopology 0 2 1\n(add 1 (sinput 0) (sinput 1))"
ADD_CONST = "field 11\ntopology 0 1 2\n(add 2 (sinput 0) (const 1 6))"
SMUL = "field 11\ntopology 1 1 1\n(smul 1 (pinput 0) (sinput 0))"
MUL = "field 11\ntopology 0 2 1\n(mul 1 (sinput 0) (sinput 1))"


def run_with(s, sharings, rng, pairs=None):
    """run_protocol on the given input sharings; pairs, if given, is each
    party's (a1, a2) per messaging multiplication and then the refresh."""
    rand = (drawn([sum(row, ()) for row in pairs]) if pairs
            else mpc.random_gate_randomness(rng, s.circuit))
    return run1(s, sharings, rand)


def root_before_refresh(res, p):
    """The root sharing as the parties held it before the refresh: each
    broadcast share minus the zero shares that party received."""
    return tuple((f.bcast[q] - sum(f.zin)) % p for q, f in enumerate(res.fields))


def mul_outputs(res, m):
    """Per messaging multiplication, the sharing the parties recombined
    from the resharing columns their views record."""
    return [tuple(sum(l * y for l, y in zip(m.recon_weights, f.messages[k])) % m.p
                  for f in res.fields)
            for k in range(len(res.fields[0].messages))]


def opened(m, ys):
    """reconstruct on a tuple of share values."""
    return reconstruct(Sharing(tuple(map(m.element, ys))))


def rand_sharing(m, rng, v=None):
    v = rng.field_element(m) if v is None else v
    return share1(m, v, *random_share_randomness(rng, m.p, 1))


def test_gate_add_linearity(m11, rng):
    s = Statement(parse_circuit(ADD), (), m11.zero())
    for _ in range(100):
        sa, sb = rand_sharing(m11, rng), rand_sharing(m11, rng)
        res = run_with(s, [sa, sb], rng)
        assert root_before_refresh(res, 11) == tuple(
            (x + y) % 11 for x, y in zip(sa.values(), sb.values()))
        assert res.output == reconstruct(sa) + reconstruct(sb)


def test_gate_add_zero_identity(m11, rng):
    s = Statement(parse_circuit(ADD), (), m11.zero())
    x = rand_sharing(m11, rng)
    res = run_with(s, [x, share1(m11, 0, 0, 0)], rng)
    assert root_before_refresh(res, 11) == x.values()


def test_gate_const(m11, rng):
    """A constant enters as the same share for every party, which
    reconstructs to the constant."""
    s = Statement(parse_circuit(ADD_CONST), (), m11.zero())
    x = rand_sharing(m11, rng)
    res = run_with(s, [x], rng)
    const = tuple((r - v) % 11 for r, v in zip(root_before_refresh(res, 11), x.values()))
    assert const == (6,) * 5
    assert opened(m11, const).value == 6


def test_gate_smul_example(m11, rng):
    s = Statement(parse_circuit(SMUL), (m11.element(4),), m11.zero())
    sh = rand_sharing(m11, rng, m11.element(3))
    res = run_with(s, [sh], rng)
    assert root_before_refresh(res, 11) == tuple(4 * v % 11 for v in sh.values())
    assert res.output.value == 1  # 12 mod 11


def test_gate_mul_reconstructs_product(m11, rng):
    s = Statement(parse_circuit(MUL), (), m11.zero())
    for _ in range(1000):
        a, b = rng.field_element(m11), rng.field_element(m11)
        res = run_with(s, [rand_sharing(m11, rng, a), rand_sharing(m11, rng, b)], rng)
        (prod,) = mul_outputs(res, m11)
        assert opened(m11, prod) == a * b
        assert res.output == a * b


def test_recombination_weights_partition_of_unity():
    for p in (11, 97, 101):
        m = Modulus(p)
        assert sum(m.recon_weights) % p == 1


def test_gate_mul_output_degree_at_most_two(m11, rng):
    s = Statement(parse_circuit(MUL), (), m11.zero())
    for _ in range(100):
        res = run_with(s, [rand_sharing(m11, rng), rand_sharing(m11, rng)], rng)
        (prod,) = mul_outputs(res, m11)
        assert sharing_degree(prod, 11) <= 2


def test_gate_mul_messages_are_rows(m11, rng):
    """Party q+1's view records, from party k+1, h_k evaluated at q+1,
    with h_k(0) party k+1's product share."""
    s = Statement(parse_circuit(MUL), (), m11.zero())
    sa = share1(m11, 2, 1, 0)
    sb = share1(m11, 3, 0, 1)
    rs = [(k, k + 1) for k in range(5)]
    res = run_with(s, [sa, sb], rng, [(r, (0, 0)) for r in rs])
    for k in range(5):
        d = (sa.values()[k] * sb.values()[k]) % 11
        a1, a2 = rs[k]
        for q in range(5):
            x = q + 1
            assert res.fields[q].messages[0][k] == (d + a1 * x + a2 * x * x) % 11


def test_intermediate_sharings_degree_at_most_two(m11, rng):
    """On random circuits every messaging multiplication's output, the
    root before the refresh and the opened root have degree <= 2, and
    the opened root is the plain evaluation."""
    rnd = random.Random(77)
    for _ in range(20):
        c = random_circuit(rnd, m11, n_public=1, n_secret=2, max_depth=4)
        s, w = random_instance(rnd, c)
        res, _, _ = honest_run(s, w, rng)
        bcast = res.fields[0].bcast
        for sh in mul_outputs(res, m11) + [root_before_refresh(res, 11), bcast]:
            assert sharing_degree(sh, 11) <= 2
        assert opened(m11, bcast) == eval_plain(s, w)


# ---------------------------------------------------------------------------
# Refresh


def test_refresh_preserves_secret(m11, rng):
    s = Statement(identity_circuit(m11), (), m11.zero())
    for _ in range(200):
        secret = rng.field_element(m11)
        res = run_with(s, [rand_sharing(m11, rng, secret)], rng)
        assert all(f.bcast == res.fields[0].bcast for f in res.fields)
        assert opened(m11, res.fields[0].bcast) == secret
        assert res.output == secret


def test_refresh_zero_randomness_is_identity(m11, rng):
    s = Statement(identity_circuit(m11), (), m11.zero())
    sh = rand_sharing(m11, rng)
    res = run_with(s, [sh], rng, [((0, 0),)] * 5)
    assert res.fields[0].bcast == sh.values()


def test_refresh_marginal_uniform_over_consistent_sharings(m11, rng):
    """Exhaustive on F_11: as the aggregate zero-sharing polynomial runs
    over F^2 the refreshed sharing hits every degree<=2 sharing of the
    secret exactly once, and the aggregate of five uniform coefficient
    pairs is itself uniform (shift bijection)."""
    s = Statement(identity_circuit(m11), (), m11.zero())
    secret = m11.element(4)
    base = share1(m11, secret, 2, 9)
    seen = set()
    for b1 in range(11):
        for b2 in range(11):
            res = run_with(s, [base], rng, [((b1, b2),)] + [((0, 0),)] * 4)
            assert res.output == secret
            seen.add(res.fields[0].bcast)
    all_sharings = {
        share1(m11, secret, a1, a2).values()
        for a1 in range(11) for a2 in range(11)
    }
    assert seen == all_sharings
    # Sum of iid uniform pairs stays uniform: adding any fixed offset
    # permutes F^2.
    for t1, t2 in ((3, 7), (10, 1)):
        shifted = {((b1 + t1) % 11, (b2 + t2) % 11)
                   for b1 in range(11) for b2 in range(11)}
        assert shifted == {(a, b) for a in range(11) for b in range(11)}


# ---------------------------------------------------------------------------
# out_messages / local_output / consistency


def rows_of(views) -> bytes:
    """The views' encodings joined, one row each, as the verifier joins
    the views a proof opens."""
    return b"".join(map(bytes, views))


def sent_by(c, x, views):
    """out_messages over views, cut per view: (ok, and per view the five
    byte strings of what its party sent parties 1..5, each slot by slot
    in the recipient's record order)."""
    ok, to = mpc.out_messages(c, x, rows_of(views))
    n, w = len(views), mpc.program(c).width
    return ok, [tuple(b"".join(t[m + k * w:m + (k + 1) * w] for m in range(0, len(t), n * w))
                      for t in to) for k in range(n)]


def pairs_consistent(c, x, pairs):
    """The verifier's consistency verdict for each (vi, vj, i, j) in
    pairs, all replayed in one out_messages call: both views carry x and
    in-range elements, and consistent_views accepts the pair."""
    pairs = [(vi, vj, i, j) if i < j else (vj, vi, j, i) for vi, vj, i, j in pairs]
    rows = rows_of([v for vi, vj, _, _ in pairs for v in (vi, vj)])
    ok, to = mpc.out_messages(c, x, rows)
    chs = bytes([PARTY_PAIRS.index((i, j)) for _, _, i, j in pairs])
    return [a and b and d for a, b, d in zip(ok[::2], ok[1::2], mpc.consistent_views(c, rows, chs, to))]


def test_out_messages_cross_check_honest(m11, rng):
    """The row a party's view implies equals what every other view
    recorded from it, for all ordered pairs."""
    for s, w in golden_corpus(m11, 5):
        c = s.circuit
        res, _, _ = honest_run(s, w, rng)
        ok, replays = sent_by(c, s.public_inputs, res.views)
        assert ok == [True] * 5
        sent = dict(zip(PARTY_IDS, replays))
        for i in PARTY_IDS:
            v = res.fields[i - 1]
            for j in PARTY_IDS:
                if i == j:
                    continue
                assert (list(mpc.program(c).cols.decode(sent[j][i - 1]))
                        == [col[j - 1] for col in v.messages] + [v.zin[j - 1], v.bcast[j - 1]])


def test_out_messages_message_free_circuit(m11, rng):
    """Without multiplication gates only the open-stage messages exist."""
    c = parse_circuit("field 11\ntopology 0 1 2\n"
                      "(add 2 (sinput 0) (const 1 5))")
    s = Statement(c, (), m11.element(0))
    res, _, _ = honest_run(s, Witness((m11.element(3),)), rng)
    _, to = mpc.out_messages(c, (), rows_of(res.views[:1]))
    # Each party gets the zero share and the broadcast share only.
    assert [len(b) for b in to] == [2] * 5


def test_out_messages_deterministic(m11, rng):
    c = square_plus_one_circuit(m11)
    s = Statement(c, (), m11.element(10))
    res, _, _ = honest_run(s, Witness((m11.element(3),)), rng)
    a = mpc.out_messages(c, (), rows_of([res.views[1]]))
    b = mpc.out_messages(c, (), rows_of([res.views[1]]))
    assert a == b


def test_out_messages_invalid_shape_returns_none(m11, rng):
    """Views of the wrong shape cannot be built; rows that are not whole
    views are refused; a row with an element out of range is marked and
    leaves the replay of the others unchanged."""
    c = square_plus_one_circuit(m11)
    s = Statement(c, (), m11.element(10))
    res, _, _ = honest_run(s, Witness((m11.element(3),)), rng)
    v = res.views[0]
    f = res.fields[0]
    other = honest_run(Statement(identity_circuit(m11), (), m11.element(3)),
                       Witness((m11.element(3),)), rng)[0].views[0]
    assert mpc.make_view(c, **mpc.view_fields(c, v)) == v
    # A view of the wrong shape, with an entry out of range or of the
    # wrong type, or with a field neither given nor copied from a view of
    # c cannot be built.
    for base, given in ((v, {"messages": ()}), (v, {"randomness": f.randomness[-2:]}),
                        (v, {"messages": (f.messages[0][:4],)}), (v, {"zin": (11,) + f.zin[1:]}),
                        (v, {"bcast": (float(f.bcast[0]),) + f.bcast[1:]}),
                        (v, {"zin": f.zin, "zout": f.zin}), (None, {"bcast": f.bcast}),
                        (other, {"bcast": f.bcast})):
        with pytest.raises(MithError):
            mpc.make_view(c, base, **given)
    assert len(other) % len(v)
    for rows in (b"", bytes(v)[:-1], rows_of([other, v]), rows_of([v]) + b"\x00"):
        with pytest.raises(MithError):
            mpc.out_messages(c, (), rows)
    ok, (sent,) = sent_by(c, (), [v])
    assert ok == [True]
    malformed = [bytes([11]) + bytes(v)[1:], bytes(v)[:-1] + bytes([255])]
    ok, replays = sent_by(c, (), malformed + [v])
    assert ok == [False, False, True] and replays[2] == sent


@pytest.mark.parametrize("p", [11, 2**256 - 189])
def test_make_view_and_valid_view_check_the_bytes(p, rng):
    """A view is bytes of the circuit's view length whose every element
    is below p.  A base or an entry of the wrong length, or with an
    element equal to p, first or last, makes make_view raise MithError
    and valid_view return False, which it also returns for anything that
    is not bytes."""
    m = Modulus(p)
    c = square_plus_one_circuit(m)
    v = honest_run(Statement(c, (), m.element(10)), Witness((m.element(3),)), rng)[0].views[0]
    w = mpc.program(c).width
    top = p.to_bytes(w, "big")
    bad = [b"", v[:-1], v + b"\0", v[:-w], top + v[w:], v[:-w] + top, bytearray(top + v[w:])]
    assert mpc.valid_view(c, [v, bytearray(v)]) == [True, True]
    assert mpc.valid_view(c, bad) == [False] * len(bad)
    assert mpc.valid_view(c, [None, 0, v.hex(), list(v), memoryview(v)]) == [False] * 5
    bcast = mpc.view_fields(c, v)["bcast"]
    assert mpc.make_view(c, v, bcast=bcast) == mpc.make_view(c, bytearray(v), bcast=bcast) == v
    for base in bad:
        with pytest.raises(MithError):
            mpc.make_view(c, base, bcast=bcast)
        with pytest.raises(MithError):
            mpc.make_view(c, base, **mpc.view_fields(c, v))


def test_local_output_matches_protocol_outputs(m11, rng):
    for s, w in golden_corpus(m11, 6):
        res, _, _ = honest_run(s, w, rng)
        rows = rows_of(res.views)
        assert mpc.local_output(s.circuit, rows, res.output) == [True] * 5
        assert mpc.local_output(s.circuit, rows, res.output + m11.one()) == [False] * 5


def test_local_output_identity_circuit(m11, rng):
    c = identity_circuit(m11)
    s = Statement(c, (), m11.element(7))
    res, _, _ = honest_run(s, Witness((m11.element(7),)), rng)
    assert mpc.local_output(c, rows_of(res.views[2:3]), m11.element(7)) == [True]


def test_local_output_sensitive_to_broadcast_tampering(m11, rng):
    c = square_plus_one_circuit(m11)
    s = Statement(c, (), m11.element(10))
    res, _, _ = honest_run(s, Witness((m11.element(3),)), rng)
    v = res.views[0]
    for slot in (1, 4):
        bc = list(res.fields[0].bcast)
        bc[slot] = (bc[slot] + 1) % 11
        bad = mpc.make_view(c, v, bcast=bc)
        assert mpc.local_output(c, rows_of([v, bad]), res.output) == [True, False]


def test_consistent_views_rejects_same_party(m11, rng):
    """A challenge byte names a pair of distinct parties; one that names
    none is refused."""
    c = identity_circuit(m11)
    s = Statement(c, (), m11.element(1))
    res, _, _ = honest_run(s, Witness((m11.element(1),)), rng)
    assert (1, 1) not in PARTY_PAIRS
    rows = rows_of(res.views[:2])
    _, to = mpc.out_messages(c, s.public_inputs, rows)
    assert mpc.consistent_views(c, rows, bytes([0]), to) == [True]
    for bad in (bytes([10]), bytes([0, 0])):
        with pytest.raises(MithError):
            mpc.consistent_views(c, rows, bad, to)


def test_consistent_views_public_input_mismatch(rng):
    m = Modulus(11)
    c = parse_circuit("field 11\ntopology 1 1 3\n"
                      "(add 2 (pinput 0) (smul 1 (const 3 1) (sinput 0)))")
    s = Statement(c, (m.element(5),), m.element(8))
    res, _, _ = honest_run(s, Witness((m.element(3),)), rng)
    other_x = (m.element(6),)
    ok, _ = mpc.out_messages(c, other_x, rows_of(res.views[:2]))
    assert ok == [False, False]
    assert pairs_consistent(c, other_x, [(*res.views[:2], 1, 2)]) == [False]
    assert pairs_consistent(c, s.public_inputs, [(*res.views[:2], 1, 2)]) == [True]


@pytest.mark.parametrize("p", [97, 131, 2**256 - 189])
def test_out_messages_view_with_other_public_inputs(p, rng):
    """A view that carries other public inputs than the statement's is
    marked, and the other views of its batch replay to the bytes they
    replay to without it (the smul scalar is a mul inside the scalar
    subtree of pinput 0)."""
    m = Modulus(p)
    c = parse_circuit(f"field {p}\ntopology 1 1 4\n"
                      "(add 4 (smul 2 (mul 1 (pinput 0) (pinput 0)) (sinput 0)) (const 3 5))")
    views = {}
    for x in (2, 3):
        s = Statement(c, (m.element(x),), m.zero())
        res, _, _ = honest_run(s, Witness((m.element(7),)), rng)
        views[x] = [mpc.decode_view(c, bytes(v)) for v in res.views]
    x = (m.element(3),)
    ok, alone = sent_by(c, x, views[3])
    assert ok == [True] * 5 and all_pairs_consistent(c, x, views[3])
    batch = views[3][:2] + [views[2][2]] + views[3][2:]
    ok, sent = sent_by(c, x, batch)
    assert ok == [True, True, False, True, True, True]
    assert sent[:2] + sent[3:] == alone


def bump(v, m):
    return (v + 1) % m.p


def flip_mul_message(c, view, slot):
    messages = fields(c, view).messages
    col = list(messages[0])  # square_plus_one has one multiplication
    col[slot] = bump(col[slot], c.modulus)
    return mpc.make_view(c, view, messages=(tuple(col),) + messages[1:])


def test_flipped_message_breaks_touched_pairs_only(m11, rng):
    """Flipping what view 1 recorded from party 4 breaks the (1,4) check
    directly, and through party 1's changed downstream recomputation the
    other pairs involving 1; pairs without view 1 stay consistent."""
    c = square_plus_one_circuit(m11)
    s = Statement(c, (), m11.element(10))
    res, _, _ = honest_run(s, Witness((m11.element(3),)), rng)
    bad = flip_mul_message(c, res.views[0], slot=3)
    views = [bad] + list(res.views[1:])
    assert pairs_consistent(c, s.public_inputs, [(views[i - 1], views[j - 1], i, j)
                                                 for i, j in PARTY_PAIRS]) == [
        1 not in pair for pair in PARTY_PAIRS]


def test_own_slot_tampering_detected(m11, rng):
    """A view whose own recorded slot disagrees with its own recomputation
    is rejected by every pair that includes it."""
    c = square_plus_one_circuit(m11)
    s = Statement(c, (), m11.element(10))
    res, _, _ = honest_run(s, Witness((m11.element(3),)), rng)
    bad = flip_mul_message(c, res.views[2], slot=2)  # view 3, own slot
    assert not any(pairs_consistent(c, s.public_inputs, [(bad, res.views[j - 1], 3, j)
                                                         for j in PARTY_IDS if j != 3]))


# ---------------------------------------------------------------------------
# Global vs pairwise consistency


def all_pairs_consistent(c, x, views):
    return all(pairs_consistent(c, x, [(views[i - 1], views[j - 1], i, j) for i, j in PARTY_PAIRS]))


def test_rerun_reproduces_honest_views(m11, rng):
    for s, w in golden_corpus(m11, 6):
        res, _, _ = honest_run(s, w, rng)
        redo = rerun_from_views(s.circuit, s.public_inputs, res.views)
        assert redo is not None
        assert redo.views == res.views


def tamper_cases(c, views, rnd):
    """A set of single-coordinate tampers over the five views of a run
    of c."""
    m = c.modulus
    views = list(views)
    cases = []
    # Message flip.
    for slot in range(5):
        v = flip_mul_message(c, views[0], slot)
        cases.append([v] + views[1:])
    # Randomness flip: a1 of the refresh pair.
    v = views[1]
    rv = list(fields(c, v).randomness)
    rv[-2] = bump(rv[-2], m)
    cases.append(views[:1]
                 + [mpc.make_view(c, v, randomness=rv)]
                 + views[2:])
    # Input share flip: the first share, the others kept.
    v = views[2]
    sh = fields(c, v).secret_shares
    cases.append(views[:2]
                 + [mpc.make_view(c, v, secret_shares=(bump(sh[0], m), *sh[1:]))]
                 + views[3:])
    # zin flip.
    v = views[3]
    zin = list(fields(c, v).zin)
    k = rnd.randrange(5)
    zin[k] = bump(zin[k], m)
    cases.append(views[:3]
                 + [mpc.make_view(c, v, zin=zin)]
                 + views[4:])
    # Broadcast flip.
    v = views[4]
    bc = list(fields(c, v).bcast)
    k = rnd.randrange(5)
    bc[k] = bump(bc[k], m)
    cases.append(views[:4]
                 + [mpc.make_view(c, v, bcast=bc)])
    return cases


def test_global_consistency_equivalence_on_tampered_corpus(m11, rng):
    """Pairwise consistency everywhere holds iff re-execution from the
    extracted inputs and randomness reproduces the tuple exactly."""
    rnd = random.Random(123)
    c = square_plus_one_circuit(m11)
    s = Statement(c, (), m11.element(10))
    checked = 0
    while checked < 100:
        res, _, _ = honest_run(s, Witness((m11.element(rnd.randrange(11)),)), rng)
        for views in tamper_cases(c, res.views, rnd):
            consistent = all_pairs_consistent(c, s.public_inputs, views)
            redo = rerun_from_views(c, s.public_inputs, views)
            reproduced = redo is not None and list(redo.views) == list(views)
            # Lemma direction equality, checked constructively.
            assert consistent == reproduced
            # Every tamper in this corpus is expected to break some pair.
            assert not consistent
            checked += 1


# ---------------------------------------------------------------------------
# Simulator


@pytest.mark.parametrize("field", ["F11", "p256"])
def test_simulator_output_checks(field, rng):
    """Simulated pairs are consistent and open the target, over byte lanes
    (F11) and int lanes (p256), on a corpus that includes a circuit with a
    public input and an smul (`SMUL_OVER_MUL`)."""
    from mith.sss import share_sim
    m = Modulus(11) if field == "F11" else preset_modulus("p256")
    smul = parse_circuit(SMUL_OVER_MUL.replace("field 101", f"field {m.p}"))
    cases = golden_corpus(m, 6) + [random_instance(random.Random(4), smul)]
    for s, w in cases:
        c = s.circuit
        target = s.target
        for corrupt in ((1, 2), (2, 5), (3, 4)):
            cs = [share_sim(rng, corrupt, m)
                  for _ in range(c.topology.n_secret)]
            vi, vj = mpc.mpc_simulate(c, s.public_inputs, corrupt, cs, target, rng)
            assert pairs_consistent(c, s.public_inputs, [(vi, vj, *corrupt)]) == [True]
            assert mpc.local_output(c, rows_of([vi, vj]), target) == [True, True]


@pytest.mark.parametrize("corrupt, shares", [
    ((3, 3), [(1, 1)]), ((0, 3), [(1, 1)]), ((2, 6), [(1, 1)]), ((1, 2), []), ((1, 2), [(256, 1)]),
], ids=["equal", "party-0", "party-6", "no-shares", "share-above-p"])
def test_simulator_rejects_equal_corrupt_parties(m11, rng, corrupt, shares):
    """A corrupt pair must be two distinct parties of 1..5, and there must
    be a pair of shares below p per secret input."""
    c = identity_circuit(m11)
    pairs = [(FieldElement(a, m11), FieldElement(b, m11)) for a, b in shares]
    with pytest.raises(MithError):
        mpc.mpc_simulate(c, (), corrupt, pairs, m11.one(), rng)


class ScriptedRng:
    """RandomSource stand-in that replays a fixed list of draws."""

    def __init__(self, values):
        self.values = list(values)

    def randbelow(self, bound):
        v = self.values.pop(0)
        assert 0 <= v < bound
        return v

    def randbelows(self, bound, count):
        return [self.randbelow(bound) for _ in range(count)]

    def field_element(self, modulus):
        return modulus.element(self.randbelow(modulus.p))


def poly2_through(m, pts):
    """Coefficients (c0, c1, c2) of the degree<=2 polynomial through three
    points (x0 may be 0)."""
    p = m.p
    (x0, y0), (x1, y1), (x2, y2) = pts
    # Lagrange to coefficients via evaluation at 0, 1, 2 then solve.
    def ev(x):
        acc = 0
        for (xk, yk) in pts:
            num, den = 1, 1
            for (xl, _) in pts:
                if xl != xk:
                    num = num * (x - xl) % p
                    den = den * (xk - xl) % p
            acc = (acc + yk * num * pow(den, -1, p)) % p
        return acc
    c0 = ev(0)
    e1, e2 = ev(1), ev(2)
    # c0 + c1 + c2 = e1; c0 + 2c1 + 4c2 = e2
    c2 = (e2 - 2 * e1 + c0) * pow(2, -1, p) % p
    c1 = (e1 - c0 - c2) % p
    return c0, c1, c2


def real_execution_from_free_coords(c, s, w_val, free, m):
    """Build the full honest execution whose opened pair equals the given
    free coordinates, by solving for every hidden polynomial."""
    (i, j), wi, wj, own_b, own_c, hin, zin = free
    p = m.p
    # Input sharing through (0, w), (i, wi), (j, wj).
    c0, a1, a2 = poly2_through(m, ((0, w_val), (i, wi), (j, wj)))
    assert c0 == w_val
    sharing = share1(m, w_val, a1, a2)
    # Wire shares of every party at the mul gate inputs (sinput 0 squared).
    mul_rand = [None] * 5
    for q in (i, j):
        mul_rand[q - 1] = tuple(own_b[q])
    for k in PARTY_IDS:
        if k in (i, j):
            continue
        d_k = sharing[k].value * sharing[k].value % p
        _, b1, b2 = poly2_through(m, ((0, d_k), (i, hin[k][0]), (j, hin[k][1])))
        mul_rand[k - 1] = (b1, b2)
    refresh = [None] * 5
    for q in (i, j):
        refresh[q - 1] = tuple(own_c[q])
    for k in PARTY_IDS:
        if k in (i, j):
            continue
        _, z1, z2 = poly2_through(m, ((0, 0), (i, zin[k][0]), (j, zin[k][1])))
        refresh[k - 1] = (z1, z2)
    rand = drawn([b + z for b, z in zip(mul_rand, refresh)])
    return run1(s, [sharing], rand)


def simulator_draws(free, m=Modulus(11)):
    """The draws that make mpc_simulate realize the given free coordinates
    over m (ONE_MUL's field by default): the gate randomness of its run
    on dummy shares, in the drawn order of `random_gate_randomness`.  The
    corrupt parties' pairs are their own; each honest party shares 0, so
    its pairs are the degree-2 polynomials through (0, 0) and the two
    values it sends the corrupt pair, at the multiplication and at the
    refresh."""
    (i, j), wi, wj, own_b, own_c, hin, zin = free
    parties = []
    for k in PARTY_IDS:
        if k in (i, j):
            parties.append((*own_b[k], *own_c[k]))
        else:
            _, b1, b2 = poly2_through(m, ((0, 0), (i, hin[k][0]), (j, hin[k][1])))
            _, z1, z2 = poly2_through(m, ((0, 0), (i, zin[k][0]), (j, zin[k][1])))
            parties.append((b1, b2, z1, z2))
    return drawn(parties)


def make_free(rnd, pair, p):
    i, j = pair
    honest = [k for k in PARTY_IDS if k not in pair]
    return (
        pair,
        rnd.randrange(p), rnd.randrange(p),
        {q: (rnd.randrange(p), rnd.randrange(p)) for q in (i, j)},
        {q: (rnd.randrange(p), rnd.randrange(p)) for q in (i, j)},
        {k: (rnd.randrange(p), rnd.randrange(p)) for k in honest},
        {k: (rnd.randrange(p), rnd.randrange(p)) for k in honest},
    )


def test_simulator_exactness_coupling(m11):
    """Real and simulated opened pairs coincide pointwise under the same
    free coordinates, for every challenge pair.  Together with the
    uniformity of each free block (exhaustively checked elsewhere) this is
    distributional equality, not just statistical closeness."""
    c = parse_circuit(ONE_MUL)
    w_val = 3
    target = m11.element(w_val * w_val % 11)
    s = Statement(c, (), target)
    rnd = random.Random(31337)
    for pair in PARTY_PAIRS:
        for _ in range(40):
            free = make_free(rnd, pair, 11)
            res = real_execution_from_free_coords(c, s, w_val, free, m11)
            assert res.output == target
            vi_real = res.views[pair[0] - 1]
            vj_real = res.views[pair[1] - 1]
            corrupt_shares = [(m11.element(free[1]), m11.element(free[2]))]
            script = ScriptedRng(simulator_draws(free))
            vi_sim, vj_sim = mpc.mpc_simulate(
                c, (), pair, corrupt_shares, target, script)
            assert script.values == []
            assert vi_sim == vi_real
            assert vj_sim == vj_real


def test_simulator_exactness_exhaustive_subblock(m11):
    """Exhaustive 121-case sweep of one honest incoming block (all other
    coordinates fixed): the coupling holds on every point of the grid."""
    c = parse_circuit(ONE_MUL)
    w_val = 5
    target = m11.element(3)  # 25 mod 11
    s = Statement(c, (), target)
    pair = (2, 4)
    rnd = random.Random(9)
    base = make_free(rnd, pair, 11)
    for h_i in range(11):
        for h_j in range(11):
            free = list(base)
            hin = dict(base[5])
            hin[5] = (h_i, h_j)  # party 5's incoming block
            free[5] = hin
            free = tuple(free)
            res = real_execution_from_free_coords(c, s, w_val, free, m11)
            vi_real = res.views[pair[0] - 1]
            corrupt_shares = [(m11.element(free[1]), m11.element(free[2]))]
            vi_sim, vj_sim = mpc.mpc_simulate(
                c, (), pair, corrupt_shares, target,
                ScriptedRng(simulator_draws(free)))
            assert vi_sim == vi_real
            assert vj_sim == res.views[pair[1] - 1]


def test_simulator_needs_no_witness_signature():
    import inspect
    params = inspect.signature(mpc.mpc_simulate).parameters
    assert "witness" not in params and "w" not in params


# ---------------------------------------------------------------------------
# Canonical encoding


def test_view_encoding_round_trip(m11, rng):
    for s, w in golden_corpus(m11, 8):
        c = s.circuit
        res, _, _ = honest_run(s, w, rng)
        for v in res.views:
            blob = bytes(v)
            assert len(blob) == mpc.encoded_view_length(c)
            assert mpc.decode_view(c, blob) == v
            assert len(mpc.view_elements(c, v)) == mpc.view_element_count(c)


def test_view_encoding_strictness(m11, rng):
    c = square_plus_one_circuit(m11)
    s = Statement(c, (), m11.element(10))
    res, _, _ = honest_run(s, Witness((m11.element(3),)), rng)
    blob = bytes(res.views[0])
    with pytest.raises(ProofError):
        mpc.decode_view(c, blob + b"\x00")
    with pytest.raises(ProofError):
        mpc.decode_view(c, blob[:-1])
    # An element >= p is rejected, first or last.
    with pytest.raises(ProofError, match="exceeds modulus"):
        mpc.decode_view(c, b"\x0b" + blob[1:])
    bad = bytearray(blob)
    bad[-1] = 0xFF
    with pytest.raises(ProofError, match="exceeds modulus"):
        mpc.decode_view(c, bytes(bad))


def test_view_encoding_strictness_wide_field(rng):
    """Over p256 each element is 32 bytes; one equal to p is rejected."""
    m = preset_modulus("p256")
    c = bench_circuit_a(m)
    s, w = random_instance(random.Random(2), c)
    res, _, _ = honest_run(s, w, rng)
    blob = bytes(res.views[0])
    assert len(blob) == 32 * mpc.view_element_count(c)
    assert mpc.decode_view(c, blob) == res.views[0]
    for k in (0, len(blob) - 32):
        bad = blob[:k] + m.p.to_bytes(32, "big") + blob[k + 32:]
        with pytest.raises(ProofError, match="exceeds modulus"):
            mpc.decode_view(c, bad)


def test_view_encoding_is_bit_stable(m11, rng):
    """Commitments depend on these bytes, so pin the exact layout."""
    c = identity_circuit(m11)
    s = Statement(c, (), m11.element(7))
    sharings = [share1(m11, 7, 1, 2)]
    rand = drawn([(k, 0) for k in range(5)])
    res = run1(s, sharings, rand)
    blob = bytes(res.views[0])
    # Derived by hand: share poly 7+x+2x^2 gives party 1 the share 10;
    # party k+1 contributes the zero-poly k*x, so party 1 receives
    # (0,1,2,3,4) and the refreshed sharing is (9,4,3,6,2).  No public
    # inputs and no messaging multiplication, so nothing else is encoded.
    assert blob.hex() == (
        "0a"                      # the one secret share
        "00" "00"                 # refresh randomness (a1, a2) = (0, 0)
        "00" "01" "02" "03" "04"  # zin column of party 1
        "09" "04" "03" "06" "02"  # broadcast refreshed shares
    )


def test_concurrent_first_compiles_share_one_program(monkeypatch):
    """Two threads that compile one circuit at once get the same program,
    so both read one layout and one scalar cache."""
    c = parse_circuit("field 101\ntopology 0 1 1\n(mul 2 (sinput 0) (sinput 0))")
    both_compiled = threading.Barrier(2)
    compile_program = mpc.Program.__init__

    def slow_init(self, circuit):
        compile_program(self, circuit)
        both_compiled.wait(10)

    monkeypatch.setattr(mpc.Program, "__init__", slow_init)
    progs = []
    threads = [threading.Thread(target=lambda: progs.append(mpc.program(c))) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(20)
    assert len(progs) == 2 and progs[0] is progs[1] is mpc.program(c)


def test_shared_program_across_threads():
    """Threads evaluating one circuit with different public inputs share
    its compiled program and scalar cache; none may see another's
    scalars."""
    m = Modulus(101)
    c = parse_circuit("field 101\ntopology 1 1 4\n"
                      "(add 4 (smul 2 (add 1 (pinput 0) (pinput 0)) (sinput 0)) (const 3 5))")
    prog = mpc.program(c)
    errors = []

    def worker(x: int):
        rng = RandomSource(x)
        s = Statement(c, (m.element(x),), m.zero())
        w = Witness((m.element(7),))
        want = eval_plain(s, w)
        try:
            for _ in range(200):
                res, _, _ = honest_run(s, w, rng)
                # Party 1's replay sends it what its view recorded from itself.
                _, ((sent, *_),) = sent_by(c, s.public_inputs, res.views[:1])
                recorded = b"".join(res.views[0][j * prog.width:(j + 1) * prog.width]
                                    for j in prog.received[0])
                if (res.output != want
                        or mpc.local_output(c, rows_of(res.views[:1]), want) != [True]
                        or sent != recorded):
                    errors.append(x)
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(x,)) for x in range(1, 7)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []


@pytest.mark.parametrize("value", [12, 256])
def test_simulator_rejects_public_input_above_p(m11, rng, value):
    """A public input not below p raises where the Statement is built."""
    c = parse_circuit("field 11\ntopology 1 1 1\n(mul 1 (pinput 0) (sinput 0))\n")
    cs = [(m11.one(), m11.element(2))]
    with pytest.raises(MithError, match="not an element of F_11"):
        mpc.mpc_simulate(c, (FieldElement(value, m11),), (1, 2), cs, m11.one(), rng)
