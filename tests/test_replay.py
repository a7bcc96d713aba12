"""The batched replay of opened views against a per-view reference.

`reference_replay` recomputes one view's run on its own, with scalar
shares: each product reshared with the view's randomness, each
multiplication recombined from the column the view recorded.  Given the
views of many executions, parties and tampers at once, `out_messages`
must give every view the bytes the reference says its party sent to
each party, and None exactly for the entries that are no well-formed
view (such as a view's bytes without its `mpc.View`) or that carry
other public inputs than the statement's; the consistency and output
verdicts read from its replays must be the reference's.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from mith import mpc
from mith import protocol as pr
from mith.circuit import parse_circuit
from mith.commit import scheme_by_name
from mith.corpus import random_instance
from mith.errors import MithError
from mith.field import RandomSource
from mith.sss import PARTY_PAIRS, dot5, share5

from test_fuzz import TREES, render
from test_lanes import CIRCUITS, well_formed
from test_mpc import tamper_cases


def reference_well_formed(prog, x, v) -> bool:
    """v is a `mpc.View` of prog, each part as long as the layout says,
    every entry an int in [0, p), and its public inputs are x."""
    if not (isinstance(v, mpc.View) and v.prog is prog):
        return False
    if not (len(v.public_inputs) == prog.n_public and len(v.secret_shares) == prog.n_secret
            and len(v.randomness) == prog.n_rand and len(v.messages) == prog.n_mul
            and all(len(col) == 5 for col in v.messages)
            and len(v.zin) == 5 and len(v.bcast) == 5):
        return False
    entries = [*v.public_inputs, *v.secret_shares, *v.randomness,
               *[y for col in v.messages for y in col], *v.zin, *v.bcast]
    return (all(type(y) is int and 0 <= y < prog.p for y in entries)
            and tuple(v.public_inputs) == tuple(e.value for e in x))


def reference_replay(prog, x, v):
    """v's root share, outgoing resharing rows (post-order) and refresh
    row, run on the public inputs x."""
    p = prog.p
    rnd = v.randomness
    xs = tuple(e.value for e in x)
    scal = prog.scalars(xs)
    vals = list(prog.init)
    vals[:prog.n_in] = (*xs, *v.secret_shares)
    rows = []
    for code, dst, a, b, r in prog.ops:
        if code == mpc.ADD:
            vals[dst] = (vals[a] + vals[b]) % p
        elif code == mpc.MUL:
            rows.append(share5(vals[a] * vals[b] % p, rnd[2 * r], rnd[2 * r + 1], p))
            vals[dst] = dot5(prog.lam, v.messages[len(rows) - 1], p)
        else:
            vals[dst] = scal[a] * vals[b] % p
    return vals[prog.root], rows, share5(0, rnd[-2], rnd[-1], p)


def reference_sent(prog, x, v):
    """What v's party sent: rows, refresh row, refreshed broadcast share."""
    root, rows, zrow = reference_replay(prog, x, v)
    return rows, zrow, (root + sum(v.zin)) % prog.p


def reference_consistent(prog, x, vi, vj, i, j) -> bool:
    if not (reference_well_formed(prog, x, vi) and reference_well_formed(prog, x, vj)):
        return False
    sent = {i: reference_sent(prog, x, vi), j: reference_sent(prog, x, vj)}
    for v, a in ((vi, i), (vj, j)):
        for b in (i, j):  # what v (of party a) recorded from b
            rows, zrow, u = sent[b]
            if ([col[b - 1] for col in v.messages] != [row[a - 1] for row in rows]
                    or v.zin[b - 1] != zrow[a - 1] or v.bcast[b - 1] != u):
                return False
    return True


def reference_output(prog, x, pid, v):
    """The output of v's recorded broadcast with pid's own slot replaced
    by its recomputed share."""
    bcast = list(v.bcast)
    bcast[pid - 1] = reference_sent(prog, x, v)[2]
    return dot5(prog.lam, bcast, prog.p)


def check_replay(c, x, executions) -> int:
    """Replay every entry of executions (each five in party order) in one
    out_messages call and compare with the reference: None for each
    entry the reference finds malformed, for each other what the
    reference's party sent to each party, in the recipient's record
    order.  Where a pair is consistent, both views' recorded outputs are
    the reference's, which recomputes each view's own broadcast share.
    Returns the number of malformed entries."""
    prog = mpc.program(c)
    views = [v for ex in executions for v in ex]
    replays = mpc.out_messages(c, x, views)
    assert len(replays) == len(views)
    malformed = 0
    for v, sent in zip(views, replays):
        if not reference_well_formed(prog, x, v):
            assert sent is None
            malformed += 1
            continue
        rows, zrow, own = reference_sent(prog, x, v)
        assert sent == tuple(prog.cols.encode([row[a] for row in rows] + [zrow[a], own])
                             for a in range(5))
    for k, ex in enumerate(executions):
        sent = replays[5 * k:5 * k + 5]
        for i, j in PARTY_PAIRS:
            ok = mpc.consistent_views(c, ex[i - 1], ex[j - 1], i, j, sent[i - 1], sent[j - 1])
            assert ok == reference_consistent(prog, x, ex[i - 1], ex[j - 1], i, j)
            for pid in (i, j) if ok else ():
                out = mpc.local_output(c, ex[pid - 1]).value
                assert out == reference_output(prog, x, pid, ex[pid - 1])
    return malformed


def executions_of(c, reps, seed):
    """A statement's x and the five views of each of reps honest runs
    (decoded from their bytes, as a verifier holds them), followed by
    each run with the views of parties 2 and 4 as plain bytes, which are
    no views, each run with view 2's first public input changed, and
    every `tamper_cases` tuple of each run."""
    s, w = random_instance(random.Random(seed), c)
    states, _ = pr.commit_repetitions(w, s, reps, RandomSource(b"replay/%d" % seed),
                                      scheme_by_name("prf", c.modulus.p))
    honest = [[mpc.decode_view(c, bytes(v)) for v in st.views] for st in states]
    mixed = [[bytes(v) if pid % 2 == 0 else v for pid, v in enumerate(ex, 1)] for ex in honest]
    tampered = []
    if mpc.program(c).n_public:
        for ex in honest:
            pubs = ((ex[1].public_inputs[0] + 1) % c.modulus.p, *ex[1].public_inputs[1:])
            tampered.append([ex[0], mpc.make_view(c, ex[1], public_inputs=pubs), *ex[2:]])
    if mpc.program(c).n_mul:
        rnd = random.Random(seed)
        for st in states:
            tampered += tamper_cases(c, st, rnd)
    return s.public_inputs, honest + mixed + tampered


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_batched_replay_matches_per_view_reference(name):
    c = CIRCUITS[name]()
    x, executions = executions_of(c, 3, seed=11)
    assert check_replay(c, x, executions) >= 3 * 2


@settings(max_examples=60, deadline=None)
@given(TREES, st.sampled_from([11, 97, 101]), st.sampled_from([1, 2]))
def test_batched_replay_matches_reference_on_generated_circuits(tree, p, reps):
    body, n_gates = render(well_formed(tree, itertools.count(1)))
    try:
        c = parse_circuit(f"field {p}\ntopology 4 4 {n_gates}\n{body}\n")
    except MithError:  # an input leaf alone, or a secret smul scalar
        assume(False)
    x, executions = executions_of(c, reps, seed=n_gates)
    assert check_replay(c, x, executions) >= reps * 2
