"""The batched replay of opened views against a per-view reference.

`reference_replay` recomputes one view's run on its own, with scalar
shares, walking the circuit's gate list in post-order: the t-th
messaging multiplication's product reshared with the view's randomness
pair t and recombined from the column the view recorded at message
slot t, then the refresh with the last pair.  Given the
views of many executions, parties and tampers at once, `out_messages`
must give every view the bytes the reference says its party sent to
each party, and mark exactly the rows that are no well-formed view (an
element out of range) or that carry other public inputs than the
statement's; the consistency and output verdicts read from one replay
of every pair must be the reference's.
"""

import functools
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
from mith.field import FieldElement, RandomSource
from mith.sss import PARTY_PAIRS

from test_fuzz import TREES, render
from test_lanes import CIRCUITS, dot5, lagrange0, messaging_flags, share5, well_formed
from test_mpc import repetition_views, rows_of, sent_by, tamper_cases


@functools.lru_cache(maxsize=None)
def field_counts(c) -> tuple[int, ...]:
    """The element count of each view field (`mpc.VIEW_FIELDS`): a
    randomness pair per exchange, five entries per message slot."""
    n_mul = sum(messaging_flags(c))
    return (c.topology.n_public, c.topology.n_secret, 2 * n_mul + 2, 5 * n_mul, 5, 5)


def fields(c, v) -> dict:
    """v's elements per view field, read from its bytes; messages as
    five-entry columns."""
    w = c.modulus.byte_length
    e = iter([int.from_bytes(v[k:k + w], "big") for k in range(0, len(v), w)])
    out = {name: list(itertools.islice(e, n)) for name, n in zip(mpc.VIEW_FIELDS, field_counts(c))}
    out["messages"] = [out["messages"][k:k + 5] for k in range(0, len(out["messages"]), 5)]
    return out


def reference_well_formed(c, x, v) -> bool:
    """v is a view's length, every entry in [0, p), and its public
    inputs are x."""
    if len(v) != c.modulus.byte_length * sum(field_counts(c)):
        return False
    f, p = fields(c, v), c.modulus.p
    return (all(0 <= y < p for name in mpc.VIEW_FIELDS if name != "messages" for y in f[name])
            and all(0 <= y < p for col in f["messages"] for y in col)
            and tuple(f["public_inputs"]) == tuple(e.value for e in x))


def reference_replay(c, x, v):
    """v's root share, outgoing resharing rows (post-order) and refresh
    row, run on the public inputs x over c's gate list.  A gate inside an
    smul's scalar subtree is evaluated in the clear, and every other gate
    on v's share."""
    p, lam = c.modulus.p, lagrange0(c.modulus.p)
    f = fields(c, v)
    rnd = f["randomness"]
    xs = tuple(e.value for e in x)
    vals, clear, rows = [], [], []  # per gate: v's share, the value in the clear
    for (op, _, a, b), messaging in zip(c.gates, messaging_flags(c)):
        if op == "pinput":
            val = cv = xs[a]
        elif op == "sinput":
            val, cv = f["secret_shares"][a], 0  # never in a scalar subtree
        elif op == "const":
            val = cv = a
        elif op == "add":
            val, cv = (vals[a] + vals[b]) % p, (clear[a] + clear[b]) % p
        elif op == "smul":
            val, cv = clear[a] * vals[b] % p, clear[a] * clear[b] % p
        else:
            val = cv = clear[a] * clear[b] % p
            if messaging:
                t = len(rows)  # exchange t
                rows.append(share5(vals[a] * vals[b] % p, rnd[2 * t], rnd[2 * t + 1], p))
                val = dot5(lam, f["messages"][t], p)
        vals.append(val)
        clear.append(cv)
    t = len(rows)  # the refresh: the last exchange
    return vals[-1], rows, share5(0, rnd[2 * t], rnd[2 * t + 1], p)


def reference_sent(c, x, v):
    """What v's party sent: rows, refresh row, refreshed broadcast share."""
    root, rows, zrow = reference_replay(c, x, v)
    return rows, zrow, (root + sum(fields(c, v)["zin"])) % c.modulus.p


def reference_consistent(c, x, vi, vj, i, j) -> bool:
    if not (reference_well_formed(c, x, vi) and reference_well_formed(c, x, vj)):
        return False
    sent = {i: reference_sent(c, x, vi), j: reference_sent(c, x, vj)}
    for v, a in ((vi, i), (vj, j)):
        f = fields(c, v)
        for b in (i, j):  # what v (of party a) recorded from b
            rows, zrow, u = sent[b]
            if ([col[b - 1] for col in f["messages"]] != [row[a - 1] for row in rows]
                    or f["zin"][b - 1] != zrow[a - 1] or f["bcast"][b - 1] != u):
                return False
    return True


def reference_output(c, x, pid, v):
    """The output of v's recorded broadcast with pid's own slot replaced
    by its recomputed share."""
    bcast = list(fields(c, v)["bcast"])
    bcast[pid - 1] = reference_sent(c, x, v)[2]
    return dot5(lagrange0(c.modulus.p), bcast, c.modulus.p)


def check_replay(c, x, executions) -> int:
    """Replay every entry of executions (each five in party order) in one
    out_messages call and compare with the reference: marked for each
    entry the reference finds malformed, for each other what the
    reference's party sent to each party, in the recipient's record
    order.  Then check every pair of every execution in one
    consistent_views call: its verdict is the reference's, and where a
    pair is consistent, both views' recorded outputs are the reference's,
    which recomputes each view's own broadcast share.  Returns the number
    of malformed entries."""
    prog = mpc.program(c)
    views = [v for ex in executions for v in ex]
    ok, replays = sent_by(c, x, views)
    assert len(ok) == len(replays) == len(views)
    malformed = 0
    for v, good, sent in zip(views, ok, replays):
        assert good == reference_well_formed(c, x, v)
        if not good:
            malformed += 1
            continue
        rows, zrow, own = reference_sent(c, x, v)
        assert sent == tuple(prog.cols.encode([row[a] for row in rows] + [zrow[a], own])
                             for a in range(5))
    pairs = [(ex[i - 1], ex[j - 1], i, j) for ex in executions for i, j in PARTY_PAIRS]
    rows = rows_of([v for vi, vj, _, _ in pairs for v in (vi, vj)])
    ok, to = mpc.out_messages(c, x, rows)
    verdicts = mpc.consistent_views(c, rows, bytes(range(10)) * len(executions), to)
    for (vi, vj, i, j), a, b, consistent in zip(pairs, ok[::2], ok[1::2], verdicts):
        consistent = a and b and consistent
        assert consistent == reference_consistent(c, x, vi, vj, i, j)
        for pid, v in ((i, vi), (j, vj)) if consistent else ():
            out = FieldElement(reference_output(c, x, pid, v), c.modulus)
            assert mpc.local_output(c, rows_of([v]), out) == [True]
    return malformed


def executions_of(c, reps, seed):
    """A statement's x and the five views of each of reps honest runs
    (decoded from their bytes, as a verifier holds them), followed by
    each run with the views of parties 2 and 4 holding an element out of
    range, each run with view 2's first public input changed, and every
    `tamper_cases` tuple of each run."""
    s, w = random_instance(random.Random(seed), c)
    st, _ = pr.commit_repetitions(w, s, reps, RandomSource(b"replay/%d" % seed),
                                  scheme_by_name("prf", c.modulus.p))
    runs = [repetition_views(st.rows, reps, k) for k in range(reps)]
    honest = [[mpc.decode_view(c, v) for v in views] for views in runs]
    top = b"\xff" * mpc.program(c).width  # at least p, in any field
    mixed = [[bytes(v)[:-len(top)] + top if pid % 2 == 0 else v for pid, v in enumerate(ex, 1)]
             for ex in honest]
    tampered = []
    if mpc.program(c).n_public:
        for ex in honest:
            pub = mpc.view_fields(c, ex[1])["public_inputs"]
            pubs = ((pub[0] + 1) % c.modulus.p, *pub[1:])
            tampered.append([ex[0], mpc.make_view(c, ex[1], public_inputs=pubs), *ex[2:]])
    if mpc.program(c).n_mul:
        rnd = random.Random(seed)
        for views in runs:
            tampered += tamper_cases(c, views, rnd)
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
