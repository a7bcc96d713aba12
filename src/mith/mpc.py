"""In-the-head 5-party BGW evaluation of arithmetic circuits.

The prover runs all five parties itself: addition, constants and scalar
multiplication are local; each multiplication gate reshares the parties'
degree-4 product shares with fresh degree-2 polynomials and recombines
them with the degree-4 interpolation weights; after the root gate the
output sharing is re-randomized with five fresh sharings of zero and
publicly opened.

Each circuit is compiled once into a `Program`: a post-order op list over
wire slots, the list of multiplications that exchange messages, the
public scalar subtrees of the smul gates, and the element counts of a
view.  One interpreter runs the ops: every wire is a lane column
(`field.columns`: one byte per lane over a field below 256, else a list
of ints), and at each messaging multiplication and at the
refresh an exchange supplies the columns the lanes received.  The
prover (`run_protocol`) runs a lane per party and repetition and
reshares with the drawn randomness; the verifier's replay
(`out_messages`) runs a lane per opened view against the statement's
public inputs, reshares with the view's randomness and receives what the
view recorded; the simulator (`mpc_simulate`) runs the two corrupt
parties and draws the honest parties' messages.

A party's view is flat: its public inputs, its input shares, its
randomness ((a1, a2) per messaging multiplication in ascending gate-id
order, then the refresh pair), the incoming resharing column at each
messaging multiplication in post-order, and at the opening both the
incoming zero-share contributions (`zin`) and the broadcast refreshed
output shares (`bcast`).  Every entry is an int in [0, p), and a view's
canonical encoding is exactly these entries in this order, each
fixed-width big-endian.  `out_messages` recomputes what a party sent
to each party from its view and the statement's public inputs, as the
bytes the recipient's view records; pairwise consistency compares those
bytes with what the other view recorded.

A view is its canonical encoding: `View` is a `bytes` subclass that
also names its program, and its six fields are decoded from its bytes
whenever they are read.  Only `run_protocol` (through `encode_view`),
`decode_view` and `make_view` build views, each checking what it builds,
so every view is well formed for its program.  `run_protocol` writes
the element columns of all its views into one buffer, one strided slice
assignment per column, and cuts each view from its row.  The verifier
joins the opened views, slices them back into element columns, and
compares what views recorded with what replays sent as byte strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from operator import itemgetter
from typing import Sequence

from mith.errors import MithError, ProofError
from mith.field import FieldElement, RandomSource, columns, lagrange_weights
from mith.circuit import (
    Circuit, Statement, gate_values, mul_gate_ids, scalar_marks,
)
from mith.sss import PARTY_IDS, dot5

# Op codes.  An op is (code, dst, a, b, r): dst = a + b; dst = scalar[a] * b;
# or dst = a * b through the multiplication with randomness rank r.
ADD, SMUL, MUL = range(3)

# A view's fields, in encoding order.
VIEW_FIELDS = ("public_inputs", "secret_shares", "randomness", "messages", "zin", "bcast")


class Program:
    """A circuit compiled for in-the-head evaluation.

    Slots 0..n_public-1 hold the public inputs, the next n_secret slots
    the secret inputs; constants and op results follow.  `ops` is in
    post-order, so its multiplications run in view-message order; each
    carries the rank of its gate id among the messaging multiplications,
    which indexes the party's randomness.  Gates inside an smul's scalar
    subtree (`circuit.scalar_marks`) are not ops: `scalars` evaluates the
    circuit in the clear once per statement and reads each scalar root
    (`scalar_roots`, gate indices).

    A view's encoding is its n_elements elements, `width` bytes each:
    `view_length` bytes, element j at `offsets[j]` = j * width.  `cols`
    is the lane-column arithmetic of the field (`field.columns`).
    """

    def __init__(self, c: Circuit):
        m = c.modulus
        topo = c.topology
        self.modulus, self.p, self.lam, self.width = m, m.p, m.recon_weights, m.byte_length
        self.cols = columns(m.p)
        self.n_public, self.n_secret = topo.n_public, topo.n_secret
        self.n_in = topo.n_public + topo.n_secret
        init = [0] * self.n_in
        ops = []
        self.scalar_roots = []  # gate index of each op smul's scalar
        self.mul_gids = tuple(mul_gate_ids(c))
        rank = {gid: r for r, gid in enumerate(self.mul_gids)}
        slot = []  # per gate: its wire slot; None inside a scalar subtree
        for i, ((op, gid, a, b), public) in enumerate(zip(c.gates, scalar_marks(c))):
            if public:
                slot.append(None)
            elif op == "pinput":
                slot.append(a)
            elif op == "sinput":
                slot.append(self.n_public + a)
            else:
                slot.append(len(init))
                init.append(a if op == "const" else 0)
                if op == "smul":
                    ops.append((SMUL, slot[i], len(self.scalar_roots), slot[b], 0))
                    self.scalar_roots.append(a)
                elif op == "add":
                    ops.append((ADD, slot[i], slot[a], slot[b], 0))
                elif op == "mul":
                    ops.append((MUL, slot[i], slot[a], slot[b], rank[gid]))
        self.ops = tuple(ops)
        self.root = slot[-1]
        self.init = init
        self.n_mul = len(self.mul_gids)
        self._circuit = c
        self.n_rand = 2 * (self.n_mul + 1)
        self.n_elements = self.n_in + self.n_rand + 5 * self.n_mul + 10
        self._scalar_cache: tuple = (None, ())
        w = self.width
        self.view_length = L = self.n_elements * w
        self.offsets = range(0, L, w)
        o3 = self.n_in + self.n_rand
        o4 = o3 + 5 * self.n_mul
        # Element index range of each view field, in encoding order.
        ends = (self.n_public, self.n_in, o3, o4, o4 + 5, o4 + 10)
        self.fields = dict(zip(VIEW_FIELDS, zip((0, *ends), ends)))
        # Byte ranges of the public inputs and of the broadcast (the
        # encoding's end), and per sender b+1 the byte positions of what a
        # view recorded from it: its column entry at each messaging
        # multiplication, its zin and its bcast.
        self.pubs = slice(0, self.n_public * w)
        self.bcast = slice(L - 5 * w, L)
        self.received = tuple(
            itemgetter(*[j * w + t for j in [*range(o3 + b, o4 + 5, 5), o4 + 5 + b]
                         for t in range(w)])
            for b in range(5))

    def scalars(self, public_inputs: Sequence[int]) -> tuple[int, ...]:
        """Values of the smul scalar subtrees, cached for the last statement."""
        key = tuple(public_inputs)
        cached_key, values = self._scalar_cache
        if cached_key != key:
            # validate_circuit keeps sinputs out of scalar subtrees, so the
            # secret inputs' values do not reach them.
            vals = gate_values(self._circuit, key, (0,) * self.n_secret)
            values = tuple(vals[i] for i in self.scalar_roots)
            self._scalar_cache = (key, values)
        return values


def program(c: Circuit) -> Program:
    """c's program, compiled on first use and kept on the circuit object.
    Threads that compile c at once all get the program stored first: a
    view's encoding names its program, and a second one would disown it."""
    prog = c.__dict__.get("_program")
    if prog is None:
        prog = c.__dict__.setdefault("_program", Program(c))
    return prog


class View(bytes):
    """A party's view: its canonical encoding, plus its program in `prog`.
    The six fields are decoded from the bytes on each read; equal views
    are equal bytes.  Build one with `run_protocol`, `decode_view` or
    `make_view`, which check that it is well formed for its program."""

    def __new__(cls, *args, **kwargs):
        raise TypeError("views are built by run_protocol, decode_view or make_view")

    def _field(self, name: str) -> tuple[int, ...]:
        prog = self.prog
        a, b = prog.fields[name]
        return tuple(prog.cols.decode(self[a * prog.width:b * prog.width]))

    public_inputs = property(lambda v: v._field("public_inputs"))
    secret_shares = property(lambda v: v._field("secret_shares"))
    randomness = property(lambda v: v._field("randomness"))
    zin = property(lambda v: v._field("zin"))
    bcast = property(lambda v: v._field("bcast"))

    @property
    def messages(self) -> tuple[tuple[int, ...], ...]:
        flat = self._field("messages")
        return tuple(flat[k:k + 5] for k in range(0, len(flat), 5))

    def __repr__(self):
        return "View(" + ", ".join(f"{f}={getattr(self, f)}" for f in VIEW_FIELDS) + ")"


def _view(prog: Program, data) -> View:
    v = bytes.__new__(View, data)
    v.prog = prog
    return v


@dataclass(frozen=True)
class ExecutionResult:
    views: tuple[View, ...]
    outputs: tuple[FieldElement, ...]


def random_gate_randomness(rng: RandomSource, c: Circuit):
    """One repetition's gate randomness in drawn order: (a1, a2) for
    parties 1..5 at each messaging multiplication in ascending gate-id
    order, then for the five refresh sharings (`RandomSource.randbelows`:
    bytes over a field below 256)."""
    prog = program(c)
    return rng.randbelows(prog.p, 5 * prog.n_rand)


# ---------------------------------------------------------------------------
# The interpreter, and honest execution through it.


def _interpret(prog: Program, inputs: Sequence, scalars: Sequence[int], n: int, exchange):
    """Run prog's ops over n lanes, given the n_in input columns and each
    smul scalar.  At each messaging multiplication exchange(d, r) gets
    the lanes' products d and the randomness rank r, and returns the five
    columns the lanes received, one per sender, to recombine.  The
    refresh exchanges zeros at rank n_mul.  Returns each lane's refreshed
    share: its root share plus the zero shares it received."""
    F = prog.cols
    lam = prog.lam
    const = {v: F.const(v, n) for v in set(prog.init[prog.n_in:])}
    vals = [*inputs, *[const[v] for v in prog.init[prog.n_in:]]]
    for code, dst, a, b, r in prog.ops:
        y = vals[b]
        if code == ADD:
            vals[dst] = F.add(vals[a], y)
        elif code == MUL:
            vals[dst] = F.lincomb(lam, exchange(F.mul(vals[a], y), r))
        else:
            vals[dst] = F.smul(scalars[a], y)
    root = vals[prog.root]
    del vals  # free the wire columns
    return F.lincomb((1,) * 6, [root, *exchange(F.const(0, n), prog.n_mul)])


def run_protocol(s: Statement, input_sharings: Sequence[Sequence[Sequence[int]]],
                 rands: Sequence[Sequence[int]]) -> tuple[ExecutionResult, ...]:
    """Execute the full protocol once per repetition, as 5n party lanes of
    one pass: lane q*n + k is party q+1 in repetition k.  input_sharings
    holds each secret wire's five party columns (`sss.share`), and
    rands[k] is repetition k's gate randomness in drawn order
    (`random_gate_randomness`).  Returns each repetition's five views and
    outputs, in repetition order; `encode_view` builds the views."""
    c = s.circuit
    prog = program(c)
    F = prog.cols
    n = len(rands)
    if len(input_sharings) != prog.n_secret:
        raise MithError(
            f"need {prog.n_secret} input sharings, got {len(input_sharings)}")
    if n < 1 or any(len(sh) != 5 or any(len(col) != n for col in sh)
                    for sh in input_sharings):
        raise MithError("each input sharing needs five party columns of one share per lane")
    R = 5 * prog.n_rand
    if any(len(r) != R for r in rands):
        raise MithError(f"missing randomness: each repetition needs {R} draws")
    pubs = tuple(x.value for x in s.public_inputs)
    lanes = 5 * n
    inputs = [*[F.const(v, lanes) for v in pubs],
              *[F.join([F.from_ints(col) for col in sh]) for sh in input_sharings]]
    draws = F.join([F.from_ints(r) for r in rands])
    # rc[i]: entry i of each lane's randomness; party q+1's entry 2t+e is
    # draw 10t + 2q + e of its repetition.
    rc = [F.join([draws[10 * (i // 2) + 2 * q + i % 2::R] for q in range(5)])
          for i in range(prog.n_rand)]
    del draws
    o3 = prog.n_in + prog.n_rand
    placed = [*enumerate(inputs), *enumerate(rc, prog.n_in)]
    slots = count(o3, 5)

    def exchange(d, r):
        """Every lane reshares its products with its rank-r randomness;
        sh[x] holds what each lane sent to party x+1.  cols[q], what
        every lane received from party q+1, is party q+1's lanes of
        sh[0], ..., sh[4] in turn.  Views record the five received
        columns at the next message slot."""
        sh = F.share(d, rc[2 * r], rc[2 * r + 1])
        cols = [F.join([col[k:k + n] for col in sh]) for k in range(0, lanes, n)]
        placed.extend(enumerate(cols, next(slots)))
        return cols

    own = _interpret(prog, inputs, prog.scalars(pubs), lanes, exchange)
    bcast = [own[k:k + n] for k in range(0, lanes, n)]
    placed.extend(enumerate([col * 5 for col in bcast], next(slots)))
    outs = F.lincomb(prog.lam, bcast)
    del inputs, rc, own, bcast  # placed holds the only references left
    views = encode_view(c, placed, lanes)
    m = c.modulus
    return tuple(ExecutionResult(tuple(views[k::n]), (FieldElement(outs[k], m),) * 5)
                 for k in range(n))


# ---------------------------------------------------------------------------
# View replay: everything below recomputes a party's run from its view
# and the statement's public inputs, and must never trust any other data.


def valid_view(c: Circuit, views: Sequence[View]) -> list[bool]:
    """Whether each entry is a view of c's program.  Building a view
    checked its shape and ranges, so none is checked again."""
    prog = program(c)
    return [isinstance(v, View) and v.prog is prog for v in views]


def out_messages(c: Circuit, x: Sequence[FieldElement],
                 views: Sequence[View]) -> list[tuple[bytes, ...] | None]:
    """What each view's party sent to parties 1..5, recomputed from that
    view and the public inputs x, each encoded as its recipient's view
    records it (`Program.received`): the column entry at each messaging
    multiplication, the zero share, the broadcast share.  None for a view
    that is malformed or carries other public inputs than x.  The other
    views run as the lanes of one pass: their rows are joined and sliced
    into element columns, and each lane reshares with its own randomness
    and receives the columns it recorded."""
    prog = program(c)
    pubs = tuple(e.value for e in x)
    xs = prog.cols.encode(pubs)
    ok = [good and v[prog.pubs] == xs for v, good in zip(views, valid_view(c, views))]
    rows = [v for v, good in zip(views, ok) if good]
    if not rows:
        return [None] * len(views)
    F, w = prog.cols, prog.width
    n = len(rows)
    data = b"".join(rows)
    del rows
    cols = [F.column(data, off, prog.view_length) for off in prog.offsets]
    inputs = cols[:prog.n_in]
    rc = cols[prog.n_in:prog.n_in + prog.n_rand]
    o3 = prog.n_in + prog.n_rand
    # The recorded columns at each messaging multiplication, then zin.
    recorded = [cols[k:k + 5] for k in range(o3, o3 + 5 * prog.n_mul + 5, 5)]
    del cols, data
    sent = []

    def exchange(d, r):
        sent.append(F.share(d, rc[2 * r], rc[2 * r + 1]))
        return recorded[len(sent) - 1]

    own = _interpret(prog, inputs, prog.scalars(pubs), n, exchange)
    # to[a]: lane k's record for party a+1 is to[a][k*size:(k+1)*size].
    size = (prog.n_mul + 2) * w
    to = []
    for a in range(5):
        buf = bytearray(size * n)
        for m, row in enumerate(sent):
            F.place(buf, m * w, size, row[a])
        F.place(buf, size - w, size, own)
        to.append(bytes(buf))
    replays = iter([tuple(t[k:k + size] for t in to) for k in range(0, size * n, size)])
    return [next(replays) if good else None for good in ok]


def local_output(c: Circuit, v: View) -> FieldElement:
    """The protocol output that view v recorded: its broadcast,
    recombined.  Only meaningful once `consistent_views` has accepted v,
    which requires v's own broadcast slot to be its replayed share."""
    prog = program(c)
    bcast = prog.cols.decode(v[prog.bcast])
    return FieldElement(dot5(prog.lam, bcast, prog.p), c.modulus)


def consistent_views(c: Circuit, vi: View, vj: View, i: int, j: int,
                     sent_i: tuple[bytes, ...] | None, sent_j: tuple[bytes, ...] | None) -> bool:
    """Pairwise view consistency for distinct parties i and j, given what
    each sent by `out_messages`: each view recorded what its own party
    and the other party sent it, as byte strings of the views' encodings.
    """
    if i == j:
        raise MithError("consistency is defined for distinct parties")
    if sent_i is None or sent_j is None:
        return False
    prog = program(c)
    got_i, got_j = prog.received[i - 1], prog.received[j - 1]
    return (bytes(got_i(vi)) == sent_i[i - 1]
            and bytes(got_j(vj)) == sent_j[j - 1]
            and bytes(got_j(vi)) == sent_j[i - 1]
            and bytes(got_i(vj)) == sent_i[j - 1])
# ---------------------------------------------------------------------------
# 2-privacy simulator


def _interp_eval(pts: Sequence[tuple[int, int]], at: int, p: int) -> int:
    """Evaluate the unique polynomial through pts at x=at (at not a node)."""
    ws = lagrange_weights([x - at for x, _ in pts], p)
    return sum(w * y for w, (_, y) in zip(ws, pts)) % p


def mpc_simulate(c: Circuit, x: Sequence[FieldElement],
                 corrupt: tuple[int, int],
                 corrupt_shares: Sequence[tuple[FieldElement, FieldElement]],
                 y: FieldElement, rng: RandomSource) -> tuple[View, View]:
    """Simulate the joint view of two corrupt parties without the witness.

    The two corrupt parties are the lanes of one pass.  Incoming messages
    from honest parties are sampled uniformly; the honest broadcast shares
    are fixed so the opened sharing interpolates to y.  The returned views
    are mutually consistent and both report local output y.  Draws, per
    messaging multiplication in post-order: each corrupt party's (a1, a2),
    then the honest parties' values sent to i and to j; then the same for
    the refresh.
    """
    i, j = corrupt
    if i == j:
        raise MithError("corrupt parties must be distinct")
    prog = program(c)
    F = prog.cols
    p = prog.p
    honest = [k for k in PARTY_IDS if k not in corrupt]
    pubs = tuple(e.value for e in x)
    shares = [tuple(cs[lane].value for cs in corrupt_shares) for lane in (0, 1)]
    rand = ([0] * prog.n_rand, [0] * prog.n_rand)
    msgs = []

    def exchange(d, r):
        """Each corrupt lane reshares its product with fresh randomness,
        stored at rank r; the honest parties' entries are uniform."""
        draws = [rng.randbelow(p) for _ in range(4)]
        rand[0][2 * r:2 * r + 2], rand[1][2 * r:2 * r + 2] = draws[:2], draws[2:]
        sh = F.share(d, F.from_ints(draws[0::2]), F.from_ints(draws[1::2]))
        cols = [None] * 5
        for lane, q in enumerate(corrupt):
            cols[q - 1] = F.from_ints((sh[i - 1][lane], sh[j - 1][lane]))
        for k in honest:
            cols[k - 1] = F.from_ints((rng.randbelow(p), rng.randbelow(p)))
        msgs.append(list(zip(*cols)))
        return cols

    inputs = ([F.const(v, 2) for v in pubs]
              + [F.from_ints((a.value, b.value)) for a, b in corrupt_shares])
    u_i, u_j = _interpret(prog, inputs, prog.scalars(pubs), 2, exchange)
    zin = msgs.pop()
    # Fix honest broadcasts so the degree-2 opened sharing hits y.
    pts = ((0, y.value), (i, u_i), (j, u_j))
    bcast = [u_i if k == i else u_j if k == j else _interp_eval(pts, k, p) for k in PARTY_IDS]
    return tuple(make_view(c, public_inputs=pubs, secret_shares=shares[lane],
                           randomness=rand[lane], messages=[m[lane] for m in msgs],
                           zin=zin[lane], bcast=bcast) for lane in (0, 1))


# ---------------------------------------------------------------------------
# Canonical view encoding (commitments are computed over these bytes, so
# the layout is bit-exact): the view's elements and nothing else, each
# fixed-width big-endian, in the order public inputs, secret shares,
# randomness (ascending gate-id order, the refresh pair last), the
# incoming column at each messaging multiplication in post-order, zin
# and bcast.  The circuit fixes every count, so no count, tag or gate id
# is encoded, and decoding checks the length and each element's range.


def encode_view(c: Circuit, placed: list, lanes: int) -> list[View]:
    """The views of `lanes` lanes whose element columns are placed, as
    [(element index, column)]: one buffer of a row per lane, filled with
    one strided slice assignment per column, each column popped from
    placed as it is written; then a view per row."""
    prog = program(c)
    L = prog.view_length
    buf = bytearray(L * lanes)
    while placed:
        j, col = placed.pop()
        prog.cols.place(buf, prog.offsets[j], L, col)
    rows = memoryview(buf)
    return [_view(prog, rows[k:k + L]) for k in range(0, len(buf), L)]


def make_view(c: Circuit, base: View | None = None, **fields) -> View:
    """The view of c with the given fields (`VIEW_FIELDS`) and base's
    others: public_inputs, secret_shares, randomness, zin and bcast are
    flat int sequences, messages a sequence of five-entry columns.
    MithError unless every field has its count under c's program and
    every entry is an int in [0, p), or a field is missing with no view
    of c as base."""
    prog = program(c)
    w, parts = prog.width, []
    for name, (a, b) in prog.fields.items():
        if name in fields:
            val = fields.pop(name)
            try:
                flat = [x for col in val for x in col] if name == "messages" else list(val)
                ok = (len(flat) == b - a and all(type(x) is int and 0 <= x < prog.p for x in flat)
                      and (name != "messages" or all(len(col) == 5 for col in val)))
            except TypeError:
                ok = False
            if not ok:
                raise MithError(f"view field {name} needs {b - a} ints in [0, {prog.p})")
            parts.append(prog.cols.encode(flat))
        elif isinstance(base, View) and base.prog is prog:
            parts.append(base[a * w:b * w])
        else:
            raise MithError(f"make_view needs {name}, or a view of the circuit to copy")
    if fields:
        raise MithError(f"unknown view fields {sorted(fields)}")
    return _view(prog, b"".join(parts))


def view_elements(v: View) -> list[int]:
    """The view's field elements in encoding order."""
    return list(v.prog.cols.decode(v))


def view_element_count(c: Circuit) -> int:
    return program(c).n_elements


def encoded_view_length(c: Circuit) -> int:
    return program(c).view_length


def decode_view(c: Circuit, data: bytes) -> View:
    """The view whose encoding is data: data must be view_length bytes
    whose every element is below p, else ProofError."""
    prog = program(c)
    if len(data) < prog.view_length:
        raise ProofError("truncated view encoding")
    if len(data) > prog.view_length:
        raise ProofError("trailing bytes after view")
    v = _view(prog, data)
    if max(prog.cols.decode(v)) >= prog.p:
        raise ProofError("view field element exceeds modulus")
    return v
