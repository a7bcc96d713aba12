"""In-the-head 5-party BGW evaluation of arithmetic circuits.

The prover runs all five parties itself: addition, constants and scalar
multiplication are local; the multiplication gates of one multiplicative
depth reshare the parties' degree-4 product shares together, in one
round, with fresh degree-2 polynomials, and recombine them with the
degree-4 interpolation weights; after the root gate the
output sharing is re-randomized with five fresh sharings of zero and
publicly opened.

Each circuit is compiled once into a `Program`: a layer schedule over
wire slots, one layer per multiplicative depth, the public scalar
subtrees of the smul gates, and the element counts of a view.  One
interpreter runs the layers: every wire is a lane column (`field.columns`:
one byte per lane over a field below 128, else a list of ints), and for
each layer's multiplications and for the refresh one exchange call
supplies the columns the lanes received.  The prover
(`run_protocol`) runs a lane per party and repetition and reshares with
the drawn randomness; the 2-privacy simulator (`mpc_simulate`) is one
such run on dummy shares, with only the opened broadcast set to the
claimed output.

A party's view is flat: its public inputs, its input shares, its
randomness, the incoming resharing column at each messaging
multiplication, and at the opening both the incoming zero-share
contributions (`zin`) and the broadcast refreshed output shares
(`bcast`).  Exchanges are numbered in post-order, the refresh last, and
exchange t takes randomness pair (a1, a2) t and fills message slot t,
whichever layer runs it.  Every
entry is an int in [0, p), and a view's canonical encoding is exactly
these entries in this order, each fixed-width big-endian.  A view is
its encoding, plain bytes or a row of a buffer of them; `view_fields`
decodes its six fields.  `run_protocol` returns every lane's view as a
row of one buffer, into which it writes each element column as it makes
it (`encode_view`, one strided slice assignment per column); the prover
commits to the buffer row by row and opens two rows of it per
repetition.  `decode_view`, `make_view` and `mpc_simulate` build single
views, each checking what it builds.

The verifier never builds a view: it joins the opened views' bytes, one
row each, and checks them in passes over element columns, every view
at once.  `out_messages` replays a lane per row against the statement's
public inputs, resharing with the row's randomness and receiving what
it recorded, and returns what the lanes sent each party as one buffer
per recipient; `consistent_views` compares those buffers with what the
rows recorded, with lane masks; `local_output` recombines every row's
broadcast in one linear combination.
"""

from __future__ import annotations

from typing import Sequence

from mith.errors import MithError, ProofError
from mith.field import FieldElement, RandomSource, columns, lagrange_weights
from mith.circuit import (
    Circuit, Statement, gate_values, scalar_marks,
)
from mith.sss import PARTY_IDS, PARTY_PAIRS

# Op codes.  An op is (code, dst, a, b): dst = a + b or dst = scalar[a] * b.
ADD, SMUL = range(2)

# A view's fields, in encoding order.
VIEW_FIELDS = ("public_inputs", "secret_shares", "randomness", "messages", "zin", "bcast")


class Program:
    """A circuit compiled for in-the-head evaluation.

    Slots 0..n_public-1 hold the public inputs, the next n_secret slots
    the secret inputs; constants and op results follow.  `layers` is the
    schedule, one layer per multiplicative depth d from 0: the
    multiplications of depth d, which read only slots of lower depth,
    then the ADD and SMUL ops of depth d in post-order.  Exchanges are
    numbered in post-order: the t-th multiplication reads the party's
    randomness pair t and records message slot t, and the refresh is
    exchange n_mul; a layer lists its exchanges t ascending.  Gates
    inside an smul's scalar subtree (`circuit.scalar_marks`) are not
    ops: `scalars` evaluates the circuit in the clear once per statement
    and reads each scalar root (`scalar_roots`, gate indices).

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
        depth = [0] * self.n_in  # per slot: its multiplicative depth
        # Per depth d: its multiplications' exchanges t, their (dst, a, b),
        # and its ADD and SMUL ops; each list in post-order.
        layers = [([], [], [])]
        self.scalar_roots = []  # gate index of each op smul's scalar
        self.n_mul = 0
        slot = []  # per gate: its wire slot; None inside a scalar subtree
        for (op, _, a, b), public in zip(c.gates, scalar_marks(c)):
            if public:
                slot.append(None)
            elif op == "pinput":
                slot.append(a)
            elif op == "sinput":
                slot.append(self.n_public + a)
            else:
                dst = len(init)
                slot.append(dst)
                init.append(a if op == "const" else 0)
                d = 0 if op == "const" else depth[slot[b]]
                if op == "smul":
                    layers[d][2].append((SMUL, dst, len(self.scalar_roots), slot[b]))
                    self.scalar_roots.append(a)
                elif op == "add":
                    d = max(d, depth[slot[a]])
                    layers[d][2].append((ADD, dst, slot[a], slot[b]))
                elif op == "mul":
                    d = max(d, depth[slot[a]]) + 1
                    if d == len(layers):
                        layers.append(([], [], []))
                    layers[d][0].append(self.n_mul)
                    layers[d][1].append((dst, slot[a], slot[b]))
                    self.n_mul += 1
                depth.append(d)
        self.layers = tuple(tuple(map(tuple, layer)) for layer in layers)
        self.root = slot[-1]
        self.init = init
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
        # Per sender b+1, the element index of each slot a view records
        # from it: its entry at each messaging multiplication, zin, bcast.
        self.received = tuple((*range(o3 + b, o4 + 5, 5), o4 + 5 + b) for b in range(5))

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
    Threads that compile c at once all get the program stored first."""
    prog = c.__dict__.get("_program")
    if prog is None:
        prog = c.__dict__.setdefault("_program", Program(c))
    return prog


def random_gate_randomness(rng: RandomSource, c: Circuit, reps: int = 1):
    """The gate randomness of reps repetitions, one after another, in one
    draw (`RandomSource.randbelows`: bytes over a field below 256), each in
    exchange order: (a1, a2) for parties 1..5 at each messaging
    multiplication in post-order, then for the five refresh sharings."""
    prog = program(c)
    return rng.randbelows(prog.p, 5 * prog.n_rand * reps)


# ---------------------------------------------------------------------------
# The interpreter, and honest execution through it.


def _interpret(prog: Program, inputs: Sequence, scalars: Sequence[int], n: int, exchange):
    """Run prog's layers over n lanes, given the n_in input columns and
    each smul scalar.  Per layer with multiplications, one product of the
    operands joined and one exchange(d, ts): d holds, for each exchange t
    of ts in turn, the lanes' column it reshares, and exchange returns the
    five columns the lanes received, one per sender, each joined in the
    same order; one recombination gives every product.  The refresh is
    the last call, exchange n_mul of zeros.  Returns each lane's refreshed
    share: its root share plus the zero shares it received."""
    F = prog.cols
    lam = prog.lam
    const = {v: F.const(v, n) for v in set(prog.init[prog.n_in:])}
    vals = [*inputs, *[const[v] for v in prog.init[prog.n_in:]]]
    for ts, muls, ops in prog.layers:
        if ts:
            d = F.mul(F.join([vals[a] for _, a, _ in muls]), F.join([vals[b] for *_, b in muls]))
            prods = F.lincomb(lam, exchange(d, ts))
            for k, (dst, _, _) in enumerate(muls):
                vals[dst] = prods[k * n:k * n + n]
        for code, dst, a, b in ops:
            vals[dst] = F.add(vals[a], vals[b]) if code == ADD else F.smul(scalars[a], vals[b])
    root = vals[prog.root]
    del vals  # free the wire columns
    return F.lincomb((1,) * 6, [root, *exchange(F.const(0, n), (prog.n_mul,))])


def run_protocol(s: Statement, input_sharings: Sequence[Sequence[Sequence[int]]],
                 rands: Sequence[int]) -> bytearray:
    """Execute the full protocol once per repetition, as 5n party lanes of
    one pass: lane q*n + k is party q+1 in repetition k.  input_sharings
    holds each secret wire's five party columns (`sss.share`), and rands
    the n repetitions' gate randomness (`random_gate_randomness`).  Returns
    one buffer whose row q*n + k is lane q*n + k's view, each element
    column written (`encode_view`) as the run makes it.  Repetition k's
    opened output is its views' bcast recombined with `Program.lam`."""
    c = s.circuit
    prog = program(c)
    F = prog.cols
    R = 5 * prog.n_rand
    if len(rands) % R:
        raise MithError(f"missing randomness: each repetition needs {R} draws")
    n = len(rands) // R
    if len(input_sharings) != prog.n_secret:
        raise MithError(
            f"need {prog.n_secret} input sharings, got {len(input_sharings)}")
    if n < 1 or any(len(sh) != 5 or any(len(col) != n for col in sh)
                    for sh in input_sharings):
        raise MithError("each input sharing needs five party columns of one share per lane")
    pubs = tuple(x.value for x in s.public_inputs)
    lanes = 5 * n
    rows = bytearray(prog.view_length * lanes)
    inputs = [*[F.const(v, lanes) for v in pubs],
              *[F.join([F.from_ints(col) for col in sh]) for sh in input_sharings]]
    draws = F.from_ints(rands)
    # rc[i]: entry i of each lane's randomness; party q+1's entry 2t+e is
    # draw 10t + 2q + e of its repetition.
    rc = [F.join([draws[10 * (i // 2) + 2 * q + i % 2::R] for q in range(5)])
          for i in range(prog.n_rand)]
    del draws
    encode_view(c, rows, enumerate([*inputs, *rc]))
    m0 = prog.fields["messages"][0]

    def exchange(d, ts):
        """Exchanges ts: every lane reshares its column of d for each t
        with its randomness pair t; sh[x] holds what each lane sent to
        party x+1.  What every lane received from party q+1 in exchange
        t is party q+1's lanes of sh[0], ..., sh[4] in t's block, which
        views record at message slot t."""
        sh = F.share(d, F.join([rc[2 * t] for t in ts]), F.join([rc[2 * t + 1] for t in ts]))
        blocks = [[F.join([col[k:k + n] for col in sh]) for k in range(o, o + lanes, n)]
                  for o in range(0, len(ts) * lanes, lanes)]
        encode_view(c, rows, [(m0 + 5 * t + q, col) for t, cols in zip(ts, blocks)
                              for q, col in enumerate(cols)])
        return [F.join(cols) for cols in zip(*blocks)]

    own = _interpret(prog, inputs, prog.scalars(pubs), lanes, exchange)
    bcast = [own[k:k + n] * 5 for k in range(0, lanes, n)]
    encode_view(c, rows, enumerate(bcast, prog.fields["bcast"][0]))
    return rows


# ---------------------------------------------------------------------------
# View replay: everything below recomputes a party's run from its view
# and the statement's public inputs, and must never trust any other data.


def valid_view(c: Circuit, views: Sequence) -> list[bool]:
    """Whether each entry is a view of c: bytes of c's view length whose
    every element is below p."""
    prog = program(c)
    return [isinstance(v, (bytes, bytearray)) and len(v) == prog.view_length
            and prog.cols.below_p(v) for v in views]


def out_messages(c: Circuit, x: Sequence[FieldElement],
                 rows: bytes) -> tuple[list[bool], list[bytes]]:
    """(ok, to) for the views rows joins, one row and lane each: to[a] is
    what every lane's party sent party a+1, recomputed from its view and
    the public inputs x, as one encoded column per slot of the
    recipient's record (`Program.received`).  ok[k] is False for a row
    with an element out of range or other public inputs than x, which
    replays as the all-zero view."""
    prog = program(c)
    F, L = prog.cols, prog.view_length
    if not rows or len(rows) % L:
        raise MithError(f"views are rows of {L} bytes")
    pubs = tuple(e.value for e in x)
    n, xs = len(rows) // L, F.encode(pubs)
    ok = [True] * n
    if not (F.below_p(rows) and all(rows[t::L] == xs[t:t + 1] * n for t in range(len(xs)))):
        cut = [rows[k:k + L] for k in range(0, len(rows), L)]
        ok = [v.startswith(xs) and F.below_p(v) for v in cut]
        rows = b"".join([v if good else bytes(L) for v, good in zip(cut, ok)])
    cols = [F.column(rows, off, L) for off in prog.offsets]
    inputs = cols[:prog.n_in]
    rc = cols[prog.n_in:prog.n_in + prog.n_rand]
    # The recorded columns at each messaging multiplication, then zin.
    recorded = [cols[k:k + 5] for k in range(prog.n_in + prog.n_rand, prog.n_elements - 5, 5)]
    del cols
    sent = [None] * (prog.n_mul + 1)  # per exchange t: what the lanes sent each party

    def exchange(d, ts):
        sh = F.share(d, F.join([rc[2 * t] for t in ts]), F.join([rc[2 * t + 1] for t in ts]))
        for k, t in enumerate(ts):
            sent[t] = [col[k * n:k * n + n] for col in sh]
        return [F.join([recorded[t][q] for t in ts]) for q in range(5)]

    own = _interpret(prog, inputs, prog.scalars(pubs), n, exchange)
    return ok, [b"".join([*[F.encode(row[a]) for row in sent], F.encode(own)]) for a in range(5)]


def local_output(c: Circuit, rows: bytes, target: FieldElement) -> list[bool]:
    """Whether each view of rows recorded target as output, its broadcast
    recombined.  Only meaningful once `consistent_views` has accepted the
    view, which requires its own broadcast slot to be its replayed share."""
    prog = program(c)
    F = prog.cols
    y = F.lincomb(prog.lam, [F.column(rows, off, prog.view_length) for off in prog.offsets[-5:]])
    return [v == target.value for v in y]


# Lane e of the pair of views opened for challenge byte b has key 2b + e
# (`_KEY[e]` maps b to it); _PARTY[q] maps a key to 0xFF where the
# lane's view is party q+1's.
_KEY = [bytes((2 * b + e) & 255 for b in range(256)) for e in (0, 1)]
_PARTY = [bytes(255 * (pair[e] == q) for pair in PARTY_PAIRS for e in (0, 1)).ljust(256, b"\0")
          for q in PARTY_IDS]


def consistent_views(c: Circuit, rows: bytes, challenges: bytes, to: Sequence[bytes]) -> list[bool]:
    """Per pair k of the views rows joins (lanes 2k and 2k+1, the lower
    and the higher party of pair challenges[k]), whether each view
    recorded, from its own party and from its partner, what that party's
    replay sent it (to, from `out_messages`).  Each sender's records form
    one buffer in the layout of to; as big integers, each lane's entries
    are picked out of the five buffers with lane masks."""
    prog = program(c)
    F, w, L = prog.cols, prog.width, prog.view_length
    n = 2 * len(challenges)
    if n * L != len(rows) or max(challenges, default=0) >= len(PARTY_PAIRS):
        raise MithError("consistency needs two views per challenge byte below 10")
    keys, lanes = bytearray(n * w), [challenges.translate(k) for k in _KEY]
    for t in range(w):
        keys[t::2 * w], keys[w + t::2 * w] = lanes
    keys = bytes(keys) * len(prog.received[0])
    even = int.from_bytes((b"\xff" * w + bytes(w)) * (len(keys) // (2 * w)), "little")

    def swap(x: int) -> int:  # each lane's entry moved to its partner lane
        return (x & even) << 8 * w | (x >> 8 * w) & even

    def pick(bufs, masks) -> int:  # the masks are disjoint: their sum is their union
        return sum(b & m for b, m in zip(bufs, masks))

    own = [int.from_bytes(keys.translate(m), "little") for m in _PARTY]
    partner = list(map(swap, own))
    rec = [int.from_bytes(b"".join([F.encoded_column(rows, j * w, L) for j in js]), "little")
           for js in prog.received]
    to = [int.from_bytes(buf, "little") for buf in to]
    diff = (pick(rec, own) ^ pick(to, own)) | (pick(rec, partner) ^ swap(pick(to, partner)))
    diff, fails = diff.to_bytes(len(keys), "little"), 0
    for t in range(2 * w):  # each byte of a pair's two lanes, in every slot
        fails |= int.from_bytes(diff[t::2 * w], "little")
    fails, out = fails.to_bytes(len(keys) // (2 * w), "little"), 0
    for m in range(0, len(fails), n // 2):  # each slot
        out |= int.from_bytes(fails[m:m + n // 2], "little")
    return [b == 0 for b in out.to_bytes(n // 2, "little")]


# ---------------------------------------------------------------------------
# 2-privacy simulator


def mpc_simulate(c: Circuit, x: Sequence[FieldElement],
                 corrupt: tuple[int, int],
                 corrupt_shares: Sequence[tuple[FieldElement, FieldElement]],
                 y: FieldElement, rng: RandomSource) -> tuple[bytes, bytes]:
    """Simulate the joint view of two corrupt parties without the witness.

    An honest run (`run_protocol`, one lane per party) on dummy shares:
    corrupt parties i and j hold corrupt_shares, the honest parties 0 for
    every secret input.  What an honest party sends i and j is two points
    of a fresh degree-2 sharing, uniform whatever it shares; only the
    broadcast gives the run away, so the honest parties' broadcast shares
    are set on the degree-2 polynomial through (0, y), (i, u_i) and
    (j, u_j), u the corrupt parties' own refreshed shares.  Both views
    are consistent and report output y.  MithError unless corrupt is two
    distinct parties of 1..5 and corrupt_shares holds a pair of elements
    below p per secret input.
    """
    i, j = corrupt
    if tuple(sorted(corrupt)) not in PARTY_PAIRS:
        raise MithError("corrupt parties must be two distinct parties of 1..5")
    prog = program(c)
    if not all(0 <= e.value < prog.p for pair in corrupt_shares for e in pair):
        raise MithError(f"corrupt shares must be elements below {prog.p}")
    sharings = [[(a.value if q == i else b.value if q == j else 0,) for q in PARTY_IDS]
                for a, b in corrupt_shares]
    rows = run_protocol(Statement(c, tuple(x), y), sharings, random_gate_randomness(rng, c))
    L = prog.view_length
    views = [rows[(q - 1) * L:q * L] for q in corrupt]
    bcast = list(view_fields(c, views[0])["bcast"])
    pts = [(0, y.value), *((q, bcast[q - 1]) for q in corrupt)]
    for k in set(PARTY_IDS) - set(corrupt):
        ws = lagrange_weights([t - k for t, _ in pts], prog.p)
        bcast[k - 1] = sum(w * v for w, (_, v) in zip(ws, pts)) % prog.p
    return tuple(make_view(c, v, bcast=bcast) for v in views)


# ---------------------------------------------------------------------------
# Canonical view encoding (commitments are computed over these bytes, so
# the layout is bit-exact): the view's elements and nothing else, each
# fixed-width big-endian, in the order public inputs, secret shares,
# randomness (a pair per exchange, in exchange order), the incoming
# column at each messaging multiplication in post-order, zin and bcast.
# The circuit fixes every count, so no count, tag or gate id is encoded,
# and decoding checks the length and each element's range.


def encode_view(c: Circuit, rows: bytearray, placed) -> None:
    """Write element columns of every view that rows holds, one row per
    lane: placed pairs each element index with its column, one value per
    lane, and each column is written with one strided slice assignment."""
    prog = program(c)
    for j, col in placed:
        prog.cols.place(rows, prog.offsets[j], prog.view_length, col)


def view_fields(c: Circuit, v: bytes) -> dict:
    """The six fields (`VIEW_FIELDS`) of a view of c, decoded from its
    bytes: tuples of ints, messages a tuple of five-entry columns."""
    prog = program(c)
    if len(v) != prog.view_length:
        raise MithError(f"a view of the circuit is {prog.view_length} bytes")
    els = tuple(prog.cols.decode(v))
    out = {name: els[a:b] for name, (a, b) in prog.fields.items()}
    out["messages"] = tuple(els[k:k + 5] for k in range(*prog.fields["messages"], 5))
    return out


def make_view(c: Circuit, base: bytes | None = None, **fields) -> bytes:
    """The view of c with the given fields (`VIEW_FIELDS`) and base's
    others: public_inputs, secret_shares, randomness, zin and bcast are
    flat int sequences, messages a sequence of five-entry columns.
    MithError unless base, if given, is a view of c (`valid_view`), every
    field has its count under c's program and every entry is an int in
    [0, p), and every field missing is copied from a base."""
    prog = program(c)
    if base is not None and not valid_view(c, [base])[0]:
        raise MithError(f"make_view's base must be {prog.view_length} bytes "
                        f"of elements below {prog.p}")
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
        elif base is not None:
            parts.append(base[a * w:b * w])
        else:
            raise MithError(f"make_view needs {name}, or a base view to copy")
    if fields:
        raise MithError(f"unknown view fields {sorted(fields)}")
    return b"".join(parts)


def view_elements(c: Circuit, v: bytes) -> list[int]:
    """The field elements of c's view v in encoding order."""
    return list(program(c).cols.decode(v))


def view_element_count(c: Circuit) -> int:
    return program(c).n_elements


def encoded_view_length(c: Circuit) -> int:
    return program(c).view_length


def decode_view(c: Circuit, data: bytes) -> bytes:
    """The view whose encoding is data: data must be view_length bytes
    whose every element is below p, else ProofError."""
    prog = program(c)
    if len(data) < prog.view_length:
        raise ProofError("truncated view encoding")
    if len(data) > prog.view_length:
        raise ProofError("trailing bytes after view")
    if not prog.cols.below_p(data):
        raise ProofError("view field element exceeds modulus")
    return bytes(data)
