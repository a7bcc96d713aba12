"""In-the-head 5-party BGW evaluation of arithmetic circuits.

The prover runs all five parties itself: addition, constants and scalar
multiplication are local; each multiplication gate reshares the parties'
degree-4 product shares with fresh degree-2 polynomials and recombines
them with the degree-4 interpolation weights; after the root gate the
output sharing is re-randomized with five fresh sharings of zero and
publicly opened.

Each circuit is compiled once into a `Program`: a post-order op list over
wire slots, the list of multiplications that exchange messages, the
public scalar subtrees of the smul gates, and the byte template of the
view encoding.  One interpreter runs the ops: every wire is a flat
column with one value per lane, and at each messaging multiplication and
at the refresh an exchange supplies the columns the lanes received.
The prover (`run_protocol`) runs a lane per party and repetition and
reshares with the drawn randomness; the verifier's replay
(`out_messages`) runs a lane per opened view, reshares with the view's
randomness and receives what the view recorded; the simulator
(`mpc_simulate`) runs the two corrupt parties and draws the honest
parties' messages.

A party's view is flat: its public inputs, its input shares, its
randomness ((a1, a2) per messaging multiplication in ascending gate-id
order, then the refresh pair), the incoming resharing column at each
messaging multiplication in post-order, and at the opening both the
incoming zero-share contributions (`zin`) and the broadcast refreshed
output shares (`bcast`).  Every entry is an int in [0, p).  Views are
self-contained: `out_messages` recomputes everything a party sent from
its view alone, which is what pairwise consistency checks against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import Sequence

from mith.errors import MithError, ProofError
from mith.field import FieldElement, RandomSource, lagrange_weights
from mith.circuit import (
    GATE_ID_BOUND, Circuit, Statement, gate_values, mul_gate_ids, scalar_marks,
)
from mith.sss import N_PARTIES, PARTY_IDS, dot5, share_lanes

# Marker gate id for the refresh randomness slot in view encodings; every
# real gate id is below it (`validate_circuit` checks).
REFRESH_SLOT = GATE_ID_BOUND
VIEW_TAG = 0x56

# Op codes.  An op is (code, dst, a, b, r): dst = a + b; dst = scalar[a] * b;
# or dst = a * b through the multiplication with randomness rank r.
ADD, SMUL, MUL = range(3)


def _u32(n: int) -> bytes:
    return n.to_bytes(4, "big")


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

    The encoding `template` is a tuple of (static bytes, run length): the
    static counts and gate ids before each run of packed elements, and
    the run's length in bytes.  The broadcast run ends the encoding, so
    nothing static follows the last run.
    """

    def __init__(self, c: Circuit):
        m = c.modulus
        topo = c.topology
        self.modulus, self.p, self.lam, self.width = m, m.p, m.recon_weights, m.byte_length
        self.n_public, self.n_secret = topo.n_public, topo.n_secret
        self.n_in = topo.n_public + topo.n_secret
        init = [0] * self.n_in
        ops = []
        self.scalar_roots = []  # gate index of each op smul's scalar
        self.mul_gids = tuple(mul_gate_ids(c))
        rank = {gid: r for r, gid in enumerate(self.mul_gids)}
        at = []    # gate index of each messaging multiplication
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
                    at.append(i)
        self.ops = tuple(ops)
        self.root = slot[-1]
        self.init = init
        self.n_mul = len(self.mul_gids)
        # Message-free nodes before each messaging multiplication, and
        # after the last one (before zin): differences of gate indices.
        gaps = [j - i - 1 for i, j in zip([-1, *at], [*at, len(c.gates)])]
        self._circuit = c
        self.n_rand = 2 * (self.n_mul + 1)
        self.n_elements = self.n_in + self.n_rand + 5 * self.n_mul + 10
        self._scalar_cache: tuple = (None, ())
        # Party q+1's randomness vector, picked from one repetition's draws
        # ((a1, a2) of parties 1..5 per randomness slot).
        self.party_randomness = tuple(
            itemgetter(*[10 * r + 2 * q + t for r in range(self.n_mul + 1) for t in (0, 1)])
            for q in range(5))

        # Static bytes before each element run, in encoding order.
        zero = _u32(0)
        layout = [(bytes([VIEW_TAG]) + _u32(self.n_public), self.n_public),
                  (_u32(self.n_secret), self.n_secret)]
        gid_slots = self.mul_gids + (REFRESH_SLOT,)
        layout.append((_u32(len(gid_slots)) + _u32(gid_slots[0]), 2))
        layout += [(_u32(gid), 2) for gid in gid_slots[1:]]
        layout += [(zero * gap + _u32(5), 5) for gap in gaps]
        layout.append((_u32(5), 5))
        w = self.width
        template = []
        static = b""
        for chunk, n in layout:
            static += chunk
            if n:
                template.append((static, n * w))
                static = b""
        self.template = tuple(template)
        self.view_length = sum(len(static) + n for static, n in self.template)
        # A one-byte field's encoding is the static bytes with a %c per
        # element: one bytes formatting.
        self.byte_format = (b"".join(static.replace(b"%", b"%%") + b"%c" * n
                                     for static, n in template) if w == 1 else None)

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
    """c's program, compiled on first use and kept on the circuit object."""
    prog = c.__dict__.get("_program")
    if prog is None:
        prog = c.__dict__["_program"] = Program(c)
    return prog


@dataclass(frozen=True)
class GateRandomness:
    """Full randomness bundle for one execution: each party's flat
    randomness vector, in party order, laid out as its view records it."""

    parties: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class View:
    public_inputs: tuple[int, ...]
    secret_shares: tuple[int, ...]
    randomness: tuple[int, ...]
    messages: tuple[tuple[int, ...], ...]
    zin: tuple[int, ...]
    bcast: tuple[int, ...]
    # (program, canonical bytes, decoded), set by decode_view (decoded
    # True: the view passed its shape and range checks) or the first
    # view_bytes call.  Not an init field, so a view made by
    # dataclasses.replace starts without it and is encoded afresh.
    _encoding: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class OutMessages:
    """Everything one party sent, recomputed from its view: the outgoing
    resharing row per messaging multiplication (post-order), the outgoing
    zero-share row and the broadcast refreshed share."""

    mul: tuple[tuple[int, ...], ...]
    open_z: tuple[int, ...]
    open_bcast: int


@dataclass(frozen=True)
class ExecutionResult:
    views: tuple[View, ...]
    outputs: tuple[FieldElement, ...]


def random_gate_randomness(rng: RandomSource, c: Circuit) -> GateRandomness:
    """Draws (a1, a2) for parties 1..5 at each messaging multiplication
    in ascending gate-id order, then for the five refresh sharings."""
    prog = program(c)
    draws = rng.randbelows(prog.p, 5 * prog.n_rand)
    return GateRandomness(tuple(pick(draws) for pick in prog.party_randomness))


# ---------------------------------------------------------------------------
# The interpreter, and honest execution through it.


def _interpret(prog: Program, inputs: Sequence[Sequence[int]],
               scalars: Sequence[Sequence[int]], n: int, exchange) -> list[int]:
    """Run prog's ops over n lanes, given the n_in input columns and each
    smul scalar's column.  At each messaging multiplication exchange(d, r)
    gets the lanes' products d and the randomness rank r, and returns the
    five columns the lanes received, one per sender, to recombine.  The
    refresh exchanges zeros at rank n_mul.  Returns each lane's refreshed
    share: its root share plus the zero shares it received."""
    p = prog.p
    l0, l1, l2, l3, l4 = prog.lam
    const = {v: [v] * n for v in set(prog.init[prog.n_in:])}
    vals = [*inputs, *[const[v] for v in prog.init[prog.n_in:]]]
    for code, dst, a, b, r in prog.ops:
        y = vals[b]
        if code == ADD:
            vals[dst] = [(u + v) % p for u, v in zip(vals[a], y)]
        elif code == MUL:
            cols = exchange([u * v % p for u, v in zip(vals[a], y)], r)
            vals[dst] = [(l0 * u0 + l1 * u1 + l2 * u2 + l3 * u3 + l4 * u4) % p
                         for u0, u1, u2, u3, u4 in zip(*cols)]
        else:
            vals[dst] = [k * v % p for k, v in zip(scalars[a], y)]
    root = vals[prog.root]
    del vals  # free the wire columns before the caller builds its views
    return [sum(t) % p for t in zip(root, *exchange([0] * n, prog.n_mul))]


def run_protocol(s: Statement, input_sharings: Sequence[Sequence[Sequence[int]]],
                 rands: Sequence[GateRandomness]) -> tuple[ExecutionResult, ...]:
    """Execute the full protocol once per repetition, as 5n party lanes of
    one pass: lane q*n + k is party q+1 in repetition k.  input_sharings
    holds each secret wire's five party columns (`sss.share`), and
    rands[k] is repetition k's gate randomness.  Returns each
    repetition's five views and outputs, in repetition order."""
    c = s.circuit
    prog = program(c)
    p = prog.p
    n = len(rands)
    if len(input_sharings) != prog.n_secret:
        raise MithError(
            f"need {prog.n_secret} input sharings, got {len(input_sharings)}")
    if n < 1 or any(len(sh) != 5 or any(len(col) != n for col in sh)
                    for sh in input_sharings):
        raise MithError("each input sharing needs five party columns of one share per lane")
    if ({len(g.parties) for g in rands} != {5}
            or {len(r) for g in rands for r in g.parties} != {prog.n_rand}):
        raise MithError(
            f"missing randomness: each party needs {prog.n_rand} values")
    pubs = tuple(x.value for x in s.public_inputs)
    lanes = 5 * n
    inputs = [*[[v] * lanes for v in pubs],
              *[list(chain.from_iterable(sh)) for sh in input_sharings]]
    rand = [g.parties[q] for q in range(5) for g in rands]
    # rc[q][i]: entry i of party q+1's randomness, one value per repetition.
    rc = [list(zip(*rand[k:k + n])) for k in range(0, lanes, n)]
    msgs = []

    def exchange(d, r):
        """Party q+1 reshares its products with its rank-r randomness, and
        party q'+1 receives column q' of that: the sharing's five columns
        in a row are the lanes' column from q+1.  Views keep each lane's
        five received values."""
        cols = [list(chain.from_iterable(share_lanes(d[k:k + n], rq[2 * r], rq[2 * r + 1], p)))
                for k, rq in zip(range(0, lanes, n), rc)]
        msgs.append(list(zip(*cols)))
        return cols

    own = _interpret(prog, inputs, [[k] * lanes for k in prog.scalars(pubs)], lanes, exchange)
    del rc
    zin = msgs.pop()
    bcast = list(zip(*[own[k:k + n] for k in range(0, lanes, n)]))
    secs = zip(*inputs[prog.n_public:]) if prog.n_secret else repeat(())
    mm = zip(*msgs) if prog.n_mul else repeat(())
    views = [View(pubs, ss, rr, msg, z, bc)
             for ss, rr, msg, z, bc in zip(secs, rand, mm, zin, bcast * 5)]
    m = c.modulus
    return tuple(ExecutionResult(tuple(views[k::n]), (FieldElement(dot5(prog.lam, bc, p), m),) * 5)
                 for k, bc in enumerate(bcast))


# ---------------------------------------------------------------------------
# View replay: everything below recomputes a party's run from its view
# alone and must never trust any other data.


def _elements(v: View) -> tuple[int, ...]:
    return (*v.public_inputs, *v.secret_shares, *v.randomness,
            *chain.from_iterable(v.messages), *v.zin, *v.bcast)


def valid_view(c: Circuit, views: Sequence[View]) -> list[bool]:
    """Shape and range check of each view: every entry an int in [0, p);
    no consistency semantics.  A view that decode_view read under c has
    passed the check there and is not checked again."""
    prog = program(c)
    return [isinstance(v, View) and (v._encoding is not None and v._encoding[0] is prog
                                     and v._encoding[2] or _well_formed(prog, v))
            for v in views]


def _well_formed(prog: Program, v: View) -> bool:
    try:
        if (len(v.public_inputs) != prog.n_public or len(v.secret_shares) != prog.n_secret
                or len(v.randomness) != prog.n_rand or len(v.messages) != prog.n_mul
                or len(v.zin) != 5 or len(v.bcast) != 5
                or any(len(col) != 5 for col in v.messages)):
            return False
        vals = _elements(v)
    except TypeError:
        return False
    return {type(x) for x in vals} == {int} and min(vals) >= 0 and max(vals) < prog.p


def out_messages(c: Circuit, views: Sequence[View]) -> list[OutMessages | None]:
    """Everything each view's party sent, recomputed from that view alone;
    None for a malformed view.  The well-formed views run as the lanes of
    one pass: each reshares with its own randomness and receives the
    columns it recorded."""
    prog = program(c)
    ok = valid_view(c, views)
    lanes = [v for v, good in zip(views, ok) if good]
    if not lanes:
        return [None] * len(views)
    p = prog.p
    rc = list(zip(*[v.randomness for v in lanes]))
    recorded = (tuple(zip(*col)) for col in zip(*[v.messages for v in lanes]))
    zin = tuple(zip(*[v.zin for v in lanes]))
    rows = []

    def exchange(d, r):
        rows.append(share_lanes(d, rc[2 * r], rc[2 * r + 1], p))
        return next(recorded) if r < prog.n_mul else zin

    inputs = list(zip(*[(*v.public_inputs, *v.secret_shares) for v in lanes]))
    scalars = list(zip(*[prog.scalars(v.public_inputs) for v in lanes]))
    own = _interpret(prog, inputs, scalars, len(lanes), exchange)
    zrow = rows.pop()
    mul = zip(*[zip(*row) for row in rows]) if rows else repeat(())
    replays = map(OutMessages, mul, zip(*zrow), own)
    return [next(replays) if good else None for good in ok]


def local_output(c: Circuit, pid: int, v: View, om: OutMessages | None) -> FieldElement | None:
    """pid's protocol output recomputed from its view v and v's replay om
    (its `out_messages` entry); None if v is malformed.

    Reconstructs from the recorded broadcast with pid's own slot replaced
    by its recomputed refreshed share."""
    if om is None:
        return None
    bcast = list(v.bcast)
    bcast[pid - 1] = om.open_bcast
    return FieldElement(dot5(c.modulus.recon_weights, bcast, c.modulus.p), c.modulus)


def _received(v: View, b: int, om_b: OutMessages, a: int) -> bool:
    """Whether view v (of party a) recorded exactly what b's replay says
    b sent to a."""
    k, q = b - 1, a - 1
    return ([col[k] for col in v.messages] == [row[q] for row in om_b.mul]
            and v.zin[k] == om_b.open_z[q] and v.bcast[k] == om_b.open_bcast)


def consistent_views(c: Circuit, x: Sequence[FieldElement],
                     vi: View, vj: View, i: int, j: int,
                     om_i: OutMessages | None, om_j: OutMessages | None) -> bool:
    """Pairwise view consistency for distinct parties i and j, given the
    views' replays om_i and om_j by `out_messages`.

    Checks shapes, that both views carry the public input x, that each
    view's own recorded slots match its own recomputation, and that the
    messages implicit in each view equal the ones recorded by the other.
    """
    if i == j:
        raise MithError("consistency is defined for distinct parties")
    if om_i is None or om_j is None:
        return False
    xs = tuple(e.value for e in x)
    return (tuple(vi.public_inputs) == xs and tuple(vj.public_inputs) == xs
            and _received(vi, i, om_i, i) and _received(vj, j, om_j, j)
            and _received(vi, j, om_j, i) and _received(vj, i, om_i, j))


def rerun_from_views(c: Circuit, x: Sequence[FieldElement],
                     views: Sequence[View]) -> ExecutionResult | None:
    """Re-execute from the inputs and randomness recorded in five views.

    The honest execution they claim to come from, if any; compare its
    views against the originals to settle global consistency.
    """
    if len(views) != N_PARTIES or not all(valid_view(c, views)):
        return None
    sharings = [tuple((v.secret_shares[w],) for v in views)
                for w in range(c.topology.n_secret)]
    rand = GateRandomness(tuple(tuple(v.randomness) for v in views))
    return run_protocol(Statement(c, tuple(x), c.modulus.zero()), sharings, [rand])[0]


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
    p = prog.p
    honest = [k for k in PARTY_IDS if k not in corrupt]
    pubs = tuple(e.value for e in x)
    shares = [tuple(cs[lane].value for cs in corrupt_shares) for lane in (0, 1)]
    rand = ([0] * prog.n_rand, [0] * prog.n_rand)
    msgs = []

    def exchange(d, r):
        """Each corrupt lane reshares its product with fresh randomness,
        stored at rank r; the honest parties' entries are uniform."""
        cols = [None] * 5
        for lane, q in enumerate(corrupt):
            a1, a2 = rng.randbelow(p), rng.randbelow(p)
            rand[lane][2 * r:2 * r + 2] = a1, a2
            row = share_lanes((d[lane],), (a1,), (a2,), p)
            cols[q - 1] = row[i - 1] + row[j - 1]
        for k in honest:
            cols[k - 1] = [rng.randbelow(p), rng.randbelow(p)]
        msgs.append(list(zip(*cols)))
        return cols

    inputs = [[v, v] for v in pubs] + [[a.value, b.value] for a, b in corrupt_shares]
    u_i, u_j = _interpret(prog, inputs, [[k, k] for k in prog.scalars(pubs)], 2, exchange)
    zin = msgs.pop()
    # Fix honest broadcasts so the degree-2 opened sharing hits y.
    pts = ((0, y.value), (i, u_i), (j, u_j))
    bvals = [0] * 5
    bvals[i - 1], bvals[j - 1] = u_i, u_j
    for k in honest:
        bvals[k - 1] = _interp_eval(pts, k, p)
    bcast = tuple(bvals)
    return tuple(View(pubs, shares[lane], tuple(rand[lane]), tuple(m[lane] for m in msgs),
                      zin[lane], bcast) for lane in (0, 1))


# ---------------------------------------------------------------------------
# Canonical view encoding (commitments are computed over these bytes, so
# the layout is bit-exact: tag 0x56, public inputs, secret shares,
# randomness entries in ascending gate-id order with the refresh slot
# last, one count per circuit node in post-order followed by the node's
# incoming column (5 values at a messaging multiplication, none
# elsewhere), then the open-stage data; field elements are fixed-width
# big-endian, list counts 4-byte big-endian).  The program's template
# holds every count and gate id, so encoding interleaves it with the
# packed elements and decoding compares it byte for byte.


def encode_view(c: Circuit, v: View) -> bytes:
    prog = program(c)
    vals = _elements(v)
    if len(vals) != prog.n_elements:
        raise MithError("view does not match the circuit's layout")
    w = prog.width
    if w == 1:
        return prog.byte_format % vals
    blob = b"".join([x.to_bytes(w, "big") for x in vals])
    parts = []
    k = 0
    for static, n in prog.template:
        parts += (static, blob[k:k + n])
        k += n
    return b"".join(parts)


def view_bytes(c: Circuit, v: View) -> bytes:
    """v's canonical encoding under c: the bytes decode_view read v from,
    or encode_view's output, kept on v from the first call on.  The
    views of run_protocol, mpc_simulate and decode_view are frozen
    tuples of ints, so their bytes cannot go stale."""
    prog = program(c)
    enc = v._encoding
    if enc is None or enc[0] is not prog:
        enc = (prog, encode_view(c, v), False)
        object.__setattr__(v, "_encoding", enc)
    return enc[1]


def view_elements(c: Circuit, v: View) -> list[int]:
    """The view's field elements in encoding order (the Pedersen message)."""
    return list(_elements(v))


def view_element_count(c: Circuit) -> int:
    return program(c).n_elements


def encoded_view_length(c: Circuit) -> int:
    return program(c).view_length


def decode_view(c: Circuit, data: bytes) -> View:
    """Strict inverse of encode_view; raises ProofError on any deviation.
    The view keeps data as its encoding (see view_bytes)."""
    prog = program(c)
    if len(data) < prog.view_length:
        raise ProofError("truncated view encoding")
    if len(data) > prog.view_length:
        raise ProofError("trailing bytes after view")
    runs = []
    pos = 0
    for static, n in prog.template:
        end = pos + len(static)
        if data[pos:end] != static:
            raise ProofError(f"view layout mismatch at byte {pos}")
        runs.append(data[end:end + n])
        pos = end + n
    w = prog.width
    blob = b"".join(runs)
    if w == 1:
        vals = list(blob)
    else:
        vals = list(map(int.from_bytes, [blob[k:k + w] for k in range(0, len(blob), w)],
                        repeat("big")))
    if max(vals) >= prog.p:
        raise ProofError("view field element exceeds modulus")
    o1 = prog.n_public
    o2 = prog.n_in
    o3 = o2 + prog.n_rand
    o4 = o3 + 5 * prog.n_mul
    v = View(tuple(vals[:o1]), tuple(vals[o1:o2]), tuple(vals[o2:o3]),
             tuple(tuple(vals[k:k + 5]) for k in range(o3, o4, 5)),
             tuple(vals[o4:o4 + 5]), tuple(vals[o4 + 5:]))
    # Decoding is strict, so data is v's only encoding.
    object.__setattr__(v, "_encoding", (prog, bytes(data), True))
    return v
