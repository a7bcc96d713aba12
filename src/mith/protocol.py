"""The commit-challenge-response proof protocol and its repetition.

One repetition: the prover shares the witness, emulates the 5-party
evaluation, commits to all five views; the verifier picks one of the 10
party pairs; the prover opens those two views; the verifier checks the
openings, the pairwise consistency of the views, and that both locally
output the statement's target.  A single repetition convinces with
soundness error 9/10 (plus the commitment binding advantage); sigma
parallel repetitions take that to (9/10)^sigma.

Every prover, cheater and simulator here commits sigma repetitions as one
(state, msgs) pair (`commit_rows`): the state holds every view as a row
of one buffer, in `mpc.run_protocol`'s lane order, and their openings.
`respond_repetitions` turns such a pair into a `Proof`, opening two rows
per repetition, and `check_repetitions` is the one verifier,
for proof files, sessions and the security games alike.  A `Proof` is
its bytes: a proof file's sigma fixed-size blocks in one buffer, checked
in strided passes (`well_formed`) by `parse_proof` and a session.
`check_repetitions` verifies all sigma repetitions at once: one opening
check, one challenge stream, one replay, one consistency and one output
pass over the joined opened views.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Sequence

from mith import mpc
from mith.circuit import Circuit, Statement, Witness, statement_hash
from mith.commit import scheme_by_byte, scheme_by_name
from mith.errors import MithError, ProofError, SimulationFailure
from mith.field import RandomSource
from mith.sss import PARTY_IDS, PARTY_PAIRS, random_share_randomness, share, share_sim

N_CHALLENGES = len(PARTY_PAIRS)  # 10

MAGIC = b"MITH6"
# The largest sigma: a proof header, like a session's HELLO, holds it in
# four bytes.
MAX_REPS = 0xFFFFFFFF
# A proof file's challenge-mode byte.  Files carry derived challenges
# only: recorded ("transcript") challenges would be the writer's choice.
DERIVED_MODE_BYTE = 0x01


@dataclass(frozen=True)
class Proof:
    """sigma repetitions as a proof file's blocks in one buffer, each a
    commitment message, a challenge byte (an index into PARTY_PAIRS) and
    a response (`block_fields`).  challenge_mode is "derived" (recomputed
    from the commitments, the only mode with a file form) or "transcript"
    (drawn by the verifier holding the proof, in memory only)."""

    scheme: str
    challenge_mode: str
    stmt_hash: bytes
    reps: int
    body: bytes

    @property
    def challenges(self) -> bytes:
        """Each repetition's challenge byte: a strided column of body."""
        cm_len = 5 * (4 + scheme_by_name(self.scheme).commitment_length)
        return self.body[cm_len::len(self.body) // self.reps]


@dataclass(frozen=True)
class ProverState:
    """A commit phase of n repetitions: rows holds its 5n views, row
    q*n + k party q+1's in repetition k, and openings[q*n + k] opens
    that row's commitment."""

    rows: bytes
    openings: tuple


def prover_respond(st: ProverState, chs: Sequence[tuple[int, int]]) -> bytes:
    """Every repetition's response, joined: repetition k's is pair chs[k]'s
    (view, opening) blocks (`serialize_response_block`)."""
    n, L = len(st.openings) // 5, len(st.rows) // max(len(st.openings), 1)
    rs = [(q - 1) * n + k for k, ch in enumerate(chs) for q in ch]
    return serialize_response_block([st.rows[r * L:r * L + L] for r in rs],
                                    [st.openings[r] for r in rs])


def soundness_bound(reps: int, eps_b: float = 0.0) -> float:
    """Acceptance bound for a cheating prover against a live verifier,
    which a session prints: (1 - 1/10 + eps_b)^reps."""
    if reps < 1:
        raise MithError("repetition count must be at least 1")
    if not 0 <= eps_b < 0.1:
        raise MithError("binding advantage must lie in [0, 1/10)")
    return (1 - 1 / N_CHALLENGES + eps_b) ** reps


def derived_security_bits(reps: int) -> float:
    """Soundness of a proof with derived challenges, in bits: a cheater
    that recommits until no challenge hits its one bad pair needs
    (10/9)^reps attempts on average, so reps * log2(10/9)."""
    return reps * math.log2(N_CHALLENGES / (N_CHALLENGES - 1))


# ---------------------------------------------------------------------------
# Repetition


_CHALLENGE_TABLE = bytes(b % N_CHALLENGES for b in range(256))
_PAIR_BYTE = {pair: bytes([b]) for b, pair in enumerate(PARTY_PAIRS)}
_CHALLENGE_REJECTED = bytes(range(250, 256))


def derive_challenge(stmt_digest: bytes, reps: int,
                     commitment_blobs: Sequence[bytes]) -> list[tuple[int, int]]:
    """All reps non-interactive challenges from one stream, SHAKE-256 of
    the statement hash and the commit-phase blobs (`challenge_blobs`):
    each byte below 250, in order, gives pair b % 10, so each challenge is
    exactly uniform.  The first read, reps + reps/8 + 16 bytes, is
    lengthened if too few survive.  The CLI prints the bits this mode
    delivers (`derived_security_bits`)."""
    xof = hashlib.shake_256(b"".join([stmt_digest, *commitment_blobs]))
    n = reps + reps // 8 + 16
    while len(picked := xof.digest(n).translate(_CHALLENGE_TABLE, _CHALLENGE_REJECTED)) < reps:
        n *= 2
    return [PARTY_PAIRS[b] for b in picked[:reps]]


def challenge_blobs(msgs: Sequence[bytes]) -> list[bytes]:
    """derive_challenge's commitment blobs for a proof: one SHA-256 over
    every commitment message in repetition order.  A session's CHALLENGE
    frame echoes the same digest of the same bytes."""
    return [hashlib.sha256(b"".join(msgs)).digest()]


def commit_rows(scheme, rows: bytes, keys: Sequence[bytes]) -> tuple[ProverState, list[bytes]]:
    """The (state, msgs) of n = len(keys) / 5 repetitions whose views are
    rows in row order (`ProverState`), keys[5k + q] drawn for party q+1 in
    repetition k: each row committed under its key, repetition k's message
    its five commitments in party order."""
    n, L = len(keys) // 5, len(rows) // len(keys)
    openings = tuple([key for q in PARTY_IDS for key in keys[q - 1::5]])
    starts = chain.from_iterable(zip(*[range(q * n * L, (q + 1) * n * L, L) for q in range(5)]))
    joined = serialize_commitment_msg(scheme.commit_view(keys, (rows[a:a + L] for a in starts)))
    m = len(joined) // n
    return ProverState(rows, openings), [joined[k:k + m] for k in range(0, len(joined), m)]


def run_repetitions(w: Witness, s: Statement, reps: int, rng: RandomSource) -> bytearray:
    """sigma in-the-head runs for w, `mpc.run_protocol`'s rows:
    every repetition's sharing polynomials (a1, a2 per secret wire) in one
    draw, then its gate randomness in another, each repetition's values a
    slice of each; then one `run_protocol` evaluates every repetition as a
    lane, writing each view as a row."""
    if not 1 <= reps <= MAX_REPS:
        raise MithError(f"repetition count must be in [1, {MAX_REPS}]")
    c = s.circuit
    p, n = c.modulus.p, c.topology.n_secret
    if len(w.secret_inputs) != n:
        raise MithError("witness does not cover the secret wires")
    coeffs = random_share_randomness(rng, p, n * reps)
    sharings = [share(v.value, coeffs[2 * k::2 * n], coeffs[2 * k + 1::2 * n], p)
                for k, v in enumerate(w.secret_inputs)]
    return mpc.run_protocol(s, sharings, mpc.random_gate_randomness(rng, c, reps))


def commit_repetitions(w: Witness, s: Statement, reps: int, rng: RandomSource,
                       scheme) -> tuple[ProverState, list[bytes]]:
    """The commit phase of sigma independent runs (`run_repetitions`), the
    five views of each committed under keys of a third draw: keys[5k + q]
    for party q+1 in repetition k (`commit_rows`)."""
    rows = run_repetitions(w, s, reps, rng)
    return commit_rows(scheme, rows, scheme.keygen(rng, 5 * reps))


def respond_repetitions(s: Statement, state: ProverState,
                        msgs: Sequence[bytes], rng: RandomSource, scheme,
                        mode: str) -> Proof:
    """The challenge and response phases for a commit phase (state,
    msgs).  Challenges are hash-derived from all commitments, or in
    transcript mode rng-drawn in repetition order, as an interactive
    verifier would have sent them (such a proof has no file form)."""
    digest = statement_hash(s)
    if mode == "derived":
        chs = derive_challenge(digest, len(msgs), challenge_blobs(msgs))
    elif mode == "transcript":
        chs = [PARTY_PAIRS[b] for b in rng.randbelows(N_CHALLENGES, len(msgs))]
    else:
        raise MithError(f"unknown challenge mode {mode!r}")
    resp = prover_respond(state, chs)
    size = len(resp) // len(msgs) if msgs else 1
    resps = [resp[k:k + size] for k in range(0, len(resp), size)]
    return Proof(scheme.name, mode, digest, len(msgs), b"".join(
        chain.from_iterable(zip(msgs, map(_PAIR_BYTE.__getitem__, chs), resps))))


def prove_repeated(w: Witness, s: Statement, reps: int, rng: RandomSource,
                   scheme=None, mode: str = "derived") -> Proof:
    """sigma independent runs of the honest prover (`commit_repetitions`,
    then `respond_repetitions`)."""
    scheme = scheme or scheme_by_name("prf")
    state, msgs = commit_repetitions(w, s, reps, rng, scheme)
    return respond_repetitions(s, state, msgs, rng, scheme, mode)


def check_repetitions(s: Statement, proof: Proof) -> list[tuple[bool, bool]]:
    """The verifier.  Per repetition: (challenge source ok, check ok).  A
    transcript-mode challenge was drawn by the verifier holding the proof
    and is taken as recorded; any other must equal the challenge derived
    from the commitments.  The check: openings verify, views pairwise
    consistent, both outputs hit the target; each, the openings too, is
    one call over the opened views of every repetition (`opened_views`).
    Malformed data yields False, never an exception."""
    if proof.reps < 1:
        return []
    c, scheme = s.circuit, scheme_by_name(proof.scheme, s.circuit.modulus.p)
    body, chs, fields = proof.body, proof.challenges, block_fields(c, scheme)
    (cm_len, _), starts = block_lengths(c, scheme), range(0, len(body), len(body) // proof.reps)
    if proof.challenge_mode == "transcript":
        derived = [PARTY_PAIRS[ch] for ch in chs]
    else:
        derived = derive_challenge(proof.stmt_hash, proof.reps, challenge_blobs(
            [body[k:k + cm_len] for k in starts]))
    rows = opened_views(c, proof)
    n, ((_, L), (oi, ol), _, (oj, _)) = scheme.commitment_length, fields[5:]
    coms = [(fields[i - 1][0], fields[j - 1][0]) for i, j in PARTY_PAIRS]
    opens = scheme.verify_view(
        (rows[r:r + L] for r in range(0, len(rows), L)),
        [body[k + a:k + a + n] for k, ch in zip(starts, chs) for a in coms[ch]],
        [body[k + a:k + a + ol] for k in starts for a in (oi, oj)])
    ok, to = mpc.out_messages(c, s.public_inputs, rows)
    good = [a and b and v for a, b, v in zip(ok, mpc.local_output(c, rows, s.target), opens)]
    consistent = mpc.consistent_views(c, rows, chs, to)
    return [(d == PARTY_PAIRS[ch], gi and gj and ok) for d, ch, gi, gj, ok
            in zip(derived, chs, good[::2], good[1::2], consistent)]


def accepts(s: Statement, proof: Proof, checks) -> bool:
    """The acceptance rule: the proof is for s, has a repetition, and every
    pair in checks (`check_repetitions`) passes."""
    return (proof.reps >= 1 and proof.stmt_hash == statement_hash(s)
            and all(ch_ok and ok for ch_ok, ok in checks))


def verify_repeated(s: Statement, proof: Proof) -> bool:
    """Accept iff the proof is for s and every repetition passes both
    checks of `check_repetitions`."""
    return accepts(s, proof, check_repetitions(s, proof))


# ---------------------------------------------------------------------------
# Zero-knowledge simulator


def zk_simulate_once(s: Statement, rng: RandomSource,
                     scheme=None) -> tuple[tuple[int, int], bytes, ProverState]:
    """One witness-free simulator attempt with a uniform challenge guess:
    (guess, commitment message, state).  The state's rows are the
    simulated views for the guessed pair and the all-zero view elsewhere,
    each committed under its key."""
    scheme = scheme or scheme_by_name("prf")
    c = s.circuit
    guess = PARTY_PAIRS[rng.randbelow(N_CHALLENGES)]
    corrupt_shares = [share_sim(rng, guess, c.modulus) for _ in range(c.topology.n_secret)]
    i, j = guess
    views = [bytes(mpc.encoded_view_length(c))] * 5
    views[i - 1], views[j - 1] = mpc.mpc_simulate(c, s.public_inputs, guess, corrupt_shares,
                                                  s.target, rng)
    st, (cm,) = commit_rows(scheme, b"".join(views), scheme.keygen(rng, 5))
    return guess, cm, st


def zk_simulate(s: Statement,
                verifier: Callable[[Statement, bytes], tuple[int, int]],
                max_retries: int = 1000, rng: RandomSource | None = None,
                scheme=None) -> Proof:
    """Rejection sampling: retry with fresh randomness until the verifier's
    challenge matches the guess; the one-repetition transcript-mode proof
    that answers it."""
    if max_retries < 1:
        raise MithError("max_retries must be at least 1")
    rng = rng or RandomSource()
    scheme = scheme or scheme_by_name("prf")
    for _ in range(max_retries):
        guess, cm, st = zk_simulate_once(s, rng, scheme)
        ch = verifier(s, cm)
        if ch == guess:
            return Proof(scheme.name, "transcript", statement_hash(s), 1,
                         cm + _PAIR_BYTE[ch] + prover_respond(st, [ch]))
    raise SimulationFailure(
        f"challenge guess missed {max_retries} times in a row")


# ---------------------------------------------------------------------------
# Block codec and proof file.  A proof file is: magic, scheme byte,
# challenge-mode byte (always DERIVED_MODE_BYTE), sigma (4-byte BE),
# statement hash, then the body: per repetition 5 length-prefixed
# commitments, a challenge byte (index into the lexicographic pair
# order) and two (view, opening) blocks, each a length-prefixed view
# (its elements only, `mpc.encode_view`) and a length-prefixed opening.  The
# circuit and the scheme fix every length (`block_fields`), so the body
# is checked in strided columns.  A session's COMMIT and RESPONSE
# payloads are its commitment messages and responses.

HEADER_LENGTH = 43


def block_lengths(c: Circuit, scheme) -> tuple[int, int]:
    """Bytes of one commitment message and of one response."""
    return (5 * (4 + scheme.commitment_length),
            2 * (8 + mpc.encoded_view_length(c) + scheme.opening_length))


def block_fields(c: Circuit, scheme) -> list[tuple[int, int]]:
    """(offset, length) in a proof block of each field after its length
    prefix: the five commitments in party order, then (after the
    challenge byte) the first view and opening, the second view and opening."""
    out, pos = [], 0
    v, o = mpc.encoded_view_length(c), scheme.opening_length
    for k, n in enumerate((scheme.commitment_length,) * 5 + (v, o, v, o)):
        pos += 4 + (k == 5)
        out.append((pos, n))
        pos += n
    return out


def opened_views(c: Circuit, proof: Proof) -> bytes:
    """The views proof opens, joined: row 2k is repetition k's view of
    the pair's lower party, row 2k+1 its higher's.  Joined once per
    block layout and kept on the proof (`well_formed`, then the checks)."""
    (a, n), _, (b, _), _ = layout = block_fields(c, scheme_by_name(proof.scheme))[5:]
    kept = proof.__dict__.get("_opened")
    if kept is None or kept[0] != layout:
        body = proof.body
        kept = proof.__dict__["_opened"] = (layout, b"".join(
            [body[k + x:k + x + n] for k in range(0, len(body), len(body) // proof.reps)
             for x in (a, b)]))
    return kept[1]


def well_formed(proof: Proof, c: Circuit) -> Proof:
    """proof, once its body is proof.reps blocks whose every field
    parses, else ProofError: its length, each length prefix (one strided
    comparison per byte), the challenge bytes, the opened views' elements
    and the scheme's commitments and openings (`parse_fields`)."""
    scheme = scheme_by_name(proof.scheme, c.modulus.p)
    fields = block_fields(c, scheme)
    body, reps, size = proof.body, proof.reps, sum(fields[-1])
    if len(body) < size * reps:
        raise ProofError("truncated proof")
    if len(body) > size * reps:
        raise ProofError("trailing bytes after proof")
    for pos, n in fields:
        prefix = n.to_bytes(4, "big")
        if any(body[pos - 4 + t::size] != prefix[t:t + 1] * reps for t in range(4)):
            raise ProofError(f"length prefix at block byte {pos - 4} does not state {n}")
    if max(proof.challenges) >= N_CHALLENGES:
        raise ProofError(f"challenge byte {max(proof.challenges)} out of range")
    if not mpc.program(c).cols.below_p(opened_views(c, proof)):
        raise ProofError("view field element exceeds modulus")
    starts = range(0, len(body), size)
    scheme.parse_fields((body[k + a:k + a + n] for k in starts for a, n in fields[:5]),
                        (body[k + a:k + a + n] for k in starts for a, n in fields[6::2]))
    return proof


def _length_prefixed(parts: list[bytes]) -> bytes:
    """parts joined, each after its length in 4 big-endian bytes; the
    prefix of each length is made once."""
    prefix = {n: n.to_bytes(4, "big") for n in set(map(len, parts))}
    if len(prefix) == 1:  # one length: its prefix is the separator
        (sep,) = prefix.values()
        return sep.join([b"", *parts])
    return b"".join(chain.from_iterable(zip(map(prefix.__getitem__, map(len, parts)), parts)))


def serialize_commitment_msg(commitments: Sequence[bytes]) -> bytes:
    """The commitment messages of len(commitments) / 5 repetitions, joined:
    each repetition's five commitments in party order, length-prefixed."""
    if not commitments or len(commitments) % 5:
        raise MithError("commitment message needs 5 entries per repetition")
    return _length_prefixed(commitments)


def serialize_response_block(views: Iterable[bytes], openings: Iterable[bytes]) -> bytes:
    """The (view, opening) blocks of paired views and openings, joined:
    each a length-prefixed view and a length-prefixed opening."""
    return _length_prefixed(list(chain.from_iterable(zip(views, openings, strict=True))))


def serialize_proof(proof: Proof, c: Circuit) -> bytes:
    if proof.challenge_mode != "derived":
        raise MithError(f"a {proof.challenge_mode!r}-mode proof has no file form; "
                        "proof files carry derived challenges only")
    scheme = scheme_by_name(proof.scheme, c.modulus.p)
    return b"".join([MAGIC, bytes([scheme.scheme_byte, DERIVED_MODE_BYTE]),
                     proof.reps.to_bytes(4, "big"), proof.stmt_hash, proof.body])


def parse_proof(data: bytes, c: Circuit) -> Proof:
    if len(data) < HEADER_LENGTH:
        raise ProofError("truncated proof")
    if data[:5] != MAGIC:
        if data[:4] == MAGIC[:4]:
            raise ProofError(
                f"unsupported proof version {data[:5].decode('ascii', 'replace')}; "
                f"this build reads {MAGIC.decode()}")
        raise ProofError("bad proof magic")
    scheme = scheme_by_byte(data[5])
    if data[6] != DERIVED_MODE_BYTE:
        raise ProofError(
            f"challenge-mode byte {data[6]:#04x} rejected: proof files carry only "
            f"derived challenges ({DERIVED_MODE_BYTE:#04x}), since recorded "
            "ones would be chosen by the prover")
    reps = int.from_bytes(data[7:11], "big")
    if reps < 1:
        raise ProofError("proof has no repetitions")
    return well_formed(Proof(scheme.name, "derived", data[11:HEADER_LENGTH], reps,
                             data[HEADER_LENGTH:]), c)
