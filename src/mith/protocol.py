"""The commit-challenge-response proof protocol and its repetition.

One repetition: the prover shares the witness, emulates the 5-party
evaluation, commits to all five views; the verifier picks one of the 10
party pairs; the prover opens those two views; the verifier checks the
openings, the pairwise consistency of the views, and that both locally
output the statement's target.  A single repetition convinces with
soundness error 9/10 (plus the commitment binding advantage); sigma
parallel repetitions take that to (9/10)^sigma.

Every prover, cheater and simulator here commits sigma repetitions as one
(state, commit) pair (`commit_rows`): the state holds every view as a row
of one buffer, in `mpc.run_protocol`'s lane order, and their openings;
commit is the COMMIT payload.  A challenge is its byte, an index into
PARTY_PAIRS.  `build_proof` lays (commit, challenges, response) out as a
`Proof`, its bytes: a proof file's sigma fixed-size blocks in one buffer,
checked in strided passes (`well_formed`).  Fiat-Shamir is checked where
a file is read (`parse_proof`), so `check_repetitions` is the one
verifier for proof files, sessions and the security games alike: one
opening check, one replay, one consistency and one output pass over the
joined opened views of all sigma repetitions.
"""

from __future__ import annotations

import hashlib
import math
from itertools import chain
from typing import Callable, Iterable, Sequence

from mith import mpc
from mith.circuit import Circuit, Statement, Witness, statement_hash
from mith.commit import scheme_by_byte, scheme_by_name
from mith.errors import MithError, ProofError, SimulationFailure
from mith.field import RandomSource, Record
from mith.sss import PARTY_IDS, PARTY_PAIRS, random_share_randomness, share, share_sim

N_CHALLENGES = len(PARTY_PAIRS)  # 10

MAGIC = b"MITH6"
# The largest sigma: a proof header, like a session's HELLO, holds it in
# four bytes.
MAX_REPS = 0xFFFFFFFF
# A proof file's challenge-mode byte.  Files carry derived challenges
# only (`parse_proof`): recorded ones would be the writer's choice.
DERIVED_MODE_BYTE = 0x01


class Proof(Record):
    """sigma repetitions as a proof file's blocks in one buffer, each a
    commitment message, a challenge byte (an index into PARTY_PAIRS) and
    a response (`block_fields`).  The challenges are the ones its builder
    drew or derived; `parse_proof` admits derived ones only."""

    scheme: str
    stmt_hash: bytes
    reps: int
    body: bytes

    @property
    def challenges(self) -> bytes:
        """Each repetition's challenge byte: a strided column of body."""
        return self.body[commit_length(scheme_by_name(self.scheme))::len(self.body) // self.reps]


class ProverState(Record):
    """A commit phase of n repetitions: rows holds its 5n views, row
    q*n + k party q+1's in repetition k, and openings[q*n + k] opens
    that row's commitment."""

    rows: bytes
    openings: tuple


def prover_respond(st: ProverState, chs: bytes) -> bytes:
    """Every repetition's response, joined: repetition k's is pair
    PARTY_PAIRS[chs[k]]'s (view, opening) blocks (`serialize_response_block`)."""
    n, L = len(st.openings) // 5, len(st.rows) // max(len(st.openings), 1)
    rs = [(q - 1) * n + k for k, ch in enumerate(chs) for q in PARTY_PAIRS[ch]]
    return serialize_response_block([st.rows[r * L:r * L + L] for r in rs],
                                    [st.openings[r] for r in rs])


def soundness_bound(reps: int) -> float:
    """Acceptance bound for a cheating prover against a live verifier,
    which a session prints: (1 - 1/10)^reps."""
    if reps < 1:
        raise MithError("repetition count must be at least 1")
    return (1 - 1 / N_CHALLENGES) ** reps


def derived_security_bits(reps: int) -> float:
    """Soundness of a proof with derived challenges, in bits: a cheater
    that recommits until no challenge hits its one bad pair needs
    (10/9)^reps attempts on average, so reps * log2(10/9)."""
    return reps * math.log2(N_CHALLENGES / (N_CHALLENGES - 1))


# ---------------------------------------------------------------------------
# Repetition


_CHALLENGE_TABLE = bytes(b % N_CHALLENGES for b in range(256))
_CHALLENGE_REJECTED = bytes(range(250, 256))


def derive_challenge(stmt_digest: bytes, reps: int,
                     commitment_blobs: Sequence[bytes]) -> bytes:
    """All reps non-interactive challenge bytes from one stream, SHAKE-256
    of the statement hash and the commit-phase blobs (`challenge_blobs`):
    each byte b below 250, in order, gives challenge b % 10, so each is
    exactly uniform.  The first read, reps + reps/8 + 16 bytes, is
    lengthened if too few survive.  The CLI prints the bits this mode
    delivers (`derived_security_bits`)."""
    xof = hashlib.shake_256(b"".join([stmt_digest, *commitment_blobs]))
    n = reps + reps // 8 + 16
    while len(picked := xof.digest(n).translate(_CHALLENGE_TABLE, _CHALLENGE_REJECTED)) < reps:
        n *= 2
    return picked[:reps]


def challenge_blobs(commit: bytes) -> list[bytes]:
    """derive_challenge's commitment blobs for a commit phase: one SHA-256
    over its COMMIT payload, every commitment message in repetition order.
    A session's CHALLENGE frame echoes the same digest of the same bytes."""
    return [hashlib.sha256(commit).digest()]


def commit_rows(scheme, rows: bytes, keys: Sequence[bytes]) -> tuple[ProverState, bytes]:
    """The (state, commit) of n = len(keys) / 5 repetitions whose views
    are rows in row order (`ProverState`), keys[5k + q] drawn for party q+1
    in repetition k: each row committed under its key, repetition k's
    commitment message its five commitments in party order, and commit
    the n messages joined."""
    n, L = len(keys) // 5, len(rows) // len(keys)
    openings = tuple([key for q in PARTY_IDS for key in keys[q - 1::5]])
    starts = chain.from_iterable(zip(*[range(q * n * L, (q + 1) * n * L, L) for q in range(5)]))
    return ProverState(rows, openings), serialize_commitment_msg(
        scheme.commit_view(keys, (rows[a:a + L] for a in starts)))


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
    if not all(0 <= v.value < p for v in w.secret_inputs):
        raise MithError(f"witness value not below the field modulus {p}")
    coeffs = random_share_randomness(rng, p, n * reps)
    sharings = [share(v.value, coeffs[2 * k::2 * n], coeffs[2 * k + 1::2 * n], p)
                for k, v in enumerate(w.secret_inputs)]
    return mpc.run_protocol(s, sharings, mpc.random_gate_randomness(rng, c, reps))


def commit_repetitions(w: Witness, s: Statement, reps: int, rng: RandomSource,
                       scheme) -> tuple[ProverState, bytes]:
    """The commit phase of sigma independent runs (`run_repetitions`), the
    five views of each committed under keys of a third draw: keys[5k + q]
    for party q+1 in repetition k (`commit_rows`)."""
    rows = run_repetitions(w, s, reps, rng)
    return commit_rows(scheme, rows, scheme.keygen(rng, 5 * reps))


def respond_repetitions(s: Statement, state: ProverState, commit: bytes,
                        rng: RandomSource, scheme, mode: str) -> Proof:
    """The challenge and response phases for a commit phase (state,
    commit).  Challenges are hash-derived from the commitments, or in
    transcript mode rng-drawn in repetition order, as an interactive
    verifier would have sent them (`parse_proof` rejects a file of such a
    proof)."""
    digest, reps = statement_hash(s), len(state.openings) // 5
    if mode == "derived":
        chs = derive_challenge(digest, reps, challenge_blobs(commit))
    elif mode == "transcript":
        chs = rng.randbelows(N_CHALLENGES, reps)
    else:
        raise MithError(f"unknown challenge mode {mode!r}")
    return build_proof(s.circuit, scheme, digest, commit, chs, prover_respond(state, chs))


def prove_repeated(w: Witness, s: Statement, reps: int, rng: RandomSource,
                   scheme=None, mode: str = "derived") -> Proof:
    """sigma independent runs of the honest prover (`commit_repetitions`,
    then `respond_repetitions`)."""
    scheme = scheme or scheme_by_name("prf")
    state, commit = commit_repetitions(w, s, reps, rng, scheme)
    return respond_repetitions(s, state, commit, rng, scheme, mode)


def check_repetitions(s: Statement, proof: Proof) -> list[bool]:
    """The verifier's check of each repetition, for the challenge the
    proof records: openings verify, views pairwise consistent, both
    outputs hit the target; each, the openings too, is one call over the
    opened views of every repetition (`opened_views`).  Malformed data
    yields False, never an exception: a repetition whose challenge byte
    is 10 or more is checked as for that byte mod 10, and fails."""
    if proof.reps < 1:
        return []
    c, scheme = s.circuit, scheme_by_name(proof.scheme, s.circuit.modulus.p)
    body, fields = proof.body, block_fields(c, scheme)
    chs = proof.challenges.translate(_CHALLENGE_TABLE)
    starts = range(0, len(body), len(body) // proof.reps)
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
    return [gi and gj and ok and ch < N_CHALLENGES for gi, gj, ok, ch
            in zip(good[::2], good[1::2], consistent, proof.challenges)]


def accepts(s: Statement, proof: Proof, checks) -> bool:
    """The acceptance rule: the proof is for s, has a repetition, and every
    repetition's check (`check_repetitions`) passes."""
    return proof.reps >= 1 and proof.stmt_hash == statement_hash(s) and all(checks)


def verify_repeated(s: Statement, proof: Proof) -> bool:
    """Accept iff the proof is for s and every repetition passes
    `check_repetitions`."""
    return accepts(s, proof, check_repetitions(s, proof))


# ---------------------------------------------------------------------------
# Zero-knowledge simulator


def zk_simulate_once(s: Statement, rng: RandomSource,
                     scheme=None) -> tuple[int, bytes, ProverState]:
    """One witness-free simulator attempt with a uniform challenge guess:
    (guess, commitment message, state).  The state's rows are the
    simulated views for the guessed pair and the all-zero view elsewhere,
    each committed under its key."""
    scheme = scheme or scheme_by_name("prf")
    c = s.circuit
    guess = rng.randbelow(N_CHALLENGES)
    pair = i, j = PARTY_PAIRS[guess]
    corrupt_shares = [share_sim(rng, pair, c.modulus) for _ in range(c.topology.n_secret)]
    views = [bytes(mpc.encoded_view_length(c))] * 5
    views[i - 1], views[j - 1] = mpc.mpc_simulate(c, s.public_inputs, pair, corrupt_shares,
                                                  s.target, rng)
    st, cm = commit_rows(scheme, b"".join(views), scheme.keygen(rng, 5))
    return guess, cm, st


def zk_simulate(s: Statement, verifier: Callable[[Statement, bytes], int],
                max_retries: int = 1000, rng: RandomSource | None = None,
                scheme=None) -> Proof:
    """Rejection sampling: retry with fresh randomness until the verifier's
    challenge byte matches the guess; the one-repetition proof that
    answers it."""
    if max_retries < 1:
        raise MithError("max_retries must be at least 1")
    rng = rng or RandomSource()
    scheme = scheme or scheme_by_name("prf")
    for _ in range(max_retries):
        guess, cm, st = zk_simulate_once(s, rng, scheme)
        if verifier(s, cm) == guess:
            chs = bytes([guess])
            return build_proof(s.circuit, scheme, statement_hash(s), cm, chs,
                               prover_respond(st, chs))
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


def commit_length(scheme) -> int:
    """Bytes of one commitment message: five length-prefixed commitments."""
    return 5 * (4 + scheme.commitment_length)


def block_lengths(c: Circuit, scheme) -> tuple[int, int]:
    """Bytes of one commitment message and of one response."""
    return commit_length(scheme), 2 * (8 + mpc.encoded_view_length(c) + scheme.opening_length)


def build_proof(c: Circuit, scheme, stmt_hash: bytes, commit: bytes, chs: bytes,
                resp: bytes) -> Proof:
    """The Proof of len(chs) repetitions with COMMIT payload commit,
    challenge bytes chs and RESPONSE payload resp, each block one of each;
    ProofError if a payload's length does not fit."""
    (m, r), reps = block_lengths(c, scheme), len(chs)
    if (len(commit), len(resp)) != (m * reps, r * reps):
        raise ProofError("COMMIT or RESPONSE payload of the wrong length")
    return Proof(scheme.name, stmt_hash, reps, b"".join(chain.from_iterable(zip(
        [commit[k:k + m] for k in range(0, m * reps, m)], [chs[k:k + 1] for k in range(reps)],
        [resp[k:k + r] for k in range(0, r * reps, r)]))))


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
    scheme = scheme_by_name(proof.scheme, c.modulus.p)
    return b"".join([MAGIC, bytes([scheme.scheme_byte, DERIVED_MODE_BYTE]),
                     proof.reps.to_bytes(4, "big"), proof.stmt_hash, proof.body])


def parse_proof(data: bytes, c: Circuit) -> Proof:
    """The Proof data spells, once `well_formed` and every challenge derived
    from its statement hash and commitments, else ProofError."""
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
    body = data[HEADER_LENGTH:]
    proof = well_formed(Proof(scheme.name, data[11:HEADER_LENGTH], reps, body), c)
    m, chs = commit_length(scheme), proof.challenges
    derived = derive_challenge(proof.stmt_hash, reps, challenge_blobs(b"".join(
        [body[k:k + m] for k in range(0, len(body), len(body) // reps)])))
    if derived != chs:
        k = next(k for k in range(reps) if derived[k] != chs[k])
        raise ProofError(f"challenge of repetition {k} is not the one derived from the "
                         "commitments")
    return proof
