"""The commit-challenge-response proof protocol and its repetition.

One run: the prover shares the witness, emulates the 5-party evaluation,
commits to all five views; the verifier picks one of the 10 party pairs;
the prover opens those two views; the verifier checks the openings, the
pairwise consistency of the views, and that both locally output the
statement's target.  A single run convinces with soundness error 9/10
(plus the commitment binding advantage); sigma parallel repetitions take
that to (9/10)^sigma.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Callable, Sequence

from mith import mpc
from mith.circuit import Circuit, Statement, Witness, statement_hash
from mith.commit import scheme_by_byte, scheme_by_name
from mith.errors import MithError, ProofError, SimulationFailure
from mith.field import RandomSource
from mith.sss import (
    PARTY_IDS, PARTY_PAIRS, ShareRandomness, random_share_randomness,
    share, share_sim,
)

N_CHALLENGES = len(PARTY_PAIRS)  # 10

MAGIC = b"MITH2"
MODE_BYTES = {"transcript": 0x00, "derived": 0x01}
MODE_NAMES = {v: k for k, v in MODE_BYTES.items()}


@dataclass(frozen=True)
class ProverRand:
    """Everything one protocol run consumes: per-secret-wire sharing
    polynomials, the gate randomness, and five fresh commit keys."""

    input_r: tuple[ShareRandomness, ...]
    mpc: mpc.GateRandomness
    commit_keys: tuple


@dataclass(frozen=True)
class CommitmentMsg:
    commitments: tuple

    def __post_init__(self):
        if len(self.commitments) != 5:
            raise MithError("commitment message needs 5 entries")


@dataclass(frozen=True)
class Response:
    first: tuple   # (View, opening) for the lower party id
    second: tuple  # (View, opening) for the higher party id


@dataclass(frozen=True)
class Transcript:
    commitment: CommitmentMsg
    challenge: tuple[int, int]
    response: Response


@dataclass(frozen=True)
class Proof:
    scheme: str
    challenge_mode: str
    stmt_hash: bytes
    transcripts: tuple[Transcript, ...]

    @property
    def reps(self) -> int:
        return len(self.transcripts)


@dataclass
class ProverState:
    statement: Statement
    views: tuple
    openings: tuple
    scheme: object


@dataclass
class VerifierState:
    statement: Statement
    commitment: CommitmentMsg
    challenge: tuple[int, int]
    scheme: object


def random_prover_rand(rng: RandomSource, c: Circuit, scheme) -> ProverRand:
    m = c.modulus
    n_el = mpc.view_element_count(c)
    return ProverRand(
        input_r=tuple(random_share_randomness(rng, m)
                      for _ in range(c.topology.n_secret)),
        mpc=mpc.random_gate_randomness(rng, c),
        commit_keys=tuple(scheme.keygen(rng, n_el) for _ in PARTY_IDS),
    )


def prover_commit(rp: ProverRand, w: Witness, s: Statement,
                  scheme) -> tuple[ProverState, CommitmentMsg]:
    """Share the witness, run the protocol in the head, commit to the
    five views."""
    c = s.circuit
    if len(rp.input_r) != c.topology.n_secret:
        raise MithError("prover randomness does not cover the secret wires")
    sharings = [share(v, r) for v, r in zip(w.secret_inputs, rp.input_r)]
    result = mpc.run_protocol(s, sharings, rp.mpc)
    commitments = []
    openings = []
    for key, view in zip(rp.commit_keys, result.views):
        com, op = scheme.commit_view(key, c, view)
        commitments.append(com)
        openings.append(op)
    st = ProverState(s, result.views, tuple(openings), scheme)
    return st, CommitmentMsg(tuple(commitments))


def verifier_challenge(rv: RandomSource, s: Statement,
                       c: CommitmentMsg) -> tuple[VerifierState, tuple[int, int]]:
    """Uniform choice among the 10 pairs; public-coin, ignores c's content."""
    ch = PARTY_PAIRS[rv.randbelow(N_CHALLENGES)]
    return VerifierState(s, c, ch, None), ch


def prover_respond(st: ProverState, ch: tuple[int, int]) -> Response:
    i, j = ch
    return Response(
        (st.views[i - 1], st.openings[i - 1]),
        (st.views[j - 1], st.openings[j - 1]),
    )


def verifier_check(st: VerifierState, r: Response, scheme) -> bool:
    """Openings verify, views pairwise consistent, both outputs hit the
    target.  Malformed data yields False, never an exception.  Each view
    is validated and replayed once."""
    s = st.statement
    c = s.circuit
    i, j = st.challenge
    try:
        (vi, oi), (vj, oj) = r.first, r.second
        replays = []
        for pid, view, opening in ((i, vi, oi), (j, vj, oj)):
            om = mpc.out_messages(c, pid, view)
            if om is None or not scheme.verify_view(
                    c, view, st.commitment.commitments[pid - 1], opening):
                return False
            replays.append(om)
        om_i, om_j = replays
        return (mpc.consistent_views(c, s.public_inputs, vi, vj, i, j, om_i, om_j)
                and mpc.local_output(c, i, vi, om_i) == s.target
                and mpc.local_output(c, j, vj, om_j) == s.target)
    except MithError:
        return False


def soundness_bound(reps: int, eps_b: float = 0.0) -> float:
    """Acceptance bound for a cheating prover: (1 - 1/10 + eps_b)^reps."""
    if reps < 1:
        raise MithError("repetition count must be at least 1")
    if not 0 <= eps_b < 0.1:
        raise MithError("binding advantage must lie in [0, 1/10)")
    return (1 - 1 / N_CHALLENGES + eps_b) ** reps


# ---------------------------------------------------------------------------
# Repetition


def derive_challenge(stmt_digest: bytes, index: int,
                     commitment_blobs: Sequence[bytes]) -> tuple[int, int]:
    """Non-interactive challenge: HMAC keyed by the statement hash over
    the repetition index and the commit-phase blobs (`challenge_blobs`),
    reduced mod 10.  This mode is a hash-derived extension of the
    interactive protocol and is labeled as such by the CLI."""
    mac = hmac.new(stmt_digest, index.to_bytes(4, "big"), hashlib.sha256)
    for blob in commitment_blobs:
        mac.update(blob)
    return PARTY_PAIRS[int.from_bytes(mac.digest(), "big") % N_CHALLENGES]


def challenge_blobs(msgs: Sequence[CommitmentMsg], scheme) -> list[bytes]:
    """derive_challenge's commitment blobs for a proof: one SHA-256 over
    every commitment message in repetition order.  A session's CHALLENGE
    frame echoes the same digest of the same bytes.  Each challenge then
    MACs 36 bytes, so deriving all sigma of them is linear in sigma."""
    h = hashlib.sha256()
    for cm in msgs:
        h.update(serialize_commitment_msg(cm, scheme))
    return [h.digest()]


def prove_repeated(w: Witness, s: Statement, reps: int, rng: RandomSource,
                   scheme=None, mode: str = "derived") -> Proof:
    """sigma independent runs.  Challenges come from the mode's source:
    hash-derived from all commitments, or rng-drawn (transcript mode,
    mirroring what an interactive verifier would have sent)."""
    if reps < 1:
        raise MithError("repetition count must be at least 1")
    if mode not in MODE_BYTES:
        raise MithError(f"unknown challenge mode {mode!r}")
    scheme = scheme or scheme_by_name("prf")
    digest = statement_hash(s)
    states = []
    msgs = []
    for _ in range(reps):
        rp = random_prover_rand(rng, s.circuit, scheme)
        st, cm = prover_commit(rp, w, s, scheme)
        states.append(st)
        msgs.append(cm)
    blobs = challenge_blobs(msgs, scheme)
    transcripts = []
    for k in range(reps):
        if mode == "derived":
            ch = derive_challenge(digest, k, blobs)
        else:
            ch = PARTY_PAIRS[rng.randbelow(N_CHALLENGES)]
        transcripts.append(Transcript(msgs[k], ch, prover_respond(states[k], ch)))
    return Proof(scheme.name, mode, digest, tuple(transcripts))


def verify_repeated(s: Statement, proof: Proof, mode: str | None = None) -> bool:
    """Accept iff every transcript checks out and each challenge matches
    the mode's source.  Transcript mode trusts recorded challenges and is
    only meaningful for sessions the verifier itself drove."""
    mode = mode or proof.challenge_mode
    if mode not in MODE_BYTES:
        raise MithError(f"unknown challenge mode {mode!r}")
    if proof.reps < 1:
        return False
    if proof.stmt_hash != statement_hash(s):
        return False
    scheme = scheme_by_name(proof.scheme, s.circuit.modulus.p)
    blobs = challenge_blobs([t.commitment for t in proof.transcripts], scheme)
    for k, t in enumerate(proof.transcripts):
        if mode == "derived" and t.challenge != derive_challenge(proof.stmt_hash, k, blobs):
            return False
        st = VerifierState(s, t.commitment, t.challenge, scheme)
        if not verifier_check(st, t.response, scheme):
            return False
    return True


# ---------------------------------------------------------------------------
# Zero-knowledge simulator


class SimulatedRun:
    """Commit-phase output of one simulator attempt: real simulated views
    for the guessed pair, dummy commitments elsewhere."""

    def __init__(self, guess: tuple[int, int], commitment: CommitmentMsg,
                 views: dict, openings: dict):
        self.guess = guess
        self.commitment = commitment
        self._views = views
        self._openings = openings

    def respond(self, ch: tuple[int, int]) -> Response | None:
        """The opened pair if the guess was right, else abort."""
        if ch != self.guess:
            return None
        i, j = ch
        return Response((self._views[i], self._openings[i]),
                        (self._views[j], self._openings[j]))


def zk_simulate_once(s: Statement, rng: RandomSource, scheme=None) -> SimulatedRun:
    """One witness-free simulator attempt with a uniform challenge guess."""
    scheme = scheme or scheme_by_name("prf")
    c = s.circuit
    m = c.modulus
    guess = PARTY_PAIRS[rng.randbelow(N_CHALLENGES)]
    corrupt_shares = [
        share_sim(rng, guess, m) for _ in range(c.topology.n_secret)
    ]
    vi, vj = mpc.mpc_simulate(c, s.public_inputs, guess, corrupt_shares,
                              s.target, rng)
    n_el = mpc.view_element_count(c)
    enc_len = mpc.encoded_view_length(c)
    i, j = guess
    commitments = []
    openings = {}
    views = {i: vi, j: vj}
    for pid in PARTY_IDS:
        key = scheme.keygen(rng, n_el)
        if pid in (i, j):
            com, op = scheme.commit_view(key, c, views[pid])
            openings[pid] = op
        else:
            com = scheme.dummy_commitment(key, enc_len, n_el)
        commitments.append(com)
    return SimulatedRun(guess, CommitmentMsg(tuple(commitments)), views, openings)


def zk_simulate(s: Statement,
                verifier: Callable[[Statement, CommitmentMsg], tuple[int, int]],
                max_retries: int = 1000, rng: RandomSource | None = None,
                scheme=None) -> Transcript:
    """Rejection sampling: retry with fresh randomness until the verifier's
    challenge matches the guess."""
    if max_retries < 1:
        raise MithError("max_retries must be at least 1")
    rng = rng or RandomSource()
    for _ in range(max_retries):
        run = zk_simulate_once(s, rng, scheme)
        ch = verifier(s, run.commitment)
        resp = run.respond(ch)
        if resp is not None:
            return Transcript(run.commitment, ch, resp)
    raise SimulationFailure(
        f"challenge guess missed {max_retries} times in a row")


# ---------------------------------------------------------------------------
# Proof file format: magic, scheme byte, challenge-mode byte, sigma
# (4-byte BE), statement hash, then per repetition 5 commitments, a
# challenge byte (index into the lexicographic pair order) and two
# length-prefixed (view, opening) blocks.


def _u32(n: int) -> bytes:
    return n.to_bytes(4, "big")


def _lp(b: bytes) -> bytes:
    return _u32(len(b)) + b


def serialize_response_block(c: Circuit, view, opening, scheme) -> bytes:
    """One (view, opening) block; the view's bytes are the ones its PRF
    commitment was computed over, encoded here only if none were."""
    return _lp(mpc.view_bytes(c, view)) + _lp(scheme.serialize_opening(opening))


def serialize_commitment_msg(msg: CommitmentMsg, scheme) -> bytes:
    return b"".join(_lp(scheme.serialize_commitment(c)) for c in msg.commitments)


def serialize_proof(proof: Proof, c: Circuit) -> bytes:
    scheme = scheme_by_name(proof.scheme, c.modulus.p)
    parts = [MAGIC, bytes([scheme.scheme_byte]),
             bytes([MODE_BYTES[proof.challenge_mode]]),
             _u32(proof.reps), proof.stmt_hash]
    for t in proof.transcripts:
        parts.append(serialize_commitment_msg(t.commitment, scheme))
        parts.append(bytes([PARTY_PAIRS.index(t.challenge)]))
        for view, opening in (t.response.first, t.response.second):
            parts.append(serialize_response_block(c, view, opening, scheme))
    return b"".join(parts)


def parse_proof(data: bytes, c: Circuit) -> Proof:
    rd = mpc._Reader(data)
    magic = rd.take(5)
    if magic != MAGIC:
        if magic[:4] == MAGIC[:4]:
            raise ProofError(
                f"unsupported proof version {magic.decode('ascii', 'replace')}; "
                f"this build reads {MAGIC.decode()}")
        raise ProofError("bad proof magic")
    scheme = scheme_by_byte(rd.take(1)[0], c.modulus.p)
    mode_b = rd.take(1)[0]
    if mode_b not in MODE_NAMES:
        raise ProofError(f"unknown challenge-mode byte {mode_b:#x}")
    reps = rd.u32()
    if reps < 1:
        raise ProofError("proof has no repetitions")
    digest = rd.take(32)
    transcripts = []
    for _ in range(reps):
        commitments = tuple(
            scheme.parse_commitment(rd.take(rd.u32())) for _ in PARTY_IDS)
        ch_idx = rd.take(1)[0]
        if ch_idx >= N_CHALLENGES:
            raise ProofError(f"challenge byte {ch_idx} out of range")
        pairs = []
        for _ in range(2):
            view = mpc.decode_view(c, rd.take(rd.u32()))
            opening = scheme.parse_opening(rd.take(rd.u32()))
            pairs.append((view, opening))
        transcripts.append(Transcript(
            CommitmentMsg(commitments), PARTY_PAIRS[ch_idx],
            Response(pairs[0], pairs[1])))
    if not rd.done():
        raise ProofError("trailing bytes after proof")
    return Proof(scheme.name, MODE_NAMES[mode_b], digest, tuple(transcripts))
