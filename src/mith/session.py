"""Interactive 3-pass execution over a reliable byte stream: framing, and
a driver over `protocol`'s commit phase, proof builder and verifier: the
verifier's three payloads are a `protocol.Proof` (`protocol.build_proof`).

Framing: 4-byte big-endian payload length, 1-byte message type, payload.
Phases advance strictly HELLO -> COMMIT -> CHALLENGE -> RESPONSE ->
RESULT; any out-of-order or unknown frame aborts the session.  The
verifier draws its challenges only after the full COMMIT payload has
arrived.  Repetitions are batched, one frame per phase, so a session is
three round trips regardless of sigma.

The CHALLENGE payload carries a SHA-256 digest of the COMMIT payload the
verifier received, ahead of the sigma challenge bytes; the prover aborts
on mismatch.  Without that echo a bit flipped in flight inside one of
the three unopened commitments would go unnoticed, since the verifier
only ever opens two of the five.  It is the digest a proof file's
derived challenges are computed from (`protocol.challenge_blobs`).
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import NoReturn

from mith import protocol as proto
from mith.circuit import Statement, Witness, statement_hash
from mith.commit import scheme_by_byte, scheme_by_name
from mith.errors import MithError, SessionError
from mith.field import RandomSource

MSG_HELLO = 0x01
MSG_COMMIT = 0x02
MSG_CHALLENGE = 0x03
MSG_RESPONSE = 0x04
MSG_RESULT = 0x05
MSG_ERROR = 0x7F

_KNOWN_TYPES = {MSG_HELLO, MSG_COMMIT, MSG_CHALLENGE, MSG_RESPONSE,
                MSG_RESULT, MSG_ERROR}

MAX_PAYLOAD = 1 << 24
# HELLO's version byte.  Version 5 commits and opens views as MITH6 proof
# files do: a PRF commitment is SHA-256(key || view).
PROTOCOL_VERSION = 0x05
DEFAULT_TIMEOUT = 30.0

ERR_HASH_MISMATCH = 1
ERR_BAD_FRAME = 2
ERR_PHASE = 3
ERR_INTERNAL = 4


@dataclass(frozen=True)
class Frame:
    msg_type: int
    payload: bytes


def encode_frame(f: Frame) -> bytes:
    if len(f.payload) > MAX_PAYLOAD:
        raise SessionError(
            f"payload of {len(f.payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte cap", "encode")
    if f.msg_type not in _KNOWN_TYPES:
        raise SessionError(f"unknown frame type {f.msg_type:#x}", "encode")
    return len(f.payload).to_bytes(4, "big") + bytes([f.msg_type]) + f.payload


class Transport:
    """Ordered reliable byte stream over a socket.  Each send_all and each
    recv_exactly must finish within timeout seconds of its call."""

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_TIMEOUT):
        self._sock = sock
        self._timeout = timeout

    def send_all(self, data: bytes) -> None:
        try:
            self._sock.settimeout(self._timeout)
            self._sock.sendall(data)
        except OSError as e:
            raise SessionError(f"send failed: {e}", "transport") from None

    def recv_exactly(self, n: int) -> bytes:
        deadline = time.monotonic() + self._timeout
        chunks = []
        got = 0
        while got < n:
            try:
                # A peer that sends a byte at a time cannot stretch the read.
                self._sock.settimeout(max(deadline - time.monotonic(), 1e-6))
                chunk = self._sock.recv(n - got)
            except socket.timeout:
                raise SessionError("timed out waiting for peer", "transport") from None
            except OSError as e:
                raise SessionError(f"receive failed: {e}", "transport") from None
            if not chunk:
                raise SessionError("connection closed mid-frame", "transport")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        self._sock.close()


def decode_frame(transport: Transport) -> Frame:
    """Read exactly one frame (5 + length bytes) from the stream."""
    header = transport.recv_exactly(5)
    length = int.from_bytes(header[:4], "big")
    if length > MAX_PAYLOAD:
        raise SessionError(f"frame length {length} exceeds cap", "decode")
    msg_type = header[4]
    if msg_type not in _KNOWN_TYPES:
        raise SessionError(f"unknown frame type {msg_type:#x}", "decode")
    payload = transport.recv_exactly(length) if length else b""
    return Frame(msg_type, payload)


def _send(transport: Transport, msg_type: int, payload: bytes) -> None:
    """Send one frame.  A frame that cannot be encoded is reported to the
    peer with an ERROR frame first, unless it is that ERROR frame."""
    try:
        data = encode_frame(Frame(msg_type, payload))
    except SessionError as e:
        if msg_type != MSG_ERROR:
            _send_error(transport, ERR_INTERNAL, str(e))
        raise
    transport.send_all(data)


def _send_error(transport: Transport, code: int, message: str) -> None:
    try:
        _send(transport, MSG_ERROR,
              code.to_bytes(2, "big") + message.encode("utf-8"))
    except SessionError:
        pass


def _expect(transport: Transport, msg_type: int, phase: str) -> bytes:
    frame = decode_frame(transport)
    if frame.msg_type == MSG_ERROR:
        code = int.from_bytes(frame.payload[:2], "big")
        text = frame.payload[2:].decode("utf-8", "replace")
        raise SessionError(f"peer error {code}: {text}", phase)
    if frame.msg_type != msg_type:
        raise SessionError(
            f"expected frame type {msg_type:#x}, got {frame.msg_type:#x}", phase)
    return frame.payload


def _hello_payload(scheme_byte: int, reps: int, digest: bytes) -> bytes:
    return (bytes([PROTOCOL_VERSION, scheme_byte])
            + reps.to_bytes(4, "big") + digest)


def _abort(transport: Transport, code: int, message: str, phase: str) -> NoReturn:
    """Tell the peer why the session ends, then end it."""
    _send_error(transport, code, message)
    raise SessionError(message, phase)


def _read_hello(transport: Transport):
    """The peer's HELLO as (scheme byte, reps, statement digest)."""
    payload = _expect(transport, MSG_HELLO, "hello")
    if len(payload) != 38:
        problem = f"hello payload must be 38 bytes, got {len(payload)}"
    elif payload[0] != PROTOCOL_VERSION:
        problem = f"unsupported protocol version {payload[0]}"
    else:
        return payload[1], int.from_bytes(payload[2:6], "big"), payload[6:]
    _abort(transport, ERR_BAD_FRAME, problem, "hello")


def prover_session(transport: Transport, s: Statement, w: Witness, reps: int,
                   scheme=None, rng: RandomSource | None = None) -> bool:
    """Drive the prover side; returns the verifier's verdict."""
    if not 1 <= reps <= proto.MAX_REPS:  # HELLO holds reps in four bytes
        raise MithError(f"repetition count must be in [1, {proto.MAX_REPS}]")
    scheme = scheme or scheme_by_name("prf")
    rng = rng or RandomSource()
    digest = statement_hash(s)

    _send(transport, MSG_HELLO, _hello_payload(scheme.scheme_byte, reps, digest))
    ack_scheme, ack_reps, ack_digest = _read_hello(transport)
    if (ack_scheme, ack_reps, ack_digest) != (scheme.scheme_byte, reps, digest):
        _send_error(transport, ERR_HASH_MISMATCH, "hello parameter mismatch")
        raise SessionError("peer acknowledged different parameters", "hello")

    state, commit_payload = proto.commit_repetitions(w, s, reps, rng, scheme)
    _send(transport, MSG_COMMIT, commit_payload)

    ch_payload = _expect(transport, MSG_CHALLENGE, "challenge")
    if len(ch_payload) != 32 + reps:
        _abort(transport, ERR_BAD_FRAME, "malformed challenge payload", "challenge")
    if [ch_payload[:32]] != proto.challenge_blobs(commit_payload):
        _send_error(transport, ERR_BAD_FRAME,
                    "commit payload digest mismatch")
        raise SessionError(
            "verifier echoed a different commit payload", "challenge")
    challenge_bytes = ch_payload[32:]
    if any(b >= proto.N_CHALLENGES for b in challenge_bytes):
        _abort(transport, ERR_BAD_FRAME, "challenge byte out of range", "challenge")
    _send(transport, MSG_RESPONSE, proto.prover_respond(state, challenge_bytes))

    result = _expect(transport, MSG_RESULT, "result")
    if len(result) != 1 or result[0] > 1:
        raise SessionError("malformed result payload", "result")
    return bool(result[0])


def verifier_session(transport: Transport, s: Statement, reps: int,
                     rng: RandomSource | None = None,
                     capture: list | None = None) -> bool:
    """Drive the verifier side; challenges are drawn only after the full
    COMMIT payload has arrived.  Malformed proof data rejects (verdict
    False); protocol violations raise.  The verdict is verify_repeated's
    on the Proof the frames spell, which is also appended to capture when
    that is a list."""
    if reps < 1:
        raise MithError("repetition count must be at least 1")
    rng = rng or RandomSource()
    digest = statement_hash(s)
    c = s.circuit

    scheme_byte, peer_reps, peer_digest = _read_hello(transport)
    if peer_digest != digest:
        _send_error(transport, ERR_HASH_MISMATCH, "statement hash mismatch")
        raise SessionError("peer proves a different statement", "hello")
    if peer_reps != reps:
        _send_error(transport, ERR_PHASE, "repetition count mismatch")
        raise SessionError(
            f"peer wants {peer_reps} repetitions, we want {reps}", "hello")
    try:
        scheme = scheme_by_byte(scheme_byte)
    except MithError as e:
        _send_error(transport, ERR_BAD_FRAME, str(e))
        raise SessionError(str(e), "hello") from None
    _send(transport, MSG_HELLO, _hello_payload(scheme_byte, reps, digest))

    commit_payload = _expect(transport, MSG_COMMIT, "commit")
    # Commit phase fully received: only now draw the challenges.
    challenges = rng.randbelows(proto.N_CHALLENGES, reps)
    _send(transport, MSG_CHALLENGE, proto.challenge_blobs(commit_payload)[0] + challenges)

    resp_payload = _expect(transport, MSG_RESPONSE, "response")
    # Yield the interpreter lock once: a prover thread in this process then
    # returns from sending RESPONSE at once, not after the checks below.
    time.sleep(0)
    try:
        proof = proto.well_formed(proto.build_proof(
            c, scheme, digest, commit_payload, challenges, resp_payload), c)
    except MithError:
        # Malformed proof data: finish the session with a reject verdict.
        verdict = False
    else:
        if capture is not None:
            capture.append(proof)
        verdict = proto.verify_repeated(s, proof)
    _send(transport, MSG_RESULT, b"\x01" if verdict else b"\x00")
    return verdict


# ---------------------------------------------------------------------------
# TCP endpoints


def connect(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> Transport:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as e:
        raise SessionError(f"connect to {host}:{port} failed: {e}", "connect") from None
    return Transport(sock, timeout)


def listen_once(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> Transport:
    """Accept a single connection and hand back its transport."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        srv.bind((host, port))
        srv.listen(1)
        srv.settimeout(timeout)
        conn, _ = srv.accept()
    except OSError as e:
        raise SessionError(f"listen on {host}:{port} failed: {e}", "listen") from None
    finally:
        srv.close()
    return Transport(conn, timeout)
