"""Arithmetic circuits: data model, text format, validation, evaluation.

A circuit is a tree (shared subterms are duplicated), stored as one tuple
of gate records in post-order with the root last: the order in which the
multiparty evaluation visits the nodes and lays out each view's message
trace.  Every pass over a circuit is one loop over that tuple.  Text
format:

    field 101
    topology 0 1 3
    (add 3 (mul 2 (sinput 0) (sinput 0)) (const 1 1))

Gate ids are the first integer of const/add/mul/smul, in
[0, GATE_ID_BOUND); pinput/sinput take a wire index.  An smul's left
subtree must be public (no sinput): it is evaluated in the clear and
scales the right subtree's sharing.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from mith.errors import CircuitError, CircuitParseError
from mith.field import FieldElement, Modulus

# Gate ids appear in no byte format (views encode elements only); the
# bound stays as input validation, so a gate id is a u32 below 2^32 - 1.
GATE_ID_BOUND = 0xFFFFFFFF

_INPUTS = ("pinput", "sinput")
_BINARY = ("add", "mul", "smul")
_KEYWORDS = {*_INPUTS, "const", *_BINARY}


@dataclass(frozen=True)
class Topology:
    n_public: int
    n_secret: int
    n_gates: int


class Gate(NamedTuple):
    """One node of a circuit; op is its text keyword.  pinput and sinput
    carry their wire index in a and no gate id; const carries its value,
    an int in [0, p), in a; add, mul and smul carry the list indices of
    their operands in a and b."""

    op: str
    gid: int | None
    a: int
    b: int | None = None


@dataclass(frozen=True)
class Circuit:
    topology: Topology
    gates: tuple[Gate, ...]
    modulus: Modulus


@dataclass(frozen=True)
class Statement:
    """Public side of the relation: circuit, public inputs, expected output."""

    circuit: Circuit
    public_inputs: tuple[FieldElement, ...]
    target: FieldElement

    def __post_init__(self):
        if len(self.public_inputs) != self.circuit.topology.n_public:
            raise CircuitError(
                f"statement has {len(self.public_inputs)} public inputs, "
                f"topology wants {self.circuit.topology.n_public}")


@dataclass(frozen=True)
class Witness:
    secret_inputs: tuple[FieldElement, ...]


# ---------------------------------------------------------------------------
# Passes over the gate list


def scalar_marks(c: Circuit) -> list[bool]:
    """Per gate: whether it lies inside some smul's scalar (left) subtree,
    where it is evaluated in the clear.  One reverse pass: every gate
    follows its operands, so its own mark is set before it passes it on."""
    marks = [False] * len(c.gates)
    for i in range(len(c.gates) - 1, -1, -1):
        op, _, a, b = c.gates[i]
        if op in _BINARY:
            marks[a] = marks[i] or op == "smul"
            marks[b] = marks[i]
    return marks


def mul_gate_ids(c: Circuit) -> list[int]:
    """Ids of multiplication gates that exchange messages, in post-order.

    The t-th is a view's exchange t.  Multiplications inside an smul's
    public left subtree are evaluated in the clear and exchange nothing.
    """
    return [g.gid for g, public in zip(c.gates, scalar_marks(c))
            if g.op == "mul" and not public]


def _int_in(x, lo: int, hi: int) -> bool:
    return isinstance(x, int) and lo <= x < hi


def validate_circuit(c: Circuit) -> None:
    """Check every structural invariant; distinct diagnostic per violation."""
    topo = c.topology
    if topo.n_public < 0:
        raise CircuitError(f"topology: public input count {topo.n_public} is negative")
    if topo.n_secret < 1:
        raise CircuitError(f"topology: secret input count {topo.n_secret} must be at least 1")
    if topo.n_gates < 1:
        raise CircuitError(f"topology: gate count {topo.n_gates} must be at least 1")
    p = c.modulus.p
    seen: set[int] = set()
    used = [False] * len(c.gates)
    secret: list[bool] = []  # per gate: does its subtree read an sinput
    for i, (op, gid, a, b) in enumerate(c.gates):
        if op in _INPUTS:
            public = op == "pinput"
            n = topo.n_public if public else topo.n_secret
            if not _int_in(a, 0, n):
                raise CircuitError(
                    f"{'public' if public else 'secret'} input index {a!r} "
                    f"out of range [0, {n})")
            secret.append(not public)
            continue
        if op not in _KEYWORDS:
            raise CircuitError(f"unknown gate op {op!r} at index {i}")
        if not _int_in(gid, 0, GATE_ID_BOUND):
            raise CircuitError(f"gate id {gid!r} out of range [0, {GATE_ID_BOUND})")
        if gid in seen:
            raise CircuitError(f"duplicate gate id {gid}")
        seen.add(gid)
        if op == "const":
            if not _int_in(a, 0, p):
                raise CircuitError(f"constant at gate {gid} is {a!r}, outside [0, {p})")
            secret.append(False)
            continue
        for k in (a, b):
            if not _int_in(k, 0, i):
                raise CircuitError(
                    f"gate {gid} at index {i} reads operand {k!r}, "
                    f"not an earlier gate")
            if used[k]:
                raise CircuitError(
                    f"gate {gid} reads operand {k} that another gate reads: "
                    f"subterms must not be shared")
            used[k] = True
        if op == "smul" and secret[a]:
            raise CircuitError(
                f"smul gate {gid} has a secret input in its scalar "
                f"(left) subtree")
        secret.append(secret[a] or secret[b])
    if False in used[:-1]:
        raise CircuitError(
            f"gate at index {used.index(False)} feeds no later gate: "
            f"a circuit has one root, its last gate")
    if len(seen) != topo.n_gates:
        raise CircuitError(
            f"gate count mismatch: topology declares {topo.n_gates}, tree has {len(seen)}")


# ---------------------------------------------------------------------------
# Evaluation


def gate_values(c: Circuit, public: Sequence[int], secret: Sequence[int]) -> list[int]:
    """Cleartext value of every gate, in list order, as ints in [0, p)."""
    p = c.modulus.p
    vals: list[int] = []
    for op, _, a, b in c.gates:
        if op == "add":
            vals.append((vals[a] + vals[b]) % p)
        elif op in ("mul", "smul"):
            vals.append(vals[a] * vals[b] % p)
        elif op == "const":
            vals.append(a)
        else:
            vals.append(public[a] if op == "pinput" else secret[a])
    return vals


def eval_plain(s: Statement, w: Witness) -> FieldElement:
    """Deterministic cleartext evaluation of the whole circuit."""
    c = s.circuit
    if len(w.secret_inputs) != c.topology.n_secret:
        raise CircuitError(
            f"witness has {len(w.secret_inputs)} secret inputs, "
            f"topology wants {c.topology.n_secret}")
    vals = gate_values(c, [x.value for x in s.public_inputs],
                       [x.value for x in w.secret_inputs])
    return FieldElement(vals[-1], c.modulus)


# ---------------------------------------------------------------------------
# Text format


# A token is a paren or a run of other non-space characters; \s matches
# exactly the characters str.isspace() accepts.
_TOKEN = re.compile(r"[()]|[^\s()]+")
_INT = re.compile(r"-?[0-9]+")


def _int(word: str) -> int:
    """An integer of every text format: ASCII digits, optionally after '-'
    (int() alone also takes '+', '_' and non-ASCII digits)."""
    if not _INT.fullmatch(word):
        raise ValueError(word)
    return int(word)


def _error(message: str, text: str, pos: int) -> CircuitParseError:
    """The error at offset pos of text; its line and column are counted
    only here, on the error path."""
    return CircuitParseError(message, text.count("\n", 0, pos) + 1,
                             pos - text.rfind("\n", 0, pos))


def _tokens(text: str, start: int) -> list[tuple[str, object, int]]:
    """Every token from offset start on, as (kind, value, offset), then
    an end-of-input token at the last token's offset.  The kind is what
    a parser expecting the token calls it.  The whole text is scanned
    before parsing, so a bad token is reported before any structural
    error, wherever it stands."""
    toks: list[tuple[str, object, int]] = []
    for m in _TOKEN.finditer(text, start):
        word, pos = m.group(), m.start()
        if word in ("(", ")"):
            toks.append((repr(word), word, pos))
        elif word.lstrip("-").isdigit():
            try:
                toks.append(("int", _int(word), pos))
            except ValueError:  # "--1", "²", "١٢", or too many digits
                raise _error(f"malformed integer {word[:24]!r}", text, pos) from None
        elif word in _KEYWORDS:
            toks.append(("gate keyword", word, pos))
        else:
            raise _error(f"unexpected token {word!r}", text, pos)
    toks.append(("end", None, toks[-1][2] if toks else start))
    return toks


def _parse_gates(text: str, start: int, p: int) -> list[Gate]:
    """The one gate expression from offset start on, as records in
    post-order: a record is appended as its gate closes, and open binary
    gates wait on an explicit stack for their operands' indices."""
    toks = iter(_tokens(text, start))

    def take(kind: str):
        k, value, pos = next(toks)
        if k == "end":
            raise _error("unexpected end of input", text, pos)
        if k != kind:
            raise _error(f"expected {kind}, got {value!r}", text, pos)
        return value, pos

    def gate_id() -> int:
        gid, pos = take("int")
        if not 0 <= gid < GATE_ID_BOUND:
            raise _error(f"gate id {gid} out of range [0, {GATE_ID_BOUND})", text, pos)
        return gid

    gates: list[Gate] = []
    pending: list[tuple[str, int, list[int]]] = []
    while True:
        take("'('")
        word = take("gate keyword")[0]
        if word in _BINARY:
            pending.append((word, gate_id(), []))
            continue
        if word == "const":
            gates.append(Gate(word, gate_id(), take("int")[0] % p))
        else:
            gates.append(Gate(word, None, take("int")[0]))
        take("')'")
        while pending:
            word, gid, operands = pending[-1]
            operands.append(len(gates) - 1)
            if len(operands) < 2:
                break
            pending.pop()
            gates.append(Gate(word, gid, *operands))
            take("')'")
        else:
            break
    k, value, pos = next(toks)
    if k != "end":
        raise _error(f"trailing input after circuit: {value!r}", text, pos)
    return gates


def _header_ints(line: str, keyword: str, lineno: int) -> list[int]:
    parts = line.split()
    if not parts or parts[0] != keyword:
        raise CircuitParseError(f"expected '{keyword} ...' line", lineno, 1)
    try:
        return [_int(x) for x in parts[1:]]
    except ValueError:
        raise CircuitParseError(
            f"non-integer argument in '{keyword}' line", lineno, 1) from None


def parse_circuit(text: str | bytes) -> Circuit:
    """Parse and validate circuit text; inverse of format_circuit."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CircuitParseError(f"not valid UTF-8: {e}", 1, 1) from None
    lines = text.split("\n")
    if len(lines) < 3:
        raise CircuitParseError("circuit needs field, topology and gate lines", 1, 1)
    fv = _header_ints(lines[0], "field", 1)
    if len(fv) != 1:
        raise CircuitParseError("'field' line takes one integer", 1, 1)
    modulus = Modulus(fv[0])
    tv = _header_ints(lines[1], "topology", 2)
    if len(tv) != 3:
        raise CircuitParseError("'topology' line takes three integers", 2, 1)
    topo = Topology(*tv)
    # Every declared input costs a slot per party and a view element, so
    # the count is capped by the text's size, not only by memory.
    if topo.n_public + topo.n_secret > len(text):
        raise CircuitParseError(
            "topology declares more inputs than the circuit text has bytes", 2, 1)
    gate_text = len(lines[0]) + len(lines[1]) + 2
    c = Circuit(topo, tuple(_parse_gates(text, gate_text, modulus.p)), modulus)
    validate_circuit(c)
    return c


def format_circuit(c: Circuit) -> str:
    """Circuit text: the gates in pre-order, from the root (the last record)."""
    topo = c.topology
    out = [f"field {c.modulus.p}\ntopology {topo.n_public} {topo.n_secret} {topo.n_gates}\n"]
    stack: list = [len(c.gates) - 1]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
            continue
        op, gid, a, b = c.gates[x]
        if op in _INPUTS:
            out.append(f"({op} {a})")
        elif op == "const":
            out.append(f"(const {gid} {a})")
        else:
            out.append(f"({op} {gid} ")
            stack += (")", b, " ", a)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Statement / witness files

def _statement_head(s: Statement) -> str:
    """A statement's field, target and public lines, each ending in a newline."""
    lines = [f"field {s.circuit.modulus.p}", f"target {s.target.value}"]
    if s.public_inputs:
        lines.append("public " + " ".join(str(v.value) for v in s.public_inputs))
    return "".join(line + "\n" for line in lines)


def canonical_statement_bytes(s: Statement) -> bytes:
    """Canonical byte form of a statement (circuit inlined); hashed into
    proofs and session hellos."""
    return (_statement_head(s) + format_circuit(s.circuit)).encode("utf-8")


def statement_hash(s: Statement) -> bytes:
    """SHA-256 of s's canonical bytes, computed on first use and kept on the
    Statement object, so callers that reuse one Statement (the harness
    games, selftest, `mith bench`, a loopback session) print it once.
    Threads that ask at once may each print it; all get the digest stored
    first."""
    h = s.__dict__.get("_hash")
    if h is None:
        h = s.__dict__.setdefault("_hash", hashlib.sha256(canonical_statement_bytes(s)).digest())
    return h


def _statement_lines(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key in out:
            raise CircuitError(f"duplicate '{key}' line in statement file")
        out[key] = rest.split()
    return out


def _line_ints(fields: dict[str, list[str]], key: str) -> list[int]:
    try:
        return [_int(v) for v in fields.get(key, [])]
    except ValueError:
        raise CircuitError(f"non-integer value in '{key}' line") from None


def parse_statement(text: str, circuit: Circuit) -> Statement:
    """Statement from file text, against an already-loaded circuit."""
    fields = _statement_lines(text)
    m = circuit.modulus
    if "field" in fields and _line_ints(fields, "field") != [m.p]:
        raise CircuitError(
            f"statement field {' '.join(fields['field'])} does not match "
            f"circuit modulus {m.p}")
    target = _line_ints(fields, "target")
    if len(target) != 1:
        raise CircuitError("statement file needs a 'target <int>' line")
    public = tuple(m.element(v) for v in _line_ints(fields, "public"))
    return Statement(circuit, public, m.element(target[0]))


def statement_circuit_path(text: str) -> str | None:
    fields = _statement_lines(text)
    ref = fields.get("circuit")
    return ref[0] if ref else None


def parse_witness(text: str, circuit: Circuit) -> Witness:
    fields = _statement_lines(text)
    if "secret" not in fields:
        raise CircuitError("witness file needs a 'secret <int>*' line")
    m = circuit.modulus
    secrets_ = tuple(m.element(v) for v in _line_ints(fields, "secret"))
    if len(secrets_) != circuit.topology.n_secret:
        raise CircuitError(
            f"witness has {len(secrets_)} values, topology wants "
            f"{circuit.topology.n_secret}")
    return Witness(secrets_)


def format_statement(s: Statement, circuit_path: str) -> str:
    return _statement_head(s) + f"circuit {circuit_path}\n"


def format_witness(w: Witness) -> str:
    return "secret " + " ".join(str(v.value) for v in w.secret_inputs) + "\n"
