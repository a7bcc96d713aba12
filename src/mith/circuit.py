"""Arithmetic circuits: data model, text format, validation, evaluation.

Circuits are trees (shared subterms are duplicated), mirroring the
message-trace layout of the multiparty evaluation.  Text format:

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
from dataclasses import dataclass

from mith.errors import CircuitError, CircuitParseError
from mith.field import FieldElement, Modulus

# Gate ids are 4-byte fields of the view encoding, and the largest u32
# marks its refresh slot, so every gate id lies below it.
GATE_ID_BOUND = 0xFFFFFFFF


@dataclass(frozen=True)
class Topology:
    n_public: int
    n_secret: int
    n_gates: int


@dataclass(frozen=True)
class PInput:
    wire: int


@dataclass(frozen=True)
class SInput:
    wire: int


@dataclass(frozen=True)
class Constant:
    gid: int
    value: FieldElement


class _BinaryGate:
    """==, hash and repr of a gate tree, each one walk with an explicit
    stack; the dataclass-generated ones recurse once per level.  A
    Circuit's own generated methods call these once, on its root."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if isinstance(a, _BinaryGate):
                if a.gid != b.gid:
                    return False
                stack += ((a.left, b.left), (a.right, b.right))
            elif a != b:
                return False
        return True

    def __hash__(self):
        hashes: list[int] = []
        for g in iter_gates(self):
            if isinstance(g, _BinaryGate):
                right, left = hashes.pop(), hashes.pop()
                hashes.append(hash((type(g), g.gid, left, right)))
            else:
                hashes.append(hash(g))
        return hashes[0]

    def __repr__(self):
        out = []
        stack: list = [self]
        while stack:
            g = stack.pop()
            if isinstance(g, str):
                out.append(g)
            elif isinstance(g, _BinaryGate):
                out.append(f"{type(g).__name__}(gid={g.gid!r}, left=")
                stack += (")", g.right, ", right=", g.left)
            else:
                out.append(repr(g))
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Addition(_BinaryGate):
    gid: int
    left: "Gate"
    right: "Gate"


@dataclass(frozen=True, eq=False, repr=False)
class Multiplication(_BinaryGate):
    gid: int
    left: "Gate"
    right: "Gate"


@dataclass(frozen=True, eq=False, repr=False)
class SMultiplication(_BinaryGate):
    gid: int
    left: "Gate"
    right: "Gate"


Gate = PInput | SInput | Constant | Addition | Multiplication | SMultiplication
_BINARY = (Addition, Multiplication, SMultiplication)


@dataclass(frozen=True)
class Circuit:
    topology: Topology
    root: Gate
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
# Tree walks.  Every pass is iterative, so circuit depth is not bounded by
# the interpreter's recursion limit.


def iter_gates(gate: Gate):
    """Post-order walk over every node of the tree."""
    stack = [(gate, False)]
    while stack:
        g, expanded = stack.pop()
        if expanded or not isinstance(g, _BINARY):
            yield g
        else:
            stack += ((g, True), (g.right, False), (g.left, False))


def gate_ids(gate: Gate) -> list[int]:
    return [g.gid for g in iter_gates(gate) if not isinstance(g, (PInput, SInput))]


def mul_gate_ids(circuit: Circuit) -> list[int]:
    """Ids of multiplication gates that exchange messages, ascending.

    Multiplications inside an smul's public left subtree are evaluated in
    the clear and consume no randomness.
    """
    out = []
    stack = [(circuit.root, False)]
    while stack:
        g, public = stack.pop()
        if isinstance(g, _BINARY):
            if isinstance(g, Multiplication) and not public:
                out.append(g.gid)
            stack += ((g.left, public or isinstance(g, SMultiplication)), (g.right, public))
    return sorted(out)


def validate_circuit(c: Circuit) -> None:
    """Check every structural invariant; distinct diagnostic per violation."""
    topo = c.topology
    if topo.n_public < 0:
        raise CircuitError(f"topology: public input count {topo.n_public} is negative")
    if topo.n_secret < 1:
        raise CircuitError(f"topology: secret input count {topo.n_secret} must be at least 1")
    if topo.n_gates < 1:
        raise CircuitError(f"topology: gate count {topo.n_gates} must be at least 1")
    seen: set[int] = set()
    secret: list[bool] = []  # per finished subtree: does it read an sinput
    for g in iter_gates(c.root):
        if isinstance(g, PInput):
            if not 0 <= g.wire < topo.n_public:
                raise CircuitError(
                    f"public input index {g.wire} out of range [0, {topo.n_public})")
            secret.append(False)
            continue
        if isinstance(g, SInput):
            if not 0 <= g.wire < topo.n_secret:
                raise CircuitError(
                    f"secret input index {g.wire} out of range [0, {topo.n_secret})")
            secret.append(True)
            continue
        if not 0 <= g.gid < GATE_ID_BOUND:
            raise CircuitError(f"gate id {g.gid} out of range [0, {GATE_ID_BOUND})")
        if g.gid in seen:
            raise CircuitError(f"duplicate gate id {g.gid}")
        seen.add(g.gid)
        if isinstance(g, Constant):
            if g.value.modulus != c.modulus:
                raise CircuitError(
                    f"constant at gate {g.gid} uses modulus "
                    f"{g.value.modulus.p}, circuit uses {c.modulus.p}")
            secret.append(False)
            continue
        right, left = secret.pop(), secret.pop()
        if isinstance(g, SMultiplication) and left:
            raise CircuitError(
                f"smul gate {g.gid} has a secret input in its scalar "
                f"(left) subtree")
        secret.append(left or right)
    if len(seen) != topo.n_gates:
        raise CircuitError(
            f"gate count mismatch: topology declares {topo.n_gates}, tree has {len(seen)}")


# ---------------------------------------------------------------------------
# Evaluation


def _evaluate(root: Gate, leaf) -> FieldElement:
    """Cleartext post-order evaluation; leaf(g) gives each leaf's value."""
    vals: list[FieldElement] = []
    for g in iter_gates(root):
        if isinstance(g, _BINARY):
            right, left = vals.pop(), vals.pop()
            vals.append(left + right if isinstance(g, Addition) else left * right)
        else:
            vals.append(leaf(g))
    return vals[0]


def eval_public(gate: Gate, public_inputs, modulus: Modulus) -> FieldElement:
    """Cleartext evaluation of a public (sinput-free) subtree."""
    def leaf(g):
        if isinstance(g, PInput):
            return public_inputs[g.wire]
        if isinstance(g, SInput):
            raise CircuitError("secret input inside a public subtree")
        return g.value

    return _evaluate(gate, leaf)


def eval_plain(s: Statement, w: Witness) -> FieldElement:
    """Deterministic cleartext evaluation of the whole circuit."""
    topo = s.circuit.topology
    if len(w.secret_inputs) != topo.n_secret:
        raise CircuitError(
            f"witness has {len(w.secret_inputs)} secret inputs, "
            f"topology wants {topo.n_secret}")

    def leaf(g):
        if isinstance(g, PInput):
            return s.public_inputs[g.wire]
        if isinstance(g, SInput):
            return w.secret_inputs[g.wire]
        return g.value

    return _evaluate(s.circuit.root, leaf)


def relation_holds(s: Statement, w: Witness) -> bool:
    return eval_plain(s, w) == s.target


# ---------------------------------------------------------------------------
# Text format

_KEYWORDS = {"pinput", "sinput", "const", "add", "mul", "smul"}
_BINARY_WORDS = {"add": Addition, "mul": Multiplication, "smul": SMultiplication}
_WORDS = {cls: word for word, cls in _BINARY_WORDS.items()}


class _Tokenizer:
    def __init__(self, text: str, line_offset: int):
        self.text = text
        self.pos = 0
        self.line = line_offset
        self.col = 1

    def _advance(self, ch: str):
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1

    def tokens(self):
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isspace():
                self._advance(ch)
                continue
            line, col = self.line, self.col
            if ch in "()":
                self._advance(ch)
                yield ch, ch, line, col
                continue
            start = self.pos
            while self.pos < len(self.text) and not self.text[self.pos].isspace() \
                    and self.text[self.pos] not in "()":
                self._advance(self.text[self.pos])
            word = self.text[start:self.pos]
            if word.lstrip("-").isdigit():
                try:
                    value = int(word)
                except ValueError:  # "--1", "²", or too many digits
                    raise CircuitParseError(
                        f"malformed integer {word[:24]!r}", line, col) from None
                yield "int", value, line, col
            elif word in _KEYWORDS:
                yield "kw", word, line, col
            else:
                raise CircuitParseError(f"unexpected token {word!r}", line, col)


class _Parser:
    def __init__(self, text: str, line_offset: int):
        self._toks = list(_Tokenizer(text, line_offset).tokens())
        self._i = 0

    def _peek(self):
        if self._i >= len(self._toks):
            return None
        return self._toks[self._i]

    def _next(self, expect: str | None = None):
        tok = self._peek()
        if tok is None:
            last = self._toks[-1] if self._toks else ("", "", 1, 1)
            raise CircuitParseError("unexpected end of input", last[2], last[3])
        self._i += 1
        kind, value, line, col = tok
        if expect is not None and kind != expect:
            raise CircuitParseError(
                f"expected {expect}, got {value!r}", line, col)
        return tok

    def _int(self) -> int:
        return self._next("int")[1]

    def _gate_id(self) -> int:
        _, gid, line, col = self._next("int")
        if not 0 <= gid < GATE_ID_BOUND:
            raise CircuitParseError(
                f"gate id {gid} out of range [0, {GATE_ID_BOUND})", line, col)
        return gid

    def _close(self):
        kind, value, line, col = self._next()
        if kind != ")":
            raise CircuitParseError(f"expected ')', got {value!r}", line, col)

    def gate(self, modulus: Modulus) -> Gate:
        """One gate expression; open binary gates wait on an explicit stack."""
        pending: list[tuple[type, int, list[Gate]]] = []
        while True:
            kind, value, line, col = self._next()
            if kind != "(":
                raise CircuitParseError(f"expected '(', got {value!r}", line, col)
            kind, word, line, col = self._next()
            if kind != "kw":
                raise CircuitParseError(f"expected gate keyword, got {word!r}", line, col)
            if word in _BINARY_WORDS:
                pending.append((_BINARY_WORDS[word], self._gate_id(), []))
                continue
            if word == "pinput":
                node: Gate = PInput(self._int())
            elif word == "sinput":
                node = SInput(self._int())
            else:
                gid = self._gate_id()
                node = Constant(gid, modulus.element(self._int()))
            self._close()
            while pending:
                cls, gid, children = pending[-1]
                children.append(node)
                if len(children) < 2:
                    break
                pending.pop()
                node = cls(gid, *children)
                self._close()
            else:
                return node

    def finish(self):
        tok = self._peek()
        if tok is not None:
            raise CircuitParseError(
                f"trailing input after circuit: {tok[1]!r}", tok[2], tok[3])


def _header_ints(line: str, keyword: str, lineno: int) -> list[int]:
    parts = line.split()
    if not parts or parts[0] != keyword:
        raise CircuitParseError(f"expected '{keyword} ...' line", lineno, 1)
    try:
        return [int(x) for x in parts[1:]]
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
    parser = _Parser("\n".join(lines[2:]), 3)
    root = parser.gate(modulus)
    parser.finish()
    c = Circuit(topo, root, modulus)
    validate_circuit(c)
    return c


def _format_gate(root: Gate) -> str:
    out = []
    stack: list = [root]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif isinstance(g, PInput):
            out.append(f"(pinput {g.wire})")
        elif isinstance(g, SInput):
            out.append(f"(sinput {g.wire})")
        elif isinstance(g, Constant):
            out.append(f"(const {g.gid} {g.value.value})")
        else:
            out.append(f"({_WORDS[type(g)]} {g.gid} ")
            stack += (")", g.right, " ", g.left)
    return "".join(out)


def format_circuit(c: Circuit) -> str:
    topo = c.topology
    return (f"field {c.modulus.p}\n"
            f"topology {topo.n_public} {topo.n_secret} {topo.n_gates}\n"
            f"{_format_gate(c.root)}\n")


# ---------------------------------------------------------------------------
# Statement / witness files

def canonical_statement_bytes(s: Statement) -> bytes:
    """Canonical byte form of a statement (circuit inlined); hashed into
    proofs and session hellos."""
    lines = [f"field {s.circuit.modulus.p}", f"target {s.target.value}"]
    if s.public_inputs:
        lines.append("public " + " ".join(str(v.value) for v in s.public_inputs))
    text = "\n".join(lines) + "\n" + format_circuit(s.circuit)
    return text.encode("utf-8")


def statement_hash(s: Statement) -> bytes:
    return hashlib.sha256(canonical_statement_bytes(s)).digest()


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
        return [int(v) for v in fields.get(key, [])]
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
    lines = [f"field {s.circuit.modulus.p}", f"target {s.target.value}"]
    if s.public_inputs:
        lines.append("public " + " ".join(str(v.value) for v in s.public_inputs))
    lines.append(f"circuit {circuit_path}")
    return "\n".join(lines) + "\n"


def format_witness(w: Witness) -> str:
    return "secret " + " ".join(str(v.value) for v in w.secret_inputs) + "\n"
