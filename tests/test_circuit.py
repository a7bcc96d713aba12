"""Circuit parsing, validation and plain evaluation."""

import ast
import hashlib
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from mith import circuit, mpc
from mith.circuit import (
    GATE_ID_BOUND, Circuit, Gate, Statement, Topology, canonical_statement_bytes,
    Witness, eval_plain, format_circuit, format_statement, format_witness,
    mul_gate_ids, parse_circuit, parse_statement, parse_witness,
    statement_circuit_path, statement_hash, validate_circuit,
)
from mith.corpus import golden_corpus, random_circuit
from mith.errors import CircuitError, CircuitParseError, MithError
from mith.field import FieldElement, Modulus

from test_fuzz import TREES, render

SQUARE_PLUS_ONE = "field 101\ntopology 0 1 3\n(add 3 (mul 2 (sinput 0) (sinput 0)) (const 1 1))"
S0 = Gate("sinput", None, 0)


def read_tree(text: str):
    """The gate expression of circuit text as nested lists of words, read
    recursively; independent of mith's parser and gate records."""
    words = text.split("\n", 2)[2].replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def expr():
        nonlocal pos
        node, pos = [], pos + 1  # past "("
        while words[pos] != ")":
            if words[pos] == "(":
                node.append(expr())
            else:
                node.append(words[pos])
                pos += 1
        pos += 1
        return node

    return expr()


def show_tree(t) -> str:
    return "(" + " ".join(x if type(x) is str else show_tree(x) for x in t) + ")"


def eval_oracle(text: str, pubs, secs) -> int:
    """Independent integer evaluator over circuit text."""
    p = int(text.split()[1])

    def ev(t):
        if t[0] == "pinput":
            return pubs[int(t[1])] % p
        if t[0] == "sinput":
            return secs[int(t[1])] % p
        if t[0] == "const":
            return int(t[2]) % p
        left, right = ev(t[2]), ev(t[3])
        return (left + right) % p if t[0] == "add" else left * right % p

    return ev(read_tree(text))


def relabel(text: str, offset: int) -> str:
    """Circuit text with every gate id moved by offset."""
    def go(t):
        if t[0] in ("pinput", "sinput"):
            return t
        return [t[0], str(int(t[1]) + offset), *[x if type(x) is str else go(x) for x in t[2:]]]

    head = text.split("\n", 2)
    return f"{head[0]}\n{head[1]}\n{show_tree(go(read_tree(text)))}\n"


def test_parse_square_plus_one():
    c = parse_circuit(SQUARE_PLUS_ONE)
    assert c.modulus.p == 101
    assert c.topology == Topology(0, 1, 3)
    assert c.gates == (Gate("sinput", None, 0), Gate("sinput", None, 0), Gate("mul", 2, 0, 1),
                       Gate("const", 1, 1), Gate("add", 3, 2, 3))
    s = Statement(c, (), c.modulus.element(10))
    assert eval_plain(s, Witness((c.modulus.element(3),))).value == 10


def test_constants_reduced_mod_p():
    c = parse_circuit("field 11\ntopology 0 1 2\n(add 2 (sinput 0) (const 1 -13))")
    assert c.gates[1] == Gate("const", 1, 9)
    assert format_circuit(c).endswith("(add 2 (sinput 0) (const 1 9))\n")


def test_deep_chain_eq_hash_repr():
    """==, hash and repr of a 5,000-deep chain do not recurse: two parses
    compare and hash equal, and a change at the bottom of the chain is
    seen."""
    n = 5000
    text = (f"field 101\ntopology 0 2 {n}\n"
            + "".join(f"(mul {gid} " for gid in range(n, 0, -1))
            + "(sinput 0)" + " (sinput 0))" * n + "\n")
    a, b = parse_circuit(text), parse_circuit(text)
    assert a == b and a.gates == b.gates
    assert hash(a) == hash(b) and hash(a.gates) == hash(b.gates)
    assert repr(a) == repr(b)
    assert repr(a.gates).count("Gate(op='mul', gid=") == n
    other = parse_circuit(text.replace("(sinput 0) (sinput 0))", "(sinput 0) (sinput 1))", 1))
    assert a.gates != other.gates and a != other
    assert format_circuit(a) == text


def test_parse_accepts_bytes():
    c = parse_circuit(SQUARE_PLUS_ONE.encode())
    assert c.topology.n_gates == 3


def test_parse_round_trip_golden_corpus(m11):
    pairs = golden_corpus(m11, 20)
    for s, _ in pairs:
        text = format_circuit(s.circuit)
        assert parse_circuit(text) == s.circuit


def test_parse_round_trip_random_circuits(rnd):
    """Print-then-parse is the identity on 50 random circuits (depth <= 8)."""
    m = Modulus(101)
    for _ in range(50):
        c = random_circuit(rnd, m, n_public=rnd.randrange(3),
                           n_secret=rnd.randrange(1, 4),
                           max_depth=rnd.randrange(1, 9))
        assert parse_circuit(format_circuit(c)) == c


def test_syntax_error_carries_position():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("field 101\ntopology 0 1 1\n(add 1 (sinput 0)")
    assert err.value.line >= 3
    with pytest.raises(CircuitParseError, match="line 3"):
        parse_circuit("field 101\ntopology 0 1 1\n(frob 1)")


def test_parse_error_cases():
    with pytest.raises(CircuitParseError):
        parse_circuit("field 101")
    with pytest.raises(CircuitParseError):
        parse_circuit("field x\ntopology 0 1 1\n(sinput 0)")
    with pytest.raises(CircuitParseError):
        parse_circuit("field 101\ntopology 0 1\n(sinput 0)")
    with pytest.raises(CircuitParseError, match="trailing"):
        parse_circuit(SQUARE_PLUS_ONE + " (const 9 1)")
    with pytest.raises(CircuitParseError):
        parse_circuit(b"\xff\xfe field")


def test_malformed_integer_token_carries_position():
    """Only ASCII digits: int() would read the Arabic-Indic 12 as 12."""
    for word in ("--1", "\u00b2", "\u0661\u0662", "9" * 5000):
        with pytest.raises(CircuitParseError, match="malformed integer.*line 3, column 10"):
            parse_circuit(f"field 101\ntopology 0 1 1\n(const 1 {word})")


@pytest.mark.parametrize("header,line,keyword", [
    ("field 1_01\ntopology 0 1 3", 1, "field"),
    ("field 101\ntopology +0 1 3", 2, "topology"),
    ("field \u0661\u0660\u0661\ntopology 0 1 3", 1, "field"),
], ids=["field-underscore", "topology-plus", "field-arabic-indic"])
def test_header_integers_are_ascii_decimal(header, line, keyword):
    """int() takes '_', '+' and non-ASCII digits; the header does not."""
    with pytest.raises(CircuitParseError, match=f"non-integer argument in '{keyword}' line") as err:
        parse_circuit(header + SQUARE_PLUS_ONE[SQUARE_PLUS_ONE.rindex("\n"):])
    assert (err.value.line, err.value.col) == (line, 1)


@pytest.mark.parametrize("parse,text,key", [
    (parse_statement, "target 1_0\n", "target"),
    (parse_statement, "target +3\n", "target"),
    (parse_witness, "secret \u0663\n", "secret"),
], ids=["target-underscore", "target-plus", "secret-arabic-indic"])
def test_statement_and_witness_integers_are_ascii_decimal(parse, text, key):
    with pytest.raises(CircuitError, match=f"non-integer value in '{key}' line"):
        parse(text, parse_circuit(SQUARE_PLUS_ONE))


@pytest.mark.parametrize("gate_text", ["", "\n", " \n\t\n"])
def test_end_of_input_without_gates_points_at_gate_text(gate_text):
    """Gate text with no token at all ends where it begins: line 3,
    column 1."""
    with pytest.raises(CircuitParseError, match=r"unexpected end of input \(line 3, column 1\)"):
        parse_circuit(f"field 101\ntopology 0 1 1\n{gate_text}")


def _word_at(text: str, pos: int) -> str:
    """The token that starts at pos: a paren, or the run of characters
    up to the next space or paren."""
    end = pos + 1
    if text[pos] not in "()":
        while end < len(text) and not text[end].isspace() and text[end] not in "()":
            end += 1
    return text[pos:end]


def _names(word: str, named) -> bool:
    if type(named) is int:
        return word.lstrip("-").isdigit() and int(word) == named
    return word == named


MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "truncate"]), st.integers(0, 1 << 16),
              st.sampled_from([*"() \n\t-07²x", "add", "smul", "const", " (sinput 0)", "-1",
                               str(GATE_ID_BOUND)])),
    min_size=1, max_size=4)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 1 << 32), MUTATIONS)
def test_parse_error_positions(seed, mutations):
    """Printed random circuits, with characters inserted, deleted and the
    text truncated: every error raised on gate text sits at the first
    character of the token its message names; at end of input, the last
    token."""
    rnd = random.Random(seed)
    c = random_circuit(rnd, Modulus(97), n_public=rnd.randrange(2), n_secret=1,
                       max_depth=rnd.randrange(1, 5))
    *header, gates = format_circuit(c).split("\n", 2)
    for op, i, s in mutations:
        i %= len(gates) + 1
        gates = {"insert": gates[:i] + s + gates[i:], "delete": gates[:i] + gates[i + 1:],
                 "truncate": gates[:i]}[op]
    text = "\n".join([*header, gates])
    try:
        parse_circuit(text)
        return
    except CircuitParseError as e:
        err = e
    except CircuitError:
        return  # gate text that parses but is not a valid circuit
    gate_text = len(text) - len(gates)
    lines = text.split("\n")
    pos = sum(len(line) + 1 for line in lines[:err.line - 1]) + err.col - 1
    message = str(err).rsplit(" (line ", 1)[0]
    if not text[gate_text:].strip():
        assert (err.line, err.col) == (3, 1) and message == "unexpected end of input"
        return
    assert pos == gate_text or text[pos - 1].isspace() or text[pos - 1] in "()" \
        or text[pos] in "()", (message, pos)
    word = _word_at(text, pos)
    named = re.fullmatch(r"(?:malformed integer|unexpected token|expected .*, got"
                         r"|trailing input after circuit:|gate id) (.*?)(?: out of range .*)?",
                         message)
    if message == "unexpected end of input":
        assert not text[pos + len(word):].strip()
    elif message.startswith("malformed integer"):
        assert word[:24] == ast.literal_eval(named[1])
    else:
        assert named and _names(word, ast.literal_eval(named[1])), (message, word)


@pytest.mark.parametrize("gid", [-1, -(1 << 31), GATE_ID_BOUND, 1 << 32, 1 << 70])
def test_gate_id_out_of_range(m11, gid):
    """Gate ids are u32 fields of the view encoding and 0xFFFFFFFF marks
    its refresh slot; anything else is rejected, with a position when
    parsed and by validate_circuit when built in code."""
    for text in (f"(mul {gid} (sinput 0) (sinput 0))", f"(add 1 (sinput 0) (const {gid} 1))"):
        with pytest.raises(CircuitParseError, match=f"gate id {gid} out of range.*line 3"):
            parse_circuit(f"field 11\ntopology 0 1 2\n{text}")
    c = Circuit(Topology(0, 1, 1), (S0, S0, Gate("mul", gid, 0, 1)), m11)
    with pytest.raises(CircuitError, match=f"gate id {gid} out of range"):
        validate_circuit(c)


def test_largest_gate_id_accepted():
    c = parse_circuit(f"field 11\ntopology 0 1 1\n(mul {GATE_ID_BOUND - 1} (sinput 0) (sinput 0))")
    assert c.gates[-1].gid == 0xFFFFFFFE


def test_topology_inputs_capped_by_text_size():
    """A declared input costs memory per party in every pass, so a short
    text cannot declare a billion of them."""
    with pytest.raises(CircuitParseError, match="more inputs than"):
        parse_circuit("field 11\ntopology 1000000000 1 1\n(const 1 1)")
    with pytest.raises(CircuitParseError, match="more inputs than"):
        parse_circuit("field 11\ntopology 0 1000000000 1\n(const 1 1)")
    assert parse_circuit("field 11\ntopology 3 2 1\n(const 1 1)").topology.n_public == 3


def test_secret_index_out_of_range():
    with pytest.raises(CircuitError, match="secret input index 5"):
        parse_circuit("field 101\ntopology 0 1 2\n"
                      "(add 1 (sinput 5) (const 2 1))")


def test_topology_count_mismatch():
    with pytest.raises(CircuitError, match="gate count mismatch"):
        parse_circuit("field 101\ntopology 0 1 7\n"
                      "(add 3 (mul 2 (sinput 0) (sinput 0)) (const 1 1))")


def test_duplicate_gate_id():
    with pytest.raises(CircuitError, match="duplicate gate id"):
        parse_circuit("field 101\ntopology 0 1 3\n"
                      "(add 2 (mul 2 (sinput 0) (sinput 0)) (const 1 1))")


def test_smul_secret_scalar_rejected():
    with pytest.raises(CircuitError, match="smul gate 1"):
        parse_circuit("field 101\ntopology 0 1 1\n"
                      "(smul 1 (sinput 0) (sinput 0))")


def test_validate_topology_bounds(m11):
    c = Circuit(Topology(0, 0, 1), (Gate("const", 1, 1),), m11)
    with pytest.raises(CircuitError, match="secret input count"):
        validate_circuit(c)
    c = Circuit(Topology(-1, 1, 1), (Gate("const", 1, 1),), m11)
    with pytest.raises(CircuitError, match="negative"):
        validate_circuit(c)


@pytest.mark.parametrize("gates, n_gates, message", [
    ((S0, S0, Gate("mul", 1, 0, 2)), 1, "reads operand 2, not an earlier gate"),
    ((S0, S0, Gate("mul", 1, 0, 5)), 1, "reads operand 5, not an earlier gate"),
    ((S0, S0, Gate("mul", 1, -1, 1)), 1, "reads operand -1, not an earlier gate"),
    ((S0, Gate("add", 1, 0, 0)), 1, "another gate reads"),
    ((S0, S0, Gate("mul", 1, 0, 1), Gate("add", 2, 2, 1)), 2, "another gate reads"),
    ((S0, Gate("const", 1, 3), Gate("const", 2, 4), Gate("add", 3, 0, 2)), 3,
     "index 1 feeds no later gate"),
    ((S0, S0, Gate("sub", 1, 0, 1)), 1, "unknown gate op 'sub'"),
    ((S0, S0, Gate("input", 1, 0, 1)), 1, "unknown gate op 'input'"),
    ((S0, S0, Gate("add", None, 0, 1)), 1, "gate id None out of range"),
    ((S0, S0, Gate("add", 1, 0, "1")), 1, "reads operand '1', not an earlier gate"),
    ((Gate("sinput", None, 0.0), S0, Gate("add", 1, 0, 1)), 1, "secret input index 0.0"),
])
def test_validate_gate_list_structure(m11, gates, n_gates, message):
    """A directly built gate list must be a tree in post-order, root last:
    each operand an earlier gate read by no other gate, every gate but
    the root read once, and every op a text keyword."""
    with pytest.raises(CircuitError, match=message):
        validate_circuit(Circuit(Topology(0, 1, n_gates), gates, m11))


@pytest.mark.parametrize("value", [-1, 11, 12, 1 << 70])
def test_validate_constant_out_of_range(m11, value):
    c = Circuit(Topology(0, 1, 2), (S0, Gate("const", 1, value), Gate("add", 2, 0, 1)), m11)
    with pytest.raises(CircuitError, match=f"constant at gate 1 is {value}, outside \\[0, 11\\)"):
        validate_circuit(c)
    validate_circuit(Circuit(Topology(0, 1, 2), (S0, Gate("const", 1, 10), Gate("add", 2, 0, 1)), m11))


# Scalar (left) subtrees of smul gates 10 and 11 hold multiplications as a
# left child, as a right child, under a nested smul and as the subtree's
# root; only muls 8 and 12 lie outside them and exchange messages.
SCALARS = ("(add 5 (mul 2 (pinput 0) (const 1 3)) (smul 4 (const 3 2) (mul 7 (pinput 0) (pinput 0))))",
           "(mul 6 (const 9 4) (pinput 0))")
NESTED_SCALARS = (
    "field 101\ntopology 1 1 13\n"
    f"(add 20 (smul 10 {SCALARS[0]} (mul 8 (sinput 0) (sinput 0)))"
    f" (mul 12 (smul 11 {SCALARS[1]} (sinput 0)) (sinput 0)))\n")


def test_scalar_subtree_multiplications_exchange_nothing():
    c = parse_circuit(NESTED_SCALARS)
    assert mul_gate_ids(c) == [8, 12]
    prog = mpc.program(c)
    assert prog.n_mul == 2 and prog.n_rand == 6
    assert sum(len(muls) for _, muls, _ in prog.layers) == 2
    for x in (0, 1, 5, 100):
        assert prog.scalars((x,)) == tuple(
            eval_oracle(f"field 101\ntopology 1 1 1\n{t}\n", [x], []) for t in SCALARS)


def test_eval_plain_matches_oracle(rnd):
    m = Modulus(101)
    for _ in range(100):
        c = random_circuit(rnd, m, n_public=2, n_secret=2, max_depth=5)
        pubs = [rnd.randrange(101) for _ in range(2)]
        secs = [rnd.randrange(101) for _ in range(2)]
        s = Statement(c, tuple(m.element(v) for v in pubs), m.element(0))
        w = Witness(tuple(m.element(v) for v in secs))
        assert eval_plain(s, w).value == eval_oracle(format_circuit(c), pubs, secs)


def test_eval_plain_matches_oracle_on_golden_corpus(m11):
    for s, w in golden_corpus(m11, 20):
        pubs = [x.value for x in s.public_inputs]
        secs = [x.value for x in w.secret_inputs]
        text = format_circuit(s.circuit)
        assert eval_plain(s, w).value == eval_oracle(text, pubs, secs) == s.target.value


@settings(max_examples=300, deadline=None)
@given(TREES, st.sampled_from([11, 97, 101]),
       st.lists(st.integers(0, 10 ** 6), min_size=10, max_size=10))
def test_eval_plain_matches_oracle_on_generated_trees(tree, p, values):
    """test_fuzz's generated trees: each parsed one evaluates as the
    recursive oracle says, over its own text."""
    body, n_gates = render(tree)
    text = f"field {p}\ntopology 5 5 {n_gates}\n{body}\n"
    try:
        c = parse_circuit(text)
    except MithError:
        assume(False)
    m = c.modulus
    pubs, secs = values[:5], values[5:]
    s = Statement(c, tuple(m.element(v) for v in pubs), m.zero())
    w = Witness(tuple(m.element(v) for v in secs))
    assert eval_plain(s, w).value == eval_oracle(text, pubs, secs)


def test_eval_plain_constant_root(m11):
    c = Circuit(Topology(0, 1, 1), (Gate("const", 1, 6),), m11)
    s = Statement(c, (), m11.element(6))
    for v in range(11):
        assert eval_plain(s, Witness((m11.element(v),))).value == 6


def test_eval_plain_length_mismatch():
    c = parse_circuit(SQUARE_PLUS_ONE)
    s = Statement(c, (), c.modulus.element(10))
    with pytest.raises(CircuitError, match="witness has 2"):
        eval_plain(s, Witness((c.modulus.element(1), c.modulus.element(2))))


def test_eval_independent_of_gate_ids(rnd):
    """Relabeling gate ids never changes the evaluation."""
    m = Modulus(11)
    for _ in range(20):
        c = random_circuit(rnd, m, n_public=0, n_secret=1, max_depth=4)
        c2 = parse_circuit(relabel(format_circuit(c), 1000))
        assert c2.gates != c.gates
        w = Witness((m.element(rnd.randrange(11)),))
        s1 = Statement(c, (), m.element(0))
        s2 = Statement(c2, (), m.element(0))
        assert eval_plain(s1, w) == eval_plain(s2, w)


def relation_holds(s, w):
    """The NP relation: w makes the circuit evaluate to the target."""
    return eval_plain(s, w) == s.target


def test_relation_holds():
    c = parse_circuit(SQUARE_PLUS_ONE)
    m = c.modulus
    s = Statement(c, (), m.element(10))
    assert relation_holds(s, Witness((m.element(3),)))
    assert not relation_holds(s, Witness((m.element(4),)))  # 17 != 10


def test_relation_definition(rnd):
    m = Modulus(11)
    for _ in range(20):
        c = random_circuit(rnd, m, n_public=1, n_secret=1, max_depth=3)
        pub = (m.element(rnd.randrange(11)),)
        w = Witness((m.element(rnd.randrange(11)),))
        target = eval_plain(Statement(c, pub, m.element(0)), w)
        assert relation_holds(Statement(c, pub, target), w)


# ---------------------------------------------------------------------------
# Statement / witness files


def test_statement_file_round_trip(tmp_path):
    c = parse_circuit(SQUARE_PLUS_ONE)
    m = c.modulus
    s = Statement(c, (), m.element(10))
    text = format_statement(s, "sq.arith")
    assert statement_circuit_path(text) == "sq.arith"
    assert parse_statement(text, c) == s
    w = Witness((m.element(3),))
    assert parse_witness(format_witness(w), c) == w


def test_statement_file_with_public_inputs():
    c = parse_circuit("field 11\ntopology 2 1 3\n"
                      "(add 2 (pinput 1) (smul 1 (const 3 1) (sinput 0)))")
    m = c.modulus
    s = Statement(c, (m.element(4), m.element(9)), m.element(1))
    text = format_statement(s, "x.arith")
    assert "public 4 9" in text
    assert parse_statement(text, c) == s


def test_statement_field_mismatch():
    c = parse_circuit(SQUARE_PLUS_ONE)
    with pytest.raises(CircuitError, match="does not match circuit"):
        parse_statement("field 11\ntarget 10\n", c)


def test_non_integer_statement_and_witness_values():
    c = parse_circuit(SQUARE_PLUS_ONE)
    for text in ("target x\n", "field\ntarget 1\n", "field 1x1\ntarget 1\n",
                 "target 1\npublic --2\n", "target \u00b2\n", "target " + "9" * 5000 + "\n"):
        with pytest.raises(CircuitError):
            parse_statement(text, c)
    for text in ("secret x\n", "secret 1.5\n", "secret " + "9" * 5000 + "\n"):
        with pytest.raises(CircuitError, match="non-integer"):
            parse_witness(text, c)


def test_statement_values_reduced_mod_p():
    c = parse_circuit(SQUARE_PLUS_ONE)
    s = parse_statement("target 111\n", c)
    assert s.target.value == 10
    w = parse_witness("secret 104\n", c)
    assert w.secret_inputs[0].value == 3


def test_witness_length_checked():
    c = parse_circuit(SQUARE_PLUS_ONE)
    with pytest.raises(CircuitError, match="witness has 2"):
        parse_witness("secret 1 2\n", c)


def test_statement_hash_distinguishes():
    c = parse_circuit(SQUARE_PLUS_ONE)
    m = c.modulus
    h1 = statement_hash(Statement(c, (), m.element(10)))
    h2 = statement_hash(Statement(c, (), m.element(11)))
    assert len(h1) == 32 and h1 != h2
    assert h1 == statement_hash(Statement(c, (), m.element(10)))


def test_statement_hash_kept_on_its_statement():
    """The digest is the SHA-256 of the canonical bytes, kept on the
    Statement: the same object again, and a Statement with target + 1
    gets its own."""
    c = parse_circuit(SQUARE_PLUS_ONE)
    s = Statement(c, (), c.modulus.element(10))
    h = statement_hash(s)
    assert h == hashlib.sha256(canonical_statement_bytes(s)).digest()
    assert statement_hash(s) is h
    other = Statement(c, (), s.target + c.modulus.one())
    assert statement_hash(other) == hashlib.sha256(canonical_statement_bytes(other)).digest()
    assert statement_hash(other) != h and statement_hash(s) is h


PUBLIC_TIMES_SECRET = "field 11\ntopology 1 1 1\n(mul 1 (pinput 0) (sinput 0))\n"


@pytest.mark.parametrize("value", [11, 12, 256, -1])
def test_statement_values_below_p(value):
    """A public input or target not in [0, p) raises at construction, where
    it once gave a rejected proof (12) or a byte-lane ValueError (256)."""
    c = parse_circuit(PUBLIC_TIMES_SECRET)
    m = c.modulus
    with pytest.raises(CircuitError, match="not an element of F_11"):
        Statement(c, (FieldElement(value, m),), m.element(3))
    with pytest.raises(CircuitError, match="not an element of F_11"):
        Statement(c, (m.element(2),), FieldElement(value, m))


def test_statement_values_in_the_circuit_field():
    c = parse_circuit(PUBLIC_TIMES_SECRET)
    m = c.modulus
    for bad in (Modulus(13).element(2), 2):
        with pytest.raises(CircuitError, match="not an element of F_11"):
            Statement(c, (bad,), m.element(3))
    s = Statement(circuit=c, public_inputs=(m.element(10),), target=m.zero())
    assert s == Statement(c, (m.element(10),), m.zero())


def test_records_are_immutable_values():
    """Statement, like every record, is built by position or keyword, is
    equal and hashes by its fields, prints them, and takes no assignment."""
    c = parse_circuit(PUBLIC_TIMES_SECRET)
    m = c.modulus
    s = Statement(c, (m.element(2),), m.element(3))
    assert s == Statement(c, public_inputs=(m.element(2),), target=m.element(3))
    assert hash(s) == hash(Statement(c, (m.element(2),), m.element(3)))
    assert s != Statement(c, (m.element(2),), m.element(4))
    assert s != (c, (m.element(2),), m.element(3))
    assert repr(c.topology) == "Topology(n_public=1, n_secret=1, n_gates=1)"
    assert repr(Witness((m.element(3),))) == "Witness(secret_inputs=(FieldElement(3 mod 11),))"
    with pytest.raises(AttributeError):
        s.target = m.element(4)
    with pytest.raises(AttributeError):
        del s.circuit
    for args, kwargs in (((c, ()), {}), ((c, (), m.zero(), 1), {}),
                         ((c, (), m.zero()), {"target": m.zero()}),
                         ((c, ()), {"target": m.zero(), "extra": 1})):
        with pytest.raises(TypeError):
            Statement(*args, **kwargs)
