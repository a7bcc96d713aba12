"""Circuit and statement corpora for tests, self-tests and benchmarks."""

from __future__ import annotations

import itertools
import random

from mith.circuit import (
    Circuit, Gate, Statement, Topology, Witness, eval_plain, parse_circuit,
    validate_circuit,
)
from mith.field import FieldElement, Modulus


def identity_circuit(m: Modulus) -> Circuit:
    """Passes the single secret wire through a unit scalar gate (the
    topology requires at least one gate, so a bare wire is not a circuit)."""
    return parse_circuit(f"field {m.p}\ntopology 0 1 2\n(smul 2 (const 1 1) (sinput 0))\n")


def square_plus_one_circuit(m: Modulus) -> Circuit:
    """w0^2 + 1; over F_11 its image misses several field values, which
    makes it the canonical source of false statements."""
    return parse_circuit(f"field {m.p}\ntopology 0 1 3\n"
                         "(add 3 (mul 2 (sinput 0) (sinput 0)) (const 1 1))\n")


def bench_circuit_a(m: Modulus | None = None) -> Circuit:
    """w0^2 + w1^2 + c1 + c2 over F_101: 7 gates of which 2 are
    multiplications (gates = const/add/mul/smul nodes; inputs excluded)."""
    m = m or Modulus(101)
    return parse_circuit(
        f"field {m.p}\ntopology 0 2 7\n"
        "(add 7 (add 6 (add 5 (mul 3 (sinput 0) (sinput 0)) (mul 4 (sinput 1) (sinput 1)))"
        " (const 1 5)) (const 2 7))\n")


def bench_circuit_b(m: Modulus | None = None) -> Circuit:
    """w0^3 + w1^2 + 2*w0 + c1 + c2 over F_97: 11 gates of which 3 are
    multiplications, same counting rule as bench_circuit_a."""
    m = m or Modulus(97)
    cube = "(mul 2 (mul 1 (sinput 0) (sinput 0)) (sinput 0))"
    square = "(mul 3 (sinput 1) (sinput 1))"
    scaled = "(smul 5 (const 4 2) (sinput 0))"
    return parse_circuit(
        f"field {m.p}\ntopology 0 2 11\n"
        f"(add 11 (add 10 (add 9 (add 8 {cube} {square}) {scaled}) (const 6 3)) (const 7 9))\n")


# ---------------------------------------------------------------------------
# Random circuits.  Each builder appends its tree's records to `gates` in
# post-order and returns the index of the tree's root.


def _random_public_tree(rnd: random.Random, m: Modulus, n_public: int,
                        depth: int, gid: itertools.count, gates: list[Gate]) -> int:
    if depth <= 0 or rnd.random() < 0.4:
        if n_public and rnd.random() < 0.5:
            gates.append(Gate("pinput", None, rnd.randrange(n_public)))
        else:
            gates.append(Gate("const", next(gid), rnd.randrange(m.p)))
        return len(gates) - 1
    op = rnd.choice(("add", "smul"))
    a = _random_public_tree(rnd, m, n_public, depth - 1, gid, gates)
    b = _random_public_tree(rnd, m, n_public, depth - 1, gid, gates)
    gates.append(Gate(op, next(gid), a, b))
    return len(gates) - 1


def _random_tree(rnd: random.Random, m: Modulus, n_public: int, n_secret: int,
                 depth: int, gid: itertools.count, gates: list[Gate]) -> int:
    if depth <= 0 or rnd.random() < 0.25:
        roll = rnd.random()
        if roll < 0.5:
            gates.append(Gate("sinput", None, rnd.randrange(n_secret)))
        elif roll < 0.75 and n_public:
            gates.append(Gate("pinput", None, rnd.randrange(n_public)))
        else:
            gates.append(Gate("const", next(gid), rnd.randrange(m.p)))
        return len(gates) - 1
    op = rnd.choice(("add", "add", "mul", "mul", "smul"))
    if op == "smul":
        a = _random_public_tree(rnd, m, n_public, depth - 1, gid, gates)
    else:
        a = _random_tree(rnd, m, n_public, n_secret, depth - 1, gid, gates)
    b = _random_tree(rnd, m, n_public, n_secret, depth - 1, gid, gates)
    gates.append(Gate(op, next(gid), a, b))
    return len(gates) - 1


def random_circuit(rnd: random.Random, m: Modulus, n_public: int = 1,
                   n_secret: int = 1, max_depth: int = 4) -> Circuit:
    """Random valid circuit that reads at least one secret wire."""
    while True:
        gates: list[Gate] = []
        _random_tree(rnd, m, n_public, n_secret, max_depth, itertools.count(1), gates)
        if not any(g.op == "sinput" for g in gates):
            continue
        n_gates = sum(g.gid is not None for g in gates)
        if n_gates < 1:
            continue
        c = Circuit(Topology(n_public, n_secret, n_gates), tuple(gates), m)
        validate_circuit(c)
        return c


def random_instance(rnd: random.Random, c: Circuit) -> tuple[Statement, Witness]:
    """Statement/witness pair with target = the true evaluation."""
    m = c.modulus
    pubs = tuple(m.element(rnd.randrange(m.p))
                 for _ in range(c.topology.n_public))
    w = Witness(tuple(m.element(rnd.randrange(m.p))
                      for _ in range(c.topology.n_secret)))
    s = Statement(c, pubs, m.element(0))
    target = eval_plain(s, w)
    return Statement(c, pubs, target), w


def golden_corpus(m: Modulus, count: int = 20,
                  seed: int = 2024) -> list[tuple[Statement, Witness]]:
    """Deterministic mixed corpus: handcrafted plus seeded random circuits."""
    rnd = random.Random(seed)
    pairs: list[tuple[Statement, Witness]] = []
    for c in (identity_circuit(m), square_plus_one_circuit(m)):
        pairs.append(random_instance(rnd, c))
    while len(pairs) < count:
        c = random_circuit(rnd, m,
                           n_public=rnd.randrange(3),
                           n_secret=rnd.randrange(1, 3),
                           max_depth=rnd.randrange(2, 5))
        pairs.append(random_instance(rnd, c))
    return pairs


def circuit_image(c: Circuit, public_inputs: tuple[FieldElement, ...]) -> set[int]:
    """Every value the circuit can output, over all witnesses (exhaustive;
    only feasible for small p^n_secret)."""
    m = c.modulus
    n = c.topology.n_secret
    if m.p ** n > 300_000:
        raise ValueError("witness space too large to enumerate")
    s = Statement(c, public_inputs, m.element(0))
    out = set()
    for combo in itertools.product(range(m.p), repeat=n):
        w = Witness(tuple(m.element(v) for v in combo))
        out.add(eval_plain(s, w).value)
    return out


def impossible_statement(c: Circuit,
                         public_inputs: tuple[FieldElement, ...] = ()) -> Statement:
    """Statement whose target is provably outside the circuit's image,
    verified by exhausting the witness space."""
    m = c.modulus
    image = circuit_image(c, public_inputs)
    for v in range(m.p):
        if v not in image:
            return Statement(c, public_inputs, m.element(v))
    raise ValueError("circuit is surjective; no unsatisfiable target exists")
