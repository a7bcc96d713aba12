"""Set-up time of a fresh process, and the host reference it is scaled by.

    python3 setup_probe.py             # set-up: reads the job on stdin
    python3 setup_probe.py reference   # the reference

Set-up runs from `import mith` to a parsed circuit, statement and witness
and a built commitment scheme; the job is {"src", "circuit", "statement",
"witness", "scheme"} as JSON.  The reference imports a fixed set of
standard-library modules that mith does not load: the same kind of work
(reading and running module code in a fresh process), independent of mith.
Each prints {"setup_s": seconds}.  Interpreter start-up is not counted.
"""

import json
import sys
import time


def reference() -> None:
    t0 = time.perf_counter()
    import argparse, configparser, csv, decimal, email.message, fractions, logging  # noqa: F401,E401
    import pprint, statistics, string, tarfile, textwrap, unittest, xml.dom.minidom, zipfile  # noqa: F401,E401
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup() -> None:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    from mith import circuit, commit, protocol, session  # noqa: F401  (what a prover or verifier loads)

    c = circuit.parse_circuit(job["circuit"])
    circuit.parse_statement(job["statement"], c)
    circuit.parse_witness(job["witness"], c)
    commit.scheme_by_name(job["scheme"], c.modulus.p)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    reference() if sys.argv[1:] == ["reference"] else setup()
