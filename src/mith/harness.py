"""Executable security games with statistical or exhaustive verdicts.

Each experiment runs a concrete adversary against the real protocol and
compares an empirical rate to a reference bound.  Every game plays the
real prover, simulator or cheater through `protocol.check_repetitions`:
each trial is one proof whose challenges are drawn as a live verifier's.
Soundness uses the canonical one-bad-pair cheater: an execution doctored
so exactly one pair of views is inconsistent, whose acceptance therefore
coincides, repetition by repetition, with the challenge avoiding that pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Callable, Sequence

from mith import mpc
from mith import protocol as proto
from mith.circuit import Statement, Witness
from mith.commit import PrfScheme, scheme_by_name
from mith.corpus import golden_corpus, impossible_statement, square_plus_one_circuit
from mith.errors import MithError
from mith.field import FieldElement, Modulus, RandomSource
from mith.sss import PARTY_PAIRS, random_share_randomness, share, share_sim
from mith.stats import binomial_tolerance, chi2_homogeneity

ALPHA = 0.001


@dataclass
class ExperimentReport:
    """Outcome of one experiment; the verdict re-derives from the numbers:
    pass iff |rate - bound| <= tolerance."""

    name: str
    trials: int
    successes: int
    bound: float
    tolerance: float
    detail: str = ""
    rate: float = dfield(init=False)
    verdict: str = dfield(init=False)

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise MithError("successes must lie in [0, trials]")
        self.rate = self.successes / self.trials if self.trials else 0.0
        self.verdict = "pass" if abs(self.rate - self.bound) <= self.tolerance else "fail"

    def line(self) -> str:
        extra = f"  [{self.detail}]" if self.detail else ""
        return (f"[{self.verdict:4}] {self.name}: rate {self.rate:.6f} "
                f"vs bound {self.bound:.6f} +/-{self.tolerance:.6f} "
                f"({self.successes}/{self.trials}){extra}")

    def to_dict(self) -> dict:
        return {
            "name": self.name, "trials": self.trials,
            "successes": self.successes, "rate": self.rate,
            "bound": self.bound, "tolerance": self.tolerance,
            "verdict": self.verdict, "detail": self.detail,
        }


def _sub_rng(seed, label: str) -> RandomSource:
    if seed is None:
        return RandomSource()
    return RandomSource(f"{seed}/{label}".encode())


# ---------------------------------------------------------------------------
# Completeness


def honest_execution(s: Statement, w: Witness,
                     rng: RandomSource) -> tuple[list[bytes], FieldElement]:
    """One in-the-head run for w (`protocol.run_repetitions`): its five
    views, in party order, and its output, the broadcast shares they
    recorded recombined."""
    rows = proto.run_repetitions(w, s, 1, rng)
    L, m = len(rows) // 5, s.circuit.modulus
    views = [bytes(rows[r:r + L]) for r in range(0, len(rows), L)]
    bcast = mpc.view_fields(s.circuit, views[0])["bcast"]
    return views, m.element(sum(x * y for x, y in zip(m.recon_weights, bcast)) % m.p)


def run_completeness(corpus: Sequence[tuple[Statement, Witness]],
                     trials: int, rng: RandomSource,
                     scheme=None, reps: int = 1) -> ExperimentReport:
    """Honest prover against honest verifier; must never reject."""
    scheme = scheme or scheme_by_name("prf")
    ok = 0
    for t in range(trials):
        s, w = corpus[t % len(corpus)]
        ok += proto.verify_repeated(s, proto.prove_repeated(w, s, reps, rng, scheme, "transcript"))
    return ExperimentReport("completeness", trials, ok, 1.0, 0.0,
                            detail=f"reps={reps}")


# ---------------------------------------------------------------------------
# Soundness: canonical cheating provers.  A cheater commits reps
# repetitions at once, `commit(rng, reps) -> (state, commit)`, and states
# for each challenge whether it expects that repetition to pass
# (`passes`); `claim` is the detail a report carries when every
# repetition did as stated.


class OneBadPairCheater:
    """Commits a doctored honest-style execution for a false statement.

    The refresh contribution from bad_pair[0] to bad_pair[1] is shifted so
    the opened sharing reconstructs to the (unreachable) target; every
    view is internally coherent, all other pairs stay consistent, and the
    verifier accepts exactly when the challenge avoids bad_pair.
    """

    claim = ", accept==challenge-avoids-bad-pair"

    def __init__(self, s: Statement, w_guess: Witness,
                 bad_pair: tuple[int, int], rng: RandomSource, scheme=None):
        self.scheme = scheme or scheme_by_name("prf")
        self.statement = s
        self.bad_pair = bad_pair
        c = s.circuit
        m = c.modulus
        i0, j0 = bad_pair
        views, y = honest_execution(s, w_guess, rng)
        if y == s.target:
            raise MithError("statement is satisfied; nothing to cheat about")
        p = m.p
        delta = (s.target.value - y.value) * pow(m.recon_weights[j0 - 1], -1, p) % p
        self.views = []
        for q, v in enumerate(views):
            fields = mpc.view_fields(c, v)
            bcast = list(fields["bcast"])
            bcast[j0 - 1] = (bcast[j0 - 1] + delta) % p
            zin = list(fields["zin"])
            if q == j0 - 1:
                zin[i0 - 1] = (zin[i0 - 1] + delta) % p
            self.views.append(mpc.make_view(c, v, zin=zin, bcast=bcast))

    def commit(self, rng: RandomSource, reps: int) -> tuple[proto.ProverState, bytes]:
        return proto.commit_rows(self.scheme, b"".join([v * reps for v in self.views]),
                                 self.scheme.keygen(rng, 5 * reps))

    def passes(self, ch: tuple[int, int]) -> bool:
        return ch != self.bad_pair


class GarbageCheater:
    """Commits to the all-zero view and opens well-formed views it did
    not commit to; never accepted."""

    claim = ""

    def __init__(self, s: Statement, rng: RandomSource, scheme=None):
        self.scheme = scheme or scheme_by_name("prf")
        self.statement = s
        c = s.circuit
        m = c.modulus
        # Honest execution for an arbitrary witness, so the views are
        # well-formed; the commitments below just do not match them.
        w = Witness(tuple(m.element(k + 1) for k in range(c.topology.n_secret)))
        self.views = honest_execution(s, w, rng)[0]
        self._zero = bytes(mpc.encoded_view_length(c))

    def commit(self, rng: RandomSource, reps: int) -> tuple[proto.ProverState, bytes]:
        keys, openings = (self.scheme.keygen(rng, 5 * reps) for _ in range(2))
        _, commit = proto.commit_rows(self.scheme, self._zero * (5 * reps), keys)
        return proto.ProverState(b"".join([v * reps for v in self.views]), tuple(openings)), commit

    def passes(self, ch: tuple[int, int]) -> bool:
        return False


def run_soundness(cheater, trials: int, rng: RandomSource,
                  reps: int = 1, tolerance: float | None = None) -> ExperimentReport:
    """3-pass game against a cheating prover on a false statement.

    The bound is the cheater's stated pass rate to the power reps.  Each
    repetition's verdict must equal the cheater's expectation for its
    challenge; any divergence fails the experiment outright.
    """
    s = cheater.statement
    bound = (sum(map(cheater.passes, PARTY_PAIRS)) / proto.N_CHALLENGES) ** reps
    if tolerance is None:
        tolerance = binomial_tolerance(bound, trials)
    wins = 0
    exact = True
    for _ in range(trials):
        proof = proto.respond_repetitions(s, *cheater.commit(rng, reps), rng, cheater.scheme,
                                          "transcript")
        checks = proto.check_repetitions(s, proof)
        exact = exact and all(ok == cheater.passes(PARTY_PAIRS[ch])
                              for ch, ok in zip(proof.challenges, checks))
        wins += proto.accepts(s, proof, checks)
    detail = f"reps={reps}" + (cheater.claim if exact else ", PER-TRIAL MISMATCH")
    rep = ExperimentReport(f"soundness(reps={reps})", trials, wins, bound, tolerance,
                           detail=detail)
    if not exact:
        rep.verdict = "fail"
    return rep


def canonical_false_statement(m: Modulus | None = None) -> tuple[Statement, Witness]:
    """w0^2 + 1 over F_11 with a target outside its image, plus the
    witness guess the cheater runs with."""
    m = m or Modulus(11)
    c = square_plus_one_circuit(m)
    s = impossible_statement(c)
    return s, Witness((m.element(3),))


# ---------------------------------------------------------------------------
# Zero-knowledge


def run_zk(s: Statement, w: Witness, distinguisher: Callable,
           trials: int, rng: RandomSource, scheme=None,
           tolerance: float | None = None) -> ExperimentReport:
    """Feed the distinguisher real or simulated one-repetition proofs on a
    balanced coin schedule; its advantage |rate - 1/2| must stay within
    tolerance."""
    scheme = scheme or scheme_by_name("prf")
    if tolerance is None:
        tolerance = binomial_tolerance(0.5, trials)

    def honest_verifier(s_, cm_):
        return rng.randbelow(proto.N_CHALLENGES)

    correct = 0
    for t in range(trials):
        real = t % 2 == 0
        if real:
            proof = proto.prove_repeated(w, s, 1, rng, scheme, "transcript")
        else:
            proof = proto.zk_simulate(s, honest_verifier, rng=rng, scheme=scheme)
        verdict = proto.verify_repeated(s, proof)
        guess_real = distinguisher(s, verdict, proof)
        correct += (guess_real == real)
    return ExperimentReport(f"zk({getattr(distinguisher, 'label', 'D')})",
                            trials, correct, 0.5, tolerance)


def challenge_only_distinguisher(s, verdict, proof) -> bool:
    """Sees only the challenge; its marginals are identical in both worlds."""
    return proof.challenges[0] % 2 == 0


challenge_only_distinguisher.label = "challenge-only"


def validity_distinguisher(s, verdict, proof) -> bool:
    """Claims "real" exactly when the proof passes verification, the
    one observable a simulator failure would break."""
    return verdict


validity_distinguisher.label = "validity"


def byte_histogram_distinguisher(s, verdict, proof) -> bool:
    """Parity-of-popcount over the opened views' encodings."""
    blob = proto.opened_views(s.circuit, proof)
    bits = sum(bin(b).count("1") for b in blob)
    return bits % 2 == 0


byte_histogram_distinguisher.label = "byte-histogram"


# ---------------------------------------------------------------------------
# Secret-sharing privacy


def run_sss_privacy(trials: int, rng: RandomSource,
                    m_small: Modulus | None = None,
                    m_large: Modulus | None = None) -> ExperimentReport:
    """Exhaustive equality of corrupt-pair share distributions on F_11 for
    every pair and two fixed secrets, then a chi-square sanity run on the
    larger field."""
    m = m_small or Modulus(11)
    checks = 0
    ok = 0
    # Every (a1, a2) in F^2, one per lane.
    a1s = [a1 for a1 in range(m.p) for _ in range(m.p)]
    a2s = [a2 for _ in range(m.p) for a2 in range(m.p)]
    for (i, j) in PARTY_PAIRS:
        dists = []
        for secret in (3, 8):
            cols = share(secret, a1s, a2s, m.p)
            dists.append(sorted(zip(cols[i - 1], cols[j - 1])))
        checks += 1
        uniform = dists[0] == sorted(
            (a, b) for a in range(m.p) for b in range(m.p))
        ok += (dists[0] == dists[1] and uniform)

    # Larger field: simulated pairs vs real pairs, homogeneity per coordinate.
    ml = m_large or Modulus(97)
    bins = 16
    real = [0] * bins
    sim = [0] * bins
    for _ in range(trials):
        a1, a2 = random_share_randomness(rng, ml.p, 1)
        party2 = share(5, (a1,), (a2,), ml.p)[1][0]
        real[(party2 * bins) // ml.p] += 1
        a, b = share_sim(rng, (2, 4), ml)
        sim[(a.value * bins) // ml.p] += 1
    _, pval = chi2_homogeneity(real, sim)
    checks += 1
    ok += (pval >= ALPHA)
    return ExperimentReport("sss-2-privacy", checks, ok, 1.0, 0.0,
                            detail=f"exhaustive pairs + chi2 p={pval:.4f}")


# ---------------------------------------------------------------------------
# MPC privacy


def _pair_projection(c, vi, vj, honest: int) -> tuple[int, ...]:
    """Small tuple of view coordinates used for histogram comparison."""
    fi, fj = mpc.view_fields(c, vi), mpc.view_fields(c, vj)
    return (
        fi["secret_shares"][0] if fi["secret_shares"] else 0,
        fj["secret_shares"][0] if fj["secret_shares"] else 0,
        fi["messages"][0][honest - 1] if fi["messages"] else 0,
        fi["zin"][honest - 1],
        fi["bcast"][honest - 1],
    )


def run_mpc_privacy(trials: int, rng: RandomSource,
                    s: Statement | None = None,
                    w: Witness | None = None) -> ExperimentReport:
    """Real corrupt-pair views vs simulator output, compared coordinate by
    coordinate with two-sample chi-square tests."""
    if s is None:
        m = Modulus(11)
        c = square_plus_one_circuit(m)
        w = Witness((m.element(3),))
        s = Statement(c, (), m.element(10))
    c = s.circuit
    m = c.modulus
    corrupt = (2, 4)
    honest = 5
    n_coords = 5
    real_counts = [[0] * m.p for _ in range(n_coords)]
    sim_counts = [[0] * m.p for _ in range(n_coords)]
    for _ in range(trials):
        views, y = honest_execution(s, w, rng)
        pr = _pair_projection(c, views[corrupt[0] - 1], views[corrupt[1] - 1], honest)
        cs = [share_sim(rng, corrupt, m) for _ in range(c.topology.n_secret)]
        vi, vj = mpc.mpc_simulate(c, s.public_inputs, corrupt, cs, y, rng)
        ps = _pair_projection(c, vi, vj, honest)
        for k in range(n_coords):
            real_counts[k][pr[k]] += 1
            sim_counts[k][ps[k]] += 1
    ok = 0
    pvals = []
    for k in range(n_coords):
        _, pval = chi2_homogeneity(real_counts[k], sim_counts[k])
        pvals.append(pval)
        ok += (pval >= ALPHA)
    return ExperimentReport("mpc-2-privacy", n_coords, ok, 1.0, 0.0,
                            detail="p=" + ",".join(f"{p:.3f}" for p in pvals))


# ---------------------------------------------------------------------------
# Commitment games


def run_binding(trials: int, rng: RandomSource) -> ExperimentReport:
    """Random-search double-opening attacker; one win is two (key, view)
    pairs with one SHA-256(key || view), a SHA-256 collision."""
    wins = 0
    for _ in range(trials):
        m1, k1 = rng.bytes(8), rng.bytes(32)
        m2, k2 = rng.bytes(8), rng.bytes(32)
        if m1 == m2:
            continue
        wins += PrfScheme().verify_view([m2], PrfScheme().commit_view([k1], [m1]), [k2])[0]
    return ExperimentReport("binding", trials, wins, 0.0, 0.0)


def run_hiding(trials: int, rng: RandomSource,
               attacker: str = "histogram",
               tolerance: float | None = None) -> ExperimentReport:
    """Left-right hiding game; the attacker guesses which of two fixed
    messages was committed under a fresh key."""
    m0, m1 = b"left-message", b"right-message"
    if tolerance is None:
        tolerance = binomial_tolerance(0.5, trials)
    hist0 = [0] * 256
    train = 2048
    for _ in range(train):
        (c,) = PrfScheme().commit_view([rng.bytes(32)], [m0])
        hist0[c[0]] += 1

    def guess(c: bytes) -> int:
        if attacker == "random":
            return rng.randbelow(2)
        # Histogram attacker: byte more typical of m0's training histogram.
        return 0 if hist0[c[0]] * 256 >= train else 1

    correct = 0
    for t in range(trials):
        b = t % 2
        (c,) = PrfScheme().commit_view([rng.bytes(32)], [m1 if b else m0])
        correct += (guess(c) == b)
    return ExperimentReport(f"hiding({attacker})", trials, correct, 0.5,
                            tolerance)


# ---------------------------------------------------------------------------
# Full suite


def run_all(seed: int | None = None, scale: float = 1.0) -> list[ExperimentReport]:
    """Every experiment at its default trial counts (scaled)."""
    def n(x: int) -> int:
        return max(10, int(x * scale))

    m11 = Modulus(11)
    reports = []

    corpus = golden_corpus(m11, 20)
    reports.append(run_completeness(
        corpus, n(400), _sub_rng(seed, "completeness")))

    s_false, w_guess = canonical_false_statement(m11)
    rng_s = _sub_rng(seed, "soundness")
    cheater = OneBadPairCheater(s_false, w_guess, (1, 2), rng_s)
    reports.append(run_soundness(cheater, n(10_000), rng_s))
    # 6000 trials put the 3-sigma band for 0.9^10 inside +/-0.02.
    reports.append(run_soundness(cheater, n(6_000), rng_s, reps=10,
                                 tolerance=0.02 if scale >= 1 else None))
    garbage = GarbageCheater(s_false, rng_s)
    reports.append(run_soundness(garbage, n(200), rng_s))

    s_zk, w_zk = corpus[1]
    rng_z = _sub_rng(seed, "zk")
    for d in (challenge_only_distinguisher, validity_distinguisher,
              byte_histogram_distinguisher):
        reports.append(run_zk(s_zk, w_zk, d, n(2_000), rng_z))

    reports.append(run_sss_privacy(n(10_000), _sub_rng(seed, "sss")))
    reports.append(run_mpc_privacy(n(4_000), _sub_rng(seed, "mpcpriv")))
    reports.append(run_binding(n(100_000), _sub_rng(seed, "binding")))
    rng_h = _sub_rng(seed, "hiding")
    reports.append(run_hiding(n(100_000), rng_h, attacker="random"))
    reports.append(run_hiding(n(10_000), rng_h, attacker="histogram",
                              tolerance=0.02 if scale >= 1 else None))
    return reports
