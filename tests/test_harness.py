"""Experiment harness: report semantics, reproducibility, adversaries."""

import pytest

from mith import harness
from mith import protocol as pr
from mith.corpus import golden_corpus
from mith.errors import MithError
from mith.field import RandomSource

from test_mpc import pairs_consistent, rows_of


def test_report_verdict_is_pure_function_of_numbers():
    r = harness.ExperimentReport("x", 100, 91, 0.9, 0.02)
    assert r.verdict == "pass" and r.rate == 0.91
    r2 = harness.ExperimentReport("x", 100, 80, 0.9, 0.02)
    assert r2.verdict == "fail"
    assert harness.ExperimentReport("x", 100, 5, 0.0, 0.02).verdict == "fail"
    assert harness.ExperimentReport("x", 100, 1, 0.0, 0.02).verdict == "pass"
    assert harness.ExperimentReport("x", 100, 99, 1.0, 0.02).verdict == "pass"
    with pytest.raises(MithError):
        harness.ExperimentReport("x", 10, 11, 1.0, 0.0)


def test_report_round_trips_to_dict():
    r = harness.ExperimentReport("x", 10, 9, 0.9, 0.1)
    d = r.to_dict()
    assert d["verdict"] == "pass" and d["rate"] == 0.9
    assert "x" in r.line()


def test_completeness_smoke(m11):
    corpus = golden_corpus(m11, 5)
    rep = harness.run_completeness(corpus, 50, RandomSource(1))
    assert rep.verdict == "pass" and rep.successes == 50


def test_completeness_multi_rep(m11):
    corpus = golden_corpus(m11, 3)
    rep = harness.run_completeness(corpus, 10, RandomSource(2), reps=10)
    assert rep.verdict == "pass"


def test_canonical_cheater_rate_and_per_trial_equality(m11):
    s, w_guess = harness.canonical_false_statement(m11)
    rng = RandomSource(3)
    cheater = harness.OneBadPairCheater(s, w_guess, (1, 2), rng)
    rep = harness.run_soundness(cheater, 2000, rng)
    assert rep.verdict == "pass"
    assert "accept==challenge-avoids-bad-pair" in rep.detail
    assert abs(rep.rate - 0.9) < 0.03


def test_cheater_views_differ_only_in_doctored_slots(m11):
    """The doctored execution opens every pair except the bad one."""
    s, w_guess = harness.canonical_false_statement(m11)
    rng = RandomSource(4)
    cheater = harness.OneBadPairCheater(s, w_guess, (2, 4), rng)
    from mith import mpc
    c = s.circuit
    views = cheater.views
    assert pairs_consistent(c, s.public_inputs, [(views[i - 1], views[j - 1], i, j)
                                                 for i, j in pr.PARTY_PAIRS]) == [
        pair != (2, 4) for pair in pr.PARTY_PAIRS]
    assert mpc.local_output(c, rows_of(views), s.target) == [True] * 5


def test_cheater_rejects_satisfiable_statement(m11):
    corpus = golden_corpus(m11, 1)
    s, w = corpus[0]
    with pytest.raises(MithError, match="satisfied"):
        harness.OneBadPairCheater(s, w, (1, 2), RandomSource(5))


def test_garbage_cheater_never_wins(m11):
    s, _ = harness.canonical_false_statement(m11)
    rng = RandomSource(6)
    cheater = harness.GarbageCheater(s, rng)
    rep = harness.run_soundness(cheater, 100, rng)
    assert rep.successes == 0 and rep.verdict == "pass"
    # Garbage is never accepted, so one acceptance fails the report.
    assert rep.tolerance == 0
    assert harness.ExperimentReport(rep.name, rep.trials, 1, rep.bound,
                                    rep.tolerance).verdict == "fail"


@pytest.mark.parametrize("reps", [1, 10])
def test_mislabelled_bad_pair_fails_soundness(m11, reps):
    """Each repetition's verdict is compared with the challenges the
    cheater says it passes: views doctored at (1, 2) but labelled (1, 3)
    fail the game."""
    s, w_guess = harness.canonical_false_statement(m11)
    rng = RandomSource(13)
    cheater = harness.OneBadPairCheater(s, w_guess, (1, 2), rng)
    cheater.bad_pair = (1, 3)
    rep = harness.run_soundness(cheater, 200, rng, reps=reps)
    assert rep.verdict == "fail" and "PER-TRIAL MISMATCH" in rep.detail


def test_zk_distinguishers(m11):
    corpus = golden_corpus(m11, 2)
    s, w = corpus[1]
    rng = RandomSource(7)
    for d in (harness.challenge_only_distinguisher,
              harness.validity_distinguisher,
              harness.byte_histogram_distinguisher):
        rep = harness.run_zk(s, w, d, 400, rng)
        assert rep.verdict == "pass", rep.line()


def test_validity_distinguisher_exact_zero_advantage(m11):
    """Both worlds always verify, so the advantage is exactly zero on the
    balanced coin schedule."""
    corpus = golden_corpus(m11, 2)
    s, w = corpus[1]
    rep = harness.run_zk(s, w, harness.validity_distinguisher, 200,
                         RandomSource(8))
    assert rep.successes * 2 == rep.trials


def test_sss_privacy_experiment():
    rep = harness.run_sss_privacy(3000, RandomSource(9))
    assert rep.verdict == "pass"


def test_mpc_privacy_experiment():
    rep = harness.run_mpc_privacy(1500, RandomSource(10))
    assert rep.verdict == "pass", rep.line()


def test_binding_experiment():
    rep = harness.run_binding(5000, RandomSource(11))
    assert rep.successes == 0


def test_hiding_experiments():
    rng = RandomSource(12)
    assert harness.run_hiding(4000, rng, attacker="random").verdict == "pass"
    assert harness.run_hiding(4000, rng, attacker="histogram").verdict == "pass"


def test_seeded_runs_are_bit_reproducible():
    a = harness.run_all(seed=77, scale=0.02)
    b = harness.run_all(seed=77, scale=0.02)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    assert all(r.verdict == "pass" for r in a)
