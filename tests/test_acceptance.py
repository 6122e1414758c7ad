"""Acceptance suite: every criterion at its stated tolerance.

Run with -s to see one pass/fail line per criterion, with timings.
"""

import dataclasses
import time

import pytest

from tailent import acceptance, entropy


def _run(name):
    fn, budget = dict((n, (f, b)) for n, _, f, b in acceptance.CRITERIA)[name]
    t0 = time.time()
    ok, detail = fn()
    elapsed = time.time() - t0
    line = f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.1f}s): {detail}"
    print(line)
    assert ok, line
    assert elapsed < budget, f"{name} blew its {budget}s runtime budget"


def test_criterion_1_combinatorics():
    _run("1-combinatorics")


def test_criterion_2_qr_pipeline():
    _run("2-qr-pipeline")


def test_criterion_3_reparametrizer():
    _run("3-reparametrizer")


def test_criterion_4_sft_entropy():
    _run("4-sft-entropy")


def test_criterion_5_tent_tail():
    _run("5-tent-tail")


def test_criterion_6_quadratic():
    _run("6-quadratic")


def test_criterion_7_power_lemma():
    _run("7-power-lemma")


def test_criterion_8_rates():
    _run("8-rates")


def test_criterion_9_thickness():
    _run("9-thickness")


def test_criterion_10_snake():
    _run("10-snake")


def test_verify_all_tagged_subsets():
    lines = []
    assert acceptance.verify_all("rates", out=lines.append)
    assert len(lines) == 1 and lines[0].startswith("PASS 8-rates")


_TAIL_DETAILS = {
    "5-tent-tail": "products [0.5677, 0.5655, 0.6113, 0.6003, 0.6437, 0.7121] "
                   "within [0.5545, 1.6636]",
    "6-quadratic": "h=0.6759 k4:0.41 k5:0.41 k6:0.40 k7:0.50 k8:0.42 k9:0.51",
}


@pytest.mark.parametrize("name, ks, rate, detail", [
    ("5-tent-tail", (5, 7), 10.0, "k=5: product 50.0000 outside"),
    ("6-quadratic", (6, 8), 0.0, "k=6: tail*|log eps| = 0.0000 < 0.1"),
])
def test_tail_criteria_sweep_smallest_eps_first(monkeypatch, name, ks, rate,
                                                detail):
    """Criteria 5 and 6 estimate their scales smallest eps first, keep
    their detail lines, and of two failing scales report the smaller k."""
    fn = dict((n, f) for n, _, f, _ in acceptance.CRITERIA)[name]
    visited = []
    orig = entropy.tail_entropy_estimate

    def recorded(m, eps, **kwargs):
        visited.append(eps)
        return orig(m, eps, **kwargs)

    monkeypatch.setattr(entropy, "tail_entropy_estimate", recorded)
    assert fn() == (True, _TAIL_DETAILS[name])
    assert len(visited) == 6 and visited == sorted(visited)

    def failing(m, eps, **kwargs):
        est = orig(m, eps, **kwargs)
        if eps in [2.0 ** -k for k in ks]:
            est = dataclasses.replace(est, rate=rate)
        return est

    monkeypatch.setattr(entropy, "tail_entropy_estimate", failing)
    ok, got = fn()
    assert not ok and got.startswith(detail)
