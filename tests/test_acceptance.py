"""Acceptance suite: every criterion at its stated tolerance.

Run with -s to see one pass/fail line per criterion, with timings.
"""

import time

from tailent import acceptance


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
