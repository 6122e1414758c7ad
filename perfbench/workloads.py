"""The four workloads: inputs generated from the seed, the jobs that run
them through tailent's public CLI and library entry points, and the check
each job's output must pass.

Every workload is a closed loop of single-threaded jobs run one after
another; each job is one experiment call.  The default seed runs the
canonical inputs (the ones the golden files hold).  Other seeds move the
scales by at most JITTER relative and draw fresh random systems, words,
Cantor pairs and rate parameters.  The jitter is kept small on purpose:
the cost of the grid and modulus paths jumps with the p_eps and knee
positions, and the benchmark compares medians over seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

import checks
from tailent import acceptance, cli, entropy, maps, polyalg, rates, symbolic

DEFAULT_SEED = 0
JITTER = 0.015
M0 = 2.0


@dataclass
class Job:
    name: str
    run: Callable[[], str]
    check: Callable[[str], list]


def _scale(rng, canonical):
    """Relative scale factor: 1 for the canonical inputs, else a draw from
    [1 + JITTER/10, 1 + JITTER]."""
    return 1.0 if canonical else 1.0 + rng.uniform(JITTER / 10, JITTER)


def _cli(args):
    """Run `tailent <args>` in-process; the job output is the CSV text."""
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(args))
        if code != 0:
            raise RuntimeError(f"tailent {args[0]} exited with code {code}")
        return buf.getvalue()
    return run


# ---------------------------------------------------------------------------
# grid path
# ---------------------------------------------------------------------------

def grid_sweep(rng, canonical):
    """One big grid per map: the orbit matrix is built once per eps and the
    greedy net dominates, so kernel and memory changes show here while
    orbit reuse has almost nothing to save."""
    grid_bits, n_max = 15, 12
    jobs = []
    for spec in ("quadratic:4", "tent"):
        eps = 0.03125 * _scale(rng, canonical)
        args = ("entropy", "--map", spec, "--grid-bits", str(grid_bits),
                "--n-max", str(n_max), "--eps-start", repr(eps),
                "--eps-ratio", "0.5", "--eps-count", "3", "--threads", "1")
        jobs.append(Job(f"entropy:{spec}", _cli(args),
                        partial(checks.entropy_csv, spec, grid_bits, n_max)))
    return jobs


def modulus_reuse(rng, canonical):
    """Small grids, many calls: each continuity_modulus call runs
    spanning_count for p = 1..p_eps at two scales plus three eps_entropy
    fits, all over the same (map, grid) orbits, and computes a greedy net
    that it then discards.  The scales sit inside plateaus of p_eps (about
    6% from the nearest step) so the jitter does not change the work done."""
    jobs = []
    for spec, grid_bits, eps_start, ratio in (("tent", 12, 0.0768, 0.69),
                                              ("tent", 13, 0.1003, 0.8186),
                                              ("quadratic:4", 12, 0.0768, 0.703),
                                              ("quadratic:4", 13, 0.1072, 0.818)):
        eps = eps_start * _scale(rng, canonical)
        args = ("modulus", "--map", spec, "--grid-bits", str(grid_bits),
                "--eps-start", repr(eps), "--eps-ratio", repr(ratio),
                "--eps-count", "2", "--m0", repr(M0), "--threads", "1")
        jobs.append(Job(f"modulus:{spec}:g{grid_bits}", _cli(args),
                        partial(checks.modulus_csv, spec, grid_bits, M0)))
    return jobs


# ---------------------------------------------------------------------------
# tail path
# ---------------------------------------------------------------------------

def _power_job(spec, eps, p, tolerance=0.02):
    def run():
        rep = entropy.power_bound_check(maps.get_map(spec), eps, p,
                                        tolerance=tolerance)
        return json.dumps(rep, sort_keys=True)
    return run


def tail_pullback(rng, canonical):
    """Interval pullback with fold-cycle bisections: many tiny
    evaluate_array calls and no grid, so a grid-kernel change predicts no
    change here.

    The fold-cycle period cap floors |log2 eps| and the power-rule horizon
    floors 46 + log2 eps.  Tail scales are only moved down, which keeps the
    canonical period caps; the power scale is only moved up, which keeps
    the canonical horizon (its period cap is one below the canonical one).
    Every non-default seed therefore runs the same caps and horizons."""
    jobs = []
    for spec in ("tent", "quadratic:4"):
        eps = 0.125 * (2.0 - _scale(rng, canonical))
        args = ("tail", "--map", spec, "--eps-start", repr(eps),
                "--eps-ratio", "0.5", "--eps-count", "7", "--n-max", "24",
                "--threads", "1")
        jobs.append(Job(f"tail:{spec}", _cli(args),
                        partial(checks.tail_csv, spec)))
    for spec in ("tent", "quadratic:4"):
        eps = 2.0 ** -6 * _scale(rng, canonical)
        for p in (2, 3):
            jobs.append(Job(f"power:{spec}:p{p}", _power_job(spec, eps, p),
                            partial(checks.power_report, p, 0.02)))
    return jobs


# ---------------------------------------------------------------------------
# exact layers
# ---------------------------------------------------------------------------

def _random_system(rng, m, r):
    """m polynomials of degree r with dyadic coefficients uniform in [-2, 2],
    drawn as in acceptance.random_reparam_system but with m and r fixed,
    and redrawn until the preimage of the unit cube is nonempty so the
    coverage check is not vacuous."""
    probe = np.linspace(0.0, 1.0, 512)
    while True:
        polys = [polyalg.Polynomial(
            [Fraction(rng.randrange(-2 << 16, (2 << 16) + 1), 1 << 16)
             for _ in range(r + 1)]) for _ in range(m)]
        member = np.ones_like(probe, dtype=bool)
        for p in polys:
            v = p(probe)
            member &= (v >= 0) & (v <= 1)
        if member.any():
            return polys


def _atlas_job(polys, r):
    def run():
        atlas = polyalg.reparametrize_1d(polys, r)
        rep = polyalg.verify_atlas(atlas, 10000)
        return (f"{atlas.step1_count},{atlas.step2_count},{atlas.chart_count},"
                f"{rep.max_norm_comp!r},{rep.max_norm_phi!r},"
                f"{rep.coverage_defect},{rep.members}")
    return run


def _yp_job(p):
    def run():
        sft = symbolic.build_Yp(p)
        return f"{sft.size},{symbolic.sft_entropy(sft)!r}"
    return run


def _word_job(word):
    def run():
        sft = symbolic.sft_from_forbidden_words(2, [word])
        return f"{word},{sft.size},{symbolic.sft_entropy(sft)!r}"
    return run


def _thickness_job(ratio, depth):
    def run():
        return str(symbolic.thickness(symbolic.middle_cantor(ratio, depth)))
    return run


def _pair_job(ratio, depth, hulls):
    def run():
        (a1, b1), (a2, b2) = hulls
        k = symbolic.middle_cantor(ratio, depth).scaled(a1, b1)
        f = symbolic.middle_cantor(ratio, depth).scaled(a2, b2)
        res = dict(symbolic.gap_lemma_check(k, f))
        res["thickness"] = str(symbolic.thickness(k))
        return json.dumps(res, sort_keys=True)
    return run


def _rates_job(xs, alpha, log_dt):
    def run():
        kpow2 = rates.parse_weight("kpow2")
        w, _ = rates.weight_from_rate(lambda e: e ** alpha, log_dt)
        return json.dumps({
            "kpow2": [(x, rates.g_inverse(kpow2, x)) for x in xs],
            "log_dt": log_dt,
            "fromrate": [(eps, rates.g_inverse(w, 3 * abs(math.log(eps))))
                         for eps in (10.0 ** -j for j in range(2, 7))],
        })
    return run


def exact_atlas(rng, canonical):
    """Exact machinery the paper's bounds rest on: the reparametrizer
    (root isolation, Faa di Bruno, inverse-branch solves), SFT entropy,
    Cantor thickness and the gap lemma, and the rate functions.  Without
    this workload polyalg, combinatorics, symbolic and rates would go
    unmeasured.

    The SFT jobs come first, so Y_2, the slowest job of the list, opens
    every pass and a pass that the deadline cuts short still samples it."""
    jobs = [Job(f"sft:Y{p}", _yp_job(p), partial(checks.yp_entropy, p))
            for p in range(2, 14)]
    for m in (1, 2, 3):
        for r in range(2, 9):
            jobs.append(Job(f"reparam:fixed:m{m}:r{r}",
                            _atlas_job(acceptance.fixed_reparam_system(m, r), r),
                            checks.atlas_report))
    for m in (1, 2, 3):
        jobs.append(Job(f"reparam:random:m{m}:r6",
                        _atlas_job(_random_system(rng, m, 6), 6),
                        checks.atlas_report))
    for i in range(3):
        word = "".join(rng.choice("01") for _ in range(rng.randint(3, 7)))
        jobs.append(Job(f"sft:word{i}", _word_job(word),
                        partial(checks.word_sft_entropy, word)))
    for ratio, depth, expected in ((Fraction(1, 3), 12, "1"),
                                   (Fraction(1, 2), 12, "1/2")):
        jobs.append(Job(f"thickness:{ratio}", _thickness_job(ratio, depth),
                        partial(checks.exact_value, expected)))
    ratio, depth = Fraction(1, 5), 9
    for i in range(8):
        # linked hulls, as in acceptance criterion 9
        a1 = Fraction(rng.randrange(0, 100), 1000)
        b1 = a1 + Fraction(rng.randrange(400, 700), 1000)
        a2 = a1 + Fraction(rng.randrange(100, 300), 1000)
        b2 = b1 + Fraction(rng.randrange(100, 300), 1000)
        hulls = ((a1, b1), (a2, b2))
        jobs.append(Job(f"gap-lemma:{i}", _pair_job(ratio, depth, hulls),
                        partial(checks.linked_pair, ratio, depth, hulls)))
    xs = [10.0 ** j * _scale(rng, canonical) for j in range(1, 7)]
    alpha = 1.0 / 7 if canonical else 1.0 / rng.uniform(5.0, 9.0)
    log_dt = 1.0 if canonical else rng.uniform(0.5, 3.0)
    jobs.append(Job("rates", _rates_job(xs, alpha, log_dt),
                    partial(checks.rates_report, alpha)))
    return jobs


_BUILDERS = {
    "grid-sweep": grid_sweep,
    "modulus-reuse": modulus_reuse,
    "tail-pullback": tail_pullback,
    "exact-atlas": exact_atlas,
}


def build(workload, seed):
    """Job list of a workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, seed == DEFAULT_SEED)
