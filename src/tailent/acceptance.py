"""Acceptance suite: one callable per criterion, each returning
(passed, detail).  Shared by `tailent verify` and the pytest suite.

Scale conventions used here (derivations live in the test suite):
- the tent tail bracket is evaluated against |log2 eps| = k for eps = 2^-k,
  the only reading under which the bracketed inequalities are consistent
  with the p_eps upper bound at dyadic scales;
- snake derivative decay is measured on the window-normalized profile
  (t-units), the quantity that is monotone at desk scales.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np

from . import entropy, maps, polyalg, rates, symbolic
from .combinatorics import BellTable, count_set_partitions, enumerate_set_partitions
from .errors import ConfigError

LOG2 = math.log(2)


# ---------------------------------------------------------------------------
# helpers shared with the CLI
# ---------------------------------------------------------------------------

def _chebyshev(r):
    t0, t1 = [1], [0, 1]
    for _ in range(r - 1):
        t2 = [0] + [2 * c for c in t1]
        for i, c in enumerate(t0):
            t2[i] -= c
        t0, t1 = t1, t2
    return t1


def fixed_reparam_system(m, r):
    """Deterministic degree-r system with nonempty preimage structure."""
    base = polyalg.Polynomial(_chebyshev(r)).compose_affine(-1, 2)
    polys = []
    for j in range(m):
        shift = Fraction(1, 2) + Fraction(j, 5)
        polys.append(polyalg.Polynomial([c / 2 for c in base.coeffs])
                     + polyalg.Polynomial([shift]))
    return polys


def random_reparam_system(rng):
    """Random (polys, r): m <= 3, r <= 8, dyadic coefficients uniform in
    [-2, 2]; rejection-sampled so the preimage of the unit cube is nonempty
    on 512 probe points (otherwise coverage checks are vacuous)."""
    probe = np.linspace(0.0, 1.0, 512)
    while True:
        m = rng.randrange(1, 4)
        r = rng.randrange(2, 9)
        polys = [polyalg.Polynomial(
            [Fraction(rng.randrange(-2 << 16, (2 << 16) + 1), 1 << 16)
             for _ in range(r + 1)]) for _ in range(m)]
        member = np.ones_like(probe, dtype=bool)
        for p in polys:
            v = p(probe)
            member &= (v >= 0) & (v <= 1)
        if member.any():
            return polys, r


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_combinatorics():
    """Bell numbers vs set-partition enumeration; factorial identity; r^r."""
    table = BellTable(15)
    for r in range(1, 11):
        if table.bell_number(r) != sum(1 for _ in enumerate_set_partitions(r)):
            return False, f"B_{r} mismatch vs enumeration"
    for r in (11, 12):
        if table.bell_number(r) != count_set_partitions(r):
            return False, f"B_{r} mismatch vs partition recursion"
    for k in range(1, 13):
        for l in range(1, k + 1):
            lhs = table.partial_bell(k, l,
                                     [math.factorial(i) for i in range(1, k - l + 2)])
            rhs = math.comb(k, l) * math.comb(k - 1, l - 1) * math.factorial(k - l)
            if lhs != rhs:
                return False, f"factorial identity fails at (k,l)=({k},{l})"
    for r in range(1, 16):
        if table.bell_number(r) > r ** r:
            return False, f"B_{r} > {r}^{r}"
    return True, "B_1..B_12 exact; factorial identity k<=12; B_r <= r^r r<=15"


def criterion_qr():
    """Q_r exactness, functional equation, lower bound, cofactor norms."""
    for r in range(1, 13):
        q, b_r = polyalg.q_polynomial(r)
        if q.eval_exact(0) != 0 or q.eval_exact(1) != 1:
            return False, f"Q_{r} endpoint values wrong"
        for k in range(1, r):
            dq = q.diff(k)
            if dq.eval_exact(0) != 0 or dq.eval_exact(1) != 0:
                return False, f"Q_{r} not flat at order {k}"
        if polyalg.Polynomial([1]) - q.compose_affine(1, -1) != q:
            return False, f"Q_{r} functional equation fails"
        # lower bound, with the constant its own derivation produces:
        # b_r * beta(r,r) = 1, so Q_r(x) >= x^r (1-x)^r
        xs = np.linspace(0.0, 1.0, 1001)
        lower = xs ** r * (1 - xs) ** r
        if np.any(q(xs) < lower - 1e-12):
            return False, f"Q_{r} lower bound fails"
        # cofactor norm, in the index form the composition argument uses:
        # ||R_{i-1}||_inf <= (r/2)^i i!; vacuous for the identity Q_1
        grid = np.linspace(0.0, 1.0, 2049)
        for i in range(1, r + 1 if r >= 2 else 0):
            sup = float(np.max(np.abs(
                polyalg.q_derivative_factorization(r, i - 1)(grid))))
            if sup > (r / 2.0) ** i * math.factorial(i) * (1 + 1e-12):
                return False, f"cofactor norm fails at r={r}, i={i}"
    return True, "Q_r exact/flat, functional equation, lower bound, cofactor norms r<=12"


def criterion_reparam():
    """100 random systems: defect 0 and norms <= 1+1e-6; count slope <= 8.5."""
    rng = random.Random(20240607)
    worst_norm = 0.0
    for trial in range(100):
        polys, r = random_reparam_system(rng)
        atlas = polyalg.reparametrize_1d(polys, r)
        rep = polyalg.verify_atlas(atlas, 10000)
        if rep.coverage_defect != 0:
            return False, f"trial {trial}: coverage defect {rep.coverage_defect}"
        worst_norm = max(worst_norm, rep.max_norm_comp, rep.max_norm_phi)
        if worst_norm > 1 + 1e-6:
            return False, f"trial {trial}: sampled norm {worst_norm:.8f}"
    slopes = []
    for m in (1, 2, 3):
        pts = []
        for r in range(2, 11):
            atlas = polyalg.reparametrize_1d(fixed_reparam_system(m, r), r)
            pts.append((math.log(r), math.log(atlas.chart_count)))
        xs, ys = zip(*pts)
        slopes.append(float(np.polyfit(xs, ys, 1)[0]))
    if max(slopes) > 8.5:
        return False, f"chart-count slope {max(slopes):.2f} > 8.5"
    return True, (f"100 systems defect=0, max norm {worst_norm:.8f}; "
                  f"slopes {['%.2f' % s for s in slopes]}")


def criterion_sft():
    """Full shift, golden mean, Y_p battery, power rule."""
    h_full = symbolic.sft_entropy(symbolic.sft_from_forbidden_words(2, []))
    if abs(h_full - LOG2) > 1e-12:
        return False, f"full shift entropy off by {h_full - LOG2:.2e}"
    gm = symbolic.sft_from_forbidden_words(2, ["11"])
    h_gm = symbolic.sft_entropy(gm)
    golden = math.log((1 + math.sqrt(5)) / 2)
    if abs(h_gm - golden) > 1e-6:
        return False, f"golden mean entropy off by {h_gm - golden:.2e}"
    for p in range(3, 13):
        h = symbolic.sft_entropy(symbolic.build_Yp(p))
        ref = math.log(2 ** p - 1) / p
        if abs(h - ref) > 2.0 ** (1 - p):
            return False, f"Y_{p} entropy {h:.6f} vs {ref:.6f} beyond 2^(1-p)"
        if not h < LOG2:
            return False, f"Y_{p} entropy not strictly below log 2"
    for name, sft in (("golden", gm), ("Y3", symbolic.build_Yp(3))):
        h1 = symbolic.sft_entropy(sft)
        for p in (2, 3, 4):
            hp = symbolic.sft_entropy(symbolic.power_system(sft, p))
            if abs(hp - p * h1) > 1e-6:
                return False, f"power rule fails for {name}, p={p}"
    return True, "full/golden exact, Y_3..Y_12 within 2^(1-p), power rule"


def _tail_sweep(m, ks):
    """tail_entropy_estimate of m at eps = 2^-k for each k, by k.  The
    largest k runs first: its fold-cycle solve covers every period a
    smaller k reads (`entropy._fold_cycle_centers`)."""
    return {k: entropy.tail_entropy_estimate(m, 2.0 ** -k)
            for k in sorted(ks, reverse=True)}


def criterion_tent_tail():
    """Tail bracket for the tent map at eps = 2^-k, k = 3..8."""
    t = maps.tent_map()
    lo, hi = 0.8 * LOG2, 1.2 * math.log(4)
    prods = []
    for k, est in sorted(_tail_sweep(t, range(3, 9)).items()):
        prod = est.rate * k  # |log2 eps| = k
        prods.append(round(prod, 4))
        if not lo <= prod <= hi:
            return False, f"k={k}: product {prod:.4f} outside [{lo:.4f}, {hi:.4f}]"
    return True, f"products {prods} within [{lo:.4f}, {hi:.4f}]"


def criterion_quadratic():
    """eps-entropy near log 2; tail floor; bound domination."""
    f4 = maps.quadratic_map()
    est = entropy.eps_entropy(f4, 2.0 ** -8, grid_bits=16, n_range=range(1, 13))
    if not LOG2 - 0.05 <= est.slope <= LOG2 + 0.05:
        return False, f"eps-entropy slope {est.slope:.4f} not within log2 +/- 0.05"
    details = [f"h={est.slope:.4f}"]
    for k, tail in sorted(_tail_sweep(f4, range(4, 10)).items()):
        eps = 2.0 ** -k
        floor = tail.rate * abs(math.log(eps))
        if floor < 0.1:
            return False, f"k={k}: tail*|log eps| = {floor:.4f} < 0.1"
        b3 = entropy.bound_quasionedim(f4, eps)
        b2 = entropy.bound_wmulti(f4, eps)
        if tail.rate > b3 or tail.rate > b2:
            return False, (f"k={k}: tail {tail.rate:.4f} exceeds a bound "
                           f"(thm3 {b3:.4f}, thm2 {b2:.4f})")
        details.append(f"k{k}:{floor:.2f}")
    return True, " ".join(details)


def criterion_power():
    """est(f, eps) <= est(f^p, eps)/p + 0.02."""
    pieces = []
    for m in (maps.tent_map(), maps.quadratic_map()):
        for p in (2, 3):
            rep = entropy.power_bound_check(m, 2.0 ** -6, p, tolerance=0.02)
            if not rep["holds"]:
                return False, (f"{m.name} p={p}: est {rep['est_f']:.4f} > "
                               f"{rep['est_fp'] / p:.4f} + 0.02")
            pieces.append(f"{m.name}/p{p}:ok")
    return True, " ".join(pieces)


def criterion_rates():
    """G lower bound, monotonicity, log-convexity, weight-from-rate."""
    kpow2 = rates.parse_weight("kpow2")
    for j in range(1, 7):
        x = 10.0 ** j
        g = rates.g_inverse(kpow2, x)
        if g < x / math.log(x):
            return False, f"G({x:g}) = {g} < x/log x"
    if not rates.is_log_convex(kpow2, 50):
        return False, "kpow2 not log-convex"
    probes = [2.0, 5.0, 17.0, 100.0]
    gs = [rates.g_inverse(kpow2, x) for x in probes]
    if any(a > b for a, b in zip(gs, gs[1:])):
        return False, "g_inverse not monotone in x"
    for l in (1, 4, 9):
        if rates.g_inverse(kpow2, kpow2.a(l)) < l:
            return False, f"g_inverse(a_{l}) < {l}"
    w, _ = rates.weight_from_rate(lambda e: e ** (1.0 / 7), 1.0)
    if not rates.is_log_convex(w, 120):
        return False, "fromrate weight not log-convex"
    for j in range(2, 7):
        eps = 10.0 ** -j
        g = rates.g_inverse(w, 3 * abs(math.log(eps)))
        if w.log_m0 / g > eps ** (1.0 / 7):
            return False, f"consistency fails at eps=1e-{j}"
    return True, "G >= x/log x on 10..1e6; monotone; log-convex; fromrate ok"


def criterion_thickness():
    """Exact thickness values and 50 random linked gap-lemma checks."""
    c3 = symbolic.middle_cantor(Fraction(1, 3), 12)
    if symbolic.thickness(c3) != 1:
        return False, "middle-third thickness != 1"
    c2 = symbolic.middle_cantor(Fraction(1, 2), 12)
    if symbolic.thickness(c2) != Fraction(1, 2):
        return False, "middle-half thickness != 1/2"
    rng = random.Random(987654)
    for trial in range(50):
        # linked hulls with rational endpoints
        a1 = Fraction(rng.randrange(0, 100), 1000)
        b1 = a1 + Fraction(rng.randrange(400, 700), 1000)
        a2 = a1 + Fraction(rng.randrange(100, 300), 1000)
        b2 = b1 + Fraction(rng.randrange(100, 300), 1000)
        k = symbolic.middle_cantor(Fraction(1, 5), 9).scaled(a1, b1)
        f = symbolic.middle_cantor(Fraction(1, 5), 9).scaled(a2, b2)
        res = symbolic.gap_lemma_check(k, f)
        if res["alternative"] != "intersect":
            return False, f"trial {trial}: got {res['alternative']}"
        if not res["interior_nonempty_all_levels"]:
            return False, f"trial {trial}: empty interior at some level"
        # brute-force cross-validation at the deepest level
        cap = symbolic._interval_list_intersection(k.intervals(9), f.intervals(9))
        if not any(hi > lo for lo, hi in cap):
            return False, f"trial {trial}: brute-force intersection empty"
    return True, "tau exact (1, 1/2); 50 linked pairs intersect at every level"


def criterion_snake():
    """Snake parameters at eps = 10^-1..10^-3."""
    rate = maps.get_rate("invsqrtlog")
    sups = {1: [], 2: [], 3: []}
    for eps in (1e-1, 1e-2, 1e-3):
        params, sm = maps.build_snake(rate, eps, 1.0)
        n_ref = math.ceil(Fraction(1) / Fraction(eps))
        if params.N != n_ref:
            return False, f"eps={eps:g}: N={params.N} != ceil(1/eps)={n_ref}"
        rel = abs(params.M * math.exp(params.P) / eps - 1.0)
        if rel > 1e-12:
            return False, f"eps={eps:g}: M e^P off by {rel:.2e}"
        if sm.oscillation_count() != params.N:
            return False, f"eps={eps:g}: oscillation count {sm.oscillation_count()}"
        for r in (1, 2, 3):
            sups[r].append(sm.profile_derivative_sup(r))
    for r in (1, 2, 3):
        a, b, c = sups[r]
        if not a > b > c:
            return False, f"profile sup order {r} not decreasing: {sups[r]}"
    return True, ("N exact, M e^P = eps to 1e-12, osc = N, "
                  "profile sups decreasing r=1..3")


# (name, tags, criterion, runtime budget in seconds)
CRITERIA = [
    ("1-combinatorics", ("combinatorics",), criterion_combinatorics, 5),
    ("2-qr-pipeline", ("qr", "reparam"), criterion_qr, 10),
    ("3-reparametrizer", ("reparam",), criterion_reparam, 180),
    ("4-sft-entropy", ("sft",), criterion_sft, 20),
    ("5-tent-tail", ("tent", "entropy"), criterion_tent_tail, 120),
    ("6-quadratic", ("quadratic", "entropy"), criterion_quadratic, 180),
    ("7-power-lemma", ("power", "entropy"), criterion_power, 120),
    ("8-rates", ("rates",), criterion_rates, 5),
    ("9-thickness", ("thickness",), criterion_thickness, 10),
    ("10-snake", ("snake",), criterion_snake, 30),
]


def verify_all(tag="full"):
    """Run the tagged subset; print one pass/fail line per criterion.

    A criterion fails when its check fails or its runtime budget is blown.
    A tag that selects no criterion is a ConfigError, raised before any runs.
    """
    chosen = [c for c in CRITERIA if tag == "full" or tag in c[1]]
    if not chosen:
        known = sorted({t for _, tags, _, _ in CRITERIA for t in tags})
        raise ConfigError("tag", f"no criterion has tag {tag!r}; tags: "
                                 f"full, {', '.join(known)}")
    all_ok = True
    for name, _, fn, budget in chosen:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, do not hide
            ok, detail = False, f"exception: {exc!r}"
        elapsed = time.perf_counter() - t0
        if ok and elapsed > budget:
            ok = False
            detail += f" [over runtime budget {budget}s]"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.1f}s): {detail}")
    return all_ok
