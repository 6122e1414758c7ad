"""Output checks: each returns a list of error strings (empty when the
output passes).  They use tailent's public API as an independent oracle
(the same quantity reached by another route or from its definition) and
closed-form references; none of them runs inside the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

from tailent import entropy, maps, symbolic

LOG2 = math.log(2)


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _rows(text, columns):
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != ["schema", "config"] + columns:
        raise ValueError(f"unexpected CSV header {reader.fieldnames}")
    return list(reader)


def _fit(ns, counts):
    """Slope and rate as documented for eps_entropy, by the closed-form
    least-squares formula (not numpy.polyfit)."""
    logs = [math.log(max(c, 1)) for c in counts]
    k = len(ns)
    lo = k // 2 if k >= 4 else 0
    xs, ys = ns[lo:], logs[lo:]
    slope = 0.0
    if len(xs) >= 2 and not np.allclose(ys, ys[0]):
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
    return max(slope, 0.0), logs[-1] / ns[-1]


# ---------------------------------------------------------------------------
# grid path
# ---------------------------------------------------------------------------

ENTROPY_COLUMNS = ["method", "map", "n", "eps", "delta", "count", "rate",
                   "slope", "direction"]


def entropy_csv(spec, grid_bits, n_max, text):
    """eps_entropy count series: cap and knee rule, fitted slope and rate,
    and at n = 1 and the last clean n the same count from spanning_count,
    whose greedy cover must not exceed it (cover <= net)."""
    errors = []
    m = maps.get_map(spec)
    rows = _rows(text, ENTROPY_COLUMNS)
    cap = max(64, (2 ** grid_bits + 1) // 16)
    by_eps = {}
    for r in rows:
        by_eps.setdefault(r["eps"], []).append(r)
    if not by_eps:
        return ["no rows"]
    for eps_s, group in by_eps.items():
        eps = float(eps_s)
        ns = [int(r["n"]) for r in group]
        counts = [int(r["count"]) for r in group]
        if ns != list(range(1, n_max + 1)):
            errors.append(f"eps={eps_s}: n column {ns}")
            continue
        if any(r["method"] != "eps-entropy" or r["map"] != m.name
               or r["direction"] != "upper-bias" for r in group):
            errors.append(f"eps={eps_s}: method/map/direction column")
        if min(counts) < 1:
            errors.append(f"eps={eps_s}: count below 1")
            continue
        knee = next((j for j, c in enumerate(counts) if c >= cap), None)
        clean = len(ns) if knee is None else knee
        if knee is not None and any(c != counts[knee] for c in counts[knee:]):
            errors.append(f"eps={eps_s}: counts change after the knee")
        if clean == 0:
            errors.append(f"eps={eps_s}: saturated at n=1")
            continue
        slope, rate = _fit(ns[:clean], counts[:clean])
        if not (_close(slope, float(group[0]["slope"]))
                and _close(rate, float(group[0]["rate"]))):
            errors.append(f"eps={eps_s}: slope/rate {group[0]['slope']}/"
                          f"{group[0]['rate']} vs refit {slope!r}/{rate!r}")
        for n in sorted({1, ns[clean - 1]}):
            cover, net = entropy.spanning_count(m, n, eps, grid_bits=grid_bits)
            if net != counts[n - 1]:
                errors.append(f"eps={eps_s} n={n}: count {counts[n - 1]} "
                              f"!= spanning_count net {net}")
            if cover > net:
                errors.append(f"eps={eps_s} n={n}: cover {cover} > net {net}")
    return errors


MODULUS_COLUMNS = ["map", "eps", "m0", "p_eps", "N_eps", "bound", "capped"]


def _hloc(t):
    return 1.0 / abs(math.log(t))      # the CLI's modulus target


def _p_of(m, scale, grid_bits, p_cap=64):
    """Least p with (1/p) log r_p(eps/4) - h(eps/4) <= hloc(eps), from the
    definition; also checks cover <= net at every p it visits."""
    h = entropy.eps_entropy(m, scale / 4, grid_bits=grid_bits).slope
    errors = []
    for p in range(1, p_cap + 1):
        cover, net = entropy.spanning_count(m, p, scale / 4, grid_bits=grid_bits)
        if cover > net:
            errors.append(f"scale={scale!r} p={p}: cover {cover} > net {net}")
        if math.log(cover) / p - h <= _hloc(scale):
            return p, errors
    return None, errors + [f"p exceeded {p_cap} at scale {scale!r}"]


def modulus_csv(spec, grid_bits, m0, text):
    """continuity_modulus rows: p_eps minimal at eps/4 (checked at p_eps and
    p_eps - 1), N_eps within [eps, 0.35] with psi(N_eps) >= eps (p at N_eps
    recomputed from the definition), and the bound equal to
    h(eps) + 2 hloc(N_eps)."""
    m = maps.get_map(spec)
    rows = _rows(text, MODULUS_COLUMNS)
    errors = [] if rows else ["no rows"]
    for r in rows:
        errors += [f"eps={r['eps']}: {e}" for e in _modulus_row(m, grid_bits, m0, r)]
    return errors


def _modulus_row(m, grid_bits, m0, r):
    errors = []
    eps, p_eps, n_eps = float(r["eps"]), int(r["p_eps"]), float(r["N_eps"])
    bound, capped = float(r["bound"]), r["capped"] == "True"
    if r["map"] != m.name or float(r["m0"]) != m0:
        errors.append("map/m0 column")
    h = entropy.eps_entropy(m, eps / 4, grid_bits=grid_bits).slope
    for p, want in ((p_eps, True), (p_eps - 1, False)):
        if p < 1:
            continue
        cover, net = entropy.spanning_count(m, p, eps / 4, grid_bits=grid_bits)
        if cover > net:
            errors.append(f"p={p}: cover {cover} > net {net}")
        if (math.log(cover) / p - h <= _hloc(eps)) != want:
            errors.append(f"p_eps={p_eps} is not the least p (fails at p={p})")
    if not eps <= n_eps <= 0.35:
        errors.append(f"N_eps={n_eps!r} outside [eps, 0.35]")
    if capped != (n_eps == 0.35):
        errors.append(f"capped={capped} with N_eps={n_eps!r}")
    if not capped:
        p_n, errs = _p_of(m, n_eps, grid_bits)
        errors += errs
        if p_n is not None and (n_eps / 4.0) * m0 ** (-p_n) < eps:
            errors.append(f"psi(N_eps) < eps (p={p_n})")
    h_eps = entropy.eps_entropy(m, eps, grid_bits=grid_bits).slope
    if not _close(bound, h_eps + 2.0 * _hloc(n_eps), 1e-12):
        errors.append(f"bound {bound!r} != h + 2 hloc(N) = "
                      f"{h_eps + 2.0 * _hloc(n_eps)!r}")
    return errors


# ---------------------------------------------------------------------------
# tail path
# ---------------------------------------------------------------------------

TAIL_COLUMNS = ["method", "map", "eps", "delta", "count", "rate", "slope",
                "direction", "residual", "bound_log2", "bound_log4"]


def tail_csv(spec, text):
    """Tail rows: for C^1 maps the rate is below bound_wmulti and
    bound_quasionedim; for the tent map rate * |log2 eps| <= 1.2 log 4 at
    every eps and >= 0.8 log 2 at dyadic eps (the acceptance bracket, which
    is stated for eps = 2^-k only)."""
    m = maps.get_map(spec)
    rows = _rows(text, TAIL_COLUMNS)
    errors = []
    if not rows:
        return ["no rows"]
    for r in rows:
        eps, rate = float(r["eps"]), float(r["rate"])
        tag = f"eps={r['eps']}"
        alog = abs(math.log(eps))
        if (r["method"] != "tail-entropy" or r["map"] != m.name
                or r["direction"] != "upper-bias"):
            errors.append(f"{tag}: method/map/direction column")
        if int(r["count"]) < 1 or float(r["residual"]) < 0 or rate < 0:
            errors.append(f"{tag}: count/residual/rate sign")
        if float(r["slope"]) != rate or float(r["delta"]) != eps / 16:
            errors.append(f"{tag}: slope or delta column")
        if (float(r["bound_log2"]) != LOG2 / alog
                or float(r["bound_log4"]) != math.log(4) / alog):
            errors.append(f"{tag}: reference columns")
        if m.smooth:
            for name, fn in (("wmulti", entropy.bound_wmulti),
                             ("quasionedim", entropy.bound_quasionedim)):
                b = fn(m, eps)
                if rate > b:
                    errors.append(f"{tag}: rate {rate!r} > bound_{name} {b!r}")
        else:
            k = abs(math.log2(eps))
            if rate * k > 1.2 * math.log(4):
                errors.append(f"{tag}: rate*|log2 eps| {rate * k!r} > 1.2 log 4")
            if k == round(k) and rate * k < 0.8 * LOG2:
                errors.append(f"{tag}: rate*|log2 eps| {rate * k!r} < 0.8 log 2")
    return errors


def power_report(p, tolerance, text):
    rep = json.loads(text)
    errors = []
    if not rep["holds"] or rep["est_f"] > rep["bound"]:
        errors.append(f"power bound fails: est_f {rep['est_f']!r} > "
                      f"{rep['bound']!r}")
    if rep["p"] != p or not _close(rep["bound"], rep["est_fp"] / p + tolerance):
        errors.append("bound != est_fp/p + tolerance")
    return errors


# ---------------------------------------------------------------------------
# exact layers
# ---------------------------------------------------------------------------

def atlas_report(text):
    """Reparametrizer conclusions: coverage defect 0, sampled norms
    <= 1 + 1e-6, nonvacuous preimage, step counts nondecreasing."""
    step1, step2, charts, norm_comp, norm_phi, defect, members = text.split(",")
    errors = []
    if int(defect) != 0:
        errors.append(f"coverage defect {defect}")
    if max(float(norm_comp), float(norm_phi)) > 1 + 1e-6:
        errors.append(f"sampled norm {norm_comp}/{norm_phi} > 1+1e-6")
    if int(members) < 1:
        errors.append("empty preimage (vacuous coverage check)")
    if not int(step1) <= int(step2) <= int(charts):
        errors.append(f"step counts {step1},{step2},{charts} not nondecreasing")
    return errors


def yp_entropy(p, text):
    """Y_p: 2^(p-1) states; Y_2 has entropy 0 (word counts n+1); Y_p for
    p >= 3 within 2^(1-p) of log(2^p - 1)/p, below log 2, and (p <= 12)
    within 1e-4 of the word-count slope."""
    size, h = text.split(",")
    size, h = int(size), float(h)
    errors = []
    if size != 2 ** (p - 1):
        errors.append(f"Y_{p}: {size} states")
    if p == 2:
        sft = symbolic.build_Yp(2)
        if any(symbolic.word_count(sft, n) != n + 1 for n in range(1, 11)):
            errors.append("Y_2 word counts are not n+1")
        if not 0 <= h < 1e-4:
            errors.append(f"Y_2 entropy {h!r} not within 1e-4 of 0")
        return errors
    ref = math.log(2 ** p - 1) / p
    if abs(h - ref) > 2.0 ** (1 - p) or not h < LOG2:
        errors.append(f"Y_{p} entropy {h!r} vs log(2^p-1)/p = {ref!r}")
    if p <= 12:
        wc = symbolic.word_count_entropy(symbolic.build_Yp(p))
        if abs(h - wc) > 1e-4:
            errors.append(f"Y_{p} entropy {h!r} vs word-count slope {wc!r}")
    return errors


def word_sft_entropy(word, text):
    """Single forbidden binary word: entropy equals log of the numpy
    spectral radius (1e-9) and the word-count slope (1e-4)."""
    w, size, h = text.split(",")
    h = float(h)
    sft = symbolic.sft_from_forbidden_words(2, [word])
    errors = []
    if w != word or int(size) != sft.size:
        errors.append(f"word/size columns {w},{size}")
    rho = max(abs(np.linalg.eigvals(np.array(sft.matrix, dtype=float))))
    if abs(h - math.log(rho)) > 1e-9:
        errors.append(f"entropy {h!r} vs log spectral radius {math.log(rho)!r}")
    wc = symbolic.word_count_entropy(sft)
    if abs(h - wc) > 1e-4:
        errors.append(f"entropy {h!r} vs word-count slope {wc!r}")
    return errors


def exact_value(expected, text):
    return [] if text == expected else [f"{text!r} != {expected!r}"]


def _cantor_level(ratio, depth, a, b):
    """Level-`depth` intervals of the middle-`ratio` Cantor set on [a, b]."""
    keep = (1 - ratio) / 2
    level = [(a, b)]
    for _ in range(depth):
        level = [iv for lo, hi in level
                 for iv in ((lo, lo + keep * (hi - lo)), (hi - keep * (hi - lo), hi))]
    return level


def linked_pair(ratio, depth, hulls, text):
    """Gap lemma on linked hulls: the intersection alternative, nonempty
    interior at every level, thickness (1 - r)/(2 r) exactly, and a
    brute-force check that the deepest levels overlap in an interval."""
    res = json.loads(text)
    errors = []
    if res["alternative"] != "intersect" or not res["interior_nonempty_all_levels"]:
        errors.append(f"gap lemma result {res}")
    if res["levels_checked"] != depth + 1:
        errors.append(f"levels_checked {res['levels_checked']}")
    tau = (1 - ratio) / (2 * ratio)
    if Fraction(res["thickness"]) != tau:
        errors.append(f"thickness {res['thickness']} != {tau}")
    (a1, b1), (a2, b2) = hulls
    k = _cantor_level(ratio, depth, a1, b1)
    f = _cantor_level(ratio, depth, a2, b2)
    if not any(min(khi, fhi) > max(klo, flo)
               for klo, khi in k for flo, fhi in f
               if klo < fhi and flo < khi):
        errors.append("deepest levels do not overlap")
    return errors


def rates_report(alpha, text):
    """G(x) is the sup {l : a_l <= x} (a nondecreasing), G(x) >= x/log x
    and monotone for kpow2; the weight from the rate eps^alpha is
    log-convex and consistent: log M_0 / G(3|log eps|) <= eps^alpha."""
    from tailent import rates
    rep = json.loads(text)
    errors = []
    kpow2 = rates.parse_weight("kpow2")
    gs = []
    for x, g in rep["kpow2"]:
        gs.append(g)
        if not kpow2.a(g) <= x < kpow2.a(g + 1):
            errors.append(f"G({x!r}) = {g} is not sup {{l : a_l <= x}}")
        if g < x / math.log(x):
            errors.append(f"G({x!r}) = {g} < x/log x")
    if gs != sorted(gs):
        errors.append("G not monotone in x")
    w, _ = rates.weight_from_rate(lambda e: e ** alpha, rep["log_dt"])
    if not rates.is_log_convex(w, 120):
        errors.append("weight from rate not log-convex")
    for eps, g in rep["fromrate"]:
        if w.log_m0 / g > eps ** alpha:
            errors.append(f"consistency fails at eps={eps!r}")
    return errors
