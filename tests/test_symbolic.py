"""SFT entropies vs independent oracles, shadowing, thickness, gap lemma."""

import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from tailent.errors import (DegenerateShiftError, DomainError,
                            HypothesisUnmetError, MixingRequiredError,
                            PrecisionError, TailentError)
from tailent.symbolic import (CantorApprox, GapRecord, build_Yp, gap_lemma_check,
                              load_sft_file, middle_cantor, parse_cantor_spec,
                              periodic_shadow, power_system,
                              sft_from_forbidden_words, sft_entropy, thickness,
                              word_count, word_count_entropy,
                              _interval_list_intersection)

GOLDEN = sft_from_forbidden_words(2, ["11"])
FULL = sft_from_forbidden_words(2, [])


def brute_count(alphabet, words, n):
    """Count length-n strings avoiding every word (direct enumeration)."""
    words = [tuple(int(c) for c in w) for w in words]

    def bad(s):
        return any(s[i:i + len(w)] == w for w in words
                   for i in range(len(s) - len(w) + 1))

    return sum(1 for s in product(range(alphabet), repeat=n) if not bad(s))


def test_full_shift_matrix_and_entropy():
    assert FULL.size == 2
    assert all(all(x == 1 for x in row) for row in FULL.matrix)
    assert sft_entropy(FULL) == pytest.approx(math.log(2), abs=1e-12)


def test_golden_mean_matrix_and_entropy():
    assert GOLDEN.matrix == ((1, 1), (1, 0))
    ref = math.log(max(abs(np.linalg.eigvals(np.array([[1, 1], [1, 0]])))))
    assert sft_entropy(GOLDEN) == pytest.approx(ref, abs=1e-9)
    assert ref == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-12)


def test_y5_block_structure():
    y5 = sft_from_forbidden_words(2, ["01000"])
    assert y5.block_order == 4 and y5.size == 16
    # exactly one transition window spells the forbidden word
    assert sum(sum(row) for row in y5.matrix) == 31


@pytest.mark.parametrize("words,n_max", [(["11"], 14), (["010"], 14),
                                         (["01000"], 12), (["11", "000"], 12)])
def test_word_counts_vs_enumeration(words, n_max):
    sft = sft_from_forbidden_words(2, words)
    for n in range(1, n_max + 1):
        assert word_count(sft, n) == brute_count(2, words, n)


def test_y2_degenerate_counts_and_entropy():
    y2 = build_Yp(2)
    for n in range(1, 11):
        assert word_count(y2, n) == n + 1
    h = sft_entropy(y2)
    assert h < 1e-4
    # the value the dense reference reaches after 1,000,061 steps (seconds
    # to rerun), pinned instead of recomputed
    assert h == 9.999365041502865e-07


def test_yp_entropy_monotone_and_asymptotic():
    prev = 0.0
    for p in range(3, 13):
        h = sft_entropy(build_Yp(p))
        ref = math.log(2 ** p - 1) / p
        assert abs(h - ref) <= 2.0 ** (1 - p)
        assert prev < h < math.log(2)
        prev = h


def test_entropy_vs_word_count_slope():
    for sft in (FULL, GOLDEN, build_Yp(3), build_Yp(4)):
        assert word_count_entropy(sft) == pytest.approx(sft_entropy(sft), abs=1e-4)


def test_power_rule():
    for sft in (GOLDEN, build_Yp(3)):
        h1 = sft_entropy(sft)
        for p in (2, 3, 4):
            assert sft_entropy(power_system(sft, p)) == pytest.approx(
                p * h1, abs=1e-6)


def test_entropy_bounds_by_alphabet():
    for sft in (GOLDEN, build_Yp(4), FULL):
        assert 0.0 <= sft_entropy(sft) <= math.log(sft.alphabet) + 1e-12


def test_empty_language_error():
    with pytest.raises(DegenerateShiftError):
        sft_from_forbidden_words(2, ["0", "1"])


def test_periodic_shadow_full_shift():
    res = periodic_shadow(FULL, "0", "1", 2)
    assert res["period"] == 10 and res["n1"] == 1
    assert len(res["word"]) == 10
    assert res["word"][res["u_phase"]] == 0
    assert res["word"][res["v_phase"]] == 1


def test_periodic_shadow_golden():
    res = periodic_shadow(GOLDEN, "00", "10", 3)
    w, period = res["word"], res["period"]
    assert period == 4 * 3 + 2 * res["n1"]
    assert 4 * 3 <= period <= 6 * 3  # n >= n1
    doubled = w + w
    for i in range(period):  # admissibility against the matrix
        a, b = doubled[i], doubled[i + 1]
        assert GOLDEN.matrix[GOLDEN.states.index((a,))][GOLDEN.states.index((b,))] == 1
    assert doubled[res["u_phase"]:res["u_phase"] + 2] == (0, 0)
    assert doubled[res["v_phase"]:res["v_phase"] + 2] == (1, 0)


def test_periodic_shadow_requires_mixing():
    period2 = sft_from_forbidden_words(2, ["11", "00"])
    with pytest.raises(MixingRequiredError):
        periodic_shadow(period2, "0", "1", 2)


def test_periodic_shadow_rejects_inadmissible_word():
    with pytest.raises(DomainError):
        periodic_shadow(GOLDEN, "11", "0", 3)


def test_load_sft_file(tmp_path):
    path = tmp_path / "golden.sft"
    path.write_text("2\n11\n")
    sft = load_sft_file(str(path))
    assert sft.matrix == GOLDEN.matrix


def test_successor_lists_match_matrix():
    for sft in (GOLDEN, FULL, build_Yp(4), sft_from_forbidden_words(3, ["01", "22"]),
                power_system(build_Yp(3), 3)):
        assert len(sft.succ) == sft.size
        for row, dense in zip(sft.succ, sft.matrix):
            assert list(row) == sorted(set(row))
            assert dense == tuple(int(j in row) for j in range(sft.size))
    assert GOLDEN.succ == ((0, 1), (0,))


# ---------------------------------------------------------------------------
# power iteration against the dense reference
# ---------------------------------------------------------------------------

def ref_sft_entropy(sft, tol=1e-12, max_iter=5_000_000):
    """The np.add.at power iteration over the dense matrix that sft_entropy
    replaced.  It stops silently at max_iter, so it returns
    (log lam, converged)."""
    succ = [np.nonzero(np.asarray(row))[0] for row in sft.matrix]
    if not any(len(row) for row in succ):
        raise DegenerateShiftError("empty transition matrix")
    flat_src = np.concatenate([np.full(len(row), i) for i, row in enumerate(succ)
                               if len(row)])
    flat_dst = np.concatenate([row for row in succ if len(row)])
    v = np.ones(sft.size)
    lam_prev, stable, converged = 0.0, 0, False
    for _ in range(max_iter):
        w = np.zeros(sft.size)
        np.add.at(w, flat_src, v[flat_dst])
        norm = w.sum()
        if norm == 0.0:
            raise DegenerateShiftError("nilpotent transition matrix")
        lam = norm / v.sum()
        v = w / norm
        if abs(lam - lam_prev) <= tol * max(lam, 1.0):
            stable += 1
            if stable >= 10:
                converged = True
                break
        else:
            stable = 0
        lam_prev = lam
    if lam <= 0:
        raise DegenerateShiftError("spectral radius zero")
    return math.log(lam), converged


def assert_matches_reference(sft, **kw):
    """sft_entropy equals the reference bit for bit where the reference
    converges, raises PrecisionError where it does not, and raises the
    same error type where it raises."""
    try:
        want, converged = ref_sft_entropy(sft, **kw)
    except TailentError as exc:
        with pytest.raises(type(exc)):
            sft_entropy(sft, **kw)
        return
    if converged:
        assert sft_entropy(sft, **kw) == want
    else:
        with pytest.raises(PrecisionError):
            sft_entropy(sft, **kw)


@pytest.mark.parametrize("p", range(3, 14))
def test_sft_entropy_matches_reference_yp(p):
    assert_matches_reference(build_Yp(p))


def test_sft_entropy_matches_reference_single_words():
    words = ["".join(w) for n in range(3, 8) for w in product("01", repeat=n)]
    assert len(words) == 248
    for word in words:
        assert_matches_reference(sft_from_forbidden_words(2, [word]))


def test_sft_entropy_matches_reference_power_systems():
    sizes = set()
    for sft in (GOLDEN, build_Yp(3)):
        for p in (2, 3, 4):
            power = power_system(sft, p)
            sizes.add(power.size)
            assert_matches_reference(power)
    assert min(sizes) < 8 <= max(sizes)


def test_sft_entropy_matches_reference_random_shifts():
    rng = random.Random(20140)
    sizes = []
    for _ in range(120):
        alphabet = rng.choice((3, 4))
        words = ["".join(str(rng.randrange(alphabet)) for _ in range(rng.choice((2, 3))))
                 for _ in range(rng.randint(1, 5))]
        try:
            sft = sft_from_forbidden_words(alphabet, words)
        except DegenerateShiftError:
            continue
        sizes.append(sft.size)
        assert_matches_reference(sft, max_iter=20_000)
    assert sum(n < 8 for n in sizes) >= 20 and sum(n >= 8 for n in sizes) >= 20


def test_sft_entropy_matches_reference_nilpotent():
    # only strictly increasing symbol sequences: no cycle, on both paths
    for alphabet in (4, 9):
        words = [f"{a}{b}" for a in range(alphabet) for b in range(a + 1)]
        sft = sft_from_forbidden_words(alphabet, words)
        assert sft.size == alphabet
        with pytest.raises(DegenerateShiftError):
            ref_sft_entropy(sft)
        assert_matches_reference(sft)


def test_numpy_sum_is_left_fold_below_8():
    # the premise of the Python-float path of sft_entropy: numpy sums
    # float64 arrays of up to 7 elements left to right
    rng = np.random.default_rng(7)
    reorders = 0
    for n in range(1, 8):
        for _ in range(300):
            a = rng.random(n) * 10.0 ** rng.integers(-8, 9, n)
            fold = 0.0
            for x in a.tolist():
                fold += x
            assert np.sum(a) == fold and a.sum() == fold
            back = 0.0
            for x in a.tolist()[::-1]:
                back += x
            reorders += back != fold
    assert reorders > 0  # the data can tell one summation order from another


def test_sft_entropy_refuses_unconverged_estimate():
    # period 2: 0 -> {1, 2} -> 0; the estimate oscillates and never settles
    period2 = sft_from_forbidden_words(3, ["00", "11", "12", "21", "22"])
    with pytest.raises(PrecisionError):
        sft_entropy(period2, max_iter=10_000)


# ---------------------------------------------------------------------------
# thickness and gap lemma
# ---------------------------------------------------------------------------

def test_thickness_exact_values():
    assert thickness(middle_cantor(Fraction(1, 3), 12)) == 1
    assert thickness(middle_cantor(Fraction(1, 2), 12)) == Fraction(1, 2)
    assert thickness(middle_cantor(Fraction(1, 5), 12)) == 2


def test_thickness_no_gaps_sentinel():
    c = CantorApprox(levels=[[(Fraction(0), Fraction(1))]], gaps=[])
    assert thickness(c) == math.inf


def test_thickness_affine_invariance():
    c = middle_cantor(Fraction(1, 3), 10)
    s = c.scaled(Fraction(2, 7), Fraction(5, 7))
    assert thickness(s) == thickness(c)
    assert s.hull() == (Fraction(2, 7), Fraction(5, 7))


def test_thickness_depth_control():
    c = middle_cantor(Fraction(1, 3), 6)
    assert thickness(c, 3) == 1
    with pytest.raises(DomainError):
        thickness(c, 7)


def test_gap_lemma_linked_intersection():
    k = middle_cantor(Fraction(1, 5), 10)
    f = middle_cantor(Fraction(1, 5), 10).scaled(Fraction(1, 3), Fraction(13, 10))
    res = gap_lemma_check(k, f)
    assert res["alternative"] == "intersect"
    assert res["interior_nonempty_all_levels"]
    # brute-force exact cross-check at the deepest level
    cap = _interval_list_intersection(k.intervals(10), f.intervals(10))
    assert any(hi > lo for lo, hi in cap)


def test_gap_lemma_containment_cases():
    f = middle_cantor(Fraction(1, 3), 10)
    inside = middle_cantor(Fraction(1, 5), 8).scaled(Fraction(21, 50), Fraction(29, 50))
    assert gap_lemma_check(inside, f, depth=8)["alternative"] == "K-in-gap-of-F"
    assert gap_lemma_check(f, inside, depth=8)["alternative"] == "F-in-gap-of-K"
    disjoint = middle_cantor(Fraction(1, 5), 8).scaled(Fraction(3, 2), Fraction(2, 1))
    assert gap_lemma_check(disjoint, f, depth=8)["alternative"] == "K-in-gap-of-F"


def test_gap_lemma_hypothesis_unmet():
    a = middle_cantor(Fraction(1, 3), 8)
    b = middle_cantor(Fraction(1, 3), 8).scaled(Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(HypothesisUnmetError):
        gap_lemma_check(a, b)


def test_parse_cantor_spec():
    c = parse_cantor_spec("remove-middle 1/3 depth 12")
    assert c.depth == 12 and thickness(c) == 1
    with pytest.raises(ValueError):
        parse_cantor_spec("remove-edges 1/3 depth 2")


def test_sft_entropy_stops_at_a_period_2_cycle():
    # the normalized iterate alternates [1/2, 1/4, 1/4] <-> [1/3, 1/3, 1/3]
    # and the estimate 4/3 <-> 3/2, so no step count could make it converge
    period2 = sft_from_forbidden_words(3, ["00", "11", "12", "21", "22"])
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match="oscillates with period 2"):
        sft_entropy(period2)
    assert time.perf_counter() - start < 0.5
    # the reference runs into max_iter on the same shift
    want, converged = ref_sft_entropy(period2, max_iter=1000)
    assert not converged


def test_sft_entropy_period_2_cycle_on_the_array_path():
    # 0 -> {1..8} -> 0: 9 states, iterated on numpy arrays
    words = ["00"] + [f"{a}{b}" for a in range(1, 9) for b in range(1, 9)]
    shift = sft_from_forbidden_words(9, words)
    assert shift.size >= 8
    with pytest.raises(PrecisionError, match="oscillates with period 2"):
        sft_entropy(shift)


# ---------------------------------------------------------------------------
# Cantor constructions against the code they replaced
# ---------------------------------------------------------------------------

def ref_middle_cantor(remove_ratio, depth, hull=(0, 1)):
    r = Fraction(remove_ratio)
    keep = (1 - r) / 2
    lo, hi = Fraction(hull[0]), Fraction(hull[1])
    levels = [[(lo, hi)]]
    gaps = []
    for level in range(1, depth + 1):
        nxt = []
        for a, b in levels[-1]:
            w = b - a
            l_int = (a, a + keep * w)
            r_int = (b - keep * w, b)
            gap = (a + keep * w, b - keep * w)
            gaps.append((level, gap, l_int, r_int))
            nxt.extend([l_int, r_int])
        levels.append(nxt)
    return levels, gaps


def ref_scaled(c, a, b):
    a, b = Fraction(a), Fraction(b)
    h0, h1 = c.hull()
    span = h1 - h0

    def mv(x):
        return a + (b - a) * (x - h0) / span

    levels = [[(mv(lo), mv(hi)) for lo, hi in lv] for lv in c.levels]
    gaps = [(g.level, (mv(g.gap[0]), mv(g.gap[1])),
             (mv(g.left[0]), mv(g.left[1])),
             (mv(g.right[0]), mv(g.right[1]))) for g in c.gaps]
    return levels, gaps


def cantor_parts(c):
    return c.levels, [(g.level, g.gap, g.left, g.right) for g in c.gaps]


def assert_fractions(parts):
    levels, gaps = parts
    for lv in levels:
        for iv in lv:
            assert all(type(x) is Fraction for x in iv)
    for g in gaps:
        assert all(type(x) is Fraction for iv in g[1:] for x in iv)


@pytest.mark.parametrize("ratio", [Fraction(1, 3), Fraction(1, 5), Fraction(1, 2),
                                   Fraction(2, 7), Fraction(9, 10)])
def test_middle_cantor_and_scaled_match_reference(ratio):
    for hull in ((0, 1), (Fraction(1, 3), Fraction(13, 10)), (-2, Fraction(5, 7))):
        for depth in (0, 1, 2, 5, 8):
            c = middle_cantor(ratio, depth, hull)
            assert cantor_parts(c) == ref_middle_cantor(ratio, depth, hull)
            assert_fractions(cantor_parts(c))
            for a, b in ((Fraction(2, 7), Fraction(9, 5)), (0, 1), (3, -1),
                         (Fraction(1, 1000), Fraction(1, 1000)),
                         (Fraction(87, 1000), Fraction(613, 1000))):
                s = c.scaled(a, b)
                assert cantor_parts(s) == ref_scaled(c, a, b)
                assert_fractions(cantor_parts(s))


def test_scaled_endpoints_with_equal_values_in_distinct_objects():
    # the image cache is keyed by value, so equal endpoints that are
    # distinct objects (here built by hand) map to the same image
    lv0 = [(Fraction(0), Fraction(1))]
    lv1 = [(Fraction(0), Fraction(2, 5)), (Fraction(6, 10), Fraction(1))]
    gap = GapRecord(1, (Fraction(4, 10), Fraction(3, 5)), lv1[0], lv1[1])
    c = CantorApprox([lv0, lv1], [gap])
    s = c.scaled(Fraction(1, 7), Fraction(3, 2))
    assert cantor_parts(s) == ref_scaled(c, Fraction(1, 7), Fraction(3, 2))
    assert thickness(s) == thickness(c) == 2


def test_gap_lemma_on_scaled_pairs_matches_reference_construction():
    rng = random.Random(987654)
    for _ in range(6):
        a1 = Fraction(rng.randrange(0, 100), 1000)
        b1 = a1 + Fraction(rng.randrange(400, 700), 1000)
        a2 = a1 + Fraction(rng.randrange(100, 300), 1000)
        b2 = b1 + Fraction(rng.randrange(100, 300), 1000)
        base = middle_cantor(Fraction(1, 5), 6)
        k, f = base.scaled(a1, b1), base.scaled(a2, b2)
        rk, rf = ref_scaled(base, a1, b1), ref_scaled(base, a2, b2)
        assert cantor_parts(k) == rk and cantor_parts(f) == rf
        res = gap_lemma_check(k, f)
        assert res["alternative"] == "intersect"
        assert res["interior_nonempty_all_levels"]
