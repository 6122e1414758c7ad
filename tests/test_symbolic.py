"""SFT entropies vs independent oracles, thickness, gap lemma."""

import math
import random
import time
from collections import namedtuple
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailent.errors import (DegenerateShiftError, DomainError,
                            HypothesisUnmetError, PrecisionError,
                            TailentError)
from tailent import symbolic
from tailent.symbolic import (CantorApprox, Sft, build_Yp,
                              gap_lemma_check, load_sft_file, middle_cantor,
                              parse_cantor_spec, power_system,
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


def test_load_sft_file(tmp_path):
    path = tmp_path / "golden.sft"
    path.write_text("2\n11\n")
    sft = load_sft_file(str(path))
    assert sft.matrix == GOLDEN.matrix


def test_sft_file_skips_indented_comments_and_blank_lines(tmp_path):
    """A line that starts with `#` once stripped is a comment, however it
    is indented, and a blank line is skipped: the file reads as the one
    without them, to the bit."""
    plain, noted = tmp_path / "plain.sft", tmp_path / "noted.sft"
    plain.write_text("2\n11\n")
    noted.write_text("# golden mean\n2\n  # note\n\n\t# tab\n   \n11\n  #\n")
    want = sft_entropy(load_sft_file(str(plain)))
    assert sft_entropy(load_sft_file(str(noted))) == want == 0.48121182505960347


def test_successor_lists_match_matrix():
    for sft in (GOLDEN, FULL, build_Yp(4), sft_from_forbidden_words(3, ["01", "22"]),
                power_system(build_Yp(3), 3)):
        succ = list(sft.successors())
        assert len(succ) == sft.size == len(sft.matrix)
        for row, dense in zip(succ, sft.matrix):
            assert row == sorted(set(row))
            assert dense == tuple(int(j in row) for j in range(sft.size))
        assert sum(map(len, succ)) == len(sft.src) == len(sft.dst)
    assert list(GOLDEN.successors()) == [[0, 1], [0]]


def test_y20_graph_on_codes():
    # 2^19 blocks; of the 2^20 windows only the forbidden word is missing
    y20 = build_Yp(20)
    assert y20.size == 2 ** 19 and len(y20.dst) == 2 ** 20 - 1
    succ, last = y20.successors(), 2 ** 19 - 1
    assert [succ[i] for i in (0, 1, 2, last)] == [[0, 1], [2, 3], [4, 5],
                                                  [last - 1, last]]


# ---------------------------------------------------------------------------
# the integer-coded graphs against the tuple builders they replaced
# ---------------------------------------------------------------------------

def _contains_forbidden(window, words):
    n = len(window)
    for w in words:
        k = len(w)
        if k > n:
            continue
        for i in range(n - k + 1):
            if window[i:i + k] == w:
                return True
    return False


def ref_sft_graph(alphabet, words):
    """The successor lists of the tuple builder sft_from_forbidden_words
    replaced: blocks of the order listed by itertools.product, each window
    scanned for every forbidden word."""
    words = [tuple(int(c) for c in w) for w in words]
    order = max([len(w) - 1 for w in words] + [1])
    states = [b for b in product(range(alphabet), repeat=order)
              if not _contains_forbidden(b, words)]
    if not states:
        raise DegenerateShiftError("every block is forbidden")
    index = {b: i for i, b in enumerate(states)}
    succ = []
    for b in states:
        row = []
        for s in range(alphabet):
            j = index.get(b[1:] + (s,))
            if j is not None and not _contains_forbidden(b + (s,), words):
                row.append(j)
        succ.append(row)
    return succ


def ref_power_graph(sft, p):
    """The successor lists of the O(B^2) power_system it replaced."""
    blocks = [w for w in product(range(sft.alphabet), repeat=p)
              if not _contains_forbidden(w, sft.forbidden)]
    if not blocks:
        raise DegenerateShiftError("no admissible power blocks")
    return [[j for j, v in enumerate(blocks)
             if not _contains_forbidden(u + v, sft.forbidden)] for u in blocks]


_WORD_SETS = st.integers(2, 4).flatmap(lambda a: st.tuples(
    st.just(a), st.lists(st.text("0123"[:a], min_size=1, max_size=5),
                         max_size=3)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_WORD_SETS)
@example((2, ["01000"]))
@example((3, ["0", "1", "2"]))
def test_sft_graphs_match_tuple_builders(shift):
    alphabet, words = shift
    want = outcome(ref_sft_graph, alphabet, words)
    sft = outcome(sft_from_forbidden_words, alphabet, words)
    if isinstance(want, type):
        assert sft is want
        return
    assert sft.size == len(want) and list(sft.successors()) == want
    for n in range(1, 8):
        if alphabet ** n <= 4096:
            assert word_count(sft, n) == brute_count(alphabet, words, n)
    longest = max(map(len, words), default=1)
    for p in range(max(longest - 1, 1), longest + 2):
        if alphabet ** p <= 81:
            power = outcome(power_system, sft, p)
            want = outcome(ref_power_graph, sft, p)
            if isinstance(want, type):
                assert power is want
            else:
                assert power.size == len(want)
                assert list(power.successors()) == want


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


def assert_matches_reference(sft, max_iter=symbolic._SFT_MAX_ITER):
    """sft_entropy equals the reference bit for bit where the reference
    converges, raises PrecisionError where it does not, and raises the
    same error type where it raises; both stop after max_iter steps (the
    module cap is patched, since the function has no such argument, and a
    patch inside the test also serves hypothesis properties)."""
    with mock.patch.object(symbolic, "_SFT_MAX_ITER", max_iter):
        try:
            want, converged = ref_sft_entropy(sft, max_iter=max_iter)
        except TailentError as exc:
            with pytest.raises(type(exc)):
                sft_entropy(sft)
            return
        if converged:
            assert sft_entropy(sft) == want
        else:
            with pytest.raises(PrecisionError):
                sft_entropy(sft)


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


def _graph_sft(succ):
    """The Sft on len(succ) states whose row i lists succ[i]."""
    src = [i for i, row in enumerate(succ) for _ in row]
    return Sft(2, 1, len(succ), src, [j for row in succ for j in row], ())


@st.composite
def _graphs(draw):
    """Successor lists on 1-12 states: arbitrary (empty rows included),
    self-loops only, reducible (edges never lead to a lower state) or
    periodic (classes in a cycle, edges only into the next class)."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("any", "loops", "reducible", "periodic")))
    if kind == "loops":
        return tuple((i,) if draw(st.booleans()) else () for i in range(n))
    if kind == "periodic":
        k = draw(st.integers(1, n))
        cls = [i % k for i in range(n)]
        allowed = [[j for j in range(n) if cls[j] == (cls[i] + 1) % k]
                   for i in range(n)]
    elif kind == "reducible":
        allowed = [list(range(i, n)) for i in range(n)]
    else:
        allowed = [list(range(n))] * n
    return tuple(tuple(sorted(draw(st.sets(st.sampled_from(row)))))
                 if row else () for row in allowed)


@settings(max_examples=30, deadline=None)
@given(_graphs())
@example(((0,), (), (3,), (0, 1, 2, 3)))  # a fold order of w3 shows in the bits
def test_sft_entropy_matches_reference_on_arbitrary_graphs(succ):
    assert_matches_reference(_graph_sft(succ), max_iter=20_000)


@pytest.mark.parametrize("size", [2, 9])
@pytest.mark.parametrize("bad", ["__import__('os')", 1.0, 9, -1])
def test_sft_entropy_refuses_bad_successors_before_compiling(bad, size,
                                                             monkeypatch):
    ran = []
    monkeypatch.setattr(symbolic, "compile", lambda *a: ran.append(a),
                        raising=False)
    monkeypatch.setattr(symbolic, "exec", lambda *a: ran.append(a),
                        raising=False)
    with pytest.raises(DomainError):
        sft_entropy(_graph_sft(((0, bad),) + ((0,),) * (size - 1)))
    assert ran == []


@pytest.mark.parametrize("succ, match", [
    # a repeated successor: matrix would count one edge, word_count and
    # sft_entropy two
    (((0, 0), (0,)), "not strictly ascending"),
    (((1, 0), (0,)), "not strictly ascending"),
])
def test_sft_refuses_rows_its_consumers_read_differently(succ, match):
    with pytest.raises(DomainError, match=match):
        _graph_sft(succ)


@pytest.mark.parametrize("src, dst, match", [
    ([0, 1], [0], "edge arrays of shapes"),
    ([[0, 1]], [[0, 0]], "edge arrays of shapes"),
    # row 1 before row 0: word_count and sft_entropy would not care, the
    # rows of `successors` would
    ([1, 0], [0, 0], "not strictly ascending"),
    ([0, 2], [0, 0], r"must lie in range\(2\)"),
    ([0, 1], np.array([0, 2 ** 64 - 1], dtype=np.uint64),
     r"must lie in range\(2\)"),
    ([0, 1], np.array([0.0, 1.0]), "must be integers"),
    (np.array(["0", "1"]), [0, 1], "must be integers"),
])
def test_sft_refuses_edge_arrays_its_consumers_read_differently(src, dst,
                                                                match):
    with pytest.raises(DomainError, match=match):
        Sft(2, 1, 2, src, dst, ())


def test_sft_stores_integer_entries_as_ints():
    sft = _graph_sft(((np.int64(0), np.int64(1)), (False,)))
    assert sft.src.dtype == sft.dst.dtype == np.intp
    assert list(sft.successors()) == list(GOLDEN.successors())
    assert all(type(j) is int for row in sft.successors() for j in row)
    assert sft_entropy(sft) == sft_entropy(GOLDEN)
    with pytest.raises(ValueError, match="read-only"):
        sft.dst[0] = 1


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


def test_sft_entropy_refuses_unconverged_estimate(monkeypatch):
    monkeypatch.setattr(symbolic, "_SFT_MAX_ITER", 10_000)
    # period 2: 0 -> {1, 2} -> 0; the estimate oscillates and never settles
    period2 = sft_from_forbidden_words(3, ["00", "11", "12", "21", "22"])
    with pytest.raises(PrecisionError, match="oscillates with period 2"):
        sft_entropy(period2)
    # Y_2 settles only after 1,000,061 steps
    with pytest.raises(PrecisionError, match="did not converge in 10000 steps"):
        sft_entropy(build_Yp(2))


# ---------------------------------------------------------------------------
# thickness and gap lemma
# ---------------------------------------------------------------------------

def test_thickness_exact_values():
    assert thickness(middle_cantor(Fraction(1, 3), 12)) == 1
    assert thickness(middle_cantor(Fraction(1, 2), 12)) == Fraction(1, 2)
    assert thickness(middle_cantor(Fraction(1, 5), 12)) == 2


def test_thickness_no_gaps_sentinel():
    c = middle_cantor(Fraction(1, 3), 0)
    assert thickness(c) == math.inf


def test_thickness_affine_invariance():
    c = middle_cantor(Fraction(1, 3), 10)
    s = c.scaled(Fraction(2, 7), Fraction(5, 7))
    assert thickness(s) == thickness(c)
    assert s.intervals(0) == [(Fraction(2, 7), Fraction(5, 7))]


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
    assert gap_lemma_check(inside, f)["alternative"] == "K-in-gap-of-F"
    assert gap_lemma_check(f, inside)["alternative"] == "F-in-gap-of-K"
    disjoint = middle_cantor(Fraction(1, 5), 8).scaled(Fraction(3, 2), Fraction(2, 1))
    assert gap_lemma_check(disjoint, f)["alternative"] == "K-in-gap-of-F"


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
    levels, gaps = cantor_parts(c)
    (h0, h1), = levels[0]
    span = h1 - h0

    def mv(x):
        return a + (b - a) * (x - h0) / span

    levels = [[(mv(lo), mv(hi)) for lo, hi in lv] for lv in levels]
    gaps = [(level, *(tuple(map(mv, iv)) for iv in ivs))
            for level, *ivs in gaps]
    return levels, gaps


def cantor_parts(c):
    """The levels of a CantorApprox as (lo, hi) Fraction pairs, and its gaps
    as (level, gap, left bridge, right bridge): a gap lies between its two
    bridges."""
    def fractions(nums):
        return [Fraction(x, c.den) for x in nums]

    levels = [list(zip(xs[::2], xs[1::2])) for xs in map(fractions, c.ends)]
    level, *cols = c.gap_cols
    gaps = [(lv, (l1, r0), (l0, l1), (r0, r1))
            for lv, l0, l1, r0, r1 in zip(level, *map(fractions, cols))]
    return levels, gaps


def assert_fractions(c):
    for i in range(c.depth + 1):
        assert all(type(x) is Fraction for iv in c.intervals(i) for x in iv)


@pytest.mark.parametrize("ratio", [Fraction(1, 3), Fraction(1, 5), Fraction(1, 2),
                                   Fraction(2, 7), Fraction(9, 10)])
def test_middle_cantor_and_scaled_match_reference(ratio):
    for hull in ((0, 1), (Fraction(1, 3), Fraction(13, 10)), (-2, Fraction(5, 7))):
        for depth in (0, 1, 2, 5, 8):
            c = middle_cantor(ratio, depth).scaled(*hull)
            assert cantor_parts(c) == ref_middle_cantor(ratio, depth, hull)
            assert_fractions(c)
            for a, b in ((Fraction(2, 7), Fraction(9, 5)), (0, 1), (3, -1),
                         (Fraction(1, 1000), Fraction(1, 1000)),
                         (Fraction(87, 1000), Fraction(613, 1000))):
                s = c.scaled(a, b)
                assert cantor_parts(s) == ref_scaled(c, a, b)
                assert_fractions(s)


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


# ---------------------------------------------------------------------------
# the integer Cantor layer against the Fraction code it replaced
# ---------------------------------------------------------------------------

GapRecord = namedtuple("GapRecord", "level gap left right")


class FracCantor:
    """The Fraction-based CantorApprox: levels of (lo, hi) Fraction pairs and
    GapRecords, each gap stored apart from its flanking bridges, every
    operation in Fraction arithmetic."""

    def __init__(self, levels, gaps):
        self.levels, self.gaps = levels, gaps

    @property
    def depth(self):
        return len(self.levels) - 1

    def hull(self):
        k0 = self.levels[0]
        return k0[0][0], k0[-1][1]

    def intervals(self, depth):
        if depth > self.depth:
            raise DomainError(f"depth {depth} beyond truncation {self.depth}")
        return self.levels[depth]

    def scaled(self, a, b):
        a, b = Fraction(a), Fraction(b)
        h0, h1 = self.hull()
        span = h1 - h0
        if span == 0:
            raise ValueError("degenerate hull")
        slope = (b - a) / span
        offset = a - slope * h0
        image = {}

        def mv(x):
            y = image.get(x)
            if y is None:
                y = image[x] = offset + slope * x
            return y

        levels = [[(mv(lo), mv(hi)) for lo, hi in lv] for lv in self.levels]
        gaps = [GapRecord(g.level, (mv(g.gap[0]), mv(g.gap[1])),
                          (mv(g.left[0]), mv(g.left[1])),
                          (mv(g.right[0]), mv(g.right[1]))) for g in self.gaps]
        return FracCantor(levels, gaps)


def frac_middle_cantor(remove_ratio, depth, hull=(0, 1)):
    r = Fraction(remove_ratio)
    if not 0 < r < 1:
        raise ValueError("remove ratio must be in (0,1)")
    keep = (1 - r) / 2
    lo, hi = Fraction(hull[0]), Fraction(hull[1])
    levels = [[(lo, hi)]]
    gaps = []
    for level in range(1, depth + 1):
        nxt = []
        for a, b in levels[-1]:
            kw = keep * (b - a)
            gap = (a + kw, b - kw)
            l_int = (a, gap[0])
            r_int = (gap[1], b)
            gaps.append(GapRecord(level, gap, l_int, r_int))
            nxt.extend([l_int, r_int])
        levels.append(nxt)
    return FracCantor(levels, gaps)


def frac_thickness(c, depth=None):
    if depth is None:
        depth = c.depth
    if depth > c.depth:
        raise DomainError(f"depth {depth} beyond truncation {c.depth}")
    best = None
    for g in c.gaps:
        if g.level > depth:
            continue
        gap_len = g.gap[1] - g.gap[0]
        ratio = min(g.left[1] - g.left[0], g.right[1] - g.right[0]) / gap_len
        best = ratio if best is None else min(best, ratio)
    return math.inf if best is None else best


def frac_interval_list_intersection(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def frac_gap_lemma_check(k, f):
    depth = min(k.depth, f.depth)
    tk = frac_thickness(k, depth)
    tf = frac_thickness(f, depth)
    if not (tk == math.inf or tf == math.inf) and tk * tf <= 1:
        raise HypothesisUnmetError(f"thickness product {float(tk * tf):g} <= 1")
    hk, hf = k.hull(), f.hull()

    def inside_gap(hull, other):
        lo, hi = hull
        olo, ohi = other.hull()
        if hi <= olo or lo >= ohi:
            return True
        return any(g.gap[0] <= lo and hi <= g.gap[1] for g in other.gaps)

    if inside_gap(hk, f):
        return {"alternative": "K-in-gap-of-F", "levels_checked": 0}
    if inside_gap(hf, k):
        return {"alternative": "F-in-gap-of-K", "levels_checked": 0}
    interior_ok = True
    for i in range(depth + 1):
        cap = frac_interval_list_intersection(k.intervals(min(i, k.depth)),
                                              f.intervals(min(i, f.depth)))
        if not any(hi > lo for lo, hi in cap):
            interior_ok = False
            break
    return {"alternative": "intersect", "levels_checked": depth + 1,
            "interior_nonempty_all_levels": interior_ok}


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (TailentError, ArithmeticError, ValueError) as exc:
        return type(exc)


def same_cantor(c, ref):
    assert c.den > 0
    assert c.depth == ref.depth
    assert cantor_parts(c) == (ref.levels, [tuple(g) for g in ref.gaps])
    assert_fractions(c)
    for i in range(c.depth + 1):
        assert c.intervals(i) == ref.intervals(i)


_RATIOS = st.builds(lambda q, p: Fraction(p % (q - 1) + 1, q),
                    st.integers(2, 40), st.integers(0, 10 ** 6))
_POINTS = st.builds(Fraction, st.integers(-3000, 3000), st.integers(1, 700))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ratio=_RATIOS, depth=st.integers(0, 8), hull=st.tuples(_POINTS, _POINTS),
       image=st.tuples(_POINTS, _POINTS))
def test_integer_cantor_layer_matches_fraction_code(ratio, depth, hull, image):
    # hulls and images in any order, negative ones and degenerate ones too
    c = middle_cantor(ratio, depth).scaled(*hull)
    ref = frac_middle_cantor(ratio, depth, hull)
    same_cantor(c, ref)
    assert outcome(thickness, c) == outcome(frac_thickness, ref)
    for d in range(depth + 1):
        assert outcome(thickness, c, d) == outcome(frac_thickness, ref, d)
    s, sref = outcome(c.scaled, *image), outcome(ref.scaled, *image)
    if isinstance(sref, type):
        assert s is sref
        return
    same_cantor(s, sref)
    assert outcome(thickness, s) == outcome(frac_thickness, sref)
    # the scaled set over twice its denominator, through the constructor
    t = CantorApprox(2 * s.den, [[2 * x for x in lv] for lv in s.ends],
                     (s.gap_cols[0], *([2 * x for x in col]
                                       for col in s.gap_cols[1:])))
    same_cantor(t, sref)
    for k, f, kref, fref in ((c, s, ref, sref), (s, c, sref, ref), (s, t, sref, sref)):
        assert (outcome(gap_lemma_check, k, f)
                == outcome(frac_gap_lemma_check, kref, fref))
        assert (_interval_list_intersection(k.intervals(depth), f.intervals(depth))
                == frac_interval_list_intersection(kref.intervals(depth),
                                                   fref.intervals(depth)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ratio=_RATIOS, depth=st.integers(0, 8),
       hulls=st.lists(st.tuples(_POINTS, _POINTS), min_size=2, max_size=2))
def test_gap_lemma_on_thick_pairs_matches_fraction_code(ratio, depth, hulls):
    # thick sets (ratio <= 1/5, thickness >= 2), so the trichotomy is reached
    ratio = ratio / 5 if ratio > Fraction(1, 5) else ratio
    (a1, b1), (a2, b2) = hulls
    base, ref = middle_cantor(ratio, depth), frac_middle_cantor(ratio, depth)
    pairs = [(outcome(base.scaled, a, b), outcome(ref.scaled, a, b))
             for a, b in hulls]
    if any(isinstance(s, type) for _, s in pairs):
        return
    (k, kref), (f, fref) = pairs
    assert outcome(gap_lemma_check, k, f) == outcome(frac_gap_lemma_check, kref, fref)


def test_negative_depths_are_refused():
    c = middle_cantor(Fraction(1, 3), 4)
    for depth in (-1, -5):
        with pytest.raises(DomainError, match="negative"):
            c.intervals(depth)
        with pytest.raises(DomainError, match="negative"):
            thickness(c, depth)
        with pytest.raises(ValueError, match="negative"):
            middle_cantor(Fraction(1, 3), depth)
        with pytest.raises(ValueError, match="negative"):
            parse_cantor_spec(f"remove-middle 1/3 depth {depth}")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(records=st.lists(st.tuples(st.integers(1, 4), st.lists(_POINTS, min_size=4,
                                                               max_size=4)),
                        max_size=12),
       depth=st.integers(0, 4))
def test_thickness_of_built_sets_matches_fraction_code(records, depth):
    # bridges of any length, order and ratio, unlike the self-similar sets;
    # each gap lies between its two bridges
    gaps = [GapRecord(level, (e[1], e[2]), (e[0], e[1]), (e[2], e[3]))
            for level, e in records]
    levels = [[(Fraction(0), Fraction(1))]] * 5
    den = math.lcm(*(x.denominator for _, e in records for x in e))
    cols = [[x.numerator * (den // x.denominator) for x in col]
            for col in zip(*(e for _, e in records))] or [[]] * 4
    c = CantorApprox(den, [[0, den]] * 5, ([level for level, _ in records], *cols))
    ref = FracCantor(levels, gaps)
    same_cantor(c, ref)
    assert outcome(thickness, c, depth) == outcome(frac_thickness, ref, depth)
