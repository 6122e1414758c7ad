"""Subshifts of finite type (word counting, spectral entropy) and Cantor-set
thickness with the gap-lemma trichotomy.

SFTs are realized by de Bruijn higher-block coding: states are admissible
blocks of length max(forbidden word length) - 1 and transitions are the
admissible one-longer windows, both listed as base-alphabet integer codes
by one numpy kernel.  Words are counted in one-sided admissible-word
semantics; the entropies agree with the two-sided shift.  Cantor sets are
built by `middle_cantor` and moved onto a hull by `CantorApprox.scaled`;
they store their endpoints as integer numerators over one common
denominator, and each gap as its two flanking bridges, so thickness ratios
and gap-lemma decisions are exact integer comparisons.  Fractions are built
only where the API returns them (`intervals`, `thickness`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DegenerateShiftError, DomainError, HypothesisUnmetError,
                     PrecisionError, ResourceError)
from .maps import spec_int, spec_number
from .polyalg import _numerators

__all__ = [
    "Sft", "sft_from_forbidden_words", "sft_entropy", "build_Yp",
    "word_count", "word_count_entropy", "power_system", "load_sft_file",
    "CantorApprox", "middle_cantor", "thickness", "gap_lemma_check",
    "parse_cantor_spec",
]


def _as_word(w, alphabet):
    word = tuple(spec_int(s) if isinstance(w, str) else int(s) for s in w)
    if not word:
        raise ValueError("forbidden words must be nonempty")
    if any(not 0 <= s < alphabet for s in word):
        raise ValueError(f"word {word} uses symbols outside the alphabet")
    return word


@dataclass(frozen=True, eq=False)
class Sft:
    """Subshift of finite type over a block alphabet.

    Edge k of the transition graph leads from state src[k] to dst[k], state
    i being the i-th admissible block in code order; a de Bruijn state has
    at most `alphabet` successors, so the graph takes O(size) memory.

    The constructor raises DomainError unless src and dst are integer
    arrays of one length with entries in range(size), strictly ascending in
    (src, dst), so `matrix`, `word_count` and `sft_entropy` read the same
    graph; it stores them as read-only intp arrays.
    """
    alphabet: int
    block_order: int
    size: int
    src: np.ndarray
    dst: np.ndarray
    forbidden: tuple

    def __post_init__(self):
        src, dst = np.asarray(self.src), np.asarray(self.dst)
        if src.ndim != 1 or src.shape != dst.shape:
            raise DomainError(f"edge arrays of shapes {src.shape}, {dst.shape}")
        if any(a.size and a.dtype.kind not in "biu" for a in (src, dst)):
            raise DomainError(f"successor entries must be integers, not "
                              f"{src.dtype}, {dst.dtype}")
        src, dst = src.astype(np.intp), dst.astype(np.intp)
        if not all(((0 <= a) & (a < self.size)).all() for a in (src, dst)):
            raise DomainError(f"successor entries must lie in range({self.size})")
        step = np.diff(src)
        if ((step < 0) | (step == 0) & (np.diff(dst) <= 0)).any():
            raise DomainError("edges are not strictly ascending in (src, dst)")
        src.flags.writeable = dst.flags.writeable = False
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)

    @property
    def matrix(self):
        """Dense 0/1 transition rows, indexed like states (size^2 entries)."""
        dense = np.zeros((self.size, self.size), dtype=np.int8)
        dense[self.src, self.dst] = 1
        return tuple(tuple(row.tolist()) for row in dense)

    def successors(self):
        """Row i: the ascending list of the states that may follow state i."""
        return _Rows(self.dst,
                     np.searchsorted(self.src, np.arange(self.size + 1)))


class _Rows:
    """Successor rows, each built when it is read: the array path of
    sft_entropy reads none of the 2^19 rows of Y_20."""

    def __init__(self, dst, ends):
        self.dst, self.ends = dst, ends

    def __getitem__(self, i):
        return self.dst[self.ends[i]:self.ends[i + 1]].tolist()


# Y_p has 2^p de Bruijn windows and takes about 0.15 s to build at p = 20;
# no SFT is built on more windows than Y_20, nor any graph on more words
_SFT_P_CAP = 20


def _word_space(alphabet, length):
    """alphabet ** length, or ResourceError if that is over 2^_SFT_P_CAP."""
    if length > _SFT_P_CAP or alphabet ** length > 2 ** _SFT_P_CAP:
        raise ResourceError(f"{alphabet}^{length} words are over the cap "
                            f"2^{_SFT_P_CAP}")
    return alphabet ** length


def _admissible_codes(alphabet, words, length):
    """Ascending codes of the words of `length` symbols that contain none of
    `words`; s_1 ... s_L is the base-`alphabet` integer with s_1 most
    significant, so code order is lexicographic order."""
    codes = np.arange(_word_space(alphabet, length))
    keep = np.ones(codes.size, dtype=bool)
    for w in words:
        code = sum(s * alphabet ** i for i, s in enumerate(reversed(w)))
        for shift in range(length - len(w) + 1):
            keep &= codes // alphabet ** shift % alphabet ** len(w) != code
    return codes[keep]


def _block_graph(alphabet, words, length, step):
    """(size, src, dst) of the graph on the admissible blocks of `length`
    symbols, an edge u -> v for each admissible window of length + step
    symbols from u to v, in ascending (src, dst) as the windows ascend.
    Too many windows raise ResourceError before any block is listed."""
    _word_space(alphabet, length + step)
    blocks = _admissible_codes(alphabet, words, length)
    if not blocks.size:
        raise DegenerateShiftError("every block is forbidden")
    win = _admissible_codes(alphabet, words, length + step)
    return (blocks.size, np.searchsorted(blocks, win // alphabet ** step),
            np.searchsorted(blocks, win % alphabet ** length))


def sft_from_forbidden_words(alphabet, words):
    """De Bruijn-coded SFT whose sequences avoid every word everywhere; more
    than 2^_SFT_P_CAP windows (words of order + 1 symbols) raise
    ResourceError before any block is listed."""
    if alphabet < 2:
        raise ValueError("alphabet size must be >= 2")
    words = tuple(_as_word(w, alphabet) for w in words)
    order = max([len(w) - 1 for w in words] + [1])
    return Sft(alphabet, order, *_block_graph(alphabet, words, order, 1), words)


def build_Yp(p):
    """SFT on {0,1} forbidding the length-p word 0 1 0 ... 0."""
    if p < 2:
        raise ValueError("p must be >= 2")
    word = (0, 1) + (0,) * (p - 2)
    return sft_from_forbidden_words(2, [word])


def word_count(sft: Sft, n):
    """Exact number of admissible words of length n (big integers).

    Words up to the block order are counted by `_admissible_codes`; longer
    ones as transition paths between blocks, on Python ints.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= sft.block_order:
        return len(_admissible_codes(sft.alphabet, sft.forbidden, n))
    counts = np.ones(sft.size, dtype=object)
    for _ in range(n - sft.block_order):
        nxt = np.zeros(sft.size, dtype=object)
        np.add.at(nxt, sft.dst, counts[sft.src])
        counts = nxt
    return int(counts.sum())


def word_count_entropy(sft: Sft):
    """(log N(40) - log N(20)) / 20: word-count slope."""
    return (math.log(word_count(sft, 40)) - math.log(word_count(sft, 20))) / 20


# Below this many states the power iteration runs on Python floats: numpy's
# float64 sum is a plain left fold up to 7 elements and switches to pairwise
# blocks from 8 on, so the explicit left folds below give the same bits as
# the numpy vectors do, without numpy's per-call cost.
_SMALL_GRAPH = 8

_SFT_TOL = 1e-12   # sft_entropy stops once lam moves by <= this * max(lam, 1)
_SFT_MAX_ITER = 5_000_000  # steps before sft_entropy raises PrecisionError

# The power iteration of sft_entropy, formatted per graph by _compile_loop:
# on float locals v0, v1, ... below _SMALL_GRAPH states, else on arrays.
# The test of every step spells out abs and max(lam, 1.0), which is 1.0 if
# 1.0 > lam else lam; the two builtin calls cost more than the rest of a
# small step.
_LOOP = """
def power_loop(tol, max_iter):
    {init}
    lam_prev, stable = 0.0, 0
    probe, snap = 1, None
    for it in range(max_iter):
        {step}
        norm = {norm}
        if norm == 0.0:
            raise DegenerateShiftError("nilpotent transition matrix")
        lam = norm / ({total})
        d = lam - lam_prev
        if d < 0.0:
            d = -d
        if it == probe:
            if snap is None:
                snap, probe = {snapshot}, it + 2
            else:
                if (d > tol * max(lam, 1.0) and d > tol * max(lam_prev, 1.0)
                        and {same}):
                    raise PrecisionError(
                        f"power iteration oscillates with period 2 (estimate "
                        f"{{lam_prev!r}} <-> {{lam!r}}) and cannot converge; "
                        f"stopped at step {{it}}")
                snap, probe = None, 2 * it
        {scale}
        if d <= tol * (1.0 if 1.0 > lam else lam):
            stable += 1
            if stable >= 10:
                return lam
        else:
            stable = 0
        lam_prev = lam
    raise PrecisionError(
        f"power iteration did not converge in {{max_iter}} steps")
"""


def _compile_loop(sft, succ):
    """power_loop(tol, max_iter) compiled from _LOOP for the graph of sft,
    whose successor rows are succ; the text holds only its own names and
    the successor indices, ints that `Sft` has checked.  A small graph's w_i
    is a left fold from 0.0 over the ascending successors of i; bincount
    adds the weights into each bin in the same order."""
    n = sft.size
    namespace = {"np": np, "DegenerateShiftError": DegenerateShiftError,
                 "PrecisionError": PrecisionError}
    if n < _SMALL_GRAPH:
        def fold(terms):
            return " + ".join(["0.0", *terms])

        vs = "".join(f"v{i}, " for i in range(n))
        ws = "".join(f"w{i}, " for i in range(n))
        text = _LOOP.format(
            init=f"{vs}= " + "1.0, " * n,
            step=f"{ws}= " + "".join(fold(f"v{j}" for j in row) + ", "
                                     for row in succ),
            norm=fold(f"w{i}" for i in range(n)),
            total=fold(f"v{i}" for i in range(n)),
            snapshot=f"({vs})", same=f"({vs}) == snap",
            scale=f"{vs}= " + "".join(f"w{i} / norm, " for i in range(n)))
    else:
        namespace.update(n=n, src=sft.src, dst=sft.dst)
        text = _LOOP.format(
            init="v = np.ones(n)",
            step="w = np.bincount(src, weights=v[dst], minlength=n)",
            norm="w.sum()", total="v.sum()", snapshot="v",
            same="np.array_equal(v, snap)", scale="v = w / norm")
    exec(compile(text, "<sft_entropy loop>", "exec"), namespace)
    return namespace["power_loop"]


def sft_entropy(sft: Sft):
    """log of the transition-matrix spectral radius by power iteration.

    Iterates w = A v from the ones vector, normalized by its sum, until the
    eigenvalue estimate sum(A v) / sum(v) has moved by at most
    _SFT_TOL * max(lam, 1) on 10 steps in a row.  Graphs with fewer than 8
    states iterate on Python floats, larger ones on numpy arrays; both paths
    produce the same bits (see _SMALL_GRAPH).  The loop is compiled once per
    graph (_compile_loop) because its overhead is paid on every step, and
    Y_2 takes 1,000,061 of them: a small graph's step is straight-line code
    on local floats, with no call per step, doing the same operations in the
    same order.  Raises PrecisionError when _SFT_MAX_ITER = 5,000,000
    steps pass without that test firing, DegenerateShiftError on an empty
    or nilpotent graph.

    On a periodic shift the normalized iterate can cycle with period 2, so
    the estimate oscillates for ever.  At steps 3, 8, 18, 38, ... (each
    two after a snapshot at 1, 6, 16, 36, ...) the iterate is compared
    with the one two steps earlier; when they are equal and the test failed
    on both of the last two steps, every later step repeats one of those
    two failures, so PrecisionError is raised at once.
    """
    succ = sft.successors()
    if not any(succ):
        raise DegenerateShiftError("empty transition matrix")
    lam = _compile_loop(sft, succ)(_SFT_TOL, _SFT_MAX_ITER)
    if lam <= 0:
        raise DegenerateShiftError("spectral radius zero")
    return math.log(lam)


def power_system(sft: Sft, p):
    """The p-th power shift as a vertex shift over admissible p-blocks.

    Transitions check admissibility of the concatenated 2p-window, which is
    exact whenever every forbidden word has length at most p + 1.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if any(len(w) > p + 1 for w in sft.forbidden):
        raise ValueError("power block length too short for the forbidden words")
    size, src, dst = _block_graph(sft.alphabet, sft.forbidden, p, p)
    return Sft(size, 1, size, src, dst, ())


def load_sft_file(path):
    """Plain-text SFT spec: first line alphabet size, then forbidden words."""
    with open(path) as fh:
        lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty SFT spec file")
    return sft_from_forbidden_words(spec_int(lines[0]), lines[1:])


# ---------------------------------------------------------------------------
# Cantor sets, thickness, gap lemma
# ---------------------------------------------------------------------------

class CantorApprox:
    """Nested finite unions of closed intervals with recorded gaps.

    The endpoints are integer numerators over one positive denominator
    `den`.  `ends[i]` lists lo_0, hi_0, lo_1, hi_1, ... of K_i; gap j was
    removed at level `gap_cols[0][j]`, and `gap_cols[1:]` hold the
    numerators of the lo and hi of its left and of its right flanking
    bridge, one list each.  The gap is the space between its two bridges,
    from the left bridge's hi to the right bridge's lo.  Sets are built by
    `middle_cantor` and moved by `scaled`; `intervals()` builds Fractions
    on request.
    """

    def __init__(self, den, ends, gap_cols):
        self.den, self.ends, self.gap_cols = den, ends, gap_cols

    @property
    def depth(self):
        return len(self.ends) - 1

    def _pairs(self, nums):
        xs = [Fraction(x, self.den) for x in nums]
        return list(zip(xs[::2], xs[1::2]))

    def check_depth(self, depth):
        if depth < 0:
            raise DomainError(f"depth {depth} is negative")
        if depth > self.depth:
            raise DomainError(f"depth {depth} beyond truncation {self.depth}")

    def intervals(self, depth):
        self.check_depth(depth)
        return self._pairs(self.ends[depth])

    def scaled(self, a, b):
        """Affine image of the construction onto [a, b], x -> a + (b - a)(x -
        h0)/span.

        With a = A/L and b = B/L over L = lcm(den a, den b), and the hull
        numerators H0, H1 with S = H1 - H0, the image of X/den is
        (A S + (B - A)(X - H0)) / (L S): an integer affine map of the
        numerators over the new denominator L |S|.
        """
        a, b = Fraction(a), Fraction(b)
        h0, h1 = self.ends[0][0], self.ends[0][-1]
        span = h1 - h0
        if span == 0:
            raise ValueError("degenerate hull")
        den = math.lcm(a.denominator, b.denominator)
        lo, hi = _numerators((a, b), den)
        slope, offset = hi - lo, lo * span - (hi - lo) * h0
        if span < 0:
            slope, offset, span = -slope, -offset, -span

        def mv(nums):
            return [offset + slope * x for x in nums]

        return CantorApprox(den * span, [mv(lv) for lv in self.ends],
                            (self.gap_cols[0], *map(mv, self.gap_cols[1:])))


def middle_cantor(remove_ratio, depth):
    """Self-similar Cantor set in [0, 1] removing the central
    `remove_ratio` of every interval at each stage; exact rational
    endpoints (`CantorApprox.scaled` moves it onto another hull).

    With keep = (1 - remove_ratio)/2 = kn/kd, the endpoints are numerators
    over den = kd^depth.  An interval of level i has a width divisible by
    kd^(depth - i), so its bridge width width // kd * kn is exact."""
    r = Fraction(remove_ratio)
    if not 0 < r < 1:
        raise ValueError("remove ratio must be in (0,1)")
    if depth < 0:
        raise ValueError(f"depth {depth} is negative")
    keep = (1 - r) / 2
    kn, kd = keep.numerator, keep.denominator
    den = kd ** depth
    ends = [[0, den]]
    gap_cols = ([], [], [], [], [])
    level_col, l0, l1, r0, r1 = gap_cols
    for level in range(1, depth + 1):
        nxt = []
        for a, b in zip(ends[-1][::2], ends[-1][1::2]):
            kw = (b - a) // kd * kn
            nxt += (a, a + kw, b - kw, b)
        level_col += [level] * (len(nxt) // 4)
        l0 += nxt[0::4]
        l1 += nxt[1::4]
        r0 += nxt[2::4]
        r1 += nxt[3::4]
        ends.append(nxt)
    return CantorApprox(den, ends, gap_cols)


def thickness(c: CantorApprox, depth=None):
    """inf over recorded gaps (up to depth) of min bridge/gap length ratio.

    Computed for the given defining sequence only; +inf sentinel when no
    gap has been recorded.  The ratios share the denominator, so the least
    is picked by cross-multiplying numerators and one Fraction is built.
    """
    if depth is None:
        depth = c.depth
    c.check_depth(depth)
    best = None
    for level, l0, l1, r0, r1 in zip(*c.gap_cols):
        if level > depth:
            continue
        num, gap_len = min(l1 - l0, r1 - r0), r0 - l1
        if gap_len < 0:
            num, gap_len = -num, -gap_len
        elif gap_len == 0:
            raise ZeroDivisionError(f"gap of length 0 at level {level}")
        if best is None or num * best[1] < best[0] * gap_len:
            best = num, gap_len
    return math.inf if best is None else Fraction(*best)


def _interval_list_intersection(a, b):
    """Pairwise intersections of two sorted lists of closed intervals, with
    endpoints of any one ordered type (ints or Fractions)."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (alo, ahi), (blo, bhi) = a[i], b[j]
        lo = alo if alo > blo else blo
        hi = ahi if ahi < bhi else bhi
        if lo <= hi:
            out.append((lo, hi))
        if ahi < bhi:
            i += 1
        else:
            j += 1
    return out


def gap_lemma_check(k: CantorApprox, f: CantorApprox):
    """Gap-lemma trichotomy for two thick Cantor approximations.

    Requires thickness(k)*thickness(f) > 1 (exact rationals) up to the
    shallower depth of the two.  Returns a dict with the alternative tag
    and, for the intersection case, the per-level verification that
    Int(K_i intersect F_i) is nonempty.  Both sets are compared as
    numerators over lcm(k.den, f.den).
    """
    depth = min(k.depth, f.depth)
    tk, tf = thickness(k, depth), thickness(f, depth)
    if not (tk == math.inf or tf == math.inf) and tk * tf <= 1:
        raise HypothesisUnmetError(f"thickness product {float(tk * tf):g} <= 1")
    den = math.lcm(k.den, f.den)
    sk, sf = den // k.den, den // f.den

    def inside_gap(c, s, other, so):
        lo, hi = c.ends[0][0] * s, c.ends[0][-1] * s
        olo, ohi = other.ends[0][0] * so, other.ends[0][-1] * so
        if hi <= olo or lo >= ohi:
            return True  # unbounded gap closure
        _, _, l1, r0, _ = other.gap_cols
        return any(a * so <= lo and hi <= b * so for a, b in zip(l1, r0))

    if inside_gap(k, sk, f, sf):
        return {"alternative": "K-in-gap-of-F", "levels_checked": 0}
    if inside_gap(f, sf, k, sk):
        return {"alternative": "F-in-gap-of-K", "levels_checked": 0}

    def pairs(c, s, i):
        nums = c.ends[min(i, c.depth)]
        return list(zip([x * s for x in nums[::2]], [x * s for x in nums[1::2]]))

    interior_ok = True
    for i in range(depth + 1):
        cap = _interval_list_intersection(pairs(k, sk, i), pairs(f, sf, i))
        if not any(hi > lo for lo, hi in cap):
            interior_ok = False
            break
    return {"alternative": "intersect", "levels_checked": depth + 1,
            "interior_nonempty_all_levels": interior_ok}


# 2^16 intervals, and numerators over kd^depth of at most
# depth * bits(kd) <= 1024 bits: at depth 16 about 0.05 s and 9 MB of ints
# at r = 1/3, 0.3 s and 25 MB at r = 2^-62 (64-bit kd).  The thickness, at
# most kn < 2^1023, then converts to a float.
_CANTOR_DEPTH_CAP, _CANTOR_BITS_CAP = 16, 1024


def parse_cantor_spec(spec):
    """CantorApprox spec string: 'remove-middle 1/3 depth 12'.  A depth
    outside `maps.spec_int` or negative, or a ratio r outside
    `maps.spec_number`, raises ValueError; a depth over _CANTOR_DEPTH_CAP,
    or depth * bits(kd) over _CANTOR_BITS_CAP for kd the denominator of
    (1 - r)/2, raises ResourceError before a build."""
    toks = spec.split()
    if len(toks) != 4 or toks[0] != "remove-middle" or toks[2] != "depth":
        raise ValueError(f"bad Cantor spec {spec!r}")
    depth = spec_int(toks[3])
    if depth < 0:
        raise ValueError(f"Cantor depth {depth} is negative")
    if depth > _CANTOR_DEPTH_CAP:
        raise ResourceError(f"Cantor depth {depth} is over the cap "
                            f"{_CANTOR_DEPTH_CAP}")
    r = spec_number(toks[1], exact=True)
    bits = depth * ((1 - r) / 2).denominator.bit_length()
    if bits > _CANTOR_BITS_CAP:
        raise ResourceError(f"Cantor numerators of {bits} bits are over the "
                            f"cap {_CANTOR_BITS_CAP}")
    return middle_cantor(r, depth)
