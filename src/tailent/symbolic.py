"""Subshifts of finite type (word counting, spectral entropy, periodic
shadowing) and Cantor-set thickness with the gap-lemma trichotomy.

SFTs are realized by de Bruijn higher-block coding: states are admissible
blocks of length max(forbidden word length) - 1 and transitions check the
one-longer window.  Words are counted in one-sided admissible-word
semantics; the entropies agree with the two-sided shift.  Cantor sets are
stored with exact rational endpoints so thickness ratios and gap-lemma
decisions are exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import (DegenerateShiftError, DomainError, HypothesisUnmetError,
                     MixingRequiredError, PrecisionError, ResourceError)

__all__ = [
    "Sft", "sft_from_forbidden_words", "sft_entropy", "build_Yp",
    "word_count", "word_count_entropy", "power_system", "periodic_shadow",
    "load_sft_file", "CantorApprox", "middle_cantor", "thickness",
    "gap_lemma_check", "parse_cantor_spec",
]


def _as_word(w, alphabet):
    if isinstance(w, str):
        word = tuple(int(ch) for ch in w)
    else:
        word = tuple(int(s) for s in w)
    if not word:
        raise ValueError("forbidden words must be nonempty")
    if any(not 0 <= s < alphabet for s in word):
        raise ValueError(f"word {word} uses symbols outside the alphabet")
    return word


@dataclass(frozen=True)
class Sft:
    """Subshift of finite type over a block alphabet.

    The transition graph is stored as successor lists: succ[i] is the
    ascending tuple of the states that may follow state i.  A de Bruijn
    state has at most `alphabet` successors, so the graph takes O(size)
    memory; `matrix` derives the dense 0/1 rows on demand.
    """
    alphabet: int
    block_order: int
    states: tuple           # admissible blocks (tuples of symbols)
    succ: tuple             # ascending successor indices, indexed like states
    forbidden: tuple

    @property
    def size(self):
        return len(self.states)

    @property
    def matrix(self):
        """Dense 0/1 transition rows, indexed like states (size^2 entries)."""
        rows = []
        for row in self.succ:
            dense = [0] * self.size
            for j in row:
                dense[j] = 1
            rows.append(tuple(dense))
        return tuple(rows)

    def successors(self):
        return self.succ


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


def sft_from_forbidden_words(alphabet, words):
    """De Bruijn-coded SFT whose sequences avoid every word everywhere."""
    if alphabet < 2:
        raise ValueError("alphabet size must be >= 2")
    words = tuple(_as_word(w, alphabet) for w in words)
    order = max([len(w) - 1 for w in words], default=1)
    order = max(order, 1)
    states = [b for b in product(range(alphabet), repeat=order)
              if not _contains_forbidden(b, words)]
    if not states:
        raise DegenerateShiftError("every block is forbidden")
    index = {b: i for i, b in enumerate(states)}
    succ = []
    for b in states:
        # states are listed in lexicographic order, so ascending s gives
        # ascending successor indices
        row = []
        for s in range(alphabet):
            j = index.get(b[1:] + (s,))
            if j is not None and not _contains_forbidden(b + (s,), words):
                row.append(j)
        succ.append(tuple(row))
    return Sft(alphabet, order, tuple(states), tuple(succ), words)


def build_Yp(p):
    """SFT on {0,1} forbidding the length-p word 0 1 0 ... 0."""
    if p < 2:
        raise ValueError("p must be >= 2")
    word = (0, 1) + (0,) * (p - 2)
    return sft_from_forbidden_words(2, [word])


def word_count(sft: Sft, n):
    """Exact number of admissible words of length n (big integers).

    Words shorter than the block order are enumerated directly; longer ones
    are counted as transition paths between blocks.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= sft.block_order:
        if sft.forbidden:
            return sum(1 for w in product(range(sft.alphabet), repeat=n)
                       if not _contains_forbidden(w, sft.forbidden))
        return min(sft.alphabet, sft.size) ** n if sft.block_order == 1 \
            else sft.alphabet ** n
    counts = [1] * sft.size
    for _ in range(n - sft.block_order):
        nxt = [0] * sft.size
        for i, row in enumerate(sft.succ):
            ci = counts[i]
            for j in row:
                nxt[j] += ci
        counts = nxt
    return sum(counts)


def word_count_entropy(sft: Sft, n_lo=20, n_hi=40):
    """(log N(n_hi) - log N(n_lo)) / (n_hi - n_lo): word-count slope."""
    a = word_count(sft, n_lo)
    b = word_count(sft, n_hi)
    return (math.log(b) - math.log(a)) / (n_hi - n_lo)


# Below this many states the power iteration runs on Python floats: numpy's
# float64 sum is a plain left fold up to 7 elements and switches to pairwise
# blocks from 8 on, so the explicit left folds below give the same bits as
# the numpy vectors do, without numpy's per-call cost.
_SMALL_GRAPH = 8


def _small_ops(succ):
    """Step, sum and scale of the power iteration on lists of floats."""
    def total(v):
        s = 0.0
        for x in v:
            s += x
        return s

    def step(v):
        w = []
        for row in succ:
            s = 0.0
            for j in row:
                s += v[j]
            w.append(s)
        return w

    def scale(w, norm):
        return [x / norm for x in w]

    return [1.0] * len(succ), step, total, scale, operator.eq


def _array_ops(succ):
    """Step, sum and scale of the power iteration on float64 arrays.

    bincount adds the weights into each bin in the order of src, i.e. over
    ascending successors, starting from 0."""
    n = len(succ)
    src = np.array([i for i, row in enumerate(succ) for _ in row], dtype=np.intp)
    dst = np.array([j for row in succ for j in row], dtype=np.intp)

    def step(v):
        return np.bincount(src, weights=v[dst], minlength=n)

    def scale(w, norm):
        return w / norm

    return np.ones(n), step, np.ndarray.sum, scale, np.array_equal


def sft_entropy(sft: Sft, tol=1e-12, max_iter=5_000_000):
    """log of the transition-matrix spectral radius by power iteration.

    Iterates w = A v from the ones vector, normalized by its sum, until the
    eigenvalue estimate sum(A v) / sum(v) has moved by at most
    tol * max(lam, 1) on 10 steps in a row.  Graphs with fewer than 8 states
    iterate on Python floats, larger ones on numpy arrays; both paths
    produce the same bits (see _SMALL_GRAPH).  Raises PrecisionError when
    max_iter steps pass without that test firing, DegenerateShiftError on
    an empty or nilpotent graph.

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
    ops = _small_ops if len(succ) < _SMALL_GRAPH else _array_ops
    v, step, total, scale, same = ops(succ)
    lam_prev, stable = 0.0, 0
    probe, snap = 1, None
    for it in range(max_iter):
        w = step(v)
        norm = total(w)
        if norm == 0.0:
            raise DegenerateShiftError("nilpotent transition matrix")
        lam = norm / total(v)
        if it == probe:
            if snap is None:
                snap, probe = v, it + 2
            else:
                d = abs(lam - lam_prev)
                if (d > tol * max(lam, 1.0) and d > tol * max(lam_prev, 1.0)
                        and same(v, snap)):
                    raise PrecisionError(
                        f"power iteration oscillates with period 2 (estimate "
                        f"{lam_prev!r} <-> {lam!r}) and cannot converge; "
                        f"stopped at step {it}")
                snap, probe = None, 2 * it
        v = scale(w, norm)
        if abs(lam - lam_prev) <= tol * max(lam, 1.0):
            stable += 1
            if stable >= 10:
                break
        else:
            stable = 0
        lam_prev = lam
    else:
        raise PrecisionError(
            f"power iteration did not converge in {max_iter} steps")
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
    blocks = [w for w in product(range(sft.alphabet), repeat=p)
              if not _contains_forbidden(w, sft.forbidden)]
    if not blocks:
        raise DegenerateShiftError("no admissible power blocks")
    succ = tuple(tuple(j for j, v in enumerate(blocks)
                       if not _contains_forbidden(u + v, sft.forbidden))
                 for u in blocks)
    states = tuple((i,) for i in range(len(blocks)))
    return Sft(len(blocks), 1, states, succ, ())


def _mixing_exponent(sft: Sft, cap=64):
    m = np.asarray(sft.matrix, dtype=bool)
    power = m.copy()
    for n1 in range(1, cap + 1):
        if power.all():
            return n1
        power = power @ m
    raise MixingRequiredError(
        f"no strictly positive matrix power up to {cap}")


def periodic_shadow(sft: Sft, u, v, n):
    """Periodic admissible word of period 4n + 2*n1 containing u in the
    first 2n+1 positions and v in the block starting at phase 2n + n1
    (n1 = mixing exponent).

    Symbolic skeleton of periodic shadowing: a closed state walk is
    assembled from state paths through u and v, each padded to 2n+1
    vertices, joined by two bridging paths of n1 edges; the word reads off
    one symbol per vertex.  The period lies in [4n, 6n] whenever n >= n1.
    """
    u = _as_word(u, sft.alphabet)
    v = _as_word(v, sft.alphabet)
    n1 = _mixing_exponent(sft)
    succ = sft.successors()
    pred = [[] for _ in range(sft.size)]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].append(i)
    index = {b: i for i, b in enumerate(sft.states)}
    b = sft.block_order

    def word_states(word):
        """State path spelling the word (right-extended to a full block)."""
        sym = list(word)
        while len(sym) < b:
            match = next((st for st in sft.states
                          if st[:len(sym)] == tuple(sym)), None)
            if match is None:
                raise DomainError(f"word {word} is not admissible")
            sym.append(match[len(sym)])
        path = []
        for i in range(len(sym) - b + 1):
            st = index.get(tuple(sym[i:i + b]))
            if st is None:
                raise DomainError(f"word {word} is not admissible")
            if path and st not in succ[path[-1]]:
                raise DomainError(f"word {word} is not admissible")
            path.append(st)
        return path

    def pad_walk(path):
        """Extend the state path to 2n+1 vertices, keeping it centered."""
        if len(path) > 2 * n + 1:
            raise DomainError(f"need n >= {(len(path) - 1 + 1) // 2} "
                              "to fit the word in the 2n+1 span")
        path = list(path)
        offset = 0
        while len(path) < 2 * n + 1:
            if len(path) % 2 == 0 and pred[path[0]]:
                path.insert(0, pred[path[0]][0])
                offset += 1
            else:
                path.append(succ[path[-1]][0])
        return path, offset

    def bridge(src, dst):
        """Intermediate vertices of a path with exactly n1 edges."""
        layers = [{src}]
        for _ in range(n1):
            layers.append({j for i in layers[-1] for j in succ[i]})
        if dst not in layers[-1]:
            raise MixingRequiredError("no bridging path despite mixing test")
        path = [dst]
        for layer in reversed(layers[:-1]):
            cur = path[0]
            path.insert(0, min(i for i in layer if cur in succ[i]))
        return path[1:-1]

    walk_u, off_u = pad_walk(word_states(u))
    walk_v, off_v = pad_walk(word_states(v))
    cycle = (walk_u + bridge(walk_u[-1], walk_v[0])
             + walk_v + bridge(walk_v[-1], walk_u[0]))
    period = 4 * n + 2 * n1
    assert len(cycle) == period, (len(cycle), period)
    for a_st, b_st in zip(cycle, cycle[1:] + cycle[:1]):
        if b_st not in succ[a_st]:
            raise MixingRequiredError("assembled walk not admissible")
    word = tuple(sft.states[s][0] for s in cycle)
    return {"word": word, "period": period, "n1": n1,
            "u_phase": off_u, "v_phase": 2 * n + 1 + n1 - 1 + off_v}


def load_sft_file(path):
    """Plain-text SFT spec: first line alphabet size, then forbidden words."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty SFT spec file")
    alphabet = int(lines[0])
    return sft_from_forbidden_words(alphabet, lines[1:])


# ---------------------------------------------------------------------------
# Cantor sets, thickness, gap lemma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapRecord:
    level: int
    gap: tuple             # (lo, hi) Fractions
    left: tuple            # flanking bridge intervals at removal time
    right: tuple


@dataclass
class CantorApprox:
    """Nested finite unions of closed intervals with recorded gaps.

    levels[i] is the list of (lo, hi) Fraction pairs of K_i; gaps hold the
    removed open interval and its two flanking bridges, in removal order.
    """
    levels: list
    gaps: list

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
        """Affine image of the construction onto [a, b].

        The map x -> offset + slope * x is exact on rationals, so it equals
        a + (b - a)(x - h0)/span.  Every gap and bridge endpoint is also an
        endpoint of some level, so each distinct endpoint is mapped once and
        its image reused.
        """
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
        return CantorApprox(levels, gaps)


def middle_cantor(remove_ratio, depth, hull=(0, 1)):
    """Self-similar Cantor set removing the central `remove_ratio` of every
    interval at each stage; exact rational endpoints."""
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
    return CantorApprox(levels, gaps)


def thickness(c: CantorApprox, depth=None):
    """inf over recorded gaps (up to depth) of min bridge/gap length ratio.

    Computed for the given defining sequence only; +inf sentinel when no
    gap has been recorded.
    """
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


def _interval_list_intersection(a, b):
    """Pairwise intersections of two sorted lists of closed intervals."""
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


def gap_lemma_check(k: CantorApprox, f: CantorApprox, depth=None):
    """Gap-lemma trichotomy for two thick Cantor approximations.

    Requires thickness(k)*thickness(f) > 1 (exact rationals).  Returns a
    dict with the alternative tag and, for the intersection case, the
    per-level verification that Int(K_i intersect F_i) is nonempty.
    """
    if depth is None:
        depth = min(k.depth, f.depth)
    tk, tf = thickness(k, min(depth, k.depth)), thickness(f, min(depth, f.depth))
    if not (tk == math.inf or tf == math.inf) and tk * tf <= 1:
        raise HypothesisUnmetError(f"thickness product {float(tk * tf):g} <= 1")
    hk, hf = k.hull(), f.hull()

    def inside_gap(hull, other):
        lo, hi = hull
        olo, ohi = other.hull()
        if hi <= olo or lo >= ohi:
            return True  # unbounded gap closure
        return any(g.gap[0] <= lo and hi <= g.gap[1] for g in other.gaps)

    if inside_gap(hk, f):
        return {"alternative": "K-in-gap-of-F", "levels_checked": 0}
    if inside_gap(hf, k):
        return {"alternative": "F-in-gap-of-K", "levels_checked": 0}
    interior_ok = True
    for i in range(depth + 1):
        cap = _interval_list_intersection(k.intervals(min(i, k.depth)),
                                          f.intervals(min(i, f.depth)))
        if not any(hi > lo for lo, hi in cap):
            interior_ok = False
            break
    return {"alternative": "intersect", "levels_checked": depth + 1,
            "interior_nonempty_all_levels": interior_ok}


_CANTOR_DEPTH_CAP = 16  # 2^16 intervals: about 2 s and 60 MB of Fractions


def parse_cantor_spec(spec):
    """CantorApprox spec string: 'remove-middle 1/3 depth 12'.  A depth over
    _CANTOR_DEPTH_CAP raises ResourceError before anything is built."""
    toks = spec.split()
    if len(toks) != 4 or toks[0] != "remove-middle" or toks[2] != "depth":
        raise ValueError(f"bad Cantor spec {spec!r}")
    if int(toks[3]) > _CANTOR_DEPTH_CAP:
        raise ResourceError(f"Cantor depth {toks[3]} is over the cap "
                            f"{_CANTOR_DEPTH_CAP}")
    return middle_cantor(Fraction(toks[1]), int(toks[3]))
