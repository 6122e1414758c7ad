"""Numerical eps-entropy and eps-tail-entropy estimators, plus evaluators
for the closed-form upper bounds and the entropy-continuity modulus.

Spanning data comes in two flavors over the same grid orbits: a closed-ball
greedy cover with rightward-pushed centers (upper bias for the minimal
spanning cardinality, optimal for intervals at n = 1) and a greedy strictly
separated family (whose open balls also cover the grid by maximality); the
cover count brackets the truth from above, the separated count at scale
2 eps from below.  Dynamical-ball membership uses the strict comparison
d(f^i y, f^i x) < eps.  Tail entropy does not use grids at all: the balls
are pulled back exactly as unions of monotone interval pieces.

Grid orbits are kept as a column store: an (n, N) array whose row t is
f^t of the N grid points, so grid point k is column k and the first row is
the sorted grid itself.  One store (`_GridOrbits`) serves each grid
computation and maps a row only when a kernel first reads it: a count
series stops at its grid-starvation knee, so the rows past it are never
mapped, and `continuity_modulus` reads every fit and cover of all its
scales from one store.  A center's scale window [c - eps, c + eps] is
then a contiguous column slice, and both greedy kernels test a whole
window with one reduction along axis 0, written into one scratch buffer
that the kernel call reuses for every window (`_window_distances`).  The
kernels scan columns left to right and trim each window to the part the
scan has not settled yet: every column left of the current one is dead or
an earlier center, so neither kernel ever tests it again.

The tail pullback is batched the same way: the pieces of every center's
ball live in one set of arrays (left end, right end, length-maximum, owning
center), so each time step is a fixed number of array operations over all
centers, and at most 2^14 pieces per center (_PIECE_CAP) are held between
steps.  Per-center counts are sums of integer-valued floats gathered with
np.bincount, exact in any order.  Fold-cycle centers likewise bisect all
their (period, critical point, side) brackets in one `polyalg._bisect`
call, cut from the levels of one critical-point pullback walk; each level
pulls back only the points its predecessor added, all branches in one
bisection whose lanes share the top of their branch's tree.  The walk
counts a level's lanes (one per target and branch) before it solves any,
and ends when they overflow the room _FOLD_POINT_CAP - |level k|; a level
that adds no point serves every later period with no further solve.  No
level is kept; the map keeps only its solved fold-cycle roots, one entry
ordered by period.  A smaller eps reads every period a larger one reads,
so a sweep over scales that starts at its smallest eps (as `tailent tail`
and the tail criteria do) solves the fold cycles once, and the two
estimates of `power_bound_check` find them once.

Everything is deterministic: fixed grids, fixed scan orders, and reductions
(max, integer counts) that do not depend on evaluation order, so results
are bit-identical from run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, ResolutionError, ResourceError, ScaleError,
                     TailentError)
from .maps import IntervalMap, _critical_pullbacks
from .polyalg import _bisect

__all__ = [
    "EntropyEstimate", "spanning_count", "eps_entropy", "tail_entropy_estimate",
    "bound_quasionedim", "bound_wmulti", "growth_rate_R", "power_bound_check",
    "continuity_modulus",
]

_DEFAULT_GRID_BITS = 14
# Largest orbit matrix a grid estimate may allocate (2^27 float64 cells), and
# the largest grid_bits whose 2^grid_bits + 1 points fit in one orbit row (26).
_ORBIT_BYTE_CAP = 1 << 30
_GRID_BITS_CAP = (_ORBIT_BYTE_CAP // 8 - 1).bit_length() - 1
_DEFAULT_N_RANGE = range(1, 25)
# continuity_modulus: the largest p tried, and the top of the N(eps) bracket
_P_CAP, _S_HI = 64, 0.35
# the largest fold-cycle period any eps reads, and the pullback level size
# past which no larger period gets a bracket
_FOLD_Q_CAP, _FOLD_POINT_CAP = 28, 1 << 14
# the most pieces a tail center may hold between steps before it is frozen
_PIECE_CAP = 1 << 14


@dataclass
class EntropyEstimate:
    """Count data and fitted growth rate for one estimator run."""
    method: str
    map_name: str
    eps: float
    delta: float | None
    ns: list
    counts: list
    rate: float               # log(count)/n at the last fitted n
    slope: float              # least-squares slope of log counts in n
    direction: str            # "upper-bias" or "lower-bias"
    residual: float = 0.0     # delta-extrapolation residual (tail only)
    saturated: bool = False
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        assert all(c >= 1 for c in self.counts)


def _orbit_matrix(m: IntervalMap, xs, n):
    """Column-store orbits: an (n, xs.size) array whose row t is f^t(xs)."""
    orb = np.empty((n, xs.size), dtype=float)
    v = xs.astype(float)
    for t in range(n):
        orb[t] = v
        if t + 1 < n:
            v = m.evaluate_array(v)
    return orb


def _next_alive(alive, i, frontier):
    """First alive column at or after i.  Columns from `frontier` on have
    never been inside a kill window, so they are all alive."""
    if i < frontier:
        j = i + int(alive[i:frontier].argmax())
        return j if alive[j] else frontier
    return i


def _window_distances(block):
    """The window test shared by both greedy kernels: a function (a, hi, c)
    giving, per column of block[:, a:hi], its sup distance to column c.

    The differences are written into one flat buffer that the kernel call
    keeps, grown by doubling, viewed as a contiguous (rows, hi - a) array:
    fresh temporaries of that size would go back to the operating system
    when freed and fault in again for the next center.  The subtraction,
    abs and max are those of np.abs(block[:, a:hi] - block[:, c, None])
    .max(axis=0), in the same order, so the bits are the same.
    """
    rows = block.shape[0]
    buf = np.empty(0)
    subtract, absolute = np.subtract, np.absolute

    def window_dist(a, hi, c):
        nonlocal buf
        size = rows * (hi - a)
        if size > buf.size:
            buf = np.empty(max(size, 2 * buf.size))
        d = buf[:size].reshape(rows, hi - a)
        subtract(block[:, a:hi], block[:, c:c + 1], d)
        absolute(d, d)
        return d.max(0)

    return window_dist


def _greedy_net(orbits, n, eps, cap=None):
    """Greedy maximal (n, eps)-separated family of the columns of the
    column-store `orbits` (columns sorted by row 0).

    Scans columns in order; a column becomes a center when no earlier
    center is strictly within eps in the sup metric over the first n rows.
    By maximality the centers' open eps-balls cover every column, so the
    count is also a valid spanning count.  Returns (count, capped).

    Only the right half of a center's window is tested: columns left of the
    center are dead or earlier centers, and an earlier center is at least
    eps away from every later one, so the test could not change them.
    """
    n_pts = orbits.shape[1]
    first = orbits[0]
    window_dist = _window_distances(orbits[:n])
    alive = np.ones(n_pts, dtype=bool)
    count = 0
    i = frontier = 0
    while True:
        i = _next_alive(alive, i, frontier)
        if i >= n_pts:
            return count, False
        count += 1
        if cap is not None and count >= cap:
            return cap, True
        hi = int(first.searchsorted(first[i] + eps, side="right"))
        dist = window_dist(i + 1, hi, i)
        alive[i + 1:hi] &= dist >= eps
        frontier = max(frontier, hi)
        i += 1


def _greedy_cover(orbits, n, eps, cap=None):
    """Greedy (n, eps)-cover with closed balls, centers pushed rightward,
    over the columns of the column-store `orbits`.

    For the first uncovered column u, the center is the column of largest
    first coordinate within [u_0, u_0 + eps] whose closed ball contains the
    whole segment of columns from u up to itself (checked through
    cumulative per-coordinate spreads along each row); its closed ball is
    then removed.  For n = 1 this is the optimal interval covering.
    Returns (count, capped).

    Both steps are trimmed.  The feasibility scan stops at the last column
    within eps of u, since a feasible center's ball holds u.  The kill step
    tests only columns from u on: every column left of the first uncovered
    one is already covered.  When no other column is within eps of u, u is
    the center with no feasibility scan; whenever the center is u, its kill
    window and distances are those of the near scan, which are reused.
    """
    n_pts = orbits.shape[1]
    first = orbits[0]
    block = orbits[:n]
    window_dist = _window_distances(block)
    alive = np.ones(n_pts, dtype=bool)
    count = 0
    i = frontier = 0
    while True:
        i = _next_alive(alive, i, frontier)
        if i >= n_pts:
            return count, False
        count += 1
        if cap is not None and count >= cap:
            return cap, True
        hi = int(first.searchsorted(first[i] + eps, side="right"))
        dist = window_dist(i, hi, i)
        k = int((dist <= eps).nonzero()[0][-1])
        center = i
        if k:
            seg = block[:, i:i + 1 + k]
            run_max = np.maximum.accumulate(seg, axis=1)
            run_min = np.minimum.accumulate(seg, axis=1)
            feasible = ((run_max - seg <= eps) & (seg - run_min <= eps)).all(axis=0)
            center += int(feasible.nonzero()[0][-1])
        if center > i:
            hi = int(first.searchsorted(first[center] + eps, side="right"))
            dist = window_dist(i, hi, center)
        alive[i:hi] &= dist > eps
        frontier = max(frontier, hi)
        i += 1


def _default_grid(grid_bits):
    n = 1 << grid_bits
    return np.linspace(0.0, 1.0, n + 1)


def _orbit_rows_cap(grid_bits):
    """The most orbit rows of the 2^grid_bits grid that fit _ORBIT_BYTE_CAP,
    after refusing a grid_bits over its cap (ResourceError)."""
    if grid_bits > _GRID_BITS_CAP:
        raise ResourceError(
            f"grid-bits {grid_bits} is over the cap {_GRID_BITS_CAP}, the "
            f"largest whose orbit rows fit in {_ORBIT_BYTE_CAP / 2 ** 30:g} GiB")
    return _ORBIT_BYTE_CAP // (8 * ((1 << grid_bits) + 1))


class _GridOrbits:
    """Column-store orbits of the dyadic grid of 2^grid_bits cells under m,
    filled on demand for one computation.

    `rows(n, eps)` gives the first n rows, row t being f^t of the grid.
    Row t is computed as m.evaluate_array(row t - 1) the first time a
    request reads it and is kept, so a count series that stops at its knee
    never maps the rows past it, and every later request of the computation
    (at any time, at any scale) reads the rows already there.  The buffer
    holds as many rows as the largest request so far and no more: numpy
    asks for huge pages from 4 MiB up, so spare rows would be faulted in
    with the rows in use.
    """

    def __init__(self, m: IntervalMap, grid_bits):
        self.m = m
        self.grid_bits = grid_bits
        self.filled = 0             # rows computed so far
        self._buf = np.empty((0, 0))

    def check(self, n, eps):
        """Refuse n rows at scale eps before any allocation: n below 1 or an
        eps that is not positive (NaN included) with DomainError, grid_bits
        or the orbit matrix over its cap with ResourceError, then a grid
        with fewer than 8 points per eps with ResolutionError."""
        if n < 1:
            raise DomainError("n must be >= 1")
        if not eps > 0:
            raise DomainError("eps must be positive")
        rows_cap = _orbit_rows_cap(self.grid_bits)
        size = (1 << self.grid_bits) + 1
        if n > rows_cap:
            raise ResourceError(
                f"orbit matrix of {n} x {size} float64 cells needs "
                f"{n * size * 8 / 2 ** 30:.3g} GiB, over the "
                f"{_ORBIT_BYTE_CAP / 2 ** 30:g} GiB cap")
        if eps * (size - 1) < 8:
            raise ResolutionError(
                f"fewer than 8 grid points per eps={eps:g} at grid size {size}")

    def reserve(self, n, eps):
        """`check(n, eps)`, then room for n rows; the first request builds
        the grid as row 0."""
        self.check(n, eps)
        if n > self._buf.shape[0]:
            buf = np.empty((n, (1 << self.grid_bits) + 1))
            if self.filled:
                buf[:self.filled] = self._buf[:self.filled]
            else:
                buf[0] = _default_grid(self.grid_bits)
                self.filled = 1
            self._buf = buf

    def rows(self, n, eps):
        """The first n rows, an (n, 2^grid_bits + 1) view, after
        `reserve(n, eps)`."""
        self.reserve(n, eps)
        buf, evaluate = self._buf, self.m.evaluate_array
        while self.filled < n:
            buf[self.filled] = evaluate(buf[self.filled - 1])
            self.filled += 1
        return buf[:n]


def spanning_count(m: IntervalMap, n, eps, grid_bits=_DEFAULT_GRID_BITS):
    """(spanning, separated) counts for the grid at time n and scale eps.

    Spanning comes from the closed-ball greedy cover, separated from the
    greedy strictly-separated family; spanning <= separated.
    """
    orbits = _GridOrbits(m, grid_bits).rows(n, eps)
    cover, _ = _greedy_cover(orbits, n, eps)
    net, _ = _greedy_net(orbits, n, eps)
    return cover, net


def _modulus_holds(count, p, h, target):
    """The p_eps test of `continuity_modulus`: (1/p) log count - h <= target."""
    return math.log(count) / p - h <= target


def _modulus_cap(p, h, target, n_cols):
    """Least count at which `_modulus_holds` fails, or None when it still
    holds at n_cols, the most centers a cover of n_cols columns can have.
    The test is monotone in the count (see `continuity_modulus`), so a
    bisection over [1, n_cols] finds the least failing count."""
    if _modulus_holds(n_cols, p, h, target):
        return None
    lo, hi = 0, n_cols          # holds at every count <= lo, fails at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _modulus_holds(mid, p, h, target):
            lo = mid
        else:
            hi = mid
    return hi


def _fit_counts(ns, counts, clean_upto=None):
    """Least-squares slope of log counts over the last half of the clean
    prefix; rate = log(count)/n at the last clean index."""
    if clean_upto is not None:
        ns = ns[:clean_upto]
        counts = counts[:clean_upto]
    if not ns:
        return 0.0, 0.0
    logs = np.log(np.maximum(counts, 1))
    k = len(ns)
    lo = k // 2 if k >= 4 else 0
    xs = np.asarray(ns[lo:], float)
    ys = logs[lo:]
    if xs.size < 2 or np.allclose(ys, ys[0]):
        slope = 0.0
    else:
        slope = float(np.polyfit(xs, ys, 1)[0])
    rate = float(logs[-1] / ns[-1])
    return max(slope, 0.0), rate


def _count_series(store, eps, n_range):
    """Greedy-net counts per n over the rows of `store`, a `_GridOrbits`;
    stops once the grid starves (count at the cap max(64, one sixteenth of
    the grid), i.e. under ~16 points per ball), so no row past the first
    starved n is filled.  The refusals that do not read the times run
    before n_range is listed, and so does the orbit cap's refusal of the
    largest n when n_range is a range, whose extremes are its ends.
    Returns (ns, counts, clean_upto), clean_upto being the index of the
    first starved n (None if the grid never starved)."""
    store.check(1, eps)         # one row passes the two checks that read n
    ns = n_range if isinstance(n_range, range) else list(n_range)
    if not ns:
        raise DomainError("n_range must be nonempty")
    ends = (ns[0], ns[-1]) if isinstance(ns, range) else ns
    if min(ends) < 1:
        raise DomainError("n must be >= 1")
    store.reserve(max(ends), eps)
    ns = list(ns)
    cap = max(64, ((1 << store.grid_bits) + 1) // 16)
    counts = []
    clean_upto = None
    for j, n in enumerate(ns):
        if clean_upto is not None:
            counts.append(counts[-1])
            continue
        c, capped = _greedy_net(store.rows(n, eps), n, eps, cap=cap)
        counts.append(c)
        if capped or c >= cap:
            clean_upto = j
    return ns, counts, clean_upto


def eps_entropy(m: IntervalMap, eps, n_range=_DEFAULT_N_RANGE,
                grid_bits=_DEFAULT_GRID_BITS):
    """Growth-rate estimate of the spanning counts r_n(f, eps).

    The count series uses the greedy separated family (whose open balls
    cover the grid, so it is simultaneously an upper-biased spanning count);
    counts past the grid-starvation knee are excluded from the slope fit.
    The knee, the index into ns of the first starved count (None if the
    grid never starved), is reported as extra["clean_upto"], and the orbit
    rows computed to reach it (the grid included) as extra["orbit_rows"].
    """
    store = _GridOrbits(m, grid_bits)
    ns, counts, clean_upto = _count_series(store, eps, n_range)
    slope, rate = _fit_counts(ns, counts, clean_upto)
    return EntropyEstimate(
        method="eps-entropy", map_name=m.name, eps=eps, delta=None,
        ns=ns, counts=counts, rate=rate, slope=slope,
        direction="upper-bias", saturated=clean_upto is not None,
        extra={"clean_upto": clean_upto, "orbit_rows": store.filled})


def _iterate_periods(m: IntervalMap, xs, qs):
    """f^q(x) for every entry, with nondecreasing periods qs: at step t only
    the suffix of entries with q > t is mapped, its start found for every t
    by one searchsorted."""
    v = xs.copy()
    starts = qs.searchsorted(np.arange(qs.max(initial=0)), side="right")
    for s in starts.tolist():
        v[s:] = m.evaluate_array(v[s:])
    return v


def _fold_cycle_centers(m: IntervalMap, eps):
    """Near-periodic points passing within eps of a critical point.

    For each critical point c and period q <= min(28, log2(1/eps) + 6),
    solves f^q(y) = y on the two monotone branches of f^q adjacent to c;
    such orbits refold their dynamical ball every ~q steps and realize the
    fastest branch growth, which generic centers never see.

    The brackets of all (q, c, side) come from the critical-point pullback
    (the walk ends before a level whose lanes overflow _FOLD_POINT_CAP
    points, counted before any is solved, and stops solving at a level that
    adds no point); their endpoints are then evaluated in one pass and
    every sign-change bracket is bisected at once, 60 halvings each.

    The brackets of periods q <= Q are a prefix of those of any larger Q,
    and a lane's root does not depend on the lanes bisected beside it, so
    the map keeps only the roots of every period solved so far, no
    pullback level, and solves again only when eps reads a larger period:
    a sweep that visits its scales smallest eps first runs one bisection
    in all.
    """
    q_max = min(_FOLD_Q_CAP, int(abs(math.log(eps)) / math.log(2)) + 6)
    if m._fold_cycles is None or m._fold_cycles[0] < q_max:
        m._fold_cycles = _solve_fold_cycles(m, q_max)
    _, qs, cs, ys = m._fold_cycles
    n = int(qs.searchsorted(q_max, side="right"))
    return ys[:n][np.abs(ys[:n] - cs[:n]) < 0.999 * eps].tolist()


def _solve_fold_cycles(m: IntervalMap, q_max):
    """The solved brackets of `_fold_cycle_centers` for periods q <= q_max:
    (q_solved, qs, cs, ys), the period, critical point and root of every
    bracket that has a root, in bracket order (q ascending).  q_solved is
    q_max, or _FOLD_Q_CAP when the pullback walk ended first, since no
    larger period then adds a bracket: it ends when the lanes of a level
    overflow _FOLD_POINT_CAP - |level k|, before any is solved.  A level
    that adds no point is read for every later period without a solve.
    No level is kept on the map."""
    crit = sorted(m.critical_points)
    empty = np.empty(0)
    if not crit:
        return _FOLD_Q_CAP, empty, empty, empty
    brackets = []
    for q, cur in zip(range(1, q_max + 1),
                      _critical_pullbacks(m, _FOLD_POINT_CAP)):
        pts = np.unique(np.concatenate([[0.0], cur, [1.0]]))
        for c in crit:
            j = int(np.searchsorted(pts, c))
            sides = []
            if j > 0:
                sides.append((float(pts[j - 1]), c))
            if j + 1 < pts.size:
                sides.append((c, float(pts[j + 1])))
            for lo, hi in sides:
                if hi - lo >= 1e-13:
                    brackets.append((lo, hi, q, c))
    # a walk that ended before q_max met the cap: no larger period follows
    q_solved = q_max if q == q_max else _FOLD_Q_CAP
    if not brackets:
        return q_solved, empty, empty, empty
    lo, hi, qs, cs = (np.array(col) for col in zip(*brackets))
    ends = _iterate_periods(m, np.column_stack([lo, hi]).ravel(), qs.repeat(2))
    glo = ends[0::2] - lo
    ghi = ends[1::2] - hi
    y = np.where(glo == 0.0, lo, hi)
    bisect = glo * ghi < 0
    qb = qs[bisect]
    y[bisect] = _bisect(lambda x, lane: _iterate_periods(m, x, qb[lane]) - x,
                        lo[bisect], hi[bisect], 0.0, glo[bisect] < 0, 60)
    solved = (glo == 0.0) | (ghi == 0.0) | bisect
    return q_solved, qs[solved], cs[solved], y[solved]


def _tail_centers(m: IntervalMap, n_centers, eps=None):
    """Sorted tail centers: an even grid, the critical points, branch
    midpoints and (given eps) fold-cycle centers.  Returns (centers, error),
    error being the text of the TailentError that cut the structured
    centers short, or None."""
    xs = list(np.linspace(0.0, 1.0, n_centers + 1)[1:-1])
    error = None
    try:
        xs.extend(m.critical_points)
        branches, _, _ = m.monotone_partition()
        xs.extend(0.5 * (a + b) for a, b in branches[:16])
        if eps is not None:
            xs.extend(_fold_cycle_centers(m, eps))
    except TailentError as exc:
        error = str(exc)
    return sorted(set(float(min(max(x, 0.0), 1.0)) for x in xs)), error


def _tail_counts(m: IntervalMap, centers, eps, ns, deltas, stride, piece_cap):
    """Covering counts of the dynamical balls B_n(f^stride, x, eps) of all
    centers x at once, maximized over centers.

    Each ball is tracked exactly as a union of intervals in image space: at
    every (macro) time the pieces are intersected with the eps-window around
    their center's orbit, then split at the critical points of f and mapped
    monotonically.  A piece keeps its length-maximum max_{t<n} |f^(t*stride)(J)|
    (inherited from its ancestors, an upper surrogate for subdivided pieces)
    and the index of its center, so every step is one array operation over
    the pieces of all centers.  At each n in ns the (n, delta)-count of a
    ball is the sum over its pieces of max(ceil(L / (2 delta)), 1).

    A center whose pieces all vanish in float arithmetic is reseeded with a
    degenerate piece at its orbit point (the ball always holds the center).
    A center holding more than piece_cap pieces after a step is frozen: its
    last counts stand for every later n.

    Returns (sup_counts, cut): sup_counts[i, j] is the largest count over
    centers at ns[i] and deltas[j]; cut is the macro time of the first
    freeze (None if no center was frozen).
    """
    crit = np.asarray(m.critical_points, dtype=float)
    record = set(ns)
    n_stop = max(ns)
    n_c = len(centers)
    orbits = _orbit_matrix(m, np.asarray(centers, dtype=float),
                           n_stop * stride + 1)
    owner = np.arange(n_c)
    lo = np.zeros(n_c)
    hi = np.ones(n_c)
    lmax = np.zeros(n_c)
    active = np.ones(n_c, dtype=bool)
    last = np.ones((n_c, len(deltas)))
    sup_counts = np.ones((len(ns), len(deltas)))
    row = 0
    cut = None
    macro = 0
    for t in range(n_stop * stride):
        if t % stride == 0:
            center = orbits[t]
            lo = np.maximum(lo, center[owner] - eps)
            hi = np.minimum(hi, center[owner] + eps)
            keep = hi - lo > 0
            lo, hi, lmax, owner = lo[keep], hi[keep], lmax[keep], owner[keep]
            bare = active.copy()
            bare[owner] = False
            if bare.any():
                seed = np.nonzero(bare)[0]
                lo = np.concatenate([lo, center[seed]])
                hi = np.concatenate([hi, center[seed]])
                lmax = np.concatenate([lmax, np.zeros(seed.size)])
                owner = np.concatenate([owner, seed])
            lmax = np.maximum(lmax, hi - lo)
            macro += 1
            if macro in record:
                for j, d in enumerate(deltas):
                    pieces = np.maximum(np.ceil(lmax / (2 * d)), 1.0)
                    counts = np.bincount(owner, weights=pieces, minlength=n_c)
                    last[active, j] = counts[active]
                sup_counts[row] = last.max(axis=0, initial=1.0)
                row += 1
                if macro == n_stop:
                    break
        # split at the critical points, then map each monotone piece
        for c in crit:
            split = (lo < c) & (hi > c)
            if np.any(split):
                lo = np.concatenate([lo, np.full(split.sum(), c)])
                hi = np.concatenate([hi, hi[split]])
                lmax = np.concatenate([lmax, lmax[split]])
                owner = np.concatenate([owner, owner[split]])
                hi[np.nonzero(split)[0]] = c
        ends = m.evaluate_array(np.concatenate([lo, hi]))
        fa, fb = ends[:lo.size], ends[lo.size:]
        lo, hi = np.minimum(fa, fb), np.maximum(fa, fb)
        over = np.bincount(owner, minlength=n_c) > piece_cap
        if over.any():
            if cut is None:
                cut = macro
            active &= ~over
            live = active[owner]
            lo, hi, lmax, owner = lo[live], hi[live], lmax[live], owner[live]
            if not active.any():
                break
    sup_counts[row:] = last.max(axis=0, initial=1.0)
    return sup_counts, cut


def tail_entropy_estimate(m: IntervalMap, eps, n_range=range(1, 29), stride=1):
    """Upper eps-tail entropy estimate via exact interval pullback.

    For each center x the dynamical ball B_n(f, x, eps) is maintained as a
    union of monotone pieces; the (n, delta)-covering count of a piece is
    ceil(L/(2 delta)) with L the largest coordinate image length, so the
    count of the ball is the sum over pieces.  Counts are maximized over
    centers, the slope fitted in n at each delta = eps/2^j, j = 1..4, the
    estimate taken at the smallest delta with the difference to the
    previous delta as residual.  eps must be positive and finite
    (ScaleError otherwise, raised before any work).

    All centers are pulled back together (`_tail_counts`): each live center
    holds at most _PIECE_CAP = 2^14 pieces between steps.  A center that
    exceeds the cap is frozen and the fit stops before the first n past the
    freeze.

    `stride` estimates the p-th iterate f^p at the same scale through the
    same machinery, so power-rule comparisons share their bias.

    extra holds "delta_slopes" (slope per delta), "centers" (how many
    centers were pulled back), "fold_cycle_error" (the text of the error
    that cut the critical-point and fold-cycle centers short, or None) and
    "clean_upto" (the index into ns of the first count past the piece-cap
    freeze, or None; as for `eps_entropy`, the fit uses ns[:clean_upto]).
    """
    if not 0 < eps < math.inf:
        raise ScaleError(f"need 0 < eps < inf, got {eps!r}")
    deltas = [eps / 2 ** j for j in range(1, 5)]
    ns = sorted(n_range)
    if not ns:
        raise DomainError("n_range must be nonempty")
    centers, fold_error = _tail_centers(m, 40, eps=eps)
    sup_counts, cut = _tail_counts(m, centers, eps, ns, deltas,
                                   stride=stride, piece_cap=_PIECE_CAP)
    upto = None
    if cut is not None:
        upto = sum(1 for n in ns if n <= cut)
    slopes = []
    for j in range(len(deltas)):
        counts = [int(c) for c in sup_counts[:, j]]
        slope, _ = _fit_counts(ns, counts, upto)
        slopes.append(slope)
    est = slopes[-1]
    residual = abs(slopes[-1] - slopes[-2])
    counts_min = [int(c) for c in sup_counts[:, -1]]
    return EntropyEstimate(
        method="tail-entropy", map_name=m.name, eps=eps,
        delta=deltas[-1], ns=ns, counts=counts_min, rate=est,
        slope=est, direction="upper-bias", residual=residual,
        saturated=cut is not None,
        extra={"delta_slopes": dict(zip(deltas, slopes)),
               "centers": len(centers), "fold_cycle_error": fold_error,
               "clean_upto": upto})


def bound_quasionedim(m: IntervalMap, eps):
    """log+ ||f||_l / |log eps| for a C^l l-multimodal map."""
    if not 0 < eps < 1:
        raise ScaleError("need 0 < eps < 1")
    _, _, l = m.monotone_partition()
    norm = max(m.derivative_sup(k) for k in range(1, l + 1))
    return math.log(max(norm, 1.0)) / abs(math.log(eps))


def bound_wmulti(m: IntervalMap, eps):
    """log2 * log+ ||f'|| / log+(1/w(f', eps)); +inf sentinel when the
    denominator degenerates (w >= 1), never silently clipped."""
    _, length, _ = m.monotone_partition()
    if not 0 < eps < length:
        raise ScaleError(f"need 0 < eps < L(f) = {length:g}")
    w = m.modulus_of_continuity(eps)
    num = math.log(2) * math.log(max(m.derivative_sup(1), 1.0))
    if w >= 1.0:
        return math.inf
    if w == 0.0:
        return 0.0  # constant derivative: no local branching at any scale
    return num / math.log(1.0 / w)


def growth_rate_R(m: IntervalMap):
    """Slope estimate of (1/n) log+ sup |(f^n)'| for n <= 24 via chain rule
    on the orbits of the 2^12-cell grid, accumulated in log space."""
    n_max = 24
    xs = _default_grid(12)
    v = xs.copy()
    acc = np.zeros_like(xs)
    sups = []
    for n in range(1, n_max + 1):
        d = np.abs(m.derivative_array(v))
        acc = acc + np.log(np.maximum(d, 1e-300))
        sups.append(max(float(np.max(acc)), 0.0))
        v = m.evaluate_array(v)
    ns = np.arange(1, n_max + 1, dtype=float)
    lo = n_max // 2
    slope = float(np.polyfit(ns[lo:], np.asarray(sups)[lo:], 1)[0])
    return max(slope, 0.0)


def power_bound_check(m: IntervalMap, eps, p, tolerance=0.02):
    """Check est(f, eps) <= est(f^p, eps)/p + tolerance.

    Both estimates run through the same interval-pullback machinery (the
    iterate is handled by window striding), so their bias is shared.  The
    time range is capped by the float expansion horizon: beyond roughly
    52 + log2(eps) steps a doubling map amplifies the last bit of the
    center past the window width and periodic centers drift off cycle.
    p below 2 is a DomainError and an eps outside (0, inf) a ScaleError,
    both raised before any work.
    """
    if p < 2:
        raise DomainError("p must be >= 2")
    if not 0 < eps < math.inf:
        raise ScaleError(f"need 0 < eps < inf, got {eps!r}")
    horizon = max(16, min(40, int(46 + math.log2(eps))))
    # align the fit windows of f and f^p in micro time
    base = tail_entropy_estimate(m, eps, n_range=range(1, horizon + 1))
    power = tail_entropy_estimate(m, eps, n_range=range(1, horizon // p + 1),
                                  stride=p)
    holds = base.rate <= power.rate / p + tolerance
    return {
        "map": m.name, "eps": eps, "p": p,
        "est_f": base.rate, "est_fp": power.rate,
        "bound": power.rate / p + tolerance, "holds": bool(holds),
    }


def continuity_modulus(m: IntervalMap, eps, m0, hloc_g,
                       grid_bits=_DEFAULT_GRID_BITS):
    """Entropy-continuity data (p_eps, N(eps), bound, capped).

    p_eps is the least p with (1/p) log r_p(f, eps/4) - h(f, eps/4)
    <= hloc_g(eps); N(eps) inverts s -> psi(s) = (s/4) m0^(-p_s) by
    bisection on [eps, _S_HI], p_s being the least passing p at scale s;
    the bound is h_est(f) + 2 hloc_g(N(eps)).  When the target is not
    reached below _S_HI the result is capped at _S_HI (capped=True): the
    true N(eps) is larger, so the returned bound is a lower surrogate.
    eps must lie in (0, _S_HI), the bracket of N(eps); any other eps is a
    DomainError, raised before hloc_g is probed or an orbit is built.
    hloc_g must not increase toward 0, i.e. be nondecreasing in t; this is
    probed only at 12 points of [1e-6, min(eps, 0.06)] (a DomainError if
    it falls there), although hloc_g is read up to _S_HI.

    Each p is decided by a capped greedy cover.  In floating point the
    test value log(c)/p - h is nondecreasing in the integer count c:
    math.log(c + 1) - math.log(c) is about 1/c, far more than one ulp of
    log(c), and division by p > 0, subtraction of h and <= are monotone.
    So the test holds up to some count and fails from the least failing
    count C_p on (`_modulus_cap`, found by bisection).  The cover stops
    after C_p centers and returns C_p, where the test fails as it does at
    any larger count; below C_p it returns the full count.  When the test
    still holds at the column count (C_p is None) p passes with no cover
    at all, since a cover never has more centers than columns.

    psi(s) >= eps is decided without p_s.  The float expression
    (s/4.0) * m0 ** (-p) is nonincreasing in p for m0 >= 2 (consecutive
    powers differ by a factor m0, far more than pow's rounding), so with
    P*(s) the largest p <= _P_CAP at which it is still >= eps (0 if none),
    psi(s) >= eps holds exactly when some p <= P*(s) passes.  Only those p
    are tried; at P*(s) = 0 the answer is "below" with no fit and no cover.

    p_eps, N(eps), the bound and capped are those of deciding every scale
    over the full p range with uncapped covers.  The DomainError past
    _P_CAP is raised only where the answer reads it: for p_eps at eps, or
    at a scale whose P*(s) is _P_CAP; likewise the orbit rows of p, and
    their ResourceError, only for a p whose cover runs.

    Every fit and cover of the call reads one `_GridOrbits` store: the
    grid orbits do not depend on the scale, so each row is mapped at most
    once per call, and only if a fit before its knee or a cover reads it.
    The fits are `_count_series` and `_fit_counts`, the numbers of
    eps_entropy(m, scale, grid_bits=grid_bits).slope.
    """
    if not 2 <= m0 < math.inf:
        raise DomainError("m0 must be finite and >= 2")
    if not 0 < eps < _S_HI:
        raise DomainError(f"eps must lie in (0, {_S_HI:g}), the bracket of "
                          f"N(eps); got {eps!r}")
    # the hypothesis is monotone decay at small scales
    probe = np.geomspace(1e-6, min(eps, 0.06), 12)
    vals = [hloc_g(t) for t in probe]
    if any(a > b + 1e-12 for a, b in zip(vals, vals[1:])):
        raise DomainError("hloc_g must not increase toward 0 "
                          "(nondecreasing in t on the probe)")

    store = _GridOrbits(m, grid_bits)
    h_cache = {}

    def h_est(scale):
        """eps_entropy(m, scale, grid_bits=grid_bits).slope, over `store`."""
        if scale not in h_cache:
            ns, counts, clean_upto = _count_series(store, scale,
                                                   _DEFAULT_N_RANGE)
            h_cache[scale] = _fit_counts(ns, counts, clean_upto)[0]
        return h_cache[scale]

    def least_p(scale, p_max):
        """Least p <= p_max passing the p_eps test at scale; past _P_CAP a
        DomainError, below it None."""
        h = h_est(scale / 4)
        target = hloc_g(scale)
        n_cols = (1 << grid_bits) + 1
        for p in range(1, p_max + 1):
            cap = _modulus_cap(p, h, target, n_cols)
            if cap is None:
                return p
            r_p, _ = _greedy_cover(store.rows(p, scale / 4), p, scale / 4,
                                   cap=cap)
            if _modulus_holds(r_p, p, h, target):
                return p
        if p_max == _P_CAP:
            raise DomainError(f"p_eps exceeded cap {_P_CAP} at eps={scale:g}")
        return None

    def reaches(s):
        """psi(s) >= eps."""
        p_star = 0
        while p_star < _P_CAP and (s / 4.0) * m0 ** (-(p_star + 1)) >= eps:
            p_star += 1
        return p_star > 0 and least_p(s, p_star) is not None

    p_eps = least_p(eps, _P_CAP)
    lo, hi = eps, _S_HI
    capped = not reaches(hi)
    if not capped:
        for _ in range(25):
            mid = 0.5 * (lo + hi)
            if reaches(mid):
                hi = mid
            else:
                lo = mid
    n_eps = hi
    h_f = h_est(eps)
    return p_eps, n_eps, h_f + 2.0 * hloc_g(n_eps), capped
