"""Interval self-maps of [0,1]: polynomial, piecewise-affine, and the
single-bump oscillation ("snake") family, with derivatives, monotone
structure, and a string registry used by the CLI.

All map objects are immutable after construction; caches (critical points,
monotone partition, one entry of solved fold-cycle roots) are built lazily
and without locks, so a map must not be shared across threads.
The critical points of a map are its turning points, the zeros of f' at
which f' changes sign; they cut the monotone partition and seed the
pullback, a walk that keeps no level on the map: it ends before a level
whose lanes (one per target and branch) overflow its cap, counted before
any is solved, and stops solving at a level that adds no point.
Candidate zeros come from exact root isolation for the polynomial kind and
from sampled sign changes and exact zeros elsewhere, refined by the
lane-array bisection `polyalg._bisect`, which also solves f(x) = y on each
monotone branch.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from . import polyalg
from .errors import (DomainError, NotC1Error, ResourceError,
                     UnsupportedOrderError)

__all__ = [
    "IntervalMap", "PolynomialMap", "PiecewiseAffineMap", "SnakeMap",
    "SnakeParams", "build_snake", "get_map", "get_rate",
    "min_branch_length_iterate", "quadratic_map", "tent_map", "identity_map",
]

_GRID_BITS_SUP = 14      # dense grid for sup-norm estimates on non-polynomials
_GRID_BITS_CRIT = 16     # sampled sign changes for closed-form critical points
_SAMPLES_PER_OSC = 100   # snake profile and oscillation samples per oscillation
_SNAKE_SAMPLE_CAP = 1 << 24  # floats in one snake sample array (128 MiB)


def _as_array(x):
    return np.asarray(x, dtype=float)


class IntervalMap:
    """Evaluable self-map of [0,1] with derivative and branch structure."""

    name = "map"
    k_max = 0
    smooth = False          # whether f' is continuous on [0,1]

    def __init__(self):
        self._crit = None
        self._branches = None
        self._fold_cycles = None  # fold-cycle roots by period, once solved

    # -- evaluation -----------------------------------------------------
    def evaluate_array(self, xs):
        """Vectorized evaluation; clamps rounding overshoot into [0,1]."""
        return self._eval_array(_as_array(xs)).clip(0.0, 1.0)

    def _eval_array(self, xs):
        raise NotImplementedError

    def _check_order(self, order):
        if order < 1 or order > self.k_max:
            raise UnsupportedOrderError(
                f"order {order} not supported (k_max={self.k_max})")

    def derivative_array(self, xs):
        """Analytic first-derivative values."""
        return self._deriv_array(_as_array(xs), 1)

    def _deriv_array(self, xs, order):
        raise NotImplementedError

    # -- structure --------------------------------------------------------
    @property
    def critical_points(self):
        """Sorted turning points of f in the open interval (0,1): the zeros
        of f' at which f' changes sign.  The monotone partition cuts here."""
        if self._crit is None:
            self._crit = self._find_critical_points()
        return self._crit

    def _find_critical_points(self):
        # sampled sign changes of f', each bracket bisected 60 times, and the
        # sampled exact zeros; then only the turning points among them
        n = 1 << _GRID_BITS_CRIT
        xs = np.linspace(0.0, 1.0, n + 1)
        d = self._deriv_array(xs, 1)
        s = np.sign(d)
        idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
        roots = polyalg._bisect(lambda x, lane: self._deriv_array(x, 1),
                                xs[idx], xs[idx + 1], 0.0, d[idx] < 0, 60)
        return self._turning_points(
            sorted(set(roots.tolist() + xs[1:-1][d[1:-1] == 0.0].tolist())))

    def _turning_points(self, zeros):
        """The zeros of f' (sorted) at which f' changes sign: the sign of f'
        at the midpoints between neighbouring zeros, 0 and 1 the outer ends."""
        anchors = np.array([0.0] + zeros + [1.0])
        d = self._deriv_array(0.5 * (anchors[:-1] + anchors[1:]), 1)
        return [c for c, turns in zip(zeros, d[:-1] * d[1:] < 0) if turns]

    def monotone_partition(self):
        """(branch list, L(f), l): minimal monotone partition of [0,1]."""
        if self._branches is None:
            cuts = [0.0] + self.critical_points + [1.0]
            self._branches = list(zip(cuts[:-1], cuts[1:]))
        branches = self._branches
        length = min(hi - lo for lo, hi in branches)
        return branches, length, len(branches)

    def derivative_sup(self, order):
        """sup of |f^(order)| over [0,1]; dense-grid estimate with a
        Lipschitz correction from the next-order derivative when available."""
        self._check_order(order)
        n = 1 << _GRID_BITS_SUP
        xs = np.linspace(0.0, 1.0, n + 1)
        base = float(np.max(np.abs(self._deriv_array(xs, order))))
        if order + 1 <= self.k_max:
            h = 1.0 / n
            nxt = float(np.max(np.abs(self._deriv_array(xs, order + 1))))
            return base + 0.5 * h * nxt
        return base

    def modulus_of_continuity(self, eps):
        """w(f', eps) = sup over |x-y| < eps of |f'(x)-f'(y)|."""
        if not self.smooth:
            raise NotC1Error(f"{self.name}: derivative is not continuous")
        if not 0 < eps < 1:
            raise DomainError("need 0 < eps < 1")
        n = 1 << _GRID_BITS_SUP
        xs = np.linspace(0.0, 1.0, n + 1)
        d = self._deriv_array(xs, 1)
        k = max(1, int(math.ceil(eps * n)))
        # max and min of d over every window of k + 1 samples, by doubling:
        # hi[i] and lo[i] run over d[i:i + width], and two windows of the
        # largest width <= k + 1, shifted by k + 1 - width, cover one of k + 1
        hi, lo, width = d, d, 1
        while 2 * width <= k + 1:
            hi = np.maximum(hi[:-width], hi[width:])
            lo = np.minimum(lo[:-width], lo[width:])
            width *= 2
        shift = k + 1 - width
        last = hi.size - shift
        return float(np.max(np.maximum(hi[:last], hi[shift:])
                            - np.minimum(lo[:last], lo[shift:])))

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class PolynomialMap(IntervalMap):
    """Map given by a polynomial with exact rational coefficients."""

    smooth = True
    k_max = 64

    def __init__(self, coeffs, name=None):
        super().__init__()
        self.poly = (coeffs if isinstance(coeffs, polyalg.Polynomial)
                     else polyalg.Polynomial(coeffs))
        self.name = name or f"poly:[{','.join(str(float(c)) for c in self.poly.coeffs)}]"
        self._derivs = {0: self.poly}
        v = self.poly(np.linspace(0.0, 1.0, 4097))
        if v.min() < -1e-12 or v.max() > 1 + 1e-12:
            raise ValueError(
                f"{self.name}: image [{v.min():.3g}, {v.max():.3g}] leaves [0,1]")

    def _derivative_poly(self, k):
        if k not in self._derivs:
            self._derivs[k] = self.poly.diff(k)
        return self._derivs[k]

    def _eval_array(self, xs):
        return self.poly(xs)

    def _deriv_array(self, xs, order):
        return self._derivative_poly(order)(xs) + np.zeros_like(xs)

    def _find_critical_points(self):
        dp = self.poly.diff()
        if dp.is_zero() or dp.degree < 1:
            return []
        return self._turning_points(
            [r for r in polyalg.isolate_roots(dp) if 0 < r < 1])

    def derivative_sup(self, order):
        """sup of |f^(order)| over [0,1], exact for the polynomial kind:
        root isolation of f^(order+1)."""
        self._check_order(order)
        dk = self._derivative_poly(order)
        if dk.is_zero():
            return 0.0
        cands = [0.0, 1.0]
        nxt = dk.diff()
        if not nxt.is_zero() and nxt.degree >= 1:
            cands.extend(polyalg.isolate_roots(nxt))
        return max(abs(float(dk(x))) for x in cands)

    def modulus_of_continuity(self, eps):
        """Exact candidate enumeration: critical pairs, endpoint pairs, and
        sliding pairs at distance eps with g'(x) = g'(x+eps)."""
        if not 0 < eps < 1:
            raise DomainError("need 0 < eps < 1")
        g = self.poly.diff()
        eps_f = Fraction(eps).limit_denominator(1 << 48)
        cands = {0.0, 1.0}
        gp = g.diff()
        if not gp.is_zero() and gp.degree >= 1:
            cands.update(polyalg.isolate_roots(gp))
        pairs = []
        pts = sorted(cands)
        for i, a in enumerate(pts):
            for b in pts[i:]:
                if b - a <= eps + 1e-15:
                    pairs.append((a, b))
            if a + eps <= 1:
                pairs.append((a, a + eps))
            if a - eps >= 0:
                pairs.append((a - eps, a))
        slide = gp - gp.compose_affine(eps_f, 1)
        if not slide.is_zero() and slide.degree >= 1:
            for x in polyalg.isolate_roots(slide, Fraction(1) - eps_f):
                pairs.append((x, x + eps))
        return max(abs(float(g(a)) - float(g(b))) for a, b in pairs)


class PiecewiseAffineMap(IntervalMap):
    """Continuous piecewise-affine map from breakpoint/value lists."""

    name = "piecewise-affine"
    smooth = False
    k_max = 1

    def __init__(self, xs, ys):
        super().__init__()
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if self.xs[0] != 0.0 or self.xs[-1] != 1.0 or np.any(np.diff(self.xs) <= 0):
            raise ValueError("breakpoints must increase from 0 to 1")
        if self.ys.min() < 0 or self.ys.max() > 1:
            raise ValueError("values must lie in [0,1]")
        self.slopes = np.diff(self.ys) / np.diff(self.xs)

    def _eval_array(self, xs):
        return np.interp(xs, self.xs, self.ys)

    def _deriv_array(self, xs, order):
        # right-continuous slope convention at breakpoints
        idx = np.clip(np.searchsorted(self.xs, xs, side="right") - 1,
                      0, len(self.slopes) - 1)
        return self.slopes[idx]

    def _find_critical_points(self):
        # a turn is where a nonzero slope has the other sign than the last
        # nonzero slope before it; across a plateau it sits at the left end
        pts, last = [], None
        for i in np.flatnonzero(self.slopes):
            if last is not None and self.slopes[last] * self.slopes[i] < 0:
                pts.append(float(self.xs[last + 1]))
            last = i
        return pts

    def branch_preimages(self, ys, room):
        """All preimages of each y (flattened, sorted), exact per segment;
        None, before any is computed, when there are more than room."""
        sels = [(i, (ys >= min(y0, y1)) & (ys <= max(y0, y1)))
                for i, (y0, y1) in enumerate(zip(self.ys[:-1], self.ys[1:]))
                if self.slopes[i] != 0]
        if sum(int(sel.sum()) for _, sel in sels) > room:
            return None
        out = [self.xs[i] + (ys[sel] - self.ys[i]) / self.slopes[i]
               for i, sel in sels]
        return np.sort(np.concatenate(out)) if out else np.empty(0)


# ---------------------------------------------------------------------------
# branch pullback and the p_eps scale
# ---------------------------------------------------------------------------

def _preimages(m: IntervalMap, ys, room):
    """Solutions of f(x) = y over all monotone branches, for an array ys:
    one lane per (y, branch) with y in the branch's image, 52 halvings each;
    None, before any lane is solved, when there are more than room lanes.

    The lanes of each branch share the top of that branch's bisection tree
    (`polyalg._bisection_top`), and all branches then run in one
    `polyalg._bisect` call; each lane keeps its branch's bracket and
    direction, so its bits are those of 52 plain halvings of its own branch
    alone, and a preimage depends only on its target and branch.
    """
    ys = np.asarray(ys, dtype=float)
    if isinstance(m, PiecewiseAffineMap):
        return m.branch_preimages(ys, room)
    branches, _, _ = m.monotone_partition()
    ends = m.evaluate_array(np.array(branches).ravel()).tolist()
    lo, hi, tgt, increasing = [], [], [], []
    for (a, b), fa, fb in zip(branches, ends[0::2], ends[1::2]):
        t = ys[(ys >= min(fa, fb)) & (ys <= max(fa, fb))]
        if t.size:
            lo.append(a)
            hi.append(b)
            tgt.append(t)
            increasing.append(fb > fa)
    if sum(t.size for t in tgt) > room:
        return None
    if not tgt:
        return np.empty(0)
    start_lo, start_hi, depth = polyalg._bisection_top(
        m.evaluate_array, lo, hi, tgt, increasing)
    x = polyalg._bisect(lambda x, lane: m.evaluate_array(x), start_lo,
                        start_hi, np.concatenate(tgt),
                        np.repeat(increasing, [t.size for t in tgt]),
                        52 - depth)
    return np.sort(x)


def _new_points(cur, prev):
    """The points of the sorted array cur that the sorted array prev lacks."""
    if not prev.size:
        return cur
    idx = np.minimum(prev.searchsorted(cur), prev.size - 1)
    return cur[prev[idx] != cur]


def _critical_pullbacks(m: IntervalMap, cap):
    """Level sets of the critical-point pullback: level 0 is crit(f) and
    level k + 1 is crit(f) together with the f-preimages of level k, i.e.
    the critical points of f^(k+1) (sorted, deduplicated from level 1 on).

    A preimage depends only on its target and branch (`_preimages`), so
    level k lies inside level k + 1 by induction, and level k + 1 is level k
    together with the preimages of the points level k added to level k - 1:
    only those new points are pulled back.  The walk holds just the current
    level and its new points; a level that adds none is every later level,
    so it is yielded again for each later period with no further solve.

    Lazy, and ended by a lane cap: a level is built only when it is asked
    for, and level k + 1 solves at most cap - |level k| lanes, which
    `_preimages` counts before it solves any; when there are more, the
    walk ends.  A lane adds at most one point, so no level k >= 1 holds
    more than cap points.  Where lanes collide (a lane gives a point that
    level k or another lane already has), the walk can end one level
    sooner than a point count would end it.
    """
    level = new = np.array(sorted(m.critical_points), dtype=float)
    while True:
        yield level
        if new.size:
            pre = _preimages(m, new, cap - level.size)
            if pre is None:
                return
            nxt = np.unique(np.concatenate([level, pre]))
            level, new = nxt, _new_points(nxt, level)


def min_branch_length_iterate(m: IntervalMap, eps, p_cap=32, point_cap=1 << 17):
    """Largest p <= p_cap with L(f^p) > eps, by critical-point pullback.

    Returns (p_eps, saturated); saturated means the cap was reached with the
    minimal branch length still above eps.  A pullback level the answer
    reads whose lanes overflow point_cap raises ResourceError, before any
    of them is solved; a level that adds no point ends the solves, and
    every later p reads it (`_critical_pullbacks`).
    """
    if not 0 < eps < 1:
        raise DomainError("need 0 < eps < 1")
    if not m.critical_points:
        return p_cap, True
    # level k holds crit(f^(k+1)); every level before it had L(f^p) > eps.
    # islice stops before level p_cap, which the answer never needs.
    k = -1
    for k, cur in enumerate(islice(_critical_pullbacks(m, point_cap),
                                   max(p_cap, 0))):
        pts = np.concatenate([[0.0], cur, [1.0]])
        if float(np.min(np.diff(np.unique(pts)))) <= eps:
            return k, False
    if k + 1 < p_cap:
        raise ResourceError(f"branch explosion beyond {point_cap} points")
    return p_cap, True


# ---------------------------------------------------------------------------
# snake construction
# ---------------------------------------------------------------------------

def _smoothstep7(u):
    """C^3 smoothstep on [0,1] (degree 7), with derivatives 0..3."""
    u = np.clip(u, 0.0, 1.0)
    s0 = ((( -20 * u + 70) * u - 84) * u + 35) * u ** 4
    s1 = ((( -140 * u + 420) * u - 420) * u + 140) * u ** 3
    s2 = ((( -840 * u + 2100) * u - 1680) * u + 420) * u ** 2
    s3 = ((( -4200 * u + 8400) * u - 5040) * u + 840) * u
    return s0, s1, s2, s3


def _chi(t, order=0):
    """Bump: 1 on [0,1], 0 outside (-1,2), C^3 ramps on [-1,0] and [1,2]."""
    t = _as_array(t)
    out = np.zeros_like(t)
    core = (t >= 0) & (t <= 1)
    if order == 0:
        out[core] = 1.0
    up = (t > -1) & (t < 0)
    dn = (t > 1) & (t < 2)
    if np.any(up):
        s = _smoothstep7(t[up] + 1.0)
        out[up] = s[order]
    if np.any(dn):
        s = _smoothstep7(2.0 - t[dn])
        out[dn] = s[order] * (-1.0) ** order
    return out


@dataclass(frozen=True)
class SnakeParams:
    """Derived parameters of the single-bump oscillation at scale eps."""
    eps: float
    a_eps: float          # rate value a(eps)
    lambda_u: float
    big_c: float
    P: float              # crossing time, -log(eps)/a(eps)
    N: int                # oscillation count, ceil(1/eps)
    M: float              # amplitude, eps * exp(-lambda_u * P)
    R: float              # offset, big_c * exp(-lambda_u * P)
    n: int                # window index: support [1/(4n+1), 1/(4n)]
    c: float
    d: float
    ell: float            # window width d - c


class SnakeMap(IntervalMap):
    """Single bump-window term chi(t) * (R + M cos(pi N t)), t=(x-c)/ell.

    The sinusoid phase is chosen so f - R has exactly N zero crossings
    inside the window [c, d]; the bump is a C^3 smoothstep, so k_max = 3.
    """

    smooth = True
    k_max = 3

    def __init__(self, params: SnakeParams):
        super().__init__()
        self.params = params
        self.name = f"snake:eps={params.eps:g}"

    def _t(self, xs):
        return (xs - self.params.c) / self.params.ell

    def _h(self, t, order=0):
        p = self.params
        w = math.pi * p.N
        if order == 0:
            return p.R + p.M * np.cos(w * t)
        return p.M * w ** order * np.cos(w * t + order * math.pi / 2)

    def _eval_array(self, xs):
        t = self._t(xs)
        return _chi(t) * self._h(t)

    def _sample_count(self, per_osc):
        """per_osc * N + 1 sample points, refused with ResourceError over
        _SNAKE_SAMPLE_CAP before any array is built."""
        n = per_osc * self.params.N + 1
        if n > _SNAKE_SAMPLE_CAP:
            raise ResourceError(
                f"snake at eps={self.params.eps:g}: {per_osc} * N + 1 samples "
                f"are over the cap {_SNAKE_SAMPLE_CAP}")
        return n

    def _leibniz(self, t, order):
        """d^order/dt^order of chi(t) * h(t), by the Leibniz rule."""
        binom = {1: (1, 1), 2: (1, 2, 1), 3: (1, 3, 3, 1)}[order]
        acc = np.zeros_like(t)
        for a, coef in enumerate(binom):
            acc += coef * _chi(t, order=a) * self._h(t, order=order - a)
        return acc

    def _deriv_array(self, xs, order):
        return self._leibniz(self._t(xs), order) / self.params.ell ** order

    def profile_derivative_sup(self, order):
        """sup over window units t of |d^r/dt^r f(c + ell*t)| on [-1, 2],
        sampled at 100 points per oscillation.

        Equals ell^r times the x-derivative sup; this is the scale-free
        size of the bump profile.
        """
        self._check_order(order)
        t = np.linspace(-1.0, 2.0, self._sample_count(3 * _SAMPLES_PER_OSC))
        return float(np.max(np.abs(self._leibniz(t, order))))

    def oscillation_count(self):
        """Sign changes of f - R on a 100*N grid over the window [c, d]."""
        p = self.params
        xs = np.linspace(p.c, p.d, self._sample_count(_SAMPLES_PER_OSC))
        v = self._eval_array(xs) - p.R
        s = np.sign(v)
        s = s[s != 0]
        return int(np.sum(s[:-1] * s[1:] < 0))


def build_snake(rate, eps, lambda_u, big_c=1.0):
    """Snake parameters and the single-term map at scale eps.

    rate: evaluable monotone function a(.) with a(eps) > 0.  An eps whose
    oscillation count N is over _SNAKE_SAMPLE_CAP, so that no sample of the
    map fits the cap, is refused (ResourceError) before any float arithmetic
    on eps, which overflows for a subnormal eps.
    """
    if not 0 < eps < 1:
        raise DomainError("need 0 < eps < 1")
    N = math.ceil(Fraction(1) / Fraction(eps))
    if N > _SNAKE_SAMPLE_CAP:
        raise ResourceError(f"snake at eps={eps:g}: ceil(1/eps) "
                            f"oscillations are over the cap {_SNAKE_SAMPLE_CAP}")
    a_eps = float(rate(eps))
    if not (a_eps > 0 and 0 < lambda_u < math.inf):
        raise ValueError("need a(eps) > 0 and a finite lambda_u > 0")
    if not (math.isfinite(big_c) and big_c > eps):
        raise ValueError("need a finite C > eps so that R > M")
    P = -math.log(eps) / a_eps
    M = eps * math.exp(-lambda_u * P)
    R = big_c * math.exp(-lambda_u * P)
    # window [1/(4n+1), 1/(4n)] whose width 1/(4n(4n+1)) is nearest eps
    n_star = max(1, round((-1 + math.sqrt(1 + 4.0 / eps)) / 8.0))
    best = min((abs(1.0 / (4 * n * (4 * n + 1)) - eps), n)
               for n in range(max(1, n_star - 2), n_star + 3))[1]
    c = 1.0 / (4 * best + 1)
    d = 1.0 / (4 * best)
    params = SnakeParams(eps=eps, a_eps=a_eps, lambda_u=lambda_u, big_c=big_c,
                         P=P, N=N, M=M, R=R, n=best, c=c, d=d, ell=d - c)
    return params, SnakeMap(params)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def quadratic_map(a=4.0):
    if not 0 < a <= 4:
        raise ValueError("quadratic parameter must be in (0, 4]")
    af = Fraction(a).limit_denominator(1 << 30)
    return PolynomialMap(polyalg.Polynomial([0, af, -af]), name=f"quadratic:{a:g}")


def tent_map():
    m = PiecewiseAffineMap([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    m.name = "tent"
    return m


def identity_map():
    return PolynomialMap([0, 1], name="identity")


_RATES = {
    "invsqrtlog": lambda e: 1.0 / math.sqrt(abs(math.log(e))),
    "invlog": lambda e: 1.0 / abs(math.log(e)),
}


def get_rate(spec):
    """Rate function by name: invsqrtlog, invlog, or pow:alpha."""
    if spec in _RATES:
        return _RATES[spec]
    m = re.fullmatch(r"pow:([0-9.eE+-]+)", spec)
    if m:
        alpha = float(m.group(1))
        return lambda e: e ** alpha
    raise KeyError(f"unknown rate spec {spec!r}")


def get_map(spec):
    """Map registry: tent | identity | quadratic:a | poly:[...] | snake:..."""
    if spec == "tent":
        return tent_map()
    if spec == "identity":
        return identity_map()
    if spec.startswith("quadratic:"):
        return quadratic_map(float(spec.split(":", 1)[1]))
    if spec.startswith("poly:"):
        body = spec[5:].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise KeyError(f"bad poly spec {spec!r}")
        coeffs = [Fraction(tok.strip()).limit_denominator(1 << 40)
                  for tok in body[1:-1].split(",") if tok.strip()]
        return PolynomialMap(coeffs, name=spec)
    if spec.startswith("snake:"):
        kv = dict(part.split("=", 1) for part in spec[6:].split(","))
        rate = get_rate(kv.get("rate", "invsqrtlog"))
        eps = float(kv["eps"])
        lam = float(kv.get("lambda", "1.0"))
        big_c = float(kv.get("C", "1.0"))
        _, m = build_snake(rate, eps, lam, big_c)
        return m
    raise KeyError(f"unknown map spec {spec!r}")
