"""Weight sequences (prospective derivative-norm bounds) and the closed-form
rate machinery: logarithmic convexity, the discrete inverse G of the
normalized log-weight, admissibility, and the tail-entropy rate bounds.

All weight arithmetic happens in log space: weights like k^(k^2) overflow
any float at small k, while their logs stay tame.  The algebraic-complexity
constant is the m^3 k^8 surrogate with constant 1 (honest-labeled: the true
constant of the chart-count bound is not computable from its proof), and
only applies to the one-dimensional reparametrizer; higher l needs a
caller-supplied bound.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

from .errors import DegenerateWeightError, DomainError, HypothesisUnmetError, ScaleError

__all__ = [
    "WeightSequence", "is_log_convex", "g_inverse", "is_admissible",
    "rate_bound_gen", "iterate_bound_main", "cr_bound_buzzi",
    "weight_from_rate", "surrogate_chart_bound", "parse_weight",
]


@dataclass(frozen=True)
class WeightSequence:
    """Weight (M_k) given through k -> log M_k.

    concave_hypothesis is the advisory check of `weight_from_rate` (is
    1/a(e^-x) concave?), None for weights not made from a rate."""
    log_m: object                 # callable int -> float
    name: str = "weight"
    log_convex: bool | None = None
    cache: dict = field(default_factory=dict, repr=False)  # k -> log M_k
    concave_hypothesis: bool | None = None

    def log_weight(self, k):
        if k < 0:
            raise DomainError("k must be >= 0")
        if k not in self.cache:
            self.cache[k] = float(self.log_m(k))
        return self.cache[k]

    @property
    def log_m0(self):
        return self.log_weight(0)

    def a(self, k):
        """a_k = log+ (M_k / M_0) / k, with a_0 = 0."""
        if k == 0:
            return 0.0
        return max(self.log_weight(k) - self.log_weight(0), 0.0) / k


def is_log_convex(w: WeightSequence, k_max=50, slack=1e-12):
    """2 log M_k <= log M_{k+1} + log M_{k-1} for 1 <= k <= k_max."""
    if k_max < 2:
        raise DomainError("k_max must be >= 2")
    return all(
        2 * w.log_weight(k) <= w.log_weight(k + 1) + w.log_weight(k - 1) + slack
        for k in range(1, k_max + 1))


def g_inverse(w: WeightSequence, x, cap=10 ** 6):
    """G(x) = sup { l <= cap : a_l <= x }.

    Binary search when the weight is flagged log-convex (a nondecreasing),
    linear scan otherwise.  If a stays below x all the way to the cap the
    unboundedness of (a_k) cannot be certified and the weight is rejected.
    """
    if x < 0:
        raise DomainError("x must be >= 0")
    if w.a(cap) <= x:
        raise DegenerateWeightError(
            f"a_k <= {x:g} up to the search cap {cap}: weight not "
            "certifiably superexponential")
    if w.log_convex:
        lo, hi = 0, cap  # a(lo) <= x < a(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if w.a(mid) <= x:
                lo = mid
            else:
                hi = mid
        return lo
    best = 0
    for l in range(1, cap + 1):
        if w.a(l) <= x:
            best = l
    return best


def surrogate_chart_bound(k, l, m):
    """Default surrogate for the chart-count constant: m^3 k^8 (l = 1 only)."""
    if l != 1:
        raise DomainError("no proved chart-count bound for l >= 2; "
                          "supply c_bound explicitly")
    return m ** 3 * k ** 8


def is_admissible(w: WeightSequence, l, m, d, c_bound=None, k_max=50):
    """(l, m, D)-admissibility: M_0 >= e and for all 1 <= k <= k_max,

        log(M_k/M_0)/k >= log k + 2k log(2^(2m+l) C_{k,l,m} k^(2l)) / (D l).
    """
    if d <= 0:
        raise DomainError("D must be positive")
    c_bound = c_bound or surrogate_chart_bound
    if w.log_m0 < 1.0 - 1e-12:  # log M_0 >= 1 means M_0 >= e
        return False
    for k in range(1, k_max + 1):
        lhs = (w.log_weight(k) - w.log_weight(0)) / k
        inner = (2 * m + l) * math.log(2) + math.log(c_bound(k, l, m)) \
            + 2 * l * math.log(k)
        rhs = math.log(k) + 2 * k * inner / (d * l)
        if lhs < rhs - 1e-12:
            return False
    return True


def rate_bound_gen(w: WeightSequence, l, m, d, eps, variant="volume",
                   cap=10 ** 6):
    """Rate bound (2D+1) * l * log M_0 / G(|log eps|/2).

    variant="tail" uses m in place of l.  Admissibility of the weight is the
    caller's obligation (checked separately by is_admissible).
    """
    if not 0 < eps < 1:
        raise ScaleError("need 0 < eps < 1")
    g = g_inverse(w, abs(math.log(eps)) / 2.0, cap=cap)
    if g == 0:
        raise ScaleError("scale too large: G(|log eps|/2) = 0")
    factor = l if variant == "volume" else m
    return (2 * d + 1) * factor * w.log_m0 / g


def iterate_bound_main(norm_dfp, r, l, m, bell=None, c_bound=None):
    """(l/r)(log+ |Df^p| + 2 log B_r) + log(2^(l+2m) C_{r,l,m})."""
    from .combinatorics import BellTable

    if r < 2:
        raise DomainError("r must be >= 2")
    c_bound = c_bound or surrogate_chart_bound
    bell = bell or BellTable(max(r, 2))
    log_br = math.log(bell.bell_number(r))
    log_c = (l + 2 * m) * math.log(2) + math.log(c_bound(r, l, m))
    return (l / r) * (max(math.log(norm_dfp), 0.0) + 2 * log_br) + log_c


def cr_bound_buzzi(big_r, r, dim):
    """dim(M) * R(f) / r."""
    if r < 1 or big_r < 0:
        raise DomainError("need r >= 1 and R >= 0")
    return dim * big_r / r


def _check_monotone(f, grid, what):
    vals = [f(t) for t in grid]
    if any(a > b + 1e-12 for a, b in zip(vals, vals[1:])):
        raise DomainError(f"{what} must be nondecreasing")
    return vals


def weight_from_rate(a, log_dt, k_max=200, big_b=1.0, big_d=1.0,
                     concavity_grid=None):
    """Weight M_k = M_0 (1 / a^{-1}(log|DT| / k))^k with M_0 = |DT|.

    a is a nondecreasing rate function vanishing at 0; a^{-1} is computed by
    bisection.  Also returns the companion weight (2 B D k)^(7k) M_k^2/M_0.
    The textbook hypothesis asks 1/a(e^-x) to be concave; that check is
    advisory here (it fails for the canonical power rates), and the binding
    requirement is log-convexity of the produced weight, which raises
    HypothesisUnmetError when violated.
    """
    if log_dt <= 0:
        raise DomainError("log|DT| must be positive")
    grid = concavity_grid or [10.0 ** (-j) for j in range(9, 0, -1)]
    _check_monotone(a, grid, "rate function")

    def concave_side():
        xs = [0.5 * j for j in range(1, 40)]
        vals = [1.0 / a(math.exp(-x)) for x in xs]
        return all(vals[i + 1] - vals[i] <= vals[i] - vals[i - 1] + 1e-9
                   for i in range(1, len(vals) - 1))

    def a_inv(y):
        """sup { t in (0,1) : a(t) <= y } by bisection on the monotone a."""
        lo, hi = 1e-300, 1.0 - 1e-16
        if a(hi) <= y:
            return hi
        if a(lo) > y:
            return lo
        for _ in range(200):
            mid = math.sqrt(lo * hi)  # geometric: a spans many decades
            if a(mid) <= y:
                lo = mid
            else:
                hi = mid
        return lo

    log_m0 = log_dt  # M_0 = |DT|

    def log_m(k):
        if k == 0:
            return log_m0
        return log_m0 + k * math.log(1.0 / a_inv(log_dt / k))

    w = WeightSequence(log_m=log_m, name="fromrate", log_convex=True)
    if not is_log_convex(w, k_max=min(k_max, 120)):
        raise HypothesisUnmetError(
            "produced weight is not logarithmically convex")
    # the same log_m and log cache, with the advisory flag set
    w = replace(w, concave_hypothesis=concave_side())
    companion_name = "fromrate-companion"

    def log_m_tilde(k):
        if k == 0:
            return w.log_weight(0)
        return 7 * k * math.log(2 * big_b * big_d * k) \
            + 2 * w.log_weight(k) - w.log_weight(0)

    companion = WeightSequence(log_m=log_m_tilde, name=companion_name,
                               log_convex=True)
    return w, companion


_NAMED = {
    "kpow2": ("e*k^(k^2)", lambda k: 1.0 + (k * k * math.log(k) if k else 0.0)),
    "analytic": ("k^k", lambda k: k * math.log(k) if k else 0.0),
}


def parse_weight(spec):
    """Weight spec strings: kpow2 | analytic | const:M0 | fromrate:a=...,logDT=..."""
    if spec in _NAMED:
        name, fn = _NAMED[spec]
        return WeightSequence(log_m=fn, name=spec, log_convex=True)
    m = re.fullmatch(r"const:([0-9.eE+-]+)", spec)
    if m:
        m0 = float(m.group(1))
        if m0 < 1:
            raise ValueError("M0 must be >= 1")
        return WeightSequence(log_m=lambda k: math.log(m0), name=spec,
                              log_convex=True)
    m = re.fullmatch(r"fromrate:a=([^,]+),logDT=([0-9.eE+-]+)", spec)
    if m:
        from .maps import get_rate
        w, _ = weight_from_rate(get_rate(m.group(1)), float(m.group(2)))
        return w
    raise KeyError(f"unknown weight spec {spec!r}")
