"""Exact univariate polynomial arithmetic and the constructive one-dimensional
reparametrization of polynomial preimages of the unit cube.

The reparametrizer follows a three-step pipeline:

1. subdivide [0,1] at the zeros of P_j, P_j - 1, P_i' +/- P_j', P_j' -/+ 1 and
   keep the components mapped into [0,1] by every P_j; each kept component
   receives an affine chart (when max_j |P_j'| <= 1 there) or the inverse
   branch of the dominating polynomial (when >= 1),
2. subdivide each chart domain so the derivatives of order 2..r+1 of every
   P_j composed with the chart keep a constant sign,
3. compose with the endpoint-flattening polynomial Q_r and split its domain
   into n3 = c*r^4 + 1 equal pieces, doubling c until the sampled C^r norms
   drop below 1 + tolerance.

A Polynomial stores integer numerators over one positive denominator and
its arithmetic, exact evaluation and affine composition run on integers;
Fractions appear only where the API returns them (`coeffs`, `eval_exact`),
and the float coefficients are int/int quotients, correctly rounded.  Root
isolation is exact: the primitive part of the numerators, Descartes/VCA
sign-variation bisection on the square-free part, dyadic refinement to 1e-13,
floats only at the very end.  Norm certificates are sampled (4096 points per
chart group) and reported as "sampled", never as proved bounds.

Step 3 dominates the cost.  Its work is shared where the inputs repeat: one
partial Bell table for the Q_r-derivative samples per atlas and one for each
piece's phi chain (shared by the m compositions), one family of inverse
cofactors per inverting polynomial (shared with step 2), and inside each
inverse-branch solve the top of the bisection tree, common to all lanes.
Every shortcut keeps the float operations of the plain per-call code, so the
atlas is the same bit for bit.  The atlas keeps what step 3 decides (each
group's n3 and sampled norms); no chart-image boundary is ever solved, since
the chart images of a group tile its base interval and `verify_atlas` reads
coverage from the group intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import zip_longest

import numpy as np

from .combinatorics import BellTable
from .errors import PrecisionError, ResourceError

__all__ = [
    "Polynomial", "isolate_roots", "q_polynomial", "q_derivative_factorization",
    "Atlas", "reparametrize_1d", "verify_atlas",
]

_ROOT_TOL = 1e-13     # width of a refined root interval; closer roots merge
_VCA_MAX_DEPTH = 80   # deepest dyadic split before a root cluster is refused
_N_SAMPLES = 4096     # Q_r-domain samples of every chart group's norms
_NORM_TOL = 1e-6      # step 3 certifies the sampled C^r norms below 1 + this
_N3_C_CAP = 1 << 20   # largest c of n3 = c*r^4 + 1 before step 3 gives up
_COVER_SLACK = 1e-9   # verify_atlas: distance to a group interval that covers


# ---------------------------------------------------------------------------
# exact polynomials
# ---------------------------------------------------------------------------

def _numerators(values, den):
    """Numerators over den of Fractions whose denominators divide den."""
    return [x.numerator * (den // x.denominator) for x in values]


class Polynomial:
    """Univariate polynomial with exact rational coefficients (ascending).

    Stored as integer numerators over one positive denominator: coefficient
    i is nums[i] / den, with no trailing zero and gcd(den, *nums) = 1, so
    equal polynomials have equal (nums, den).  Every operation works on the
    integers and normalizes its result once; `coeffs` builds the Fractions
    on request.
    """

    __slots__ = ("nums", "den", "_fcoeffs")

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set(_numerators(cs, den), den)

    def _set(self, nums, den):
        while nums and nums[-1] == 0:
            nums.pop()
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [n // g for n in nums], den // g
        self.nums, self.den, self._fcoeffs = tuple(nums), den, None

    @classmethod
    def _over(cls, nums, den):
        """The polynomial with coefficients nums[i] / den (den > 0)."""
        p = cls.__new__(cls)
        p._set(nums, den)
        return p

    # -- basic structure ----------------------------------------------------
    @property
    def coeffs(self):
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self):
        return len(self.nums) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.nums

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial([other])
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return Polynomial._over(
            [x * sa + y * sb for x, y in zip_longest(self.nums, other.nums,
                                                     fillvalue=0)], den)

    def __neg__(self):
        return Polynomial._over([-n for n in self.nums], self.den)

    def __sub__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial([other])
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            return Polynomial._over([n * c.numerator for n in self.nums],
                                    self.den * c.denominator)
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a == 0:
                continue
            for j, b in enumerate(other.nums):
                out[i + j] += a * b
        return Polynomial._over(out, self.den * other.den)

    __rmul__ = __mul__

    def diff(self, order=1):
        nums = self.nums
        for _ in range(order):
            nums = [i * n for i, n in enumerate(nums)][1:]
        return Polynomial._over(list(nums), self.den)

    def compose_affine(self, a, b):
        """p(a + b*X) exactly.  With a = alpha/d and b = beta/d, Horner's
        rule in integers gives den * d^deg * p(a + b*X) =
        sum_i nums[i] d^(deg - i) (alpha + beta X)^i."""
        if not self.nums:
            return Polynomial([])
        a, b = Fraction(a), Fraction(b)
        d = math.lcm(a.denominator, b.denominator)
        alpha, beta = _numerators((a, b), d)
        out, dpow = [], 1
        for n in reversed(self.nums):
            nxt = [c * alpha for c in out] + [0]
            for k, c in enumerate(out):
                nxt[k + 1] += c * beta
            nxt[0] += n * dpow
            out, dpow = nxt, dpow * d
        return Polynomial._over(out, self.den * dpow // d)

    # -- evaluation ----------------------------------------------------------
    def eval_exact(self, x):
        """p(x) for a rational x = num/q: Horner's rule in integers on
        q^deg * den * p(x), and one Fraction."""
        if not self.nums:
            return Fraction(0)
        x = Fraction(x)
        num, q = x.numerator, x.denominator
        acc, qpow = self.nums[-1], 1
        for n in self.nums[-2::-1]:
            qpow *= q
            acc = acc * num + n * qpow
        return Fraction(acc, self.den * qpow)

    def float_coeffs(self):
        """nums[i] / den as floats: int/int true division is correctly
        rounded, so each equals float(coeffs[i])."""
        if self._fcoeffs is None:
            self._fcoeffs = np.array([n / self.den for n in self.nums],
                                     dtype=float)
        return self._fcoeffs

    def __call__(self, x):
        """Float evaluation, scalar or numpy array (through `_horner`)."""
        cs = self.float_coeffs()
        if cs.size < 2:
            c = cs[0] if cs.size else np.float64(0.0)
            return np.zeros_like(np.asarray(x, dtype=float)) + c if np.ndim(x) else c
        return _horner(cs, np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# exact root isolation (Descartes / VCA over integers)
# ---------------------------------------------------------------------------

def _int_coeffs(p: Polynomial):
    """Primitive integer coefficient list (ascending), sign preserved: the
    numerators of p over their content."""
    g = math.gcd(*p.nums)
    return [n // g for n in p.nums]


def _sign_variations(cs):
    v, prev = 0, 0
    for c in cs:
        if c == 0:
            continue
        s = 1 if c > 0 else -1
        if prev and s != prev:
            v += 1
        prev = s
    return v


def _taylor_shift_1(cs):
    """Coefficients of p(x+1) from those of p(x), in place Pascal style."""
    cs = list(cs)
    n = len(cs)
    for k in range(n - 1):
        for j in range(n - 2, k - 1, -1):
            cs[j] += cs[j + 1]
    return cs


def _descartes_01(cs):
    """Sign variations bounding the number of roots of p in (0, 1)."""
    rev = list(reversed(cs))  # p(1/(1+x)) * (1+x)^d has these in y = x+1
    return _sign_variations(_taylor_shift_1(rev))


def _poly_int_eval(cs, num, den_pow):
    """Sign of p(num / 2^den_pow) for integer coefficients, exactly."""
    two = 1 << den_pow
    acc = 0
    scale = 1
    for c in reversed(cs):
        acc = acc * num + c * scale
        scale *= two
    return (acc > 0) - (acc < 0)


def _int_poly_squarefree(cs):
    """Square-free part of an integer polynomial via primitive PRS gcd."""
    def content(v):
        g = 0
        for c in v:
            g = math.gcd(g, c)
        return g or 1

    def primitive(v):
        g = content(v)
        return [c // g for c in v]

    def pdiv_rem(a, b):
        # pseudo-remainder of a by b
        a = list(a)
        db, lb = len(b) - 1, b[-1]
        while len(a) - 1 >= db and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            shift = len(a) - 1 - db
            la = a[-1]
            a = [c * lb for c in a]
            for i, bc in enumerate(b):
                a[shift + i] -= la * bc
            while a and a[-1] == 0:
                a.pop()
        return a

    d = [i * c for i, c in enumerate(cs)][1:]
    a, b = primitive(cs), primitive(d)
    while b and any(b):
        r = pdiv_rem(a, b)
        if not r or not any(r):
            break
        a, b = b, primitive(r)
    else:
        return list(cs)  # gcd with derivative is a constant
    g = b if (b and any(b)) else a
    if len(g) <= 1:
        return list(cs)
    # exact division cs / g over the rationals
    q = _poly_div_exact(cs, g)
    return primitive(q)


def _poly_div_exact(a, b):
    """Exact quotient of integer polynomials (a divisible by b up to content),
    as the numerators of the rational quotient over their least common
    denominator.

    Long division in integers: before a step whose leading remainder
    coefficient top is not divisible by lb = b[-1], the remainder and the
    quotient so far are multiplied by m = |lb| / gcd(top, lb).  The new
    quotient entry top * m / lb is prime to m, so the quotient stays in
    lowest terms over the product of the m's.
    """
    lb = b[-1]
    rem, out = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(out) - 1, -1, -1):
        top = rem[shift + len(b) - 1]
        if top == 0:
            continue
        m = abs(lb) // math.gcd(top, lb)
        if m != 1:
            rem, out = [c * m for c in rem], [c * m for c in out]
        f = top * m // lb
        out[shift] = f
        for i, bc in enumerate(b):
            rem[shift + i] -= f * bc
    return out


def _synthetic_div_at_1(cs):
    """Exact quotient of p by (x - 1) when p(1) = 0, ascending coefficients."""
    n = len(cs) - 1
    q = [0] * n
    q[n - 1] = cs[n]
    for i in range(n - 1, 0, -1):
        q[i - 1] = cs[i] + q[i]
    return q


def _vca_isolate(cs):
    """Isolating dyadic intervals for the roots of p in (0, 1).

    Returns a list of (lo_num, hi_num, depth) with the interval
    (lo_num/2^depth, hi_num/2^depth), each containing exactly one root,
    plus a list of exact dyadic roots (num, depth).
    """
    exact, intervals = [], []
    stack = [(list(cs), 0, 0)]  # poly on (a, a+1)/2^depth in local coords
    while stack:
        p, a, depth = stack.pop()
        v = _descartes_01(p)
        if v == 0:
            continue
        if v == 1:
            intervals.append((a, a + 1, depth))
            continue
        if depth >= _VCA_MAX_DEPTH:
            raise PrecisionError(
                f"root cluster not separated at depth {_VCA_MAX_DEPTH}; "
                f"offending polynomial of degree {len(cs) - 1}")
        n = len(p) - 1
        # p_L(x) = 2^n p(x/2), p_R(x) = p_L(x+1)
        pl = [c << (n - i) for i, c in enumerate(p)]
        if sum(pl) == 0:  # p_L(1) = 2^n p(1/2) = 0: exact dyadic root
            exact.append((2 * a + 1, depth + 1))
            pl = _synthetic_div_at_1(pl)
        pr = _taylor_shift_1(pl)
        stack.append((pl, 2 * a, depth + 1))
        stack.append((pr, 2 * a + 1, depth + 1))
    return intervals, exact


def _refine_bisect(cs, lo_num, hi_num, depth):
    """Shrink an isolating dyadic interval below _ROOT_TOL by exact sign
    bisection."""
    s_lo = _poly_int_eval(cs, lo_num, depth)
    s_hi = _poly_int_eval(cs, hi_num, depth)
    if s_lo == 0:
        return lo_num / (1 << depth)
    if s_hi == 0:
        return hi_num / (1 << depth)
    if s_lo == s_hi:
        # single root strictly inside with equal endpoint signs cannot happen
        # for a square-free isolating interval
        raise PrecisionError("isolating interval lost its sign change")
    while (hi_num - lo_num) / (1 << depth) > _ROOT_TOL:
        lo_num, hi_num, depth = 2 * lo_num, 2 * hi_num, depth + 1
        mid = (lo_num + hi_num) // 2
        s_mid = _poly_int_eval(cs, mid, depth)
        if s_mid == 0:
            return mid / (1 << depth)
        if s_mid == s_lo:
            lo_num = mid
        else:
            hi_num = mid
    return (lo_num + hi_num) / 2 / (1 << depth)


def isolate_roots(p: Polynomial, hi=1):
    """Distinct real roots of p in [0, hi], refined to width _ROOT_TOL.

    Exact sign-variation bisection on the square-free part over the
    rationals; the returned floats are dyadic approximations.
    """
    if p.is_zero():
        return []
    hi_f = Fraction(hi)
    if hi_f <= 0 or p.degree == 0:
        return []
    # map [0, hi] to [0, 1]; on [0, 1] itself that map is the identity
    q = p if hi_f == 1 else p.compose_affine(0, hi_f)
    cs = _int_coeffs(q)
    roots = []
    while cs and cs[0] == 0:          # deflate roots at 0
        if 0.0 not in roots:
            roots.append(0.0)
        cs = cs[1:]
    while len(cs) > 1 and sum(cs) == 0:  # deflate roots at 1
        if 1.0 not in roots:
            roots.append(1.0)
        cs = _synthetic_div_at_1(cs)
    width = float(hi_f)
    if len(cs) <= 1:
        return sorted(r * width for r in roots)
    try:
        intervals, exact = _vca_isolate(cs)
    except PrecisionError:
        sq = _int_poly_squarefree(cs)
        intervals, exact = _vca_isolate(sq)
        cs = sq
    for num, depth in exact:
        roots.append(num / (1 << depth))
    for lo_num, hi_num, depth in intervals:
        roots.append(_refine_bisect(cs, lo_num, hi_num, depth))
    out = sorted(r * width for r in roots)
    dedup = []
    for r in out:
        if not dedup or r - dedup[-1] > _ROOT_TOL:
            dedup.append(r)
    return dedup


# ---------------------------------------------------------------------------
# Q_r and the derivative cofactor family
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def q_polynomial(r):
    """The degree 2r-1 polynomial with Q(0)=0, Q(1)=1 flat to order r-1.

    Q_r' = b_r X^{r-1} (1-X)^{r-1} with b_r = (2r-1)!/((r-1)!)^2; returns
    (Q_r, b_r) with exact rational coefficients.
    """
    r = int(r)
    if r < 1:
        raise ValueError("r must be >= 1")
    if r > 25:
        raise ResourceError("q_polynomial capped at r = 25")
    b_r = math.factorial(2 * r - 1) // math.factorial(r - 1) ** 2
    coeffs = [0] * (2 * r)
    for j in range(r):
        c = Fraction(b_r * math.comb(r - 1, j) * (-1) ** j, r + j)
        coeffs[r + j] = c
    return Polynomial(coeffs), b_r


@lru_cache(maxsize=512)
def q_derivative_factorization(r, i):
    """Cofactor polynomial R_i with R_0 = 1, R_{i+1} = (r-i) S' R_i + S R_i'.

    S(X) = X(1-X).  Degree of R_i is i.
    """
    r, i = int(r), int(i)
    if not 0 <= i <= r - 1:
        raise ValueError("need 0 <= i <= r-1")
    if i == 0:
        return Polynomial([1])
    prev = q_derivative_factorization(r, i - 1)
    s = Polynomial([0, 1, -1])
    s_prime = Polynomial([1, -2])
    return (r - (i - 1)) * s_prime * prev + s * prev.diff()


# ---------------------------------------------------------------------------
# charts and atlases
# ---------------------------------------------------------------------------

@dataclass
class _Group:
    """A step-2 piece: one base chart plus its step-3 subdivision count."""
    kind: str          # "affine" or "inverse-branch"
    inv_index: int     # index of the inverting polynomial, -1 for affine
    x_lo: Fraction     # base interval of phi in x
    x_hi: Fraction
    n3: int            # equal step-3 pieces of the Q_r domain
    norm_phi: float    # sampled, group-certified bound on ||phi||_r
    norm_comp: float   # sampled max_j ||P_j o phi||_r


@dataclass
class Atlas:
    """Charts covering the preimage of [0,1]^m under an m-vector of polys:
    chart q < n3 of a group is t -> phi(Q_r((q + t) / n3)), t in [0, 1]."""
    polys: list
    r: int
    m: int
    step1_count: int
    step2_count: int
    chart_count: int
    groups: list

    def max_norm_phi(self):
        return max((g.norm_phi for g in self.groups), default=0.0)

    def max_norm_comp(self):
        return max((g.norm_comp for g in self.groups), default=0.0)


def _inverse_cofactors(p: Polynomial, r):
    """B_1..B_r with (P^{-1}(P(a)+q D))^{(k)} = D^k B_k(u) / P'(u)^{2k-1}:
    the composition numerators of the identity, whose derivative is 1."""
    return _composition_numerators(Polynomial([0, 1]), p, r - 1)


def _composition_numerators(p_j: Polynomial, p_i: Polynomial, r):
    """A_1..A_{r+1} with (P_j o phi)^{(k)} = D^k A_k(u) / P_i'(u)^{2k-1}."""
    out = [p_j.diff()]
    dp, ddp = p_i.diff(), p_i.diff(2)
    for k in range(1, r + 1):
        ak = out[-1]
        out.append(ak.diff() * dp - (2 * k - 1) * ak * ddp)
    return out


def _horner(cs, x):
    """Float value at the float array x of the polynomial with float
    coefficients cs (ascending, degree >= 1) by Horner's rule, in place:
    v = cs[-1] * x + cs[-2], then v = v * x + c for the rest."""
    v = x * cs[-1]
    v += cs[-2]
    for c in cs[-3::-1]:
        v *= x
        v += c
    return v


def _bisect(evaluate, lo, hi, target, increasing, steps):
    """Solve evaluate(x) = target in every lane by `steps` midpoint halvings.

    Lane j goes right (lo = mid = 0.5 * (lo + hi)) where evaluate(mid, lane)
    lies before target[j] (below it if the lane is increasing, above it if
    not), else left, and returns the midpoint of its last bracket.  `lane`
    holds the indices of the running lanes, for per-lane data; `increasing`
    is one bool or one per lane, and a scalar target serves every lane.

    A lane whose bracket did not move is final, so it is written out and
    dropped; no bracket stops moving while wider than four ulps of its
    endpoints, so that test starts once the narrowest bracket could be.
    The bits are those of all lanes running all steps.
    """
    out = np.empty_like(lo)
    if not lo.size:
        return out
    target = np.full_like(lo, target) if np.ndim(target) == 0 else target
    if np.ndim(increasing):     # compare sign * v with sign * target, exact
        sign, before = np.where(increasing, 1.0, -1.0), np.less
        target = sign * target
    else:
        sign, before = None, np.less if increasing else np.greater
    width = float(np.min(hi - lo))
    top = max(float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    settle_from = int(math.log2(width / (4 * math.ulp(top)))) if width > 0 else 0
    lane = np.arange(lo.size)
    for step in range(steps):
        mid = 0.5 * (lo + hi)
        v = evaluate(mid, lane)
        go_right = before(v if sign is None else sign * v, target)
        settled = np.where(go_right, lo, hi) == mid if step >= settle_from else None
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
        if settled is not None and settled.any():
            out[lane[settled]] = 0.5 * (lo[settled] + hi[settled])
            keep = ~settled
            lane, lo, hi, target = lane[keep], lo[keep], hi[keep], target[keep]
            if sign is not None:
                sign = sign[keep]
            if not lane.size:
                return out
    out[lane] = 0.5 * (lo + hi)
    return out


def _bisection_top(cs, a, b, depth):
    """The first `depth` levels of the bisection tree of [a, b].

    Returns the polynomial's values at the 2^depth - 1 midpoints, in x
    order, and the (lo, hi) brackets of the 2^depth leaves.  The midpoints
    are computed as the lanes of `_u_of_q` compute them: each level halves
    every bracket of the sorted boundary array [a, midpoints..., b], whose
    neighbouring entries are the brackets."""
    bounds = np.array([a, b])
    for _ in range(depth):
        finer = np.empty(2 * bounds.size - 1)
        finer[0::2] = bounds
        finer[1::2] = 0.5 * (bounds[:-1] + bounds[1:])
        bounds = finer
    return _horner(cs, bounds[1:-1]), bounds[:-1], bounds[1:]


def _u_of_q(p, a, b, qv):
    """Invert p on [a, b] at p(a) + qv*(p(b)-p(a)) by bisection.

    Each lane (one entry of qv) runs 60 halvings of [a, b] in `_bisect`,
    with p evaluated by Horner's rule in place (`_horner`).  The first
    `depth` levels, with 2^depth <= lanes, are the same tree of midpoints
    for every lane.  p is evaluated there once; when those values are
    monotone in x, the midpoints where a lane goes right are a prefix, so
    one binary search of the target places every lane at its leaf and
    `_bisect` runs the remaining 60 - depth halvings.  Otherwise all lanes
    start from [a, b].  The bits are those of 60 plain halvings.
    """
    pa, pb = p.eval_exact(a), p.eval_exact(b)
    target = float(pa) + qv * (float(pb) - float(pa))
    fa, fb = float(a), float(b)
    increasing = pb > pa
    cs = p.float_coeffs()
    depth = max(qv.size.bit_length() - 1, 0)
    vals, leaf_lo, leaf_hi = _bisection_top(cs, fa, fb, depth)
    key, tkey = (vals, target) if increasing else (-vals, -target)
    if np.all(key[1:] >= key[:-1]):
        leaf = np.searchsorted(key, tkey, side="left")
        lo, hi, first = leaf_lo[leaf], leaf_hi[leaf], depth
    else:
        lo, hi, first = np.full_like(qv, fa), np.full_like(qv, fb), 0
    return _bisect(lambda x, lane: _horner(cs, x), lo, hi, target,
                   increasing, 60 - first)


class _GroupBuilder:
    """Sampling machinery shared by every step-2 piece of one atlas.

    What does not depend on the piece is computed once here: the Q_r samples
    and their derivatives, the derivatives of every P_j, and the partial Bell
    table of the Q_r-derivative samples, which is the inner sequence of every
    inverse-branch composition phi o Q_r.  The inverse cofactors of each
    inverting P_i come from the caller, which shares them with step 2.
    """

    def __init__(self, polys, r, inverse_cofactors):
        self.polys = polys
        self.r = r
        self.bell = BellTable(r)
        q_poly, _ = q_polynomial(r)
        tau = np.linspace(0.0, 1.0, _N_SAMPLES)
        self.q_vals = q_poly(tau)
        self.qd_vals = [q_poly.diff(k)(tau) for k in range(1, r + 1)]
        self.inverse_cofactors = inverse_cofactors
        self.p_derivs = [[p.diff(k) for k in range(1, r + 1)] for p in polys]

    @cached_property
    def qd_bells(self):
        return self.bell.partial_bells(self.qd_vals)

    def chain_derivatives(self, kind, inv_index, a, b):
        """Derivative samples of phi o Q_r and of every P_j o phi o Q_r.

        Returns (phi_chain, comp_chains) as lists of arrays, orders 1..r.
        The partial Bell table of phi_chain is built once and shared by the
        m compositions.
        """
        r = self.r
        if kind == "affine":
            width = float(b - a)
            u = float(a) + self.q_vals * width
            phi_chain = [width * d for d in self.qd_vals]
        else:
            i = inv_index
            p_i = self.polys[i]
            u = _u_of_q(p_i, a, b, self.q_vals)
            dpi = self.p_derivs[i][0](u)
            delta = float(p_i.eval_exact(b) - p_i.eval_exact(a))
            cof = self.inverse_cofactors(i)
            phi_chain = self.bell.faa_di_bruno(
                [delta ** k * cof[k - 1](u) / dpi ** (2 * k - 1)
                 for k in range(1, r + 1)], self.qd_vals, self.qd_bells)
        phi_bells = self.bell.partial_bells(phi_chain)
        comp_chains = []
        for j in range(len(self.polys)):
            outer = [d(u) for d in self.p_derivs[j]]
            comp_chains.append(self.bell.faa_di_bruno(outer, phi_chain,
                                                      phi_bells))
        return phi_chain, comp_chains

    def build_group(self, kind, inv_index, a, b):
        """The step-3 group of one step-2 piece: subdivision count and
        sampled norms.  Only the per-order sample sups of the chains are
        kept, so a piece's samples are freed before the next piece's are
        built."""
        r = self.r
        phi_chain, comp_chains = self.chain_derivatives(kind, inv_index, a, b)
        sups = [[float(np.max(np.abs(d))) for d in chain]
                for chain in [phi_chain, *comp_chains]]
        del phi_chain, comp_chains
        maxima = [(k, max(sup[k - 1] for sup in sups)) for k in range(1, r + 1)]
        n3 = _choose_n3(r, maxima)
        # certified (sampled) norms of the final charts
        lens = 1.0 / n3
        norm_phi = max(sups[0][k - 1] * lens ** k for k in range(1, r + 1))
        norm_comp = max(sup[k - 1] * lens ** k
                        for sup in sups[1:] for k in range(1, r + 1))
        return _Group(kind, inv_index, a, b, n3, norm_phi, norm_comp)


def _choose_n3(r, maxima):
    """Smallest n3 from {1, c*r^4+1 : c doubling} with
    len^k * D_k <= 1 + _NORM_TOL."""
    def ok(n3):
        return all(max_k / float(n3) ** k <= 1.0 + _NORM_TOL
                   for k, max_k in maxima)

    if ok(1):
        return 1
    c = 1
    while c <= _N3_C_CAP:
        n3 = c * r ** 4 + 1
        if ok(n3):
            return n3
        c *= 2
    raise PrecisionError("step-3 subdivision did not certify the norms")


def reparametrize_1d(polys, r):
    """Atlas of C^r-bounded charts covering the preimage of [0,1]^m.

    polys: list of Polynomial (degree <= r each); r: smoothness order.
    """
    polys = [p if isinstance(p, Polynomial) else Polynomial(p) for p in polys]
    r = int(r)
    if r < 1:
        raise ValueError("r must be >= 1")
    for p in polys:
        if p.degree > r:
            raise ValueError(f"degree {p.degree} exceeds r = {r}")
    m = len(polys)
    if m < 1:
        raise ValueError("need at least one polynomial")

    # ---- step 1: boundary roots and component classification
    cuts = {0.0, 1.0}
    boundary = []
    for p in polys:
        boundary.append(p)
        boundary.append(p - Polynomial([1]))
    derivs = [p.diff() for p in polys]
    for i in range(m):
        for j in range(i + 1, m):
            boundary.append(derivs[i] - derivs[j])
            boundary.append(derivs[i] + derivs[j])
    for d in derivs:
        boundary.append(d - Polynomial([1]))
        boundary.append(d + Polynomial([1]))
    for b in boundary:
        if b.is_zero():
            continue
        cuts.update(isolate_roots(b))
    pts = sorted(cuts)

    kept = []  # (lo, hi, kind, inv_index) with Fraction endpoints
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi - lo <= 2e-12:
            continue
        lo_f, hi_f = Fraction(lo), Fraction(hi)
        mid = (lo_f + hi_f) / 2
        vals = [p.eval_exact(mid) for p in polys]
        if not all(0 <= v <= 1 for v in vals):
            continue
        dvals = [abs(d.eval_exact(mid)) for d in derivs]
        i_star = max(range(m), key=lambda i: (dvals[i], -i))
        if dvals[i_star] <= 1:
            kept.append((lo_f, hi_f, "affine", -1))
        else:
            kept.append((lo_f, hi_f, "inverse-branch", i_star))
    step1_count = len(kept)

    # ---- step 2: constant-sign subdivision
    @lru_cache(maxsize=None)
    def affine_cut_roots(j):
        acc = []
        for k in range(2, r + 2):
            dk = polys[j].diff(k)
            if not dk.is_zero() and dk.degree >= 1:
                acc.extend(isolate_roots(dk))
                # degree-0 derivatives have constant sign already
        return acc

    @lru_cache(maxsize=None)
    def inverse_cofactors(i):
        """B_1..B_{r+1} of P_i: step 2 cuts at the roots of B_2..B_{r+1},
        step 3 evaluates B_1..B_r."""
        return _inverse_cofactors(polys[i], r + 1)

    @lru_cache(maxsize=None)
    def inverse_cut_roots(i):
        acc = []
        # identity cofactors control ||phi||, A-numerators control P_j o phi
        for kpoly in inverse_cofactors(i)[1:]:
            if not kpoly.is_zero() and kpoly.degree >= 1:
                acc.extend(isolate_roots(kpoly))
        for j in range(m):
            for apoly in _composition_numerators(polys[j], polys[i], r)[1:]:
                if not apoly.is_zero() and apoly.degree >= 1:
                    acc.extend(isolate_roots(apoly))
        return acc

    pieces = []
    for lo, hi, kind, inv in kept:
        inner = set()
        if kind == "affine":
            for j in range(m):
                inner.update(x for x in affine_cut_roots(j)
                             if float(lo) < x < float(hi))
        else:
            inner.update(x for x in inverse_cut_roots(inv)
                         if float(lo) < x < float(hi))
        bounds = [lo] + [Fraction(x) for x in sorted(inner)] + [hi]
        for a, b in zip(bounds[:-1], bounds[1:]):
            if b - a > 0:
                pieces.append((a, b, kind, inv))
    step2_count = len(pieces)

    # ---- step 3: compose with Q_r, sample norms, choose subdivision
    builder = _GroupBuilder(polys, r, inverse_cofactors)
    groups = [builder.build_group(kind, inv, a, b)
              for a, b, kind, inv in pieces]
    return Atlas(polys, r, m, step1_count, step2_count,
                 sum(g.n3 for g in groups), groups)


@dataclass
class AtlasReport:
    max_norm_comp: float
    max_norm_phi: float
    coverage_defect: int
    grid_size: int
    members: int


def verify_atlas(atlas: Atlas, grid_size=10000):
    """Check the three conclusions on a uniform grid.

    Coverage defect counts grid points inside every P_j^{-1}([0,1]) that are
    farther than _COVER_SLACK from every chart image.  The images of a
    group's n3 charts run monotonically from phi(Q_r(0)) = x_lo to
    phi(Q_r(1)) = x_hi, so together they are the group's base interval, and
    the defect is read from one [x_lo, x_hi] per group.  That needs the
    groups sorted and meeting at most at endpoints, as the step-2 pieces
    are; an atlas whose groups are out of order or overlap is refused
    (PrecisionError).
    """
    bounds = [x for g in atlas.groups for x in (g.x_lo, g.x_hi)]
    if any(lo > hi for lo, hi in zip(bounds, bounds[1:])):
        raise PrecisionError("atlas groups out of order or overlapping")
    xs = np.linspace(0.0, 1.0, grid_size)
    member = np.ones_like(xs, dtype=bool)
    for p in atlas.polys:
        v = p(xs)
        member &= (v >= 0.0) & (v <= 1.0)
    starts = np.array([float(g.x_lo) for g in atlas.groups])
    ends = np.array([float(g.x_hi) for g in atlas.groups])
    pts = xs[member]
    defect = 0
    if len(starts) == 0:
        defect = int(member.sum())
    elif pts.size:
        idx = np.searchsorted(starts, pts, side="right") - 1
        covered = np.zeros(pts.shape, dtype=bool)
        valid = idx >= 0
        covered[valid] = pts[valid] <= ends[idx[valid]] + _COVER_SLACK
        nxt = idx + 1
        has_next = nxt < len(starts)
        covered[has_next] |= (starts[nxt[has_next]] - pts[has_next]) <= _COVER_SLACK
        defect = int((~covered).sum())
    return AtlasReport(atlas.max_norm_comp(), atlas.max_norm_phi(),
                       defect, grid_size, int(member.sum()))
