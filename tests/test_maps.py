"""Interval map structure, derivative sups, moduli, iterate scales, snake."""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from tailent import maps, polyalg
from tailent.errors import (DomainError, NotC1Error, ResourceError,
                            UnsupportedOrderError)
from tailent.maps import (IntervalMap, PiecewiseAffineMap, PolynomialMap,
                          _critical_pullbacks, build_snake,
                          get_map, get_rate, identity_map,
                          min_branch_length_iterate, quadratic_map, spec_number,
                          tent_map)

F4 = quadratic_map()
TENT = tent_map()
IDENT = identity_map()
QUARTIC3 = PolynomialMap([0, 0, 16, -40, 25], name="three-branch-quartic")
# f(x) = x^2 (5x-4)^2: quartic with monotone branches [0,.4],[.4,.8],[.8,1]
# a pullback point cap that no level a test walks reaches
NO_CAP = 1 << 20


def test_evaluate_examples():
    assert F4.evaluate_array(0.5) == 1.0
    assert IDENT.evaluate_array(0.3) == 0.3
    assert TENT.evaluate_array(0.25) == 0.5


@pytest.mark.parametrize("spec", ["tent", "quadratic:4", "identity",
                                  "poly:[0]", "poly:[0.5]", "snake:eps=0.05"])
def test_evaluate_array_value_and_type(spec):
    """evaluate_array clamps with the array's own clip: on a Python float,
    a 0-d and a 1-d array it gives the value and type of np.clip."""
    m = get_map(spec)
    for x in (0.3, np.asarray(0.5), np.array([0.0, 0.3, 0.5, 1.0])):
        got = m.evaluate_array(x)
        want = np.clip(m._eval_array(np.asarray(x, float)), 0.0, 1.0)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_zero_polynomial_scalar_is_float64():
    # like every other constant polynomial; it used to be a Python float
    assert type(polyalg.Polynomial([0])(0.3)) is np.float64
    assert type(polyalg.Polynomial([0.5])(0.3)) is np.float64


def test_derivative_sup_examples():
    assert F4.derivative_sup(1) == pytest.approx(4.0, abs=1e-12)
    assert F4.derivative_sup(2) == pytest.approx(8.0, abs=1e-12)
    assert IDENT.derivative_sup(1) == pytest.approx(1.0, abs=1e-15)


def test_derivative_sup_unsupported_order():
    with pytest.raises(UnsupportedOrderError):
        TENT.derivative_sup(2)


def test_monotone_partition_examples():
    branches, length, count = TENT.monotone_partition()
    assert branches == [(0.0, 0.5), (0.5, 1.0)]
    assert length == 0.5 and count == 2
    branches, length, count = F4.monotone_partition()
    assert count == 2 and length == pytest.approx(0.5, abs=1e-12)
    _, length, count = QUARTIC3.monotone_partition()
    assert count == 3
    assert length == pytest.approx(0.2, abs=1e-10)


def test_piecewise_affine_turn_across_plateau():
    # up, flat, down turns at the left end of the plateau; up, flat, up does
    # not turn
    m = PiecewiseAffineMap([0, 0.4, 0.6, 1], [0, 1, 1, 0])
    assert m.critical_points == [0.4]
    assert m.monotone_partition() == ([(0.0, 0.4), (0.4, 1.0)], 0.4, 2)
    flat = PiecewiseAffineMap([0, 0.4, 0.6, 1], [0, 1, 1, 1])
    assert flat.critical_points == []
    assert flat.monotone_partition() == ([(0.0, 1.0)], 1.0, 1)


def test_monotone_partition_from_fitted_polynomial():
    """Branch count of a fitted polynomial: exact root isolation agrees with
    a dense sampled sign-change oracle (a degree-6 LSQ fit of the 3-branch
    sin^2(3 pi x/2) carries ripple extrema, so the count is the fit's own)."""
    xs = np.linspace(0, 1, 200)
    fit = np.polyfit(xs, np.sin(1.5 * math.pi * xs) ** 2, 6)
    p = polyalg.Polynomial([Fraction(c).limit_denominator(10 ** 9)
                            for c in fit[::-1]])
    cands = [Fraction(0), Fraction(1)]
    dp = p.diff()
    cands += [Fraction(x).limit_denominator(1 << 40)
              for x in polyalg.isolate_roots(dp)]
    vals = [p.eval_exact(c) for c in cands]
    lo, hi = min(vals), max(vals)
    rescaled = polyalg.Polynomial([(c - (lo if i == 0 else 0)) / (hi - lo)
                                   for i, c in enumerate(p.coeffs)])
    m = PolynomialMap(rescaled, name="sin2-fit")
    _, _, count = m.monotone_partition()
    grid = np.linspace(0, 1, 1 << 16)
    d = rescaled.diff()(grid)
    s = np.sign(d)
    s = s[s != 0]
    oracle = int(np.sum(s[:-1] * s[1:] < 0)) + 1
    assert count == oracle


def test_modulus_of_continuity():
    assert F4.modulus_of_continuity(0.1) == pytest.approx(0.8, abs=1e-10)
    assert IDENT.modulus_of_continuity(0.2) == 0.0
    with pytest.raises(NotC1Error):
        TENT.modulus_of_continuity(0.1)


def test_modulus_linear_in_eps_for_quadratic():
    for eps in (0.01, 0.05, 0.3):
        assert F4.modulus_of_continuity(eps) == pytest.approx(8 * eps, rel=1e-9)


@pytest.mark.parametrize("m,orders,h,rel", [
    (F4, (1, 2), 1e-2, 1e-10),
    (IDENT, (1,), 1e-2, 1e-12),
    (QUARTIC3, (1, 2, 3), 1e-2, 1e-9),
])
def test_derivatives_match_finite_differences(m, orders, h, rel):
    w1 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0, 4 / 5, -1 / 5,
                   4 / 105, -1 / 280])
    rng = random.Random(5)
    pts = np.array([rng.uniform(0.05, 0.95) for _ in range(200)])
    for order in orders:
        exact = m._deriv_array(pts, order)
        prev = (m._deriv_array(pts[:, None] + np.arange(-4, 5) * h, order - 1)
                if order > 1 else
                m.evaluate_array(np.clip(pts[:, None] + np.arange(-4, 5) * h, 0, 1)))
        fd = prev @ w1 / h
        scale = np.maximum(np.abs(exact), np.max(np.abs(exact)) * 1e-3 + 1e-12)
        assert np.max(np.abs(fd - exact) / scale) < max(rel, 1e-7)


def test_snake_derivatives_match_finite_differences():
    """Analytic snake derivatives vs 8th-order differences, orders 1..3.

    Points near the bump's C^3 joints are excluded (the 4th derivative jumps
    there, as at the tent kink); elsewhere the map is piecewise analytic."""
    _, sm = build_snake(RATE, 0.1, 1.0)
    w1 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0, 4 / 5, -1 / 5,
                   4 / 105, -1 / 280])
    rng = random.Random(13)
    p = sm.params
    lo, hi = p.c - p.ell, p.d + p.ell
    joints = np.array([p.c - p.ell, p.c, p.d, p.d + p.ell])
    h = 5e-5
    pts = np.array([x for x in (rng.uniform(lo, hi) for _ in range(600))
                    if np.min(np.abs(x - joints)) > 20 * h][:200])
    for order in (1, 2, 3):
        exact = sm._deriv_array(pts, order)
        prev = (sm._deriv_array(pts[:, None] + np.arange(-4, 5) * h,
                                order - 1)
                if order > 1 else
                sm.evaluate_array(pts[:, None] + np.arange(-4, 5) * h))
        fd = prev @ w1 / h
        scale = max(float(np.max(np.abs(exact))), 1e-12)
        assert np.max(np.abs(fd - exact)) / scale < 1e-5


def test_tent_derivative_finite_differences_off_kink():
    rng = random.Random(9)
    pts = np.array([x for x in (rng.uniform(0.02, 0.98) for _ in range(400))
                    if abs(x - 0.5) > 0.01][:200])
    h = 1e-3
    fd = (TENT.evaluate_array(pts + h) - TENT.evaluate_array(pts - h)) / (2 * h)
    assert np.allclose(fd, TENT.derivative_array(pts), rtol=1e-10, atol=1e-10)


def test_vanishing_derivative_lemma():
    """sup |f'| over I <= ||f^(k+1)|| |I|^k when f' vanishes at k points of I."""
    rng = random.Random(21)
    for _ in range(20):
        k = rng.randrange(1, 4)
        zeros = sorted(rng.uniform(0.1, 0.9) for _ in range(k))
        dp = polyalg.Polynomial([1])
        for z in zeros:
            dp = dp * polyalg.Polynomial([-Fraction(z).limit_denominator(10 ** 6), 1])
        lo = max(0.0, zeros[0] - rng.uniform(0.0, 0.1))
        hi = min(1.0, zeros[-1] + rng.uniform(0.0, 0.1))
        xs = np.linspace(lo, hi, 2001)
        sup_dp = float(np.max(np.abs(dp(xs))))
        # f^(k+1) = dp^(k): for monic product of k linear factors it is k!
        sup_next = math.factorial(k)
        assert sup_dp <= sup_next * (hi - lo) ** k * (1 + 1e-9)


@pytest.fixture
def branch_caps(monkeypatch):
    """set_caps(p_cap, point_cap) patches the two caps of
    `min_branch_length_iterate`; one left out keeps its module value."""
    def set_caps(p_cap=maps._BRANCH_P_CAP, point_cap=maps._BRANCH_POINT_CAP):
        monkeypatch.setattr(maps, "_BRANCH_P_CAP", p_cap)
        monkeypatch.setattr(maps, "_BRANCH_POINT_CAP", point_cap)
    return set_caps


def test_min_branch_length_iterate_examples(branch_caps):
    branch_caps(16)
    assert min_branch_length_iterate(TENT, 0.1) == (3, False)
    branch_caps(8)
    assert min_branch_length_iterate(IDENT, 0.3) == (8, True)


def test_min_branch_length_monotone_in_eps(branch_caps):
    branch_caps(16)
    prev = None
    for eps in (0.01, 0.05, 0.2, 0.4):
        p, _ = min_branch_length_iterate(F4, eps)
        if prev is not None:
            assert p <= prev
        prev = p


def compose(p, q):
    """The polynomial p(q(X)), exactly, by Horner's rule."""
    out = polyalg.Polynomial([])
    for c in reversed(p.coeffs):
        out = out * q + polyalg.Polynomial([c])
    return out


def test_min_branch_length_vs_exact_composition(branch_caps):
    """Pullback partition agrees with exact root isolation of (f4^p)'."""
    branch_caps(5)
    f4_poly = polyalg.Polynomial([0, 4, -4])
    comp = f4_poly
    lengths = []
    for p in range(1, 6):
        crit = polyalg.isolate_roots(comp.diff())
        pts = sorted({0.0, 1.0, *crit})
        lengths.append(min(b - a for a, b in zip(pts, pts[1:])))
        comp = compose(f4_poly, comp)
    for eps in (0.05, 0.02, 0.11):
        expected = 0
        for p, length in enumerate(lengths, start=1):
            if length > eps:
                expected = p
            else:
                break
        got, saturated = min_branch_length_iterate(F4, eps)
        assert (got, saturated) == (expected, expected == 5)


class IterateMap(IntervalMap):
    """p-fold composition f^p of a base map, with the chain-rule derivative.
    Its critical points come from the base class's sampled root finder, so
    they are found without any pullback."""

    def __init__(self, base, p):
        super().__init__()
        self.base = base
        self.p = p
        self.k_max = 1
        self.name = f"{base.name}^{p}"

    def _eval_array(self, xs):
        v = np.clip(xs, 0.0, 1.0)
        for _ in range(self.p):
            v = np.clip(self.base._eval_array(v), 0.0, 1.0)
        return v

    def _deriv_array(self, xs, order):
        v = np.clip(xs, 0.0, 1.0)
        acc = np.ones_like(v)
        for _ in range(self.p):
            acc = acc * self.base._deriv_array(v, 1)
            v = np.clip(self.base._eval_array(v), 0.0, 1.0)
        return acc


def ref_preimages(m, ys):
    """Solutions of f(x) = y branch by branch: all lanes of a branch run
    52 halvings, with no lane dropped."""
    if isinstance(m, PiecewiseAffineMap):
        return m.branch_preimages(np.asarray(ys, dtype=float), math.inf)
    branches, _, _ = m.monotone_partition()
    ys = np.asarray(ys, dtype=float)
    out = []
    for a, b in branches:
        fa = float(m.evaluate_array(np.array([a]))[0])
        fb = float(m.evaluate_array(np.array([b]))[0])
        tgt = ys[(ys >= min(fa, fb)) & (ys <= max(fa, fb))]
        if tgt.size == 0:
            continue
        lo = np.full_like(tgt, a)
        hi = np.full_like(tgt, b)
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            v = m.evaluate_array(mid)
            go_right = (v < tgt) if fb > fa else (v > tgt)
            lo = np.where(go_right, mid, lo)
            hi = np.where(go_right, hi, mid)
        out.append(0.5 * (lo + hi))
    return np.sort(np.concatenate(out)) if out else np.empty(0)


def ref_critical_pullbacks(m, levels):
    """The first `levels` pullback levels built in full: level 0 is
    crit(f), level k + 1 is unique(level 0 and ref_preimages(level k))."""
    base = np.array(sorted(m.critical_points), dtype=float)
    out = [base]
    while len(out) < levels:
        out.append(np.unique(np.concatenate([base, ref_preimages(m, out[-1])])))
    return out


@pytest.mark.parametrize("m", [F4, quadratic_map(3.7), QUARTIC3, TENT,
                               get_map("snake:eps=0.05")],
                         ids=lambda m: m.name)
def test_critical_pullbacks_match_full_construction(m):
    """Levels 0-14, which pull back only each level's new points, equal the
    levels that pull back every point of the level before, byte for byte."""
    got = list(islice(_critical_pullbacks(m, NO_CAP), 15))
    for level, want in zip(got, ref_critical_pullbacks(m, 15)):
        assert level.dtype == want.dtype and level.tobytes() == want.tobytes()


def test_critical_pullbacks_levels():
    """Level k holds the critical points of f^(k+1): for the tent map the
    dyadic points j / 2^(k+1), exactly."""
    levels = _critical_pullbacks(TENT, NO_CAP)
    for k in range(7):
        size = 2 ** (k + 1)
        assert np.array_equal(next(levels), np.arange(1, size) / size)
    assert next(_critical_pullbacks(QUARTIC3, NO_CAP)).tolist() == QUARTIC3.critical_points


@pytest.mark.parametrize("p", [1, 2, 5])
def test_critical_pullbacks_match_sampled_iterate(p):
    """Level p - 1 of the F4 pullback against the sampled sign changes of
    (f^p)' = prod f'(f^t x), found with no pullback at all."""
    level = next(islice(_critical_pullbacks(F4, NO_CAP), p - 1, None))
    sampled = np.array(IterateMap(F4, p).critical_points)
    assert level.size == sampled.size == 2 ** p - 1
    assert np.max(np.abs(level - sampled)) <= 1e-12


def test_critical_pullbacks_cap_policies(branch_caps):
    # F4 level k holds 2^(k+1) - 1 points; only levels a caller asks for
    # are computed and checked against its cap
    branch_caps(point_cap=2)
    with pytest.raises(ResourceError):
        min_branch_length_iterate(F4, 0.4)
    branch_caps(point_cap=3)
    assert min_branch_length_iterate(F4, 0.4) == (1, False)
    # the level after p_cap is never built, so its size cannot trip the cap
    branch_caps(6, 100)
    assert min_branch_length_iterate(F4, 1e-6) == (6, True)
    branch_caps(5, 100)
    assert min_branch_length_iterate(F4, 1e-6) == (5, True)
    branch_caps(7, 100)
    with pytest.raises(ResourceError):
        min_branch_length_iterate(F4, 1e-6)


def test_tent_dyadic_boundary_is_exact(branch_caps):
    # L(T^p) = 2^-p exactly; at eps = 2^-6 the inequality is strict, so p = 5
    branch_caps(16)
    assert min_branch_length_iterate(TENT, 2.0 ** -6)[0] == 5


# ---------------------------------------------------------------------------
# snake construction
# ---------------------------------------------------------------------------

RATE = get_rate("invsqrtlog")


def test_snake_params_frozen_example():
    params, _ = build_snake(RATE, 0.01, 1.0)
    assert params.P == pytest.approx(abs(math.log(0.01)) ** 1.5, rel=1e-12)
    assert params.N == 100
    assert params.M == pytest.approx(0.01 * math.exp(-params.P), rel=1e-12)
    assert params.n == 3 and params.ell == pytest.approx(1 / 156, rel=1e-12)


@pytest.mark.parametrize("eps,lam", [(0.1, 1.0), (0.01, 1.7), (0.003, 0.6)])
def test_snake_invariants(eps, lam):
    params, sm = build_snake(RATE, eps, lam)
    assert params.N == math.ceil(Fraction(1) / Fraction(eps))
    assert params.M * math.exp(lam * params.P) == pytest.approx(eps, rel=1e-12)
    assert params.M < params.R
    assert params.R * math.exp(lam * params.P) <= params.big_c * (1 + 1e-12)
    assert sm.oscillation_count() == params.N


def sampled_derivative_sup(sm, order):
    """sup over x of |f^(order)|, sampled at 100 points per oscillation."""
    return sm.profile_derivative_sup(order) / sm.params.ell ** order


def test_snake_refuses_oscillations_over_the_cap_before_float_arithmetic():
    def rate(eps):
        raise AssertionError("rate evaluated")

    cap = maps._SNAKE_SAMPLE_CAP
    edge = 1.0 / cap                      # N = ceil(1/eps) = cap exactly
    with pytest.raises(AssertionError, match="rate evaluated"):
        build_snake(rate, edge, 1.0)
    for eps in (math.nextafter(edge, 0.0), 1e-300, 5e-324):
        with pytest.raises(ResourceError, match="cap"):
            build_snake(rate, eps, 1.0)
    assert build_snake(RATE, edge, 1.0)[0].N == cap


def test_snake_first_derivative_decays_along_powers_of_ten():
    sups = [sampled_derivative_sup(build_snake(RATE, 10.0 ** -j, 1.0)[1], 1)
            for j in (1, 2, 3)]
    assert sups[0] > sups[1] > sups[2]


def test_snake_map_image_and_smoothness():
    params, sm = build_snake(RATE, 0.01, 1.0)
    xs = np.linspace(0, 1, 20001)
    v = sm.evaluate_array(xs)
    assert v.min() >= 0 and v.max() <= params.R + params.M + 1e-15
    assert sm.k_max == 3 and sm.smooth
    with pytest.raises(UnsupportedOrderError):
        sm.derivative_sup(4)


def test_snake_sample_cap_boundary_without_allocating(monkeypatch):
    params, sm = build_snake(RATE, 0.01, 1.0)
    n = params.N

    def refuse(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(np, "linspace", refuse)
    # a sample array of per_osc * N + 1 floats fits a cap of exactly that
    # many; one float less of cap does not
    monkeypatch.setattr(maps, "_SNAKE_SAMPLE_CAP", 100 * n + 1)
    with pytest.raises(AssertionError, match="sampled"):
        sm.oscillation_count()
    with pytest.raises(ResourceError, match="cap"):
        sm.profile_derivative_sup(1)
    monkeypatch.setattr(maps, "_SNAKE_SAMPLE_CAP", 100 * n)
    with pytest.raises(ResourceError, match="cap"):
        sm.oscillation_count()
    monkeypatch.setattr(maps, "_SNAKE_SAMPLE_CAP", 300 * n + 1)
    with pytest.raises(AssertionError, match="sampled"):
        sm.profile_derivative_sup(3)
    # at the real cap of 2^24 floats the profile reaches N = 55924
    monkeypatch.undo()
    monkeypatch.setattr(np, "linspace", refuse)
    assert maps._SNAKE_SAMPLE_CAP == 1 << 24
    for big_n, fits in ((55924, True), (55925, False), (10 ** 300, False)):
        big = maps.SnakeMap(dataclasses.replace(params, N=big_n))
        with pytest.raises(AssertionError if fits else ResourceError):
            big.profile_derivative_sup(1)


@pytest.mark.parametrize("scale", [1e-4, 0.01, 0.2, 0.26, 0.6, 0.95])
def test_snake_modulus_is_the_largest_window_spread(scale):
    # the largest max - min of f' over a window of k + 1 grid samples, for
    # windows from a few samples to more than half the grid
    _, sm = build_snake(RATE, 0.02, 1.0)
    n = 1 << maps._GRID_BITS_SUP
    d = sm.derivative_array(np.linspace(0.0, 1.0, n + 1))
    k = math.ceil(scale * n)
    want = max(float(d[i:i + k + 1].max() - d[i:i + k + 1].min())
               for i in range(n + 1 - k))
    assert sm.modulus_of_continuity(scale) == want


def ref_sampled_critical_points(m):
    """Sampled sign changes of f', each bracket bisected by a scalar
    60-step loop that keeps the derivative value at its left end, and the
    sampled exact zeros; of these, the turning points: f' takes opposite
    signs at the midpoints to the neighbouring zeros (0 and 1 at the ends)."""
    xs = np.linspace(0.0, 1.0, (1 << 16) + 1)
    d = m._deriv_array(xs, 1)
    s = np.sign(d)
    roots = []
    for i in np.nonzero(s[:-1] * s[1:] < 0)[0]:
        lo, hi = xs[i], xs[i + 1]
        flo = d[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = float(m._deriv_array(np.array([mid]), 1)[0])
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    roots.extend(xs[1:-1][d[1:-1] == 0.0])
    zeros = sorted(set(roots))
    # f' is evaluated pointwise, so one call over all midpoints gives the
    # same values as one call per midpoint (55,724 zeros at eps 0.1)
    anchors = [0.0] + zeros + [1.0]
    dmid = m._deriv_array(np.array(
        [0.5 * (a + b) for a, b in zip(anchors[:-1], anchors[1:])]), 1).tolist()
    turning = []
    for i, c in enumerate(zeros):
        if dmid[i] * dmid[i + 1] < 0:
            turning.append(c)
    return turning


@pytest.mark.parametrize("eps", [0.1, 0.02])
def test_snake_critical_points_match_scalar_bisection(eps):
    _, sm = build_snake(RATE, eps, 1.0)
    got = np.array(sm.critical_points)
    want = np.array(ref_sampled_critical_points(sm))
    assert got.tobytes() == want.tobytes()
    # cos(pi N t) turns at t = 1/N, ..., (N-1)/N inside the window; the
    # flat part outside it, where f' is exactly 0, adds no turning point
    assert np.sum((got > sm.params.c) & (got < sm.params.d)) >= sm.params.N - 1
    branches, _, _ = sm.monotone_partition()
    assert [b for _, b in branches[:-1]] == sm.critical_points


def test_snake_rejects_bad_configs():
    with pytest.raises(DomainError):
        build_snake(RATE, 1.5, 1.0)
    for big_c in (0.1, 0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite C > eps"):
            build_snake(RATE, 0.5, 1.0, big_c=big_c)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_round_trip():
    assert get_map("tent").name == "tent"
    assert get_map("identity").evaluate_array(0.25) == 0.25
    assert get_map("quadratic:4.0").evaluate_array(0.5) == 1.0
    m = get_map("poly:[0,1]")
    assert m.evaluate_array(0.125) == 0.125
    sm = get_map("snake:eps=0.01,lambda=1.0,rate=invsqrtlog")
    assert sm.params.N == 100
    with pytest.raises(ValueError):
        get_map("lorenz")
    with pytest.raises(ValueError):
        get_rate("cubic-spline")


@pytest.mark.parametrize("text, exact, value", [
    ("4", False, 4.0), ("-0.5e-3", False, -0.0005), (".5", False, 0.5),
    ("+1.", False, 1.0), ("1e999", False, math.inf),
    ("1.7976931348623157e+308", False, 1.7976931348623157e+308),
    ("-4/6", True, Fraction(-2, 3)), ("007/010", True, Fraction(7, 10)),
    ("1e-300", True, Fraction(1, 10 ** 300)), ("2.5", True, Fraction(5, 2)),
])
def test_spec_number_reads_the_grammar(text, exact, value):
    got = spec_number(text, exact)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("text", [
    "nan", "inf", "-inf", "", " 1", "1_0", "1/0", "-3/00", "--1", "1e", ".",
    "0x1", "1e1000", "1e-1000000", "\u0663", "1/3.0"])
def test_spec_number_refuses_other_text(text):
    """Refused in both forms, before a Fraction builds 10^k for 1e-1000000."""
    for exact in (False, True):
        with pytest.raises(ValueError, match="is not a spec number"):
            spec_number(text, exact)


def test_spec_number_reads_p_over_q_only_if_exact():
    with pytest.raises(ValueError, match="is not a spec number"):
        spec_number("1/3")


def test_poly_coefficient_over_the_float_range_is_a_value_error():
    """1e999 is of the grammar and read exactly, but no float holds it, so
    the map cannot be evaluated (it raised OverflowError)."""
    with pytest.raises(ValueError, match="overflows a float"):
        get_map("poly:[0,1e999]")


def test_piecewise_affine_validation():
    with pytest.raises(ValueError):
        PiecewiseAffineMap([0, 0.5, 0.9], [0, 1, 0])
    with pytest.raises(ValueError):
        PiecewiseAffineMap([0, 0.5, 1.0], [0, 1.5, 0])


def test_polynomial_map_image_validation():
    with pytest.raises(ValueError):
        PolynomialMap([0, 5, -5])  # peaks at 1.25
