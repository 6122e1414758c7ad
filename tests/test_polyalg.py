"""Exact polynomial arithmetic, Q_r pipeline, and the reparametrizer."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailent import polyalg
from tailent.acceptance import fixed_reparam_system, random_reparam_system
from tailent.combinatorics import BellTable
from tailent.polyalg import (Polynomial, isolate_roots, q_polynomial,
                             q_derivative_factorization, reparametrize_1d,
                             verify_atlas)
from tailent.errors import PrecisionError, ResourceError

S = Polynomial([0, 1, -1])        # X(1-X)
S_PRIME = Polynomial([1, -2])


# ---------------------------------------------------------------------------
# arithmetic and root isolation
# ---------------------------------------------------------------------------

def test_polynomial_arithmetic_exact():
    p = Polynomial([Fraction(1, 3), -2, 1])
    q = Polynomial([0, 1])
    assert (p * q).coeffs == (Fraction(0), Fraction(1, 3), Fraction(-2), Fraction(1))
    assert p.diff().coeffs == (Fraction(-2), Fraction(2))
    assert p.compose_affine(1, -1).eval_exact(Fraction(1, 4)) == \
        p.eval_exact(Fraction(3, 4))


def ref_poly_call(p, x):
    """Polynomial.__call__ before it shared `_horner`: Horner's rule from
    0 + cs[-1], two fresh arrays per degree.  A scalar gives np.float64 for
    every polynomial, the zero polynomial included."""
    cs = p.float_coeffs()
    if cs.size == 0:
        return (np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x)
                else np.float64(0.0))
    acc = np.zeros_like(np.asarray(x, dtype=float)) + cs[-1] if np.ndim(x) else cs[-1]
    for c in cs[-2::-1]:
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("coeffs", [
    [], [Fraction(2, 3)], [0, 1], [1, -3], [0, 4, -4],
    [Fraction(-1, 2), 0, 0, 64, -192, 192, -64],
    [Fraction(7, 8), -5, Fraction(3, 2), 9, -4],
])
def test_polynomial_call_matches_reference(coeffs):
    p = Polynomial(coeffs)
    rng = np.random.default_rng(11)
    for x in (np.linspace(-0.5, 1.5, 257), rng.random((3, 5)),
              np.arange(-3, 4), [0.1, 0.7], np.array([], dtype=float)):
        got, want = p(x), ref_poly_call(p, x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for x in (0.3, -2.0, 1, np.float64(0.625)):
        assert p(x) == ref_poly_call(p, x)
        assert type(p(x)) is type(ref_poly_call(p, x))


def test_isolate_roots_simple():
    p = Polynomial([Fraction(-1, 2), 0, 0, 64, -192, 192, -64])  # 64x^3(1-x)^3 - 1/2
    roots = isolate_roots(p)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.2728989905262722, abs=1e-12)
    assert roots[1] == pytest.approx(1 - roots[0], abs=1e-12)


def test_isolate_roots_endpoints_and_dyadic():
    p = Polynomial([0, 1]) * Polynomial([-1, 1]) * Polynomial([Fraction(-1, 2), 1])
    roots = isolate_roots(p)
    assert roots == pytest.approx([0.0, 0.5, 1.0], abs=1e-13)


def test_isolate_roots_double_root_square_free_path():
    third = Fraction(1, 3)
    p = Polynomial([-third, 1]) * Polynomial([-third, 1]) * Polynomial([Fraction(-2, 3), 1])
    roots = isolate_roots(p)
    assert roots == pytest.approx([1 / 3, 2 / 3], abs=1e-12)


def test_isolate_roots_random_vs_numpy():
    rng = random.Random(11)
    for _ in range(25):
        deg = rng.randrange(2, 7)
        coeffs = [Fraction(rng.randrange(-64, 65), 16) for _ in range(deg + 1)]
        if all(c == 0 for c in coeffs):
            continue
        p = Polynomial(coeffs)
        if p.degree < 1:
            continue
        got = isolate_roots(p)
        ref = np.roots(np.array(p.float_coeffs()[::-1]))
        ref = sorted(r.real for r in ref
                     if abs(r.imag) < 1e-9 and -1e-9 <= r.real <= 1 + 1e-9)
        dedup = []
        for r in ref:
            if not dedup or r - dedup[-1] > 1e-9:
                dedup.append(min(max(r, 0.0), 1.0))
        assert len(got) == len(dedup)
        for a, b in zip(got, dedup):
            assert a == pytest.approx(b, abs=1e-7)


# ---------------------------------------------------------------------------
# Q_r
# ---------------------------------------------------------------------------

def test_q_polynomial_small_cases():
    q1, b1 = q_polynomial(1)
    assert q1 == Polynomial([0, 1]) and b1 == 1
    q2, b2 = q_polynomial(2)
    assert q2 == Polynomial([0, 0, 3, -2]) and b2 == 6
    q3, b3 = q_polynomial(3)
    assert q3 == Polynomial([0, 0, 0, 10, -15, 6]) and b3 == 30


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 12])
def test_q_polynomial_flatness_and_functional_equation(r):
    q, b_r = q_polynomial(r)
    assert q.degree == 2 * r - 1
    assert b_r == math.factorial(2 * r - 1) // math.factorial(r - 1) ** 2
    assert q.eval_exact(0) == 0 and q.eval_exact(1) == 1
    for k in range(1, r):
        dq = q.diff(k)
        assert dq.eval_exact(0) == 0 and dq.eval_exact(1) == 0
    assert Polynomial([1]) - q.compose_affine(1, -1) == q
    # derivative has the displayed product form
    expect = Polynomial([b_r])
    for _ in range(r - 1):
        expect = expect * S
    assert q.diff() == expect


@pytest.mark.parametrize("r", [2, 4, 7, 12])
def test_q_monotone_bijection(r):
    q, _ = q_polynomial(r)
    xs = np.linspace(0, 1, 1001)
    # float evaluation of Q_r cancels catastrophically near 1 for large r;
    # tolerance scales with the coefficient magnitude (exact monotonicity is
    # covered by the product form of Q_r' above)
    tol = 1e-15 * float(np.max(np.abs(q.diff().float_coeffs())))
    dq = q.diff()(xs)
    assert np.all(dq >= -tol)
    vals = q(xs)
    assert np.all(np.diff(vals) >= -tol)
    assert np.all(vals >= xs ** r * (1 - xs) ** r - tol - 1e-12)


def test_q_polynomial_cap():
    with pytest.raises(ResourceError):
        q_polynomial(26)


def test_q_derivative_cofactors_spec_recursion():
    assert q_derivative_factorization(3, 0) == Polynomial([1])
    assert q_derivative_factorization(3, 1) == 3 * S_PRIME
    for r in (3, 5, 8):
        for i in range(r):
            assert q_derivative_factorization(r, i).degree == i


@pytest.mark.parametrize("r", [2, 3, 5, 8])
def test_q_derivative_exact_factorization(r):
    """Q_r^(i+1) = b_r S^(r-1-i) D_i with D_0 = 1, D_{i+1} = (r-1-i)S'D_i + SD_i'."""
    q, b_r = q_polynomial(r)
    d = Polynomial([1])
    for i in range(r):
        s_pow = Polynomial([1])
        for _ in range(r - 1 - i):
            s_pow = s_pow * S
        assert q.diff(i + 1) == b_r * s_pow * d
        d = (r - 1 - i) * S_PRIME * d + S * d.diff()


def test_q_derivative_growth_rate():
    """Sampled ||Q_r^(k)|| <= c * r^(2k) with a single fitted constant."""
    xs = np.linspace(0, 1, 2001)
    c = 0.0
    for r in range(2, 11):
        q, _ = q_polynomial(r)
        for k in range(1, r + 1):
            sup = float(np.max(np.abs(q.diff(k)(xs))))
            c = max(c, sup / r ** (2 * k))
    assert c < 10.0, f"fitted constant {c}"


# ---------------------------------------------------------------------------
# chart images: the coverage oracle
# ---------------------------------------------------------------------------

def chart_boundaries(atlas, g):
    """x at the n3 + 1 step-3 boundaries tau = q/n3 of group g, so chart
    q has the image [out[q], out[q + 1]].  Float evaluation of Q_r can
    wobble below its coefficient scale, so the boundaries are pinned to
    the base interval and made monotone."""
    a, b = float(g.x_lo), float(g.x_hi)
    qb = q_polynomial(atlas.r)[0](np.linspace(0.0, 1.0, g.n3 + 1))
    if g.kind == "affine":
        imgs = a + qb * float(g.x_hi - g.x_lo)
    else:
        imgs = polyalg._u_of_q(atlas.polys[g.inv_index], g.x_lo, g.x_hi, qb)
    imgs[0], imgs[-1] = a, b
    return np.maximum.accumulate(np.clip(imgs, a, b))


def image_intervals(atlas):
    """(starts, ends) arrays of all chart images, sorted by start."""
    starts, ends = [], []
    for g in atlas.groups:
        tau = chart_boundaries(atlas, g)
        starts.append(tau[:-1])
        ends.append(tau[1:])
    if not starts:
        return np.empty(0), np.empty(0)
    s = np.concatenate(starts)
    e = np.concatenate(ends)
    order = np.argsort(s, kind="stable")
    return s[order], e[order]


def grid_members(atlas, grid_size=10000):
    """verify_atlas's grid, and which of its points lie inside every
    P_j^{-1}([0,1])."""
    xs = np.linspace(0.0, 1.0, grid_size)
    member = np.ones_like(xs, dtype=bool)
    for p in atlas.polys:
        v = p(xs)
        member &= (v >= 0.0) & (v <= 1.0)
    return xs, member


def oracle_defect(atlas, grid_size=10000):
    """The coverage defect as verify_atlas counted it from every chart image
    (`image_intervals`), before it read one interval per group."""
    xs, member = grid_members(atlas, grid_size)
    starts, ends = image_intervals(atlas)
    pts = xs[member]
    defect = 0
    if len(starts) == 0:
        defect = int(member.sum())
    elif pts.size:
        idx = np.searchsorted(starts, pts, side="right") - 1
        covered = np.zeros(pts.shape, dtype=bool)
        valid = idx >= 0
        covered[valid] = pts[valid] <= ends[idx[valid]] + polyalg._COVER_SLACK
        nxt = idx + 1
        has_next = nxt < len(starts)
        covered[has_next] |= ((starts[nxt[has_next]] - pts[has_next])
                              <= polyalg._COVER_SLACK)
        defect = int((~covered).sum())
    return defect


# ---------------------------------------------------------------------------
# reparametrizer
# ---------------------------------------------------------------------------

def test_reparam_constant_polynomial_identity_chart():
    atlas = reparametrize_1d([Polynomial([Fraction(1, 2)])], 1)
    assert atlas.chart_count == 1
    assert atlas.groups[0].kind == "affine"
    starts, ends = image_intervals(atlas)
    assert (starts.tolist(), ends.tolist()) == ([0.0], [1.0])
    rep = verify_atlas(atlas, 1000)
    assert rep.coverage_defect == 0


def test_reparam_linear_polynomial():
    atlas = reparametrize_1d([Polynomial([0, 1])], 1)
    rep = verify_atlas(atlas, 10000)
    assert rep.coverage_defect == 0
    assert rep.max_norm_comp <= 1 + 1e-6
    assert rep.max_norm_phi <= 1 + 1e-6


def test_reparam_degree6_offset():
    p = Polynomial([Fraction(-1, 2), 0, 0, 64, -192, 192, -64])
    atlas = reparametrize_1d([p], 6)
    rep = verify_atlas(atlas, 10000)
    assert rep.coverage_defect == 0
    assert rep.max_norm_comp <= 1 + 1e-6
    assert 0 < atlas.chart_count <= 20 * 6 ** 8


def test_reparam_random_pair_and_negative_control():
    rng = random.Random(3)
    polys = [Polynomial([Fraction(rng.randrange(-2 << 12, (2 << 12) + 1), 1 << 12)
                         for _ in range(6)]) for _ in range(2)]
    atlas = reparametrize_1d(polys, 5)
    rep = verify_atlas(atlas, 10000)
    assert rep.coverage_defect == 0
    # step-1 component count stays within the 6 r m^2 combinatorial budget
    assert atlas.step1_count <= 6 * 5 * 2 ** 2 + 2
    if atlas.chart_count:
        # delete a chart wide enough to contain interior grid points
        broken, width = _without_widest_chart_group(atlas)
        if width > 3e-4:
            assert verify_atlas(broken, 10000).coverage_defect > 0


def _without_widest_chart_group(atlas):
    """(the atlas less the group that holds its widest chart image, the
    width of that chart)."""
    widths = [float(np.diff(chart_boundaries(atlas, g)).max())
              for g in atlas.groups]
    g = int(np.argmax(widths))
    return (dataclasses.replace(atlas, groups=atlas.groups[:g] + atlas.groups[g + 1:]),
            widths[g])


def test_reparam_deleted_chart_defect():
    atlas = reparametrize_1d([Polynomial([0, 1])], 1)
    broken, _ = _without_widest_chart_group(atlas)
    assert verify_atlas(broken, 10000).coverage_defect > 0


def test_atlas_counts_consistent_and_images_are_intervals():
    p = Polynomial([Fraction(-1, 2), 0, 0, 64, -192, 192, -64])
    atlas = reparametrize_1d([p], 6)
    assert atlas.chart_count == sum(g.n3 for g in atlas.groups)
    assert atlas.step2_count == len(atlas.groups)
    for g in atlas.groups:
        assert np.all(np.diff(chart_boundaries(atlas, g)) >= -1e-12)


def _controls(atlas, count=5):
    """(group, the atlas less that group) for each of its first `count`
    groups: negative controls of the coverage check."""
    return [(g, dataclasses.replace(atlas, groups=atlas.groups[:k] + atlas.groups[k + 1:]))
            for k, g in enumerate(atlas.groups[:count])]


def _holds_a_member_point(atlas, g):
    """Whether a grid point inside every P_j^{-1}([0,1]) lies farther than
    _COVER_SLACK inside g's interval, so that no other group can cover it."""
    xs, member = grid_members(atlas)
    inside = ((xs > float(g.x_lo) + polyalg._COVER_SLACK)
              & (xs < float(g.x_hi) - polyalg._COVER_SLACK))
    return bool((member & inside).any())


def _check_coverage_against_oracle(atlas):
    assert verify_atlas(atlas, 10000).coverage_defect == oracle_defect(atlas) == 0
    for g, control in _controls(atlas):
        defect = verify_atlas(control, 10000).coverage_defect
        assert defect == oracle_defect(control)
        if _holds_a_member_point(atlas, g):
            assert defect > 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_group_coverage_matches_chart_images_on_fixed_systems(m):
    for r in range(2, 6):
        atlas = reparametrize_1d(fixed_reparam_system(m, r), r)
        _check_coverage_against_oracle(atlas)
        # every first-five control of these systems is a real one
        assert all(_holds_a_member_point(atlas, g) for g, _ in _controls(atlas))


@st.composite
def reparam_systems(draw):
    """(polys, r): m <= 2 polynomials of degree <= r <= 5, dyadic
    coefficients in [-2, 2], each shifted so that it maps a drawn dyadic x0
    into [0, 1], so the preimage of the cube is never empty."""
    r = draw(st.integers(1, 5))
    x0 = Fraction(draw(st.integers(0, 64)), 64)
    polys = []
    for _ in range(draw(st.integers(1, 2))):
        cs = [Fraction(draw(st.integers(-128, 128)), 64) for _ in range(r + 1)]
        target = Fraction(draw(st.integers(0, 64)), 64)
        cs[0] += target - Polynomial(cs).eval_exact(x0)
        polys.append(Polynomial(cs))
    return polys, r


@settings(max_examples=40, deadline=None, derandomize=True)
@given(reparam_systems())
def test_group_coverage_matches_chart_images(system):
    polys, r = system
    _check_coverage_against_oracle(reparametrize_1d(polys, r))


def test_verify_atlas_refuses_groups_out_of_order_or_overlapping():
    atlas = reparametrize_1d(fixed_reparam_system(1, 2), 2)
    groups = atlas.groups
    assert len(groups) >= 3
    wider = dataclasses.replace(groups[0], x_hi=groups[1].x_lo + Fraction(1, 1 << 20))
    flipped = dataclasses.replace(groups[1], x_lo=groups[1].x_hi, x_hi=groups[1].x_lo)
    for bad in (groups[::-1], groups[1:2] + groups[:1] + groups[2:],
                [wider] + groups[1:], groups[:1] + [flipped] + groups[2:]):
        with pytest.raises(PrecisionError, match="out of order or overlapping"):
            verify_atlas(dataclasses.replace(atlas, groups=bad), 10000)
    # groups that meet at an endpoint are a tiling, not an overlap
    assert groups[0].x_hi == groups[1].x_lo
    assert verify_atlas(atlas, 10000).coverage_defect == 0


def test_reparam_rejects_degree_above_r():
    with pytest.raises(ValueError):
        reparametrize_1d([Polynomial([0, 0, 1])], 1)


# ---------------------------------------------------------------------------
# step 3 against the per-call code it replaced
# ---------------------------------------------------------------------------

def ref_u_of_q(p, a, b, qv):
    """The 60-step bisection of every lane, through Polynomial.__call__."""
    pa, pb = p.eval_exact(a), p.eval_exact(b)
    target = float(pa) + qv * (float(pb) - float(pa))
    lo = np.full_like(qv, float(a))
    hi = np.full_like(qv, float(b))
    increasing = pb > pa
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        v = p(mid)
        go_right = (v < target) if increasing else (v > target)
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("coeffs,a,b", [
    ([0, 3], 0, Fraction(1, 3)),                              # increasing
    ([1, -3], 0, Fraction(1, 3)),                             # decreasing
    ([Fraction(-1, 2), 0, 0, 64, -192, 192, -64], Fraction(1, 8),
     Fraction(3, 8)),
    ([Fraction(7, 8), -5, Fraction(3, 2), 9, -4], Fraction(3, 5), 1),
])
@pytest.mark.parametrize("size", [1, 2, 3, 17, 4096])
def test_u_of_q_matches_reference(coeffs, a, b, size):
    p = Polynomial(coeffs)
    qv = np.linspace(0.0, 1.0, size) if size > 1 else np.array([0.37])
    got = polyalg._u_of_q(p, Fraction(a), Fraction(b), qv)
    assert_same_bits(got, ref_u_of_q(p, Fraction(a), Fraction(b), qv))


def ref_bisect(evaluate, lo, hi, target, increasing, steps):
    """`steps` halvings of every lane, none dropped; the direction of each
    lane picks its comparison."""
    target = np.broadcast_to(target, lo.shape)
    increasing = np.broadcast_to(increasing, lo.shape)
    lane = np.arange(lo.size)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        v = evaluate(mid, lane)
        go_right = np.where(increasing, v < target, v > target)
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


class LaneLog:
    """An evaluate callback that records how many lanes each call saw."""

    def __init__(self, fn):
        self.fn = fn
        self.sizes = []

    def __call__(self, x, lane):
        assert x.shape == lane.shape
        self.sizes.append(lane.size)
        return self.fn(x, lane)


def test_bisect_empty_lane_set():
    log = LaneLog(lambda x, lane: x)
    got = polyalg._bisect(log, np.empty(0), np.empty(0), 0.5, True, 60)
    assert got.shape == (0,) and got.dtype == float and log.sizes == []


def test_bisect_endpoint_targets_use_all_steps():
    # a lane whose target sits at (or within 2^-60 of) the end 0 moves hi
    # in every halving, so it runs all steps while the others settle
    lo, hi = np.zeros(5), np.ones(5)
    target = np.array([0.0, 0.3, 1.0, 0.5, 1e-300])
    log = LaneLog(lambda x, lane: x)
    got = polyalg._bisect(log, lo, hi, target, True, 60)
    assert_same_bits(got, ref_bisect(lambda x, lane: x, lo, hi, target,
                                     True, 60))
    assert len(log.sizes) == 60 and log.sizes[0] == 5 and log.sizes[-1] == 2
    assert got[0] == got[4] == 2.0 ** -61


def test_bisect_decreasing_scalar_direction():
    p = Polynomial([1, -3, 0, 2])           # decreasing on [0, 1/sqrt(2)]
    cs = p.float_coeffs()
    qv = np.linspace(0.0, 1.0, 33)
    target = 1.0 - qv * (1.0 - float(p(0.7)))
    lo, hi = np.zeros(33), np.full(33, 0.7)
    log = LaneLog(lambda x, lane: polyalg._horner(cs, x))
    got = polyalg._bisect(log, lo, hi, target, False, 60)
    assert_same_bits(got, ref_bisect(lambda x, lane: p(x), lo, hi, target,
                                     False, 60))
    assert min(log.sizes) < 33              # lanes were dropped


def test_bisect_mixed_per_lane_directions():
    # f(x) = sin(5x) - 0.3: lane j solves f = 0 on its own bracket, going
    # right below zero where f increases and above zero where it decreases
    lo = np.array([0.0, 0.5, 1.5, 2.2, 0.05])
    hi = np.array([0.3, 0.7, 2.0, 2.6, 0.2])
    f = lambda x: np.sin(5.0 * x) - 0.3
    increasing = f(lo) < 0
    assert increasing.any() and not increasing.all()
    log = LaneLog(lambda x, lane: f(x))
    got = polyalg._bisect(log, lo, hi, 0.0, increasing, 60)
    assert_same_bits(got, ref_bisect(lambda x, lane: f(x), lo, hi, 0.0,
                                     increasing, 60))
    assert np.all(np.abs(f(got)) < 1e-14)


def test_bisect_per_lane_data_follows_dropped_lanes():
    # lane j solves x^k[j] = t with its own exponent; the indices passed to
    # evaluate must stay aligned with the lanes left after drops
    k = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    t = np.array([0.5, 0.0, 0.25, 1.0, 0.125, 0.7])
    lo, hi = np.zeros(6), np.ones(6)
    log = LaneLog(lambda x, lane: x ** k[lane])
    got = polyalg._bisect(log, lo, hi, t, np.ones(6, bool), 60)
    assert_same_bits(got, ref_bisect(lambda x, lane: x ** k[lane], lo, hi,
                                     t, True, 60))
    assert len(set(log.sizes)) > 1


def test_bisect_exact_ties_at_dyadic_midpoints():
    # tent values at dyadic midpoints are exact, so v == target happens
    # on both branches; a tie goes left
    from tailent.maps import tent_map
    tent = tent_map()
    t = np.array([0.5, 0.25, 0.75, 0.125, 1.0, 0.0])
    for a, b, inc in ((0.0, 0.5, True), (0.5, 1.0, False)):
        lo, hi = np.full(6, a), np.full(6, b)
        ev = lambda x, lane: tent.evaluate_array(x)
        got = polyalg._bisect(ev, lo, hi, t, inc, 60)
        assert_same_bits(got, ref_bisect(ev, lo, hi, t, inc, 60))
        per_lane = polyalg._bisect(ev, lo, hi, t, np.full(6, inc), 60)
        assert_same_bits(per_lane, got)


def test_u_of_q_endpoint_lanes_take_all_60_steps():
    # the q = 0 lane of P(x) = 3x on [0, 1/3] keeps lo = 0 and halves hi 60
    # times: it never settles, so the loop must run to the end for it
    p, a, b = Polynomial([0, 3]), Fraction(0), Fraction(1, 3)
    qv = np.array([0.0, 0.25, 1.0, 1e-300, 0.5])
    got = polyalg._u_of_q(p, a, b, qv)
    assert_same_bits(got, ref_u_of_q(p, a, b, qv))
    assert got[0] == float(b) * 2.0 ** -61


def test_u_of_q_non_monotone_values_take_the_plain_path():
    # 10x^3 - 15x^2 + 6x rises, dips between 0.28 and 0.72 and rises again:
    # the midpoints where a lane goes right are no prefix of the shared tree
    # top, so it must be refused and the lanes bisect from [a, b]
    p = Polynomial([0, 6, -15, 10])
    t = np.linspace(0.0, 1.0, 64)
    lo, hi, depth = polyalg._bisection_top(p, [0.0], [1.0], [t], [True])
    assert depth == 0 and np.all(lo == 0.0) and np.all(hi == 1.0)
    # one branch whose top is not monotone sends every branch's lanes to
    # the root, the monotone branch [0, 1/5] too
    _, _, depth = polyalg._bisection_top(p, [0.0], [0.2], [t], [True])
    assert depth == 6
    lo, hi, depth = polyalg._bisection_top(p, [0.0, 0.0], [0.2, 1.0],
                                           [t, t], [True, True])
    assert depth == 0 and np.array_equal(lo, np.zeros(128))
    assert np.array_equal(hi, np.repeat([0.2, 1.0], 64))
    qv = np.linspace(0.0, 1.0, 300)
    for a, b in ((Fraction(0), Fraction(1)), (Fraction(1, 5), Fraction(9, 10)),
                 (Fraction(1), Fraction(0))):
        got = polyalg._u_of_q(p, a, b, qv)
        assert_same_bits(got, ref_u_of_q(p, a, b, qv))


def test_u_of_q_random_polynomials():
    rng = random.Random(2024)
    for _ in range(60):
        deg = rng.randrange(1, 9)
        p = Polynomial([Fraction(rng.randrange(-2 << 12, (2 << 12) + 1), 1 << 10)
                        for _ in range(deg + 1)])
        if p.degree < 1:
            continue
        x0 = Fraction(rng.randrange(0, 1 << 20), 1 << 20)
        a, b = sorted((x0, x0 + Fraction(rng.randrange(1, 1 << 20), 1 << 22)))
        size = rng.choice((2, 5, 64, 1000, 4096))
        qv = np.sort(np.array([rng.random() for _ in range(size)]))
        qv[0], qv[-1] = 0.0, 1.0
        got = polyalg._u_of_q(p, a, b, qv)
        assert_same_bits(got, ref_u_of_q(p, a, b, qv))


def test_isolate_roots_unit_interval_skips_the_identity_composition(monkeypatch):
    rng = random.Random(17)
    polys = [Polynomial([Fraction(rng.randrange(-64, 65), 16)
                         for _ in range(rng.randrange(2, 8))]) for _ in range(40)]
    polys.append(Polynomial([0, 1]) * Polynomial([-1, 1]) * Polynomial([Fraction(-1, 2), 1]))
    composed = [p.compose_affine(0, 1) for p in polys]
    # the composition with x -> 0 + 1*x returns the same coefficients, so
    # isolating the roots of p itself is what the composed path computed
    assert all(q.coeffs == p.coeffs for p, q in zip(polys, composed))
    calls = []
    orig = Polynomial.compose_affine
    monkeypatch.setattr(Polynomial, "compose_affine",
                        lambda self, a, b: calls.append((a, b)) or orig(self, a, b))
    for p, q in zip(polys, composed):
        assert isolate_roots(p) == isolate_roots(q, Fraction(1))
    assert calls == []
    isolate_roots(polys[0], Fraction(1, 2))
    assert len(calls) == 1


def atlas_digest(atlas):
    """Step counts, chart count, sampled norms, coverage and a hash of every
    group's kind, base interval, subdivision, norms and chart images."""
    rep = verify_atlas(atlas, 10000)
    h = hashlib.sha256()
    for g in atlas.groups:
        h.update(f"{g.kind},{g.inv_index},{g.x_lo},{g.x_hi},{g.n3},"
                 f"{g.norm_phi!r},{g.norm_comp!r}".encode())
        h.update(chart_boundaries(atlas, g).tobytes())
    return (atlas.step1_count, atlas.step2_count, atlas.chart_count,
            repr(rep.max_norm_comp), repr(rep.max_norm_phi),
            rep.coverage_defect, rep.members, h.hexdigest())


# Digests of the atlases built with one partial_bell call per (k, l) and
# term, the full 60-step bisection of every lane through Polynomial.__call__,
# and isolate_roots composing with x -> x on [0, 1].
FIXED_ATLASES = {
    (1, 2): (4, 4, 36, '0.75', '0.75', 0, 10000, 'a351cee618470a1b391d87b792788e4cd83eb8e11ab56790e10576cef657a165'),
    (1, 3): (7, 8, 656, '0.022434263124428432', '0.004731473005240362', 0, 10000, 'f63387475f4b6dbecfe0b6e551e7956731095b1b269e80c6723286ce73879285'),
    (1, 4): (10, 14, 3598, '0.008450375816304546', '0.001268025367992312', 0, 10000, 'f78411e52080c2bf827041321c5222b33f0aa7acd5e11de411f5b7eab4ed5771'),
    (1, 5): (13, 18, 11268, '0.003918432048142484', '0.0004675220484391588', 0, 10000, '0e3410b21e7fa8323f0d7f9ff3e9fa0c24ffa1ad28e831a57c2d2fefc6deb7c2'),
    (1, 6): (14, 26, 33722, '0.0020836874008370505', '0.00021007377596097548', 0, 10000, '4a54deac9e6ea9992b141cbcfe630aa6462671f5d3212f69fc5bdb08d0003e7a'),
    (1, 7): (19, 30, 72060, '0.001219774331453147', '0.00015665404547934232', 0, 10000, 'd7424ddde89f1b5294a1ab8e8baf5b47f51c25caabb7ed5dc27204803594ddc6'),
    (1, 8): (20, 44, 180268, '0.0007664976757057558', '5.827439442877453e-05', 0, 10000, '030afc0c17e93cf0b7bf5a9129b506e79e51a0f0691009704a0660928ca8110e'),
    (2, 2): (4, 4, 36, '0.75', '0.75', 0, 8944, 'c32457bd9c77a68866dd660878bc7dbebe1cf87eea8574e77c9ee1e44b0da707'),
    (2, 3): (5, 6, 492, '0.01829268074510827', '0.004281534268662692', 0, 7129, 'b072f9688febdcc48e7ebe6d93c6b266e230bf109c3c6e0a7486271b77a464c6'),
    (2, 4): (8, 12, 3084, '0.006748041490506945', '0.000995713608771123', 0, 7434, '6adce4d8c5d050576e10e3175514cd7d40666083a6d6fa769913b507d09244b6'),
    (2, 5): (9, 14, 8764, '0.003144967300932303', '0.0004675220484391588', 0, 7077, 'f373ed43ca4ba4559ea7f2e4aa9676a01ccdafa967c12af8c1a1061435477a8e'),
    (2, 6): (10, 22, 28534, '0.0016662578799677302', '0.00021007377596097548', 0, 7214, '81f61a82bf3235ea05ac71b53af8112865ab110d398760c9df974a00e26c8a1d'),
    (2, 7): (13, 23, 55246, '0.0009767247754218472', '0.00013358442472487798', 0, 7063, '5073e9fe05f62cd4c0bf91194701963f83068091456311e9b8d3dfee4ae33539'),
    (2, 8): (16, 40, 163880, '0.0006131128315704122', '5.51745135390266e-05', 0, 7142, '1c59c4a0baecb42624721bc74343e9154992592fff056ffba40d277c0bd16f54'),
    (3, 2): (4, 4, 36, '0.75', '0.75', 0, 7746, '743feae564f84f1eb810d018a6a9a7ef4593bd32263d1da833bd0fb64f9a24dd'),
    (3, 3): (5, 6, 492, '0.013719510558831001', '0.004281534268662692', 0, 5671, 'b882d3d1675888859b6ac9df23fd1915e89c5357a5df29eb115e7369b2e4ed7f'),
    (3, 4): (8, 12, 3084, '0.00504570716470527', '0.000995713608771123', 0, 6062, 'f8072aa6e04960a1a4da504dec6a2afdbeceace5e10c3ca2cbe8d5af9289f5c3'),
    (3, 5): (9, 14, 8764, '0.0023587254757010943', '0.0004675220484391588', 0, 5651, '2e753cfc698703c20334678d1ffd6efc497a413b5ffa10f20022926a1bad4580'),
    (3, 6): (10, 22, 28534, '0.001248828359094019', '0.00021007377596097548', 0, 5820, '195701cfe5565e10dcc59aad3208dfc1e00467658b6b67133febc22cee00362a'),
    (3, 7): (13, 23, 55246, '0.000732543581566099', '0.00011147507196256764', 0, 5647, '1d6df63c03842f82374d9ad5ad8507845a18506cf33e3e76083220adef9b8a6b'),
    (3, 8): (16, 40, 163880, '0.0004597279874332385', '5.51745135390266e-05', 0, 5738, '32c0a7fd561c3814b27c6dc15b1a29d1571d35bc4983a30298610e0aa88546ad'),
}

# random_reparam_system(random.Random(5)), the first six draws
RANDOM_ATLASES = [
    (1, 2, 164, '0.005937624055822901', '0.00862568055764749', 0, 3965, '4085848235548bd3d1af2ffb0be1d3097e6272f0f69579e470fdf8cd82b212ed'),
    (1, 2, 514, '0.0031978127309752716', '0.001580993161538894', 0, 2011, '0b1c824014a67e93af6220b40a126019455ba861ae544559df6b3e4b8ac1a052'),
    (2, 3, 1878, '0.0008179362001506636', '0.0016885458283923465', 0, 7109, '53478e25a763f77ad77f5fe25fcfef8243c2cd633bc07d706eeab675561f6345'),
    (1, 1, 257, '0.00200323521737276', '0.0014363344904691595', 0, 1690, '3923607a35bc2c2760c4597789e8a11ab587c1bdb8eaf3b00b4ae341baf1bb84'),
    (1, 1, 626, '0.003931209126166697', '0.0005598989232528703', 0, 1425, 'a867c456fe015fd649198292d40a30b9f0fcc3d95788c5b18423cb618514cd44'),
    (1, 3, 12291, '0.0001963161694165133', '8.324996354140457e-05', 0, 1579, 'c7f7496ca58f6e5df2dd5c11fd591573c435ce7f0f2cf2bdd07c269e927e599b'),
]


@pytest.fixture
def checked_u_of_q(monkeypatch):
    """Run every u_of_q call of the test against ref_u_of_q as well; yields
    the set of directions (increasing or not) seen."""
    seen = set()
    orig = polyalg._u_of_q

    def checked(p, a, b, qv):
        got = orig(p, a, b, qv)
        assert_same_bits(got, ref_u_of_q(p, a, b, qv))
        seen.add(p.eval_exact(b) > p.eval_exact(a))
        return got

    monkeypatch.setattr(polyalg, "_u_of_q", checked)
    return seen


@pytest.mark.parametrize("m,r", sorted(FIXED_ATLASES))
def test_fixed_atlas_matches_per_call_code(m, r, checked_u_of_q):
    atlas = reparametrize_1d(fixed_reparam_system(m, r), r)
    assert atlas_digest(atlas) == FIXED_ATLASES[(m, r)]


def test_random_atlases_match_per_call_code(checked_u_of_q):
    rng = random.Random(5)
    for want in RANDOM_ATLASES:
        polys, r = random_reparam_system(rng)
        assert atlas_digest(reparametrize_1d(polys, r)) == want
    assert checked_u_of_q == {True, False}


def test_step3_shares_bell_tables_and_cofactors(monkeypatch):
    counts = {"bells": 0, "cofactors": 0}
    orig_bells = BellTable.partial_bells
    orig_cof = polyalg._inverse_cofactors

    def bells(self, inner):
        counts["bells"] += 1
        return orig_bells(self, inner)

    def cofactors(p, r):
        counts["cofactors"] += 1
        return orig_cof(p, r)

    monkeypatch.setattr(BellTable, "partial_bells", bells)
    monkeypatch.setattr(polyalg, "_inverse_cofactors", cofactors)
    atlas = reparametrize_1d(fixed_reparam_system(2, 5), 5)
    inverting = {g.inv_index for g in atlas.groups if g.inv_index >= 0}
    assert inverting
    # one table per step-2 piece (its phi chain) plus one for the Q_r
    # derivatives; one cofactor family per inverting polynomial
    assert counts["bells"] == atlas.step2_count + 1
    assert counts["cofactors"] == len(inverting)


def test_building_an_atlas_runs_no_boundary_solve(monkeypatch):
    lanes = []
    orig = polyalg._u_of_q

    def counted(p, a, b, qv):
        lanes.append(qv.size)
        return orig(p, a, b, qv)

    monkeypatch.setattr(polyalg, "_u_of_q", counted)
    atlas = reparametrize_1d(fixed_reparam_system(2, 5), 5)
    inverse = [g.n3 + 1 for g in atlas.groups if g.kind == "inverse-branch"]
    # the chain solves only: one per inverse-branch piece, on the Q_r samples
    assert lanes == [polyalg._N_SAMPLES] * len(inverse) and inverse
    del lanes[:]
    # coverage is read from the group intervals: verifying solves nothing
    assert verify_atlas(atlas, 10000).coverage_defect == 0
    assert lanes == []


# ---------------------------------------------------------------------------
# integer polynomials against the Fraction code they replaced
# ---------------------------------------------------------------------------

class FracPoly:
    """The Fraction-based Polynomial: a tuple of Fraction coefficients,
    every operation in Fraction arithmetic."""

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return FracPoly([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return FracPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FracPoly):
            return FracPoly([c * Fraction(other) for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return FracPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FracPoly(out)

    def diff(self, order=1):
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(i * c for i, c in enumerate(cs))[1:]
        return FracPoly(cs)

    def compose_affine(self, a, b):
        a, b = Fraction(a), Fraction(b)
        out = FracPoly([])
        lin = FracPoly([a, b])
        for c in reversed(self.coeffs):
            out = out * lin + FracPoly([c])
        return out

    def eval_exact(self, x):
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def float_coeffs(self):
        return np.array([float(c) for c in self.coeffs], dtype=float)


def frac_int_coeffs(p):
    if not p.coeffs:
        return []
    denom = 1
    for c in p.coeffs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = [int(c * denom) for c in p.coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return [v // g for v in ints]


def frac_poly_div_exact(a, b):
    pa = [Fraction(c) for c in a]
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    while len(pa) >= len(b) and any(pa):
        if pa[-1] == 0:
            pa.pop()
            continue
        shift = len(pa) - len(b)
        f = pa[-1] / b[-1]
        out[shift] = f
        for i, bc in enumerate(b):
            pa[shift + i] -= f * bc
        while pa and pa[-1] == 0:
            pa.pop()
    denom = 1
    for c in out:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    return [int(c * denom) for c in out]


def same_poly(p, ref):
    assert p.coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.float_coeffs().tobytes() == ref.float_coeffs().tobytes()
    assert polyalg._int_coeffs(p) == frac_int_coeffs(ref)
    # (nums, den) is canonical: a polynomial rebuilt from its coefficients
    # is equal, with the same hash
    q = Polynomial(ref.coeffs)
    assert q == p and hash(q) == hash(p)


_RATIONALS = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                       st.sampled_from([1, 2, 3, 7, 16, 1 << 16, 3 ** 11, 10 ** 9 + 7]))
_COEFFS = st.lists(_RATIONALS, max_size=9)
_POINT = st.one_of(_RATIONALS, st.floats(-4.0, 4.0).map(Fraction))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=_COEFFS, b=_COEFFS, c=_RATIONALS, x=_POINT, lo=_POINT, width=_POINT)
def test_integer_polynomials_match_fraction_code(a, b, c, x, lo, width):
    p, q, pr, qr = Polynomial(a), Polynomial(b), FracPoly(a), FracPoly(b)
    same_poly(p, pr)
    for got, want in ((p + q, pr + qr), (p - q, pr - qr), (-p, -pr),
                      (p * q, pr * qr), (p * c, pr * c), (3 * p, pr * 3),
                      (p.diff(), pr.diff()), (p.diff(3), pr.diff(3)),
                      (p.compose_affine(lo, width), pr.compose_affine(lo, width)),
                      (p - Polynomial([c]), pr - FracPoly([c]))):
        same_poly(got, want)
    assert p.eval_exact(x) == pr.eval_exact(x)
    assert type(p.eval_exact(x)) is Fraction
    assert (p * q).eval_exact(x) == pr.eval_exact(x) * qr.eval_exact(x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=_COEFFS, b=_COEFFS.filter(lambda cs: any(cs)), k=_RATIONALS)
def test_integer_exact_division_matches_fraction_code(a, b, k):
    b_ints = polyalg._int_coeffs(Polynomial(b))
    for num in (polyalg._int_coeffs(Polynomial(a) * Polynomial(b) * k),
                polyalg._int_coeffs(Polynomial(a)), [5, 0, 0, 0, 0, 0, 0]):
        assert polyalg._poly_div_exact(num, b_ints) == \
            frac_poly_div_exact(num, b_ints)
