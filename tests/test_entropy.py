"""Spanning/tail estimators, closed-form bounds, continuity modulus."""

import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailent import entropy
from tailent.entropy import (_P_CAP, _S_HI, _default_grid, _fold_cycle_centers,
                             _greedy_cover, _greedy_net, _GridOrbits,
                             _modulus_cap, _modulus_holds, _orbit_matrix,
                             _tail_centers, _tail_counts, bound_quasionedim,
                             bound_wmulti, continuity_modulus, eps_entropy,
                             growth_rate_R, power_bound_check, spanning_count,
                             tail_entropy_estimate)
from tailent.errors import (DomainError, ResolutionError, ResourceError,
                            ScaleError, TailentError, UnsupportedOrderError)
from tailent import maps, polyalg
from tailent.maps import (PolynomialMap, _critical_pullbacks, _preimages,
                          identity_map, min_branch_length_iterate,
                          quadratic_map, tent_map)
from test_maps import ref_critical_pullbacks, ref_preimages

F4 = quadratic_map()
TENT = tent_map()
IDENT = identity_map()
QUARTIC3 = PolynomialMap([0, 0, 16, -40, 25], name="three-branch-quartic")
F37 = quadratic_map(3.7)
SNAKE = maps.get_map("snake:eps=0.05")
LOG2 = math.log(2)


# ---------------------------------------------------------------------------
# spanning counts
# ---------------------------------------------------------------------------

def test_identity_spanning_example():
    cover, net = spanning_count(IDENT, 5, 0.25)
    assert cover == 2
    assert net >= cover


def test_spanning_resolution_error():
    with pytest.raises(ResolutionError):
        spanning_count(TENT, 3, 1e-5, grid_bits=10)


def test_spanning_monotonicity():
    prev = 0
    for n in (1, 3, 5, 8):
        cover, _ = spanning_count(TENT, n, 0.04, grid_bits=12)
        assert cover >= prev
        prev = cover
    wide, _ = spanning_count(TENT, 4, 0.1, grid_bits=12)
    narrow, _ = spanning_count(TENT, 4, 0.02, grid_bits=12)
    assert narrow >= wide


@pytest.mark.parametrize("m", [TENT, F4])
def test_spanning_separated_sandwich(m):
    """s_n(2 eps) <= r_n(eps) <= s_n(eps) at a generic scale."""
    eps = 0.2305
    for n in (1, 3, 6):
        cover, net = spanning_count(m, n, eps, grid_bits=12)
        _, net2 = spanning_count(m, n, 2 * eps, grid_bits=12)
        assert net2 <= cover <= net


# ---------------------------------------------------------------------------
# greedy kernels against brute-force oracles
# ---------------------------------------------------------------------------

def _sup_dists(points, k):
    """Sup-metric distances of every point (one per row) to point k."""
    return np.max(np.abs(points - points[k]), axis=1)


def brute_net(points, eps, cap=None):
    """Greedy separated family straight from the definition: scan the
    points in order, keep a point unless an earlier kept point lies
    strictly within eps."""
    centers = []
    for k in range(len(points)):
        near = np.max(np.abs(points[centers] - points[k]), axis=1) < eps
        if near.any():
            continue
        centers.append(k)
        if cap is not None and len(centers) >= cap:
            return cap, True
    return len(centers), False


def brute_cover(points, eps, cap=None):
    """Greedy closed-ball cover straight from the definition: for the first
    uncovered point u, the center is the rightmost point k >= u whose
    closed eps-ball holds every point from u to k; remove that ball."""
    covered = np.zeros(len(points), dtype=bool)
    count = 0
    while not covered.all():
        u = int(np.argmin(covered))
        count += 1
        if cap is not None and count >= cap:
            return cap, True
        # a ball holding u has its center within eps of u
        near_u = np.nonzero(_sup_dists(points, u) <= eps)[0]
        center = max(k for k in near_u if k >= u and
                     np.all(_sup_dists(points[u:k + 1], k - u) <= eps))
        covered |= _sup_dists(points, center) <= eps
    return count, False


def test_orbit_matrix_is_column_store():
    xs = _default_grid(6)
    orb = _orbit_matrix(F4, xs, 5)
    assert orb.shape == (5, xs.size)
    v = xs
    for t in range(5):
        assert np.array_equal(orb[t], v)
        v = F4.evaluate_array(v)


@pytest.fixture
def evaluated_sizes(monkeypatch):
    """The size of every array passed to IntervalMap.evaluate_array."""
    sizes = []
    orig = maps.IntervalMap.evaluate_array

    def evaluate_array(self, xs):
        sizes.append(np.size(xs))
        return orig(self, xs)

    monkeypatch.setattr(maps.IntervalMap, "evaluate_array", evaluate_array)
    return sizes


@pytest.mark.parametrize("m", [TENT, F4, QUARTIC3, SNAKE], ids=lambda m: m.name)
def test_grid_orbit_rows_match_orbit_matrix(m, evaluated_sizes):
    """Rows filled on demand, requested in any order, are bit for bit the
    rows of `_orbit_matrix`, and each row is mapped once."""
    full = _orbit_matrix(m, _default_grid(10), 9)
    del evaluated_sizes[:]
    store = _GridOrbits(m, 10)
    for n in (3, 1, 7, 2, 9, 5):
        rows = store.rows(n, 0.05)
        assert rows.shape == (n, 2 ** 10 + 1)
        assert rows.tobytes() == full[:n].tobytes()
    assert store.filled == 9
    assert evaluated_sizes == [2 ** 10 + 1] * 8


def test_eps_entropy_maps_only_the_rows_up_to_its_knee(evaluated_sizes):
    """The count series stops at the knee, and so does the orbit store: no
    row past the first starved n is mapped.  The counts are those of the
    full orbit matrix."""
    m, eps, ns = maps.get_map("quadratic:4"), 1 / 32, range(1, 13)
    est = eps_entropy(m, eps, ns, grid_bits=15)
    knee = est.ns[est.extra["clean_upto"]]
    assert knee < max(ns)
    assert est.extra["orbit_rows"] == knee
    assert evaluated_sizes == [2 ** 15 + 1] * (knee - 1)
    full = _orbit_matrix(m, _default_grid(15), knee)
    cap = (2 ** 15 + 1) // 16
    assert est.counts[:knee] == [_greedy_net(full, n, eps, cap)[0]
                                 for n in range(1, knee + 1)]
    assert est.counts[knee:] == [cap] * (max(ns) - knee)


def test_continuity_modulus_maps_each_grid_row_once(monkeypatch,
                                                   evaluated_sizes):
    """One orbit store serves every fit and cover of a call, at all its
    scales, so each grid row is mapped at most once."""
    stores, fits = [], []
    fit = entropy._count_series

    class Recorded(_GridOrbits):
        def __init__(self, m, grid_bits):
            super().__init__(m, grid_bits)
            stores.append(self)

    def record_fit(store, eps, n_range):
        fits.append(eps)
        return fit(store, eps, n_range)

    monkeypatch.setattr(entropy, "_GridOrbits", Recorded)
    monkeypatch.setattr(entropy, "_count_series", record_fit)
    m = maps.get_map("quadratic:4")
    continuity_modulus(m, 0.0768, 2.0, lambda t: 1.0 / abs(math.log(t)),
                       grid_bits=12)
    [store] = stores
    assert len(set(fits)) > 1
    assert evaluated_sizes == [2 ** 12 + 1] * (store.filled - 1)


@pytest.mark.parametrize("m", [IDENT, TENT, F4], ids=lambda m: m.name)
@pytest.mark.parametrize("eps", [2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 0.1, 0.0371])
def test_greedy_kernels_match_brute_force(m, eps):
    """Dyadic grid, so first-coordinate gaps are exact; at dyadic eps the
    identity and tent orbits stay dyadic and distances of exactly eps occur,
    which separates the strict (net) from the closed (cover) comparison."""
    orbits = _orbit_matrix(m, _default_grid(8), 6)
    for n in (1, 2, 4, 6):
        points = orbits[:n].T
        assert _greedy_net(orbits, n, eps) == brute_net(points, eps)
        assert _greedy_cover(orbits, n, eps) == brute_cover(points, eps)


def _widen_narrow_widen_grid():
    """Sorted grid of [0, 1] that is sparse, dense, sparse, then denser, so
    the windows of a left-to-right scan widen, narrow and widen past their
    first width."""
    return np.unique(np.concatenate([
        np.linspace(0.0, 0.2, 9), np.linspace(0.2, 0.4, 121),
        np.linspace(0.4, 0.6, 9), np.linspace(0.6, 1.0, 481)]))


@pytest.mark.parametrize("m", [TENT, F4, QUARTIC3], ids=lambda m: m.name)
@pytest.mark.parametrize("eps", [2.0 ** -4, 0.05, 0.0371])
def test_greedy_kernels_match_brute_force_as_windows_change(m, eps):
    """Each kernel call reuses one window buffer, grown when a window is
    wider than any before it; narrower windows between wide ones read only
    the start of the buffer.  The counts match the oracles throughout."""
    grid = _widen_narrow_widen_grid()
    width = grid.searchsorted(grid + eps, side="right") - np.arange(grid.size)
    quarter = grid.size // 4
    assert width[:8].max() < width[20:120].max() > width[125:135].max()
    assert width[-quarter:].max() > width[20:120].max()
    orbits = _orbit_matrix(m, grid, 6)
    for n in range(1, 7):
        points = orbits[:n].T
        assert _greedy_net(orbits, n, eps) == brute_net(points, eps)
        assert _greedy_cover(orbits, n, eps) == brute_cover(points, eps)


def test_greedy_kernels_exact_eps_ties():
    eps = 2.0 ** -4
    for m in (IDENT, TENT):
        points = _orbit_matrix(m, _default_grid(8), 4).T
        assert np.any(_sup_dists(points, 0) == eps)  # the oracle test sees ties
    # points k/256: the strict net keeps every 16th point, the closed balls
    # of the cover span 32 cells each
    orbits = _orbit_matrix(IDENT, _default_grid(8), 4)
    assert _greedy_net(orbits, 4, eps) == (17, False)
    assert _greedy_cover(orbits, 4, eps) == (8, False)


@pytest.mark.parametrize("m", [IDENT, TENT, F4], ids=lambda m: m.name)
def test_greedy_kernels_cap_cuts_scan(m):
    orbits = _orbit_matrix(m, _default_grid(8), 5)
    points = orbits.T
    for cap in (1, 3, 7):
        assert _greedy_net(orbits, 5, 2.0 ** -4, cap=cap) == (cap, True)
        assert _greedy_cover(orbits, 5, 2.0 ** -4, cap=cap) == (cap, True)
        assert brute_net(points, 2.0 ** -4, cap=cap) == (cap, True)
        assert brute_cover(points, 2.0 ** -4, cap=cap) == (cap, True)
    full, capped = _greedy_net(orbits, 5, 2.0 ** -4, cap=10 ** 6)
    assert not capped and (full, False) == brute_net(points, 2.0 ** -4)


def test_capped_cover_matches_spanning_count():
    """The cover of the modulus p loop counts like `spanning_count` below
    its cap and stops at the cap."""
    for n in (1, 3, 6):
        cover, _ = spanning_count(F4, n, 0.03, grid_bits=11)
        orbits = _GridOrbits(F4, 11).rows(n, 0.03)
        assert _greedy_cover(orbits, n, 0.03, cap=cover + 1) == (cover, False)
        assert _greedy_cover(orbits, n, 0.03, cap=cover) == (cover, True)
        assert _greedy_cover(orbits, n, 0.03, cap=cover - 1) == (cover - 1, True)
    with pytest.raises(ResolutionError, match="fewer than 8 grid points"):
        _GridOrbits(TENT, 10).rows(3, 1e-5)


_MODULUS_MAPS = {"tent": TENT, "quadratic:4": F4, "quadratic:3.7": F37}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(sorted(_MODULUS_MAPS)),
       bits=st.integers(9, 12), p=st.integers(1, 10),
       h=st.floats(min_value=0.0, max_value=5.0))
def test_capped_modulus_decision_matches_uncapped(data, name, bits, p, h):
    """The capped cover decides the p_eps test as the full cover does, and
    its cap is the least count at which the test fails.  Targets are drawn
    at and one ulp around the test value of counts near the full one, as
    well as anywhere, infinite and NaN."""
    eps = data.draw(st.floats(min_value=8 / 2 ** bits, max_value=0.5))
    orbits = _GridOrbits(_MODULUS_MAPS[name], bits).rows(p, eps)
    full, _ = _greedy_cover(orbits, p, eps)
    near = math.log(max(full + data.draw(st.integers(-3, 3)), 1)) / p - h
    target = data.draw(st.one_of(
        st.sampled_from([near, math.nextafter(near, -math.inf),
                         math.nextafter(near, math.inf)]),
        st.floats(min_value=-1.0, max_value=10.0),
        st.sampled_from([math.inf, -math.inf, math.nan])))
    cap = _modulus_cap(p, h, target, orbits.shape[1])
    capped, _ = _greedy_cover(orbits, p, eps, cap=cap)
    assert _modulus_holds(capped, p, h, target) == _modulus_holds(full, p, h, target)
    if cap is None:
        assert _modulus_holds(orbits.shape[1], p, h, target)
    else:
        assert not _modulus_holds(cap, p, h, target)
        assert cap == 1 or _modulus_holds(cap - 1, p, h, target)


def test_eps_entropy_rejects_empty_n_range():
    for n_range in (range(1, 1), range(0, 3), range(3, -1, -1), [], [3, 0]):
        with pytest.raises(DomainError):
            eps_entropy(TENT, 0.1, n_range=n_range)


def test_eps_entropy_refuses_a_long_range_before_listing_it():
    """The orbit cap refuses the largest n of a range from its ends, so the
    two million times are never listed."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="over the 1 GiB cap"):
            eps_entropy(TENT, 0.1, range(1, 2 * 10 ** 6), grid_bits=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a descending range reads its largest n from its first end
    with pytest.raises(ResourceError, match="over the 1 GiB cap"):
        eps_entropy(TENT, 0.1, range(2 * 10 ** 6, 0, -1), grid_bits=20)
    down = eps_entropy(TENT, 0.1, range(6, 0, -1), grid_bits=10)
    assert down.ns == [6, 5, 4, 3, 2, 1]
    assert down.counts == eps_entropy(TENT, 0.1, [6, 5, 4, 3, 2, 1],
                                      grid_bits=10).counts


def test_eps_entropy_resolution_error_text():
    with pytest.raises(ResolutionError,
                       match=r"fewer than 8 grid points per eps=1e-05 at grid size 1025"):
        eps_entropy(TENT, 1e-5, grid_bits=10)


def test_eps_entropy_reports_knee():
    est = eps_entropy(TENT, 2.0 ** -5, grid_bits=10, n_range=range(1, 13))
    knee = est.extra["clean_upto"]
    assert est.saturated and knee is not None
    cap = 64  # max(64, grid size // 16) at 2^10 cells
    assert est.counts[knee] >= cap
    assert all(c < cap for c in est.counts[:knee])
    assert est.counts[knee:] == [est.counts[knee]] * (len(est.ns) - knee)
    flat = eps_entropy(IDENT, 0.1, grid_bits=10)
    assert not flat.saturated and flat.extra["clean_upto"] is None


def test_eps_entropy_identity_zero():
    est = eps_entropy(IDENT, 0.1)
    assert est.slope == pytest.approx(0.0, abs=1e-9)
    assert len(set(est.counts)) == 1  # counts constant in n


def test_eps_entropy_tent_slope():
    est = eps_entropy(TENT, 2.0 ** -6, grid_bits=16, n_range=range(1, 13))
    assert est.slope == pytest.approx(LOG2, abs=0.05)
    # paper sandwich at this scale, natural logs
    alog = 6 * LOG2
    assert LOG2 - math.log(4) / alog - 0.05 <= est.slope <= LOG2 + 0.02


def test_eps_entropy_counts_nondecreasing_before_knee():
    est = eps_entropy(F4, 2.0 ** -5, grid_bits=14)
    knee = est.counts.index(max(est.counts))
    assert all(a <= b for a, b in zip(est.counts[:knee], est.counts[1:knee + 1]))


def test_eps_entropy_nondecreasing_as_eps_shrinks():
    coarse = eps_entropy(F4, 2.0 ** -5, grid_bits=16, n_range=range(1, 13))
    fine = eps_entropy(F4, 2.0 ** -8, grid_bits=16, n_range=range(1, 13))
    assert fine.slope >= coarse.slope - 0.03


# ---------------------------------------------------------------------------
# tail entropy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [F4, F37, QUARTIC3], ids=lambda m: m.name)
def test_preimages_match_per_branch_loop(m):
    """A grid of targets, random targets, the images of 0 and 1 and the
    critical points give the bytes of 52 plain halvings per branch."""
    rng = np.random.default_rng(3)
    ys = np.concatenate([np.linspace(0.0, 1.0, 513), rng.random(300),
                         m.evaluate_array(np.array([0.0, 1.0])),
                         np.asarray(m.critical_points)])
    got = _preimages(m, ys, math.inf)
    want = ref_preimages(m, ys)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.floats(3.0, 4.0).map(quadratic_map),
                 st.sampled_from([QUARTIC3, SNAKE])),
       st.integers(1, 5000), st.integers(0, 2 ** 32 - 1))
def test_preimages_match_per_branch_loop_any_targets(m, size, seed):
    """Any number of targets, from 1 (no shared tree top) to 5,000 (a top
    of depth 12 when one branch gets them all), give the bytes of 52 plain
    halvings per branch.  The targets are images of random points, branch
    end values, critical values, 0 and 1, with repeats."""
    rng = np.random.default_rng(seed)
    branches, _, _ = m.monotone_partition()
    special = np.concatenate([
        m.evaluate_array(np.array(branches).ravel()),
        m.evaluate_array(np.asarray(m.critical_points)), [0.0, 1.0]])
    pool = np.concatenate([m.evaluate_array(rng.random(size)), special])
    ys = rng.choice(pool, size)
    got = _preimages(m, ys, math.inf)
    want = ref_preimages(m, ys)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [F4, F37, QUARTIC3, SNAKE], ids=lambda m: m.name)
def test_preimages_match_per_branch_loop_at_branch_ends(m):
    """Targets exactly at each branch's image endpoints, each repeated,
    pulled back in one call give the per-branch loop's bytes."""
    branches, _, _ = m.monotone_partition()
    ends = m.evaluate_array(np.array(branches).ravel())
    ys = np.concatenate([ends, ends[::-1], np.repeat([0.25, 0.5, 0.75], 3)])
    got = _preimages(m, ys, math.inf)
    want = ref_preimages(m, ys)
    assert got.size == want.size >= 2 * ends.size
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def ref_fold_cycle_centers(m, eps, q_max=None, point_cap=1 << 14):
    """Fold-cycle centers one bracket at a time: a scalar 60-step bisection
    of f^q(y) - y on each bracket next to a critical point, iterating f^q
    on a one-point array."""
    crit = sorted(m.critical_points)
    if not crit:
        return []
    if q_max is None:
        q_max = min(28, int(abs(math.log(eps)) / math.log(2)) + 6)

    def g(y, q):
        v = np.array([y])
        for _ in range(q):
            v = m.evaluate_array(v)
        return float(v[0]) - y

    centers = []
    base = np.asarray(crit, dtype=float)
    cur = base.copy()
    for q in range(1, q_max + 1):
        pts = np.unique(np.concatenate([[0.0], cur, [1.0]]))
        for c in crit:
            j = int(np.searchsorted(pts, c))
            sides = [(float(pts[j - 1]), c)] if j > 0 else []
            if j + 1 < pts.size:
                sides.append((c, float(pts[j + 1])))
            for lo, hi in sides:
                if hi - lo < 1e-13:
                    continue
                glo, ghi = g(lo, q), g(hi, q)
                if glo == 0.0:
                    y = lo
                elif ghi == 0.0:
                    y = hi
                elif glo * ghi < 0:
                    a, b, ga = lo, hi, glo
                    for _ in range(60):
                        mid = 0.5 * (a + b)
                        gm = g(mid, q)
                        if ga * gm <= 0:
                            b = mid
                        else:
                            a, ga = mid, gm
                    y = 0.5 * (a + b)
                else:
                    continue
                if abs(y - c) < 0.999 * eps:
                    centers.append(y)
        if q < q_max:
            cur = np.unique(np.concatenate([base, ref_preimages(m, cur)]))
            if cur.size > point_cap:
                break
    return centers


def ref_ball_piece_lengths(m, x, eps, ns, stride, piece_cap):
    """Piece length-maxima of the balls B_n(f^stride, x, eps) of one
    center, for each n in ns; returns (lengths per n, cut macro time)."""
    crit = np.asarray(m.critical_points, dtype=float)
    n_micro = max(ns) * stride
    center = _orbit_matrix(m, np.array([x]), n_micro + 1)[:, 0]
    lo, hi, lmax = np.array([0.0]), np.array([1.0]), np.array([0.0])
    out = []
    cut = None
    macro = 0
    for t in range(n_micro):
        if t % stride == 0:
            lo = np.maximum(lo, center[t] - eps)
            hi = np.minimum(hi, center[t] + eps)
            keep = hi - lo > 0
            lo, hi, lmax = lo[keep], hi[keep], lmax[keep]
            if lo.size == 0:
                lo, hi, lmax = center[t:t + 1], center[t:t + 1], np.array([0.0])
            lmax = np.maximum(lmax, hi - lo)
            macro += 1
            if macro in ns:
                out.append(lmax.copy())
                if macro == max(ns):
                    break
        for c in crit:
            split = (lo < c) & (hi > c)
            if np.any(split):
                lo = np.concatenate([lo, np.full(split.sum(), c)])
                hi = np.concatenate([hi, hi[split]])
                lmax = np.concatenate([lmax, lmax[split]])
                hi[np.nonzero(split)[0]] = c
        fa, fb = m.evaluate_array(lo), m.evaluate_array(hi)
        lo, hi = np.minimum(fa, fb), np.maximum(fa, fb)
        if lo.size > piece_cap:
            cut = macro
            break
    while len(out) < len(ns):
        out.append(out[-1] if out else np.array([0.0]))
    return out, cut


def ref_tail_counts(m, centers, eps, ns, deltas, stride, piece_cap):
    """Sup over centers of the per-center pullback counts, one center at a
    time; returns (sup_counts, earliest cut)."""
    sup = np.ones((len(ns), len(deltas)))
    cut = None
    for x in centers:
        lengths, c = ref_ball_piece_lengths(m, x, eps, ns, stride, piece_cap)
        if c is not None:
            cut = c if cut is None else min(cut, c)
        for i, lens in enumerate(lengths):
            for j, d in enumerate(deltas):
                sup[i, j] = max(sup[i, j],
                                float(np.sum(np.maximum(np.ceil(lens / (2 * d)), 1.0))))
    return sup, cut


TAIL_MAPS = [TENT, F4, F37, IDENT]
_FOLD_MAKERS = {
    "tent": tent_map,
    "quadratic:4": quadratic_map,
    "quadratic:3.7": lambda: quadratic_map(3.7),
    "identity": identity_map,
    "three-branch-quartic": lambda: PolynomialMap(QUARTIC3.poly,
                                                  name=QUARTIC3.name),
}
_FOLD_EPS = (2.0 ** -4, 0.0371, 2.0 ** -6, 2.0 ** -9)
_FOLD_CAPS = (40, 1 << 14)


@pytest.mark.parametrize("spec", sorted(_FOLD_MAKERS))
def test_fold_cycle_centers_match_scalar_bisection(monkeypatch, spec):
    """Each pullback cap on its own map, since a map keeps one solve."""
    for cap in _FOLD_CAPS:
        monkeypatch.setattr(entropy, "_FOLD_POINT_CAP", cap)
        m = _FOLD_MAKERS[spec]()
        for eps in (2.0 ** -4, 0.0371, 2.0 ** -6):
            got = _fold_cycle_centers(m, eps)
            assert got == ref_fold_cycle_centers(m, eps, point_cap=cap)
    assert len(_fold_cycle_centers(tent_map(), 2.0 ** -4)) > 0


@pytest.mark.parametrize("m", [F4, QUARTIC3], ids=lambda m: m.name)
def test_fold_cycle_evaluate_reads_each_lane_period(monkeypatch, m):
    """Every bracket bisected alone, last lane first, gives the batched
    answer: the evaluate callback reads each lane's period through the
    lane indices it is given, not through the lanes' positions."""
    from tailent import polyalg
    batched = _fold_cycle_centers(m, 2.0 ** -6)
    entered = []

    def lane_by_lane(evaluate, lo, hi, target, increasing, steps):
        entered.append(lo.size)
        out = np.empty_like(lo)
        for j in reversed(range(lo.size)):
            out[j:j + 1] = polyalg._bisect(
                lambda x, lane: evaluate(x, lane + j), lo[j:j + 1],
                hi[j:j + 1], target, increasing[j:j + 1], steps)
        return out

    monkeypatch.setattr(entropy, "_bisect", lane_by_lane)
    # m keeps its centers per scale, so the patched solve runs on a fresh map
    fresh = PolynomialMap(m.poly, name=m.name)
    assert _fold_cycle_centers(fresh, 2.0 ** -6) == batched
    assert len(entered) == 1 and entered[0] > 0


@pytest.mark.parametrize("spec", sorted(_FOLD_MAKERS))
def test_fold_cycle_centers_in_any_scale_order(monkeypatch, spec):
    """One map answers each scale as the scalar reference does, whatever
    order the scales come in: the kept roots of a smaller eps serve a
    larger one, and a larger eps never cuts what a smaller one reads."""
    make = _FOLD_MAKERS[spec]
    ref_map = make()
    want = {(eps, cap): ref_fold_cycle_centers(ref_map, eps, point_cap=cap)
            for eps in _FOLD_EPS for cap in _FOLD_CAPS}
    orders = {
        "eps descending": _FOLD_EPS,
        "eps ascending": sorted(_FOLD_EPS),
        "repeated": (2.0 ** -6, 2.0 ** -9, 2.0 ** -6, 2.0 ** -4, 2.0 ** -9,
                     0.0371, 2.0 ** -4),
    }
    for cap in _FOLD_CAPS:
        monkeypatch.setattr(entropy, "_FOLD_POINT_CAP", cap)
        for name, order in orders.items():
            m = make()
            for eps in order:
                assert _fold_cycle_centers(m, eps) == want[eps, cap], \
                    (name, eps, cap)


@pytest.fixture
def bisect_calls(monkeypatch):
    """Record the lane count of every fold-cycle bisection."""
    calls = []
    orig = entropy._bisect

    def counted(evaluate, lo, *args):
        calls.append(lo.size)
        return orig(evaluate, lo, *args)

    monkeypatch.setattr(entropy, "_bisect", counted)
    return calls


def test_fold_cycle_sweep_smallest_eps_first_solves_once(bisect_calls):
    """Seven scales, smallest eps first: the first solve covers every period
    the later ones read.  Largest eps first, each scale reads a new period
    bound (7, 8, ..., 13) and solves again, and every answer is the same."""
    sweep = [1.01 * 2.0 ** -k for k in range(2, 9)]
    first = quadratic_map()
    small_first = {eps: _fold_cycle_centers(first, eps)
                   for eps in sorted(sweep)}
    assert len(bisect_calls) == 1
    bisect_calls.clear()
    last = quadratic_map()
    for eps in sweep:
        assert _fold_cycle_centers(last, eps) == small_first[eps]
    assert len(bisect_calls) == 7


def test_fold_cycle_point_cap_stop_ends_the_solves(monkeypatch, bisect_calls):
    """Once the point cap stops the pullback, no larger period has a
    bracket, so no smaller eps solves again."""
    monkeypatch.setattr(entropy, "_FOLD_POINT_CAP", 40)
    m = quadratic_map()
    for eps in (0.4, 2.0 ** -6, 2.0 ** -12, 2.0 ** -30):
        assert _fold_cycle_centers(m, eps) == \
            ref_fold_cycle_centers(m, eps, point_cap=40)
    assert len(bisect_calls) == 1


_CAP_MAPS = ("quadratic:4", "quadratic:3.9", "quadratic:3.7", "poly:[0,4,-4]",
             "poly:[0,9,-24,16]", "poly:[0.05,3.6,-3.6]", "snake:eps=0.05")


@pytest.mark.parametrize("spec", _CAP_MAPS)
def test_fold_cycle_solves_match_oracles_that_build_the_over_cap_level(spec):
    """q_solved, the roots and every level the walk yields equal the
    oracles, which build each level in full, the one over the point cap
    too; the walk yields the levels before the cap and no more."""
    for q_max in (12, 15, 20, 28):
        m = maps.get_map(spec)
        q_solved, _, _, ys = entropy._solve_fold_cycles(m, q_max)
        # eps = 2 keeps every root of every period up to q_max
        assert ys.tolist() == ref_fold_cycle_centers(m, 2.0, q_max)
        kept = list(islice(_critical_pullbacks(m, entropy._FOLD_POINT_CAP),
                           q_max))
        want = ref_critical_pullbacks(m, len(kept) + 1)
        for level, ref in zip(kept, want):
            assert level.tobytes() == ref.tobytes()
        if len(kept) < q_max:
            assert want[-1].size > entropy._FOLD_POINT_CAP
            assert q_solved == entropy._FOLD_Q_CAP
        else:
            assert len(kept) == q_max and q_solved == q_max


def ref_lanes(m, ys):
    """The lanes of a pullback of ys: one per target and monotone branch
    whose image holds it, each branch's image read from its end values."""
    branches, _, _ = m.monotone_partition()
    ends = m.evaluate_array(np.array(branches).ravel())
    return sum(int(((ys >= min(fa, fb)) & (ys <= max(fa, fb))).sum())
               for fa, fb in zip(ends[0::2], ends[1::2]))


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.floats(3.0, 4.0).map(quadratic_map), st.just(QUARTIC3)),
       st.integers(1, 4096))
@example(quadratic_map(4.0), 4096)
@example(quadratic_map(4.0), 4094)
@example(QUARTIC3, 3307)
@example(quadratic_map(3.0), 68)
@example(quadratic_map(1 + math.sqrt(5)), 6)
def test_pullback_walk_ends_where_the_full_construction_passes_its_cap(m, cap):
    """Every level of the walk (at most 40) equals the level built in full,
    byte for byte.  Level k + 1 is solved exactly when the lanes of the
    points level k added fit in cap - |level k|; where each of those lanes
    adds a point, that is exactly when the full level k + 1 holds at most
    cap points, so the walk ends where a point count would end it.

    The examples put the cap on the size of a level, where the two rules
    could part.  At quadratic:4 (cap 2^12 - 2) and the quartic (cap 3,307)
    no lanes collide.  They do at a = 3 (level 34, cap 68): a lane rounds
    to 1.0, which level 33 already holds.  At the superstable period-2
    parameter 1 + sqrt(5) (level 2, cap 6) the lane for the critical value
    on the right branch lands on the critical point.  There the walk ends
    one level before a point count would end it."""
    got = list(islice(_critical_pullbacks(m, cap), 40))
    want = ref_critical_pullbacks(m, len(got) + 1)
    for level, ref in zip(got, want):
        assert level.tobytes() == ref.tobytes()
    # a walk of 40 levels was never asked for level 40
    for k in range(min(len(got), 39)):
        new = want[k][~np.isin(want[k], want[k - 1])] if k else want[k]
        lanes = ref_lanes(m, new)
        solved = k + 1 < len(got)
        assert solved == (lanes <= cap - want[k].size)
        if lanes == want[k + 1].size - want[k].size:
            assert solved == (want[k + 1].size <= cap)


@pytest.fixture
def pullback_lanes(monkeypatch):
    """Record the lane count of every bisection `maps._preimages` runs."""
    lanes = []
    orig = polyalg._bisect

    def counted(evaluate, lo, *args):
        lanes.append(lo.size)
        return orig(evaluate, lo, *args)

    monkeypatch.setattr(polyalg, "_bisect", counted)
    return lanes


def test_fold_cycle_pullback_probes_the_over_cap_level(preimage_calls,
                                                       pullback_lanes):
    """The walk counts a level's lanes before it solves any.  quadratic:4
    level k holds 2^(k+1) - 1 points: levels 1-13 pull back their 2^(k-1)
    new targets, two lanes each, and the 8,192 targets of level 14 give
    16,384 lanes for a room of one point, so they are refused before any
    bisection.  The three-branch cubic solves the 6,558 lanes of its levels
    1-7 and none of level 8, which would hold 19,682 points."""
    q_solved, _, _, _ = entropy._solve_fold_cycles(quadratic_map(), 15)
    assert q_solved == entropy._FOLD_Q_CAP
    assert preimage_calls == [2 ** j for j in range(14)]
    assert len(pullback_lanes) == 13 and sum(pullback_lanes) == 2 ** 14 - 2
    preimage_calls.clear()
    pullback_lanes.clear()
    cubic = maps.get_map("poly:[0,9,-24,16]")
    assert entropy._solve_fold_cycles(cubic, 15)[0] == entropy._FOLD_Q_CAP
    assert len(preimage_calls) == 8 and len(pullback_lanes) == 7
    assert sum(pullback_lanes) == 6558


def test_branch_length_cap_probes_the_over_cap_level(preimage_calls,
                                                     pullback_lanes):
    """min_branch_length_iterate raises at its 2^17 cap after solving the
    2^17 - 2 lanes of levels 1-16; the 2^16 targets of level 17 are refused
    before any bisection."""
    m = quadratic_map()
    with pytest.raises(ResourceError,
                       match=r"^branch explosion beyond 131072 points$"):
        min_branch_length_iterate(m, 1e-13)
    assert preimage_calls == [2 ** j for j in range(17)]
    assert len(pullback_lanes) == 16 and sum(pullback_lanes) == 2 ** 17 - 2


def test_pullback_walk_stops_solving_at_a_level_that_adds_no_point(
        preimage_calls):
    """The 37 critical points of snake:eps=0.05 have no preimage: its image
    is tiny.  Level 1 pulls them back with no lane and adds no point, so it
    is every later level: a 28-level walk calls `_preimages` once, at a cap
    of 37 (no room) and at 2^14 alike.  Every level equals the full
    construction."""
    m = maps.get_map("snake:eps=0.05")
    want = ref_critical_pullbacks(m, 28)
    for cap in (37, 1 << 14):
        preimage_calls.clear()
        got = list(islice(_critical_pullbacks(m, cap), 28))
        assert preimage_calls == [37] and len(got) == 28
        for level, ref in zip(got, want):
            assert level.size == 37 and level.tobytes() == ref.tobytes()


def test_preimages_room_counts_lanes_not_targets(pullback_lanes):
    """f = 0.05 + 3.6 x (1 - x) maps onto [0.05, 0.95], so the ten targets
    below 0.05 have no preimage and no lane, and 0.3 and 0.6 have two lanes
    each: a room of 4 solves them, a room of 3 is refused before any
    bisection.  The tent map counts its lanes per segment the same way."""
    m = maps.get_map("poly:[0.05,3.6,-3.6]")
    ys = np.concatenate([np.linspace(0.0, 0.04, 10), [0.3, 0.6]])
    got = _preimages(m, ys, 4)
    assert got.size == 4 and got.tobytes() == ref_preimages(m, ys).tobytes()
    assert len(pullback_lanes) == 1
    assert _preimages(m, ys, 3) is None
    assert len(pullback_lanes) == 1
    ys = np.array([0.25, 0.5, 1.0])
    assert _preimages(TENT, ys, 6).tobytes() == ref_preimages(TENT, ys).tobytes()
    assert _preimages(TENT, ys, 5) is None


def test_fold_cycle_solve_that_raises_keeps_nothing(monkeypatch):
    """A pullback that fails part way keeps no roots on the map, and the
    next call solves from the start."""
    m = quadratic_map()
    real = entropy._critical_pullbacks

    def failing(m, cap):
        levels = real(m, cap)
        for _ in range(3):
            yield next(levels)
        raise ResourceError("branch explosion beyond 7 points")

    monkeypatch.setattr(entropy, "_critical_pullbacks", failing)
    with pytest.raises(ResourceError):
        _fold_cycle_centers(m, 2.0 ** -6)
    assert m._fold_cycles is None
    monkeypatch.setattr(entropy, "_critical_pullbacks", real)
    assert _fold_cycle_centers(m, 2.0 ** -6) == ref_fold_cycle_centers(
        quadratic_map(), 2.0 ** -6)
    assert m._fold_cycles[0] == 12     # every period eps = 2^-6 reads


_POWER_REPORTS = {
    ("tent", 2): (0.09558867345761507, 0.1939578378335734,
                  0.1169789189167867),
    ("tent", 3): (0.09558867345761507, 0.3295970437173213,
                  0.1298656812391071),
    ("quadratic:4", 2): (0.10220727549735838, 0.20710522456645922,
                         0.12355261228322961),
    ("quadratic:4", 3): (0.10220727549735838, 0.34657359027997264,
                         0.1355245300933242),
}


@pytest.mark.parametrize("spec, p", sorted(_POWER_REPORTS))
def test_power_bound_check_solves_fold_cycles_once(monkeypatch, spec, p):
    """The two estimates of one power_bound_check share the map's
    fold-cycle centers: the period bisection runs once, and the report is
    the one pinned before the centers were kept."""
    calls = []
    orig = entropy._bisect

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(entropy, "_bisect", counted)
    rep = power_bound_check(maps.get_map(spec), 2.0 ** -6, p)
    assert len(calls) == 1
    est_f, est_fp, bound = _POWER_REPORTS[spec, p]
    assert rep == {"map": spec, "eps": 2.0 ** -6, "p": p, "est_f": est_f,
                   "est_fp": est_fp, "bound": bound, "holds": True}


def test_power_bound_check_work_reaches_traced_names(monkeypatch,
                                                    preimage_calls):
    """The benchmark tracer wraps `tail_entropy_estimate` and
    `IntervalMap.evaluate_array` by name.  One power_bound_check enters the
    estimate twice, and every map evaluation of its pullback, fold-cycle and
    tail solves goes through evaluate_array (one `_eval_array` call each)."""
    m = quadratic_map()
    tails, evals, raw = [], [], []
    orig_tail = entropy.tail_entropy_estimate
    orig_eval = maps.IntervalMap.evaluate_array
    orig_raw = PolynomialMap._eval_array

    def tail(*args, **kwargs):
        tails.append(args[1])
        return orig_tail(*args, **kwargs)

    def evaluate_array(self, xs):
        evals.append(1)
        return orig_eval(self, xs)

    def eval_raw(self, xs):
        raw.append(1)
        return orig_raw(self, xs)

    monkeypatch.setattr(entropy, "tail_entropy_estimate", tail)
    monkeypatch.setattr(maps.IntervalMap, "evaluate_array", evaluate_array)
    monkeypatch.setattr(PolynomialMap, "_eval_array", eval_raw)
    power_bound_check(m, 2.0 ** -6, 2)
    assert tails == [2.0 ** -6, 2.0 ** -6]
    assert preimage_calls
    assert len(evals) == len(raw) > 0


@pytest.fixture
def preimage_calls(monkeypatch):
    """Count the targets of each _preimages call that builds a pullback
    level."""
    calls = []
    orig = maps._preimages

    def counted(m, ys, room):
        calls.append(ys.size)
        return orig(m, ys, room)

    monkeypatch.setattr(maps, "_preimages", counted)
    return calls


@pytest.mark.parametrize("m", TAIL_MAPS, ids=lambda m: m.name)
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_tail_counts_match_per_center_pullback(m, stride):
    """The batched pullback against the per-center loop, bit for bit, with
    piece caps small enough to freeze centers and one that never fires."""
    ns = list(range(1, 16 // stride + 1))
    for eps in (2.0 ** -3, 2.0 ** -4):
        deltas = [eps / 2 ** j for j in range(1, 5)]
        centers, _ = _tail_centers(m, 40, eps=eps)
        for piece_cap in (2, 3, 5, 1 << 14):
            got, cut = _tail_counts(m, centers, eps, ns, deltas, stride=stride,
                                    piece_cap=piece_cap)
            want, want_cut = ref_tail_counts(m, centers, eps, ns, deltas,
                                             stride, piece_cap)
            assert np.array_equal(got, want)
            assert cut == want_cut
            if m is not IDENT and piece_cap <= 5 and eps == 2.0 ** -3:
                assert cut is not None  # the cap fires
        assert cut is None


def test_tail_counts_partial_ns():
    """n_range need not start at 1; a cap firing before the first recorded
    n leaves the frozen center at count 1."""
    eps = 2.0 ** -5
    centers, _ = _tail_centers(F4, 20, eps=eps)
    for ns in ([4, 5, 6, 9], [7]):
        for piece_cap in (2, 1 << 14):
            got, cut = _tail_counts(F4, centers, eps, ns, [eps / 4], stride=2,
                                    piece_cap=piece_cap)
            want, want_cut = ref_tail_counts(F4, centers, eps, ns, [eps / 4],
                                             2, piece_cap)
            assert np.array_equal(got, want) and cut == want_cut


def test_tail_counts_reseed_collapsed_balls():
    """Below the float resolution every window collapses to the center, so
    each ball is the reseeded degenerate piece and counts stay at 1."""
    eps = 1e-18
    centers, _ = _tail_centers(TENT, 8)
    got, cut = _tail_counts(TENT, centers, eps, [1, 2, 3], [eps / 2], stride=1,
                            piece_cap=1 << 14)
    want, want_cut = ref_tail_counts(TENT, centers, eps, [1, 2, 3], [eps / 2],
                                     1, 1 << 14)
    assert np.array_equal(got, want) and np.all(got == 1.0)
    assert cut is None and want_cut is None


def test_tail_reports_centers_and_knee(monkeypatch):
    eps = 2.0 ** -5
    est = tail_entropy_estimate(TENT, eps, n_range=range(1, 13))
    centers, _ = _tail_centers(TENT, 40, eps=eps)
    assert est.extra["centers"] == len(centers)
    assert est.extra["fold_cycle_error"] is None
    assert est.extra["clean_upto"] is None and not est.saturated
    monkeypatch.setattr(entropy, "_PIECE_CAP", 3)
    capped = tail_entropy_estimate(TENT, eps, n_range=range(1, 13))
    knee = capped.extra["clean_upto"]
    assert capped.saturated and 0 < knee < len(capped.ns)
    # frozen counts carry forward past the knee
    assert capped.counts[knee:] == [capped.counts[knee - 1]] * (12 - knee)


def test_inflection_is_not_a_critical_point():
    """f' = 3 (2x - 1)^2 vanishes at 1/2 without changing sign: f is
    monotone, L(f) = 1, and a ball around 1/2 is not split there."""
    m = PolynomialMap([0, 3, -6, 4])
    assert m.critical_points == []
    assert m.monotone_partition() == ([(0.0, 1.0)], 1.0, 1)
    assert maps.min_branch_length_iterate(m, 0.6) == (32, True)
    est = tail_entropy_estimate(m, 0.125, n_range=range(1, 13))
    assert est.counts[-1] == 16


def test_tail_reports_fold_cycle_error(monkeypatch):
    def explode(m, eps):
        raise ResourceError("branch explosion beyond 7 points")

    monkeypatch.setattr(entropy, "_fold_cycle_centers", explode)
    est = tail_entropy_estimate(F4, 2.0 ** -4, n_range=range(1, 9))
    assert est.extra["fold_cycle_error"] == "branch explosion beyond 7 points"
    grid_and_structure, _ = _tail_centers(F4, 40)  # no fold-cycle centers
    assert est.extra["centers"] == len(grid_and_structure)


def test_tail_rejects_empty_n_range():
    with pytest.raises(DomainError):
        tail_entropy_estimate(TENT, 0.1, n_range=range(1, 1))


def test_tail_identity_zero():
    est = tail_entropy_estimate(IDENT, 0.1)
    assert est.rate == 0.0
    assert est.residual == 0.0


def test_tail_delta_schedule_and_residual():
    est = tail_entropy_estimate(TENT, 2.0 ** -4)
    assert est.delta == 2.0 ** -8
    assert len(est.extra["delta_slopes"]) == 4
    assert est.residual >= 0.0


def test_tail_tent_bracket_single_scale():
    k = 5
    est = tail_entropy_estimate(TENT, 2.0 ** -k)
    assert 0.8 * LOG2 <= est.rate * k <= 1.2 * math.log(4)


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if an orbit, a tail center or a pullback is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("_default_grid", "_orbit_matrix", "_tail_centers",
                 "_tail_counts"):
        monkeypatch.setattr(entropy, name, refuse)


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf], ids=repr)
def test_tail_scales_outside_zero_inf_raise_scale_error(no_work, eps):
    with pytest.raises(ScaleError, match="need 0 < eps < inf"):
        tail_entropy_estimate(TENT, eps)
    with pytest.raises(ScaleError, match="need 0 < eps < inf"):
        power_bound_check(TENT, eps, 2)


def test_tail_scales_whose_least_delta_rounds_to_0_raise_scale_error(
        monkeypatch):
    """The least delta eps/16 must be positive: at 5e-324 and 2.5e-323 it
    rounds to 0 and both functions refuse before any tail center is
    built, while 5e-323 / 16 rounds up to the least subnormal and runs."""
    assert tail_entropy_estimate(TENT, 5e-323, range(1, 5)).delta == 5e-324

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(entropy, "_tail_centers", refuse)
    for eps in (5e-324, 2.5e-323):
        with pytest.raises(ScaleError, match="eps/16 rounds to 0"):
            tail_entropy_estimate(TENT, eps)
        with pytest.raises(ScaleError, match="eps/16 rounds to 0"):
            power_bound_check(TENT, eps, 2)


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan], ids=repr)
def test_grid_scales_not_above_zero_raise_domain_error(no_work, eps):
    with pytest.raises(DomainError, match="eps must be positive"):
        spanning_count(TENT, 3, eps)
    with pytest.raises(DomainError, match="eps must be positive"):
        eps_entropy(TENT, eps)


def test_remark_bound_tail_below_log2_over_p(monkeypatch):
    monkeypatch.setattr(maps, "_BRANCH_P_CAP", 16)
    for m in (TENT, F4):
        eps = 2.0 ** -6
        p_eps, _ = min_branch_length_iterate(m, eps)
        est = tail_entropy_estimate(m, eps)
        assert est.rate <= LOG2 / p_eps + 0.05


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def test_bound_quasionedim_values():
    assert bound_quasionedim(F4, 0.01) == pytest.approx(
        math.log(8) / math.log(100), rel=1e-12)
    assert bound_quasionedim(IDENT, 0.1) == 0.0
    with pytest.raises(ScaleError):
        bound_quasionedim(F4, 1.5)


def test_bounds_take_log_plus_of_a_zero_norm():
    # a constant map has ||f'|| = 0, and log+ 0 = 0
    const = PolynomialMap([0.5])
    assert bound_quasionedim(const, 0.1) == 0.0
    assert bound_wmulti(const, 0.1) == 0.0


def test_bound_quasionedim_needs_smoothness():
    with pytest.raises(UnsupportedOrderError):
        bound_quasionedim(TENT, 0.01)  # 2-modal but only C^0 at the kink


def test_bound_wmulti_values():
    assert bound_wmulti(F4, 0.01) == pytest.approx(
        LOG2 * math.log(4) / math.log(12.5), rel=1e-10)
    assert bound_wmulti(F4, 0.2) == math.inf  # w = 1.6 >= 1: sentinel
    with pytest.raises(ScaleError):
        bound_wmulti(F4, 0.7)  # eps >= L(f)
    with pytest.raises(ScaleError):
        bound_wmulti(QUARTIC3, 0.3)


def test_bounds_dominate_tail_estimates():
    for m in (F4, QUARTIC3):
        for k in (4, 5, 6):
            eps = 2.0 ** -k
            est = tail_entropy_estimate(m, eps)
            assert est.rate <= bound_quasionedim(m, eps) * 1.1
            assert est.rate <= bound_wmulti(m, eps) * 1.1


def test_growth_rate_examples():
    assert growth_rate_R(IDENT) == pytest.approx(0.0, abs=1e-12)
    assert growth_rate_R(TENT) == pytest.approx(LOG2, abs=1e-9)
    r4 = growth_rate_R(F4)
    assert LOG2 - 1e-9 <= r4 <= math.log(4) + 1e-9


def test_power_bound_identity_trivial():
    rep = power_bound_check(IDENT, 2.0 ** -6, 2)
    assert rep["holds"] and rep["est_f"] == 0.0 and rep["est_fp"] == 0.0


def test_power_bound_tent():
    rep = power_bound_check(TENT, 2.0 ** -6, 2)
    assert rep["holds"]
    with pytest.raises(DomainError):
        power_bound_check(TENT, 0.1, 1)


def test_rrrem_direction_bounded():
    """(log2 - h(f4, eps)) |log eps| / sqrt(eps) stays bounded on the spec
    schedule; the cap is frozen from the oracle run of this estimator."""
    vals = []
    for k in range(4, 10):
        eps = 2.0 ** -k
        est = eps_entropy(F4, eps, grid_bits=16, n_range=range(1, 13))
        vals.append((LOG2 - est.slope) * abs(math.log(eps)) / math.sqrt(eps))
    assert max(vals) < 16.0, vals


# ---------------------------------------------------------------------------
# continuity modulus
# ---------------------------------------------------------------------------

def test_continuity_modulus_identity():
    eps = 0.1
    hloc = lambda t: 1.0 / abs(math.log(t))  # noqa: E731
    p_eps, n_eps, bound, capped = continuity_modulus(IDENT, eps, 2.0, hloc,
                                                     grid_bits=12)
    # direct search oracle: h = 0 and r_p is constant in p
    r1, _ = spanning_count(IDENT, 1, eps / 4, grid_bits=12)
    expected = next(p for p in range(1, 64)
                    if math.log(r1) / p <= hloc(eps))
    assert p_eps == expected
    assert n_eps > eps
    assert bound >= 0.0
    # pinned bit for bit
    assert (p_eps, n_eps, bound, capped) == (7, 0.35, 1.9050846360806704, True)


def test_continuity_modulus_large_target_gives_p1():
    result = continuity_modulus(IDENT, 0.1, 2.0, lambda t: 50.0, grid_bits=12)
    assert result == (1, 0.35, 100.0, True)


def test_continuity_modulus_tent():
    hloc = lambda t: math.log(abs(math.log(t))) / abs(math.log(t))  # noqa: E731
    h_tent = eps_entropy(TENT, 0.05 / 4, grid_bits=14).slope
    p_eps, n_eps, bound, capped = continuity_modulus(TENT, 0.05, 2.0, hloc)
    assert p_eps >= 1 and np.isfinite(bound)
    assert n_eps > 0.05
    assert bound >= h_tent - 0.05
    assert (p_eps, n_eps, bound, capped) == (10, 0.35, 0.7579888884755364, True)


def test_continuity_modulus_bisects_when_uncapped():
    """psi(s_hi) >= eps, so N(eps) comes from the 25 bisection steps, each
    deciding p at a new scale."""
    result = continuity_modulus(F4, 0.02, 2.0, lambda t: 1.0, grid_bits=11)
    assert result == (8, 0.3200000089406967, 2.732367893713226, False)


def test_continuity_modulus_p_cap_raises():
    """Every p up to the cap fails, each after C_p centers."""
    with pytest.raises(DomainError, match="p_eps exceeded cap 64 at eps=0.02"):
        continuity_modulus(TENT, 0.02, 2.0, lambda t: 0.1, grid_bits=11)


def test_continuity_modulus_rejects_nonmonotone():
    with pytest.raises(DomainError, match="hloc_g must not increase toward 0"):
        continuity_modulus(IDENT, 0.1, 2.0, lambda t: -math.log(t), grid_bits=12)


def test_continuity_modulus_probes_ascending_below_1e_minus_6():
    """Below eps = 1e-6 the probe runs from eps up to 1e-6, so the CLI's
    increasing 1/|log t| passes it and eps = 1e-7 meets the grid's
    ResolutionError; a decreasing hloc_g is still refused there."""
    with pytest.raises(ResolutionError, match="fewer than 8 grid points"):
        continuity_modulus(IDENT, 1e-7, 2.0, lambda t: 1.0 / abs(math.log(t)),
                           grid_bits=10)
    with pytest.raises(DomainError, match="hloc_g must not increase toward 0"):
        continuity_modulus(IDENT, 1e-7, 2.0, lambda t: -t, grid_bits=10)


# ---------------------------------------------------------------------------
# continuity modulus against the full search
# ---------------------------------------------------------------------------

def ref_greedy_cover(orbits, n, eps, cap=None):
    """`_greedy_cover` with every step spelled out: the feasibility scan
    runs for every center, and the kill window is scanned again from the
    center even when the center is the first uncovered column."""
    n_pts = orbits.shape[1]
    first = orbits[0]
    block = orbits[:n]
    alive = np.ones(n_pts, dtype=bool)
    count = 0
    i = frontier = 0
    while True:
        i = entropy._next_alive(alive, i, frontier)
        if i >= n_pts:
            return count, False
        count += 1
        if cap is not None and count >= cap:
            return cap, True
        hi_c = int(first.searchsorted(first[i] + eps, side="right"))
        near = np.abs(block[:, i:hi_c] - block[:, i, None]).max(axis=0) <= eps
        seg = block[:, i:i + 1 + int(near.nonzero()[0][-1])]
        run_max = np.maximum.accumulate(seg, axis=1)
        run_min = np.minimum.accumulate(seg, axis=1)
        feasible = ((run_max - seg <= eps) & (seg - run_min <= eps)).all(axis=0)
        center = i + int(feasible.nonzero()[0][-1])
        hi = int(first.searchsorted(first[center] + eps, side="right"))
        dist = np.abs(block[:, i:hi] - block[:, center, None]).max(axis=0)
        alive[i:hi] &= dist > eps
        frontier = max(frontier, hi)
        i += 1


_REF_P = {}


def ref_continuity_modulus(m, eps, m0, hloc_g, grid_bits=14):
    """`continuity_modulus` as a full search: p_s over every p up to the
    cap at every scale the bisection visits, psi(s) from p_s.  p_s depends
    on neither eps nor m0, so calls share it through `_REF_P`.  The covers
    are `_greedy_cover`'s, which `test_greedy_cover_matches_reference`
    checks against `ref_greedy_cover`."""
    if not 2 <= m0 < math.inf:
        raise DomainError("m0 must be finite and >= 2")
    probe = np.geomspace(*sorted((1e-6, min(eps, 0.06))), 12)
    vals = [hloc_g(t) for t in probe]
    if any(a > b + 1e-12 for a, b in zip(vals, vals[1:])):
        raise DomainError("hloc_g must not increase toward 0 "
                          "(nondecreasing in t on the probe)")

    h_cache = {}
    p_cache = _REF_P.setdefault((m.name, grid_bits, hloc_g), {})

    def h_est(scale):
        if scale not in h_cache:
            h_cache[scale] = entropy.eps_entropy(m, scale,
                                                 grid_bits=grid_bits).slope
        return h_cache[scale]

    def p_of(scale):
        if scale not in p_cache:
            h = h_est(scale / 4)
            target = hloc_g(scale)
            for p in range(1, _P_CAP + 1):
                orbits = _orbit_matrix(m, _default_grid(grid_bits), p)
                cap = _modulus_cap(p, h, target, orbits.shape[1])
                r_p, _ = _greedy_cover(orbits, p, scale / 4, cap=cap)
                if _modulus_holds(r_p, p, h, target):
                    p_cache[scale] = p
                    break
            else:
                raise DomainError(f"p_eps exceeded cap {_P_CAP} at eps={scale:g}")
        return p_cache[scale]

    p_eps = p_of(eps)

    def psi(s):
        return (s / 4.0) * m0 ** (-p_of(s))

    lo, hi = eps, _S_HI
    capped = psi(hi) < eps
    if not capped:
        for _ in range(25):
            mid = 0.5 * (lo + hi)
            if psi(mid) >= eps:
                hi = mid
            else:
                lo = mid
    n_eps = hi
    h_f = h_est(eps)
    return p_eps, n_eps, h_f + 2.0 * hloc_g(n_eps), capped


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), m=st.sampled_from([TENT, F4, F37]),
       bits=st.integers(9, 12), n=st.integers(1, 8))
def test_greedy_cover_matches_reference(data, m, bits, n):
    eps = data.draw(st.floats(min_value=8 / 2 ** bits, max_value=0.5))
    cap = data.draw(st.one_of(st.none(), st.integers(1, 2 ** bits + 2)))
    orbits = _GridOrbits(m, bits).rows(n, eps)
    assert _greedy_cover(orbits, n, eps, cap) == ref_greedy_cover(orbits, n, eps, cap)


@pytest.fixture
def shared_fits(monkeypatch):
    """eps_entropy is deterministic, so the oracle may share its fits across
    calls, read through the module; continuity_modulus fits from its own
    orbit store, whose slopes are eps_entropy's."""
    fit, fits = entropy.eps_entropy, {}

    def shared(m, eps, grid_bits):
        key = (m.name, eps, grid_bits)
        if key not in fits:
            fits[key] = fit(m, eps, grid_bits=grid_bits)
        return fits[key]

    monkeypatch.setattr(entropy, "eps_entropy", shared)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except TailentError as exc:
        return type(exc).__name__, str(exc)


_HLOCS = {
    "1/|log t|": lambda t: 1.0 / abs(math.log(t)),
    "log|log t|/|log t|": lambda t: math.log(abs(math.log(t))) / abs(math.log(t)),
    "1": lambda t: 1.0,
}


@pytest.mark.parametrize("m", [TENT, F4, F37, IDENT], ids=lambda m: m.name)
def test_continuity_modulus_matches_full_search(shared_fits, m):
    """Same tuple, or same error, as the full search.  At eps 0.1 and 0.05
    the top of the bracket has P*(0.35) = 0 for every m0 >= 2, so m0 is
    varied at eps 0.02, where it chooses which p are tried.  The grid holds
    the uncapped bisection of `test_continuity_modulus_bisects_when_uncapped`
    (quadratic:4, 2^11, eps 0.02, m0 2, target 1) and, at 2^10 and
    eps 0.02, the grid's ResolutionError."""
    configs = [(bits, eps, 2.0, name) for bits in (10, 11)
               for eps in (0.1, 0.05, 0.02) for name in _HLOCS]
    configs += [(bits, 0.02, m0, name) for bits in (10, 11)
                for m0 in (2.5, 3.0) for name in _HLOCS]
    for bits, eps, m0, name in configs:
        args = (m, eps, m0, _HLOCS[name])
        assert (_outcome(continuity_modulus, *args, grid_bits=bits)
                == _outcome(ref_continuity_modulus, *args, grid_bits=bits)), \
            (bits, eps, m0, name)


def test_continuity_modulus_skips_undecided_top_of_bracket():
    """(0.35/4) 2^-1 < 0.1, so psi(0.35) < eps whatever p_0.35 is: no p is
    tried there.  The full search tries every p at 0.35, where the target
    -1 is never met, and raises; the answer never reads that p."""
    hloc = lambda t: 1.0 if t < 0.3 else -1.0  # noqa: E731
    with pytest.raises(DomainError, match="p_eps exceeded cap 64 at eps=0.35"):
        ref_continuity_modulus(TENT, 0.1, 2.0, hloc, grid_bits=10)
    h_f = eps_entropy(TENT, 0.1, grid_bits=10).slope
    assert (continuity_modulus(TENT, 0.1, 2.0, hloc, grid_bits=10)
            == (7, 0.35, h_f - 2.0, True))


def test_continuity_modulus_runs_only_read_work(monkeypatch):
    """On the config of `test_continuity_modulus_tent`: no cover runs for a p
    that passes at every count (cap None), and no fit runs at 0.35/4, the
    scale of the top of the bracket, where P*(0.35) = 0.  At eps 0.02 and
    m0 2.5, P*(0.35) = 1 and 0.35/4 is fitted.  No scale is fitted twice
    (h_est keeps no memo)."""
    covers, fits = [], []
    cover, fit = entropy._greedy_cover, entropy._count_series

    def record_cover(orbits, n, eps, cap=None):
        covers.append(cap)
        return cover(orbits, n, eps, cap)

    def record_fit(store, eps, n_range):
        fits.append(eps)
        return fit(store, eps, n_range)

    monkeypatch.setattr(entropy, "_greedy_cover", record_cover)
    monkeypatch.setattr(entropy, "_count_series", record_fit)
    hloc = lambda t: math.log(abs(math.log(t))) / abs(math.log(t))  # noqa: E731
    assert continuity_modulus(TENT, 0.05, 2.0, hloc)[0] == 10
    assert covers and None not in covers
    assert sorted(fits) == [0.05 / 4, 0.05]
    assert _S_HI / 4 not in fits
    fits.clear()
    continuity_modulus(TENT, 0.02, 2.5, hloc)
    assert sorted(fits) == [0.02 / 4, 0.02, _S_HI / 4]


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf, _S_HI, 2.0])
def test_continuity_modulus_refuses_eps_outside_bracket(monkeypatch, eps):
    """Refused before hloc_g is probed and before any orbit is built."""
    def never(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(entropy, "_default_grid", never)
    monkeypatch.setattr(entropy, "_count_series", never)
    with pytest.raises(DomainError, match=r"eps must lie in \(0, 0.35\)"):
        continuity_modulus(TENT, eps, 2.0, never, grid_bits=10)
