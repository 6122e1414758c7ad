"""Weight sequences, G inverse, admissibility, rate bounds."""

import math

import pytest

from tailent.errors import (DegenerateWeightError, DomainError,
                            HypothesisUnmetError, ScaleError)
from tailent.rates import (WeightSequence, cr_bound_buzzi, g_inverse,
                           is_admissible, is_log_convex, iterate_bound_main,
                           parse_weight, rate_bound_gen, surrogate_chart_bound,
                           weight_from_rate)

KPOW2 = parse_weight("kpow2")
ANALYTIC = parse_weight("analytic")
EK2 = WeightSequence(log_m=lambda k: 1.0 + k * k, name="e^(k^2)",
                     log_convex=True)  # a_k = k


def seq_weight(values):
    vals = [math.log(v) for v in values]
    return WeightSequence(log_m=lambda k: vals[min(k, len(vals) - 1)],
                          name="seq")


def test_log_convexity_examples():
    assert is_log_convex(KPOW2, 50)
    assert is_log_convex(parse_weight("const:3"), 50)
    bad = seq_weight([math.e, 10, 1, 10, 10, 10])
    assert not is_log_convex(bad, 4)


def test_log_convex_weight_properties():
    """(M_k/M_0)^(1/k) nondecreasing and M_k M_l <= M_0 M_{k+l}."""
    for w in (KPOW2, ANALYTIC):
        roots = [w.a(k) for k in range(1, 41)]
        assert all(a <= b + 1e-12 for a, b in zip(roots, roots[1:]))
        for k in range(1, 20):
            for l in range(1, 41 - k):
                assert w.log_weight(k) + w.log_weight(l) <= \
                    w.log_weight(0) + w.log_weight(k + l) + 1e-9


def test_g_inverse_examples():
    assert g_inverse(EK2, 2.5) == 2
    assert g_inverse(KPOW2, 20) == 9  # 9 log 9 = 19.77 <= 20 < 10 log 10


def test_g_inverse_lower_bound_surfh():
    for j in range(1, 7):
        x = 10.0 ** j
        assert g_inverse(KPOW2, x) >= x / math.log(x)


def test_g_inverse_monotone_and_inverse_property():
    probes = [0.5, 2.0, 9.0, 44.0, 130.0]
    vals = [g_inverse(KPOW2, x) for x in probes]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    for l in (1, 3, 7, 20):
        assert g_inverse(KPOW2, KPOW2.a(l)) >= l


def test_g_inverse_comparison_monotonicity():
    """a_k >= b_k pointwise implies a^-1(x) <= b^-1(x)."""
    half = WeightSequence(log_m=lambda k: 1.0 + k * k / 2, name="e^(k^2/2)",
                          log_convex=True)  # a_k = k/2 <= a_k of EK2
    for x in (0.7, 2.5, 10.0, 31.4):
        assert g_inverse(EK2, x) <= g_inverse(half, x)


def test_g_inverse_degenerate_weight():
    with pytest.raises(DegenerateWeightError):
        g_inverse(parse_weight("const:7"), 4.0, cap=500)


def test_admissibility_examples():
    assert not is_admissible(parse_weight("const:5"), 1, 1, 10.0)
    assert not is_admissible(ANALYTIC, 1, 1, 10.0)  # M_0 = 1 < e
    inflated = WeightSequence(
        log_m=lambda k: 1.0 + (k * k * math.log(k) if k else 0.0) + 12.0 * k,
        name="inflated", log_convex=True)
    lo, hi = 0.5, 2000.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if is_admissible(inflated, 1, 2, mid):
            hi = mid
        else:
            lo = mid
    assert is_admissible(inflated, 1, 2, hi)
    assert not is_admissible(inflated, 1, 2, 0.9 * hi)
    assert 5 < hi < 100


def test_surrogate_requires_l_equal_1():
    with pytest.raises(DomainError):
        surrogate_chart_bound(4, 2, 3)
    with pytest.raises(DomainError):
        is_admissible(KPOW2, 2, 2, 5.0)


def test_rate_bound_gen_example():
    assert rate_bound_gen(EK2, 1, 1, 1, math.exp(-20)) == pytest.approx(0.3)
    assert rate_bound_gen(EK2, 1, 2, 1, math.exp(-20), variant="tail") == \
        pytest.approx(0.6)


def test_rate_bound_gen_scale_error():
    with pytest.raises(ScaleError):
        rate_bound_gen(EK2, 1, 1, 1, 0.9)


def test_rate_bound_gen_monotone_in_eps():
    vals = [rate_bound_gen(KPOW2, 1, 1, 1, math.exp(-x))
            for x in (30, 60, 120, 400)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_rate_bound_shape_loglog_over_log():
    """kpow2 bound behaves like log|log eps| / |log eps| up to a constant."""
    ratios = []
    for x in (2.0 ** 40, 2.0 ** 80, 2.0 ** 160):
        eps = 1.0 / x
        b = rate_bound_gen(KPOW2, 1, 2, 22.0, eps)
        shape = math.log(abs(math.log(eps))) / abs(math.log(eps))
        ratios.append(b / shape)
    assert max(ratios) / min(ratios) < 3.0


def test_iterate_bound_main_example():
    expect = math.log(2) + math.log(8) + math.log(256)
    assert iterate_bound_main(1.0, 2, 1, 1) == pytest.approx(expect, rel=1e-12)


def test_iterate_bound_norm_term_decays():
    diffs = [iterate_bound_main(math.exp(5), r, 1, 1)
             - iterate_bound_main(1.0, r, 1, 1) for r in range(2, 11)]
    assert diffs == pytest.approx([5.0 / r for r in range(2, 11)], rel=1e-12)
    assert all(a > b for a, b in zip(diffs, diffs[1:]))


def test_iterate_bound_dominates_tail():
    from tailent.entropy import tail_entropy_estimate
    from tailent.maps import quadratic_map
    est = tail_entropy_estimate(quadratic_map(), 2.0 ** -6)
    assert est.rate <= iterate_bound_main(4.0, 6, 1, 1)


def test_cr_bound_buzzi():
    assert cr_bound_buzzi(0.0, 3, 1) == 0.0
    assert cr_bound_buzzi(math.log(2), 1, 1) == pytest.approx(math.log(2))
    from tailent.entropy import growth_rate_R, tail_entropy_estimate
    from tailent.maps import quadratic_map, tent_map
    t = tent_map()
    assert tail_entropy_estimate(t, 2.0 ** -5).rate <= \
        cr_bound_buzzi(growth_rate_R(t), 1, 1)
    f4 = quadratic_map()
    assert tail_entropy_estimate(f4, 2.0 ** -5).rate <= \
        cr_bound_buzzi(growth_rate_R(f4), 2, 1)


def test_weight_from_rate_closed_form():
    """a(eps) = eps^(1/7): a^-1(y) = y^7, log M_k = log M_0 + 7k log(k/logDT)."""
    w, companion = weight_from_rate(lambda e: e ** (1.0 / 7), 0.01)
    for k in (1, 3, 10, 50):
        expect = 0.01 + 7 * k * math.log(k / 0.01)
        assert w.log_weight(k) == pytest.approx(expect, rel=1e-6)
        tilde = 7 * k * math.log(2 * k) + 2 * w.log_weight(k) - w.log_weight(0)
        assert companion.log_weight(k) == pytest.approx(tilde, rel=1e-6)
    assert is_log_convex(w, 100) and is_log_convex(companion, 100)


def test_weight_from_rate_consistency_inequality():
    w, _ = weight_from_rate(lambda e: e ** (1.0 / 7), 1.0)
    for j in range(2, 7):
        eps = 10.0 ** -j
        g = g_inverse(w, 3 * abs(math.log(eps)))
        assert w.log_m0 / g <= eps ** (1.0 / 7)


def test_weight_from_rate_rejects_bad_inputs():
    with pytest.raises(DomainError):
        weight_from_rate(lambda e: e ** 0.2, -1.0)
    with pytest.raises(DomainError):
        weight_from_rate(lambda e: 1.0 - e, 1.0)  # decreasing rate


def test_weight_from_rate_nonconvex_output_raises():
    # a jumps so steeply that log M_k loses convexity
    def rate(e):
        return 0.5 if e > 1e-3 else e ** 0.001

    with pytest.raises((HypothesisUnmetError, DomainError)):
        weight_from_rate(rate, 1.0)


def test_parse_weight_errors():
    with pytest.raises(KeyError):
        parse_weight("gevrey:2")
    with pytest.raises(ValueError):
        parse_weight("const:0.5")


def test_weight_from_rate_concave_hypothesis_is_a_field():
    # 1/a(e^-x) is x^(1/7)-like for a power rate (not concave enough to pass
    # the advisory check) and exactly x for a = 1/|log t|
    w, companion = weight_from_rate(lambda e: e ** (1.0 / 7), 1.0)
    assert w.concave_hypothesis is False
    w_log, _ = weight_from_rate(lambda t: 1.0 / abs(math.log(t)), 1.0)
    assert w_log.concave_hypothesis is True
    # the log cache holds log M_k per integer k and nothing else
    assert w.cache and all(type(k) is int for k in w.cache)
    assert w.log_weight(7) == w.cache[7]
    assert companion.concave_hypothesis is None
    assert KPOW2.concave_hypothesis is None
