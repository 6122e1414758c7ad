"""Bell table tests against brute-force partition oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tailent.combinatorics import (BellTable, count_set_partitions,
                                   enumerate_set_partitions)
from tailent.errors import ResourceError

TABLE = BellTable(15)


def test_bell_numbers_vs_enumeration():
    for r in range(1, 10):
        assert TABLE.bell_number(r) == sum(1 for _ in enumerate_set_partitions(r))


def test_bell_numbers_vs_rgs_count():
    for r in range(1, 14):
        assert TABLE.bell_number(r) == count_set_partitions(r)


def test_bell_small_values():
    assert TABLE.bell_number(1) == 1
    assert TABLE.bell_number(3) == 5
    assert TABLE.bell_number(5) == 52


def test_bell_r_to_the_r_bound():
    for r in range(1, 16):
        assert TABLE.bell_number(r) <= r ** r


def test_bell_number_beyond_table():
    with pytest.raises(ResourceError):
        TABLE.bell_number(16)


def test_partial_bell_b32():
    # B_3^2(x1, x2) = 3 x1 x2: one partition shape (2,1) with 3 labelings
    assert TABLE.partial_bell(3, 2, (1, 2)) == 6
    # the single coefficient 3 of the monomial x1 x2
    assert TABLE.partial_bell(3, 2, (1, 1)) == 3


def test_partial_bell_at_factorials_identity():
    for k in range(1, 13):
        for l in range(1, k + 1):
            x = [math.factorial(i) for i in range(1, k - l + 2)]
            assert TABLE.partial_bell(k, l, x) == \
                math.comb(k, l) * math.comb(k - 1, l - 1) * math.factorial(k - l)


def test_partial_bell_diagonal():
    for k in range(1, 10):
        assert TABLE.partial_bell(k, k, (1,)) == 1


def test_bell_number_is_row_sum():
    for r in range(1, 16):
        assert TABLE.bell_number(r) == sum(
            TABLE.partial_bell_at_ones(r, l) for l in range(1, r + 1))


def test_partial_bell_length_check():
    with pytest.raises(ValueError):
        TABLE.partial_bell(4, 2, (1, 2))


def test_faa_identity_inner():
    outer = [2.0, -1.0, 0.5, 3.0]
    inner = [1.0, 0.0, 0.0, 0.0]
    assert TABLE.faa_di_bruno(outer, inner) == pytest.approx(outer)


def test_faa_affine_inner_scaling():
    s = 0.7
    outer = [1.1, -0.3, 2.0, 0.25]
    inner = [s, 0.0, 0.0, 0.0]
    got = TABLE.faa_di_bruno(outer, inner)
    assert got == pytest.approx([f * s ** (k + 1) for k, f in enumerate(outer)])


def _fd_derivative(f, x, order, h):
    """8th-order central finite difference of the given order."""
    import numpy as np
    w1 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0, 4 / 5, -1 / 5,
                   4 / 105, -1 / 280])
    offs = np.arange(-4, 5)
    vals = np.array([f(x + o * h) for o in offs])
    if order == 1:
        return float(np.dot(w1, vals)) / h
    w2 = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5,
                   -1 / 5, 8 / 315, -1 / 560])
    return float(np.dot(w2, vals)) / h ** 2


def test_faa_exp_sin_vs_finite_differences():
    x = 0.3
    s = math.sin(x)
    outer = [math.exp(s)] * 6
    inner = [math.sin(x + k * math.pi / 2) for k in range(1, 7)]
    got = TABLE.faa_di_bruno(outer, inner)

    def f(y):
        return math.exp(math.sin(y))

    d1 = _fd_derivative(f, x, 1, 1e-2)
    d2 = _fd_derivative(f, x, 2, 1e-2)
    assert got[0] == pytest.approx(d1, rel=1e-5)
    assert got[1] == pytest.approx(d2, rel=1e-5)


def test_faa_associativity_three_maps():
    # f = exp, g = sin, h(x) = x^2 + 0.2 at x0
    x0 = 0.4
    r = 6
    hx = x0 * x0 + 0.2
    ghx = math.sin(hx)
    f_at = [math.exp(ghx)] * r
    g_at = [math.sin(hx + k * math.pi / 2) for k in range(1, r + 1)]
    h_at = [2 * x0, 2.0, 0.0, 0.0, 0.0, 0.0]
    fg = TABLE.faa_di_bruno(f_at, g_at)          # (f o g) derivs at h(x0)
    left = TABLE.faa_di_bruno(fg, h_at)          # (f o g) o h
    gh = TABLE.faa_di_bruno(g_at, h_at)          # g o h derivs at x0
    right = TABLE.faa_di_bruno(f_at, gh)         # f o (g o h)
    for a, b in zip(left, right):
        assert a == pytest.approx(b, rel=1e-10)


# ---------------------------------------------------------------------------
# the shared Bell table against the per-call evaluation
# ---------------------------------------------------------------------------

def ref_faa_di_bruno(table, outer, inner):
    """Faa di Bruno with one partial_bell call per (k, l)."""
    out = []
    for k in range(1, len(outer) + 1):
        acc = 0
        for l in range(1, k + 1):
            acc = acc + outer[l - 1] * table.partial_bell(k, l, inner[: k - l + 1])
        out.append(acc)
    return out


def _bits(x):
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    return type(x), x


def _random_sequences(rng, r, kind):
    if kind == "array":
        # mixed signs and scales, with zeros of both signs
        seq = [rng.standard_normal(257) * 10.0 ** rng.integers(-3, 4, 257)
               for _ in range(r)]
        for s in seq:
            s[:3] = (0.0, -0.0, 1.0)
        return seq
    if kind == "float":
        return [float(rng.standard_normal()) * 10.0 ** int(rng.integers(-3, 4))
                for _ in range(r)]
    if kind == "fraction":
        return [Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 9)))
                for _ in range(r)]
    return [int(rng.integers(-9, 10)) for _ in range(r)]


@pytest.mark.parametrize("kind", ["array", "float", "fraction", "int"])
def test_partial_bells_match_partial_bell(kind):
    rng = np.random.default_rng(41)
    for r in range(0, 13):
        inner = _random_sequences(rng, r, kind)
        table = TABLE.partial_bells(inner)
        assert [len(row) for row in table] == list(range(1, r + 1))
        for k in range(1, r + 1):
            for l in range(1, k + 1):
                want = TABLE.partial_bell(k, l, inner[: k - l + 1])
                assert _bits(table[k - 1][l - 1]) == _bits(want)


@pytest.mark.parametrize("kind", ["array", "float", "fraction", "int"])
def test_faa_di_bruno_matches_per_call_reference(kind):
    rng = np.random.default_rng(43)
    for r in range(0, 13):
        inner = _random_sequences(rng, r, kind)
        bells = TABLE.partial_bells(inner)
        for _ in range(3):
            outer = _random_sequences(rng, r, kind)
            want = [_bits(x) for x in ref_faa_di_bruno(TABLE, outer, inner)]
            assert [_bits(x) for x in TABLE.faa_di_bruno(outer, inner)] == want
            assert [_bits(x) for x in TABLE.faa_di_bruno(outer, inner, bells)] == want


def test_partial_bells_beyond_table():
    with pytest.raises(ResourceError):
        TABLE.partial_bells([1.0] * 16)
