"""Exact partition combinatorics: Bell numbers, partial Bell polynomials,
and Faa di Bruno composition of derivative sequences.

Coefficients are generated by direct enumeration of the integer solutions of
sum(j_i) = l, sum(i*j_i) = k, kept as Python big integers.  Floating point
enters only when a polynomial is evaluated at numeric arguments.
"""

from __future__ import annotations

import math

from .errors import ResourceError

__all__ = ["BellTable", "enumerate_set_partitions", "count_set_partitions"]


def _multi_indices(k, l):
    """Integer tuples (j_1..j_{k-l+1}) with sum j_i = l and sum i*j_i = k."""
    m = k - l + 1
    out = []

    def rec(pos, j_left, w_left, prefix):
        if pos == m:
            if j_left == 0 and w_left == 0:
                out.append(tuple(prefix))
            return
        i = pos + 1
        rest = m - pos - 1
        for j in range(min(j_left, w_left // i), -1, -1):
            # remaining weight must be consumable by the remaining slots
            if rest == 0 and (j_left - j or w_left - i * j):
                continue
            rec(pos + 1, j_left - j, w_left - i * j, prefix + [j])

    rec(0, l, k, [])
    return out


class BellTable:
    """Triangular table of partial Bell polynomial coefficients B_k^l.

    Immutable after construction; all evaluations are pure.
    """

    def __init__(self, k_max=20):
        self.k_max = int(k_max)
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        self._coeffs = {}
        for k in range(1, self.k_max + 1):
            kfac = math.factorial(k)
            for l in range(1, k + 1):
                terms = {}
                for js in _multi_indices(k, l):
                    denom = 1
                    for i, j in enumerate(js, start=1):
                        denom *= math.factorial(j) * math.factorial(i) ** j
                    coeff, rem = divmod(kfac, denom)
                    assert rem == 0
                    terms[js] = coeff
                self._coeffs[(k, l)] = terms
        self._bell = [1]  # B_0 = 1
        for r in range(1, self.k_max + 1):
            self._bell.append(sum(self.partial_bell_at_ones(r, l)
                                  for l in range(1, r + 1)))

    def _check_order(self, k):
        if not 1 <= k <= self.k_max:
            raise ResourceError(f"order {k} beyond table size k_max={self.k_max}")

    def bell_number(self, r):
        """Exact r-th Bell number (number of set partitions of {1..r})."""
        self._check_order(r)
        return self._bell[r]

    def partial_bell_at_ones(self, k, l):
        """B_k^l(1,...,1) as a big integer (Stirling number of the 2nd kind)."""
        self._check_order(k)
        return sum(self._coeffs[(k, l)].values())

    def partial_bell(self, k, l, x):
        """Evaluate B_k^l at the sequence x = (x_1..x_{k-l+1}).

        Keeps the arithmetic of the caller (floats, Fractions, numpy arrays).
        """
        self._check_order(k)
        if not 1 <= l <= k:
            raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
        if len(x) != k - l + 1:
            raise ValueError(f"x must have length {k - l + 1}, got {len(x)}")
        total = 0
        for js, coeff in self._coeffs[(k, l)].items():
            term = coeff
            for xi, j in zip(x, js):
                if j == 0:
                    continue
                term = term * xi ** j
            total = total + term
        return total

    def partial_bells(self, inner):
        """Every B_k^l(inner), as rows: table[k-1][l-1] for 1 <= l <= k <= r.

        r = len(inner).  Each power inner[i] ** j is computed once and
        shared by all the terms and all the (k, l) that use it; each entry
        is then summed exactly as `partial_bell(k, l, inner[:k-l+1])` sums
        it, so it has the same value, bit for bit on floats and arrays.
        Build one table per inner sequence and pass it to `faa_di_bruno`
        for every outer sequence composed with it.
        """
        r = len(inner)
        self._check_order(max(r, 1))
        powers = {}
        table = []
        for k in range(1, r + 1):
            row = []
            for l in range(1, k + 1):
                total = 0
                for js, coeff in self._coeffs[(k, l)].items():
                    term = coeff
                    for i, j in enumerate(js):
                        if j == 0:
                            continue
                        p = powers.get((i, j))
                        if p is None:
                            p = powers[(i, j)] = inner[i] ** j
                        term = term * p
                    total = total + term
                row.append(total)
            table.append(row)
        return table

    def faa_di_bruno(self, outer_derivs, inner_derivs, bells=None):
        """Derivatives 1..r of f(g(x)) from those of f at g(x) and of g at x.

        (f o g)^(k) = sum_{l=1}^k f^(l)(g(x)) * B_k^l(g', ..., g^(k-l+1)).
        `bells` is `partial_bells(inner_derivs)` when the caller already
        holds it; otherwise it is built here.
        """
        if len(outer_derivs) != len(inner_derivs):
            raise ValueError("outer and inner derivative sequences must have equal length")
        r = len(outer_derivs)
        self._check_order(max(r, 1))
        if bells is None:
            bells = self.partial_bells(inner_derivs)
        out = []
        for k in range(1, r + 1):
            acc = 0
            for l in range(1, k + 1):
                acc = acc + outer_derivs[l - 1] * bells[k - 1][l - 1]
            out.append(acc)
        return out


def enumerate_set_partitions(n):
    """Yield every set partition of {0..n-1} as a tuple of frozensets.

    Brute-force oracle used by the tests; grows like the Bell numbers.
    """
    if n == 0:
        yield ()
        return
    for part in enumerate_set_partitions(n - 1):
        last = n - 1
        for i in range(len(part)):
            yield part[:i] + (part[i] | {last},) + part[i + 1:]
        yield part + (frozenset({last}),)


def count_set_partitions(n):
    """Count set partitions of an n-set by restricted-growth-string recursion.

    Independent of the Bell-polynomial route: walks the RGS tree, where a
    string a_1..a_n with a_1 = 0 and a_{i+1} <= max(a_1..a_i) + 1 encodes the
    block index of each element.
    """
    def rec(pos, maxval):
        if pos == n:
            return 1
        return maxval * rec(pos + 1, maxval) + rec(pos + 1, maxval + 1)

    if n == 0:
        return 1
    return rec(1, 1)

