"""Sobolev reproducing kernels on [0, horizon] with closed-form integrals.

The order-m Sobolev space on [0, horizon] splits into an m-dimensional
polynomial subspace H0 with orthonormal basis phi_k(x) = x^(k-1)/(k-1)!
and an orthogonal complement H1 of functions vanishing to order m at zero,
carrying the inner product <f, g> = int_0^horizon (D^m f)(D^m g).  Both
parts are reproducing kernel Hilbert spaces.  Their kernels are

    R0(s, r) = sum_k phi_k(s) phi_k(r)
    R1(s, r) = int_0^(s^r) (s-u)^(m-1) (r-u)^(m-1) / ((m-1)!)^2 du

and the kernel of the direct sum is R = R0 + R1.

Everything here reduces to one family of cross-order integrated kernels

    K[p,q](x, y) = int_0^(x^y) (x-u)^(p-1) (y-u)^(q-1) / ((p-1)!(q-1)!) du

for which the binomial expansion of the integrand gives an exact two-branch
polynomial.  R1 is K[m,m]; integrating R1 once in its first slot raises p by
one (K[m+1,m]); integrating both slots gives K[m+1,m+1].  All evaluations are
closed-form polynomials, exact up to rounding, which keeps Gram matrices,
design rows and compensator integrals free of quadrature error.

A weighted family of kernel slices, sum_l w_l K[p,q](lag_l, .), is
evaluated by prefix sums over the sorted lags (``_cross_weighted_sum``).
The prefix sums, scaled by the branch coefficients, do not depend on the
query points: ``_prefix_table`` builds them, and a caller that keeps the
table evaluates the same family again with one ``searchsorted`` plus one
gather and multiply-add per term (``_family_sums``), with the same bits.
Weights with one row per family give one table for many families over a
shared sorted lag array, each row with the bits of that family's own
table; ``_family_sums`` evaluates such a table, or a family's own, at
queries whose search positions the caller has found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from numbers import Integral

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["SobolevKernel"]


@lru_cache(maxsize=None)
def _branch_coeffs(p: int, q: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Polynomial coefficients of K[p,q] on the two sides of the diagonal.

    For x <= y:  K[p,q](x, y) = sum_j low[j]  * x**(p+j)   * y**(q-1-j)
    For x >= y:  K[p,q](x, y) = sum_i high[i] * x**(p-1-i) * y**(q+i)

    Both branches sum the same exact rational term(i, j), over i for
    ``low`` and over j for ``high``, before conversion to float.
    """
    den = factorial(p - 1) * factorial(q - 1)

    def term(i: int, j: int) -> Fraction:
        return Fraction((-1) ** (i + j) * comb(p - 1, i) * comb(q - 1, j), den * (i + j + 1))

    low = [float(sum(term(i, j) for i in range(p))) for j in range(q)]
    high = [float(sum(term(i, j) for j in range(q))) for i in range(p)]
    return tuple(low), tuple(high)


def _prefix_table(p: int, q: int, lags, weights) -> tuple[tuple[np.ndarray, int], ...]:
    """The query-independent half of ``_cross_weighted_sum``: one entry
    (table, e) per term of K[p,q], in its order.  ``table[n]`` is the term's
    coefficient times its prefix sum over the lags below (low branch) or at
    and above (high branch) position n, and ``e`` the query's exponent.
    Weights of shape (families, lags) give one table row per family: a
    family with zero weight on the other families' lags has the prefix sums
    of its own lags alone, since x + 0.0 is x."""
    lags = np.asarray(lags, dtype=float)
    weights = np.asarray(weights, dtype=float)
    low, high = _branch_coeffs(p, q)

    def weighted(e: int) -> np.ndarray:
        # x ** 0 is 1 and x ** 1 is x exactly, so those powers are skipped
        return weights if e == 0 else weights * (lags if e == 1 else lags**e)

    terms = []
    for j, cj in enumerate(low):
        terms.append((cj * _prefix_sums(weighted(p + j)), q - 1 - j))
    for i, ci in enumerate(high):
        pre = _prefix_sums(weighted(p - 1 - i))
        terms.append((ci * (pre[..., -1:] - pre), q + i))
    return tuple(terms)


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """0, then the running sums of ``values`` along the last axis."""
    pre = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,))
    np.cumsum(values, axis=-1, out=pre[..., 1:])
    return pre


def _cross_weighted_sum(p: int, q: int, lags, weights, queries):
    """sum_l weights[l] * K[p,q](lags[l], query) for each query.

    ``lags`` must be sorted ascending.  Runs in O((L + M)(p + q)) via prefix
    sums over each side of the diagonal, so large weighted families of kernel
    sections (quadrature atoms, event histories) stay linear-time: one
    ``_prefix_table``, one search of the queries in the lags and
    ``_family_sums``.  A caller that evaluates one family again keeps its
    table and calls ``_family_sums`` itself (``filters.Atom._bound_value``).
    """
    lags = np.asarray(lags, dtype=float)
    queries = np.asarray(queries, dtype=float)
    return _family_sums(_prefix_table(p, q, lags, weights), lags.searchsorted(queries, side="right"), queries)


def _family_sums(table, pos, queries) -> np.ndarray:
    """The kernel sums of every family of a ``_prefix_table`` at queries
    whose search positions in its lags are ``pos``, summed from 0.0 term by
    term: one row of sums per row of weights, each with the bits of that
    family's own sum, or the sums alone for a table of one family's own
    weights."""
    out = 0.0
    for scaled, e in table:
        vals = scaled.take(pos, -1)
        # x ** 0 is 1 and x ** 1 is x exactly, so those products are skipped
        if e:
            vals *= queries if e == 1 else queries**e
        # the running sum is added to the new term in place, as term + sum
        # has the bits of sum + term
        vals += out
        out = vals
    return out


def _h0_stack(r: np.ndarray, m: int) -> np.ndarray:
    """phi_k(r) = r^(k-1)/(k-1)! for k = 1..m stacked on axis 0, unchecked.
    phi_1 is r**0 / 0! = 1 for every r, NaN included."""
    out = np.empty((m,) + r.shape)
    out[0] = 1.0
    for k in range(1, m):
        out[k] = r**k / factorial(k)
    return out


# The largest kernel order.  The paper's orders are 1 and 2, and no test,
# tool or benchmark goes above 3.  Each order-m fit holds m polynomial atoms
# of m coefficients per channel, and phi_m = u^(m-1)/(m-1)! leaves the float
# range at m = 171 (the basis raises OverflowError there), long before the
# atoms' arrays fail to allocate (at m = 1e308, "maximum allowed dimension").
MAX_ORDER = 20


@dataclass(frozen=True)
class SobolevKernel:
    """Reproducing kernel of the order-m Sobolev space on [0, horizon].

    Parameters
    ----------
    m : int
        Smoothness order (number of polynomial basis functions in H0).
    horizon : float
        Right end of the observation window; evaluation points must lie
        in [0, horizon].
    """

    m: int
    horizon: float

    def __post_init__(self):
        # a NumPy integer is an order as its int is; a bool is an Integral
        # that no config means as an order
        if isinstance(self.m, bool) or not isinstance(self.m, Integral) or not 1 <= self.m <= MAX_ORDER:
            raise ConfigError(f"kernel order m must be an integer in 1..{MAX_ORDER}, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise ConfigError(f"horizon must be positive and finite, got {self.horizon!r}")

    # -- validation ---------------------------------------------------------

    def _check_domain(self, *points) -> None:
        for arr in points:
            a = np.asarray(arr, dtype=float)
            if a.size == 0:
                continue
            lo = a.min()
            hi = a.max()
            if lo >= 0.0 and hi <= self.horizon:
                continue
            if np.isnan(lo):
                # a NaN makes both reductions NaN: it evaluates to NaN on
                # its own, but must not hide an out-of-range value beside it
                a = a[~np.isnan(a)]
                lo = a.min(initial=0.0)
                hi = a.max(initial=0.0)
            if lo < 0.0 or hi > self.horizon:
                bad = float(lo if lo < 0.0 else hi)
                raise DomainError(
                    f"kernel argument {bad} outside [0, {self.horizon}]", at=bad
                )

    # -- kernel evaluations -------------------------------------------------

    def h0_basis(self, r):
        """Orthonormal H0 basis phi_k(r) = r^(k-1)/(k-1)!, stacked on axis 0.

        Returns an array of shape (m,) + shape(r).
        """
        self._check_domain(r)
        return _h0_stack(np.asarray(r, dtype=float), self.m)

    def h0_antiderivative(self, x):
        """Running integrals int_0^x phi_k = x^k/k!, stacked on axis 0."""
        self._check_domain(x)
        x = np.asarray(x, dtype=float)
        return np.stack([x**k / factorial(k) for k in range(1, self.m + 1)])
