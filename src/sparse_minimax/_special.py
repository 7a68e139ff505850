"""The normal CDF, its inverse, erfc on a grid and the binomial upper tail,
from numpy and the standard library.

These are the package's only special functions. Each is a few lines over
``math.erfc``, ``math.lgamma`` or ``statistics.NormalDist``, so importing
the package loads no library beyond numpy.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_EPS = math.ulp(1.0)  # 2**-52
_TERM_CUT = 1e-17  # a tail sum stops once every point's term is this small a share of it
_STANDARD_NORMAL = NormalDist()


def norm_cdf(x: float) -> float:
    """Phi(x), the standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_ppf(u: np.ndarray) -> np.ndarray:
    """Phi^{-1} over a 1-D array of values in (0, 1), by Wichura's AS241
    algorithm (``statistics.NormalDist.inv_cdf``)."""
    return _elementwise(_STANDARD_NORMAL.inv_cdf, u)


def erfc_grid(x: np.ndarray) -> np.ndarray:
    """erfc over a 1-D array."""
    return _elementwise(math.erfc, x)


def _elementwise(f, x: np.ndarray) -> np.ndarray:
    # mapping over a list is 2-4x faster than a comprehension over the array
    return np.fromiter(map(f, x.tolist()), np.float64, count=x.size)


def binom_tail(p: int, k: int, q: np.ndarray) -> np.ndarray:
    """P(Bin(p, q) >= k) elementwise over q in [0, 1], for 1 <= k <= p.

    This is the regularized incomplete beta function I_q(k, p-k+1). Where
    k-1 < pq the lower tail P(Bin <= k-1) is the smaller side, else the
    upper tail P(Bin >= k) is. Each point sums its smaller side only: the
    term of that side nearest the mode (j = k-1 or j = k) is its largest,
    because the binomial pmf is unimodal with its mode within 1 of pq. That
    term is taken in log space with ``math.lgamma``, and the sum recurs
    away from it in linear space, t_{j+1}/t_j = (p-j)/(j+1) * q/(1-q),
    until every point's term is below _TERM_CUT of its running sum or the
    side's last index is reached. The result is 1 - (lower sum) or the
    upper sum. The cost is one pass over each side's points per term: at
    most k terms on the lower side and p-k+1 on the upper, and in practice
    a few times sqrt(p q (1-q)) near the mode, where the terms fall off
    like a Gaussian of that width, and fewer away from it.
    ``binom_tail_error(p)`` bounds the absolute error at each point.
    """
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}, p={p}")
    q = np.asarray(q, dtype=np.float64)
    out = np.empty_like(q)
    lower = k - 1 < p * q
    out[lower] = 1.0 - _side_sum(p, k - 1, q[lower], -1)
    upper = ~lower
    out[upper] = _side_sum(p, k, q[upper], +1)
    return out


def _side_sum(p: int, j: int, q: np.ndarray, step: int) -> np.ndarray:
    """sum of C(p, i) q^i (1-q)^(p-i) over i = j, j+step, ... within [0, p],
    where the term at i = j is the largest of them."""
    with np.errstate(divide="ignore"):  # log(0) at q = 0 or 1 gives a zero term
        log_t = math.lgamma(p + 1) - math.lgamma(j + 1) - math.lgamma(p - j + 1)
        log_t += j * np.log(q) + (p - j) * np.log1p(-q)
        odds = q / (1.0 - q) if step > 0 else (1.0 - q) / q
    term = np.exp(log_t)
    total = term.copy()
    last = p if step > 0 else 0
    while j != last:
        factor = (p - j) / (j + 1) if step > 0 else j / (p - j + 1)
        j += step
        term *= odds
        term *= factor
        total += term
        if np.all(term <= _TERM_CUT * total):
            break
    return total


def binom_tail_error(p: int) -> float:
    """A bound on the absolute error of ``binom_tail(p, k, q)`` at any
    point, for any k and any q held exactly.

    The largest term t is exp of a sum whose parts are each at most
    lgamma(p+1) + |log t| in size, each rounded and ``math.lgamma`` good to
    a few ulps, so t carries relative error under 4 eps (2 lgamma(p+1) +
    2 |log t|). A side sum is at most min(1, (p+1) t), and
    min(1, (p+1) t) |log t| <= log(p+1) + 1 <= lgamma(p+1) + 2, which
    bounds its absolute error from t by 16 eps (lgamma(p+1) + 1). Each
    recurrence step adds under 4 eps of relative error to the terms after
    it, over at most p steps. The binomial pmf is log-concave, so the
    ratios of successive terms fall, and the cut leaves a geometric
    remainder below _TERM_CUT * p of the sum. The final subtraction from 1
    adds eps.
    """
    return _EPS * (16.0 * math.lgamma(p + 1) + 4.0 * p + 17.0) + _TERM_CUT * p
