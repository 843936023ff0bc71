"""Stable evaluation of the special functions used by the detector model.

The detector response and its analytic inverse mix factorial ratios, powers
of small probabilities and two polynomial/series factors: the associated
Laguerre polynomial L_n^k evaluated at nonpositive argument, and the Kummer
confluent hypergeometric series Phi(a, b; x) at nonnegative argument. Both
reduce to sums of same-sign terms on those argument ranges, so everything
here is accumulated in log space without cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignedLogValue",
    "laguerre_assoc",
    "log_laguerre_nonpos",
    "log_kummer",
    "kummer_phi",
    "log_factorial",
    "log_factorial_table",
]

# log of the largest finite double; exponentials beyond this overflow
MAX_LOG = math.log(np.finfo(float).max)

_KUMMER_REL_TOL = 1e-17
_KUMMER_MAX_TERMS = 10_000

# ln(n!) exact for n <= 20 (the factorial is an exact int64 there),
# log-gamma beyond
_EXACT_FACT_LIMIT = 20


def _log_fact(n: int) -> float:
    if n <= _EXACT_FACT_LIMIT:
        return math.log(math.factorial(n))
    return math.lgamma(n + 1)


_log_fact_cache = np.array([_log_fact(i) for i in range(128)])


def log_factorial_table(n_max: int) -> np.ndarray:
    """Read-only array of ln(i!) for i = 0..n_max (cached, grows on demand)."""
    global _log_fact_cache
    if n_max >= _log_fact_cache.size:
        size = max(n_max + 1, 2 * _log_fact_cache.size)
        _log_fact_cache = np.array([_log_fact(i) for i in range(size)])
    return _log_fact_cache[: n_max + 1]


def log_factorial(n: int) -> float:
    """ln(n!), exact for n <= 20, log-gamma beyond; monotone in n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _log_fact(int(n))


def _log_binomial(n: int, k: int) -> float:
    """ln C(n, k); -inf when k falls outside 0..n."""
    if k < 0 or k > n:
        return -math.inf
    return _log_fact(n) - _log_fact(k) - _log_fact(n - k)


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as sign and natural log of magnitude.

    ``sign`` is 0 exactly when the value is zero, in which case
    ``log_magnitude`` carries no information.
    """

    log_magnitude: float
    sign: int

    @classmethod
    def from_float(cls, value: float) -> "SignedLogValue":
        if value == 0.0:
            return cls(-math.inf, 0)
        return cls(math.log(abs(value)), 1 if value > 0 else -1)

    def to_float(self) -> float:
        """Convert back, raising instead of silently producing inf."""
        if self.sign == 0:
            return 0.0
        if self.log_magnitude > MAX_LOG:
            raise OverflowError(
                f"signed-log value exp({self.log_magnitude:.6g}) exceeds "
                "double range"
            )
        return self.sign * math.exp(self.log_magnitude)


def log_laguerre_nonpos(n: int, k: int, x: float) -> float:
    """ln L_n^k(x) for x <= 0, where every term of the defining sum

        L_n^k(x) = sum_{i=0}^{n} C(n+k, n-i) (-x)^i / i!

    is nonnegative. Summed via max-shifted exponentials, so the result
    stays finite in log form even when L itself overflows a double.
    """
    if n < 0 or k < -n:
        raise ValueError(f"require n >= 0 and k >= -n, got n={n}, k={k}")
    if x > 0:
        raise ValueError(f"log-space path requires x <= 0, got x={x}")
    if x == 0.0:
        return _log_binomial(n + k, n)
    table = log_factorial_table(n + abs(k) + 1)
    i = np.arange(n + 1)
    choose = n - i
    # ln C(n+k, n-i) = ln((n+k)!) - ln((n-i)!) - ln((k+i)!), valid for i >= -k
    valid = choose <= n + k
    log_terms = np.where(
        valid,
        table[n + k]
        - table[choose]
        - table[np.clip(k + i, 0, None)]
        + i * math.log(-x)
        - table[i],
        -math.inf,
    )
    top = log_terms.max()
    if top == -math.inf:
        return -math.inf
    return float(top + np.log(np.exp(log_terms - top).sum()))


def laguerre_assoc(n: int, k: int, x: float) -> float:
    """Associated Laguerre polynomial L_n^k(x).

    Parameters
    ----------
    n : int
        Degree, nonnegative.
    k : int
        Order, at least -n.
    x : float
        Argument, nonpositive: there the defining sum has no cancellation
        and is accumulated in log space. x > 0 raises ValueError.

    Returns
    -------
    float
        L_n^k(x).
    """
    if n < 0 or k < -n:
        raise ValueError(f"require n >= 0 and k >= -n, got n={n}, k={k}")
    if x == 0.0:
        return float(math.comb(n + k, n))
    log_value = log_laguerre_nonpos(n, k, x)
    if log_value == -math.inf:
        return 0.0
    if log_value > MAX_LOG:
        raise OverflowError(
            f"L_{n}^{k}({x}) = exp({log_value:.6g}) exceeds double range"
        )
    return math.exp(log_value)


def log_kummer(a, b, x: float):
    """ln Phi(a, b; x), elementwise over integer grids (or scalars)
    a, b >= 1 at one argument x >= 0.

    Phi(a, b; x) = sum_{i>=0} (a)_i x^i / ((b)_i i!), summed directly; all
    terms are positive on this domain. Terms are added until term/sum <
    1e-17 everywhere (hard cap 10000 terms).
    """
    total = np.ones(np.shape(a))
    term = np.ones(np.shape(a))
    with np.errstate(over="ignore"):
        for i in range(_KUMMER_MAX_TERMS):
            term = term * (a + i) * (x / ((b + i) * (i + 1.0)))
            total += term
            if np.all(term < _KUMMER_REL_TOL * total):
                break
    if not np.all(np.isfinite(total)):
        raise OverflowError(
            f"Kummer series Phi(a, b; {x}) overflowed during summation"
        )
    return np.log(total)


def kummer_phi(a: int, b: int, x: float) -> SignedLogValue:
    """Kummer confluent hypergeometric function Phi(a, b; x) for integer
    a, b >= 1 and x >= 0, summed by :func:`log_kummer`.

    Returns the value in signed-log form; the sign is always +1 on this
    domain.
    """
    if a < 1 or b < 1:
        raise ValueError(f"require a >= 1 and b >= 1, got a={a}, b={b}")
    if x < 0:
        raise ValueError(f"require x >= 0, got x={x}")
    return SignedLogValue(float(log_kummer(a, b, x)), 1)
