"""Stable evaluation of the special functions used by the detector model.

The detector response and its analytic inverse mix factorial ratios, powers
of small probabilities and two polynomial/series factors: the associated
Laguerre polynomial L_n^k evaluated at nonpositive argument, and the Kummer
confluent hypergeometric series Phi(a, b; x) at nonnegative argument. Both
reduce to sums of same-sign terms on those argument ranges, so everything
here is accumulated in log space without cancellation. A Poisson tail bound
sizes the windows that photon and count distributions are cut from.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_laguerre_nonpos",
    "log_kummer",
    "log_factorial_table",
    "poisson_upper",
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
_log_fact_cache.flags.writeable = False  # callers get views of the cache


def log_factorial_table(n_max: int) -> np.ndarray:
    """Read-only array of ln(i!) for i = 0..n_max (cached, grows on demand)."""
    global _log_fact_cache
    if n_max >= _log_fact_cache.size:
        size = max(n_max + 1, 2 * _log_fact_cache.size)
        _log_fact_cache = np.array([_log_fact(i) for i in range(size)])
        _log_fact_cache.flags.writeable = False
    return _log_fact_cache[: n_max + 1]


def log_laguerre_nonpos(n, k, x: float):
    """ln L_n^k(x) for x <= 0, elementwise over integer arrays (or scalars)
    n >= 0, k >= -n at one argument x; every term of the defining sum

        L_n^k(x) = sum_{i=0}^{n} C(n+k, n-i) (-x)^i / i!

    is nonnegative. Summed via max-shifted exponentials, so the result
    stays finite in log form even when L itself overflows a double. At
    x = 0 only the i = 0 term, C(n+k, n), is kept.
    """
    n, k = np.asarray(n), np.asarray(k)
    if np.any(n < 0) or np.any(k < -n):
        raise ValueError(f"require n >= 0 and k >= -n, got n={n}, k={k}")
    if not x <= 0:
        raise ValueError(f"log-space path requires x <= 0, got x={x}")
    table = log_factorial_table(int(np.max(n) + np.max(np.abs(k))) + 1)
    i = np.arange(int(np.max(n)) + 1 if x < 0 else 1)
    log_x = math.log(-x) if x < 0 else 0.0
    n_i, k_i = n[..., None], k[..., None] + i
    # ln C(n+k, n-i) = ln((n+k)!) - ln((n-i)!) - ln((k+i)!), valid for
    # -k <= i <= n
    log_terms = np.where(
        (i <= n_i) & (k_i >= 0),
        table[n_i + k[..., None]]
        - table[n_i - i]
        - table[np.maximum(k_i, 0)]
        + (i * log_x - table[i]),
        -math.inf,
    )
    top = log_terms.max(axis=-1)
    if x < 0:
        top = top + np.log(np.exp(log_terms - top[..., None]).sum(axis=-1))
    return top if top.ndim else float(top)


def log_kummer(a, b, x: float):
    """ln Phi(a, b; x), elementwise over integer grids (or scalars)
    a, b >= 1 at one argument x >= 0.

    Phi(a, b; x) = sum_{i>=0} (a)_i x^i / ((b)_i i!), summed directly; all
    terms are positive on this domain. Terms are added until term/sum <
    1e-17 everywhere (hard cap 10000 terms); an overflow raises
    OverflowError naming the first term beyond the double range.
    """
    total, term = np.ones(np.shape(a)), np.ones(np.shape(a))
    spare, scratch = np.empty_like(term), np.empty_like(term)
    try:
        with np.errstate(over="raise"):
            for i in range(_KUMMER_MAX_TERMS):
                # spare = term * (a + i) * (x / ((b + i) * (i + 1.0))), in buffers
                np.multiply(term, np.add(a, i, out=spare), out=spare)
                np.multiply(np.add(b, i, out=scratch), i + 1.0, out=scratch)
                np.multiply(spare, np.divide(x, scratch, out=scratch), out=spare)
                term, spare = spare, term
                total += term
                if np.all(term < np.multiply(total, _KUMMER_REL_TOL, out=scratch)):
                    break
    except FloatingPointError:
        # term * (a + i) can overflow while term i + 1 is still a double:
        # the failed product went to spare and left term i in place, so go
        # on in log space. An overflowed partial sum has written inf into
        # total instead, and term holds term i + 1.
        n = i + 1
        if np.all(np.isfinite(total)):
            n, log_term = i, np.log(term)
            while np.all(log_term <= MAX_LOG) and n < _KUMMER_MAX_TERMS:
                log_term = log_term + np.log((a + n) * (x / ((b + n) * (n + 1.0))))
                n += 1
        raise OverflowError(
            f"Kummer series Phi(a, b; {x}) overflowed at term {n}"
        ) from None
    return np.log(total, out=total)[()]  # a scalar for scalar a


def poisson_upper(mean: float, tail: float, weight: float = 1.0) -> float:
    """A count past which ``weight`` times the Poisson(mean) mass is below
    tail * eps, from the Bernstein bound exp(-x^2/(2 (mean + x/3))) on the
    mass from mean + x up."""
    log_mass = math.log(weight / np.finfo(float).eps) - math.log(tail)
    return mean + log_mass / 3 + math.sqrt(log_mass * log_mass / 9 + 2 * mean * log_mass)
