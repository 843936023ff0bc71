"""Detector response matrix and forward map.

The response entry S[m|n] is the probability of registering m counts given
n photons, for a detector with efficiency eta and Poissonian noise counts
of mean N = n_noise. Each photon is counted with probability eta (binomial
thinning) and an independent Poisson(N) number of noise counts is added,
so column n is the Binomial(n, eta) pmf convolved with the Poisson(N) pmf.
The matrix is built column by column: column 0 is the Poisson(N) pmf and

    S[m|n+1] = (1-eta) S[m|n] + eta S[m-1|n],

a sum of two nonnegative terms per entry with no cancellation. The same
entries in closed form, which the scalar reference :func:`response_entry`
evaluates in log space (the factorial ratio and the power of N span
hundreds of orders of magnitude at window sizes of interest):

    m >= n:  S[m|n] = e^{-N} N^{m-n} eta^n (n!/m!) L_n^{m-n}(N(eta-1)/eta)
    m <= n:  S[m|n] = e^{-N} (1-eta)^{n-m} eta^m L_m^{n-m}(N(eta-1)/eta)

with the branches agreeing at m = n; the Laguerre argument is nonpositive
for eta in (0, 1], so each is a product of positive factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special import log_factorial_table, log_laguerre_nonpos, poisson_upper
from .states import PhotonDistribution, _check_tail, _require_real, _require_vector

__all__ = [
    "DetectorParams",
    "ResponseMatrix",
    "response_entry",
    "build_response",
    "zero_pad",
    "forward",
    "suggest_m_max",
]

_SUGGEST_HARD_MARGIN = 4000


@dataclass(frozen=True)
class DetectorParams:
    """Detection efficiency eta in (0, 1] and mean noise counts >= 0."""

    eta: float
    n_noise: float

    def __post_init__(self):
        for name in ("eta", "n_noise"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))
        object.__setattr__(self, "n_noise", self.n_noise + 0.0)  # -0.0 would write "-0"
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.n_noise < 0.0:
            raise ValueError(f"n_noise must be >= 0, got {self.n_noise}")

    @property
    def laguerre_arg(self) -> float:
        """N(eta-1)/eta, nonpositive on the valid parameter range."""
        return self.n_noise * (self.eta - 1.0) / self.eta


@dataclass(frozen=True, eq=False)
class ResponseMatrix:
    """Dense response matrix, rows m = 0..m_max, columns n = 0..n_max.

    ``entries`` must be a finite, nonnegative 2-d array (anything
    ``np.asarray`` turns into one); it is made read-only, a view being
    copied first, so the values derived from it stay valid. Entries are
    stored column-major whatever the input's layout, so built and read
    matrices give the same product bits; a C-order input pays a
    transposing copy (1.89 ms against 0.36 ms from an F-order array on
    the 322 x 703 thermal window), so pass ``order="F"`` arrays where
    the matrix is large. Both derived values are taken
    when the matrix is built, not passed:
    col_tail[n] = max(0, 1 - sum_m entries[m, n]) bounds the conditional
    mass truncated away above m_max in column n, and norm_bound_sq =
    (max column sum) * (max row sum) bounds sigma_max(S)^2 from above
    (the Schur test, Horn & Johnson, *Matrix Analysis*, 5.6; valid for
    S >= 0). Entries made writable again are rechecked on every use.
    """

    entries: np.ndarray
    params: DetectorParams
    _col_tail: np.ndarray = field(init=False, repr=False)
    _norm_bound_sq: float = field(init=False, repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float, order="F")
        if entries.ndim != 2:
            raise ValueError(f"entries must be a 2-d matrix, got shape {entries.shape}")
        if not entries.flags.owndata:  # writes through its base would go unseen
            entries = entries.copy(order="F")
        object.__setattr__(self, "entries", entries)
        self._derive()
        entries.flags.writeable = False

    def _derive(self) -> None:  # check the entries, set col_tail and norm_bound_sq
        entries = self.entries
        with np.errstate(over="ignore"):  # finite entries may overflow a sum
            sums = entries.sum(axis=0)  # non-finite in each column with a NaN or inf
            rows = entries.sum(axis=1)
        bad = () if np.isfinite(sums).all() else np.argwhere(~np.isfinite(entries))
        if len(bad):  # none if finite entries merely overflowed a sum
            m, n = bad[0].tolist()
            raise ValueError(
                f"non-finite entry {float(entries[m, n])!r} at (m, n) = ({m}, {n})"
            )
        if entries.min(initial=0.0) < 0.0:  # a reduction: no window-sized mask
            m, n = np.unravel_index(entries.argmin(), entries.shape)
            raise ValueError(
                f"negative entry {float(entries[m, n])!r} at (m, n) = ({m}, {n})"
            )
        object.__setattr__(self, "_col_tail", np.maximum(0.0, 1.0 - sums))
        bound = float(sums.max(initial=0.0)) * float(rows.max(initial=0.0))
        object.__setattr__(self, "_norm_bound_sq", bound)

    @property
    def m_max(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def n_max(self) -> int:
        return self.entries.shape[1] - 1

    @property
    def col_tail(self) -> np.ndarray:
        if self.entries.flags.writeable:
            self._derive()
        return self._col_tail

    @property
    def norm_bound_sq(self) -> float:
        """(max column sum) * (max row sum) >= sigma_max(S)^2; 0 only for a
        zero matrix, inf if the product leaves the double range."""
        if self.entries.flags.writeable:
            self._derive()
        return self._norm_bound_sq


def _log_entry_m_ge_n(params: DetectorParams, m: int, n: int) -> float:
    """ln S[m|n] on the m >= n branch."""
    noise = params.n_noise
    if noise == 0.0 and m > n:
        return -math.inf
    table = log_factorial_table(max(m, n))
    value = -noise + n * math.log(params.eta) + table[n] - table[m]
    if m > n:
        value += (m - n) * math.log(noise)
    return value + log_laguerre_nonpos(n, m - n, params.laguerre_arg)


def _log_entry_m_le_n(params: DetectorParams, m: int, n: int) -> float:
    """ln S[m|n] on the m <= n branch."""
    if params.eta == 1.0 and n > m:
        return -math.inf
    value = -params.n_noise + m * math.log(params.eta)
    if n > m:
        value += (n - m) * math.log1p(-params.eta)
    return value + log_laguerre_nonpos(m, n - m, params.laguerre_arg)


def response_entry(params: DetectorParams, m: int, n: int) -> float:
    """Probability S[m|n] of m photocounts given n photons."""
    if m < 0 or n < 0:
        raise ValueError(f"require m, n >= 0, got m={m}, n={n}")
    return math.exp((_log_entry_m_ge_n if m >= n else _log_entry_m_le_n)(params, m, n))


def _poisson_pmf(mean: float, out: np.ndarray) -> np.ndarray:
    """Poisson(mean) pmf at 0..out.size-1, written into ``out``: the value
    at the mode M = min(floor(mean), size-1) from its logarithm, so that
    e^{-mean} cannot underflow it, and the others as running products of
    the ratios mean/m above M and m/mean below it, all <= 1: about 1e-15
    relative at a few hundred rows, where exp of the full logarithm would
    inherit the rounding of ln m! (about 1e-13 at ln m! ~ 700). A zero mean
    gives e_0."""
    mode = min(int(mean), out.size - 1)
    table = log_factorial_table(mode)
    out[mode] = math.exp(-mean - table[mode] + (mode * math.log(mean) if mode else 0.0))
    above, below = out[mode + 1 :], out[:mode][::-1]
    np.cumprod(mean / np.arange(mode + 1.0, out.size), out=above)
    np.cumprod(np.arange(mode, 0.0, -1.0) / mean, out=below)
    above *= out[mode]
    below *= out[mode]
    return out


def build_response(
    params: DetectorParams, n_max: int, m_max: int
) -> ResponseMatrix:
    """Materialize the dense response matrix on the given window.

    Equivalent to filling every entry with :func:`response_entry`. Column 0
    is the Poisson(N) pmf and each next column the thinning step
    (1-eta) col + eta col shifted down a row, written into the next
    column of the column-major matrix buffer, so every step reads and
    writes contiguous memory. (1-eta) col is formed as col - eta col when
    eta < 1/2, where 1 - eta need not be a double and its rounding would
    compound once per column (5.7e-14 relative by n = 702 at eta = 0.34),
    and with the exact 1 - eta otherwise.
    """
    if n_max < 0 or m_max < 0:
        raise ValueError("n_max and m_max must be nonnegative")
    entries = np.empty((m_max + 1, n_max + 1), order="F")
    _poisson_pmf(params.n_noise, entries[:, 0])
    # 0-d arrays, not floats as chi in landweber: this loop makes n_max short
    # calls (702 on 322 entries each at thermal_fig1), so float handling shows
    eta, counted = np.array(params.eta), np.empty(m_max + 1)
    head = counted[:-1]  # eta col, shifted down a row into rows 1..m_max
    kept, operand = ((np.subtract, counted) if params.eta < 0.5
                     else (np.multiply, np.array(1.0 - params.eta)))
    multiply, add = np.multiply, np.add
    for col, nxt, low in zip(entries.T, entries.T[1:], entries[1:].T[1:]):
        multiply(col, eta, counted)
        kept(col, operand, nxt)
        add(low, head, low)
    return ResponseMatrix(entries, params)


def zero_pad(values, size: int, name: str, limit: str) -> np.ndarray:
    """``values`` as a float vector zero-padded to ``size``, with no copy
    (the checked input itself) when it already has that size; a longer
    vector raises ValueError naming it (``name``) and the ``limit``, and
    anything but a 1-d vector ValueError naming its shape."""
    values = _require_vector(values, name)
    if values.size > size:
        raise ValueError(
            f"{name} of length {values.size} exceeds {limit} {size}"
        )
    return values if values.size == size else np.pad(values, (0, size - values.size))


def forward(mat: ResponseMatrix, p: PhotonDistribution) -> np.ndarray:
    """Apply the forward map: counts[m] = sum_n S[m|n] p[n], returned as a
    float vector over m = 0..m_max.

    The photon vector may be shorter than the matrix column count; it is
    zero-padded. A longer vector is a dimension mismatch.
    """
    probs = zero_pad(p.probs, mat.n_max + 1, "photon vector", "matrix columns")
    return mat.entries @ probs


def suggest_m_max(params: DetectorParams, n_max: int, tail: float) -> int:
    """Smallest m_max whose column-n_max conditional distribution loses at
    most ``tail`` of its mass, the loss past each row summed smallest term
    first, on the column the Binomial(n_max, eta) pmf (from its logarithm)
    convolved with the Poisson(N) pmf up to where less than tail * eps of
    its mass is left; at most n_max + 4000.

    The worst column is n_max (the conditional count mean grows with n).
    """
    _check_tail(tail)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if params.n_noise == 0.0:
        # no counts above n: the column is exactly supported on 0..n_max
        return n_max
    cap = n_max + _SUGGEST_HARD_MARGIN
    rows = poisson_upper(params.n_noise, tail)
    if rows > 2 * cap:  # the noise mean is past the cap, and so is the column's
        return cap
    poisson = _poisson_pmf(params.n_noise, np.empty(int(rows) + 1))
    if params.eta < 1.0:
        k, table = np.arange(n_max + 1), log_factorial_table(n_max)
        binomial = np.exp(table[n_max] - table - table[::-1] + k * math.log(params.eta)
                          + (n_max - k) * math.log1p(-params.eta))
    else:
        binomial = np.zeros(n_max + 1)
        binomial[n_max] = 1.0
    column = np.convolve(binomial, poisson)
    return min(cap, int(np.count_nonzero(np.cumsum(column[:0:-1]) > tail)))
