"""Finiteness estimate for prime v-palindromes under a Cramer-style model.

Assume the probability that n and n+2 are both prime is at most
C / log(n)**2 (natural log; the constant chain below fixes that reading).
The candidate at index n is the anchor pair near 5*10**n, so the expected
number of prime v-palindromes is bounded by a constant multiple of
sum 1/n**2, which converges: only finitely many are expected.
"""

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

DEFAULT_C = 1.0

# Below this index the anchor value is small enough to take an exact bignum
# log; above it the correction term is far below double precision.
_EXACT_LOG_MAX = 64

# The envelope sum stays below 100*C*pi**2/6 < 165*C, so below this C every
# term, running sum and bound is a finite double.
C_MAX = sys.float_info.max / 165

# The largest index n whose n*n converts to a double: the envelope term
# divides by it, and from 2**1024 - 2**970 on (halfway past the largest
# double) the conversion overflows.
_INDEX_MAX = math.isqrt(2**1024 - 2**970 - 1)

_LN10 = math.log(10.0)
_LN5 = math.log(5.0)


class KahanSum:
    """Compensated accumulator; add() in ascending term order."""

    __slots__ = ("total", "_comp")

    def __init__(self):
        self.total = 0.0
        self._comp = 0.0

    def add(self, x: float) -> None:
        y = x - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t


@dataclass(frozen=True)
class HeuristicReport:
    """Totals of the series over n_start..N, with the tail bound.

    rows() walks the series again, one index at a time.
    """

    C: float
    n_start: int
    N: int
    partial_sum: float
    envelope_sum: float
    tail_bound: float

    def rows(self):
        """(n, term, envelope term, partial sum, envelope sum) in ascending n."""
        return _series(self.n_start, self.N, self.C)


def _log_anchor(n: int) -> float:
    """Natural log of 5*10**n - 3."""
    if n <= _EXACT_LOG_MAX:
        return math.log(5 * 10**n - 3)
    return n * _LN10 + _LN5


def _check_model(n: int, C: float, what: str = "index") -> None:
    """DomainError unless 1 <= n <= _INDEX_MAX and 0 < C <= C_MAX."""
    if n < 1:
        raise DomainError(f"{what} must be >= 1, got {n}")
    if n > _INDEX_MAX:
        raise DomainError(f"{what} must be at most {_INDEX_MAX}, got {n}")
    if not 0 < C <= C_MAX:
        raise DomainError(
            f"model constant must be finite and positive, at most {C_MAX!r}, got {C}"
        )


def pair_probability(n: int, C: float = DEFAULT_C) -> float:
    """Model bound C / log(5*10**n - 3)**2 on both anchors being prime."""
    _check_model(n, C)
    return next(_series(n, n, C))[1]


def envelope_term(n: int, C: float = DEFAULT_C) -> float:
    """The dominating term 100*C/n**2."""
    _check_model(n, C)
    return next(_series(n, n, C))[2]


def _series(n_start: int, N: int, C: float):
    """Yield (n, term, envelope term, partial sum, envelope sum) for
    n_start..N, accumulating in ascending n with compensated summation.

    The caller has validated both ends and C.
    """
    partial = KahanSum()
    envelope = KahanSum()
    for n in range(n_start, N + 1):
        lg = _log_anchor(n)
        square = lg * lg
        # lg*lg overflows from n ~ 5.8e153 on, where C/lg/lg is still a
        # (subnormal) double; where the square is finite, C/(lg*lg) is used,
        # since C/lg/lg can round differently in the last bit
        t = C / square if square < math.inf else C / lg / lg
        e = 100.0 * C / (n * n)
        partial.add(t)
        envelope.add(e)
        yield n, t, e, partial.total, envelope.total


def expected_count(n_start: int, N: int, C: float = DEFAULT_C) -> HeuristicReport:
    """Partial sums of the expected-count series over [n_start, N].

    Terms are accumulated in ascending n with compensated summation;
    tail_bound = 100*C/N dominates the envelope series beyond N.
    """
    _check_model(n_start, C, "start index")
    if N < n_start:
        raise DomainError(f"empty index range [{n_start}, {N}]")
    _check_model(N, C, "end index")
    for _n, _t, _e, partial_sum, envelope_sum in _series(n_start, N, C):
        pass
    return HeuristicReport(C, n_start, N, partial_sum, envelope_sum, 100.0 * C / N)
