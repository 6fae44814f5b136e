"""Integer factorization, primality testing, and the additive functions built
on factorizations.

All operations are pure and work on plain Python ints, so arbitrary-precision
inputs are handled throughout.  The batch sieves return immutable tables that
are safe to share read-only between workers.
"""

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, DomainError

DEFAULT_ROUNDS = 64

# The first 13 primes form a complete strong-pseudoprime witness set below
# this bound (Sorenson & Webster), so verdicts there are deterministic.
DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@dataclass(frozen=True)
class PrimalityVerdict:
    """Outcome of a primality test.

    ``status`` is "prime", "composite", or "probable_prime"; ``certainty``
    is the number of probabilistic rounds backing a probable_prime verdict
    (0 when the verdict is deterministic).  For n < 2 the status is
    "composite" in the sense of "proven not prime".
    """

    status: str
    certainty: int = 0

    @property
    def non_composite(self) -> bool:
        return self.status != "composite"


_PRIME_SEGMENT = 1 << 18


@lru_cache(maxsize=32)
def _cached_primes(limit: int) -> np.ndarray:
    """All primes <= limit as a read-only int64 array.

    Built segment by segment with prime_flags over the primes up to the
    root, so no array of limit + 1 flags is ever held.
    """
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    root_primes = _cached_primes(math.isqrt(limit))
    pieces = [
        lo + np.flatnonzero(
            prime_flags(lo, min(lo + _PRIME_SEGMENT - 1, limit), root_primes))
        for lo in range(0, limit + 1, _PRIME_SEGMENT)
    ]
    primes = np.concatenate(pieces)
    primes.flags.writeable = False
    return primes


def prime_flags(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Bool array over [lo, hi], True where lo + i is prime.

    A segmented sieve of Eratosthenes: each p <= sqrt(hi) strikes its
    multiples from max(p*p, the first multiple >= lo) on.  ``primes`` is an
    ascending prime table reaching at least sqrt(hi); larger entries are
    ignored.
    """
    if lo < 0:
        raise DomainError(f"segment start must be >= 0, got {lo}")
    flags = np.ones(max(hi - lo + 1, 0), dtype=bool)
    flags[: max(0, 2 - lo)] = False
    used = primes[: np.searchsorted(primes, math.isqrt(max(hi, 0)), side="right")]
    for p in used.tolist():
        flags[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return flags


_SMALL_PRIME_LIMIT = 4096
_SMALL_PRIMES = tuple(_cached_primes(_SMALL_PRIME_LIMIT).tolist())


def _strong_probable_prime(n: int, base: int) -> bool:
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int, rounds: int = DEFAULT_ROUNDS) -> PrimalityVerdict:
    """Primality verdict for n, deterministic below DETERMINISTIC_BOUND.

    Above the bound the test runs ``rounds`` Miller-Rabin rounds and labels
    a surviving n "probable_prime" rather than claiming certainty.
    """
    if n < 0:
        raise DomainError(f"primality is defined for nonnegative integers, got {n}")
    if rounds < 1:
        raise DomainError(f"rounds must be positive, got {rounds}")
    if n < 2:
        return PrimalityVerdict("composite")
    for p in _WITNESSES:
        if n == p:
            return PrimalityVerdict("prime")
        if n % p == 0:
            return PrimalityVerdict("composite")
    if n < DETERMINISTIC_BOUND:
        ok = all(_strong_probable_prime(n, a) for a in _WITNESSES)
        return PrimalityVerdict("prime" if ok else "composite")
    # Bases are drawn from a generator seeded by n so repeated runs give
    # identical verdicts.
    rng = random.Random(n)
    for _ in range(rounds):
        if not _strong_probable_prime(n, rng.randrange(2, n - 1)):
            return PrimalityVerdict("composite")
    return PrimalityVerdict("probable_prime", certainty=rounds)


class _Budget:
    """Mutable operation counter; limit None means unlimited."""

    __slots__ = ("left",)

    def __init__(self, limit):
        if limit is not None and limit < 0:
            raise DomainError(f"budget must be nonnegative, got {limit}")
        self.left = limit

    def spend(self) -> bool:
        if self.left is None:
            return True
        self.left -= 1
        return self.left >= 0


class _OutOfBudget(Exception):
    pass


def _brent_rho(m: int, counter: _Budget) -> int:
    """Nontrivial factor of an odd composite m via Brent-cycle rho.

    The polynomial increment walks a fixed sequence so results are
    reproducible run to run.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        x0 = ys = y
        while g == 1:
            x0 = y
            for _ in range(r):
                if not counter.spend():
                    raise _OutOfBudget
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    if not counter.spend():
                        raise _OutOfBudget
                    y = (y * y + c) % m
                    q = q * abs(x0 - y) % m
                g = math.gcd(q, m)
                k += 128
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                if not counter.spend():
                    raise _OutOfBudget
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x0 - ys), m)
        if g != m:
            return g
        # cycle degenerated for this increment; try the next one


def _sorted_factors(found: dict) -> list[tuple[int, int]]:
    return sorted(found.items())


def factorize(n: int, budget: int | None = None) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as strictly ascending (prime, exponent)
    pairs; 1 factors into the empty list.

    Trial division peels off primes below 4096, then Brent's rho splits what
    remains.  ``budget`` caps the total operation count (division probes plus
    rho iterations); when a cofactor cannot be split in time, BudgetExceeded
    carries the partial factorization and the unsplit cofactor.  Cofactors
    beyond DETERMINISTIC_BOUND are accepted as prime on a probable-prime
    verdict.
    """
    if n < 1:
        raise DomainError(f"factorize is defined for n >= 1, got {n}")
    if n == 1:
        return []
    counter = _Budget(budget)
    found: dict[int, int] = {}
    x = n
    fully_tried = False
    for p in _SMALL_PRIMES:
        if p * p > x:
            fully_tried = True
            break
        if not counter.spend():
            raise BudgetExceeded(_sorted_factors(found), x)
        if x % p == 0:
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            found[p] = e
    if x == 1:
        return _sorted_factors(found)
    if fully_tried:
        # trial division covered all primes up to sqrt(x), so x is prime
        found[x] = found.get(x, 0) + 1
        return _sorted_factors(found)
    pending = [x]
    m = x
    try:
        while pending:
            m = pending.pop()
            if is_prime(m).non_composite:
                found[m] = found.get(m, 0) + 1
                continue
            d = _brent_rho(m, counter)
            pending.append(d)
            pending.append(m // d)
    except _OutOfBudget:
        cofactor = m
        for rest in pending:
            cofactor *= rest
        raise BudgetExceeded(_sorted_factors(found), cofactor) from None
    return _sorted_factors(found)


def iota(alpha: int) -> int:
    """0 for exponent 1, the exponent itself otherwise."""
    if alpha < 1:
        raise DomainError(f"iota is defined for positive integers, got {alpha}")
    return alpha if alpha > 1 else 0


def v(n: int, budget: int | None = None) -> int:
    """Sum of p + iota(e) over the factorization of n; v(1) = 0.

    Never returns a partial sum: an unfinished factorization propagates
    BudgetExceeded instead.
    """
    return sum(p + iota(e) for p, e in factorize(n, budget))


def alladi_erdos_A(n: int, budget: int | None = None) -> int:
    """Sum of p*e over the factorization of n; A(1) = 0."""
    return sum(p * e for p, e in factorize(n, budget))


def oeis_F(n: int, budget: int | None = None) -> int:
    """Sum of (p + e) over the factorization of n (OEIS A008474); F(1) = 0."""
    return sum(p + e for p, e in factorize(n, budget))


def oeis_G(n: int, budget: int | None = None) -> int:
    """Product of p*e over the factorization of n (OEIS A000026); G(1) = 1."""
    out = 1
    for p, e in factorize(n, budget):
        out *= p * e
    return out


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    return _cached_primes(limit).tolist()


def spf_sieve(limit: int) -> np.ndarray:
    """Smallest-prime-factor table for [0, limit].

    spf[0] = 0, spf[1] = 1, spf[p] = p for primes.  Immutable by convention;
    share read-only.
    """
    if limit < 1:
        raise DomainError(f"sieve limit must be >= 1, got {limit}")
    dtype = np.int32 if limit < 2**31 else np.int64
    spf = np.arange(limit + 1, dtype=dtype)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            idx = np.arange(p * p, limit + 1, p)
            untouched = idx[spf[idx] == idx]
            spf[untouched] = p
    return spf


def v_with_table(n: int, spf: np.ndarray) -> int:
    """v(n) via a smallest-prime-factor table covering n."""
    if n < 1:
        raise DomainError(f"v is defined for n >= 1, got {n}")
    total = 0
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        total += p + (e if e > 1 else 0)
    return total


INT64_MAX = np.iinfo(np.int64).max
_PRIME_SLICE = 1 << 12


def v_progression(a: int, step: int, count: int,
                  primes: np.ndarray | None = None) -> np.ndarray:
    """v(a + s*step) for every s in [0, count), as int64, indexed by s.

    One sieve over the progression with the primes up to the square root of
    its last term.  A prime p that does not divide step divides exactly the
    terms at s = -a/step mod p, then every p-th one, so each power p**k is
    multiplied into the found part of those terms through one strided
    slice (a multiply costs a fraction of an int64 division).  A prime that
    divides step divides either every term or none and is peeled off on its
    own.
    ``primes``, when given, is an ascending prime table reaching at least
    the square root of the last term (larger entries are ignored); by
    default it is computed.  Every term must fit in int64.
    """
    if a < 1 or step < 1:
        raise DomainError(f"progression start and step must be >= 1, got {a}, {step}")
    if count < 1:
        return np.zeros(0, dtype=np.int64)
    if count == 1:
        step = 1  # a single term does not depend on the step, which may not fit int64
    last = a + (count - 1) * step
    if last > INT64_MAX:
        raise DomainError(f"progression term {last} does not fit in int64")
    if primes is None:
        primes = _cached_primes(math.isqrt(last))
    else:
        primes = primes[: np.searchsorted(primes, math.isqrt(last), side="right")]
    found = np.ones(count, dtype=np.int64)  # product of the prime powers found
    acc = np.zeros(count, dtype=np.int64)
    # walk the table in slices so that no list of all of it is built
    slices = (primes[i : i + _PRIME_SLICE].tolist() for i in range(0, primes.size, _PRIME_SLICE))
    for p in itertools.chain.from_iterable(slices):
        if step % p == 0:
            if a % p == 0:
                _peel_every_term(found, acc, p, a, step)
            continue
        # p**k divides the terms s = -a/step mod p**k, every p**k-th on;
        # exponent 1 adds p, reaching 2 adds iota(2) = 2, each later one 1
        q, k = p, 1
        while q <= last:
            s = -a * pow(step, -1, q) % q
            if s >= count:
                break
            found[s::q] *= p
            acc[s::q] += p if k == 1 else 2 if k == 2 else 1
            q *= p
            k += 1
    # what survives is 1 or a single prime: a composite survivor would
    # exceed the last term, since its prime factors all exceed its root
    rem = np.arange(count, dtype=np.int64)
    rem *= step
    rem += a
    rem //= found
    rem[rem == 1] = 0
    acc += rem
    return acc


def _peel_every_term(found: np.ndarray, acc: np.ndarray, p: int, a: int, step: int) -> None:
    """Multiply the power of p in each term a + s*step, all of which p
    divides, into ``found``, adding p + iota(e) to each term's v.

    Every term shares p**d with d = min(v_p(a), v_p(step)).  When
    v_p(a) < v_p(step) that is all of p in every term; otherwise the
    quotient progression has a step prime to p, and its higher powers of p
    fall on strided terms as in v_progression.
    """
    d = 0
    while a % p == 0 and step % p == 0:
        a, step, d = a // p, step // p, d + 1
    found *= p**d
    acc += p + (d if d > 1 else 0)
    if step % p == 0:
        return
    # d >= 1, so each further power takes the exponent to 2 or beyond
    q, e, last = p, d + 1, a + (found.size - 1) * step
    while q <= last:
        s = -a * pow(step, -1, q) % q
        if s >= found.size:
            break
        found[s::q] *= p
        acc[s::q] += 2 if e == 2 else 1
        q *= p
        e += 1


def v_segment(lo: int, hi: int) -> np.ndarray:
    """v(n) for every n in [lo, hi] as int64, indexed by n - lo.

    The progression sieve with step 1: the whole block costs
    O((hi-lo) log log hi) divisions instead of one factorization per n.
    """
    if lo < 1:
        raise DomainError(f"segment start must be >= 1, got {lo}")
    return v_progression(lo, 1, hi - lo + 1)
