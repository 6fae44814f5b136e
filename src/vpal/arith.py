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

# (limit, all primes <= limit): the one prime table of the process.  It is
# replaced whole, never edited, and only by a table for a larger limit.  Each
# call slices the tuple it read or built, never a second read of this name,
# so a racing call may sieve a range twice but never gets a short table.
_prime_table = (1, np.zeros(0, dtype=np.int64))
_prime_table[1].flags.writeable = False


def _primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as a read-only ascending int64 array.

    A prefix of the process's prime table.  A limit past the table grows it
    to exactly that limit: the primes up to its root first, then
    prime_flags segments over the new range only, so no array of limit + 1
    flags is ever held.
    """
    global _prime_table
    known, table = _prime_table
    if limit > known:
        _primes_upto(math.isqrt(limit))  # the segments below sieve with these
        pieces = [table] + [
            lo + np.flatnonzero(prime_flags(lo, min(lo + _PRIME_SEGMENT - 1, limit)))
            for lo in range(known + 1, limit + 1, _PRIME_SEGMENT)
        ]
        table = np.concatenate(pieces)
        table.flags.writeable = False
        if limit > _prime_table[0]:
            _prime_table = (limit, table)
    return table[: np.searchsorted(table, limit, side="right")]


def prime_flags(lo: int, hi: int) -> np.ndarray:
    """Bool array over [lo, hi], True where lo + i is prime.

    A segmented sieve of Eratosthenes: each p <= sqrt(hi) strikes its
    multiples from max(p*p, the first multiple >= lo) on.
    """
    if lo < 0:
        raise DomainError(f"segment start must be >= 0, got {lo}")
    flags = np.ones(max(hi - lo + 1, 0), dtype=bool)
    flags[: max(0, 2 - lo)] = False
    for p in _primes_upto(math.isqrt(max(hi, 0))).tolist():
        flags[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return flags


_SMALL_PRIME_LIMIT = 4096
_SMALL_PRIMES = tuple(_primes_upto(_SMALL_PRIME_LIMIT).tolist())


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


def _check_rounds(rounds: int) -> None:
    if rounds < 1:
        raise DomainError(f"rounds must be positive, got {rounds}")


def is_prime(n: int, rounds: int = DEFAULT_ROUNDS) -> PrimalityVerdict:
    """Primality verdict for n, deterministic below DETERMINISTIC_BOUND.

    Above the bound the test runs ``rounds`` Miller-Rabin rounds and labels
    a surviving n "probable_prime" rather than claiming certainty.
    """
    if n < 0:
        raise DomainError(f"primality is defined for nonnegative integers, got {n}")
    _check_rounds(rounds)
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


def _brent_rho(m: int, left: float) -> tuple[int, float] | None:
    """(nontrivial factor of an odd composite m, budget left) via Brent-cycle
    rho, or None once a batch of iterations costs more than ``left``.

    Each run of iterations between two gcds is charged before it starts; a
    batch always runs to its end, so refusing one it cannot pay for stops at
    the same point as counting its iterations one by one.  The polynomial
    increment walks a fixed sequence so results are reproducible run to run.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        x0 = ys = y
        while g == 1:
            x0 = y
            left -= r
            if left < 0:
                return None
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                left -= batch
                if left < 0:
                    return None
                for _ in range(batch):
                    y = (y * y + c) % m
                    q = q * abs(x0 - y) % m
                g = math.gcd(q, m)
                k += 128
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                left -= 1
                if left < 0:
                    return None
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x0 - ys), m)
        if g != m:
            return g, left
        # cycle degenerated for this increment; try the next one


def factorize(n: int, budget: int | None = None) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as strictly ascending (prime, exponent)
    pairs; 1 factors into the empty list.

    Trial division peels off primes below 4096, then Brent's rho splits what
    remains.  ``budget`` caps the total operation count (division probes plus
    rho iterations) and must be nonnegative; when a cofactor cannot be split
    in time, BudgetExceeded carries the partial factorization and the unsplit
    cofactor.  Cofactors beyond DETERMINISTIC_BOUND are accepted as prime on
    a probable-prime verdict.
    """
    if n < 1:
        raise DomainError(f"factorize is defined for n >= 1, got {n}")
    if budget is not None and budget < 0:
        raise DomainError(f"budget must be nonnegative, got {budget}")
    left = math.inf if budget is None else budget
    found: dict[int, int] = {}
    m = n  # the cofactor being worked on; the unsplit rest is m * prod(pending)
    for i, p in enumerate(_SMALL_PRIMES):
        if p * p > m:
            # trial division covered all primes up to sqrt(m), so m is 1 or a
            # prime above every one divided out
            if m > 1:
                found[m] = 1
            return sorted(found.items())
        if i >= left:  # the budget paid for probes 0..i-1 only
            raise BudgetExceeded(sorted(found.items()), m)
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            found[p] = e
    left -= len(_SMALL_PRIMES)
    if m == 1:
        return sorted(found.items())
    pending = [m]
    while pending:
        m = pending.pop()
        if is_prime(m).non_composite:
            found[m] = found.get(m, 0) + 1
            continue
        split = _brent_rho(m, left)
        if split is None:
            raise BudgetExceeded(sorted(found.items()), m * math.prod(pending))
        d, left = split
        pending += [d, m // d]
    return sorted(found.items())


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
    return _primes_upto(limit).tolist()


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


def v_progression(a: int, step: int, count: int) -> np.ndarray:
    """v(a + s*step) for every s in [0, count), as int64, indexed by s.

    One sieve over the progression with the primes up to the square root of
    its last term.  A prime p that does not divide step divides exactly the
    terms at s = -a/step mod p, then every p-th one, so each power p**k is
    multiplied into the found part of those terms through one strided
    slice (a multiply costs a fraction of an int64 division).  A prime that
    divides step divides either every term or none; the power all terms
    share is multiplied in at once, and the rest of p falls on strided terms
    of the quotient progression as above.  Every term must fit in int64.
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
    primes = _primes_upto(math.isqrt(last))
    found = np.ones(count, dtype=np.int64)  # product of the prime powers found
    acc = np.zeros(count, dtype=np.int64)
    # walk the table in slices so that no list of all of it is built
    slices = (primes[i : i + _PRIME_SLICE].tolist() for i in range(0, primes.size, _PRIME_SLICE))
    for p in itertools.chain.from_iterable(slices):
        b, t, e = a, step, 1  # e: the exponent of p the next strike brings
        if step % p == 0:
            # p divides every term or none.  All share p**d with
            # d = min(v_p(a), v_p(step)); with that divided out, the quotient
            # terms b + s*t hold more of p only when p no longer divides t
            while b % p == 0 and t % p == 0:
                b, t, e = b // p, t // p, e + 1
            if e > 1:
                found *= p ** (e - 1)
                acc += p + iota(e - 1)
            if t % p == 0:
                continue
        # p**k divides the quotient terms s = -b/t mod p**k, every p**k-th
        # on; exponent 1 adds p, reaching 2 adds iota(2) = 2, each later one 1
        q = p
        while q <= last:
            s = -b * pow(t, -1, q) % q
            if s >= count:
                break
            found[s::q] *= p
            acc[s::q] += p if e == 1 else 2 if e == 2 else 1
            q *= p
            e += 1
    # what survives is 1 or a single prime: a composite survivor would
    # exceed the last term, since its prime factors all exceed its root
    rem = np.arange(count, dtype=np.int64)
    rem *= step
    rem += a
    rem //= found
    rem[rem == 1] = 0
    acc += rem
    return acc


def v_segment(lo: int, hi: int) -> np.ndarray:
    """v(n) for every n in [lo, hi] as int64, indexed by n - lo.

    The progression sieve with step 1: the whole block costs
    O((hi-lo) log log hi) strided multiplies and one division per n instead
    of one factorization per n.
    """
    if lo < 1:
        raise DomainError(f"segment start must be >= 1, got {lo}")
    return v_progression(lo, 1, hi - lo + 1)
