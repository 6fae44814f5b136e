"""Integer factorization, primality testing, the additive function v, and the
batch sieves that give v of many integers at once.

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


INT64_MAX = np.iinfo(np.int64).max
_PRIME_SLICE = 1 << 12
# A power that hits this many terms gets a strided slice (a Python step),
# the rest of its level one index array.  Over the sieve calls of verify
# --bound 10^7 and enumerate 1..150000 (2-vCPU machine, two interleaved
# runs), 128 took within 5% of 256, and 64, 512 and 1024 up to 16-19% more;
# that verify's 49 prime_flags windows took 11-13% less at 64, 11-16% more
# at 512 and 25-34% more at 1024.
_DENSE_HITS = 256
# Fewer sparse powers than this (at least 1) in a level get slices too.  On
# those calls 8 to 32 took within 7%, 1 took 7-14% more and 64 or 128 7-13%
# more; on 3,000 terms at 10^12, 8 and 16 took 18-20% less than 32 and 128
# took 27-35% more.
_SPARSE_MIN = 32


def _pow_mod(base, e, mods: np.ndarray) -> np.ndarray:
    """base**e mod each of mods, elementwise, as int64, by square-and-multiply.

    base and e are each an int or an int64 array matching mods; e >= 0.
    Every modulus must be at most isqrt(INT64_MAX) = 3,037,000,499, so that
    the product of two residues fits in int64.
    """
    top = e if isinstance(e, int) else int(e.max(initial=0))
    acc = np.ones_like(mods)
    b = base % mods
    for i in range(top.bit_length()):
        if i:
            b = b * b % mods
        acc = np.where(e >> i & 1, acc * b % mods, acc)
    return acc


def _strikes(a: int, step: int, count: int, primes: np.ndarray, last: int):
    """The strike plan of a + s*step, s in [0, count), for the primes of
    ``primes`` that do not divide step: the terms that p, and each higher
    power p**k <= last, divide.  Yields (k, dense, batch) per level k of
    each slice of _PRIME_SLICE primes.  dense iterates once over (p, s, q),
    q = p**k dividing the terms s::q, for the powers that hit _DENSE_HITS or
    more terms, or for all when fewer than _SPARSE_MIN hit less.  batch is None,
    or (idx, p, hits) for the others: idx indexes their hits, p by p (a term
    once per prime), and np.repeat(p, hits) is the prime of each index.

    The first term p divides is s = -a/step mod p, with step**(p-2) for the
    inverse.  A start s mod q = p**k lifts to q*p by Hensel: the terms
    s + q*u with p**(k+1) dividing them have u = -((a + s*step)/q)/step
    mod p.  Every product stays at or below last, so all of it is int64.
    """
    for i in range(0, primes.size, _PRIME_SLICE):
        p = primes[i : i + _PRIME_SLICE]
        p = p[step % p != 0]
        inv = _pow_mod(step, p - 2, p) if step > 1 else np.ones_like(p)
        # one column per prime: p, the first term its power q divides, q, 1/step
        rows, k = np.array([p, -a % p * inv % p, p, inv]), 1
        while (rows := rows.compress(rows[1] < count, axis=1)).shape[1]:
            p, s, q, inv = rows
            hits = (count - 1 - s) // q + 1
            sparse = hits < _DENSE_HITS
            if np.count_nonzero(sparse) < _SPARSE_MIN:
                yield k, zip(*rows[:3].tolist()), None
            else:
                # each hit's stride q, or at a row's first hit the jump to
                # it from the row before, summed up into the hit indices
                qs, ss, hits = q[sparse], s[sparse], hits[sparse]
                idx = np.repeat(qs, hits)
                idx[0] = ss[0]
                idx[np.cumsum(hits[:-1])] = ss[1:] - ss[:-1] - (hits[:-1] - 1) * qs[:-1]
                batch = np.cumsum(idx, out=idx), p[sparse], hits
                yield k, zip(*rows[:3].compress(~sparse, axis=1).tolist()), batch
            p, s, q, inv = rows = rows.compress(q <= last // p, axis=1)
            s += q * ((p - (s * step + a) // q % p) * inv % p)
            q *= p
            k += 1


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

    A segmented sieve of Eratosthenes: level 1 of the _strikes plan of lo,
    lo + 1, ... strikes the multiples of each p <= sqrt(hi) in the window,
    and the sieving primes that lie in it are set back.
    """
    if lo < 0:
        raise DomainError(f"segment start must be >= 0, got {lo}")
    flags = np.ones(max(hi - lo + 1, 0), dtype=bool)
    flags[: max(0, 2 - lo)] = False
    primes = _primes_upto(math.isqrt(max(hi, 0)))
    for _, dense, batch in _strikes(lo, 1, flags.size, primes, 0):  # no p**2
        for _, s, q in dense:
            flags[s::q] = False
        if batch:
            flags[batch[0]] = False
    flags[primes[np.searchsorted(primes, lo) :] - lo] = True
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


def _check_count(name: str, value: int) -> None:
    """DomainError unless value, the argument called name, is a positive
    int: rounds of a primality test, or workers of a shard map."""
    if type(value) is not int:  # True and 2.5 pass a comparison with 1
        raise DomainError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise DomainError(f"{name} must be positive, got {value}")


def _check_budget(budget: int | None) -> None:
    if budget is None:
        return
    if type(budget) is not int:  # as in _check_count
        raise DomainError(f"budget must be an int, got {budget!r}")
    if budget < 0:
        raise DomainError(f"budget must be nonnegative, got {budget}")


def is_prime(n: int, rounds: int = DEFAULT_ROUNDS) -> PrimalityVerdict:
    """Primality verdict for n, deterministic below DETERMINISTIC_BOUND.

    Above the bound the test runs ``rounds`` Miller-Rabin rounds and labels
    a surviving n "probable_prime" rather than claiming certainty.  The
    anchor search reaches the same verdict for the larger member
    5*10**m - 1 through one round and the N+1 proof (_lucas_proves_prime),
    and keeps this label and certainty for a proven member.
    """
    if n < 0:
        raise DomainError(f"primality is defined for nonnegative integers, got {n}")
    _check_count("rounds", rounds)
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


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, t = a % n, 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos % 2 and n % 8 in (3, 5):
            t = -t
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def _lucas(p: int, q: int, k: int, n: int) -> tuple[int, int, int]:
    """(U_k, V_k, q**k) mod n of the Lucas sequences of (p, q), for k >= 1
    and odd n, by the binary ladder k -> 2k -> 2k + 1."""
    d = (p * p - 4 * q) % n
    u, v, qk = 1, p % n, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":  # halve mod n: make the sum even by adding n
            u, v = (p * u + v) % n, (d * u + p * v) % n
            u, v, qk = (u + n * (u & 1)) >> 1, (v + n * (v & 1)) >> 1, qk * q % n
    return u, v, qk


_LUCAS_PAIRS = tuple((p, q) for q in (-1, 2, -2, 3, -3, 5, -5, 7, -7)
                     for p in range(1, 6))


def _lucas_proves_prime(n: int, primes: tuple[int, ...]) -> bool:
    """True only if the Lucas N+1 test proves n prime (False: not proved);
    primes, the distinct primes of n + 1, must factor it fully (odd n > 1).

    With gcd(n, 2QD) = 1, n | U_{n+1} and gcd(U_{(n+1)/ell}, n) = 1 for each
    ell, every prime r | n has rank n + 1, which divides r - (D/r), so r = n
    (Brillhart, Lehmer and Selfridge 1975).  A prime n needs (D/n) = -1 for
    n | U_{n+1} and (Q/n) = -1 for n not to divide U_{(n+1)/2}.  One ladder
    runs to k = (n+1)/rad; U at j*k is U_k * U_j(V_k, Q**k).
    """
    rad = math.prod(primes)
    for p, q in _LUCAS_PAIRS:
        d = p * p - 4 * q
        if math.gcd(n, 2 * q * d) != 1 or _jacobi(d, n) != -1 or _jacobi(q, n) != -1:
            continue
        u, v, qk = _lucas(p, q, (n + 1) // rad, n)
        if u * _lucas(v, qk, rad, n)[0] % n:
            return False  # so n is composite
        if all(math.gcd(u * _lucas(v, qk, rad // ell, n)[0], n) == 1 for ell in primes):
            return True
    return False


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
    _check_budget(budget)
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


def _sieve_progression(a: int, step: int, count: int) -> np.ndarray:
    """v(a + s*step) for every s in [0, count), as int64, indexed by s.

    One sieve with the primes up to the root of its last term: each power
    p**k is multiplied into the found part of the terms it divides (a
    multiply costs a fraction of an int64 division) and adds its share of v.
    The strikes come from _strikes, except for the primes of step (on
    reversal blocks, the base's), struck here one strided slice per power.
    Every term must fit in int64.
    """
    last = a + (count - 1) * step
    found = np.ones(count, dtype=np.int64)  # product of the prime powers found
    acc = np.zeros(count, dtype=np.int64)
    # exponent 1 adds p, reaching 2 adds iota(2) = 2, each later one 1
    for p, _ in factorize(step):
        # p divides every term or none.  All share p**d with
        # d = min(v_p(a), v_p(step)); with that divided out, the quotient
        # terms b + s*t hold more of p only when p no longer divides t
        b, t, e = a, step, 1  # e: the exponent of p the next strike brings
        while b % p == 0 and t % p == 0:
            b, t, e = b // p, t // p, e + 1
        if e > 1:
            found *= p ** (e - 1)
            acc += p + iota(e - 1)
        q = p
        while t % p and q <= last and (s := -b * pow(t, -1, q) % q) < count:
            found[s::q] *= p
            acc[s::q] += p if e == 1 else 2 if e == 2 else 1
            q, e = q * p, e + 1
    primes = _primes_upto(math.isqrt(last))
    for k, dense, batch in _strikes(a, step, count, primes, last):
        for p, s, q in dense:
            found[s::q] *= p
            acc[s::q] += p if k == 1 else 2 if k == 2 else 1
        if batch:
            idx, hit = batch[0], np.repeat(batch[1], batch[2])
            np.multiply.at(found, idx, hit)
            np.add.at(acc, idx, hit if k == 1 else 2 if k == 2 else 1)
    # what survives is 1 or a single prime: a composite survivor would
    # exceed the last term, since its prime factors all exceed its root
    rem = np.arange(count, dtype=np.int64)
    rem *= step
    rem += a
    rem //= found
    rem[rem == 1] = 0
    acc += rem
    return acc


# One progression sieve and per-term v break even where terms * bits**4 is
# about this many times sqrt(last): timed from 10^10 to 10^15, where the
# choice is worth seconds per block.  Below that either way takes ms.
_SIEVE_BREAK_EVEN = 500


def _sieve_pays(terms: int, last: int) -> bool:
    """Whether one progression sieve up to ``last`` costs less than ``terms``
    single factorizations: the sieve reads every prime below sqrt(last), so
    its cost grows like sqrt(last)/bits, and one v only like bits**3, bits
    being the bit length of last.  The constant was timed on a sieve that
    took a Python step per prime, several times slower than this one."""
    return terms * last.bit_length() ** 4 >= _SIEVE_BREAK_EVEN * math.isqrt(last)


def _v_terms(a: int, step: int, x: np.ndarray | range) -> np.ndarray:
    """v(a + s*step) for each offset s of x, as int64: one sieve over the
    span of x where _sieve_pays for the terms read and the largest of them,
    else one factorization per term.  x is a nonempty int64 array of the
    offsets read, or range(count) for all of [0, count), which needs no
    gather.  Every term must fit in int64."""
    whole = isinstance(x, range)
    first, last = (x[0], x[-1]) if whole else (int(x.min()), int(x.max()))
    if _sieve_pays(len(x), a + step * last):
        vals = _sieve_progression(a + step * first, step, last - first + 1)
        return vals if whole else vals[x - first]
    return np.array([v(a + step * s) for s in (x if whole else x.tolist())], dtype=np.int64)


def v_segment(lo: int, hi: int) -> np.ndarray:
    """v(n) for every n in [lo, hi] as int64, indexed by n - lo: the
    progression with step 1, from one sieve where it pays (_v_terms)."""
    if lo < 1:
        raise DomainError(f"segment start must be >= 1, got {lo}")
    if hi < lo:
        return np.zeros(0, dtype=np.int64)
    if hi > INT64_MAX:
        raise DomainError(f"segment end {hi} does not fit in int64")
    return _v_terms(lo, 1, range(hi - lo + 1))
