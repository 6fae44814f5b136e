"""The v-palindrome predicate, range enumeration, and the two classic
infinite families.

A v-palindrome in base b is an n >= 1 with b not dividing n, n different
from its b-reverse r, and v(n) = v(r).
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import INT64_MAX, _cached_primes, v, v_progression, v_segment
from .digits import length, reverse
from .errors import DomainError

# Fixed shard width keeps enumeration output independent of worker count.
SHARD_SIZE = 1 << 16

_MODES = ("all", "canonical")


@dataclass(frozen=True)
class VPalindromeHit:
    """A confirmed v-palindrome with its reversal and the shared v value."""

    n: int
    reversal: int
    shared_v: int
    base: int = 10


def is_v_palindrome(n: int, base: int = 10, budget: int | None = None) -> bool:
    """Whether n is a v-palindrome in the given base.

    Multiples of the base and reversal fixed points return False rather
    than raising; only n < 1 is a domain error.
    """
    if n < 1:
        raise DomainError(f"the predicate is defined for n >= 1, got {n}")
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    if n % base == 0:
        return False
    r = reverse(n, base)
    if r == n:
        return False
    return v(n, budget) == v(r, budget)


def as_hit(n: int, base: int = 10, budget: int | None = None):
    """VPalindromeHit for n when it is a v-palindrome, else None."""
    if n < 1:
        raise DomainError(f"the predicate is defined for n >= 1, got {n}")
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    if n % base == 0:
        return None
    r = reverse(n, base)
    if r == n:
        return None
    shared = v(n, budget)
    if shared != v(r, budget):
        return None
    return VPalindromeHit(n, r, shared, base)


def _aligned_blocks(lo: int, hi: int, base: int):
    """The maximal blocks c*base**j + [0, base**j) that tile [lo, hi], as
    (c, j), ascending."""
    x = lo
    while x <= hi:
        j = 0
        while x % base ** (j + 1) == 0 and x + base ** (j + 1) - 1 <= hi:
            j += 1
        yield x // base**j, j
        x += base**j


@lru_cache(maxsize=64)
def _digit_reversal(j: int, base: int) -> np.ndarray:
    """rev_j as an array: t in [0, base**j) -> its j-digit reversal, leading
    zeros of t included, so rev_j is a permutation of [0, base**j)."""
    t = np.arange(base**j, dtype=np.int64)
    out = np.zeros_like(t)
    for _ in range(j):
        t, d = np.divmod(t, base)
        out = out * base + d
    out.flags.writeable = False
    return out


# One progression sieve and per-candidate v(r) break even where
# terms * bits(last)**4 is about this many times sqrt(last): timed from 10^10
# to 10^15, where the choice is worth seconds per block.  Below that either
# way costs milliseconds.
_SIEVE_BREAK_EVEN = 500


def _sieve_pays(terms: int, last: int) -> bool:
    """Whether one progression sieve up to ``last`` costs less than ``terms``
    single factorizations.

    The sieve spends one step per prime below sqrt(last), so its cost grows
    like sqrt(last)/bits; one v(r) grows only like bits**3, bits being the
    bit length of last.
    """
    return terms * last.bit_length() ** 4 >= _SIEVE_BREAK_EVEN * math.isqrt(last)


def _candidates(n, r, base: int, canonical: bool):
    """Whether n with reversal r is tested at all: b does not divide n, r
    differs from n, and in canonical mode r > n.  Works on ints and,
    elementwise, on arrays."""
    return (n % base != 0) & (r != n) & ((r > n) | (not canonical))


def _shard_hits(lo: int, hi: int, base: int, canonical: bool) -> list[tuple[int, int, int]]:
    """Hits in [lo, hi] as (n, reversal, shared_v) tuples, ascending.

    v of every n in the shard comes from one segment sieve.  The shard is
    tiled into aligned blocks n = c*b**j + t; their reversals are exactly
    reverse(c) + s*b**len(c) with s = rev_j(t).  When a block is long
    enough to pay for it, v of its reversals comes from one progression
    sieve, read through rev_j; otherwise v(r) is computed per candidate.
    """
    v_n = v_segment(lo, hi)
    primes = None  # sieving primes for every reversal of the shard, on demand
    out = []
    for c, j in _aligned_blocks(lo, hi, base):
        a, step = reverse(c, base), base ** length(c, base)
        s = _digit_reversal(j, base)
        first = c * s.size
        if not _sieve_pays(s.size, a + step * (s.size - 1)):
            for t, rev_t in enumerate(s.tolist()):
                n, r = first + t, a + step * rev_t
                if _candidates(n, r, base, canonical):
                    vn = int(v_n[n - lo])
                    if v(r) == vn:
                        out.append((n, r, vn))
            continue
        n = np.arange(first, first + s.size, dtype=np.int64)
        r = a + step * s
        idx = np.flatnonzero(_candidates(n, r, base, canonical))
        if not idx.size:
            continue
        if primes is None:
            primes = _cached_primes(math.isqrt(base ** length(hi, base)))
        vn = v_n[idx + (first - lo)]
        hit = vn == v_progression(a, step, s.size, primes)[s[idx]]
        idx = idx[hit]
        out.extend(zip(n[idx].tolist(), r[idx].tolist(), vn[hit].tolist()))
    return out


def _shard_task(args):
    return _shard_hits(*args)


def enumerate_v_palindromes(lo: int, hi: int, base: int = 10, mode: str = "all",
                            workers: int = 1):
    """Yield every v-palindrome hit in [lo, hi] in ascending order of n.

    mode "all" reports every qualifying n (for base 10 this is OEIS
    A338039); mode "canonical" keeps only hits with n < reversal.  Shards
    are disjoint fixed-width segments, so the merged stream is identical
    for any worker count, and enumerating [a, c] equals concatenating
    enumerations of [a, b] and [b+1, c].  The sieves work in int64, so
    base**length(hi) must fit in int64 (hi < 10**18 in base 10); a larger
    hi raises DomainError.
    """
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    start = max(lo, 1)
    if hi < start:
        return
    if base ** length(hi, base) > INT64_MAX:
        raise DomainError(
            f"enumeration is limited to ranges whose reversals fit in int64; "
            f"hi={hi} has {length(hi, base)} digits in base {base}"
        )
    canonical = mode == "canonical"
    shards = [(a, min(a + SHARD_SIZE - 1, hi), base, canonical)
              for a in range(start, hi + 1, SHARD_SIZE)]
    if workers > 1 and len(shards) > 1:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(shards)))
        try:
            for hits in pool.map(_shard_task, shards):
                for n, r, shared in hits:
                    yield VPalindromeHit(n, r, shared, base)
        finally:
            # an abandoned generator must not wait for the remaining shards
            pool.shutdown(cancel_futures=True)
    else:
        for shard in shards:
            for n, r, shared in _shard_hits(*shard):
                yield VPalindromeHit(n, r, shared, base)


def family_nines(k: int) -> int:
    """k-th member of the family 18, 198, 1998, ...: the digit string
    1 9...9 8 with k-1 nines, i.e. 2*10**k - 2."""
    if k < 1:
        raise DomainError(f"family index must be >= 1, got {k}")
    return 2 * 10**k - 2


def family_repeat18(j: int) -> int:
    """j-th member of the family 18, 1818, 181818, ...: the block "18"
    repeated j times, i.e. 18*(100**j - 1)/99."""
    if j < 1:
        raise DomainError(f"family index must be >= 1, got {j}")
    return 18 * (100**j - 1) // 99
