"""The v-palindrome predicate, range enumeration, and the two classic
infinite families.

A v-palindrome in base b is an n >= 1 with b not dividing n, n different
from its b-reverse r, and v(n) = v(r).
"""

import itertools
import math
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import INT64_MAX, _cached_primes, prime_flags, v, v_progression, v_segment
from .digits import length, reverse
from .errors import DomainError

# Shards are at most this wide and cut at fixed points (_shard_width), which
# keeps the output independent of the worker count.
SHARD_SIZE = 1 << 17

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


def _sieving_primes(hi: int, base: int) -> np.ndarray:
    """The primes up to the root of base**length(hi): enough to sieve every
    n <= hi and every reversal of one."""
    return _cached_primes(math.isqrt(base ** length(hi, base)))


def _block_hits(lo: int, v_n: np.ndarray, keep: np.ndarray | None, base: int,
                canonical: bool) -> list[tuple[int, int, int]]:
    """Hits among n in [lo, lo + len(v_n)) as (n, reversal, shared_v), given
    v of every n (read only where n is kept) and an optional mask of the n
    worth testing, ascending.

    The window is tiled into aligned blocks n = c*b**j + t; their reversals
    are exactly reverse(c) + s*b**len(c) with s = rev_j(t).  When a block
    keeps enough terms to pay for it, v of its reversals comes from one
    progression sieve, read through rev_j; otherwise v(r) is computed per
    candidate.
    """
    hi = lo + v_n.size - 1
    blocks = list(_aligned_blocks(lo, hi, base))
    # kept n as offsets from lo; block number i keeps kept[cuts[i]:cuts[i+1]]
    kept = np.arange(v_n.size) if keep is None else np.flatnonzero(keep)
    cuts = np.searchsorted(kept, [c * base**j - lo for c, j in blocks] + [v_n.size]).tolist()
    out = []
    for (c, j), i, k in zip(blocks, cuts, cuts[1:]):
        if i == k:
            continue
        x = kept[i:k]
        a, step = reverse(c, base), base ** length(c, base)
        s = _digit_reversal(j, base)
        first = c * s.size
        if not _sieve_pays(x.size, a + step * (s.size - 1)):
            for n in (lo + x).tolist():
                r = a + step * int(s[n - first])
                if _candidates(n, r, base, canonical):
                    vn = int(v_n[n - lo])
                    if v(r) == vn:
                        out.append((n, r, vn))
            continue
        t = x + (lo - first)
        n, r = first + t, a + step * s[t]
        sel = np.flatnonzero(_candidates(n, r, base, canonical))
        if not sel.size:
            continue
        vn = v_n[x[sel]]
        vr = v_progression(a, step, s.size, _sieving_primes(hi, base))[s[t[sel]]]
        hit = np.flatnonzero(vn == vr)
        sel = sel[hit]
        out.extend(zip(n[sel].tolist(), r[sel].tolist(), vn[hit].tolist()))
    return out


def _shard_hits(lo: int, hi: int, base: int, canonical: bool) -> list[tuple[int, int, int]]:
    """Hits in [lo, hi] as (n, reversal, shared_v) tuples, ascending; v of
    every n comes from one segment sieve."""
    lo = max(lo, base)  # every n < base is a one-digit reversal fixed point
    if hi < lo:
        return []
    return _block_hits(lo, v_segment(lo, hi), None, base, canonical)


def _prime_shard_hits(lo: int, hi: int, base: int) -> list[int]:
    """The prime v-palindromes in [lo, hi], ascending.

    The primes come from one segmented sieve.  v(p) = p for a prime, so p
    is a hit exactly when v of its reversal equals p.
    """
    lo = max(lo, base)
    if hi < lo:
        return []
    flags = prime_flags(lo, hi, _sieving_primes(hi, base))
    n = np.arange(lo, hi + 1, dtype=np.int64)
    return [p for p, _r, _v in _block_hits(lo, n, flags, base, False)]


def _shard_width(base: int) -> int:
    """The largest multiple of the largest power of base not above
    SHARD_SIZE, itself at most SHARD_SIZE: shards cut at its multiples
    tile into aligned blocks of that power."""
    power = 1
    while power * base <= SHARD_SIZE:
        power *= base
    return power * (SHARD_SIZE // power)


def _shards(lo: int, hi: int, base: int) -> list[tuple[int, int]]:
    """[lo, hi] cut at the multiples of the shard width, as (start, end)
    pairs, ascending.  The cuts do not depend on the worker count."""
    width = _shard_width(base)
    return [(max(a, lo), min(a + width - 1, hi))
            for a in range(lo // width * width, hi + 1, width)]


def _shard_map(fn, shards, workers: int):
    """fn(*shard) for every shard, yielded in shard order.

    With more than one worker and shard, the shards run in a process pool.
    New shards are submitted only while the generator runs, and at most two
    per worker are submitted and unfinished at a time; a slow shard does not
    stall the rest, whose results wait for it in order.  Closing the
    generator cancels the shards not yet started.
    """
    if workers <= 1 or len(shards) <= 1:
        for shard in shards:
            yield fn(*shard)
        return
    workers = min(workers, len(shards))
    queue = iter(shards)
    pending = deque()  # submitted, not yet yielded, in shard order
    running = set()  # submitted, not yet finished
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while True:
            running = {f for f in running if not f.done()}
            for shard in itertools.islice(queue, 2 * workers - len(running)):
                pending.append(pool.submit(fn, *shard))
                running.add(pending[-1])
            if not pending:
                return
            if pending[0].done():
                yield pending.popleft().result()
            else:
                wait(running, return_when=FIRST_COMPLETED)
    finally:
        # an abandoned generator must not wait for the remaining shards
        pool.shutdown(cancel_futures=True)


def enumerate_v_palindromes(lo: int, hi: int, base: int = 10, mode: str = "all",
                            workers: int = 1):
    """Yield every v-palindrome hit in [lo, hi] in ascending order of n.

    mode "all" reports every qualifying n (for base 10 this is OEIS
    A338039); mode "canonical" keeps only hits with n < reversal.  Shards
    are cut at fixed multiples of the shard width, so the merged stream is
    identical for any worker count, and enumerating [a, c] equals
    concatenating enumerations of [a, b] and [b+1, c].  The sieves work in
    int64, so base**length(hi) must fit in int64 (hi < 10**18 in base 10);
    a larger hi raises DomainError.
    """
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    start = max(lo, 1)
    if hi < start:
        return
    _check_int64_reach(hi, base)
    canonical = mode == "canonical"
    shards = [(a, b, base, canonical) for a, b in _shards(start, hi, base)]
    for hits in _shard_map(_shard_hits, shards, workers):
        for n, r, shared in hits:
            yield VPalindromeHit(n, r, shared, base)


def _check_int64_reach(hi: int, base: int) -> None:
    """DomainError unless every reversal of an n <= hi fits in int64."""
    if base ** length(hi, base) > INT64_MAX:
        raise DomainError(
            f"the sieves are limited to ranges whose reversals fit in int64; "
            f"hi={hi} has {length(hi, base)} digits in base {base}"
        )


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
