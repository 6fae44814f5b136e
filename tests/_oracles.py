"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive (trial division, digit loops) and
shares no code with the package, so expected values come from a second
route.
"""

import math

import numpy as np


def trial_factorize(n: int) -> list[tuple[int, int]]:
    assert n >= 1
    out = []
    x = n
    d = 2
    while d * d <= x:
        if x % d == 0:
            e = 0
            while x % d == 0:
                x //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if x > 1:
        out.append((x, 1))
    return out


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return trial_factorize(n) == [(n, 1)]


def oracle_v(n: int) -> int:
    return sum(p + (e if e > 1 else 0) for p, e in trial_factorize(n))


def oracle_reverse(n: int, base: int = 10) -> int:
    assert n >= 1
    digits = []
    while n:
        n, d = divmod(n, base)
        digits.append(d)
    acc = 0
    for d in digits:
        acc = acc * base + d
    return acc


def oracle_sieve(limit: int) -> list[bool]:
    """is_prime flags for 0..limit."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    p = 2
    while p * p <= limit:
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
        p += 1
    return flags


def oracle_spf_upto(limit: int) -> list[int]:
    """The smallest prime factor of n for n in 0..limit (n itself at 0, 1
    and the primes), from the flags of oracle_sieve."""
    flags = oracle_sieve(limit)
    spf = list(range(limit + 1))
    p = 2
    while p * p <= limit:
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
        p += 1
    return spf


def oracle_is_v_palindrome(n: int, base: int = 10) -> bool:
    if n % base == 0:
        return False
    r = oracle_reverse(n, base)
    if r == n:
        return False
    return oracle_v(n) == oracle_v(r)


def oracle_v_upto(limit: int) -> list[int]:
    """v(n) for n in 0..limit (0 at 0 and 1), by adding each prime power's
    share to its multiples: p at p, 2 more at p**2, 1 more at each higher
    power."""
    table = [0] * (limit + 1)
    flags = oracle_sieve(limit)
    for p in range(2, limit + 1):
        if not flags[p]:
            continue
        q, share = p, p
        while q <= limit:
            for m in range(q, limit + 1, q):
                table[m] += share
            q, share = q * p, 2 if q == p else 1
    return table


def block_trial_is_prime(n: int) -> bool:
    """trial_is_prime for n < 2**62: every odd d <= isqrt(n) is tried, a
    block of them at a time as one numpy array."""
    assert n < 2**62
    if n < 4 or n % 2 == 0:
        return n in (2, 3)
    root = math.isqrt(n)
    for lo in range(3, root + 1, 1 << 21):
        d = np.arange(lo, min(lo + (1 << 21), root + 1), 2, dtype=np.int64)
        if (n % d == 0).any():
            return False
    return True
