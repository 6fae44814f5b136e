"""The v-palindrome predicate, range enumeration, and the two classic
infinite families.

A v-palindrome in base b is an n >= 1 with b not dividing n, n different
from its b-reverse r, and v(n) = v(r).

The predicate and the scanners skip every n whose v(n) no reversal value
can share, by the composite bound: v(m) <= m/2 + 2 for every composite m.  For m = ab with
coprime a, b >= 2, v(m) = v(a) + v(b) <= a + b <= ab/2 + 2, since
ab/2 + 2 - a - b = (a-2)(b-2)/2; for m = p**e with e >= 2,
p + e <= p**e/2 + 2.  So v(r) = v(n) needs r prime with r = v(n), or
v(n) <= r/2 + 2.  For a prime n, v(n) = n and r != n, so n can be a hit
only when r >= 2n - 4; the known prime hits in other bases (109 and 1789
in base 16, 3469 in base 100) meet it with equality.

The prime scanner of verify's brute force also applies, to its spans
and to each block of primes, the smallest-prime-factor bound: v(m) <=
s + m/s for a composite m whose smallest prime factor is s.  v is
subadditive (v(xy) <= v(x) + v(y)) and v(t) <= t, so v(m) <= v(s) +
v(m/s) <= s + m/s.  x + m/x decreases for x <= sqrt(m), so any lower
bound s' <= s of the smallest prime factor gives v(m) <= s' + m/s', and
of two primes dividing m the smaller gives the weaker bound.  A
composite m with no prime factor below 11 is at least 121, with v(m) <=
11 + m/11.  For a prime n this asks more than r >= 2n - 4 of every odd
reversal: r >= 3n - 9 when 3 divides r.
"""

import itertools
import multiprocessing.util
import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import INT64_MAX, _check_budget, _check_count, _v_terms, prime_flags, v, v_segment
from .digits import _check_base, length, reverse
from .errors import DomainError

# Shards are at most this wide and cut at fixed points (_shard_width), which
# keeps the output independent of the worker count.
SHARD_SIZE = 1 << 17

_MODES = ("all", "canonical")

# A batch of shards is sized to take this long in a worker.  verify --bound
# 10^9 at 2 workers (Intel Xeon) took 3.9-4.1 s at 20 to 80 ms, 5.5 s at 2.5 ms
# and 5.2-5.9 s at a shard a task; the last batch runs alone, so 20 ms it is.
_BATCH_TARGET_S = 0.02


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
    than raising; n < 1, a base below 2 and a negative budget are domain
    errors, whatever n.
    """
    return as_hit(n, base, budget) is not None


def as_hit(n: int, base: int = 10, budget: int | None = None):
    """VPalindromeHit for n when it is a v-palindrome, else None."""
    return reversal_and_hit(n, base, budget)[1]


def reversal_and_hit(n: int, base: int = 10, budget: int | None = None):
    """(reverse(n), as_hit(n)): the predicate with the reversal it used.  It
    filters with the two tests every scanner applies, so v(r) is factored
    only when the composite bound (_may_share_v) lets it equal v(n).  It
    leaves out the prime scanner's _spf_may_share_v, so that tests can
    check that prune against it."""
    if n < 1:
        raise DomainError(f"the predicate is defined for n >= 1, got {n}")
    _check_base(base)
    _check_budget(budget)
    r = reverse(n, base)
    if not _candidates(n, r, base, False):
        return r, None
    shared = v(n, budget)
    if not _may_share_v(r, shared) or shared != v(r, budget):
        return r, None
    return r, VPalindromeHit(n, r, shared, base)


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
    zeros of t included, so rev_j is a permutation of [0, base**j).

    Built from rev_{j-1}: t = u*base + d reverses to
    d*base**(j-1) + rev_{j-1}(u), and rev_0 = [0]."""
    if j == 0:
        out = np.zeros(1, dtype=np.int64)
    else:
        out = np.add.outer(_digit_reversal(j - 1, base),
                           np.arange(base, dtype=np.int64) * base ** (j - 1)).ravel()
    out.flags.writeable = False
    return out


def _candidates(n, r, base: int, canonical: bool):
    """Whether n with reversal r is tested at all: b does not divide n, r
    differs from n, and in canonical mode r > n.  The predicate (as_hit)
    and both shard scanners filter with it.  Works on ints and,
    elementwise, on arrays."""
    return (n % base != 0) & (r != n) & ((r > n) | (not canonical))


def _may_share_v(r, vn):
    """Whether v(r) can equal vn by the composite bound (module docstring):
    r = vn, or vn <= r/2 + 2.  Filters next to _candidates; works on ints
    and, elementwise, on arrays."""
    return (vn <= r // 2 + 2) | (vn == r)


def _spf_may_share_v(r: np.ndarray, vn: np.ndarray, a: int, step: int) -> np.ndarray:
    """Whether v(r) can equal vn by the smallest-prime-factor bound (module
    docstring), elementwise over int64 arrays whose every r is a mod step:
    r = vn, or vn <= q + r//q for a prime q < 11 dividing r, or r >= 121
    and vn <= 11 + r//11.  Only the entries that fail the last test are
    tested further, and only they get remainders, by the primes that do not
    divide step: a prime of step divides every r or none, as it divides a
    or not."""
    band = np.flatnonzero((vn > r // 11 + 11) | (r < 121))
    rb, vb = r[band], vn[band]
    ok = vb == rb
    for q in (2, 3, 5, 7):
        divides = a % q == 0 if step % q == 0 else rb % q == 0
        ok |= divides & (vb <= rb // q + q)
    keep = np.ones(r.size, dtype=bool)
    keep[band] = ok
    return keep


def _block_hits(lo: int, v_n: np.ndarray, keep: np.ndarray | None, base: int,
                canonical: bool) -> list[tuple[int, int, int]]:
    """Hits among n in [lo, lo + len(v_n)) as (n, reversal, shared_v), given
    v of every n (read only where n is kept) and an optional mask of the n
    worth testing, ascending.

    The window is tiled into aligned blocks n = c*b**j + t; their reversals
    are exactly reverse(c) + s*b**len(c) with s = rev_j(t).  Only the kept
    n that pass _candidates and _may_share_v are tested, and when keep is
    given, only those that also pass _spf_may_share_v: kept n are sparse,
    so the reversals it drops narrow the sieve of the rest, while on a
    block of every n it narrows none.  When keep is None, v_n must be v of
    every n in the window, and a block whose tested reversals all lie in
    the window reads their v from v_n (in a shard of whole digit lengths,
    every block does).  Other blocks get v of their reversals from one
    _v_terms call on the s they read.  The prime scanner's v_n is v(n)
    only at its primes, so it passes keep and never reads a reversal from
    v_n.
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
        t = x + (lo - c * s.size)
        n, r, vn = lo + x, a + step * s[t], v_n[x]
        sel = np.flatnonzero(_candidates(n, r, base, canonical) & _may_share_v(r, vn))
        if keep is not None:
            sel = sel[_spf_may_share_v(r[sel], vn[sel], a, step)]
        if not sel.size:
            continue
        if keep is None and lo <= (rs := r[sel]).min() and rs.max() <= hi:
            vr = v_n[rs - lo]
        else:
            vr = _v_terms(a, step, s[t[sel]])
        hit = sel[vn[sel] == vr]
        out.extend(zip(n[hit].tolist(), r[hit].tolist(), vn[hit].tolist()))
    return out


def _shard_hits(lo: int, hi: int, base: int, canonical: bool) -> list[tuple[int, int, int]]:
    """Hits in [lo, hi] as (n, reversal, shared_v) tuples, ascending."""
    return _block_hits(lo, v_segment(lo, hi), None, base, canonical)


def _prime_hit_spans(lo: int, hi: int, base: int) -> list[tuple[int, int]]:
    """The parts of [lo, hi] that can hold a prime hit, as (start, end)
    pairs, ascending, adjacent ones merged.

    A prime p with L digits leading with d has a reversal r that ends in d,
    so r <= b**L - b + d, and v(r) = p needs r composite.  A prime of b
    divides such an r only if it divides d, so the smallest prime factor of
    r is at least s_d: the least of 2, 3, 5 and 7 that can divide a number
    that is d mod b, else 11.  By the smallest-prime-factor bound (module
    docstring) p <= s_d + (b**L - b + d) // s_d.  In base 10 each length
    keeps [10**(L-1), 33...34] and [4*10**(L-1), 5*10**(L-1) - 1].
    """
    spans = []
    for L in range(length(lo, base), length(hi, base) + 1):
        low = base ** (L - 1)
        for d in range(max(1, lo // low), min(base - 1, hi // low) + 1):
            s = next((q for q in (2, 3, 5, 7) if base % q or d % q == 0), 11)
            x = max(lo, d * low)
            y = min(hi, (d + 1) * low - 1, s + (base**L - base + d) // s)
            if x > y:
                continue
            if spans and spans[-1][1] + 1 == x:
                x = spans.pop()[0]
            spans.append((x, y))
    return spans


def _prime_shard_hits(lo: int, hi: int, base: int) -> list[int]:
    """The prime v-palindromes in [lo, hi], ascending, from one segmented
    sieve of the shard: v(p) = p for a prime, so p is a hit exactly when v
    of its reversal equals p."""
    n = np.arange(lo, hi + 1, dtype=np.int64)
    return [p for p, _r, _v in _block_hits(lo, n, prime_flags(lo, hi), base, False)]


def _shard_width(base: int) -> int:
    """The largest multiple of the largest power of base not above
    SHARD_SIZE, itself at most SHARD_SIZE: shards cut at its multiples
    tile into aligned blocks of that power."""
    power = 1
    while power * base <= SHARD_SIZE:
        power *= base
    return power * (SHARD_SIZE // power)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_batch(fn, batch):
    """(results, seconds, error): fn(*shard) for the shards of batch up to
    the first that raises, the seconds taken, and None or that shard's
    exception with its traceback as text."""
    start, results, error = time.perf_counter(), [], None
    try:
        for shard in batch:
            results.append(fn(*shard))
    except Exception as exc:  # handed back after the results before it
        error = exc, traceback.format_exc()
    return results, time.perf_counter() - start, error


# The pool that the last _shard_map call left idle, as [(its worker count,
# the pool)], else []; the next call at that count takes it, so a process
# forks its workers once per worker count.  list.pop is atomic, so two
# threads never take the same pool, and there is no lock for a fork to
# leave held in the child.  A forked child forgets the pool as it forks:
# its manager thread runs only in the parent.
_idle = []
if hasattr(os, "register_at_fork"):  # no fork on this platform otherwise
    os.register_at_fork(after_in_child=_idle.clear)
_exit_hook_pid = None

# How often an idle pool worker checks that the process that made it lives.
_PARENT_POLL_S = 0.5


def _pool(workers: int) -> ProcessPoolExecutor:
    """A process pool of this many workers for one _shard_map call: the idle
    one at this count, else a new one, after the idle pool is shut down.  A
    worker that died while the pool sat idle breaks it within milliseconds,
    and the first submit to a broken pool raises, so such a pool (or one a
    call left broken) is replaced here."""
    global _exit_hook_pid
    try:
        kept_workers, kept = _idle.pop()
    except IndexError:
        pass
    else:
        if kept_workers == workers:
            try:
                kept.submit(int)
                return kept
            except BrokenProcessPool:
                pass
        kept.shutdown()
    if _exit_hook_pid != os.getpid():
        # a multiprocessing child joins its children at exit before the
        # pool's own exit hook would stop them, and closes its queues (at
        # exit priority 10) first, so stop them before that
        multiprocessing.util.Finalize(None, _drop_idle, exitpriority=20)
        _exit_hook_pid = os.getpid()
    return ProcessPoolExecutor(max_workers=workers, initializer=_watch_parent)


def _drop_idle() -> None:
    """Shut down the idle pool, if any."""
    try:
        while True:
            _idle.pop()[1].shutdown()
    except IndexError:
        pass


def _watch_parent() -> None:
    """Pool worker initializer: end this worker once the process that made
    it is gone.  An idle worker blocks reading the pool's call queue, whose
    write end it holds itself, so without this a parent killed past its
    exit hooks (SIGKILL, a SIGTERM left at its default action) would leave
    the worker running for good.  The parent is the one this worker has
    when the initializer runs: one that died before then is not seen."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="vpal-parent-watch", daemon=True).start()


def _shard_map(fn, shards, workers: int):
    """fn(*shard) for every shard of an iterable, yielded in shard order;
    an exception fn raises propagates after the shards before it.

    The workers are capped at the CPUs this process may run on (the pool
    forks all of them at its first submit), then at the shards: at most
    that many are read to size the pool, so a single shard runs in process.
    With more than one worker left, batches of consecutive shards run in a
    process pool, one task each.  The first batches hold one shard; later
    ones take _BATCH_TARGET_S at the time per shard of the slowest batch
    that finished last, and at most double the batch before.  New shards
    are read and submitted only while the generator runs, and at most two
    batches per worker are submitted and unfinished at a time; a slow batch
    does not stall the rest, whose results wait for it in order.  Every
    call leaves its pool (_pool) idle for the next, in place of any other
    idle pool, whether it runs to its end or stops early (the generator
    closed, a shard raising, a broken pool, an interrupt); one that stops
    early first cancels the batches not yet started.
    """
    shards = iter(shards)
    head = list(itertools.islice(shards, max(1, min(workers, _usable_cpus()))))
    queue = itertools.chain(head, shards)
    if len(head) <= 1:
        for shard in queue:
            yield fn(*shard)
        return
    workers = len(head)
    size = 1  # shards per batch
    pending = deque()  # submitted, not yet yielded, in shard order
    running = set()  # submitted, not yet finished
    pool = _pool(workers)
    try:
        while True:
            finished = {f for f in running if f.done()}
            running -= finished
            fits = [int(_BATCH_TARGET_S * len(done) / max(seconds, 1e-9))
                    for done, seconds, _ in (f.result() for f in finished if not f.exception())]
            if fits:
                size = max(1, min(2 * size, *fits))
            for _ in range(2 * workers - len(running)):
                batch = list(itertools.islice(queue, size))
                if not batch:
                    break
                pending.append(pool.submit(_run_batch, fn, batch))
                running.add(pending[-1])
            if not pending:
                break
            if pending[0].done():
                results, _, error = pending.popleft().result()
                yield from results
                if error is not None:
                    raise error[0] from RuntimeError(f"in a pool worker:\n{error[1]}")
            else:
                wait(running, return_when=FIRST_COMPLETED)
    finally:
        for future in pending:
            future.cancel()  # a batch already running cannot be cancelled
        _drop_idle()  # a pool another thread's call left idle meanwhile
        _idle.append((workers, pool))


def _scan(fn, spans, base: int, workers: int, *args):
    """The items of fn(a, b, base, *args) over the shards [a, b] of the
    spans, ascending disjoint (lo, hi) pairs, in shard order; an empty span
    gives no shard.

    Each span is cut at the multiples of the shard width, so the cuts do
    not depend on the worker count, and the shards are cut one at a time as
    _shard_map reads them: memory does not grow with the spans' width.
    """
    width = _shard_width(base)
    shards = ((max(a, lo), min(a + width - 1, hi), base, *args)
              for lo, hi in spans
              for a in range(lo // width * width, hi + 1, width) if lo <= hi)
    for items in _shard_map(fn, shards, workers):
        yield from items


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
    _check_base(base)
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    _check_count("workers", workers)
    if hi < max(lo, 1):
        return
    _check_int64_reach(hi, base)
    # every n below the base is a one-digit fixed point of reversal
    spans = [(max(lo, base), hi)]
    for n, r, shared in _scan(_shard_hits, spans, base, workers, mode == "canonical"):
        yield VPalindromeHit(n, r, shared, base)


def _brute_force_hits(bound: int, base: int, workers: int) -> list[int]:
    """Every prime v-palindrome p <= bound, ascending, under enumeration's
    int64 limit.  Only the spans of _prime_hit_spans are cut into shards;
    every p below the base is a one-digit fixed point of reversal."""
    _check_base(base)
    _check_count("workers", workers)
    _check_int64_reach(bound, base)
    spans = _prime_hit_spans(base, bound, base)
    return list(_scan(_prime_shard_hits, spans, base, workers))


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
