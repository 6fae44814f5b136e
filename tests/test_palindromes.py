import functools
import itertools
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BAD_WORKERS, subprocess_env
from _oracles import (
    oracle_is_v_palindrome,
    oracle_reverse,
    oracle_sieve,
    oracle_spf_upto,
    oracle_v,
    oracle_v_upto,
)
from vpal import arith
from vpal import palindromes as palindromes_mod
from vpal import (
    DomainError,
    VPalindromeHit,
    as_hit,
    enumerate_v_palindromes,
    family_nines,
    family_repeat18,
    is_v_palindrome,
    length,
    reverse,
)

# All v-palindromes up to 1000, both orientations (prefix of OEIS A338039):
# four canonical pairs (18,81), (198,891), (576,675), (819,918).
ALL_MODE_BELOW_1000 = [18, 81, 198, 576, 675, 819, 891, 918]


class CountedShards(list):
    """A shard list that counts how many shards have been taken from it."""

    taken = 0

    def __iter__(self):
        for shard in super().__iter__():
            self.taken += 1
            yield shard


def _sleep_then(i, seconds):
    """Shard i, at the cost of a sleep."""
    time.sleep(seconds)
    return i


def _fail_at(i, k):
    """Shard i, which raises at shard k."""
    if i == k:
        raise ValueError(f"shard {k} failed")
    return i


def _pid(i):
    """The pid of the process that runs shard i."""
    return os.getpid()


def _send_brute_force(conn):
    """Sends the prime v-palindromes up to 10**5, found at two workers."""
    conn.send(palindromes_mod._brute_force_hits(10**5, 10, 2))
    conn.close()


def _children() -> set[int]:
    """The pids of this process's live multiprocessing children."""
    return {p.pid for p in multiprocessing.active_children()}


def _running(pid: int) -> bool:
    """Whether pid is a process that has not exited; a zombie has."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:  # gone meanwhile, or no /proc to tell a zombie
        return not os.path.isdir("/proc")


# Leaves a two-worker pool idle, prints its worker pids and waits.
_HOLDER = """
import multiprocessing, time
from vpal import palindromes
palindromes._usable_cpus = lambda: 2
palindromes._brute_force_hits(10**5, 10, 2)
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
time.sleep(60)
"""


def _drain(results):
    """The items of results up to the ValueError that ends them, and its
    arguments."""
    items = []
    with pytest.raises(ValueError) as info:
        for item in results:
            items.append(item)
    return items, info.value.args


@pytest.fixture
def batch_sizes(monkeypatch):
    """Records the size of every batch the shard map sends to its pool."""
    sizes = []
    run_batch = palindromes_mod._run_batch

    def recorded(fn, batch):
        sizes.append(len(batch))
        return run_batch(fn, batch)

    monkeypatch.setattr(palindromes_mod, "_run_batch", recorded)
    return sizes


@pytest.fixture
def inline_pool(monkeypatch, no_idle_pool):
    """Replaces the process pool with one that runs each shard at submit;
    yields the list of the pool sizes asked for.  No real pool is idle when
    it is patched in, so none can stand in for it."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)  # runs in process: no initializer

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(palindromes_mod, "ProcessPoolExecutor", InlinePool)
    return sizes


class TestPredicate:
    def test_worked_examples(self):
        assert is_v_palindrome(198, 10) is True
        assert is_v_palindrome(18, 10) is True
        assert is_v_palindrome(121, 10) is False  # fixed point of reversal
        assert is_v_palindrome(19, 10) is False  # v(19)=19 vs v(91)=7+13=20

    def test_multiples_of_base_false_not_error(self):
        assert is_v_palindrome(100, 10) is False
        assert is_v_palindrome(810, 10) is False

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            is_v_palindrome(0, 10)
        with pytest.raises(DomainError):
            is_v_palindrome(5, 1)
        # a negative budget, also where nothing is factored
        for n in (121, 100, 198):
            with pytest.raises(DomainError, match="budget must be nonnegative, got -1"):
                is_v_palindrome(n, budget=-1)
        with pytest.raises(DomainError, match="base must be an int, got 10.0"):
            is_v_palindrome(198, 10.0)
        with pytest.raises(DomainError, match="budget must be an int, got 2.5"):
            is_v_palindrome(198, budget=2.5)

    def test_matches_oracle(self):
        rng = random.Random(20)
        for _ in range(400):
            n = rng.randint(1, 10**5)
            assert is_v_palindrome(n) == oracle_is_v_palindrome(n)

    def test_symmetry_under_reversal(self):
        rng = random.Random(21)
        checked = 0
        while checked < 300:
            n = rng.randint(2, 10**5)
            base = rng.choice((2, 3, 8, 10, 16))
            if n % base == 0:
                continue
            r = reverse(n, base)
            if r == n:
                continue
            assert is_v_palindrome(n, base) == is_v_palindrome(r, base)
            checked += 1

    def test_as_hit(self):
        hit = as_hit(576)
        assert hit == VPalindromeHit(576, 675, 13, 10)
        assert as_hit(19) is None
        assert as_hit(121) is None
        assert as_hit(100) is None

    def test_composite_bound_skips_the_reversal(self, monkeypatch):
        # a prime n has v(n) = n > r/2 + 2 here, so v(r) cannot equal v(n)
        calls, v = [], palindromes_mod.v

        def counted(m, budget=None):
            calls.append(m)
            return v(m, budget)

        monkeypatch.setattr(palindromes_mod, "v", counted)
        n = 183595711398977211219009396143
        assert as_hit(n) is None
        assert calls == [n]
        # the reversal is still factored where the bound lets v(r) = v(n)
        calls.clear()
        assert as_hit(198) == VPalindromeHit(198, 891, 18, 10)
        assert calls == [198, 891]


class TestEnumerate:
    def test_empty_below_first_hit(self):
        assert list(enumerate_v_palindromes(1, 17, mode="canonical")) == []

    def test_single_point_range(self):
        hits = list(enumerate_v_palindromes(576, 576, mode="all"))
        assert hits == [VPalindromeHit(576, 675, 13, 10)]

    def test_all_mode_prefix(self):
        hits = [h.n for h in enumerate_v_palindromes(1, 1000, mode="all")]
        assert hits == ALL_MODE_BELOW_1000

    def test_canonical_keeps_lower_member(self):
        hits = list(enumerate_v_palindromes(1, 1000, mode="canonical"))
        assert [h.n for h in hits] == [18, 198, 576, 819]
        assert all(h.n < h.reversal for h in hits)

    def test_empty_range(self):
        assert list(enumerate_v_palindromes(50, 20)) == []

    def test_completeness_against_predicate(self):
        enumerated = {h.n for h in enumerate_v_palindromes(1, 10**4, mode="all")}
        one_by_one = {n for n in range(1, 10**4 + 1) if is_v_palindrome(n)}
        assert enumerated == one_by_one

    def test_hit_invariants(self):
        for h in enumerate_v_palindromes(1, 10**4, mode="all"):
            assert h.n % h.base != 0
            assert h.n != h.reversal
            assert h.reversal == reverse(h.n, h.base)

    def test_sharding_determinism(self):
        whole = list(enumerate_v_palindromes(1, 3000, mode="all"))
        split = list(enumerate_v_palindromes(1, 1500, mode="all")) + list(
            enumerate_v_palindromes(1501, 3000, mode="all")
        )
        assert whole == split

    def test_across_shard_boundary(self):
        # spans the 10^5 shard edge of base 10
        lo, hi = 99_000, 101_100
        whole = list(enumerate_v_palindromes(lo, hi, mode="all"))
        singles = [n for n in range(lo, hi + 1) if is_v_palindrome(n)]
        assert [h.n for h in whole] == singles

    def test_workers_do_not_change_output(self):
        base = list(enumerate_v_palindromes(1, 200_000, mode="canonical"))
        parallel = list(
            enumerate_v_palindromes(1, 200_000, mode="canonical", workers=4)
        )
        assert base == parallel

    def test_other_base(self):
        hits = [h.n for h in enumerate_v_palindromes(1, 500, base=2, mode="all")]
        singles = [n for n in range(1, 501) if is_v_palindrome(n, base=2)]
        assert hits == singles

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            list(enumerate_v_palindromes(1, 10, mode="both"))

    def test_non_int_base_refused(self):
        # refused before the int64 sieves see it
        with pytest.raises(DomainError, match="base must be an int, got 10.0"):
            list(enumerate_v_palindromes(1, 1000, base=10.0))

    @pytest.mark.parametrize("workers,message", BAD_WORKERS)
    def test_bad_workers_refused(self, workers, message):
        with pytest.raises(DomainError, match=message):
            list(enumerate_v_palindromes(1, 300000, workers=workers))
        with pytest.raises(DomainError, match=message):
            palindromes_mod._brute_force_hits(300000, 10, workers)

    @pytest.mark.parametrize("lo,hi", [(99_990, 100_010), (65_530, 65_545),
                                       (999_990, 1_000_020), (1, 3000),
                                       (64_000, 67_000)])
    @pytest.mark.parametrize("base", [10, 2, 3, 16, 36])
    @pytest.mark.parametrize("mode", ["all", "canonical"])
    @pytest.mark.parametrize("shard", [palindromes_mod.SHARD_SIZE, 2**16, 7])
    def test_windows_match_singles(self, monkeypatch, lo, hi, base, mode, shard):
        # windows straddle decade edges, and the last two hold hits; a
        # 2**16 limit cuts base-10 shards at multiples of 60000, and a
        # 7-wide shard puts shard edges inside the windows too.  From 1,
        # the first shard holds whole digit lengths, whose blocks read v of
        # their reversals from the shard's own table, and a partial one,
        # whose blocks sieve them
        monkeypatch.setattr(palindromes_mod, "SHARD_SIZE", shard)
        hits = list(enumerate_v_palindromes(lo, hi, base=base, mode=mode))
        singles = [as_hit(n, base) for n in range(lo, hi + 1)]
        expected = [h for h in singles if h is not None
                    and (mode == "all" or h.n < h.reversal)]
        assert hits == expected

    @pytest.mark.parametrize("lo,hi", [(1, 3000), (64_000, 67_000),
                                       (10**9 - 150, 10**9 + 150), (1, 30_000)])
    @pytest.mark.parametrize("base", [10, 3, 16])
    @pytest.mark.parametrize("mode", ["all", "canonical"])
    def test_sieve_choice_does_not_change_hits(self, monkeypatch, lo, hi, base, mode):
        # every shard and block sieved, then every n and reversal factored
        # on its own
        monkeypatch.setattr(arith, "_SIEVE_BREAK_EVEN", 0)
        sieved = list(enumerate_v_palindromes(lo, hi, base=base, mode=mode))
        monkeypatch.setattr(arith, "_SIEVE_BREAK_EVEN", 10**30)
        factored = list(enumerate_v_palindromes(lo, hi, base=base, mode=mode))
        assert sieved == factored
        singles = [as_hit(n, base) for n in range(lo, hi + 1)]
        assert sieved == [h for h in singles if h is not None
                          and (mode == "all" or h.n < h.reversal)]

    def test_paper_range_reads_reversals_from_the_shard(self, monkeypatch):
        # [10, 99999] is one shard of whole digit lengths, so every reversal
        # lies in its v table: one sieve (its v_segment) and no per-term v
        calls = {"sieve": 0, "v": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(arith, "_sieve_progression",
                            counted("sieve", arith._sieve_progression))
        monkeypatch.setattr(arith, "v", counted("v", arith.v))
        hits = list(enumerate_v_palindromes(1, 99999, mode="canonical"))
        assert calls == {"sieve": 1, "v": 0}
        assert len(hits) == 46
        assert [h.n for h in hits[:4]] == [18, 198, 576, 819]
        assert hits[-1] == VPalindromeHit(97999, 99979, 221, 10)
        assert hits == [as_hit(h.n) for h in hits]

    def test_sieve_pays_for_long_blocks_only(self):
        pays = arith._sieve_pays
        assert not pays(1, 10**6)
        assert not pays(1, 10**17)
        assert pays(10**4, 10**6)
        assert not pays(1000, 10**15)
        assert pays(10**5, 10**15)

    @pytest.mark.parametrize("base,power,width", [
        (10, 10**5, 10**5), (16, 16**4, 2**17), (2, 2**17, 2**17),
        (3, 3**10, 2 * 3**10), (1000, 1000, 131_000), (10**5, 10**5, 10**5),
        (10**6, 1, 2**17)])
    def test_shards_tile_into_aligned_blocks(self, base, power, width):
        assert palindromes_mod._shard_width(base) == width
        lo, hi = base + 7, base + 5 * width + 11
        shards = list(palindromes_mod._scan(lambda a, b, _base: [(a, b)], [(lo, hi)], base, 1))
        assert shards[0][0] == lo and shards[-1][1] == hi
        for (_, end), (start, _) in zip(shards, shards[1:]):
            assert start == end + 1 and start % width == 0
        # every full shard is whole blocks of the largest power of the base
        # that fits in it
        for a, b in shards[1:-1]:
            blocks = list(palindromes_mod._aligned_blocks(a, b, base))
            assert [base**j for _, j in blocks] == [power] * (width // power)

    def test_one_digit_fixed_points_skip_the_sieve(self, monkeypatch):
        def no_sieve(a, step, count):
            raise AssertionError(f"sieved {count} terms from {a} by {step}")
        monkeypatch.setattr(arith, "_sieve_progression", no_sieve)
        assert list(enumerate_v_palindromes(1, 65536, base=100_000)) == []
        assert list(enumerate_v_palindromes(1, 9)) == []
        # nor does a window too narrow for the sieve to pay, high up
        assert list(enumerate_v_palindromes(10**16, 10**16 + 10)) == []

    def test_first_hit_of_a_wide_range_holds_one_shard(self):
        # the shards are cut as they are read, so the memory before the
        # first hit does not grow with the range
        tracemalloc.start()
        try:
            hits = enumerate_v_palindromes(1, 10**10)
            assert next(hits).n == 18
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        hits.close()
        assert peak < 8 * 2**20

    def test_shard_map_keeps_order_and_bounds_the_window(self, monkeypatch):
        monkeypatch.setattr(palindromes_mod, "_usable_cpus", lambda: 2)
        shards = CountedShards((-i,) for i in range(40))
        results = palindromes_mod._shard_map(abs, shards, 2)
        assert next(results) == 0
        taken = shards.taken
        assert taken < 40
        time.sleep(0.2)
        assert shards.taken == taken  # nothing is submitted while suspended
        assert list(results) == list(range(1, 40))
        assert list(palindromes_mod._shard_map(abs, [(-3,), (-1,)], 1)) == [3, 1]

    def test_shard_map_runs_past_a_slow_shard(self, monkeypatch):
        monkeypatch.setattr(palindromes_mod, "_usable_cpus", lambda: 2)
        shards = CountedShards([(0.5,)] + [(0,)] * 39)
        results = palindromes_mod._shard_map(time.sleep, shards, 2)
        assert next(results) is None
        # the second worker went on while the first shard slept
        assert shards.taken > 2 * 2 + 1
        assert len(list(results)) == 39

    @pytest.mark.parametrize("k", [0, 1, 6, 23, 39])
    def test_shard_map_raises_after_the_same_prefix(self, monkeypatch, k):
        shards = [(i, k) for i in range(40)]
        alone = _drain(palindromes_mod._shard_map(_fail_at, shards, 1))
        assert alone == (list(range(k)), (f"shard {k} failed",))
        monkeypatch.setattr(palindromes_mod, "_usable_cpus", lambda: 2)
        assert _drain(palindromes_mod._shard_map(_fail_at, shards, 2)) == alone

    def test_run_batch_returns_the_results_before_an_error(self):
        batch = [(i, 2) for i in range(4)]
        done, seconds, (error, trace) = palindromes_mod._run_batch(_fail_at, batch)
        assert done == [0, 1] and seconds >= 0
        assert isinstance(error, ValueError) and error.args == ("shard 2 failed",)
        assert "in _fail_at" in trace and trace.endswith("ValueError: shard 2 failed\n")
        assert palindromes_mod._run_batch(_fail_at, [(0, 5), (1, 5)])[::2] == ([0, 1], None)

    def test_shard_map_sizes_batches_by_their_time(self, monkeypatch, inline_pool, batch_sizes):
        monkeypatch.setattr(palindromes_mod, "_usable_cpus", lambda: 2)
        slow = 90  # a shard 200 times dearer than the rest
        shards = [(i, 0.1 if i == slow else 0.0005) for i in range(300)]
        assert list(palindromes_mod._shard_map(_sleep_then, shards, 2)) == list(range(300))
        sizes = batch_sizes
        # nothing is timed before the first two batches per worker are sent
        assert sizes[:4] == [1, 1, 1, 1]
        assert all(b <= 2 * a for a, b in zip(sizes, sizes[1:]))
        # a shard sleeps at least 0.5 ms, so no batch of them outlasts the target
        assert 4 <= max(sizes) <= palindromes_mod._BATCH_TARGET_S / 0.0005
        # the batch that holds the slow shard, once timed, sizes the next
        # ones down; the inline pool sends three more before it times them
        k = next(i for i, end in enumerate(itertools.accumulate(sizes)) if end > slow)
        assert sizes[k] >= 2
        assert min(sizes[k + 1:k + 5]) < sizes[k]

    def test_shard_map_reads_no_shard_while_suspended(self, monkeypatch, inline_pool,
                                                      batch_sizes):
        monkeypatch.setattr(palindromes_mod, "_usable_cpus", lambda: 2)
        shards = CountedShards((i, 0.0005) for i in range(400))
        results = palindromes_mod._shard_map(_sleep_then, shards, 2)
        assert next(results) == 0
        # two batches of one shard per worker before any batch is timed
        assert shards.taken == 4
        time.sleep(0.05)
        assert shards.taken == 4
        # suspended inside the first batch of two
        assert [next(results) for _ in range(5)] == [1, 2, 3, 4, 5]
        assert batch_sizes[4] == 2
        taken = shards.taken
        time.sleep(0.05)
        assert shards.taken == taken < 400
        assert list(results) == list(range(6, 400))

    def test_shard_map_caps_workers_at_the_cpus(self, monkeypatch, inline_pool):
        sizes = inline_pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        shards = [(-i,) for i in range(40)]
        assert list(palindromes_mod._shard_map(abs, shards, 10**6)) == list(range(40))
        assert sizes == [3]
        # no affinity call: the CPU count caps instead, and one CPU runs in process
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert list(palindromes_mod._shard_map(abs, shards, 10**6)) == list(range(40))
        assert sizes == [3]

    def test_shard_map_reads_an_endless_stream(self, monkeypatch, inline_pool):
        # the pool is sized from at most as many shards as there are CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        results = palindromes_mod._shard_map(abs, ((-i,) for i in itertools.count()), 10**6)
        assert next(results) == 0
        assert inline_pool == [3]
        results.close()

    @pytest.mark.parametrize("base", range(2, 37))
    def test_digit_reversal_matches_a_digit_loop(self, base):
        for j in range(4 if base <= 16 else 3):
            table = palindromes_mod._digit_reversal(j, base)
            expected = []
            for t in range(base**j):
                rev = 0
                for _ in range(j):
                    t, d = divmod(t, base)
                    rev = rev * base + d
                expected.append(rev)
            assert table.dtype == np.int64 and not table.flags.writeable
            assert table.tolist() == expected

    def test_reversal_image_beyond_int64_rejected(self):
        with pytest.raises(DomainError):
            list(enumerate_v_palindromes(10**18, 10**18 + 5))
        with pytest.raises(DomainError):
            list(enumerate_v_palindromes(2**63 - 5, 2**63 - 1, base=2))


class TestPoolLifetime:
    """The shard pool is forked once per process and worker count: a call
    that yields every shard leaves it idle for the next, a call that stops
    early shuts it down."""

    SHARDS = [(i,) for i in range(20)]

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch, no_idle_pool):
        monkeypatch.setattr(palindromes_mod, "_usable_cpus", lambda: 2)

    def test_consecutive_calls_run_on_the_same_workers(self):
        first = set(palindromes_mod._shard_map(_pid, self.SHARDS, 2))
        workers = _children()
        assert len(workers) == 2 and first <= workers
        second = set(palindromes_mod._shard_map(_pid, self.SHARDS, 2))
        assert second <= workers == _children()
        expected = palindromes_mod._brute_force_hits(10**5, 10, 1)
        assert palindromes_mod._brute_force_hits(10**5, 10, 2) == expected
        assert _children() == workers

    def test_another_worker_count_replaces_the_pool(self, monkeypatch):
        monkeypatch.setattr(palindromes_mod, "_usable_cpus", lambda: 3)
        list(palindromes_mod._shard_map(_pid, self.SHARDS, 2))
        two = _children()
        assert len(two) == 2
        assert set(palindromes_mod._shard_map(_pid, self.SHARDS, 3)) <= _children()
        three = _children()
        assert len(three) == 3 and not two & three
        list(palindromes_mod._shard_map(_pid, self.SHARDS, 2))
        assert len(_children()) == 2 and not _children() & (two | three)

    def test_a_worker_killed_while_idle_is_replaced(self):
        list(palindromes_mod._shard_map(_pid, self.SHARDS, 2))
        os.kill(min(_children()), signal.SIGKILL)
        # the pool notices the death and stops its other worker
        deadline = time.monotonic() + 10
        while _children() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _children() == set()
        expected = palindromes_mod._brute_force_hits(10**5, 10, 1)
        assert palindromes_mod._brute_force_hits(10**5, 10, 2) == expected
        assert len(_children()) == 2

    def test_a_call_that_stops_early_leaves_no_worker(self):
        list(palindromes_mod._shard_map(_pid, self.SHARDS, 2))
        results = palindromes_mod._shard_map(_sleep_then, [(i, 0.01) for i in range(40)], 2)
        assert next(results) == 0
        results.close()
        assert multiprocessing.active_children() == []
        shards = [(i, 6) for i in range(40)]
        assert _drain(palindromes_mod._shard_map(_fail_at, shards, 2))[0] == list(range(6))
        assert multiprocessing.active_children() == []

    def test_workers_end_when_the_process_that_made_them_is_killed(self):
        holder = subprocess.Popen([sys.executable, "-c", _HOLDER], env=subprocess_env(),
                                  stdout=subprocess.PIPE, text=True)
        try:
            workers = [int(pid) for pid in holder.stdout.readline().split()]
        finally:
            holder.kill()  # no exit hook runs
            holder.wait()
            holder.stdout.close()
        assert len(workers) == 2
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if _running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []

    def test_a_forked_child_does_not_use_the_inherited_pool(self):
        expected = palindromes_mod._brute_force_hits(10**5, 10, 1)
        assert palindromes_mod._brute_force_hits(10**5, 10, 2) == expected
        workers = _children()
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_send_brute_force, args=(sender,))
        child.start()
        sender.close()
        try:
            assert receiver.poll(20), "the child gave no answer"
            assert receiver.recv() == expected
            # the child's own pool does not keep it alive at exit
            child.join(20)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert _children() == workers


class TestFamilies:
    @pytest.mark.parametrize("k,expected", [(1, 18), (2, 198), (4, 19998)])
    def test_nines_values(self, k, expected):
        assert family_nines(k) == expected

    @pytest.mark.parametrize("j,expected", [(1, 18), (2, 1818), (3, 181818)])
    def test_repeat18_values(self, j, expected):
        assert family_repeat18(j) == expected

    def test_nines_digit_shape(self):
        for k in range(1, 12):
            s = str(family_nines(k))
            assert s == "1" + "9" * (k - 1) + "8"

    def test_repeat18_digit_shape(self):
        for j in range(1, 12):
            assert str(family_repeat18(j)) == "18" * j

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            family_nines(0)
        with pytest.raises(DomainError):
            family_repeat18(0)

    def test_members_are_v_palindromes(self):
        for k in range(1, 11):
            assert is_v_palindrome(family_nines(k))
        for j in range(1, 11):
            assert is_v_palindrome(family_repeat18(j))


class TestCompositeBound:
    """v(m) <= m/2 + 2 for composite m, and the filters built on it."""

    def test_oracle_table_matches_oracle_v(self):
        table = oracle_v_upto(20_000)
        assert table[1:] == [oracle_v(n) for n in range(1, 20_001)]

    def test_bound_holds_to_a_million(self):
        limit = 10**6
        table, flags = oracle_v_upto(limit), oracle_sieve(limit)
        assert all(2 * table[m] <= m + 4 for m in range(4, limit + 1) if not flags[m])
        # v(r) always passes the filter when compared with itself
        r = np.arange(2, limit + 1, dtype=np.int64)
        assert palindromes_mod._may_share_v(r, np.array(table[2:], dtype=np.int64)).all()

    @given(st.integers(2, 10**5), st.integers(2, 10**5))
    def test_bound_holds_for_products(self, a, b):
        m = a * b
        assert 2 * oracle_v(m) <= m + 4
        assert palindromes_mod._may_share_v(m, oracle_v(m))

    def test_filter_is_tight(self):
        may = palindromes_mod._may_share_v
        # v(6) = 5 = 6/2 + 2 and v(4) = 4 = 4/2 + 2
        assert may(6, 5) and may(4, 4) and not may(7, 6) and not may(8, 7)
        # a prime p passes only against r >= 2p - 4, and against r = p
        assert may(214, 109) and not may(213, 109) and may(109, 109)

    # in base 210 no prime below 11 divides a reversal ending in a digit
    # coprime to 210
    @pytest.mark.parametrize("base", [2, 3, 10, 16, 100, 210])
    def test_prime_hit_spans_cover_every_possible_hit(self, base):
        lo, hi = base, 30_000
        spans = palindromes_mod._prime_hit_spans(lo, hi, base)
        # ascending, and adjacent spans merged
        assert all(x <= y < u - 1 for (x, y), (u, _) in zip(spans, spans[1:]))
        inside = np.zeros(hi + 1, dtype=bool)
        for x, y in spans:
            inside[x : y + 1] = True
        spf = oracle_spf_upto(base ** length(hi, base))

        @functools.lru_cache(maxsize=None)
        def composites(L, d):
            # (s, r // s) of each composite r that can reverse an L-digit n
            # leading with d: r ends in d, and r <= base**L - base + d
            top = base**L - base + d
            return [(spf[r], r // spf[r]) for r in range(d, top + 1, base) if spf[r] < r]

        @functools.lru_cache(maxsize=None)
        def reach(L, d):
            return max((s + q for s, q in composites(L, d)), default=0)

        # v(r) <= s + r/s (TestSmallestFactorBound), so every n at most
        # s + r/s for some composite r of its class lies in a span
        for n in range(lo, hi + 1):
            L = length(n, base)
            if n <= reach(L, n // base ** (L - 1)):
                assert inside[n], n
        # the n just past each span exceeds s + top/s, with s the least
        # smallest prime factor of a composite of its class (when it has one)
        for _, y in spans:
            n, L = y + 1, length(y, base)
            if n <= hi and n < base**L and composites(L, d := n // base ** (L - 1)):
                least = min(s for s, _ in composites(L, d))
                assert n > least + (base**L - base + d) // least, n

    def test_prime_hit_spans_base_ten(self):
        # per length, leading digits 1-3 up to 33...34 (3 divides a reversal
        # ending in 1 or 3) and 4 whole (2 divides one ending in 4)
        assert palindromes_mod._prime_hit_spans(10, 10**6 - 1, 10) == [
            (10, 34), (40, 49), (100, 334), (400, 499), (1000, 3334), (4000, 4999),
            (10**4, 33_334), (40_000, 49_999), (10**5, 333_334), (400_000, 499_999)]
        assert palindromes_mod._prime_hit_spans(333_335, 399_999, 10) == []
        assert palindromes_mod._prime_hit_spans(5 * 10**5, 10**6 - 1, 10) == []

    def test_scan_reaches_the_first_prime_hit_of_a_wide_range(self):
        # a prune that loses 109 fails at the next shard, instead of
        # scanning on toward 16**12
        shards = []

        def bounded(lo, hi, base):
            assert lo <= 109, f"the scan passed 109 after the shards {shards}"
            shards.append((lo, hi))
            return palindromes_mod._prime_shard_hits(lo, hi, base)

        spans = palindromes_mod._prime_hit_spans(16, 16**12, 16)
        hits = palindromes_mod._scan(bounded, spans, 16, 1)
        assert next(hits) == 109
        hits.close()
        assert shards[-1][0] <= 109 <= shards[-1][1]

    def test_brute_force_sieves_only_inside_the_prime_hit_spans(self, monkeypatch):
        windows = []
        sieve = palindromes_mod.prime_flags

        def recording(lo, hi):
            windows.append((lo, hi))
            return sieve(lo, hi)

        monkeypatch.setattr(palindromes_mod, "prime_flags", recording)
        assert palindromes_mod._brute_force_hits(10**7, 10, 1) == []
        spans = palindromes_mod._prime_hit_spans(10, 10**7, 10)
        assert windows
        for lo, hi in windows:
            assert any(x <= lo <= hi <= y for x, y in spans), (lo, hi)
            # no n in [5*10**k, 10**(k+1)) has a reversal r >= 2n - 4
            assert not any(5 * 10**k <= lo < 10 ** (k + 1) for k in range(7)), (lo, hi)


class TestSmallestFactorBound:
    """v(m) <= s + m/s for composite m with smallest prime factor s, and
    the filter the scanners apply with it before they compute v of a
    reversal."""

    def test_bound_holds_to_a_million(self):
        limit = 10**6
        table, spf = oracle_v_upto(limit), oracle_spf_upto(limit)
        assert all(table[m] <= spf[m] + m // spf[m] for m in range(4, limit + 1) if spf[m] < m)
        # v(r) always passes the filter when compared with itself
        r = np.arange(2, limit + 1, dtype=np.int64)
        vr = np.array(table[2:], dtype=np.int64)
        assert palindromes_mod._spf_may_share_v(r, vr, 0, 1).all()

    def test_filter_is_tight(self):
        def may(r, vn):
            return bool(palindromes_mod._spf_may_share_v(np.array([r]), np.array([vn]), 0, 1)[0])

        # v(15) = 3 + 5, v(25) = 5 + 2 <= 5 + 5, v(6) = 2 + 3
        assert may(15, 8) and not may(15, 9)
        assert may(25, 10) and not may(25, 11) and may(6, 5) and not may(6, 7)
        # 221 = 13*17: the composite bound lets 109 through, this one not,
        # but v(221) = 30 <= 11 + 221/11 passes
        assert palindromes_mod._may_share_v(221, 109) and not may(221, 109)
        assert may(221, 30) and not may(221, 32)
        # a prime r passes against itself only
        assert may(109, 109) and not may(109, 108)

    @pytest.mark.parametrize("a,step", [(1, 10), (2, 10), (5, 10), (3, 100), (15, 100),
                                        (9, 16), (6, 16), (7, 30), (11, 210)])
    def test_primes_of_the_step_decided_from_a(self, a, step):
        # the block shortcut agrees with remainders of every term
        may = palindromes_mod._spf_may_share_v
        r = a + step * np.arange(3000, dtype=np.int64)
        vn = np.random.default_rng(step + a).integers(2, r // 2 + 3)
        assert np.array_equal(may(r, vn, a, step), may(r, vn, 0, 1))

    def test_brute_force_computes_v_only_of_reversals_the_bound_admits(self, monkeypatch):
        terms = []
        v_terms = palindromes_mod._v_terms

        def recording(a, step, x):
            terms.extend((a + step * x).tolist())
            return v_terms(a, step, x)

        monkeypatch.setattr(palindromes_mod, "_v_terms", recording)
        assert palindromes_mod._brute_force_hits(10**5, 10, 1) == []
        spf = oracle_spf_upto(10**5)
        assert terms
        for r in terms:
            # r reverses the prime p; a smallest prime factor above 11
            # counts as 11
            p, s = oracle_reverse(r), min(spf[r], 11)
            assert p <= s + r // s, (p, r)
