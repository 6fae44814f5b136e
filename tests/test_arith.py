import math
import random
import sys
import threading

import numpy as np
import pytest

from _oracles import oracle_sieve, oracle_v, trial_factorize, trial_is_prime
from vpal import (
    DETERMINISTIC_BOUND,
    BudgetExceeded,
    DomainError,
    alladi_erdos_A,
    factorize,
    iota,
    is_prime,
    oeis_F,
    oeis_G,
    primes_upto,
    spf_sieve,
    v,
    v_progression,
    v_segment,
)
from vpal import arith
from vpal.arith import _PRIME_SEGMENT, _primes_upto, prime_flags, v_with_table

# 2^89 - 1 is a Mersenne prime well above the deterministic witness range.
BIG_PRIME = 2**89 - 1

# factorize(n, budget) outcomes as a count of single operations gives them:
# the factorization, or (partial, cofactor, message) of its BudgetExceeded.
# Budgets k-1, k, k+1 around the trial-division probe count k of n (2 for
# 198, 168 for 1000003 and 2000006, all 564 primes below 4096 for 4093**2
# and 4099**2), and the rho batch edges of 16*(10**9 + 7)*(10**9 + 9) and of
# 4099**2 * 1000003, whose partial grows between two rho splits.
_BUDGET_OUTCOMES = [
    (1, 0, []),
    (1, None, []),
    (2, 0, [(2, 1)]),
    (1000003, 0, ([], 1000003,
        "factorization budget exhausted with cofactor 1000003 unsplit")),
    (1000003, 1, ([], 1000003,
        "factorization budget exhausted with cofactor 1000003 unsplit")),
    (1000003, 2, ([], 1000003,
        "factorization budget exhausted with cofactor 1000003 unsplit")),
    (198, 1, ([(2, 1)], 99,
        "factorization budget exhausted with cofactor 99 unsplit")),
    (198, 2, [(2, 1), (3, 2), (11, 1)]),
    (198, 3, [(2, 1), (3, 2), (11, 1)]),
    (1000003, 167, ([], 1000003,
        "factorization budget exhausted with cofactor 1000003 unsplit")),
    (1000003, 168, [(1000003, 1)]),
    (1000003, 169, [(1000003, 1)]),
    (2000006, 167, ([(2, 1)], 1000003,
        "factorization budget exhausted with cofactor 1000003 unsplit")),
    (2000006, 168, [(2, 1), (1000003, 1)]),
    (2000006, 169, [(2, 1), (1000003, 1)]),
    (16752649, 563, ([], 16752649,
        "factorization budget exhausted with cofactor 16752649 unsplit")),
    (16752649, 564, [(4093, 2)]),
    (16752649, 565, [(4093, 2)]),
    (16801801, 563, ([], 16801801,
        "factorization budget exhausted with cofactor 16801801 unsplit")),
    (16801801, 564, ([], 16801801,
        "factorization budget exhausted with cofactor 16801801 unsplit")),
    (16801801, 565, ([], 16801801,
        "factorization budget exhausted with cofactor 16801801 unsplit")),
    (16801801, 691, ([], 16801801,
        "factorization budget exhausted with cofactor 16801801 unsplit")),
    (16801801, 692, [(4099, 2)]),
    (16000000256000001008, 564, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 565, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 566, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 567, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 568, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 569, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 570, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 571, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 573, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 574, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 575, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 577, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 578, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 579, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 585, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 586, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 587, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 593, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 594, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 595, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 609, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 610, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 611, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 625, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 626, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 627, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 657, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 658, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 659, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 689, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 690, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 691, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 50865, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 50866, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 50867, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 50993, ([(2, 4)], 1000000016000000063,
        "factorization budget exhausted with cofactor 1000000016000000063 unsplit")),
    (16000000256000001008, 50994, [(2, 4), (1000000007, 1), (1000000009, 1)]),
    (16000000256000001008, 50995, [(2, 4), (1000000007, 1), (1000000009, 1)]),
    (16801851405403, 689, ([], 16801851405403,
        "factorization budget exhausted with cofactor 16801851405403 unsplit")),
    (16801851405403, 690, ([(1000003, 1)], 16801801,
        "factorization budget exhausted with cofactor 16801801 unsplit")),
    (16801851405403, 691, ([(1000003, 1)], 16801801,
        "factorization budget exhausted with cofactor 16801801 unsplit")),
    (16801851405403, 817, ([(1000003, 1)], 16801801,
        "factorization budget exhausted with cofactor 16801801 unsplit")),
    (16801851405403, 818, [(4099, 2), (1000003, 1)]),
]


class TestFactorize:
    def test_worked_examples(self):
        assert factorize(198) == [(2, 1), (3, 2), (11, 1)]
        assert factorize(891) == [(3, 4), (11, 1)]
        assert factorize(1) == []

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factorize(0)
        with pytest.raises(DomainError):
            factorize(-5)

    def test_reconstruction_random(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(1, 10**9)
            fs = factorize(n)
            assert math.prod(p**e for p, e in fs) == n
            assert fs == sorted(fs)
            assert all(e >= 1 for _, e in fs)

    def test_matches_trial_division(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(1, 10**7)
            assert factorize(n) == trial_factorize(n)

    def test_large_semiprime(self):
        p, q = 1_000_000_007, 1_000_000_009
        assert factorize(p * q) == [(p, 1), (q, 1)]

    def test_budget_exceeded_carries_state(self):
        n = 2**4 * 1_000_000_007 * 1_000_000_009
        with pytest.raises(BudgetExceeded) as ei:
            factorize(n, budget=600)
        exc = ei.value
        assert exc.partial == [(2, 4)]
        assert exc.cofactor == 1_000_000_007 * 1_000_000_009
        rebuilt = exc.cofactor * math.prod(p**e for p, e in exc.partial)
        assert rebuilt == n

    def test_budget_generous_enough_succeeds(self):
        assert factorize(198, budget=10_000) == [(2, 1), (3, 2), (11, 1)]

    @pytest.mark.parametrize("n, budget, expected", _BUDGET_OUTCOMES)
    def test_budget_outcomes_pinned(self, n, budget, expected):
        try:
            got = factorize(n, budget)
        except BudgetExceeded as exc:
            got = (exc.partial, exc.cofactor, str(exc))
        assert got == expected

    @pytest.mark.parametrize("n", [1, 6, 1_000_003])
    def test_negative_budget_refused(self, n):
        with pytest.raises(DomainError, match="budget must be nonnegative, got -1"):
            factorize(n, budget=-1)


class TestIsPrime:
    def test_examples(self):
        assert is_prime(2).status == "prime"
        assert is_prime(497).status == "composite"  # 7 * 71
        assert is_prime(4999).status == "prime"

    def test_verdicts_deterministic_below_bound(self):
        for n in (0, 1, 2, 3, 4999, 10**12 + 39):
            verdict = is_prime(n)
            assert verdict.status in ("prime", "composite")
            assert verdict.certainty == 0

    def test_probable_prime_above_bound(self):
        assert BIG_PRIME > DETERMINISTIC_BOUND
        verdict = is_prime(BIG_PRIME, rounds=16)
        assert verdict.status == "probable_prime"
        assert verdict.certainty == 16
        assert verdict.non_composite

    def test_composite_above_bound(self):
        verdict = is_prime(BIG_PRIME * (2**107 - 1))
        assert verdict.status == "composite"
        assert not verdict.non_composite

    def test_small_exhaustive_against_oracle(self):
        flags = oracle_sieve(20_000)
        for n in range(20_001):
            assert (is_prime(n).status == "prime") == flags[n]

    def test_random_sample_against_oracle(self):
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randint(2, 10**6)
            assert (is_prime(n).status == "prime") == trial_is_prime(n)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            is_prime(-1)
        with pytest.raises(DomainError):
            is_prime(7, rounds=0)


class TestIota:
    @pytest.mark.parametrize("alpha,expected", [(1, 0), (2, 2), (7, 7), (20, 20)])
    def test_values(self, alpha, expected):
        assert iota(alpha) == expected

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            iota(0)


class TestAdditiveFunctions:
    def test_v_worked_examples(self):
        assert v(198) == 18
        assert v(891) == 18
        assert v(1) == 0
        assert v(1998) == 45  # 2 * 3^3 * 37 -> 2 + (3+3) + 37

    def test_A_examples(self):
        assert alladi_erdos_A(12) == 7
        assert alladi_erdos_A(198) == 19
        for p in (2, 13, 101, 4999):
            assert alladi_erdos_A(p) == p
        assert alladi_erdos_A(1) == 0

    def test_F_examples(self):
        assert oeis_F(198) == 20
        assert oeis_F(12) == 8
        for p in (2, 13, 101, 4999):
            assert oeis_F(p) == p + 1
        assert oeis_F(1) == 0

    def test_G_examples(self):
        assert oeis_G(12) == 12
        assert oeis_G(198) == 132
        for p in (2, 13, 101, 4999):
            assert oeis_G(p) == p
        assert oeis_G(1) == 1

    def test_v_against_oracle(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(1, 10**6)
            assert v(n) == oracle_v(n)

    def test_additivity_on_coprime_pairs(self):
        rng = random.Random(5)
        checked = 0
        while checked < 500:
            m = rng.randint(1, 10**4)
            n = rng.randint(1, 10**4)
            if math.gcd(m, n) != 1:
                continue
            assert v(m * n) == v(m) + v(n)
            assert alladi_erdos_A(m * n) == alladi_erdos_A(m) + alladi_erdos_A(n)
            assert oeis_F(m * n) == oeis_F(m) + oeis_F(n)
            assert oeis_G(m * n) == oeis_G(m) * oeis_G(n)
            checked += 1

    def test_prime_power_bound(self):
        for p in primes_upto(100):
            for alpha in range(1, 21):
                assert v(p**alpha) <= p**alpha

    def test_v_at_most_n_with_length(self):
        table = v_segment(1, 10**5)
        for n in range(1, 10**5 + 1):
            vn = table[n - 1]
            assert vn <= n
            length_v = len(str(vn)) if vn else 0
            assert length_v <= len(str(n))

    def test_budget_propagates(self):
        n = 1_000_000_007 * 1_000_000_009
        with pytest.raises(BudgetExceeded):
            v(n, budget=600)
        with pytest.raises(BudgetExceeded):
            oeis_G(n, budget=600)


def empty_prime_table(monkeypatch):
    """Start the process's prime table over from nothing, for this test."""
    empty = np.zeros(0, dtype=np.int64)
    empty.flags.writeable = False
    monkeypatch.setattr(arith, "_prime_table", (1, empty))


class TestPrimeTable:
    TOP = 3 * 10**6

    @pytest.fixture(scope="class")
    def oracle_primes(self):
        return np.flatnonzero(oracle_sieve(self.TOP))

    def test_limits_in_any_order_match_oracle(self, monkeypatch, oracle_primes):
        # 2 and 4099 are primes, so a table grown from there must not repeat them
        limits = [10, 10**6, 2**18 + 1, 2**18 - 1, 5 * 10**5, self.TOP, 1, 2, 4099]
        for seed in range(4):
            random.Random(seed).shuffle(limits)
            empty_prime_table(monkeypatch)
            for limit in limits:
                got = _primes_upto(limit)
                expected = oracle_primes[: np.searchsorted(oracle_primes, limit, side="right")]
                assert got.tolist() == expected.tolist(), (seed, limit)

    def test_returned_table_is_read_only(self, monkeypatch):
        empty_prime_table(monkeypatch)
        for limit in (1, 10, 10**5, 50):
            got = _primes_upto(limit)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[:1] = 4

    def test_smaller_request_keeps_the_table(self, monkeypatch):
        empty_prime_table(monkeypatch)
        _primes_upto(10**5)
        grown = arith._prime_table
        assert grown[0] == 10**5
        for limit in (10**3, 1, 10**5, 99_999):
            _primes_upto(limit)
            assert arith._prime_table is grown

    def test_growth_never_replaces_a_larger_table(self, monkeypatch, oracle_primes):
        empty_prime_table(monkeypatch)
        _primes_upto(1000)  # the roots up to 10**6, so the call below sieves at once
        sieve = arith.prime_flags
        interrupted = []

        def racing_sieve(lo, hi):
            # another caller grows the table to 10**6 while this one sieves
            if not interrupted:
                interrupted.append(lo)
                _primes_upto(10**6)
            return sieve(lo, hi)

        monkeypatch.setattr(arith, "prime_flags", racing_sieve)
        got = _primes_upto(10**5)
        assert interrupted == [1001]
        assert got.tolist() == oracle_primes[: np.searchsorted(oracle_primes, 10**5)].tolist()
        assert arith._prime_table[0] == 10**6

    def test_concurrent_callers_never_get_a_short_table(self, monkeypatch, oracle_primes):
        top = 2 * 10**5
        limits = list(range(50, top, 331))
        counts = np.searchsorted(oracle_primes, limits, side="right")
        workers, short = 8, []

        def climb(i):
            # each thread grows the table through its own share of limits
            for limit, count in zip(limits[i::workers], counts[i::workers]):
                if _primes_upto(limit).size != count:
                    short.append(limit)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                empty_prime_table(monkeypatch)
                threads = [threading.Thread(target=climb, args=(i,)) for i in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert short == []


class TestSieves:
    def test_primes_upto_matches_oracle(self):
        flags = oracle_sieve(10**6)
        expected = [i for i, f in enumerate(flags) if f]
        assert primes_upto(10**6) == expected

    def test_primes_upto_across_segment_edges(self):
        flags = oracle_sieve(2 * _PRIME_SEGMENT + 3)
        for limit in (0, 1, 2, 3, 4, 30, _PRIME_SEGMENT - 1, _PRIME_SEGMENT,
                      _PRIME_SEGMENT + 1, 2 * _PRIME_SEGMENT + 3):
            assert primes_upto(limit) == [i for i in range(limit + 1) if flags[i]]

    @pytest.mark.parametrize("lo,hi", [(0, 50), (1, 50), (2, 3), (3, 1000),
                                       (4, 4), (4, 10**4), (2**17 - 500, 2**17 + 500),
                                       (2**18 - 500, 2**18 + 500),
                                       (999_900, 1_000_100), (10**9 - 300, 10**9)])
    def test_prime_flags_match_v(self, lo, hi, monkeypatch):
        # a prime is exactly an n with v(n) = n, except 4 = 2**2 -> 2 + 2
        n = np.arange(max(lo, 1), hi + 1)
        expected = (v_segment(max(lo, 1), hi) == n) & (n != 4)
        if lo == 0:
            expected = np.concatenate(([False], expected))
        empty_prime_table(monkeypatch)  # prime_flags grows the table it sieves with
        got = prime_flags(lo, hi)
        assert got.dtype == bool
        assert got.tolist() == expected.tolist()

    def test_prime_flags_edges(self):
        assert len(prime_flags(10, 9)) == 0
        with pytest.raises(DomainError):
            prime_flags(-1, 5)

    def test_spf_table(self):
        spf = spf_sieve(10**4)
        assert int(spf[1]) == 1
        flags = oracle_sieve(10**4)
        for n in range(2, 10**4 + 1):
            smallest = min(p for p, _ in trial_factorize(n))
            assert int(spf[n]) == smallest
            assert (int(spf[n]) == n) == flags[n]

    def test_table_factorize_and_v(self):
        spf = spf_sieve(10**5)
        rng = random.Random(6)
        for _ in range(500):
            n = rng.randint(1, 10**5)
            assert v_with_table(n, spf) == v(n)

    def test_v_segment_matches_pointwise(self):
        lo, hi = 999_900, 1_000_100
        seg = v_segment(lo, hi)
        for n in range(lo, hi + 1):
            assert seg[n - lo] == v(n)
        assert v_segment(1, 1).tolist() == [0]
        assert len(v_segment(5, 4)) == 0

    def test_v_segment_rejects_zero_start(self):
        with pytest.raises(DomainError):
            v_segment(0, 10)

    def test_v_progression_matches_pointwise(self):
        rng = random.Random(7)
        # steps sharing primes with the start (powers of 10, 2 and 3),
        # counts below the sieving primes, and single terms
        steps = (1, 10, 1000, 10**5, 2, 2**7, 3, 3**5, 7, 12)
        for _ in range(400):
            step = rng.choice(steps + (rng.randint(1, 10**4),))
            a = rng.randint(1, 10**6)
            if rng.random() < 0.3:
                a *= rng.choice((2, 4, 8, 3, 9, 27, 5, 10, 100))
            count = rng.choice((1, 2, 3, 7, 64, 65, rng.randint(1, 2000)))
            got = v_progression(a, step, count)
            assert got.dtype == np.int64
            assert got.tolist() == [v(a + s * step) for s in range(count)], (
                a, step, count)

    def test_v_progression_edges(self):
        assert v_progression(1, 10, 1).tolist() == [0]
        assert len(v_progression(5, 3, 0)) == 0
        # a single term ignores its step, however large
        assert v_progression(891, 10**30, 1).tolist() == [18]
        with pytest.raises(DomainError):
            v_progression(0, 1, 5)
        with pytest.raises(DomainError):
            v_progression(1, 0, 5)
        with pytest.raises(DomainError):
            v_progression(2**62, 2**62, 2)
