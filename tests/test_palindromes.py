import random
import time

import pytest

from _oracles import oracle_is_v_palindrome
from vpal import palindromes as palindromes_mod
from vpal import (
    DomainError,
    VPalindromeHit,
    as_hit,
    enumerate_v_palindromes,
    family_nines,
    family_repeat18,
    is_v_palindrome,
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

    @pytest.mark.parametrize("lo,hi", [(99_990, 100_010), (65_530, 65_545),
                                       (999_990, 1_000_020), (1, 3000),
                                       (64_000, 67_000)])
    @pytest.mark.parametrize("base", [10, 2, 3])
    @pytest.mark.parametrize("mode", ["all", "canonical"])
    @pytest.mark.parametrize("shard", [palindromes_mod.SHARD_SIZE, 2**16, 7])
    def test_windows_match_singles(self, monkeypatch, lo, hi, base, mode, shard):
        # windows straddle decade edges, and the last two hold hits; a
        # 2**16 limit cuts base-10 shards at multiples of 60000, and a
        # 7-wide shard puts shard edges inside the windows too
        monkeypatch.setattr(palindromes_mod, "SHARD_SIZE", shard)
        hits = list(enumerate_v_palindromes(lo, hi, base=base, mode=mode))
        singles = [as_hit(n, base) for n in range(lo, hi + 1)]
        expected = [h for h in singles if h is not None
                    and (mode == "all" or h.n < h.reversal)]
        assert hits == expected

    @pytest.mark.parametrize("lo,hi", [(1, 3000), (64_000, 67_000),
                                       (10**9 - 150, 10**9 + 150)])
    @pytest.mark.parametrize("base", [10, 3])
    @pytest.mark.parametrize("mode", ["all", "canonical"])
    def test_sieve_choice_does_not_change_hits(self, monkeypatch, lo, hi, base, mode):
        # every block sieved, then every reversal factored on its own
        monkeypatch.setattr(palindromes_mod, "_SIEVE_BREAK_EVEN", 0)
        sieved = list(enumerate_v_palindromes(lo, hi, base=base, mode=mode))
        monkeypatch.setattr(palindromes_mod, "_SIEVE_BREAK_EVEN", 10**30)
        factored = list(enumerate_v_palindromes(lo, hi, base=base, mode=mode))
        assert sieved == factored
        singles = [as_hit(n, base) for n in range(lo, hi + 1)]
        assert sieved == [h for h in singles if h is not None
                          and (mode == "all" or h.n < h.reversal)]

    def test_sieve_pays_for_long_blocks_only(self):
        pays = palindromes_mod._sieve_pays
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
        lo, hi = 7, 5 * width + 11
        shards = palindromes_mod._shards(lo, hi, base)
        assert shards[0][0] == lo and shards[-1][1] == hi
        for (_, end), (start, _) in zip(shards, shards[1:]):
            assert start == end + 1 and start % width == 0
        # every full shard is whole blocks of the largest power of the base
        # that fits in it
        for a, b in shards[1:-1]:
            blocks = list(palindromes_mod._aligned_blocks(a, b, base))
            assert [base**j for _, j in blocks] == [power] * (width // power)

    def test_one_digit_fixed_points_skip_the_sieve(self, monkeypatch):
        def no_sieve(lo, hi):
            raise AssertionError(f"sieved [{lo}, {hi}]")
        monkeypatch.setattr(palindromes_mod, "v_segment", no_sieve)
        assert list(enumerate_v_palindromes(1, 65536, base=100_000)) == []
        assert palindromes_mod._shard_hits(1, 9, 10, False) == []

    def test_shard_map_keeps_order_and_bounds_the_window(self):
        shards = CountedShards((-i,) for i in range(40))
        results = palindromes_mod._shard_map(abs, shards, 2)
        assert next(results) == 0
        taken = shards.taken
        assert taken < 40
        time.sleep(0.2)
        assert shards.taken == taken  # nothing is submitted while suspended
        assert list(results) == list(range(1, 40))
        assert list(palindromes_mod._shard_map(abs, [(-3,), (-1,)], 1)) == [3, 1]

    def test_shard_map_runs_past_a_slow_shard(self):
        shards = CountedShards([(0.5,)] + [(0,)] * 39)
        results = palindromes_mod._shard_map(time.sleep, shards, 2)
        assert next(results) is None
        # the second worker went on while the first shard slept
        assert shards.taken > 2 * 2 + 1
        assert len(list(results)) == 39

    def test_reversal_image_beyond_int64_rejected(self):
        with pytest.raises(DomainError):
            list(enumerate_v_palindromes(10**18, 10**18 + 5))
        with pytest.raises(DomainError):
            list(enumerate_v_palindromes(2**63 - 5, 2**63 - 1, base=2))


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
