import random

import pytest

from _oracles import oracle_reverse
from vpal.digits import decimal_str, from_decimal
from vpal import DomainError, length, reverse


def test_length_examples():
    assert length(198, 10) == 3
    assert length(0, 10) == 0
    for k in range(8):
        assert length(10**k, 10) == k + 1
    assert length(7, 2) == 3
    for n, base in [(5, 0), (-1, 10), (-1, 3), (5, 1)]:
        with pytest.raises(DomainError):
            length(n, base)
    # 10.0 passes the comparison with 10 that picks the decimal path
    for n, base in [(1000, 2.5), (1000, 10.0), (0, 10.0)]:
        with pytest.raises(DomainError, match=f"base must be an int, got {base}"):
            length(n, base)


def test_length_decade_bracketing():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 10**12)
        ell = length(n, 10)
        assert 10 ** (ell - 1) <= n < 10**ell


def test_reverse_examples():
    assert reverse(198, 10) == 891
    assert reverse(8712, 10) == 2178
    assert 8712 == 4 * reverse(8712, 10)
    assert reverse(100, 10) == 1


def test_reverse_rejects_zero():
    for n, base in [(0, 10), (5, 1), (-3, 7), (198, 2.5), (198, 10.0), (198, True)]:
        with pytest.raises(DomainError):
            reverse(n, base)


def test_reverse_matches_oracle_all_bases():
    rng = random.Random(8)
    for _ in range(500):
        n = rng.randint(1, 10**9)
        base = rng.randint(2, 36)
        assert reverse(n, base) == oracle_reverse(n, base)


def _loop_length(n, base):
    """The digit count by its own divmod loop, as length once computed it."""
    count = 0
    while n:
        n //= base
        count += 1
    return count


def _loop_reverse(n, base):
    """The reversal by its own divmod loop, as reverse once computed it."""
    acc = 0
    while n:
        n, d = divmod(n, base)
        acc = acc * base + d
    return acc


@pytest.mark.parametrize("base", [2, 3, 7, 16, 100])
def test_reverse_and_length_match_the_digit_loops(base):
    # the range holds multiples of every power of the base below 3*10**4,
    # so n with trailing zeros
    for n in range(3 * 10**4 + 1):
        assert length(n, base) == _loop_length(n, base)
        if n:
            assert reverse(n, base) == _loop_reverse(n, base)


def test_involution_when_base_coprime():
    rng = random.Random(10)
    for _ in range(500):
        n = rng.randint(1, 10**12)
        base = rng.randint(2, 36)
        if n % base == 0:
            continue
        assert reverse(reverse(n, base), base) == n


def test_length_monotone():
    rng = random.Random(11)
    for _ in range(500):
        m = rng.randint(0, 10**10)
        n = rng.randint(m, 10**10)
        assert length(m, 10) <= length(n, 10)


def test_product_length_identity():
    rng = random.Random(12)
    for _ in range(500):
        m = rng.randint(1, 10**9)
        n = rng.randint(1, 10**9)
        bracket = 1 if m * n < 10 ** (length(m) + length(n) - 1) else 0
        assert length(m * n) == length(m) + length(n) - bracket


def test_multi_factor_length_bound():
    rng = random.Random(13)
    for _ in range(300):
        k = rng.randint(2, 6)
        ns = [rng.randint(1, 10**6) for _ in range(k)]
        prod = 1
        for x in ns:
            prod *= x
        assert length(prod) >= sum(length(x) for x in ns) - (k - 1)


@pytest.mark.parametrize("n", [2178, 21978, 219978, 2199978])
def test_four_n_reversal_fixtures(n):
    assert 4 * n == reverse(n, 10)


def test_hardy_four_digit_multiples():
    # the only 4-digit integral multiples of their own reversal
    found = {}
    for n in range(1000, 10000):
        r = reverse(n, 10) if n % 10 else None
        if r and r != n and n % r == 0 and n // r > 1:
            found[n] = n // r
    assert found == {8712: 4, 9801: 9}


# Past the interpreter's 4300-digit int<->str conversion limit.
HUGE_DIGITS = (4299, 4300, 4301, 5000, 5001, 9999)


@pytest.mark.parametrize("k", HUGE_DIGITS)
def test_decimal_conversion_past_the_str_limit(k):
    n = 10**k - 1 - 7 * 10 ** (k // 2)
    text = decimal_str(n)
    assert len(text) == k
    assert text == "9" * (k - k // 2 - 1) + "2" + "9" * (k // 2)
    assert from_decimal(text) == n
    assert decimal_str(-n) == "-" + text
    assert from_decimal("-" + text) == -n


def test_from_decimal_rejects_non_digits():
    with pytest.raises(ValueError):
        from_decimal("12x" * 2000)


def test_reverse_and_length_at_5000_digits():
    n = 2 * 10**4999 + 3  # 2 0...0 3
    assert length(n) == 5000
    assert reverse(n) == 3 * 10**4999 + 2
    nines = 2 * 10**5000 - 2  # 1 9...9 8
    assert length(nines) == 5001
    assert reverse(nines) == 9 * 10**5000 - 9  # 8 9...9 1
    assert reverse(10**6000) == 1  # trailing zeros vanish
