"""Hypothesis suites for the contract invariants."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vpal import (
    BudgetExceeded,
    factorize,
    is_v_palindrome,
    length,
    reverse,
    v,
)

bases = st.integers(min_value=2, max_value=36)


@given(st.integers(min_value=1, max_value=10**18), bases)
def test_reversal_involution(n, base):
    assume(n % base != 0)
    assert reverse(reverse(n, base), base) == n


@given(st.integers(min_value=0, max_value=10**18), st.integers(min_value=0, max_value=10**18))
def test_length_monotone(m, n):
    m, n = min(m, n), max(m, n)
    assert length(m) <= length(n)


@given(st.integers(min_value=1, max_value=10**15), st.integers(min_value=1, max_value=10**15))
def test_product_length_iverson_identity(m, n):
    bracket = 1 if m * n < 10 ** (length(m) + length(n) - 1) else 0
    assert length(m * n) == length(m) + length(n) - bracket


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=6))
def test_multi_factor_length_bound(ns):
    prod = math.prod(ns)
    assert length(prod) >= sum(length(x) for x in ns) - (len(ns) - 1)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=10**4))
def test_v_additive_on_coprime_pairs(m, n):
    assume(math.gcd(m, n) == 1)
    assert v(m * n) == v(m) + v(n)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10**6))
def test_v_bounded_by_n(n):
    vn = v(n)
    assert vn <= n
    assert length(vn) <= length(n)


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=10**5), st.sampled_from([2, 3, 8, 10, 16]))
def test_predicate_symmetric(n, base):
    assume(n % base != 0)
    r = reverse(n, base)
    assume(r != n)
    assert is_v_palindrome(n, base) == is_v_palindrome(r, base)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10**19), st.integers(min_value=0, max_value=3000))
def test_factorize_budget_monotone_and_lossless(n, budget):
    try:
        found = factorize(n, budget)
    except BudgetExceeded as exc:
        assert exc.cofactor * math.prod(p**e for p, e in exc.partial) == n
    else:
        assert factorize(n, budget + 1) == found
