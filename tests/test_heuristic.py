import math
import tracemalloc

import pytest

from vpal import (
    DomainError,
    envelope_term,
    expected_count,
    pair_probability,
)
from vpal.heuristic import _INDEX_MAX, C_MAX, KahanSum, _log_anchor


def test_pair_probability_values():
    # frozen from high-precision evaluation of 1/log(5*10^n - 3)^2
    assert pair_probability(4, 1.0) == pytest.approx(0.008542167714068, rel=1e-9)
    assert pair_probability(1, 1.0) == pytest.approx(0.067459829866499, rel=1e-9)


def test_pair_probability_linear_in_C():
    for n in (1, 3, 17, 400):
        assert pair_probability(n, 2.0) == pytest.approx(
            2 * pair_probability(n, 1.0), rel=1e-15
        )


def test_pair_probability_domain_errors():
    with pytest.raises(DomainError):
        pair_probability(0, 1.0)
    with pytest.raises(DomainError):
        pair_probability(3, 0.0)
    with pytest.raises(DomainError):
        pair_probability(3, -1.0)


@pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf, math.nextafter(C_MAX, math.inf)])
def test_model_constant_must_be_finite(C):
    for fn in (pair_probability, envelope_term):
        with pytest.raises(DomainError):
            fn(3, C)
    with pytest.raises(DomainError):
        expected_count(1, 5, C)


def test_largest_model_constant_keeps_the_sums_finite():
    rep = expected_count(1, 10**4, C_MAX)
    assert all(math.isfinite(x) for x in (rep.partial_sum, rep.envelope_sum, rep.tail_bound))
    assert math.isfinite(envelope_term(1, C_MAX))


def test_log_branches_agree_at_threshold():
    # exact bignum log vs. asymptotic form around the switch point
    for n in range(60, 70):
        exact = math.log(5 * 10**n - 3)
        asymptotic = n * math.log(10) + math.log(5)
        assert exact == pytest.approx(asymptotic, rel=1e-15)
        assert _log_anchor(n) == pytest.approx(exact, rel=1e-15)


def test_envelope_term_values():
    assert envelope_term(4, 1.0) == 6.25
    assert envelope_term(1, 1.0) == 100.0
    assert envelope_term(10, 0.5) == 0.5
    with pytest.raises(DomainError):
        envelope_term(0, 1.0)


def test_term_chain_of_inequalities():
    ln10_sq = math.log(10) ** 2
    for n in list(range(1, 2000)) + [10**4, 10**6]:
        prob = pair_probability(n, 1.0)
        middle = 400.0 / (n * n * ln10_sq)
        assert prob <= middle <= envelope_term(n, 1.0)


def test_pair_probability_strictly_decreasing():
    prev = pair_probability(1, 1.0)
    for n in range(2, 500):
        cur = pair_probability(n, 1.0)
        assert cur < prev
        prev = cur


def test_expected_count_single_term():
    rep = expected_count(1, 1, 1.0)
    assert [term for _n, term, *_ in rep.rows()] == [pair_probability(1, 1.0)]
    assert rep.partial_sum == pair_probability(1, 1.0)
    assert rep.envelope_sum == 100.0
    assert rep.tail_bound == 100.0


def test_expected_count_five_to_fifty_below_half():
    rep = expected_count(5, 50, 1.0)
    assert rep.partial_sum < 0.5


def test_expected_count_structure():
    rep = expected_count(3, 30, 2.0)
    assert rep.n_start == 3 and rep.N == 30 and rep.C == 2.0
    rows = list(rep.rows())
    assert [n for n, *_ in rows] == list(range(3, 31))
    assert rep.partial_sum <= rep.envelope_sum
    assert rep.tail_bound == pytest.approx(200.0 / 30)
    for n, term, envelope, _partial, _envelope_sum in rows:
        assert envelope == envelope_term(n, 2.0)
        assert term <= envelope


def test_partial_sums_monotone_in_N():
    prev = 0.0
    for N in (1, 2, 5, 10, 50, 100):
        cur = expected_count(1, N, 1.0).partial_sum
        assert cur >= prev
        prev = cur
    assert prev <= expected_count(1, 200, 1.0).envelope_sum


def test_sum_matches_fsum_oracle():
    rep = expected_count(1, 5000, 1.0)
    terms = [term for _n, term, *_ in rep.rows()]
    assert rep.partial_sum == pytest.approx(math.fsum(terms), abs=1e-12)
    envelope_terms = [envelope_term(n, 1.0) for n in range(1, 5001)]
    assert rep.envelope_sum == pytest.approx(math.fsum(envelope_terms), abs=1e-9)


def test_index_bound_is_where_the_square_stops_being_a_double():
    float(_INDEX_MAX * _INDEX_MAX)
    with pytest.raises(OverflowError):
        float((_INDEX_MAX + 1) ** 2)
    top = _INDEX_MAX
    lg = _log_anchor(top)
    assert lg * lg == math.inf and pair_probability(top) == 1.0 / lg / lg > 0.0
    assert envelope_term(top) == 100.0 / float(top * top)
    rep = expected_count(top, top)
    t = pair_probability(top)
    assert list(rep.rows()) == [(top, t, envelope_term(top), t, envelope_term(top))]
    for fn in (pair_probability, envelope_term):
        with pytest.raises(DomainError, match="index must be at most"):
            fn(top + 1)
    with pytest.raises(DomainError, match="start index must be at most"):
        expected_count(top + 1, top + 1)
    with pytest.raises(DomainError, match="end index must be at most"):
        expected_count(1, top + 1)


def test_terms_past_the_square_overflow_are_not_zero():
    # log(anchor)**2 overflows from n ~ 5.8e153 on; the term is then C/lg/lg,
    # a subnormal, and below that the value of C/(lg*lg) is kept bit for bit
    for n, finite in ((5 * 10**153, True), (10**154, False)):
        lg = _log_anchor(n)
        assert (lg * lg < math.inf) == finite
        expect = 2.0 / (lg * lg) if finite else 2.0 / lg / lg
        assert pair_probability(n, 2.0) == expect > 0.0
    assert pair_probability(10**154) == pytest.approx(1.886117e-309, rel=1e-6)
    rep = expected_count(10**154, 10**154 + 3)
    assert all(t > 0.0 for _n, t, *_ in rep.rows())


def test_expected_count_domain_errors():
    with pytest.raises(DomainError):
        expected_count(0, 5, 1.0)
    with pytest.raises(DomainError):
        expected_count(5, 4, 1.0)
    with pytest.raises(DomainError):
        expected_count(1, 5, 0.0)


@pytest.mark.parametrize("n_start,N,C", [(1, 1, 1.0), (1, 300, 1.0), (3, 30, 2.0),
                                         (60, 70, 0.5), (500, 2000, 1.0)])
def test_running_sums_are_compensated_prefix_sums(n_start, N, C):
    rep = expected_count(n_start, N, C)
    rows = list(rep.rows())
    assert [n for n, *_ in rows] == list(range(n_start, N + 1))
    partial, envelope = KahanSum(), KahanSum()
    for n, term, envelope_t, partial_sum, envelope_sum in rows:
        assert term == pair_probability(n, C)
        assert envelope_t == envelope_term(n, C)
        partial.add(term)
        envelope.add(envelope_t)
        assert partial_sum == partial.total
        assert envelope_sum == envelope.total
    # a second walk repeats the first, and ends on the report's totals
    assert list(rep.rows()) == rows
    assert rows[-1][3] == rep.partial_sum
    assert rows[-1][4] == rep.envelope_sum


def test_expected_count_holds_no_list_of_its_terms():
    # 10^5 terms as lists of floats would take several MB
    tracemalloc.start()
    try:
        expected_count(1, 10**5, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_kahan_sum_tracks_fsum():
    acc = KahanSum()
    xs = [1.0 / (k * k) for k in range(1, 20001)]
    for x in xs:
        acc.add(x)
    assert acc.total == pytest.approx(math.fsum(xs), abs=1e-14)
