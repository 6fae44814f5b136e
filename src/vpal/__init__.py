"""Arithmetic of v-palindromes.

An n >= 1 is a v-palindrome in base b when b does not divide n, n differs
from its digit reversal r, and the additive function v (v(p) = p for primes,
v(p**a) = p + a for a >= 2) agrees on n and r.  The package provides the
underlying digit and factorization arithmetic, the predicate with a sieved
range enumerator, the twin-prime anchor search that characterizes prime
v-palindromes, and the expected-count heuristic, plus a CLI front end.
"""

from .anchors import (
    CANDIDATE_FLOOR,
    AnchorResult,
    VerificationReport,
    anchor,
    check_anchor,
    converse_identity,
    search_anchors,
    verify_characterization,
)
from .arith import (
    DEFAULT_ROUNDS,
    DETERMINISTIC_BOUND,
    PrimalityVerdict,
    factorize,
    iota,
    is_prime,
    spf_sieve,
    v,
    v_segment,
)
from .digits import length, reverse
from .errors import (
    BudgetExceeded,
    CheckpointCorrupt,
    DomainError,
    HeterogeneousRecords,
)
from .heuristic import (
    DEFAULT_C,
    HeuristicReport,
    envelope_term,
    expected_count,
    pair_probability,
)
from .palindromes import (
    VPalindromeHit,
    as_hit,
    enumerate_v_palindromes,
    family_nines,
    family_repeat18,
    is_v_palindrome,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorResult",
    "BudgetExceeded",
    "CANDIDATE_FLOOR",
    "CheckpointCorrupt",
    "DEFAULT_C",
    "DEFAULT_ROUNDS",
    "DETERMINISTIC_BOUND",
    "DomainError",
    "HeterogeneousRecords",
    "HeuristicReport",
    "PrimalityVerdict",
    "VPalindromeHit",
    "VerificationReport",
    "anchor",
    "as_hit",
    "check_anchor",
    "converse_identity",
    "enumerate_v_palindromes",
    "envelope_term",
    "expected_count",
    "factorize",
    "family_nines",
    "family_repeat18",
    "iota",
    "is_prime",
    "is_v_palindrome",
    "length",
    "pair_probability",
    "reverse",
    "search_anchors",
    "spf_sieve",
    "v",
    "v_segment",
    "verify_characterization",
]
