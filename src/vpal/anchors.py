"""Twin-prime anchor machinery for prime v-palindromes.

A prime v-palindrome must be the larger member of an anchor pair
(5*10**m - 3, 5*10**m - 1) with m at or above a small floor, so the search
for prime v-palindromes reduces to primality checks on anchor pairs.  This
module provides those checks, the algebraic reversal identity behind them,
a resumable checkpointed search, and a brute-force cross-verifier.  The
brute force scans [2, bound] through the range driver of vpal.palindromes,
which cuts the shards one at a time and sieves only the parts of each that
can hold a prime hit; how the range is cut is not known here.

Before any Miller-Rabin, the search runs an index sieve that strikes the
members with a small prime factor, from the index on where a sieve step
costs less than the tests it saves: for a prime ell, 5*10**m mod ell repeats
in m with period ord_ell(10), so one residue per sieving prime, stepped by
r -> 10*r mod ell, shows which members ell divides.  A struck member gets
the verdict "composite" with certainty 0, the verdict is_prime gives it, so
records and checkpoints do not depend on the sieve; only the survivors
reach is_prime.
"""

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

# v, spf_sieve and v_with_table are no longer called here, but
# perfbench/tracing.py patches them under these names.
from .arith import (  # noqa: F401
    DEFAULT_ROUNDS,
    PrimalityVerdict,
    _check_rounds,
    _primes_upto,
    is_prime,
    spf_sieve,
    v,
    v_with_table,
)
from .digits import _check_base, length, reverse
from .errors import CheckpointCorrupt, DomainError
from .palindromes import _check_int64_reach, _prime_shard_hits, _scan, _shard_map

# Smallest m worth testing: exhaustive search shows no prime v-palindrome
# has fewer than CANDIDATE_FLOOR + 1 digits.  verify_characterization can
# re-derive this from scratch for any bound.
CANDIDATE_FLOOR = 4


@dataclass(frozen=True)
class AnchorResult:
    """Primality outcome for the anchor pair at index m."""

    m: int
    p: int
    q: int
    p_verdict: PrimalityVerdict
    q_verdict: PrimalityVerdict
    meets_floor: bool
    is_candidate: bool


@dataclass(frozen=True)
class VerificationReport:
    """Brute-force prime v-palindromes vs. the anchor-derived set."""

    bound: int
    brute_force_hits: list[int]
    characterization_hits: list[int]
    consistent: bool


def anchor(m: int) -> tuple[int, int]:
    """The pair (p, q) = (5*10**m - 1, 5*10**m - 3); digit strings
    4 9...9 and 4 9...9 7."""
    if m < 1:
        raise DomainError(f"anchor index must be >= 1, got {m}")
    t = 5 * 10**m
    return t - 1, t - 3


def check_anchor(m: int, rounds: int = DEFAULT_ROUNDS) -> AnchorResult:
    """Test both members of the anchor pair at m.

    is_candidate treats a probable_prime verdict as non-composite but the
    verdicts themselves always say which kind of evidence backs them.  A
    member the index sieve strikes is composite without a Miller-Rabin test,
    as in the search.
    """
    ((m, p_struck, q_struck),) = _index_sieve(m, m)
    return _check_pair(m, rounds, p_struck, q_struck)


def _check_pair(m: int, rounds: int, p_struck: bool,
                q_struck: bool) -> AnchorResult:
    """The pair check at m, with a struck member judged composite untested."""
    p, q = anchor(m)
    _check_rounds(rounds)  # a struck member never reaches is_prime's check
    return _anchor_result(m, _STRUCK if p_struck else is_prime(p, rounds),
                          _STRUCK if q_struck else is_prime(q, rounds))


def _anchor_result(m: int, p_verdict: PrimalityVerdict,
                   q_verdict: PrimalityVerdict) -> AnchorResult:
    """The AnchorResult at m for the given verdicts: a candidate when m meets
    CANDIDATE_FLOOR and neither member is composite."""
    p, q = anchor(m)
    meets = m >= CANDIDATE_FLOOR
    cand = meets and p_verdict.non_composite and q_verdict.non_composite
    return AnchorResult(m, p, q, p_verdict, q_verdict, meets, cand)


def converse_identity(m: int) -> bool:
    """reverse(5*10**m - 1) == 2*(5*10**m - 3); holds for every m >= 1."""
    p, q = anchor(m)
    return reverse(p, 10) == 2 * q


# --- index sieve --------------------------------------------------------

# Members with a prime factor 7 <= ell <= _SIEVE_LIMIT are struck.  No anchor
# member is divisible by 2, 3 or 5 (p = 1 and q = 2 mod 3, p = 4 and q = 2
# mod 5).  On m in [200, 300] a limit of 10**5 leaves the same 49 members
# to test; 10**6 leaves 42, but its sieve takes 0.04 s against 0.004 s
# (tables built), more than the seven tests it saves.
_SIEVE_LIMIT = 1 << 16
# Below this index a sieve step (31 us over the 6,539 primes, 2-vCPU
# machine) costs more than the Miller-Rabin it saves, since members of up to
# ~130 bits fail their first round in 1-30 us; over m in [5, 150] the
# cheapest start measured was m = 42.  A member has m + 1 digits, so every
# member from here on exceeds every sieving prime, and a prime that divides
# it is a proper factor (47, 499, 4999 and 49999 are sieving primes).
_SIEVE_FROM = 40
_STRUCK = PrimalityVerdict("composite")


def _pow_mod(base: int, e: int, mods: np.ndarray) -> np.ndarray:
    """base**e mod each of mods (all below 2**16), by square-and-multiply;
    every product stays below 2**32.  Dividing 10**e by each prime as a
    Python int would cost only 1-14 ms for e in [200, 3000], but its 6,539
    int objects raise the peak RSS of an anchors run by 0.45 MB."""
    acc = np.ones_like(mods)
    b = base % mods
    while e:
        if e & 1:
            acc = acc * b % mods
        b = b * b % mods
        e >>= 1
    return acc


def _index_sieve(m_lo: int, m_hi: int):
    """(m, p_struck, q_struck) for m in [m_lo, m_hi], ascending: from
    _SIEVE_FROM on, a member is struck when a sieving prime divides it,
    which happens where the residue r = 5*10**m mod ell is 1 (for
    p = 5*10**m - 1) or 3 (for q = 5*10**m - 3)."""
    for m in range(m_lo, min(m_hi, _SIEVE_FROM - 1) + 1):
        yield m, False, False
    start = max(m_lo, _SIEVE_FROM)
    if start > m_hi:
        return
    ells = _primes_upto(_SIEVE_LIMIT)
    ells = ells[ells >= 7]
    r = 5 * _pow_mod(10, start, ells) % ells
    for m in range(start, m_hi + 1):
        yield m, bool((r == 1).any()), bool((r == 3).any())
        r = r * 10 % ells


# --- checkpointed search ------------------------------------------------

_CHECKPOINT_FORMAT = "vpal-anchor-search"
_CHECKPOINT_VERSION = 1


_STATUSES = ("prime", "composite", "probable_prime")


def _verdict_from_record(rec: dict, side: str, rounds: int) -> PrimalityVerdict:
    status, certainty = rec[f"{side}_status"], rec[f"{side}_certainty"]
    if status not in _STATUSES:
        raise ValueError(f"unknown {side}_status {status!r}")
    expected = rounds if status == "probable_prime" else 0
    if type(certainty) is not int or certainty != expected:
        raise ValueError(
            f"{side}_certainty {certainty!r} does not fit status {status!r}"
        )
    return PrimalityVerdict(status, certainty)


def _result_from_record(rec: dict, rounds: int) -> AnchorResult:
    m = rec["m"]
    if type(m) is not int or m < 1:
        raise ValueError(f"anchor index must be an integer >= 1, got {m!r}")
    if rec["rounds"] != rounds:
        raise ValueError(f"record rounds {rec['rounds']!r} differ from the header's")
    return _anchor_result(m, _verdict_from_record(rec, "p", rounds),
                          _verdict_from_record(rec, "q", rounds))


def _read_checkpoint(path: str, rounds: int) -> dict[int, AnchorResult]:
    done: dict[int, AnchorResult] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointCorrupt(f"cannot read checkpoint {path}: {exc}") from exc
    if not lines:
        return done
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckpointCorrupt(f"{path}: unreadable header line") from exc
    if (
        not isinstance(header, dict)
        or header.get("record") != "header"
        or header.get("format") != _CHECKPOINT_FORMAT
    ):
        raise CheckpointCorrupt(f"{path}: not an anchor-search checkpoint")
    if header.get("version") != _CHECKPOINT_VERSION:
        raise CheckpointCorrupt(
            f"{path}: unsupported checkpoint version {header.get('version')!r}"
        )
    if header.get("rounds") != rounds:
        raise CheckpointCorrupt(
            f"{path}: checkpoint was written with rounds={header.get('rounds')!r}, "
            f"requested rounds={rounds}; refusing to mix verdicts"
        )
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if rec.get("record") != "result":
                raise ValueError("unknown record type")
            result = _result_from_record(rec, rounds)
            if done.setdefault(result.m, result) != result:
                raise ValueError(f"conflicting duplicate record for m={result.m}")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CheckpointCorrupt(
                f"{path}: line {lineno} is unreadable ({exc}); "
                "refusing to resume from a damaged checkpoint"
            ) from exc
    return done


def _write_durably(fh, rec: dict) -> None:
    """Append rec to the checkpoint as one json line and fsync it, so that
    an interrupted search loses at most the line being written."""
    try:
        fh.write(json.dumps(rec) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    except OSError as exc:
        raise CheckpointCorrupt(f"cannot write checkpoint {fh.name}: {exc}") from exc


def _append_record(fh, result: AnchorResult, rounds: int) -> None:
    _write_durably(fh, {
        "record": "result",
        "m": result.m,
        "p_status": result.p_verdict.status,
        "p_certainty": result.p_verdict.certainty,
        "q_status": result.q_verdict.status,
        "q_certainty": result.q_verdict.certainty,
        "rounds": rounds,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    })


def search_anchors(m_lo: int, m_hi: int, rounds: int = DEFAULT_ROUNDS,
                   checkpoint_path: str | None = None,
                   workers: int = 1) -> list[AnchorResult]:
    """AnchorResult for every m in [m_lo, m_hi], ascending.

    With a checkpoint path, previously recorded indices are loaded instead
    of recomputed and each fresh result is appended and fsynced before the
    next one starts, so an interrupted search resumes at the last completed
    record.  A file that fails validation, or cannot be written, raises
    CheckpointCorrupt; the search never silently restarts over a damaged
    file.
    """
    if m_lo < 1:
        raise DomainError(f"anchor index must be >= 1, got {m_lo}")
    if m_hi < m_lo:
        raise DomainError(f"empty index range [{m_lo}, {m_hi}]")
    _check_rounds(rounds)
    results: dict[int, AnchorResult] = {}
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        results = _read_checkpoint(checkpoint_path, rounds)
    # each fresh result's m has already left todo, so adding it cannot skip one
    todo = ((m, rounds, p_struck, q_struck)
            for m, p_struck, q_struck in _index_sieve(m_lo, m_hi) if m not in results)

    fh = None
    try:
        if checkpoint_path is not None:
            try:
                fh = open(checkpoint_path, "a", encoding="utf-8")
            except OSError as exc:
                raise CheckpointCorrupt(
                    f"cannot write checkpoint {checkpoint_path}: {exc}") from exc
            if fh.tell() == 0:  # a new or empty file
                _write_durably(fh, {
                    "record": "header",
                    "format": _CHECKPOINT_FORMAT,
                    "version": _CHECKPOINT_VERSION,
                    "rounds": rounds,
                })
        # results arrive in ascending m, so records are appended in order
        for result in _shard_map(_check_pair, todo, workers):
            results[result.m] = result
            if fh is not None:
                _append_record(fh, result, rounds)
    finally:
        if fh is not None:
            fh.close()
    return [results[m] for m in range(m_lo, m_hi + 1)]


# --- brute-force cross-verification ------------------------------------

def _brute_force_hits(bound: int, base: int, workers: int) -> list[int]:
    """Every prime v-palindrome p <= bound, ascending."""
    return list(_scan(_prime_shard_hits, 2, bound, base, workers))


def verify_characterization(bound: int, base: int = 10, workers: int = 1,
                            rounds: int = DEFAULT_ROUNDS) -> VerificationReport:
    """Compare brute force against the anchor characterization up to bound.

    The brute-force side tests every prime p <= bound with the raw
    predicate, through the same reversal-image sieves as enumeration, so
    base**length(bound) must fit in int64 (bound < 10**18 in base 10; a
    larger bound raises DomainError).  The characterization side runs the
    anchor search over CANDIDATE_FLOOR <= m with larger member p <= bound
    and collects its candidates, plus any below-floor p the brute force
    finds (none are known; the floor is re-derived, not
    assumed).  The anchor digit form is specific to base 10, so for other
    bases the characterization side is empty and the report simply exposes
    whatever the brute force found.
    """
    if bound < 2:
        raise DomainError(f"bound must be >= 2, got {bound}")
    _check_base(base)
    _check_int64_reach(bound, base)
    _check_rounds(rounds)
    brute = _brute_force_hits(bound, base, workers)
    brute_set = set(brute)
    # the last index whose larger member p = 5*10**m - 1 is <= bound
    m_max = length((bound + 1) // 5) - 1 if base == 10 else 0
    below = range(1, min(m_max, CANDIDATE_FLOOR - 1) + 1)
    chars = [p for p, _q in map(anchor, below) if p in brute_set]
    if m_max >= CANDIDATE_FLOOR:
        chars += [r.p for r in search_anchors(CANDIDATE_FLOOR, m_max, rounds)
                  if r.is_candidate]
    return VerificationReport(bound, brute, chars, brute_set == set(chars))
