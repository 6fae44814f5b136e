"""Twin-prime anchor machinery for prime v-palindromes.

A prime v-palindrome must be the larger member of an anchor pair
(5*10**m - 3, 5*10**m - 1) with m at or above a small floor, so the search
for prime v-palindromes reduces to primality checks on anchor pairs.  This
module provides those checks, the algebraic reversal identity behind them,
a resumable checkpointed search, and a brute-force cross-verifier.
"""

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone

# v, spf_sieve and v_with_table are no longer called here, but
# perfbench/tracing.py patches them under these names.
from .arith import (  # noqa: F401
    DEFAULT_ROUNDS,
    PrimalityVerdict,
    is_prime,
    spf_sieve,
    v,
    v_with_table,
)
from .digits import reverse
from .errors import CheckpointCorrupt, DomainError
from .palindromes import _check_int64_reach, _prime_shard_hits, _shard_map, _shards

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


def check_anchor(m: int, rounds: int = DEFAULT_ROUNDS,
                 floor: int = CANDIDATE_FLOOR) -> AnchorResult:
    """Test both members of the anchor pair at m.

    is_candidate treats a probable_prime verdict as non-composite but the
    verdicts themselves always say which kind of evidence backs them.
    """
    p, q = anchor(m)
    pv = is_prime(p, rounds)
    qv = is_prime(q, rounds)
    meets = m >= floor
    cand = meets and pv.non_composite and qv.non_composite
    return AnchorResult(m, p, q, pv, qv, meets, cand)


def converse_identity(m: int) -> bool:
    """reverse(5*10**m - 1) == 2*(5*10**m - 3); holds for every m >= 1."""
    p, q = anchor(m)
    return reverse(p, 10) == 2 * q


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
    p, q = anchor(m)
    pv = _verdict_from_record(rec, "p", rounds)
    qv = _verdict_from_record(rec, "q", rounds)
    meets = m >= CANDIDATE_FLOOR
    cand = meets and pv.non_composite and qv.non_composite
    return AnchorResult(m, p, q, pv, qv, meets, cand)


def _read_checkpoint(path: str, rounds: int) -> dict[int, AnchorResult]:
    done: dict[int, AnchorResult] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
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


def _append_record(fh, result: AnchorResult, rounds: int) -> None:
    rec = {
        "record": "result",
        "m": result.m,
        "p_status": result.p_verdict.status,
        "p_certainty": result.p_verdict.certainty,
        "q_status": result.q_verdict.status,
        "q_certainty": result.q_verdict.certainty,
        "rounds": rounds,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    fh.write(json.dumps(rec) + "\n")
    fh.flush()
    os.fsync(fh.fileno())


def search_anchors(m_lo: int, m_hi: int, rounds: int = DEFAULT_ROUNDS,
                   checkpoint_path: str | None = None,
                   workers: int = 1) -> list[AnchorResult]:
    """AnchorResult for every m in [m_lo, m_hi], ascending.

    With a checkpoint path, previously recorded indices are loaded instead
    of recomputed and each fresh result is appended and fsynced before the
    next one starts, so an interrupted search resumes at the last completed
    record.  A file that fails validation raises CheckpointCorrupt; the
    search never silently restarts over a damaged file.
    """
    if m_lo < 1:
        raise DomainError(f"anchor index must be >= 1, got {m_lo}")
    if m_hi < m_lo:
        raise DomainError(f"empty index range [{m_lo}, {m_hi}]")
    done: dict[int, AnchorResult] = {}
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        done = _read_checkpoint(checkpoint_path, rounds)
    todo = [m for m in range(m_lo, m_hi + 1) if m not in done]

    fresh: dict[int, AnchorResult] = {}
    fh = None
    try:
        if checkpoint_path is not None:
            new_file = not os.path.exists(checkpoint_path) or \
                os.path.getsize(checkpoint_path) == 0
            fh = open(checkpoint_path, "a", encoding="utf-8")
            if new_file:
                header = {
                    "record": "header",
                    "format": _CHECKPOINT_FORMAT,
                    "version": _CHECKPOINT_VERSION,
                    "rounds": rounds,
                }
                fh.write(json.dumps(header) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        # results arrive in ascending m, so records are appended in order
        for result in _shard_map(check_anchor, [(m, rounds) for m in todo], workers):
            fresh[result.m] = result
            if fh is not None:
                _append_record(fh, result, rounds)
    finally:
        if fh is not None:
            fh.close()
    return [done.get(m) or fresh[m] for m in range(m_lo, m_hi + 1)]


# --- brute-force cross-verification ------------------------------------

def _brute_force_hits(bound: int, base: int, workers: int) -> list[int]:
    """Every prime v-palindrome p <= bound, ascending."""
    shards = [(lo, hi, base) for lo, hi in _shards(2, bound, base)]
    return [p for hits in _shard_map(_prime_shard_hits, shards, workers) for p in hits]


def verify_characterization(bound: int, base: int = 10, workers: int = 1,
                            rounds: int = DEFAULT_ROUNDS) -> VerificationReport:
    """Compare brute force against the anchor characterization up to bound.

    The brute-force side tests every prime p <= bound with the raw
    predicate, through the same reversal-image sieves as enumeration, so
    base**length(bound) must fit in int64 (bound < 10**18 in base 10; a
    larger bound raises DomainError).  The characterization side collects
    candidate anchors with m >= CANDIDATE_FLOOR plus any below-floor anchor
    the brute force finds (none are known; the floor is re-derived, not
    assumed).  The anchor digit form is specific to base 10, so for other
    bases the characterization side is empty and the report simply exposes
    whatever the brute force found.
    """
    if bound < 2:
        raise DomainError(f"bound must be >= 2, got {bound}")
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    _check_int64_reach(bound, base)
    brute = _brute_force_hits(bound, base, workers)
    brute_set = set(brute)
    chars: list[int] = []
    if base == 10:
        m = 1
        while True:
            p, _q = anchor(m)
            if p > bound:
                break
            if m >= CANDIDATE_FLOOR:
                if check_anchor(m, rounds).is_candidate:
                    chars.append(p)
            elif p in brute_set:
                chars.append(p)
            m += 1
    return VerificationReport(bound, brute, chars, brute_set == set(chars))
