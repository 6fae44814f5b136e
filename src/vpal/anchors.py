"""Twin-prime anchor machinery for prime v-palindromes.

A prime v-palindrome must be the larger member of an anchor pair
(5*10**m - 3, 5*10**m - 1) with m at or above a small floor, so the search
for prime v-palindromes reduces to primality checks on anchor pairs.  This
module provides those checks, the algebraic reversal identity behind them,
a resumable checkpointed search, and a cross-check against the brute force
of vpal.palindromes.

Before any Miller-Rabin, the search runs an index sieve that strikes the
members with a small prime factor, from the index on where a sieve step
costs less than the tests it saves: for a prime ell, 5*10**m mod ell repeats
in m with period ord_ell(10), so one residue per sieving prime, stepped by
r -> 10*r mod ell, shows which members ell divides.  A struck member gets
the verdict "composite" with certainty 0, the verdict is_prime gives it, so
records and checkpoints do not depend on the sieve; only the survivors
reach is_prime.

A surviving larger member p = 5*10**m - 1 gets one Miller-Rabin round and
then the Lucas N+1 proof, since p + 1 = 2**m * 5**(m + 1) is fully
factored.  A proven p keeps the label "probable_prime" with the round
count as certainty: a prime passes every round, so that is the verdict
the rounds would give, and records and checkpoints stay as they were.
Only an unproven p runs the rounds.  The smaller member q keeps its
rounds, because neither q + 1 nor q - 1 is fully factored.

A checkpoint holds the lines _header and _result_record write, and its
reader accepts exactly those, matching each line against the re-encoding
of what it decodes; nothing is computed from a line outside the range.
"""

import json
import os
from contextlib import ExitStack, closing
from dataclasses import dataclass

# v, spf_sieve and v_with_table are no longer called here, but
# perfbench/tracing.py patches them under these names.
from .arith import (  # noqa: F401
    DEFAULT_ROUNDS,
    PrimalityVerdict,
    _check_count,
    _lucas_proves_prime,
    _pow_mod,
    _primes_upto,
    is_prime,
    spf_sieve,
    v,
    v_with_table,
)
from .digits import length, reverse
from .errors import CheckpointCorrupt, DomainError
from .palindromes import _brute_force_hits, _shard_map

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
    verdicts themselves always say which kind of evidence backs them.  The
    one-index search: a member the index sieve strikes is composite without
    a Miller-Rabin test.
    """
    return search_anchors(m, m, rounds)[0]


def _check_pair(m: int, rounds: int, p_struck: bool,
                q_struck: bool) -> AnchorResult:
    """The pair check at m, with a struck member judged composite untested."""
    p, q = anchor(m)
    return _anchor_result(m, p, q, _STRUCK if p_struck else _p_verdict(p, rounds),
                          _STRUCK if q_struck else is_prime(q, rounds))


def _p_verdict(p: int, rounds: int) -> PrimalityVerdict:
    """is_prime(p, rounds) for a larger member p = 5*10**m - 1, from one
    Miller-Rabin round and the N+1 proof on p + 1 = 2**m * 5**(m + 1).

    The round is the first of is_prime(p, rounds), since the bases come
    from random.Random(p).  A proven p passes every further round, so its
    verdict is the one the rounds give; an unproven one gets the rounds.
    """
    first = is_prime(p, 1)
    if first.status != "probable_prime" or rounds == 1:
        return first
    if _lucas_proves_prime(p, (2, 5)):
        return PrimalityVerdict("probable_prime", rounds)
    return is_prime(p, rounds)


def _anchor_result(m: int, p: int, q: int, p_verdict: PrimalityVerdict,
                   q_verdict: PrimalityVerdict) -> AnchorResult:
    """The AnchorResult at m, whose pair is (p, q), for the given verdicts: a
    candidate when m meets CANDIDATE_FLOOR and neither member is composite."""
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
    # a vector power: 10**start % ell through Python ints would hold 6,539
    # int objects, 0.45 MB more peak RSS on an anchors run
    r = 5 * _pow_mod(10, start, ells) % ells
    for m in range(start, m_hi + 1):
        yield m, bool((r == 1).any()), bool((r == 3).any())
        r = r * 10 % ells


# --- checkpointed search ------------------------------------------------

def _header(rounds: int) -> dict:
    """The first line of a checkpoint written with these rounds."""
    return {"record": "header", "format": "vpal-anchor-search", "version": 1,
            "rounds": rounds}


def _result_record(m: int, p_verdict: PrimalityVerdict,
                   q_verdict: PrimalityVerdict, rounds: int) -> dict:
    """The checkpoint line of the pair verdicts at m."""
    return {"record": "result", "m": m,
            "p_status": p_verdict.status, "p_certainty": p_verdict.certainty,
            "q_status": q_verdict.status, "q_certainty": q_verdict.certainty,
            "rounds": rounds}


def _misfit(rec: dict, expected: dict) -> str | None:
    """The first key of expected whose value in rec differs in type or value
    (for the str and int values written, in JSON text: 1.0, "1" and true
    are not 1), or None; other keys of rec are ignored."""
    return next((key for key, want in expected.items()
                 if type(rec.get(key)) is not type(want) or rec.get(key) != want),
                None)


def _decode(rec: dict, rounds: int) -> tuple[int, tuple]:
    """(m, (p_verdict, q_verdict)) from a result line that holds, with the
    same JSON text, every value _result_record writes for them."""
    m = rec.get("m")
    if type(m) is not int or m < 1:
        raise ValueError(f"anchor index must be an integer >= 1, got {m!r}")
    verdicts = (PrimalityVerdict("prime"), PrimalityVerdict("composite"),
                PrimalityVerdict("probable_prime", rounds))
    pair = []
    for key in ("p_status", "q_status"):
        found = [v for v in verdicts if v.status == rec.get(key)]
        if not found:
            raise ValueError(f"{key} {rec.get(key)!r} is not a verdict")
        pair += found
    expected = _result_record(m, *pair, rounds)
    key = _misfit(rec, expected)
    if key is not None:
        raise ValueError(
            f"{key} {rec.get(key)!r} does not fit (expected {expected[key]!r})")
    return m, tuple(pair)


def _read_checkpoint(path: str, rounds: int) -> dict[int, tuple]:
    """The (p_verdict, q_verdict) of each index recorded at path, by m."""
    done: dict[int, tuple] = {}
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
    key = _misfit(header, _header(rounds)) if isinstance(header, dict) else "record"
    if key == "version":
        raise CheckpointCorrupt(
            f"{path}: unsupported checkpoint version {header.get('version')!r}")
    if key == "rounds":
        raise CheckpointCorrupt(
            f"{path}: checkpoint was written with rounds={header.get('rounds')!r}, "
            f"requested rounds={rounds}; refusing to mix verdicts")
    if key is not None:
        raise CheckpointCorrupt(f"{path}: not an anchor-search checkpoint")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            m, pair = _decode(json.loads(line), rounds)
            if done.setdefault(m, pair) != pair:
                raise ValueError(f"conflicting duplicate record for m={m}")
        except (ValueError, AttributeError) as exc:
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


def iter_anchors(m_lo: int, m_hi: int, rounds: int = DEFAULT_ROUNDS,
                 checkpoint_path: str | None = None, workers: int = 1):
    """Yield the AnchorResult of every m in [m_lo, m_hi], ascending, each
    as soon as it is known.

    With a checkpoint path, previously recorded indices are loaded instead
    of recomputed and yielded in their place by m; each fresh result is
    appended and fsynced before it is yielded, so an interrupted search
    resumes at the last completed record and every result a caller has
    seen is already in the file.  A file that fails validation, or cannot
    be written, raises CheckpointCorrupt; the search never silently
    restarts over a damaged file.  The arguments and the checkpoint are
    checked before anything is yielded or the file is opened, that is, at
    the first next().  Closing the generator early cancels the pending
    shards and closes the file, which then holds exactly the results
    yielded.
    """
    if m_lo < 1:
        raise DomainError(f"anchor index must be >= 1, got {m_lo}")
    if m_hi < m_lo:
        raise DomainError(f"empty index range [{m_lo}, {m_hi}]")
    _check_count("rounds", rounds)
    _check_count("workers", workers)
    done: dict[int, tuple] = {}
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        done = _read_checkpoint(checkpoint_path, rounds)
    todo = ((m, rounds, p_struck, q_struck)
            for m, p_struck, q_struck in _index_sieve(m_lo, m_hi) if m not in done)

    with ExitStack() as stack:
        fh = None
        if checkpoint_path is not None:
            try:
                fh = stack.enter_context(open(checkpoint_path, "a", encoding="utf-8"))
            except OSError as exc:
                raise CheckpointCorrupt(
                    f"cannot write checkpoint {checkpoint_path}: {exc}") from exc
            if fh.tell() == 0:  # a new or empty file
                _write_durably(fh, _header(rounds))
        fresh = stack.enter_context(closing(_shard_map(_check_pair, todo, workers)))
        for m in range(m_lo, m_hi + 1):
            if m in done:
                result = _anchor_result(m, *anchor(m), *done[m])
            else:
                # fresh results arrive in ascending m, so records are
                # appended in order
                result = next(fresh)
                if fh is not None:
                    _write_durably(fh, _result_record(
                        m, result.p_verdict, result.q_verdict, rounds))
            yield result


def search_anchors(m_lo: int, m_hi: int, rounds: int = DEFAULT_ROUNDS,
                   checkpoint_path: str | None = None,
                   workers: int = 1) -> list[AnchorResult]:
    """The results of iter_anchors as a list: AnchorResult for every m in
    [m_lo, m_hi], ascending, with the same checkpoint handling.  Errors
    are raised at the call."""
    return list(iter_anchors(m_lo, m_hi, rounds, checkpoint_path, workers))


# --- brute-force cross-verification ------------------------------------

def verify_characterization(bound: int, base: int = 10,
                            workers: int = 1) -> VerificationReport:
    """Compare brute force against the anchor characterization up to bound.

    The brute-force side is the prime scanner of vpal.palindromes, with
    enumeration's int64 limit (bound < 10**18 in base 10; a larger bound
    raises DomainError).  The characterization side runs iter_anchors over
    CANDIDATE_FLOOR <= m with larger member p <= bound and collects its
    candidates as they are yielded, holding no other result; a brute-force
    hit below the floor would make the report inconsistent, so the floor
    is checked, not assumed.  The int64 limit keeps m <= 17, so every
    member tested lies below DETERMINISTIC_BOUND and every verdict is
    deterministic: no round count could change the report.  The anchor
    digit form is specific to base 10, so for other bases the
    characterization side is empty and the report simply exposes whatever
    the brute force found.
    """
    if bound < 2:
        raise DomainError(f"bound must be >= 2, got {bound}")
    brute = _brute_force_hits(bound, base, workers)
    # the last index whose larger member p = 5*10**m - 1 is <= bound
    m_max = length((bound + 1) // 5) - 1 if base == 10 else 0
    chars = []
    if m_max >= CANDIDATE_FLOOR:
        chars = [r.p for r in iter_anchors(CANDIDATE_FLOOR, m_max)
                 if r.is_candidate]
    return VerificationReport(bound, brute, chars, set(brute) == set(chars))
