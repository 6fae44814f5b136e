import functools
import json
import math
import multiprocessing

import numpy as np
import pytest

from _oracles import oracle_sieve, trial_factorize, trial_is_prime
from vpal import (
    CheckpointCorrupt,
    DomainError,
    anchor,
    check_anchor,
    converse_identity,
    is_v_palindrome,
    iter_anchors,
    length,
    reverse,
    search_anchors,
    verify_characterization,
)
from vpal import anchors as anchors_mod
from vpal import arith as arith_mod
from vpal import palindromes as palindromes_mod
from vpal.arith import PrimalityVerdict, _primes_upto, is_prime, prime_flags


@functools.lru_cache(maxsize=None)
def _prime_v_palindromes(bound, base):
    """The raw predicate over every prime <= bound."""
    return [p for p in _primes_upto(bound).tolist() if is_v_palindrome(p, base)]


class TestAnchor:
    @pytest.mark.parametrize(
        "m,p,q", [(1, 49, 47), (2, 499, 497), (4, 49999, 49997)]
    )
    def test_values(self, m, p, q):
        assert anchor(m) == (p, q)

    def test_digit_shapes(self):
        for m in range(1, 30):
            p, q = anchor(m)
            assert p - q == 2
            assert str(p) == "4" + "9" * m
            assert str(q) == "4" + "9" * (m - 1) + "7"

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            anchor(0)


class TestCheckAnchor:
    def test_small_composite_partners(self):
        r2 = check_anchor(2)
        assert r2.p_verdict.status == "prime"
        assert r2.q_verdict.status == "composite"
        assert trial_factorize(497) == [(7, 1), (71, 1)]
        assert not r2.is_candidate

        r3 = check_anchor(3)
        assert r3.p_verdict.status == "prime"
        assert r3.q_verdict.status == "composite"
        assert trial_factorize(4997) == [(19, 1), (263, 1)]
        assert not r3.is_candidate

        r4 = check_anchor(4)
        assert r4.q_verdict.status == "composite"
        assert trial_factorize(49997) == [(17, 2), (173, 1)]
        assert not r4.is_candidate

    def test_floor_flag(self):
        assert not check_anchor(3).meets_floor
        assert check_anchor(4).meets_floor

    def test_oracle_agreement_small_m(self):
        for m in range(1, 11):
            res = check_anchor(m)
            assert res.p_verdict.status == (
                "prime" if trial_is_prime(res.p) else "composite"
            )
            assert res.q_verdict.status == (
                "prime" if trial_is_prime(res.q) else "composite"
            )

    def test_candidate_definition(self):
        for m in range(1, 13):
            res = check_anchor(m)
            expected = (
                res.meets_floor
                and res.p_verdict.non_composite
                and res.q_verdict.non_composite
            )
            assert res.is_candidate == expected
            # any fully proven candidate must be a v-palindrome
            if (
                res.is_candidate
                and res.p_verdict.status == "prime"
                and res.q_verdict.status == "prime"
            ):
                assert is_v_palindrome(res.p)


class TestConverseIdentity:
    def test_small(self):
        assert converse_identity(1)  # r(49) = 94 = 2*47
        assert converse_identity(4)  # r(49999) = 99994 = 2*49997

    def test_holds_through_200(self):
        assert all(converse_identity(m) for m in range(1, 201))

    def test_past_the_str_digit_limit(self):
        assert converse_identity(5000)

    def test_closed_form(self):
        for m in (1, 5, 50):
            p, q = anchor(m)
            assert reverse(p, 10) == 10 ** (m + 1) - 6 == 2 * q


class TestSearchAnchors:
    def test_range_and_order(self):
        results = search_anchors(1, 10)
        assert [r.m for r in results] == list(range(1, 11))
        assert all(not r.is_candidate for r in results if r.m <= 4)

    def test_singleton_matches_check(self):
        # 40 and 41 lie at the sieve start; at 1000 both members are struck
        for m in (4, 40, 41, 100, 1000):
            assert search_anchors(m, m) == [check_anchor(m)]

    def test_bad_range(self):
        with pytest.raises(DomainError):
            search_anchors(0, 3)
        with pytest.raises(DomainError):
            search_anchors(5, 2)

    def test_workers_match_sequential(self):
        assert search_anchors(1, 8, workers=4) == search_anchors(1, 8)

    def test_checkpoint_roundtrip(self, tmp_path):
        path = tmp_path / "search.ckpt"
        first = search_anchors(1, 5, checkpoint_path=str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "header"
        assert header["rounds"] == 64
        assert len(lines) == 6  # header + one record per m
        again = search_anchors(1, 5, checkpoint_path=str(path))
        assert again == first

    def test_resume_skips_recorded_indices(self, tmp_path, monkeypatch):
        path = tmp_path / "search.ckpt"
        search_anchors(1, 7, checkpoint_path=str(path))
        calls = []
        real = anchors_mod._check_pair

        def counting(m, rounds, p_struck, q_struck):
            calls.append(m)
            return real(m, rounds, p_struck, q_struck)

        monkeypatch.setattr(anchors_mod, "_check_pair", counting)
        results = search_anchors(1, 9, checkpoint_path=str(path))
        assert calls == [8, 9]
        assert [r.m for r in results] == list(range(1, 10))

    def test_corrupt_checkpoint_refuses(self, tmp_path):
        path = tmp_path / "search.ckpt"
        search_anchors(1, 3, checkpoint_path=str(path))
        with open(path, "a") as fh:
            fh.write('{"record": "result", "m": 4')  # torn write
        with pytest.raises(CheckpointCorrupt):
            search_anchors(1, 5, checkpoint_path=str(path))

    def test_foreign_file_refuses(self, tmp_path):
        path = tmp_path / "other.txt"
        path.write_text("some unrelated file\n")
        with pytest.raises(CheckpointCorrupt):
            search_anchors(1, 3, checkpoint_path=str(path))

    def test_non_utf8_checkpoint_refuses_untouched(self, tmp_path):
        path = tmp_path / "search.ckpt"
        data = (b'{"record": "header", "format": "vpal-anchor-search", "version": 1, '
                b'"rounds": 64}\n\xff\xfe x\n')
        path.write_bytes(data)
        with pytest.raises(CheckpointCorrupt, match="cannot read checkpoint"):
            search_anchors(1, 3, checkpoint_path=str(path))
        assert path.read_bytes() == data

    def test_rounds_mismatch_refuses(self, tmp_path):
        path = tmp_path / "search.ckpt"
        search_anchors(1, 3, rounds=64, checkpoint_path=str(path))
        with pytest.raises(CheckpointCorrupt):
            search_anchors(1, 3, rounds=8, checkpoint_path=str(path))

    def test_rounds_below_one_rejected_before_the_checkpoint_opens(self, tmp_path):
        path = tmp_path / "search.ckpt"
        for rounds in (0, -3):
            with pytest.raises(DomainError, match="rounds"):
                search_anchors(1, 2, rounds=rounds, checkpoint_path=str(path))
        assert not path.exists()

    def test_bool_rounds_rejected_before_the_checkpoint_opens(self, tmp_path):
        # a bool would be written as the header "rounds": true, which no
        # resume accepts
        path = tmp_path / "search.ckpt"
        with pytest.raises(DomainError, match="rounds must be an int, got True"):
            search_anchors(1, 3, rounds=True, checkpoint_path=str(path))
        assert not path.exists()

    def test_fractional_rounds_rejected(self):
        # q at m = 30 is past the deterministic bound, where the rounds run
        with pytest.raises(DomainError, match="rounds must be an int, got 2.5"):
            search_anchors(30, 30, rounds=2.5)

    def test_records_carry_no_timestamp(self, tmp_path):
        # 40..45 lie past the sieve start, so struck members are in the file
        assert any(p or q for _m, p, q in anchors_mod._index_sieve(40, 45))
        fresh, resumed = tmp_path / "fresh.ckpt", tmp_path / "resumed.ckpt"
        search_anchors(1, 45, checkpoint_path=str(fresh))
        search_anchors(1, 30, checkpoint_path=str(resumed))
        search_anchors(1, 45, checkpoint_path=str(resumed))
        assert fresh.read_bytes() == resumed.read_bytes()
        for line in fresh.read_text().splitlines()[1:]:
            assert set(json.loads(line)) == {
                "record", "m", "p_status", "p_certainty", "q_status",
                "q_certainty", "rounds"}

    def test_timestamped_records_still_resume(self, tmp_path, monkeypatch):
        # files whose records carry a timestamp must still resume
        path = tmp_path / "search.ckpt"
        first = search_anchors(1, 45, checkpoint_path=str(path))
        header, *records = path.read_text().splitlines()
        stamped = [json.dumps({**json.loads(line),
                               "timestamp": "2026-01-01T00:00:00.000000+00:00"})
                   for line in records]
        path.write_text("\n".join([header] + stamped) + "\n")
        monkeypatch.setattr(anchors_mod, "_check_pair", None)  # nothing recomputed
        assert search_anchors(1, 45, checkpoint_path=str(path)) == first

    def test_unwritable_checkpoint_refuses(self, tmp_path):
        path = tmp_path / "missing-dir" / "search.ckpt"
        with pytest.raises(CheckpointCorrupt, match="cannot write checkpoint"):
            search_anchors(1, 2, checkpoint_path=str(path))

    def test_failed_record_write_refuses(self, tmp_path, monkeypatch):
        path = tmp_path / "search.ckpt"

        def no_space(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(anchors_mod.os, "fsync", no_space)
        with pytest.raises(CheckpointCorrupt, match="cannot write checkpoint"):
            search_anchors(1, 2, checkpoint_path=str(path))


class TestIterAnchors:
    def _counting_checks(self, monkeypatch):
        calls = []
        real = anchors_mod._check_pair

        def counting(m, rounds, p_struck, q_struck):
            calls.append(m)
            return real(m, rounds, p_struck, q_struck)

        monkeypatch.setattr(anchors_mod, "_check_pair", counting)
        return calls

    def test_yields_each_result_before_checking_the_next(self, monkeypatch):
        calls = self._counting_checks(monkeypatch)
        results = iter_anchors(1, 5)
        assert calls == []  # nothing runs before the first next()
        assert next(results).m == 1
        assert calls == [1]
        results.close()

    def test_arguments_checked_at_the_first_next(self, tmp_path):
        path = tmp_path / "search.ckpt"
        results = iter_anchors(0, 3, checkpoint_path=str(path))
        with pytest.raises(DomainError):
            next(results)
        assert not path.exists()

    def test_loaded_results_are_yielded_in_their_place(self, tmp_path, monkeypatch):
        path = str(tmp_path / "search.ckpt")
        search_anchors(1, 3, checkpoint_path=path)
        search_anchors(7, 9, checkpoint_path=path)
        calls = self._counting_checks(monkeypatch)
        results = iter_anchors(1, 10, checkpoint_path=path)
        assert [next(results).m for _ in range(3)] == [1, 2, 3]
        assert calls == []  # the loaded results came before any check
        rest = list(results)
        assert [r.m for r in rest] == list(range(4, 11))
        assert calls == [4, 5, 6, 10]
        assert search_anchors(1, 3) + rest == search_anchors(1, 10)

    def test_each_yielded_result_is_already_in_the_checkpoint(self, tmp_path):
        path = tmp_path / "search.ckpt"
        for count, result in enumerate(iter_anchors(1, 6, checkpoint_path=str(path)),
                                       start=1):
            last = json.loads(path.read_text().splitlines()[-1])
            assert (last["m"], len(path.read_text().splitlines())) == (result.m, count + 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_closed_early_leaves_a_resumable_checkpoint(self, tmp_path, monkeypatch,
                                                       workers):
        monkeypatch.setattr(palindromes_mod, "_usable_cpus", lambda: 2)
        fresh, cut = tmp_path / "fresh.ckpt", tmp_path / "cut.ckpt"
        search_anchors(1, 45, checkpoint_path=str(fresh))
        results = iter_anchors(1, 45, checkpoint_path=str(cut), workers=workers)
        taken = [next(results).m for _ in range(10)]
        results.close()
        assert multiprocessing.active_children() == []
        # the file holds exactly the ten results yielded
        records = [json.loads(line)["m"] for line in cut.read_text().splitlines()[1:]]
        assert records == taken == list(range(1, 11))
        search_anchors(1, 45, checkpoint_path=str(cut), workers=workers)
        assert cut.read_bytes() == fresh.read_bytes()


@functools.lru_cache(maxsize=None)
def _member_verdicts(m_hi):
    """(m, is_prime(p), is_prime(q)) for m in [1, m_hi], with no sieve."""
    verdicts = []
    for m in range(1, m_hi + 1):
        p, q = anchor(m)
        verdicts.append((m, is_prime(p), is_prime(q)))
    return tuple(verdicts)


def _verdicts(results):
    return tuple((r.m, r.p_verdict, r.q_verdict) for r in results)


class TestIndexSieve:
    def test_struck_exactly_where_a_small_prime_divides(self):
        flags = oracle_sieve(anchors_mod._SIEVE_LIMIT)
        ells = [ell for ell, prime in enumerate(flags) if prime]
        for m, p_struck, q_struck in anchors_mod._index_sieve(1, 400):
            p, q = anchor(m)
            # below the guard a member may be a small prime itself
            guard = m >= anchors_mod._SIEVE_FROM
            assert p_struck == (guard and any(p % ell == 0 for ell in ells if ell < p))
            assert q_struck == (guard and any(q % ell == 0 for ell in ells if ell < q))

    def test_small_members_are_never_struck(self):
        # 47, 499, 4999 and 49999 are sieving primes themselves, which a
        # strike would call composite; every member below the start, those
        # up to m = 4 among them, goes to is_prime
        start = anchors_mod._SIEVE_FROM
        assert start >= 5
        assert anchor(start)[1] > anchors_mod._SIEVE_LIMIT
        assert list(anchors_mod._index_sieve(1, start - 1)) == [
            (m, False, False) for m in range(1, start)]

    @pytest.mark.parametrize("m_lo", [2, 5, 39, 40, 41, 137, 399])
    def test_any_start_index_gives_the_same_flags(self, m_lo):
        full = list(anchors_mod._index_sieve(1, 400))
        assert list(anchors_mod._index_sieve(m_lo, 400)) == full[m_lo - 1:]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_search_equals_is_prime_per_member(self, workers):
        results = search_anchors(1, 400, workers=workers)
        assert _verdicts(results) == _member_verdicts(400)

    def test_resumed_search_equals_is_prime_per_member(self, tmp_path):
        path = str(tmp_path / "search.ckpt")
        search_anchors(1, 250, checkpoint_path=path)
        results = search_anchors(1, 400, checkpoint_path=path, workers=2)
        assert _verdicts(results) == _member_verdicts(400)
        assert search_anchors(1, 400, checkpoint_path=path) == results

    def test_only_survivors_reach_is_prime(self, monkeypatch):
        calls = []
        real = anchors_mod.is_prime

        def counting(n, rounds=64):
            calls.append(n)
            return real(n, rounds)

        monkeypatch.setattr(anchors_mod, "is_prime", counting)
        search_anchors(200, 300)
        assert len(calls) == 49  # 202 without the sieve

    def test_check_anchor_tests_no_struck_member(self, monkeypatch):
        calls = []
        real = anchors_mod.is_prime
        monkeypatch.setattr(anchors_mod, "is_prime",
                            lambda n, rounds=64: calls.append(n) or real(n, rounds))
        res = check_anchor(1000)
        assert calls == []
        assert (res.p_verdict, res.q_verdict) == (PrimalityVerdict("composite"),) * 2
        # at 41 only p is struck, so only q is tested
        assert check_anchor(41).p_verdict == PrimalityVerdict("composite")
        assert calls == [anchor(41)[1]]
        with pytest.raises(DomainError, match="rounds"):
            check_anchor(1000, rounds=0)


class TestLargerMemberVerdict:
    def test_proven_member_costs_one_round(self, monkeypatch):
        p = anchor(210)[0]
        expected = is_prime(p)
        assert expected == PrimalityVerdict("probable_prime", 64)
        calls = []
        real = arith_mod._strong_probable_prime
        monkeypatch.setattr(arith_mod, "_strong_probable_prime",
                            lambda n, base: calls.append(base) or real(n, base))
        assert anchors_mod._p_verdict(p, 64) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("m", [210, 211])
    @pytest.mark.parametrize("rounds", [1, 2, 64])
    def test_unproven_member_gets_the_rounds(self, monkeypatch, m, rounds):
        p = anchor(m)[0]
        monkeypatch.setattr(anchors_mod, "_lucas_proves_prime", lambda n, primes: False)
        assert anchors_mod._p_verdict(p, rounds) == is_prime(p, rounds)

    def test_search_without_the_proof_equals_is_prime(self, monkeypatch):
        monkeypatch.setattr(anchors_mod, "_lucas_proves_prime", lambda n, primes: False)
        results = search_anchors(200, 300)
        assert _verdicts(results) == _member_verdicts(400)[199:300]


def _tampered(tmp_path, search_rounds=64, **changes):
    """A valid checkpoint for m in [1, 4] plus a copy of its m=4 record
    with ``changes`` applied, appended last."""
    path = tmp_path / "search.ckpt"
    search_anchors(1, 4, rounds=search_rounds, checkpoint_path=str(path))
    rec = json.loads(path.read_text().splitlines()[-1])
    rec.update(changes)
    with open(path, "a") as fh:
        fh.write(json.dumps(rec) + "\n")
    return str(path)


def _header_tampered(tmp_path, search_rounds, **changes):
    """A valid checkpoint for m in [1, 4] whose header has ``changes``
    applied; a change to None removes the key."""
    path = tmp_path / "search.ckpt"
    search_anchors(1, 4, rounds=search_rounds, checkpoint_path=str(path))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["version"] == 1
    header.update(changes)
    header = {k: v for k, v in header.items() if v is not None}
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    return path


class TestCheckpointValidation:
    def test_unknown_status_refuses(self, tmp_path):
        # "bogus" is not composite, so unchecked it made m=5 a candidate
        path = _tampered(tmp_path, m=5, p_status="bogus", q_status="bogus")
        with pytest.raises(CheckpointCorrupt):
            search_anchors(1, 5, checkpoint_path=path)

    @pytest.mark.parametrize("status,certainty", [
        ("prime", 64), ("composite", 3), ("probable_prime", 0),
        ("probable_prime", 8), ("prime", "0"),
    ])
    def test_certainty_must_fit_status(self, tmp_path, status, certainty):
        path = _tampered(tmp_path, m=5, p_status=status, p_certainty=certainty)
        with pytest.raises(CheckpointCorrupt):
            search_anchors(1, 5, checkpoint_path=path)

    def test_record_rounds_must_match_header(self, tmp_path):
        path = _tampered(tmp_path, m=5, rounds=8)
        with pytest.raises(CheckpointCorrupt):
            search_anchors(1, 5, checkpoint_path=path)

    @pytest.mark.parametrize("rounds,bad", [(64, 64.0), (1, True)])
    def test_record_rounds_must_be_an_int(self, tmp_path, rounds, bad):
        path = _tampered(tmp_path, search_rounds=rounds, m=5, rounds=bad)
        with pytest.raises(CheckpointCorrupt, match="line 6"):
            search_anchors(1, 5, rounds=rounds, checkpoint_path=path)

    @pytest.mark.parametrize("rounds,bad", [(64, 64.0), (1, True)])
    def test_header_rounds_must_be_an_int(self, tmp_path, rounds, bad):
        path = _header_tampered(tmp_path, rounds, rounds=bad)
        before = path.read_bytes()
        with pytest.raises(CheckpointCorrupt, match="rounds="):
            search_anchors(1, 5, rounds=rounds, checkpoint_path=str(path))
        assert path.read_bytes() == before

    @pytest.mark.parametrize("bad", [True, 1.0, "1", None])
    def test_header_version_must_be_an_int(self, tmp_path, bad):
        # True == 1 == 1.0, so a comparison by value accepted two of these;
        # None drops the key
        path = _header_tampered(tmp_path, 64, version=bad)
        before = path.read_bytes()
        with pytest.raises(CheckpointCorrupt, match="unsupported checkpoint version"):
            search_anchors(1, 5, checkpoint_path=str(path))
        assert path.read_bytes() == before

    @pytest.mark.parametrize("m", ["5", 5.0, True, None, 0, -3])
    def test_index_must_be_positive_int(self, tmp_path, m):
        path = _tampered(tmp_path, m=m)
        with pytest.raises(CheckpointCorrupt):
            search_anchors(1, 5, checkpoint_path=path)

    def test_conflicting_duplicate_refuses(self, tmp_path):
        path = _tampered(tmp_path, q_status="prime")  # 49997 = 17**2 * 173
        with pytest.raises(CheckpointCorrupt):
            search_anchors(1, 5, checkpoint_path=path)

    def test_identical_duplicate_accepted(self, tmp_path):
        path = _tampered(tmp_path)
        assert search_anchors(1, 5, checkpoint_path=path) == search_anchors(1, 5)

    def test_non_object_record_refuses(self, tmp_path):
        path = _tampered(tmp_path)
        with open(path, "a") as fh:
            fh.write("[1, 2]\n")
        with pytest.raises(CheckpointCorrupt):
            search_anchors(1, 5, checkpoint_path=path)

    @pytest.mark.parametrize("rounds,changes,message", [
        (64, {"p_status": "bogus", "q_status": "bogus"}, "p_status 'bogus' is not a verdict"),
        (64, {"q_status": "bogus"}, "q_status 'bogus' is not a verdict"),
        (64, {"q_status": ["prime"]}, r"q_status \['prime'\] is not a verdict"),
        (64, {"p_status": "prime", "p_certainty": 64},
         r"p_certainty 64 does not fit \(expected 0\)"),
        (64, {"p_status": "composite", "p_certainty": 3},
         r"p_certainty 3 does not fit \(expected 0\)"),
        (64, {"p_status": "probable_prime", "p_certainty": 0},
         r"p_certainty 0 does not fit \(expected 64\)"),
        (64, {"p_status": "probable_prime", "p_certainty": 8},
         r"p_certainty 8 does not fit \(expected 64\)"),
        (64, {"p_status": "prime", "p_certainty": "0"},
         r"p_certainty '0' does not fit \(expected 0\)"),
        (64, {"q_certainty": "0"}, r"q_certainty '0' does not fit \(expected 0\)"),
        (64, {"p_certainty": None}, r"p_certainty None does not fit \(expected 0\)"),
        (64, {"rounds": 8}, r"rounds 8 does not fit \(expected 64\)"),
        (64, {"rounds": 64.0}, r"rounds 64.0 does not fit \(expected 64\)"),
        (1, {"rounds": True}, r"rounds True does not fit \(expected 1\)"),
        (64, {"record": "header"}, r"record 'header' does not fit \(expected 'result'\)"),
        *[(64, {"m": m}, f"anchor index must be an integer >= 1, got {m!r}")
          for m in ("5", 5.0, True, None, 0, -3)],
        (64, {"m": 4, "q_status": "prime"}, "conflicting duplicate record for m=4"),
    ])
    def test_refusal_names_the_field(self, tmp_path, rounds, changes, message):
        path = _tampered(tmp_path, search_rounds=rounds, **{"m": 5, **changes})
        with pytest.raises(CheckpointCorrupt, match=f"line 6 is unreadable \\({message}\\)"):
            search_anchors(1, 5, rounds=rounds, checkpoint_path=path)

    @pytest.mark.parametrize("line", [0, -1], ids=["header", "result"])
    def test_every_field_mutation_is_refused(self, tmp_path, line):
        # the reader accepts a value only where it has the JSON text the
        # writer gives it, so each of these is refused, the key removed too
        path = tmp_path / "search.ckpt"
        search_anchors(1, 4, checkpoint_path=str(path))
        lines = path.read_text().splitlines()
        fresh = search_anchors(1, 4)
        removed = object()
        rec = json.loads(lines[line])
        outcomes, expected = [], []
        for key in rec:
            for new in (True, 1.0, "1", None, -1, [1], removed):
                changed = dict(rec)
                if new is removed:
                    del changed[key]
                else:
                    changed[key] = new
                tampered = list(lines)
                tampered[line] = json.dumps(changed)
                data = ("\n".join(tampered) + "\n").encode()
                path.write_bytes(data)
                try:
                    outcome = search_anchors(1, 4, checkpoint_path=str(path)) == fresh
                except CheckpointCorrupt:
                    outcome = "refused"
                outcomes.append((key, repr(new), outcome, path.read_bytes() == data))
                same = new is not removed and json.dumps(new) == json.dumps(rec[key])
                expected.append((key, repr(new), True if same else "refused", True))
        assert outcomes == expected

    def test_every_line_round_trips_through_the_encoders(self, tmp_path):
        # 1..60 crosses the sieve start, so struck members are in the file
        assert any(p or q for _m, p, q in anchors_mod._index_sieve(1, 60))
        path = tmp_path / "search.ckpt"
        search_anchors(1, 60, checkpoint_path=str(path))
        header, *records = path.read_text().splitlines()
        assert json.dumps(anchors_mod._header(64)) == header
        indices = []
        for line in records:
            m, pair = anchors_mod._decode(json.loads(line), 64)
            assert json.dumps(anchors_mod._result_record(m, *pair, 64)) == line
            indices.append(m)
        assert indices == list(range(1, 61))

    def test_lines_outside_the_range_are_validated_not_computed(self, tmp_path,
                                                                monkeypatch):
        # a 4001-digit index still parses under the int str-digit limit; its
        # pair would have 4001 digits, so it must not be built
        fresh = search_anchors(1, 3)
        path = tmp_path / "search.ckpt"
        search_anchors(1, 2, checkpoint_path=str(path))
        rec = json.loads(path.read_text().splitlines()[-1])
        far = [json.dumps({**rec, "m": m}) for m in (10**12, 10**4000)]
        with open(path, "a") as fh:
            fh.write("\n".join(far) + "\n")
        before = path.read_text().splitlines()
        real = anchors_mod.anchor

        def bounded(m):
            if m > 10**6:
                raise AssertionError("an index outside the range was computed")
            return real(m)

        monkeypatch.setattr(anchors_mod, "anchor", bounded)
        assert search_anchors(1, 3, checkpoint_path=str(path)) == fresh
        after = path.read_text().splitlines()
        assert after[:len(before)] == before and after[3:5] == far
        assert [json.loads(line)["m"] for line in after[5:]] == [3]
        # a conflicting duplicate of a far line is still refused
        with open(path, "a") as fh:
            fh.write(json.dumps({**rec, "m": 10**12, "q_status": "prime"}) + "\n")
        with pytest.raises(CheckpointCorrupt,
                           match=f"conflicting duplicate record for m={10**12}"):
            search_anchors(1, 3, checkpoint_path=str(path))


class TestVerifyCharacterization:
    def test_small_bounds_empty_and_consistent(self):
        rep = verify_characterization(100)
        assert rep.brute_force_hits == []
        assert rep.characterization_hits == []
        assert rep.consistent

    def test_ten_to_five(self):
        rep = verify_characterization(10**5)
        assert rep.brute_force_hits == []
        assert rep.consistent

    def test_workers_match_sequential(self):
        seq = verify_characterization(3 * 10**6)
        par = verify_characterization(3 * 10**6, workers=4)
        assert seq == par

    def test_bound_below_two_rejected(self):
        with pytest.raises(DomainError):
            verify_characterization(1)

    @pytest.mark.parametrize("bound,m_max", [
        (2, 0), (48, 0), (49, 1), (498, 1), (499, 2), (49998, 3),
        (49999, 4), (10**7, 6)])
    def test_anchors_searched_up_to_the_bound(self, monkeypatch, bound, m_max):
        calls = []
        real = anchors_mod.iter_anchors

        def recording(m_lo, m_hi, rounds):
            calls.append((m_lo, m_hi))
            return real(m_lo, m_hi, rounds)

        monkeypatch.setattr(anchors_mod, "iter_anchors", recording)
        rep = verify_characterization(bound)
        # below the floor no pair is tested
        floor = anchors_mod.CANDIDATE_FLOOR
        assert calls == ([] if m_max < floor else [(floor, m_max)])
        assert rep.characterization_hits == [] and rep.consistent

    @pytest.mark.parametrize("bound", [498, 10**5])
    def test_below_floor_hits_stay_unmatched(self, monkeypatch, bound):
        # the characterization side comes from the anchor search alone, so a
        # brute-force hit below the floor makes the report inconsistent
        monkeypatch.setattr(anchors_mod, "_brute_force_hits",
                            lambda *args: [13, 49, 4999])
        rep = verify_characterization(bound)
        assert rep.brute_force_hits == [13, 49, 4999]
        assert rep.characterization_hits == []
        assert not rep.consistent

    def test_rounds_below_one_rejected_before_the_brute_force(self, monkeypatch):
        def brute_force(*args):
            raise AssertionError("the brute force ran")

        monkeypatch.setattr(anchors_mod, "_brute_force_hits", brute_force)
        with pytest.raises(DomainError, match="rounds"):
            verify_characterization(10**4, rounds=0)

    def test_reversal_beyond_bound_handled(self):
        # bound not a power of ten: reversals can exceed the sieve table
        rep = verify_characterization(5 * 10**4)
        assert rep.consistent

    def test_shard_scanner_agrees_with_predicate(self):
        # the prime shard scanner must flag exactly the primes the raw
        # predicate flags, so an empty result means "none exist", not
        # "none were visible to the scanner"
        for base in (10, 16, 100):
            hits = palindromes_mod._prime_shard_hits(2, 10**4, base)
            assert hits == _prime_v_palindromes(10**4, base)
        assert palindromes_mod._prime_shard_hits(2, 10**4, 16) == [109, 1789]

    def test_prime_window_never_reads_its_identity_array(self):
        # the prime scanner's v_n is n, which is v(n) only at primes; here
        # the reversal 214 of the hit 109 lies inside the window, so a
        # lookup of v(214) in that array would read 214, not 109
        lo, hi = 100, 299
        n = np.arange(lo, hi + 1, dtype=np.int64)
        hits = palindromes_mod._block_hits(lo, n, prime_flags(lo, hi), 16, False)
        assert hits == [(109, 214, 109)]

    @pytest.mark.parametrize("base,bound,hits", [(16, 3 * 10**5, [109, 1789]),
                                                 (100, 10**5, [3469])])
    def test_finds_real_hits(self, base, bound, hits):
        rep = verify_characterization(bound, base=base)
        assert rep.brute_force_hits == hits == _prime_v_palindromes(bound, base)
        assert verify_characterization(bound, base=base, workers=2) == rep
        # every known hit has r = 2p - 4, the least reversal the composite
        # bound lets a prime hit have
        for p in hits:
            assert reverse(p, base) == 2 * p - 4
            assert palindromes_mod._prime_shard_hits(p, p, base) == [p]

    @pytest.mark.parametrize("bound,base", [
        *((b, base) for b in (2**17 - 3, 2**17 + 3, 10**5 - 3, 10**5 + 3)
          for base in (10, 16, 2)),
        (10**6 + 7, 10), (3 * 10**5, 2), (3 * 10**5, 3), (3 * 10**5, 16), (10**5, 100),
    ])
    def test_bounds_straddling_shard_and_decade_edges(self, bound, base):
        # base-10 shards end at multiples of 10**5, base-2 and base-16
        # shards at multiples of 2**17.  The brute force skips every prime
        # with r < 2p - 4; the raw predicate tests them all.
        expected = _prime_v_palindromes(bound, base)
        assert anchors_mod._brute_force_hits(bound, base, 1) == expected
        assert anchors_mod._brute_force_hits(bound, base, 2) == expected

    def test_only_the_prime_hit_spans_are_cut_into_shards(self, monkeypatch):
        shards = []

        def record(lo, hi, base):
            shards.append((lo, hi))
            return []

        monkeypatch.setattr(palindromes_mod, "_prime_shard_hits", record)
        assert palindromes_mod._brute_force_hits(10**7, 10, 1) == []
        # the spans of 2..5-digit n up to 33...34 and from 4*10**(L-1) to
        # 5*10**(L-1) - 1, 6- and 7-digit ones cut at the multiples of the
        # shard width 10**5, and 10**7 itself
        width = 10**5
        expected = []
        for k in range(1, 7):
            end = 10 ** (k + 1) // 3 + 1
            if k < 5:
                expected += [(10**k, end), (4 * 10**k, 5 * 10**k - 1)]
                continue
            cut = end // width * width
            expected += [(a, a + width - 1) for a in range(10**k, cut, width)] + [(cut, end)]
            expected += [(a, a + width - 1) for a in range(4 * 10**k, 5 * 10**k, width)]
        assert shards == expected + [(10**7, 10**7)]
        assert (300_000, 333_334) in shards and (3_300_000, 3_333_334) in shards

    @pytest.mark.parametrize("base", range(2, 37))
    def test_brute_force_matches_the_predicate_in_every_base(self, base):
        bound = 2 * 10**4
        assert palindromes_mod._brute_force_hits(bound, base, 1) == _prime_v_palindromes(bound, base)
        if base in (10, 16):
            assert palindromes_mod._brute_force_hits(bound, base, 2) == _prime_v_palindromes(bound, base)

    def test_bound_beyond_int64_rejected(self):
        with pytest.raises(DomainError):
            verify_characterization(10**18)

    @pytest.mark.parametrize("base,message", [
        (1, "base must be >= 2, got 1"), (10.0, "base must be an int, got 10.0")])
    def test_bad_base_rejected(self, base, message):
        with pytest.raises(DomainError, match=message):
            verify_characterization(1000, base=base)

    def test_brute_hits_must_have_anchor_shape(self):
        # any prime v-palindrome ends in 9, leads with 4, and is all 9s in
        # between; the loop encodes the law and is vacuous while none exist
        rep = verify_characterization(10**6)
        for p in rep.brute_force_hits:
            s = str(p)
            assert p % 10 == 9
            assert s[0] == "4"
            assert set(s[1:]) == {"9"}
        assert rep.brute_force_hits == []

    def test_prime_digit_range_bracket(self):
        # a k+1-digit prime that is coprime to 10 and not a reversal fixed
        # point sits in [10^k + 3, 10^(k+1) - 3]
        for p in _primes_upto(10**5).tolist():
            if p % 10 == 0 or reverse(p, 10) == p:
                continue
            k = length(p, 10) - 1
            assert 10**k + 3 <= p <= 10 ** (k + 1) - 3


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 3.0, 10.0])
def test_log_inequality_spot_checks(x):
    assert math.log2(10 ** (x + 1) - 1) < (x + 1) * math.log2(10)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
def test_exponent_gap_spot_checks(n):
    assert (n + 1) * math.log2(10) < 10 ** (n - 1)
