import dataclasses
import hashlib
import io
import json
import multiprocessing
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import kill_group, subprocess_env
from vpal import check_anchor, reverse
from vpal import anchors as anchors_mod
from vpal import cli
from vpal import heuristic as heuristic_mod
from vpal import palindromes as palindromes_mod
from vpal.heuristic import C_MAX
from vpal.cli import main
from vpal.digits import decimal_str


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_v(capsys):
    code, out, _ = run_cli(capsys, "v", "198")
    assert code == 0
    assert out == "18\n"


def test_reverse(capsys):
    code, out, _ = run_cli(capsys, "reverse", "8712")
    assert code == 0
    assert out == "2178\n"


def test_reverse_other_base(capsys):
    code, out, _ = run_cli(capsys, "reverse", "5", "--base", "2")
    assert code == 0
    assert out == "5\n"  # 101 reversed is 101


def test_operands_past_the_int_digit_limit(capsys):
    # longer than the 4,300 digits int() converts; v(2**14700) = 2 + 14700
    code, out, _ = run_cli(capsys, "v", decimal_str(2**14700))
    assert (code, out) == (0, "14702\n")
    zeros = "0" * 4400
    code, out, _ = run_cli(capsys, "reverse", f"1{zeros}2")
    assert (code, out) == (0, f"2{zeros}1\n")
    code, out, _ = run_cli(capsys, "check", f"1{zeros}")
    assert (code, out) == (0, f"1{zeros} is not a v-palindrome in base 10\n")


@pytest.mark.parametrize("command", ["v", "reverse", "check"])
@pytest.mark.parametrize("operand", ["1.5", "abc", f"1{'0' * 4400}x"])
def test_a_non_integer_operand_is_a_usage_error(capsys, command, operand):
    with pytest.raises(SystemExit) as info:
        main([command, operand])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"vpal {command}: error: argument n: invalid" in err


def test_check_true(capsys):
    code, out, _ = run_cli(capsys, "check", "198")
    assert code == 0
    assert "198 is a v-palindrome in base 10" in out
    assert "shared v 18" in out


def test_check_false_still_succeeds(capsys):
    code, out, _ = run_cli(capsys, "check", "19")
    assert code == 0
    assert "19 is not a v-palindrome" in out


@pytest.mark.parametrize("n", ["198", "19", "100", "121"])
def test_check_reverses_once(capsys, monkeypatch, n):
    expected = run_cli(capsys, "check", n, "--format", "jsonl")
    calls = []

    def counted(m, base=10):
        calls.append(m)
        return reverse(m, base)

    monkeypatch.setattr(palindromes_mod, "reverse", counted)
    monkeypatch.setattr(cli, "reverse", counted)
    assert run_cli(capsys, "check", n, "--format", "jsonl") == expected
    assert calls == [int(n)]


def test_check_jsonl(capsys):
    code, out, _ = run_cli(capsys, "check", "198", "--format", "jsonl")
    assert code == 0
    rec = json.loads(out)
    assert rec["kind"] == "check"
    assert rec["is_v_palindrome"] is True
    assert rec["reversal"] == 891
    assert rec["shared_v"] == 18


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "v", "0")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "v", str(1_000_000_007 * 1_000_000_009), "--budget", "600"
    )
    assert code == 2
    assert "budget" in err


def test_budget_exhausted_in_trial_division_pinned(capsys):
    code, out, err = run_cli(capsys, "v", "1000003", "--budget", "2")
    assert (code, out) == (2, "")
    assert err == "error: factorization budget exhausted with cofactor 1000003 unsplit\n"


# check 121 and check 100 factor nothing (a fixed point, a multiple of the
# base), but refuse the budget all the same
@pytest.mark.parametrize("argv", [
    pytest.param(["v", "1"], id="1"), pytest.param(["v", "6"], id="6"),
    pytest.param(["check", "121"], id="check-121"),
    pytest.param(["check", "100"], id="check-100"),
    pytest.param(["check", "198"], id="check-198")])
@pytest.mark.parametrize("from_env", [False, True])
def test_negative_budget_refused(capsys, monkeypatch, argv, from_env):
    if from_env:
        monkeypatch.setenv("VPAL_BUDGET", "-1")
        code, out, err = run_cli(capsys, *argv)
    else:
        code, out, err = run_cli(capsys, *argv, "--budget", "-1")
    assert (code, out) == (1, "")
    assert err == "error: budget must be nonnegative, got -1\n"


def test_check_prime_decided_by_the_composite_bound(capsys):
    # v(r) could not equal v(n) = n, so the small budget is never spent on r
    n = "183595711398977211219009396143"
    code, out, err = run_cli(capsys, "check", n, "--budget", "1000")
    assert (code, out, err) == (0, f"{n} is not a v-palindrome in base 10\n", "")


def test_enumerate_table(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--lo", "1", "--hi", "1000", "--canonical",
        "--threads", "1",
    )
    assert code == 0
    assert out == "18\n198\n576\n819\n"


def test_enumerate_bfile(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--lo", "1", "--hi", "600", "--canonical",
        "--threads", "1", "--format", "bfile",
    )
    assert code == 0
    assert out == "1 18\n2 198\n3 576\n"


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--lo", "1", "--hi", "600", "--canonical",
        "--threads", "1", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "n,reversal,shared_v,base"
    assert out.splitlines()[1] == "18,81,7,10"


@pytest.mark.parametrize("fmt", ["table", "jsonl", "csv", "bfile"])
def test_enumerate_empty_range_refused(capsys, fmt):
    # like anchors and heuristic; the library still yields nothing
    code, out, err = run_cli(
        capsys, "enumerate", "--lo", "10", "--hi", "1", "--format", fmt
    )
    assert (code, out, err) == (1, "", "error: empty range [10, 1]\n")


def test_family(capsys):
    code, out, _ = run_cli(capsys, "family", "nines", "--k", "4")
    assert code == 0 and out == "19998\n"
    code, out, _ = run_cli(capsys, "family", "repeat18", "--k", "3")
    assert code == 0 and out == "181818\n"
    code, _, _ = run_cli(capsys, "family", "nines", "--k", "0")
    assert code == 1


@pytest.mark.parametrize("fmt", ["table", "jsonl"])
def test_family_past_the_str_digit_limit(capsys, fmt):
    code, out, _ = run_cli(capsys, "family", "nines", "--k", "5000", "--format", fmt)
    assert code == 0
    assert ("1" + "9" * 4999 + "8") in out


def test_anchors_table_past_the_str_digit_limit(capsys, monkeypatch):
    big = check_anchor(4)
    big = dataclasses.replace(big, m=5000, p=5 * 10**5000 - 1, q=5 * 10**5000 - 3)
    monkeypatch.setattr(cli, "iter_anchors", lambda *a, **k: iter([big]))
    code, out, _ = run_cli(capsys, "anchors", "--from", "5000", "--to", "5000")
    assert code == 0
    assert out.startswith(f"m=5000 p=4{'9' * 5000} [prime] q=4{'9' * 4999}7 ")


def test_anchors_table(capsys):
    code, out, _ = run_cli(capsys, "anchors", "--from", "1", "--to", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[1] == "m=2 p=499 [prime] q=497 [composite] candidate=no"


def test_anchors_jsonl(capsys):
    code, out, _ = run_cli(
        capsys, "anchors", "--from", "4", "--to", "4", "--format", "jsonl"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["kind"] == "anchor"
    assert (rec["m"], rec["p"], rec["q"]) == (4, 49999, 49997)


def test_anchors_checkpoint_corrupt_exit(tmp_path, capsys):
    path = tmp_path / "ck.jsonl"
    path.write_text("garbage\n")
    code, _, err = run_cli(
        capsys, "anchors", "--from", "1", "--to", "3", "--checkpoint", str(path)
    )
    assert code == 2
    assert "checkpoint" in err or "ck.jsonl" in err


@pytest.mark.parametrize("fmt", ["table", "jsonl", "csv"])
def test_anchors_damaged_checkpoint_prints_nothing(tmp_path, capsys, fmt):
    # the records before the torn line are valid, but none is printed
    path = tmp_path / "ck.jsonl"
    assert main(["anchors", "--from", "1", "--to", "3", "--checkpoint", str(path)]) == 0
    with open(path, "a") as fh:
        fh.write('{"record": "result", "m": 4')
    data = path.read_bytes()
    capsys.readouterr()
    code, out, err = run_cli(capsys, "anchors", "--from", "1", "--to", "5",
                             "--checkpoint", str(path), "--format", fmt)
    assert (code, out) == (2, "")
    assert "line 5 is unreadable" in err
    assert path.read_bytes() == data


def test_anchors_failed_checkpoint_write_keeps_the_records_before_it(
        tmp_path, capsys, monkeypatch):
    fsyncs = []
    real = anchors_mod.os.fsync

    def full_disk_at_the_fourth(fd):
        fsyncs.append(fd)
        if len(fsyncs) == 4:  # the header, then the records of m = 1, 2, 3
            raise OSError(28, "No space left on device")
        real(fd)

    monkeypatch.setattr(anchors_mod.os, "fsync", full_disk_at_the_fourth)
    code, out, err = run_cli(capsys, "anchors", "--from", "1", "--to", "5",
                             "--checkpoint", str(tmp_path / "ck.jsonl"))
    assert code == 2
    assert [line.split()[0] for line in out.splitlines()] == ["m=1", "m=2"]
    assert "cannot write checkpoint" in err


def test_anchors_first_record_precedes_the_second_check(monkeypatch):
    events = []
    real = anchors_mod._check_pair

    def recording(m, *args):
        events.append(("check", m))
        return real(m, *args)

    class Stdout(io.StringIO):
        def write(self, s):
            events.append(("write", s.split()[0]))
            return super().write(s)

    monkeypatch.setattr(anchors_mod, "_check_pair", recording)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["anchors", "--from", "1", "--to", "3", "--threads", "1"]) == 0
    assert events == [("check", 1), ("write", "m=1"), ("check", 2),
                      ("write", "m=2"), ("check", 3), ("write", "m=3")]


class _ReaderLeavesAfter(io.StringIO):
    """A stdout whose reader goes away after k writes; fileno is a real
    descriptor for main to point at devnull."""

    def __init__(self, k, fd):
        super().__init__()
        self.k, self.fd = k, fd

    def write(self, s):
        if self.k == 0:
            raise BrokenPipeError
        self.k -= 1
        return super().write(s)

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("threads", ["1", "2"])
def test_anchors_closed_pipe_stops_the_search(tmp_path, monkeypatch, no_idle_pool,
                                              threads):
    monkeypatch.setattr(palindromes_mod, "_usable_cpus", lambda: 2)
    path = tmp_path / "ck.jsonl"
    with open(tmp_path / "stdout", "w") as fh:
        stdout = _ReaderLeavesAfter(3, fh.fileno())
        monkeypatch.setattr(sys, "stdout", stdout)
        argv = ["anchors", "--from", "1", "--to", "60", "--threads", threads,
                "--checkpoint", str(path)]
        code = main(argv)
    assert code == 1
    # a pool is left idle at two threads
    idle = {p.pid for p in multiprocessing.active_children()}
    assert len(idle) == (2 if threads == "2" else 0)
    assert [line.split()[0] for line in stdout.getvalue().splitlines()] == [
        "m=1", "m=2", "m=3"]
    # the fourth result was checkpointed before its write failed
    records = [json.loads(line)["m"] for line in path.read_text().splitlines()[1:]]
    assert records == [1, 2, 3, 4]
    # the resumed search runs to its end on the workers the cut one left idle
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(argv) == 0
    assert len(sys.stdout.getvalue().splitlines()) == 60
    assert {p.pid for p in multiprocessing.active_children()} == idle


@pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
def test_anchors_checkpoint_version_not_an_int_exit(tmp_path, capsys, version):
    path = tmp_path / "ck.jsonl"
    data = ('{"record": "header", "format": "vpal-anchor-search", '
            f'"version": {version}, "rounds": 64}}\n').encode()
    path.write_bytes(data)
    code, out, err = run_cli(
        capsys, "anchors", "--from", "1", "--to", "3", "--checkpoint", str(path)
    )
    assert (code, out) == (2, "")
    assert "unsupported checkpoint version" in err
    assert path.read_bytes() == data


def test_anchors_non_utf8_checkpoint_exit(tmp_path, capsys):
    path = tmp_path / "ck.jsonl"
    data = (b'{"record": "header", "format": "vpal-anchor-search", "version": 1, '
            b'"rounds": 64}\n\xff\xfe x\n')
    path.write_bytes(data)
    code, out, err = run_cli(
        capsys, "anchors", "--from", "1", "--to", "3", "--checkpoint", str(path)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read checkpoint {path}: ")
    assert err.count("\n") == 1
    assert path.read_bytes() == data


def test_anchors_rounds_below_one_writes_no_checkpoint(tmp_path, capsys):
    path = tmp_path / "ck.jsonl"
    code, out, err = run_cli(
        capsys, "anchors", "--from", "1", "--to", "2", "--rounds", "0",
        "--checkpoint", str(path),
    )
    assert (code, out) == (1, "")
    assert "error: rounds must be positive" in err
    assert not path.exists()


def test_anchors_checkpoint_in_missing_dir_exit(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "ck.jsonl"
    code, out, err = run_cli(
        capsys, "anchors", "--from", "1", "--to", "2", "--checkpoint", str(path)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write checkpoint")


def test_verify(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--bound", "10000", "--threads", "1", "--format", "jsonl"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["kind"] == "verification"
    assert rec["consistent"] is True
    assert rec["brute_force_hits"] == []


def test_verify_ignores_vpal_rounds(capsys, monkeypatch):
    # every verdict verify reaches is deterministic, so no round count is read
    argv = ("verify", "--bound", "100000", "--threads", "1")
    expected = run_cli(capsys, *argv)
    monkeypatch.setenv("VPAL_ROUNDS", "0")
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0 and expected[1].startswith("bound=100000\n")


def test_verify_rounds_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--bound", "100", "--rounds", "5"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --rounds 5" in err


def test_verify_bytes_do_not_depend_on_the_workers(capsys):
    runs = [run_cli(capsys, "verify", "--bound", str(10**7), "--threads", threads)
            for threads in ("1", "2")]
    assert runs[0][0] == 0 and runs[0][1].startswith("bound=10000000\n")
    assert runs[0] == runs[1]


def test_heuristic_table(capsys):
    code, out, _ = run_cli(capsys, "heuristic", "--from", "1", "--to", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n=1 probability=0.067459829866")
    assert lines[-1].startswith("tail_bound=")


TABLE_OUTPUT = {
    "v 198": "18\n",
    "reverse 8712": "2178\n",
    "check 198": "198 is a v-palindrome in base 10: reversal 891, shared v 18\n",
    "check 19": "19 is not a v-palindrome in base 10\n",
    "check 100": "100 is not a v-palindrome in base 10\n",
    "enumerate --lo 1 --hi 1000 --threads 1":
        "18\n81\n198\n576\n675\n819\n891\n918\n",
    "family repeat18 --k 3": "181818\n",
    "anchors --from 1 --to 4": (
        "m=1 p=49 [composite] q=47 [prime] candidate=no\n"
        "m=2 p=499 [prime] q=497 [composite] candidate=no\n"
        "m=3 p=4999 [prime] q=4997 [composite] candidate=no\n"
        "m=4 p=49999 [prime] q=49997 [composite] candidate=no\n"
    ),
    "verify --bound 10000 --threads 1": (
        "bound=10000\n"
        "brute_force_hits=[]\n"
        "characterization_hits=[]\n"
        "consistent=yes\n"
    ),
    "heuristic --from 1 --to 3": (
        "n=1 probability=0.06745982986649947 envelope=100.0\n"
        "n=2 probability=0.025942631944631773 envelope=25.0\n"
        "n=3 probability=0.013786950375894242 envelope=11.11111111111111\n"
        "partial_sum=0.10718941218702549\n"
        "envelope_sum=136.11111111111111\n"
        "tail_bound=33.333333333333336\n"
    ),
}


@pytest.mark.parametrize("argv", list(TABLE_OUTPUT))
def test_table_output_byte_for_byte(capsys, argv):
    assert run_cli(capsys, *argv.split()) == (0, TABLE_OUTPUT[argv], "")


def test_heuristic_jsonl_has_summary(capsys):
    code, out, _ = run_cli(
        capsys, "heuristic", "--from", "1", "--to", "5", "--format", "jsonl"
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["kind"] for r in recs] == ["heuristic_term"] * 5 + ["heuristic_summary"]
    # the running sum in the last term equals the summary total
    assert recs[-2]["partial_sum"] == recs[-1]["partial_sum"]


def test_heuristic_csv_homogeneous(capsys):
    code, out, _ = run_cli(
        capsys, "heuristic", "--from", "1", "--to", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,C,probability,envelope,partial_sum,envelope_partial_sum"
    assert len(lines) == 4


@pytest.mark.parametrize("C", ["nan", "inf", "-inf", "0", "1e307"])
def test_heuristic_rejects_non_finite_or_nonpositive_C(capsys, C):
    # 1e307 is finite, but its envelope sum would overflow
    code, out, err = run_cli(
        capsys, "heuristic", "--from", "1", "--to", "2", f"--C={C}", "--format", "jsonl"
    )
    assert (code, out) == (1, "")
    assert "error: model constant must be finite and positive" in err


def test_heuristic_index_whose_square_is_no_double_refused(capsys):
    top = str(heuristic_mod._INDEX_MAX)
    code, out, err = run_cli(capsys, "heuristic", "--from", top, "--to", top,
                             "--format", "csv")
    assert (code, err) == (0, "")
    # log(anchor)**2 overflows there, but the term is a subnormal, not 0.0
    assert out.splitlines()[1].startswith(f"{top},1.0,1.049187391073056e-309,")
    past = str(heuristic_mod._INDEX_MAX + 1)
    for lo, hi, what in [(past, past, "start index"), ("1", past, "end index")]:
        code, out, err = run_cli(capsys, "heuristic", "--from", lo, "--to", hi)
        assert (code, out) == (1, "")
        assert err == f"error: {what} must be at most {top}, got {past}\n"


def test_heuristic_at_the_largest_C_is_valid_json(capsys):
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    code, out, _ = run_cli(
        capsys, "heuristic", "--from", "1", "--to", "1000", "--C", repr(C_MAX),
        "--format", "jsonl"
    )
    assert code == 0
    recs = [json.loads(line, parse_constant=reject) for line in out.splitlines()]
    assert recs[-1]["kind"] == "heuristic_summary" and len(recs) == 1001


# sha256 of the stdout; 60..70 crosses _EXACT_LOG_MAX, where the anchor's log
# switches from the exact bignum log to n*ln10 + ln5
HEURISTIC_SHA256 = {
    ("--from 1 --to 2000", "table"):
        "b7e61ee98cdfbc4e79bfbceb07ed4d421f6ab058984ae613a5e6616843e01ce1",
    ("--from 1 --to 2000", "jsonl"):
        "0b9265c15083f8590ee2f6637eb25f62a4256d575bcb65248d299092bbbd5ac9",
    ("--from 1 --to 2000", "csv"):
        "4ed8631582bb69a00e3a21d85a12ea06f06bd0ccc7aa8ae45a858122ffd2e8e9",
    ("--from 60 --to 70 --C 2.5", "table"):
        "30eddd710c7c8c89b71d3a801ae7c22ffacddd70b51e06cccbbab385079e46cd",
    ("--from 60 --to 70 --C 2.5", "jsonl"):
        "03812d3715ac6d06b464a7af2fff40b0a2d1bfbf5d76fde0a3f71f7d96186160",
    ("--from 60 --to 70 --C 2.5", "csv"):
        "718cd9b33851a4a5cad9548cabf2e78b618abf5250fe9d0b33b1260506cdc24a",
}


@pytest.mark.parametrize("args,fmt", list(HEURISTIC_SHA256))
def test_heuristic_bytes_pinned(capsys, args, fmt):
    code, out, err = run_cli(capsys, "heuristic", *args.split(), "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HEURISTIC_SHA256[args, fmt]


class _Sink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_heuristic_holds_no_list_of_its_terms(monkeypatch):
    # the series is written term by term: 10^5 terms as lists of floats
    # would take several MB
    monkeypatch.setattr(sys, "stdout", _Sink())
    tracemalloc.start()
    try:
        code = main(["heuristic", "--from", "1", "--to", "100000", "--format", "csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000


def test_export_round_trip(capsys, monkeypatch):
    jsonl = (
        '{"schema_version": "1", "kind": "v_palindrome", "n": 18, '
        '"reversal": 81, "shared_v": 7, "base": 10}\n'
        '{"schema_version": "1", "kind": "v_palindrome", "n": 198, '
        '"reversal": 891, "shared_v": 18, "base": 10}\n'
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(jsonl))
    code, out, _ = run_cli(capsys, "export", "--format", "bfile")
    assert code == 0
    assert out == "1 18\n2 198\n"


def test_export_csv_keeps_non_finite_floats(capsys, monkeypatch):
    # a jsonl input may carry NaN and +-Infinity, which json.dumps spells out
    jsonl = (
        '{"schema_version": "1", "kind": "heuristic_term", "n": 1, "C": NaN, '
        '"probability": Infinity, "envelope": -Infinity, "partial_sum": 0.1, '
        '"envelope_partial_sum": -0.0}\n'
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(jsonl))
    code, out, err = run_cli(capsys, "export", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "1,NaN,Infinity,-Infinity,0.1,-0.0"


def test_export_heterogeneous_exit(capsys, monkeypatch):
    jsonl = (
        '{"schema_version": "1", "kind": "v_palindrome", "n": 18, '
        '"reversal": 81, "shared_v": 7, "base": 10}\n'
        '{"schema_version": "1", "kind": "scalar", "operation": "v", '
        '"operand": 198, "base": null, "value": 18}\n'
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(jsonl))
    code, _, err = run_cli(capsys, "export", "--format", "csv")
    assert code == 1
    assert "single kind" in err


def test_export_bad_line_after_the_rows_before_it(capsys, monkeypatch):
    jsonl = _hit_line(18, 81, 7) + _hit_line(198, 891, 18) + "not json\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(jsonl))
    code, out, err = run_cli(capsys, "export", "--format", "bfile")
    assert (code, out) == (1, "1 18\n2 198\n")
    assert err.startswith("error: line 3: not a json record")


def test_export_empty_stream(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, out, _ = run_cli(capsys, "export", "--format", "bfile")
    assert code == 0
    assert out == ""


def test_export_from_file(tmp_path, capsys):
    src = tmp_path / "records.jsonl"
    src.write_text(
        '{"schema_version": "1", "kind": "scalar", "operation": "family_nines", '
        '"operand": 1, "base": null, "value": 18}\n'
    )
    code, out, _ = run_cli(capsys, "export", "--format", "bfile", "--input", str(src))
    assert code == 0
    assert out == "1 18\n"


def test_export_missing_file_exit(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "export", "--format", "bfile", "--input", str(tmp_path / "missing")
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read")


def test_export_non_utf8_file_exit(tmp_path, capsys):
    src = tmp_path / "records.jsonl"
    src.write_bytes(b'{"schema_version": "1", "kind": "\xff"}\n')
    code, out, err = run_cli(capsys, "export", "--format", "bfile", "--input", str(src))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read")


def test_env_rounds_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("VPAL_ROUNDS", "not-a-number")
    code, _, err = run_cli(capsys, "anchors", "--from", "1", "--to", "1")
    assert code == 1
    assert "VPAL_ROUNDS" in err
    # an explicit flag wins over the broken environment value
    code, out, _ = run_cli(
        capsys, "anchors", "--from", "1", "--to", "1", "--rounds", "8"
    )
    assert code == 0
    assert out.startswith("m=1")


def test_env_budget_and_flag_precedence(capsys, monkeypatch):
    n = str(1_000_000_007 * 1_000_000_009)
    monkeypatch.setenv("VPAL_BUDGET", "600")
    code, _, err = run_cli(capsys, "v", n)
    assert code == 2
    assert "budget" in err
    code, out, _ = run_cli(capsys, "v", n, "--budget", "100000000")
    assert code == 0
    assert out == f"{1_000_000_007 + 1_000_000_009}\n"


def test_env_threads_used(capsys, monkeypatch):
    monkeypatch.setenv("VPAL_THREADS", "1")
    code, out, _ = run_cli(
        capsys, "enumerate", "--lo", "1", "--hi", "600", "--canonical"
    )
    assert code == 0
    assert out == "18\n198\n576\n"


def test_usage_error_nonzero_exit():
    proc = subprocess.run(
        [sys.executable, "-m", "vpal", "enumerate", "--lo", "1"],
        capture_output=True,
        env=subprocess_env(),
    )
    assert proc.returncode != 0
    assert b"--hi" in proc.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vpal", "reverse", "198"],
        capture_output=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == b"891\n"


def _hit_line(n, reversal, shared_v):
    return (
        f'{{"schema_version": "1", "kind": "v_palindrome", "n": {n}, '
        f'"reversal": {reversal}, "shared_v": {shared_v}, "base": 10}}\n'
    )


def _leave_after_two_lines(proc):
    """Read two lines of proc's stdout, close it, and return the lines with
    the exit code and stderr.  proc is started with start_new_session=True,
    and once it exits no process it started may be left in its group."""
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    try:
        # stderr, at most a traceback, fits in the pipe unread; read after
        # the check, as a process left holding it would delay the read
        code = proc.wait(timeout=120)
    finally:
        outlived = kill_group(proc.pid)  # a run the pipe did not stop too
    assert not outlived, f"{proc.args[3:]} left a process running after it exited"
    err = proc.stderr.read()
    proc.stderr.close()
    return lines, code, err


FIRST_TWO_LINES = {
    "table": [b"18\n", b"81\n"],
    "jsonl": [_hit_line(18, 81, 7).encode(), _hit_line(81, 18, 7).encode()],
    "csv": [b"n,reversal,shared_v,base\n", b"18,81,7,10\n"],
    "bfile": [b"1 18\n", b"2 81\n"],
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("fmt", ["table", "jsonl", "csv", "bfile"])
def test_closed_pipe_exits_quietly(fmt, threads):
    # `vpal enumerate ... | head -2`: the reader leaves after two lines
    env = subprocess_env()
    env["PYTHONUNBUFFERED"] = "1"  # each hit reaches the pipe as it is found
    proc = subprocess.Popen(
        [sys.executable, "-m", "vpal", "enumerate", "--lo", "1",
         "--hi", "3000000", "--threads", threads, "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    assert _leave_after_two_lines(proc) == (FIRST_TWO_LINES[fmt], 1, b"")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_anchors_closed_pipe_exits_quietly(tmp_path, threads):
    # `vpal anchors ... | head -2`: the search stops with the pipe, and its
    # checkpoint holds the indices from the first on, in order.  The table
    # to m = 400 is about 180 kB, more than a pipe holds unread, so the
    # search cannot finish before the reader leaves.
    path = tmp_path / "ck.jsonl"
    env = subprocess_env()
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "vpal", "anchors", "--from", "1", "--to", "400",
         "--checkpoint", str(path), "--threads", threads],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    assert _leave_after_two_lines(proc) == (
        [b"m=1 p=49 [composite] q=47 [prime] candidate=no\n",
         b"m=2 p=499 [prime] q=497 [composite] candidate=no\n"], 1, b"")
    records = [json.loads(line)["m"] for line in path.read_text().splitlines()[1:]]
    assert records == list(range(1, len(records) + 1))
    assert 2 <= len(records) < 400


def test_export_closed_pipe_exits_quietly(tmp_path):
    # a closed stdout is not an unreadable input: no "cannot read" line
    src = tmp_path / "records.jsonl"
    src.write_text("".join(_hit_line(n, n + 1, n + 2) for n in range(10**5)))
    env = subprocess_env()
    env["PYTHONUNBUFFERED"] = "1"
    with open(src, "rb") as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "vpal", "export", "--format", "csv"],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,
        )
        outcome = _leave_after_two_lines(proc)
    assert outcome == ([b"n,reversal,shared_v,base\n", b"0,1,2,10\n"], 1, b"")


@pytest.mark.parametrize("fmt", ["csv", "bfile"])
def test_readme_export_pipeline_matches_direct_output(fmt):
    # vpal enumerate ... --format jsonl | vpal export --format FMT
    enumerate_argv = [sys.executable, "-m", "vpal", "enumerate", "--lo", "1",
                      "--hi", "600", "--canonical", "--threads", "1"]
    env = subprocess_env()
    producer = subprocess.Popen(
        enumerate_argv + ["--format", "jsonl"], stdout=subprocess.PIPE, env=env
    )
    exported = subprocess.run(
        [sys.executable, "-m", "vpal", "export", "--format", fmt],
        stdin=producer.stdout,
        capture_output=True,
        env=env,
    )
    producer.stdout.close()
    assert producer.wait(timeout=120) == 0
    direct = subprocess.run(
        enumerate_argv + ["--format", fmt], capture_output=True, env=env
    )
    assert (exported.returncode, exported.stderr) == (0, b"")
    assert exported.stdout == direct.stdout
    assert direct.stdout.splitlines()[-1] == {"csv": b"576,675,13,10",
                                              "bfile": b"3 576"}[fmt]


def _readme_cli_commands():
    """The command lines of the sh block under README's `## CLI`, comments
    stripped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("command", _readme_cli_commands())
def test_readme_cli_example_runs(tmp_path, command):
    # each README example runs as written, with `vpal` as `python -m vpal`
    assert command.startswith("vpal ")
    vpal = shlex.join([sys.executable, "-m", "vpal"])
    line = re.sub(r"(^|\|\s*)vpal ", rf"\g<1>{vpal} ", command)
    proc = subprocess.run(line, shell=True, cwd=tmp_path, capture_output=True,
                          env=subprocess_env())
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("argv", [
    ["check", "198"],
    ["anchors", "--from", "1", "--to", "2"],
    ["verify", "--bound", "100"],
    ["heuristic", "--from", "1", "--to", "2"],
])
def test_bfile_refused_where_no_record_has_a_bfile_value(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--format", "bfile"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: vpal") and "invalid choice: 'bfile'" in err


def test_anchors_bfile_refused_before_the_checkpoint(tmp_path, capsys):
    path = tmp_path / "f"
    with pytest.raises(SystemExit) as info:
        main(["anchors", "--from", "1", "--to", "150", "--checkpoint", str(path),
              "--format", "bfile"])
    assert info.value.code == 2
    assert not path.exists()


def test_verify_bfile_refused_before_the_brute_force(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(anchors_mod, "_brute_force_hits",
                        lambda *a, **k: calls.append(a) or [])
    with pytest.raises(SystemExit) as info:
        main(["verify", "--bound", "10000000", "--format", "bfile"])
    assert info.value.code == 2
    assert calls == []
