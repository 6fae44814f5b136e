import io
import json
import sys
import tracemalloc

import pytest

from vpal import (
    DomainError,
    HeterogeneousRecords,
    VPalindromeHit,
    check_anchor,
    expected_count,
    verify_characterization,
)
from vpal import output
from vpal.digits import from_decimal

HITS = [
    VPalindromeHit(18, 81, 7, 10),
    VPalindromeHit(198, 891, 18, 10),
    VPalindromeHit(576, 675, 13, 10),
]


def render(records, fmt):
    buf = io.StringIO()
    output.write_records(records, fmt, buf)
    return buf.getvalue()


def test_bfile_exact_bytes():
    text = render([output.hit_record(h) for h in HITS], "bfile")
    assert text == "1 18\n2 198\n3 576\n"


def test_bfile_scalar_records():
    recs = [output.scalar_record("family_nines", k, 2 * 10**k - 2) for k in (1, 2, 3)]
    assert render(recs, "bfile") == "1 18\n2 198\n3 1998\n"


def test_bfile_rejects_non_integer_values():
    rec = output.scalar_record("x", 1, 0.5)
    with pytest.raises(DomainError):
        render([rec], "bfile")


def test_bfile_rejects_kinds_without_value():
    rep = verify_characterization(100)
    with pytest.raises(DomainError):
        render([output.verification_record(rep)], "bfile")


def test_jsonl_round_trip():
    recs = [output.hit_record(h) for h in HITS]
    text = render(recs, "jsonl")
    parsed = list(output.read_jsonl(io.StringIO(text)))
    assert parsed == recs


def test_jsonl_anchor_record_fields():
    rec = output.anchor_record(check_anchor(4))
    line = render([rec], "jsonl").strip()
    parsed = json.loads(line)
    assert parsed["m"] == 4
    assert parsed["p"] == 49999
    assert parsed["q"] == 49997
    assert parsed["p_status"] == "prime"
    assert parsed["q_status"] == "composite"
    assert parsed["is_candidate"] is False


def test_jsonl_big_integers_are_exact():
    big = 5 * 10**120 - 1
    rec = output.scalar_record("reverse", big, 10 ** 121 - 6, base=10)
    parsed = json.loads(render([rec], "jsonl"))
    assert parsed["operand"] == big
    assert parsed["value"] == 10**121 - 6


def test_ints_past_the_str_digit_limit_round_trip():
    big = 2 * 10**5000 - 2  # 5001 digits
    rec = output.scalar_record("family_nines", 5000, big)
    line = render([rec], "jsonl")
    assert line.endswith(f'"value": 1{"9" * 4999}8}}\n')
    assert list(output.read_jsonl(io.StringIO(line))) == [rec]
    assert render([rec], "bfile") == f"1 1{'9' * 4999}8\n"
    assert render([rec], "csv").splitlines()[1].endswith(f",1{'9' * 4999}8")


def test_check_table_renders_ints_past_the_str_digit_limit():
    n, r, shared = f"1{'9' * 4999}8", f"8{'9' * 4999}1", f"1{'0' * 4400}"
    hit = VPalindromeHit(*map(from_decimal, (n, r, shared)), 10)
    rec = output.check_record(hit.n, 10, hit.reversal, hit)
    assert render([rec], "table") == (
        f"{n} is a v-palindrome in base 10: reversal {r}, shared v {shared}\n")
    rec = output.check_record(10**4400, 10, None, None)
    assert render([rec], "table") == f"1{'0' * 4400} is not a v-palindrome in base 10\n"


def test_jsonl_fallback_matches_json_dumps():
    res = check_anchor(4)
    rec = output.anchor_record(res)
    line = render([dict(rec, p=10**5000)], "jsonl")
    assert line == render([rec], "jsonl").replace(
        f'"p": {res.p}', f'"p": 1{"0" * 5000}')


def test_csv_layout():
    text = render([output.hit_record(h) for h in HITS], "csv")
    lines = text.splitlines()
    assert lines[0] == "n,reversal,shared_v,base"
    assert lines[1] == "18,81,7,10"
    assert len(lines) == 4


def test_csv_none_becomes_empty_cell():
    rec = output.check_record(19, 10, 91, None)
    text = render([rec], "csv")
    assert text.splitlines()[1] == "19,10,false,91,"


def test_csv_list_cells_are_json():
    rep = verify_characterization(100)
    text = render([output.verification_record(rep)], "csv")
    assert text.splitlines()[1] == "100,[],[],true"


def test_heterogeneous_rejected_for_csv_and_bfile():
    recs = [output.hit_record(HITS[0]), output.scalar_record("v", 198, 18)]
    for fmt in ("csv", "bfile"):
        with pytest.raises(HeterogeneousRecords):
            render(recs, fmt)
    # jsonl tolerates mixed kinds
    assert len(render(recs, "jsonl").splitlines()) == 2


@pytest.mark.parametrize("x", [0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308,
                               1e16, 123456789.125, float("nan"), float("inf"),
                               float("-inf")])
def test_csv_float_cells_are_the_json_text(x):
    rec = output.scalar_record("v", 1, x)
    assert render([rec], "csv").splitlines()[1] == f"v,1,,{json.dumps(x)}"


def test_table_mixes_kinds_each_in_its_own_layout():
    recs = [output.hit_record(HITS[0]), output.scalar_record("v", 198, 18),
            output.hit_record(HITS[1])]
    assert render(recs, "table") == "18\n18\n198\n"


def test_table_without_a_layout_refused():
    rec = {"schema_version": output.SCHEMA_VERSION, "kind": "unknown"}
    with pytest.raises(DomainError, match="no table layout"):
        render([rec], "table")


def test_empty_stream_empty_output():
    for fmt in ("jsonl", "csv", "bfile"):
        assert render([], fmt) == ""


def test_heuristic_records():
    rep = expected_count(1, 3, 1.0)
    summary = output.heuristic_summary_record(rep)
    parsed = json.loads(render([summary], "jsonl"))
    assert parsed["partial_sum"] == rep.partial_sum
    assert parsed["tail_bound"] == rep.tail_bound


def test_read_jsonl_rejects_garbage():
    with pytest.raises(DomainError):
        list(output.read_jsonl(io.StringIO("not json\n")))
    with pytest.raises(DomainError):
        list(output.read_jsonl(io.StringIO('{"no_kind": 1}\n')))
    with pytest.raises(DomainError):
        list(output.read_jsonl(io.StringIO('{"kind": "scalar", "schema_version": "9"}\n')))


def test_unknown_format_rejected():
    with pytest.raises(DomainError):
        render([output.scalar_record("v", 1, 0)], "xml")


def test_every_kind_keeps_its_key_order():
    rep = expected_count(1, 3, 1.0)
    records = [
        output.hit_record(HITS[0]),
        output.check_record(19, 10, 91, None),
        output.scalar_record("reverse", 120, 21, base=10),
        output.anchor_record(check_anchor(4)),
        output.verification_record(verify_characterization(100)),
        output.heuristic_term_record(1, 1.0, 0.5, 0.25, 0.5, 0.25),
        output.heuristic_summary_record(rep),
    ]
    layouts = [
        ("n", "reversal", "shared_v", "base"),
        ("n", "base", "is_v_palindrome", "reversal", "shared_v"),
        ("operation", "operand", "base", "value"),
        ("m", "p", "q", "p_status", "p_certainty", "q_status", "q_certainty",
         "meets_floor", "is_candidate"),
        ("bound", "brute_force_hits", "characterization_hits", "consistent"),
        ("n", "C", "probability", "envelope", "partial_sum", "envelope_partial_sum"),
        ("C", "n_start", "N", "partial_sum", "envelope_sum", "tail_bound"),
    ]
    for rec, fields in zip(records, layouts, strict=True):
        assert list(rec) == ["schema_version", "kind", *fields]
        header = render([rec], "csv").splitlines()[0]
        assert header == ",".join(fields)
    assert records[2]["value"] == 21 and records[2]["base"] == 10
    assert records[1]["shared_v"] is None and records[1]["is_v_palindrome"] is False


class _ClosingStream(io.StringIO):
    """A stream whose reader leaves after ``writes`` writes."""

    def __init__(self, writes):
        super().__init__()
        self.writes = writes

    def write(self, text):
        if self.writes == 0:
            raise BrokenPipeError
        self.writes -= 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "bfile"])
def test_writer_reads_records_only_as_it_writes_them(fmt):
    read = 0

    def records():
        nonlocal read
        for k in range(1, 1000):
            read += 1
            yield output.scalar_record("family_nines", k, 2 * 10**k - 2)

    with pytest.raises(BrokenPipeError):
        output.write_records(records(), fmt, _ClosingStream(2))
    assert read <= 3


@pytest.mark.parametrize("fmt", ["csv", "bfile"])
def test_mixed_stream_writes_the_first_kind_then_fails(fmt):
    hits = [output.hit_record(h) for h in HITS[:2]]
    recs = hits + [output.scalar_record("v", 198, 18), output.hit_record(HITS[2])]
    buf = io.StringIO()
    with pytest.raises(HeterogeneousRecords) as info:
        output.write_records(iter(recs), fmt, buf)
    assert buf.getvalue() == render(hits, fmt)
    assert str(info.value) == (
        f"{fmt} output needs records of a single kind, got ['scalar', 'v_palindrome']"
    )


class _Sink:
    def write(self, text):
        return len(text)


def test_csv_holds_one_record_at_a_time():
    count = 10**5

    def hits():
        for n in range(count):
            yield output.hit_record(VPalindromeHit(n, n + 1, n + 2, 10))

    # a list of the records holds at least their dicts
    as_list = count * sys.getsizeof(next(hits()))
    tracemalloc.start()
    try:
        output.write_records(hits(), "csv", _Sink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < as_list / 20
