"""Structured output records and the table/jsonl/csv/bfile serializers.

Every record is a flat dict with "schema_version" and "kind" keys.  table
and jsonl streams may mix kinds; csv and bfile require a homogeneous stream.
Integers are rendered as full decimal strings in every format and floats
with repr precision, so the machine formats round-trip losslessly.
"""

import csv
import json
import math

from .anchors import AnchorResult, VerificationReport
from .digits import decimal_str, from_decimal
from .errors import DomainError, HeterogeneousRecords
from .heuristic import HeuristicReport
from .palindromes import VPalindromeHit

SCHEMA_VERSION = "1"
# The human-readable table first and bfile last: the CLI offers slices.
FORMATS = ("table", "jsonl", "csv", "bfile")

# The fields of each record kind, in record (and csv column) order.
_FIELDS = {
    "v_palindrome": ("n", "reversal", "shared_v", "base"),
    "check": ("n", "base", "is_v_palindrome", "reversal", "shared_v"),
    "scalar": ("operation", "operand", "base", "value"),
    "anchor": ("m", "p", "q", "p_status", "p_certainty", "q_status",
               "q_certainty", "meets_floor", "is_candidate"),
    "verification": ("bound", "brute_force_hits", "characterization_hits",
                     "consistent"),
    "heuristic_term": ("n", "C", "probability", "envelope", "partial_sum",
                       "envelope_partial_sum"),
    "heuristic_summary": ("C", "n_start", "N", "partial_sum", "envelope_sum",
                          "tail_bound"),
}

# Field holding the integer a bfile line reports, per kind.
_BFILE_FIELD = {"v_palindrome": "n", "scalar": "value"}

# The table text of each record kind: its lines without the last newline.
_TABLE_LINES = {
    "v_palindrome": lambda r: decimal_str(r["n"]),
    "check": lambda r: (
        f"{r['n']} is a v-palindrome in base {r['base']}: "
        f"reversal {r['reversal']}, shared v {r['shared_v']}"
        if r["is_v_palindrome"]
        else f"{r['n']} is not a v-palindrome in base {r['base']}"),
    "scalar": lambda r: decimal_str(r["value"]),
    "anchor": lambda r: (
        f"m={r['m']} p={decimal_str(r['p'])} [{r['p_status']}] "
        f"q={decimal_str(r['q'])} [{r['q_status']}] "
        f"candidate={'yes' if r['is_candidate'] else 'no'}"),
    "verification": lambda r: (
        f"bound={r['bound']}\nbrute_force_hits={r['brute_force_hits']}\n"
        f"characterization_hits={r['characterization_hits']}\n"
        f"consistent={'yes' if r['consistent'] else 'no'}"),
    "heuristic_term": lambda r: (
        f"n={r['n']} probability={r['probability']!r} envelope={r['envelope']!r}"),
    "heuristic_summary": lambda r: (
        f"partial_sum={r['partial_sum']!r}\nenvelope_sum={r['envelope_sum']!r}\n"
        f"tail_bound={r['tail_bound']!r}"),
}


def _record(kind: str, *values) -> dict:
    """A record of ``kind`` with ``values`` in the order of _FIELDS[kind]."""
    rec = {"schema_version": SCHEMA_VERSION, "kind": kind}
    rec.update(zip(_FIELDS[kind], values, strict=True))
    return rec


def hit_record(hit: VPalindromeHit) -> dict:
    return _record("v_palindrome", hit.n, hit.reversal, hit.shared_v, hit.base)


def check_record(n: int, base: int, reversal, hit) -> dict:
    return _record("check", n, base, hit is not None, reversal,
                   None if hit is None else hit.shared_v)


def scalar_record(operation: str, operand: int, value, base=None) -> dict:
    return _record("scalar", operation, operand, base, value)


def anchor_record(res: AnchorResult) -> dict:
    return _record("anchor", res.m, res.p, res.q, res.p_verdict.status,
                   res.p_verdict.certainty, res.q_verdict.status,
                   res.q_verdict.certainty, res.meets_floor, res.is_candidate)


def verification_record(rep: VerificationReport) -> dict:
    return _record("verification", rep.bound, rep.brute_force_hits,
                   rep.characterization_hits, rep.consistent)


def heuristic_term_record(n: int, C: float, probability: float,
                          envelope: float, partial_sum: float,
                          envelope_partial_sum: float) -> dict:
    return _record("heuristic_term", n, C, probability, envelope, partial_sum,
                   envelope_partial_sum)


def heuristic_summary_record(rep: HeuristicReport) -> dict:
    return _record("heuristic_summary", rep.C, rep.n_start, rep.N,
                   rep.partial_sum, rep.envelope_sum, rep.tail_bound)


def _json_value(value) -> str:
    """json.dumps(value) for a record field, with ints of any size."""
    if isinstance(value, int) and not isinstance(value, bool):
        return decimal_str(value)
    return json.dumps(value)


def _json_line(rec: dict) -> str:
    try:
        return json.dumps(rec)
    except ValueError:
        # an int past the interpreter's str() digit limit
        return "{" + ", ".join(
            f"{json.dumps(k)}: {_json_value(v)}" for k, v in rec.items()
        ) + "}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float) and math.isfinite(value):
        return repr(value)  # the text json.dumps writes, at a third of its cost
    return _json_value(value)


def _row_writer(fmt: str, kind, stream):
    """The function that writes one record of ``kind`` as ``fmt``, given the
    record and its 1-based index; for csv, the header is written now."""
    if fmt == "table":
        def table_lines(index, rec):
            lines = _TABLE_LINES.get(rec.get("kind"))
            if lines is None:
                raise DomainError(
                    f"no table layout for records of kind {rec.get('kind')!r}")
            stream.write(lines(rec) + "\n")
        return table_lines
    if fmt == "jsonl":
        return lambda index, rec: stream.write(_json_line(rec) + "\n")
    if fmt == "csv":
        fields = _FIELDS.get(kind)
        if fields is None:
            raise DomainError(f"no csv layout for records of kind {kind!r}")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(fields)
        return lambda index, rec: writer.writerow([_cell(rec.get(f)) for f in fields])
    field = _BFILE_FIELD.get(kind)
    if field is None:
        raise DomainError(f"records of kind {kind!r} have no bfile value")

    def bfile_line(index, rec):
        value = rec.get(field)
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(f"bfile values must be integers, got {value!r}")
        stream.write(f"{index} {decimal_str(value)}\n")
    return bfile_line


def write_records(records, fmt: str, stream) -> None:
    """Write each record to ``stream`` as it arrives; no record, no output.

    table and jsonl lay out each record by its own kind.  csv and bfile
    (OEIS b-file "index value" lines, 1-based) take their layout from the
    first record's kind, and a later record of another kind raises
    HeterogeneousRecords after the rows before it are written.
    """
    if fmt not in FORMATS:
        raise DomainError(f"unknown output format {fmt!r}")
    for index, rec in enumerate(records, start=1):
        if index == 1:
            kind = rec.get("kind")
            write = _row_writer(fmt, kind, stream)
        elif fmt in ("csv", "bfile") and rec.get("kind") != kind:
            kinds = sorted(map(str, {kind, rec.get("kind")}))
            raise HeterogeneousRecords(
                f"{fmt} output needs records of a single kind, got {kinds}"
            )
        write(index, rec)


def read_jsonl(stream):
    """Parse a jsonl record stream, validating the schema marker."""
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line, parse_int=from_decimal)
        except json.JSONDecodeError as exc:
            raise DomainError(f"line {lineno}: not a json record ({exc})") from exc
        if not isinstance(rec, dict) or "kind" not in rec:
            raise DomainError(f"line {lineno}: not an output record")
        if rec.get("schema_version") != SCHEMA_VERSION:
            raise DomainError(
                f"line {lineno}: unsupported schema_version "
                f"{rec.get('schema_version')!r}"
            )
        yield rec
