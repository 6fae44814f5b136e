"""Command-line front end.

Data goes to stdout, diagnostics to stderr.  The default output format is a
human-readable table; --format switches to jsonl/csv/bfile machine formats.
Exit codes: 0 success, 1 domain error, 2 budget, checkpoint or usage failure.
Configuration precedence is flags > environment (VPAL_THREADS, VPAL_ROUNDS,
VPAL_BUDGET) > defaults.
"""

import argparse
import itertools
import os
import sys
from contextlib import nullcontext

from . import output
from .anchors import search_anchors, verify_characterization
from .arith import DEFAULT_ROUNDS, v
from .digits import decimal_str, reverse
from .errors import (
    BudgetExceeded,
    CheckpointCorrupt,
    DomainError,
    HeterogeneousRecords,
)
from .heuristic import DEFAULT_C, envelope_term, expected_count
from .palindromes import (
    enumerate_v_palindromes,
    family_nines,
    family_repeat18,
    reversal_and_hit,
)

_FORMATS = ("table", "jsonl", "csv", "bfile")


def _setting(args, name: str, default=None):
    """The --name flag if given, else the integer in VPAL_<NAME> if set and
    nonempty, else default."""
    value = getattr(args, name)
    if value is not None:
        return value
    env = f"VPAL_{name.upper()}"
    raw = os.environ.get(env, "")
    if raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"environment variable {env} must be an integer, got {raw!r}")


def _resolve_threads(args) -> int:
    value = _setting(args, "threads", os.cpu_count() or 1)
    if value < 1:
        raise DomainError(f"thread count must be >= 1, got {value}")
    return value


def _emit(records, fmt: str, human_lines) -> None:
    """Write records in the machine format, or the prepared human lines."""
    if fmt == "table":
        for line in human_lines:
            print(line)
    else:
        output.write_records(records, fmt, sys.stdout)


def _cmd_v(args) -> int:
    value = v(args.n, _setting(args, "budget"))
    _emit([output.scalar_record("v", args.n, value)], args.format, [str(value)])
    return 0


def _cmd_reverse(args) -> int:
    value = reverse(args.n, args.base)
    _emit(
        [output.scalar_record("reverse", args.n, value, base=args.base)],
        args.format,
        [str(value)],
    )
    return 0


def _cmd_check(args) -> int:
    rev, hit = reversal_and_hit(args.n, args.base, _setting(args, "budget"))
    if args.n % args.base == 0:
        rev = None
    if hit is not None:
        line = (
            f"{args.n} is a v-palindrome in base {args.base}: "
            f"reversal {hit.reversal}, shared v {hit.shared_v}"
        )
    else:
        line = f"{args.n} is not a v-palindrome in base {args.base}"
    _emit([output.check_record(args.n, args.base, rev, hit)], args.format, [line])
    return 0


def _cmd_enumerate(args) -> int:
    mode = "canonical" if args.canonical else "all"
    hits = enumerate_v_palindromes(
        args.lo, args.hi, base=args.base, mode=mode, workers=_resolve_threads(args)
    )
    # both views draw on the one stream of hits; _emit consumes only one
    _emit((output.hit_record(h) for h in hits), args.format, (h.n for h in hits))
    return 0


def _cmd_family(args) -> int:
    fn = family_nines if args.name == "nines" else family_repeat18
    value = fn(args.k)
    _emit(
        [output.scalar_record(f"family_{args.name}", args.k, value)],
        args.format,
        [decimal_str(value)],
    )
    return 0


def _cmd_anchors(args) -> int:
    results = search_anchors(
        args.m_lo,
        args.m_hi,
        rounds=_setting(args, "rounds", DEFAULT_ROUNDS),
        checkpoint_path=args.checkpoint,
        workers=_resolve_threads(args),
    )
    lines = [
        f"m={r.m} p={decimal_str(r.p)} [{r.p_verdict.status}] "
        f"q={decimal_str(r.q)} [{r.q_verdict.status}] "
        f"candidate={'yes' if r.is_candidate else 'no'}"
        for r in results
    ]
    _emit([output.anchor_record(r) for r in results], args.format, lines)
    return 0


def _cmd_verify(args) -> int:
    rep = verify_characterization(
        args.bound,
        workers=_resolve_threads(args),
        rounds=_setting(args, "rounds", DEFAULT_ROUNDS),
    )
    lines = [
        f"bound={rep.bound}",
        f"brute_force_hits={rep.brute_force_hits}",
        f"characterization_hits={rep.characterization_hits}",
        f"consistent={'yes' if rep.consistent else 'no'}",
    ]
    _emit([output.verification_record(rep)], args.format, lines)
    return 0


def _cmd_heuristic(args) -> int:
    C = DEFAULT_C if args.C is None else args.C
    rep = expected_count(args.n_start, args.n_end, C)
    records = (
        output.heuristic_term_record(n, C, term, envelope_term(n, C), partial, envelope)
        for n, term, partial, envelope in zip(
            range(rep.n_start, rep.N + 1), rep.terms, rep.partial_sums, rep.envelope_sums
        )
    )
    # both views draw on the one stream of records; _emit consumes only one
    lines = itertools.chain(
        (f"n={rec['n']} probability={rec['probability']!r} envelope={rec['envelope']!r}"
         for rec in records),
        [
            f"partial_sum={rep.partial_sum!r}",
            f"envelope_sum={rep.envelope_sum!r}",
            f"tail_bound={rep.tail_bound!r}",
        ],
    )
    if args.format == "jsonl":
        # csv stays homogeneous: the totals ride along in the term rows
        records = itertools.chain(records, [output.heuristic_summary_record(rep)])
    _emit(records, args.format, lines)
    return 0


def _export_input(path):
    """The records of the jsonl file at path (stdin if None), read as the
    writer asks for them; only a failure to read is a "cannot read"."""
    name = "stdin" if path is None else path
    try:
        with nullcontext(sys.stdin) if path is None else open(path, encoding="utf-8") as f:
            yield from output.read_jsonl(f)
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {name}: {exc}") from exc


def _cmd_export(args) -> int:
    output.write_records(_export_input(args.input), args.format, sys.stdout)
    return 0


def _add_format(parser, choices=_FORMATS):
    parser.add_argument(
        "--format", choices=choices, default="table", help="output format"
    )


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vpal", description="Arithmetic of v-palindromes."
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("v", help="additive function v of N")
    p.add_argument("n", type=int)
    p.add_argument("--budget", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_v)

    p = sub.add_parser("reverse", help="digit reversal of N")
    p.add_argument("n", type=int)
    p.add_argument("--base", type=int, default=10)
    _add_format(p)
    p.set_defaults(func=_cmd_reverse)

    p = sub.add_parser("check", help="test whether N is a v-palindrome")
    p.add_argument("n", type=int)
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--budget", type=int, default=None)
    _add_format(p, _FORMATS[:3])  # none of its records has a bfile value
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", help="v-palindromes in a range")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--base", type=int, default=10)
    p.add_argument(
        "--canonical", action="store_true", help="keep only hits with n < reversal"
    )
    p.add_argument("--threads", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("family", help="member of an infinite family")
    p.add_argument("name", choices=("nines", "repeat18"))
    p.add_argument("--k", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("anchors", help="twin-prime anchor search")
    p.add_argument("--from", dest="m_lo", type=int, required=True)
    p.add_argument("--to", dest="m_hi", type=int, required=True)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--threads", type=int, default=None)
    _add_format(p, _FORMATS[:3])
    p.set_defaults(func=_cmd_anchors)

    p = sub.add_parser("verify", help="brute force vs. anchor characterization")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    _add_format(p, _FORMATS[:3])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("heuristic", help="expected-count partial sums")
    p.add_argument("--from", dest="n_start", type=int, required=True)
    p.add_argument("--to", dest="n_end", type=int, required=True)
    p.add_argument("--C", type=float, default=None)
    _add_format(p, _FORMATS[:3])
    p.set_defaults(func=_cmd_heuristic)

    p = sub.add_parser("export", help="convert a jsonl record stream")
    p.add_argument("--format", choices=_FORMATS[1:], required=True)
    p.add_argument("--input", default=None, help="jsonl file (default: stdin)")
    p.set_defaults(func=_cmd_export)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # flush here so a closed pipe surfaces inside this try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`vpal enumerate ... | head`): point stdout at
        # devnull so the interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (DomainError, HeterogeneousRecords) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceeded, CheckpointCorrupt) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
