"""Command-line front end.

Each subcommand returns its records and vpal.output writes them to stdout:
as a human-readable table by default, or in the jsonl/csv/bfile machine
format that --format names.  Diagnostics go to stderr.
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
from .digits import reverse
from .errors import (
    BudgetExceeded,
    CheckpointCorrupt,
    DomainError,
    HeterogeneousRecords,
)
from .heuristic import DEFAULT_C, expected_count
from .palindromes import (
    enumerate_v_palindromes,
    family_nines,
    family_repeat18,
    reversal_and_hit,
)


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


def _cmd_v(args):
    return [output.scalar_record("v", args.n, v(args.n, _setting(args, "budget")))]


def _cmd_reverse(args):
    value = reverse(args.n, args.base)
    return [output.scalar_record("reverse", args.n, value, base=args.base)]


def _cmd_check(args):
    rev, hit = reversal_and_hit(args.n, args.base, _setting(args, "budget"))
    if args.n % args.base == 0:
        rev = None
    return [output.check_record(args.n, args.base, rev, hit)]


def _cmd_enumerate(args):
    if args.hi < args.lo:
        raise DomainError(f"empty range [{args.lo}, {args.hi}]")
    mode = "canonical" if args.canonical else "all"
    hits = enumerate_v_palindromes(
        args.lo, args.hi, base=args.base, mode=mode, workers=_resolve_threads(args)
    )
    return map(output.hit_record, hits)


def _cmd_family(args):
    fn = family_nines if args.name == "nines" else family_repeat18
    return [output.scalar_record(f"family_{args.name}", args.k, fn(args.k))]


def _cmd_anchors(args):
    results = search_anchors(
        args.m_lo,
        args.m_hi,
        rounds=_setting(args, "rounds", DEFAULT_ROUNDS),
        checkpoint_path=args.checkpoint,
        workers=_resolve_threads(args),
    )
    return map(output.anchor_record, results)


def _cmd_verify(args):
    rep = verify_characterization(
        args.bound,
        workers=_resolve_threads(args),
        rounds=_setting(args, "rounds", DEFAULT_ROUNDS),
    )
    return [output.verification_record(rep)]


def _cmd_heuristic(args):
    C = DEFAULT_C if args.C is None else args.C
    rep = expected_count(args.n_start, args.n_end, C)
    records = (output.heuristic_term_record(n, C, *row) for n, *row in rep.rows())
    if args.format == "csv":
        # csv stays homogeneous: the totals ride along in the term rows
        return records
    return itertools.chain(records, [output.heuristic_summary_record(rep)])


def _cmd_export(args):
    """The records of the --input jsonl file (stdin if none), read as the
    writer asks for them; only a failure to read is a "cannot read"."""
    path = args.input
    name = "stdin" if path is None else path
    try:
        with nullcontext(sys.stdin) if path is None else open(path, encoding="utf-8") as f:
            yield from output.read_jsonl(f)
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {name}: {exc}") from exc


def _add_format(parser, choices=output.FORMATS):
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
    _add_format(p, output.FORMATS[:3])  # none of its records has a bfile value
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
    _add_format(p, output.FORMATS[:3])
    p.set_defaults(func=_cmd_anchors)

    p = sub.add_parser("verify", help="brute force vs. anchor characterization")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    _add_format(p, output.FORMATS[:3])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("heuristic", help="expected-count partial sums")
    p.add_argument("--from", dest="n_start", type=int, required=True)
    p.add_argument("--to", dest="n_end", type=int, required=True)
    p.add_argument("--C", type=float, default=None)
    _add_format(p, output.FORMATS[:3])
    p.set_defaults(func=_cmd_heuristic)

    p = sub.add_parser("export", help="convert a jsonl record stream")
    p.add_argument("--format", choices=output.FORMATS[1:], required=True)
    p.add_argument("--input", default=None, help="jsonl file (default: stdin)")
    p.set_defaults(func=_cmd_export)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        output.write_records(args.func(args), args.format, sys.stdout)
        # flush here so a closed pipe surfaces inside this try
        sys.stdout.flush()
        return 0
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
