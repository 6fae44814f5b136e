"""Output checks: pinned digests plus re-checks with the naive oracles.

The oracles live in the repository's ``tests/_oracles.py`` and share no code
with vpal.  Every check returns a list of problems instead of raising, so a
wrong output is counted as a failed invocation and the run goes on.
"""

import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Anchors up to this size are re-checked by full trial division.
_TRIAL_LIMIT = 10**10


def load_oracles(root: Path = ROOT):
    path = root / "tests" / "_oracles.py"
    spec = importlib.util.spec_from_file_location("_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_enumerate(text, params, oracles):
    lo, hi = params["lo"], params["hi"]
    problems = []
    prev = lo - 1
    for rec in _jsonl(text):
        n, r, shared = rec.get("n"), rec.get("reversal"), rec.get("shared_v")
        if rec.get("kind") != "v_palindrome" or rec.get("base") != 10:
            problems.append(f"unexpected record {rec}")
            continue
        if not prev < n <= hi:
            problems.append(f"n={n} out of order or outside [{lo}, {hi}]")
        prev = n
        if n % 10 == 0 or r != oracles.oracle_reverse(n) or r == n:
            problems.append(f"n={n}: reversal {r} is wrong or a fixed point")
        elif not oracles.oracle_v(n) == oracles.oracle_v(r) == shared:
            problems.append(f"n={n}: v(n), v(r) and shared_v {shared} differ")
    return problems


def check_verify(text, params, oracles):
    recs = _jsonl(text)
    if len(recs) != 1 or recs[0].get("kind") != "verification":
        return [f"expected one verification record, got {len(recs)} records"]
    rec = recs[0]
    problems = []
    if rec.get("bound") != params["bound"]:
        problems.append(f"bound {rec.get('bound')} != {params['bound']}")
    if rec.get("consistent") is not True:
        problems.append("verify did not report consistent")
    if rec.get("brute_force_hits") != rec.get("characterization_hits"):
        problems.append("brute-force and characterization hit lists differ")
    for p in rec.get("brute_force_hits") or []:
        if not (p <= params["bound"] and oracles.trial_is_prime(p)
                and oracles.oracle_v(oracles.oracle_reverse(p)) == p):
            problems.append(f"{p} is not a prime v-palindrome below the bound")
    return problems


def _status_ok(status, certainty, value, oracles):
    if status not in ("prime", "composite", "probable_prime"):
        return False
    if (status == "probable_prime") != (certainty > 0):
        return False
    if value <= _TRIAL_LIMIT:
        return (status == "prime") == oracles.trial_is_prime(value)
    return True


def check_anchors(text, params, oracles):
    recs = _jsonl(text)
    problems = []
    lo, hi = params["lo"], params["hi"]
    if [r.get("m") for r in recs] != list(range(lo, hi + 1)):
        return [f"anchor records do not cover m = {lo}..{hi} in order"]
    for rec in recs:
        m = rec["m"]
        p, q = 5 * 10**m - 1, 5 * 10**m - 3
        if rec.get("kind") != "anchor" or rec.get("p") != p or rec.get("q") != q:
            problems.append(f"m={m}: wrong anchor pair")
            continue
        if not (_status_ok(rec["p_status"], rec["p_certainty"], p, oracles)
                and _status_ok(rec["q_status"], rec["q_certainty"], q, oracles)):
            problems.append(f"m={m}: primality verdict fails the oracle")
        meets = m >= 4
        cand = meets and "composite" not in (rec["p_status"], rec["q_status"])
        if rec.get("meets_floor") != meets or rec.get("is_candidate") != cand:
            problems.append(f"m={m}: floor or candidate flag is wrong")
    return problems


def check_checkpoint(path, lo, hi):
    """Header plus one result for each m in lo..hi, written by the two
    anchors steps together."""
    lines = [json.loads(s) for s in Path(path).read_text().splitlines() if s.strip()]
    if not lines or lines[0].get("record") != "header":
        return [f"checkpoint {path} has no header"]
    ms = sorted(rec.get("m") for rec in lines[1:])
    if ms != list(range(lo, hi + 1)):
        return [f"checkpoint holds {len(ms)} results, not m = {lo}..{hi} once each"]
    return []


def check_heuristic(text, params, oracles):
    recs = _jsonl(text)
    hi = params["hi"]
    if len(recs) != hi + 1:
        return [f"expected {hi + 1} heuristic records, got {len(recs)}"]
    problems = []
    prev = 0.0
    for n, rec in enumerate(recs[:-1], start=1):
        expected = 1.0 / math.log(5 * 10**n - 3) ** 2
        if rec.get("kind") != "heuristic_term" or rec.get("n") != n:
            problems.append(f"record {n} is not the term for n={n}")
        elif not math.isclose(rec["probability"], expected, rel_tol=1e-12):
            problems.append(f"n={n}: probability {rec['probability']} != {expected}")
        elif not math.isclose(rec["envelope"], 100.0 / n**2, rel_tol=1e-15):
            problems.append(f"n={n}: envelope term is wrong")
        elif not rec["partial_sum"] > prev:
            problems.append(f"n={n}: partial sums do not increase")
        else:
            prev = rec["partial_sum"]
    summary = recs[-1]
    if (summary.get("kind") != "heuristic_summary" or summary.get("N") != hi
            or summary.get("partial_sum") != prev
            or not math.isclose(summary.get("tail_bound", 0), 100.0 / hi)):
        problems.append("summary record disagrees with the terms")
    return problems


CHECKERS = {
    "enumerate": check_enumerate,
    "verify": check_verify,
    "anchors": check_anchors,
    "heuristic": check_heuristic,
}


def check_invocations(workload, invocations, texts, oracles):
    """Problems per invocation, in order; an empty list means it passed.

    Each distinct output is re-checked with the oracles once, since equal
    digests mean equal bytes.
    """
    verdicts = {}
    results = []
    for inv in invocations:
        problems = []
        for step, got in zip(workload.steps, inv["steps"]):
            try:
                problems += _check_step(step, got, workload.digests, texts,
                                        verdicts, oracles)
            except Exception as exc:  # a malformed output must not stop the run
                problems.append(f"{step.label}: check raised {exc!r}")
        if "checkpoint" in inv:
            try:
                ranges = [(s.params["lo"], s.params["hi"])
                          for s in workload.steps if s.check == "anchors"]
                problems += check_checkpoint(inv["checkpoint"],
                                             min(r[0] for r in ranges),
                                             max(r[1] for r in ranges))
            except Exception as exc:
                problems.append(f"checkpoint check raised {exc!r}")
        results.append(problems)
    return results


def _check_step(step, got, digests, texts, verdicts, oracles):
    label = step.label
    if got["error"] is not None or got["rc"] != 0:
        return [f"{label}: exit {got['rc']} {got['error'] or got['stderr']}".strip()]
    problems = []
    pinned = digests.get(label)
    if pinned is not None and got["sha256"] != pinned:
        problems.append(f"{label}: stdout sha256 {got['sha256'][:12]} "
                        f"!= pinned {pinned[:12]}")
    key = (label, got["sha256"])
    if key not in verdicts:
        verdicts[key] = [f"{label}: {p}" for p in
                         CHECKERS[step.check](texts[got["sha256"]], step.params,
                                              oracles)]
    return problems + verdicts[key]
