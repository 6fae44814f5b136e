"""Runs one workload in a fresh interpreter and reports what it measured.

Usage: python3 worker.py SPEC_JSON

The spec names the steps (CLI argv lists), how long to keep invoking them,
whether to trace, and a scratch directory for checkpoints.  The worker calls
``vpal.cli.main`` in-process in a closed loop (one caller; the next
invocation starts when the previous one returns), captures each step's
stdout, and prints one JSON object on its real stdout.
"""

import hashlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import vpal.cli
from tracing import Tracer, per_layer
from workloads import CHECKPOINT


class Capture(io.StringIO):
    """stdout stand-in that remembers when it was first written to."""

    def __init__(self):
        super().__init__()
        self.first = None

    def write(self, s):
        if self.first is None:
            self.first = perf_counter()
        return super().write(s)


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def invoke(steps, checkpoint, tracer=None):
    """One workload invocation: every step in order, stdout captured."""
    outs = []
    first = None
    real_stdout, real_stderr = sys.stdout, sys.stderr
    cpu0 = _cpu_s()
    start = perf_counter()
    for argv in steps:
        argv = [checkpoint if a == CHECKPOINT else a for a in argv]
        out, err = Capture(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        rc, error = None, None
        span = tracer.open("cli.main") if tracer is not None else None
        try:
            rc = vpal.cli.main(argv)
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception:
            error = traceback.format_exc()
        finally:
            if span is not None:
                tracer.close(span)
            sys.stdout, sys.stderr = real_stdout, real_stderr
        if first is None and out.first is not None:
            first = out.first
        outs.append({"rc": rc, "error": error, "stderr": err.getvalue()[-2000:],
                     "text": out.getvalue()})
    end = perf_counter()
    return {
        "wall_s": end - start,
        "first_record_s": (end if first is None else first) - start,
        "cpu_s": _cpu_s() - cpu0,
        "steps": outs,
    }


# The reference loop trial-divides the odd numbers below this bound; it
# takes about 0.2 s on a 2-vCPU VM at 2.0 GHz.
REFERENCE_LIMIT = 100_000


def reference_s():
    """Wall time of a fixed pure-Python loop, the unit of the time metrics.

    On a shared 2-vCPU VM, the speed of the same code changed by up to
    1.7x from one minute to the next.  Timed next to each invocation, this
    loop slows with it, so an invocation's time over the loop's moves far
    less than its time in seconds (see README, Noise).
    """
    start = perf_counter()
    total = 0
    for n in range(3, REFERENCE_LIMIT, 2):
        m, d = n, 3
        while d * d <= m:
            if m % d:
                d += 2
            else:
                m //= d
        total += m
    if total != 580990199:
        raise RuntimeError(f"reference loop summed to {total}")
    return perf_counter() - start


# Traced runs make at least this many (untraced, traced) pairs, even past
# the time budget, so the tracing overhead is not one pair's difference.
MIN_PAIRS = 3


def _keep_going(started, seconds, last):
    # Start another round only if it should end no more than half a round
    # past the budget, so the count per run rarely flips.
    return perf_counter() - started + 0.5 * last < seconds


def _summarize(inv, checkpoint, texts):
    """Replace step texts by digests; keep one copy of each distinct text."""
    for step in inv["steps"]:
        text = step.pop("text")
        digest = hashlib.sha256(text.encode()).hexdigest()
        texts.setdefault(digest, text)
        step["sha256"] = digest
    if checkpoint is not None:
        inv["checkpoint"] = checkpoint
    return inv


def measure(spec):
    """Invoke the steps in a closed loop for ``spec["seconds"]``.

    The reference loop runs before the first invocation and after each one;
    an invocation's ``ref_s`` is the mean of the two it sits between.

    Traced, each round is a pair of invocations at one thread, one untraced
    and one traced, the untraced one first in even rounds and last in odd
    ones; counts come from the traced ones, and the pairs give the tracing
    overhead.
    """
    steps, seconds, tmp, trace = (spec[k]
                                  for k in ("steps", "seconds", "tmp", "trace"))
    uses_ckpt = any(CHECKPOINT in argv for argv in steps)
    texts, invocations = {}, []
    out = {"invocations": invocations, "texts": texts}
    if trace:
        out.update(layers=[], spans=None, untraced_wall_s=[], traced_wall_s=[])
    started = perf_counter()
    last = 0.0
    rounds = 0
    ref = reference_s()
    while (not invocations or (trace and rounds < MIN_PAIRS)
           or _keep_going(started, seconds, last)):
        round_start = perf_counter()
        order = (False, True) if rounds % 2 == 0 else (True, False)
        for traced in (order if trace else (False,)):
            ckpt = None
            if uses_ckpt:
                ckpt = os.path.join(tmp, f"ckpt-{len(invocations)}.jsonl")
            if traced:
                tracer = Tracer()
                with tracer.installed():
                    inv = invoke(steps, ckpt, tracer)
                out["layers"].append(_layer_metrics(tracer, inv, ckpt))
                out["spans"] = out["spans"] or tracer.dump()
                out["traced_wall_s"].append(inv["wall_s"])
            else:
                inv = invoke(steps, ckpt)
                if trace:
                    out["untraced_wall_s"].append(inv["wall_s"])
            after = reference_s()
            inv["ref_s"] = (ref + after) / 2
            ref = after
            invocations.append(_summarize(inv, ckpt, texts))
        last = perf_counter() - round_start
        rounds += 1
    return out


def _layer_metrics(tracer, inv, ckpt):
    texts = [step["text"] for step in inv["steps"]]
    layer = per_layer(tracer, sum(t.count("\n") for t in texts),
                      sum(len(t.encode()) for t in texts))
    layer["anchors.ckpt_bytes"] = (
        os.path.getsize(ckpt) if ckpt and os.path.exists(ckpt) else 0)
    return layer


def main(argv):
    spec = json.loads(argv[0])
    src = Path(vpal.cli.__file__).resolve().parents[1]
    if src != Path(spec["src"]).resolve():
        raise SystemExit(f"imported vpal from {src}, expected {spec['src']}")
    result = measure(spec)
    import numpy
    result.update(
        peak_rss_mb=_peak_rss_mb(),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
