"""Spans and call counters around the calls between vpal's modules.

The tracer replaces, for the duration of ``installed()``, the names that one
vpal module imported from another (``palindromes.v``, ``anchors.is_prime``,
``cli.search_anchors`` and so on).  Coarse calls get a span (name, start,
end, parent); hot leaf calls get only a call count and summed time, charged
to the enclosing span so that self times stay right.  Nothing inside vpal
is edited: everything here wraps the calls from outside.

Forked pool workers do not report back, so a traced run must use one
thread.
"""

import os
from contextlib import contextmanager
from time import perf_counter

import vpal.anchors
import vpal.cli
import vpal.output
import vpal.palindromes


class Tracer:
    def __init__(self):
        # spans: [name, start, end, parent index or -1]
        self.spans = []
        self.leaf_s = []          # per span: time of leaf calls directly inside
        self.stack = []
        self.calls = {}           # leaf name -> [count, seconds]
        self.counts = {}          # named counters set by result hooks

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.leaf_s.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def span(self, name, fn, hook=None):
        """Wrap fn so each call is a span; ``name`` may be a function of
        the call's arguments."""
        def traced(*args, **kwargs):
            idx = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(out, *args, **kwargs)
            return out
        return traced

    def generator_span(self, name, fn, hook=None):
        """Wrap a generator function: each resume of the generator is a
        span, because its work runs inside whoever consumes it."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)

            def resumes():
                while True:
                    idx = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    if hook is not None:
                        hook(item)
                    yield item
            return resumes()
        return traced

    def leaf(self, name, fn, hook=None):
        stat = self.calls.setdefault(name, [0, 0.0])
        stack, leaf_s = self.stack, self.leaf_s

        def traced(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            stat[0] += 1
            stat[1] += dt
            if stack:
                leaf_s[stack[-1]] += dt
            if hook is not None:
                hook(out, *args)
            return out
        return traced

    # --- results -----------------------------------------------------

    def span_totals(self):
        """name -> [count, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            tot = out.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += end - start
            tot[2] += end - start - child[i] - self.leaf_s[i]
        return out

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]

    # --- patching ----------------------------------------------------

    def _replacements(self):
        pal, anc, cli, out = vpal.palindromes, vpal.anchors, vpal.cli, vpal.output

        def v_segment_scanned(table, lo, hi):
            self.count("palindromes.scanned", max(0, hi - lo + 1))

        def verdict(result, *args):
            if result.status == "composite":
                self.count("arith.is_prime.composite")

        def candidates(results, *args, **kwargs):
            self.count("anchors.candidates", sum(r.is_candidate for r in results))

        def search_kind(*args, checkpoint_path=None, **kwargs):
            resumed = checkpoint_path is not None and os.path.exists(checkpoint_path) \
                and os.path.getsize(checkpoint_path) > 0
            return "anchors.resume" if resumed else "anchors.fresh"

        def hit(item):
            self.count("palindromes.hits")

        reverse = self.leaf("digits.reverse", pal.reverse)
        v = self.leaf("arith.v", pal.v)
        return [
            (pal, "reverse", reverse),
            (pal, "v", v),
            (pal, "v_segment", self.span("arith.v_segment", pal.v_segment,
                                         v_segment_scanned)),
            (anc, "reverse", reverse),
            (anc, "v", v),
            (anc, "is_prime", self.leaf("arith.is_prime", anc.is_prime, verdict)),
            (anc, "spf_sieve", self.span("arith.spf_sieve", anc.spf_sieve)),
            (anc, "v_with_table", self.leaf("arith.v_with_table", anc.v_with_table)),
            (out, "write_records", self.span("output.write", out.write_records)),
            (cli, "enumerate_v_palindromes",
             self.generator_span("palindromes.enumerate",
                                 cli.enumerate_v_palindromes, hit)),
            (cli, "search_anchors",
             self.span(search_kind, cli.search_anchors, candidates)),
            (cli, "verify_characterization",
             self.span("anchors.verify", cli.verify_characterization)),
            (cli, "expected_count",
             self.span("heuristic.expected_count", cli.expected_count)),
        ]

    @contextmanager
    def installed(self):
        """Route the traced names through this tracer, then restore them."""
        patches = self._replacements()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, fn in patches:
                setattr(mod, attr, fn)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer: Tracer, records: int, nbytes: int) -> dict:
    """The per-layer metrics of one traced invocation, by name."""
    spans = tracer.span_totals()
    calls = tracer.calls
    counts = tracer.counts

    def leaf(name):
        return calls.get(name, [0, 0.0])

    def span(name):
        return spans.get(name, [0, 0.0, 0.0])

    rev, v, vt, ip = (leaf(n) for n in ("digits.reverse", "arith.v",
                                        "arith.v_with_table", "arith.is_prime"))
    hits = counts.get("palindromes.hits", 0)
    return {
        "digits.reverse.calls": rev[0],
        "digits.reverse.s": rev[1],
        "arith.v.calls": v[0],
        "arith.v.s": v[1],
        "arith.v_segment.calls": span("arith.v_segment")[0],
        "arith.v_segment.s": span("arith.v_segment")[1],
        "arith.spf_sieve.s": span("arith.spf_sieve")[1],
        "arith.v_with_table.calls": vt[0],
        "arith.v_with_table.s": vt[1],
        "arith.is_prime.calls": ip[0],
        "arith.is_prime.s": ip[1],
        "arith.is_prime.composite_ratio":
            _ratio(counts.get("arith.is_prime.composite", 0), ip[0]),
        "palindromes.scanned": counts.get("palindromes.scanned", 0),
        "palindromes.hits": hits,
        "palindromes.self_s": span("palindromes.enumerate")[2],
        "palindromes.v_outside_ratio": _ratio(v[0], rev[0]),
        "palindromes.hit_ratio": _ratio(hits, v[0]),
        "anchors.candidates": counts.get("anchors.candidates", 0),
        "anchors.fresh.self_s": span("anchors.fresh")[2],
        "anchors.resume.self_s": span("anchors.resume")[2],
        "anchors.verify.self_s": span("anchors.verify")[2],
        "heuristic.expected_count.s": span("heuristic.expected_count")[1],
        "output.records": records,
        "output.bytes": nbytes,
        "output.write.s": span("output.write")[2],
        "cli.self_s": span("cli.main")[2],
    }
