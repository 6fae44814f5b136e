"""The benchmark's workloads: the CLI calls each one makes, built from a seed.

A workload invocation is a fixed sequence of ``vpal`` CLI calls ("steps").
Every workload runs fixed ranges and ignores the seed, so the output of
every step is pinned in digests.json and the time metrics of runs with
different seeds measure the same work.  Each invocation is short (about
two seconds on a 2-vCPU VM), so a run takes the median over a dozen or more.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 0

# The checkpoint path is filled in per invocation by the worker.
CHECKPOINT = "{checkpoint}"


@dataclass(frozen=True)
class Step:
    """One CLI call: a label, its argv and the output check it must pass."""

    label: str
    argv: tuple[str, ...]
    check: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    steps: tuple[Step, ...]
    # integers scanned, or anchor indices searched, per invocation
    items: int
    # sha256 of each step's stdout, by label; empty when not pinned
    digests: dict

    def argv_at_one_thread(self, step: Step) -> tuple[str, ...]:
        argv = list(step.argv)
        if "--threads" in argv:
            argv[argv.index("--threads") + 1] = "1"
        return tuple(argv)


def _enumerate(label, lo, hi, threads):
    argv = ("enumerate", "--lo", str(lo), "--hi", str(hi), "--format", "jsonl",
            "--threads", str(threads))
    return Step(label, argv, "enumerate", {"lo": lo, "hi": hi})


def _pinned(name: str):
    return json.loads((HERE / "digests.json").read_text())[name]


def build(name: str, seed: int = DEFAULT_SEED) -> Workload:
    """The workload called ``name``; its inputs do not depend on ``seed``."""
    if name == "enum-dense":
        hi = 15 * 10**4
        steps = (_enumerate("enumerate", 1, hi, threads=1),)
        return Workload(name, seed, steps, hi, _pinned(name))
    if name == "verify-sieve":
        bound = 10**7
        argv = ("verify", "--bound", str(bound), "--threads", "2",
                "--format", "jsonl")
        steps = (Step("verify", argv, "verify", {"bound": bound}),)
        return Workload(name, seed, steps, bound, _pinned(name))
    if name == "anchors-resume":
        # From m = 200, Miller-Rabin on 200- to 300-digit numbers sets the
        # time; from m = 1, the fsync after each of the small anchors made
        # the wall time follow the host's disk (see README, Noise).
        lo = 200

        def anchors(label, hi):
            argv = ("anchors", "--from", str(lo), "--to", str(hi), "--checkpoint",
                    CHECKPOINT, "--threads", "1", "--format", "jsonl")
            return Step(label, argv, "anchors", {"lo": lo, "hi": hi})
        steps = (
            anchors("anchors-fresh", 290),
            anchors("anchors-resume", 300),
            Step("heuristic", ("heuristic", "--from", "1", "--to", "300",
                               "--format", "jsonl"), "heuristic", {"hi": 300}),
        )
        return Workload(name, seed, steps, 300 - lo + 1, _pinned(name))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("enum-dense", "verify-sieve", "anchors-resume")
