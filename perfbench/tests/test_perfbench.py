"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CHECKPOINT, Step, Workload  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(digests=None):
    """Every step kind the real workloads use, on a tiny input."""
    def anchors(label, hi):
        return Step(label, ("anchors", "--from", "1", "--to", str(hi), "--checkpoint",
                            CHECKPOINT, "--threads", "1", "--format", "jsonl"),
                    "anchors", {"lo": 1, "hi": hi})
    steps = (
        Step("enumerate", ("enumerate", "--lo", "1", "--hi", "3000", "--format",
                           "jsonl", "--threads", "2"),
             "enumerate", {"lo": 1, "hi": 3000}),
        Step("verify", ("verify", "--bound", "2000", "--threads", "1", "--format",
                        "jsonl"), "verify", {"bound": 2000}),
        anchors("anchors-fresh", 20),
        anchors("anchors-resume", 25),
        Step("heuristic", ("heuristic", "--from", "1", "--to", "25", "--format",
                           "jsonl"), "heuristic", {"hi": 25}),
    )
    return Workload("tiny", 0, steps, 3000, digests or {})


@pytest.fixture(scope="module")
def oracles():
    return checks.load_oracles()


def _units(declared):
    return {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(oracles, trace, section):
    _meta, line = run.run(tiny(), 0, trace, oracles)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == _units(BENCH[section])
    for m in line["metrics"].values():
        assert isinstance(m["value"], (int, float))
        # an end-to-end metric that can read 0 has no share to bound
        assert trace or m["value"] > 0


def test_wrong_pinned_digest_counts_as_a_failure(oracles):
    _meta, line = run.run(tiny({"verify": "0" * 64}), 0, False, oracles)
    assert line["attempted"] == 1
    assert line["failed"] == 1
    assert line["correct"] is False
    assert line["metrics"]["ops_ok_ratio"]["value"] == 0.0


def test_oracle_rejects_a_tampered_hit(oracles):
    good = ('{"kind": "v_palindrome", "n": 18, "reversal": 81, "shared_v": 7, '
            '"base": 10}\n')
    params = {"lo": 1, "hi": 100}
    assert checks.check_enumerate(good, params, oracles) == []
    for bad in (good.replace('"shared_v": 7', '"shared_v": 8'),
                good.replace('"reversal": 81', '"reversal": 18')):
        assert checks.check_enumerate(bad, params, oracles)


def test_traced_counts_repeat_exactly(oracles):
    counted = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "B")]
    first = run.run(tiny(), 0, True, oracles)[1]["metrics"]
    second = run.run(tiny(), 0, True, oracles)[1]["metrics"]
    assert {k: first[k]["value"] for k in counted} == \
        {k: second[k]["value"] for k in counted}
    assert all(isinstance(first[k]["value"], int) for k in counted)
    assert first["digits.reverse.calls"]["value"] > 0
    assert first["arith.is_prime.calls"]["value"] == 2 * (20 + 5)


def test_workloads_pin_a_digest_for_every_step_and_seed():
    for name in workloads.NAMES:
        for seed in (0, 1, 7, 12345):
            wl = workloads.build(name, seed)
            assert set(wl.digests) == {s.label for s in wl.steps}


def test_missing_output_fails_the_digest(oracles):
    """Output that went missing passes the oracle re-checks (there is no
    hit left to re-check) but not the pinned digest."""
    wl = workloads.build("enum-dense")
    empty = {"rc": 0, "error": None, "stderr": "",
             "sha256": hashlib.sha256(b"").hexdigest()}
    problems = checks.check_invocations(wl, [{"steps": [empty]}],
                                        {empty["sha256"]: ""}, oracles)
    assert problems[0] and "pinned" in problems[0][0]


def test_traced_run_makes_at_least_three_pairs(oracles):
    meta, _line = run.run(tiny(), 0, True, oracles)
    assert len(meta["traced_wall_s"]) == len(meta["untraced_wall_s"]) >= 3


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "enum-dense", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
