"""Byte-identity corpus: the CLI's output for a fixed set of commands,
compared as sha256 digests against tests/golden.json.

Each case runs `python -m vpal` from the source tree as a subprocess in a
fresh directory, once with VPAL_THREADS=1 and once with VPAL_THREADS=2
(a command's own --threads wins), and compares the digests of stdout and
stderr, the exit code, and the digest of the checkpoint file it leaves,
if any.  The commands are those that run through the shard pool, plus
`check` and `heuristic`, so a change to how work is split shows here as
a changed byte.  A run that fails must leave its checkpoint as it found
it.  Changing the output on purpose means recording the digests anew:

    python tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

GOLDEN = Path(__file__).with_name("golden.json")
CKPT = "search.ckpt"


def _damage(ckpt: Path) -> None:
    """Append a copy of the last record with an index the writer never
    writes."""
    last = ckpt.read_text(encoding="utf-8").splitlines()[-1]
    damaged = last.replace('"m": 30,', '"m": true,')
    assert damaged != last
    with open(ckpt, "a", encoding="utf-8") as fh:
        fh.write(damaged + "\n")


# each case is its steps: argv lists for the CLI, or a function of the
# checkpoint path; the last step is the one compared
CASES = {
    "enumerate": [["enumerate", "--lo", "1", "--hi", "150000"]],
    "enumerate-canonical-t2": [
        ["enumerate", "--lo", "1", "--hi", "150000", "--canonical", "--threads", "2"]],
    "verify-t1": [["verify", "--bound", "10000000", "--format", "jsonl", "--threads", "1"]],
    "verify-t2": [["verify", "--bound", "10000000", "--format", "jsonl", "--threads", "2"]],
    "anchors-table": [["anchors", "--from", "1", "--to", "60"]],
    "anchors-jsonl-t2": [
        ["anchors", "--from", "1", "--to", "60", "--format", "jsonl", "--threads", "2"]],
    "anchors-checkpoint": [["anchors", "--from", "200", "--to", "300", "--checkpoint", CKPT]],
    "anchors-resume": [
        ["anchors", "--from", "1", "--to", "30", "--checkpoint", CKPT],
        ["anchors", "--from", "10", "--to", "50", "--checkpoint", CKPT]],
    "anchors-damaged": [
        ["anchors", "--from", "1", "--to", "30", "--checkpoint", CKPT],
        _damage,
        ["anchors", "--from", "1", "--to", "45", "--checkpoint", CKPT]],
    "check": [["check", "198", "--format", "jsonl"]],
    "check-multiple-of-base": [["check", "10"]],
    "check-zero": [["check", "0"]],
    "heuristic": [["heuristic", "--from", "1", "--to", "300"]],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_case(steps, workdir: Path, threads: str) -> dict:
    """The digests of the last step of a case run in workdir."""
    env = {k: val for k, val in subprocess_env().items() if not k.startswith("VPAL_")}
    env["VPAL_THREADS"] = threads
    ckpt = workdir / CKPT
    for step in steps:
        if callable(step):
            step(ckpt)
            continue
        before = ckpt.read_bytes() if ckpt.exists() else None
        proc = subprocess.run([sys.executable, "-m", "vpal", *step], cwd=workdir,
                              env=env, capture_output=True, timeout=120)
        after = ckpt.read_bytes() if ckpt.exists() else None
        if proc.returncode != 0:
            assert after == before, f"{step} exited {proc.returncode} and changed {CKPT}"
    return {
        "exit": proc.returncode,
        "stdout": _sha(proc.stdout),
        "stderr": _sha(proc.stderr),
        "checkpoint": None if after is None else _sha(after),
    }


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_the_corpus(name, threads, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert _run_case(CASES[name], tmp_path, threads) == expected


def test_corpus_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    golden = {}
    for name, steps in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as workdir:
            golden[name] = _run_case(steps, Path(workdir), "1")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(golden)} cases in {os.path.relpath(GOLDEN)}")
