"""vpal benchmark: run one workload through the CLI and report its metrics.

    python3 perfbench/run.py --workload enum-dense --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Set-up times several fresh
interpreters importing ``vpal.cli``; then one fresh worker interpreter
calls ``vpal.cli.main`` in a closed loop for ``--seconds`` seconds (at least
one invocation).  Every output is checked (see checks.py).  With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
every step runs at one thread, untraced and traced in turn, and the result
carries the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's metadata.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

# Fresh-interpreter imports timed before the worker runs and again after,
# so the samples span the run instead of one moment of it.
IMPORT_SAMPLES = 5
# A run must exit within 180 s; set-up and the worker share this much of it.
RUN_LIMIT_S = 170


def _env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("VPAL_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _import_seconds(env):
    """Wall time of one fresh interpreter that imports vpal.cli and exits."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import vpal.cli"], env=env, cwd=ROOT,
                   check=True)
    return perf_counter() - start


def _run_worker(spec, env, timeout):
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        start_new_session=True, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def _fstype(path):
    best, kind = "", "unknown"
    with open("/proc/self/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1].replace("\\040", " ")
            inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, fields[2]
    return kind


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def _src_lines():
    return sum(p.read_bytes().count(b"\n")
               for p in sorted((ROOT / "src" / "vpal").glob("*.py")))


def end_to_end(workload, result, setup_s, ok):
    """The time metrics are in reference units: each invocation's time over
    the reference loop timed beside it (worker.reference_s), as a median
    over the invocations.  Seconds drift with the host; these do not."""
    invs = result["invocations"]

    def per_ref(key):
        return statistics.median([inv[key] / inv["ref_s"] for inv in invs])

    return {
        "setup_s": setup_s,
        "wall_ref": per_ref("wall_s"),
        "items_per_ref": statistics.median(
            [workload.items * inv["ref_s"] / inv["wall_s"] for inv in invs]),
        "first_record_ref": per_ref("first_record_s"),
        "cpu_ref": per_ref("cpu_s"),
        "peak_rss_mb": result["peak_rss_mb"],
        "ops_ok_ratio": ok / len(invs),
    }


def in_seconds(workload, invs):
    """The time metrics in seconds, for the metadata line."""
    def median(key):
        return statistics.median([inv[key] for inv in invs])
    return {
        "wall_s": median("wall_s"),
        "items_per_s": statistics.median([workload.items / inv["wall_s"]
                                          for inv in invs]),
        "first_record_s": median("first_record_s"),
        "cpu_s": median("cpu_s"),
        "ref_s": median("ref_s"),
    }


def per_layer(result):
    """Counts from the first traced invocation (they repeat exactly), times
    and ratios as medians over the traced invocations; the tracing overhead
    as the median of traced minus untraced wall time over the pairs."""
    layers = result["layers"]
    out = {name: first if isinstance(first, int)
           else statistics.median([layer[name] for layer in layers])
           for name, first in layers[0].items()}
    out["trace.overhead_s"] = statistics.median(
        [t - u for t, u in zip(result["traced_wall_s"], result["untraced_wall_s"])])
    return out


def _with_units(values, declared):
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def run(workload, seconds, trace, oracles):
    """Measure ``workload``; returns (metadata, result line)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = _env()
    prep_start = perf_counter()
    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        steps = [list(workload.argv_at_one_thread(s) if trace else s.argv)
                 for s in workload.steps]
        spec = {"steps": steps, "seconds": seconds, "trace": trace, "tmp": tmp,
                "src": str(ROOT / "src")}
        prep_s = perf_counter() - prep_start
        imports = [_import_seconds(env) for _ in range(IMPORT_SAMPLES)]

        started = perf_counter()
        result = _run_worker(spec, env, RUN_LIMIT_S - (perf_counter() - prep_start))
        run_s = perf_counter() - started
        imports += [_import_seconds(env) for _ in range(IMPORT_SAMPLES)]
        setup_s = statistics.median(imports) + prep_s

        problems = checks.check_invocations(workload, result["invocations"],
                                            result["texts"], oracles)
        failed = sum(1 for p in problems if p)
        fstype = _fstype(Path(tmp).resolve())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if trace:
        values = per_layer(result)
        (WORK / f"spans-{workload.name}.json").write_text(json.dumps(result["spans"]))
        declared = bench["per_layer"]
    else:
        values = end_to_end(workload, result, setup_s, len(problems) - failed)
        declared = bench["end_to_end"]
    metadata = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": trace,
        "argv": steps,
        "seconds": seconds,
        "run_s": run_s,
        "samples": len(result["invocations"]),
        "median_s": in_seconds(workload, result["invocations"]),
        "ref_s_samples": [inv["ref_s"] for inv in result["invocations"]],
        "wall_s_samples": [inv["wall_s"] for inv in result["invocations"]],
        "traced_wall_s": result.get("traced_wall_s"),
        "untraced_wall_s": result.get("untraced_wall_s"),
        "first_record_s_samples": [inv["first_record_s"]
                                   for inv in result["invocations"]],
        "import_s_samples": imports,
        "prep_s": prep_s,
        "failures": [p for p in problems if p][:5],
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": result["python"],
        "numpy": result["numpy"],
        "checkpoint_fstype": fstype,
        "src_lines": _src_lines(),
    }
    line = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": _with_units(values, declared),
    }
    return metadata, line


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so the worker is killed and the scratch dir removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    needed = [ROOT / "src" / "vpal" / "cli.py", ROOT / "tests" / "_oracles.py",
              ROOT / "BENCHMARK.json"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a vpal source checkout, missing {absent}", file=sys.stderr)
        return 2
    try:
        metadata, line = run(workloads.build(args.workload, args.seed),
                             args.seconds, bool(args.trace), checks.load_oracles())
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"metadata": metadata}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
