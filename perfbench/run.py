"""Attack-pipeline benchmark of graphpoison.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload meta-cora --seed 1 --seconds 30 --trace 0

Set-up generates the workload's seeded dataset directory several times, each
in a fresh interpreter, and reports the median time. A separate measured
process then calls ``graphpoison.experiment.run_experiment`` on it back to
back for ``--seconds`` and checks every run's outputs. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a
traced run. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 only when every output check passed.

Only measurements of the benchmark's own processes are used: no cache drops
and no machine-wide tracing. BLAS runs with ``BLAS_THREADS`` threads, set in
the environment of the child processes only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
BLAS_THREADS = 1  # one thread per process keeps timings steady on a shared 2-core machine
DEADLINE_S = 170.0  # the whole command must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "s_per_flip": "s",
    "eval_s_per_fit": "s",
    "peak_rss_mb": "MiB",
    "victim_acc": "fraction",
    "flips_landed_ratio": "fraction",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s", "_per_fit")):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.startswith("share.") or name.endswith("_ratio"):
        return "fraction"
    return "count"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("GRAPHPOISON_OUTPUT_DIR", None)  # reports must land where the checks read them
    return env


def run_child(args: list[str], env: dict, deadline: float) -> str:
    """Run a benchmark script to completion (killed at the deadline); return its stdout."""
    proc = subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {os.path.basename(args[0])} exited with {proc.returncode}")
    return proc.stdout


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description="graphpoison attack-pipeline benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graphpoison", "__init__.py")):
        print("perfbench: no graphpoison sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    work = os.path.join(root, f".perfbench_work-{args.workload}-{args.seed}-{os.getpid()}")
    data = os.path.join(work, "data")
    try:
        setup_times, inputs = [], None
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            out = run_child(
                [os.path.join(HERE, "bench_inputs.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--out", data],
                env, deadline,
            )
            setup_times.append(time.perf_counter() - t0)
            stats = json.loads(out.splitlines()[-1])
            if inputs not in (None, stats):
                raise SystemExit("perfbench: set-up gave different inputs for the same seed")
            inputs = stats
        result_path = os.path.join(work, "result.json")
        run_child(
            [os.path.join(HERE, "bench_worker.py"), "--workload", args.workload,
             "--dataset", data, "--edges", str(inputs["edges"]),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", result_path],
            env, deadline,
        )
        with open(result_path) as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    versions = res["versions"]
    print(f"environment: python {versions['python']}, numpy {versions['numpy']}, "
          f"scipy {versions['scipy']}, nproc {len(os.sched_getaffinity(0))}, "
          f"cpu {cpu_model()!r}, BLAS threads {BLAS_THREADS}")
    print("measurements: own processes only (getrusage, perf_counter); "
          "no cache drops, no machine-wide tracing")
    print(f"workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{k}={v}" for k, v in res["inputs"].items()))
    print(f"repeats: {res['repeats']['untraced']} untraced, {res['repeats']['traced']} traced; "
          f"flips requested {res['attempted']}, failed {res['failed']}")
    print(f"fingerprint {res['fingerprint']} (flips only: {res['flips_sha256']})")
    for err in res["errors"]:
        print(f"run raised: {err.strip().splitlines()[-1]}")
    if args.trace and res.get("hooks_missing_names"):
        print("trace hooks missing: " + ", ".join(res["hooks_missing_names"]))
    for v in res["violations"]:
        print(f"CHECK FAILED: {v}")

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["metrics"].items()}
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setup_times)) if res["correct"] else {}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items() if k in values}
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
