"""skewqc benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src``.  Every
pass runs in a fresh process (``measure.py``) and is timed cold, because a
CLI user pays the first-call cost on every run.  Set-up is timed on its own
in every process, plus ``SETUP_SAMPLES`` processes that only set up.

``--trace 0`` reports the end-to-end metrics (medians over the passes);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians), including the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name and unit, the failed operations by name, and the
run metadata.  The full result and the spans go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 6
RUN_LIMIT_S = 170  # the whole run, set-up processes included

if not (SRC / "skewqc" / "__init__.py").is_file():
    sys.exit(f"benchmark: no skewqc sources under {SRC}; run it from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ops": "count",
    "setup_s": "s",
}
# printed with the rest but kept out of the result line: they are 0 on
# workloads where nothing fails, and the result line carries them as
# "attempted" and "failed"
FAILURE_UNITS = {"ops_failed": "count", "fail_share": "ratio"}

COLD_REASON = (
    "cold: each pass is the first call of the task in a fresh process, "
    "because CLI users pay that cost on every run"
)


class BenchError(RuntimeError):
    pass


def _metadata(workload: str, seed: int) -> dict:
    def git_commit():
        head = ROOT / ".git" / "HEAD"
        if not head.is_file():
            return None
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    src_digest = hashlib.sha256()
    for path in sorted((SRC / "skewqc").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": src_digest.hexdigest(),
        "workers": WORKLOADS[workload].workers,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "timed_pass": COLD_REASON,
    }


def _spawn(args: list, deadline: float) -> dict:
    """Run measure.py in a fresh process and return its JSON line."""
    env = dict(os.environ)
    env.pop("SKEWQC_THREADS", None)  # workers are always passed explicitly
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and its workers
        proc.communicate()
        raise BenchError(f"pass {' '.join(args)} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"pass {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_samples(count):
        return [_spawn(base + ["--setup-only"], deadline)["setup_s"] for _ in range(count)]

    # half of the set-up samples before the passes and half after, so the
    # median spans the whole run rather than its first seconds
    setups = setup_samples(SETUP_SAMPLES // 2)

    plain, traced = [], []
    start = time.monotonic()
    while True:
        kind_traced = trace and len(traced) < len(plain)
        run_id = f"{workload}-seed{seed}-pass{len(plain) + len(traced)}"
        t0 = time.monotonic()
        res = _spawn(base + ["--trace", str(int(kind_traced)), "--run-id", run_id,
                             "--out-dir", str(OUT_DIR)], deadline)
        (traced if kind_traced else plain).append(res)
        setups.append(res["setup_s"])
        last = time.monotonic() - t0
        if trace and not traced:
            continue
        if time.monotonic() - start + last > seconds:
            break
    setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    def med(key, rows=plain):
        return statistics.median(r[key] for r in rows)

    passes = plain + traced
    failures = sorted({f for r in passes for f in r["failures"]})
    ops = med("ops")
    ops_failed = statistics.median(len(r["failures"]) for r in plain)
    metrics = {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "ops": ops,
        "setup_s": statistics.median(setups),
        "ops_failed": ops_failed,
        "fail_share": ops_failed / ops if ops else 0.0,
    }
    layers = {}
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in tracing.PER_LAYER_UNITS}
        layers["trace.overhead_s"] = med("wall_s", traced) - med("wall_s")
    return {
        "meta": _metadata(workload, seed),
        "correct": all(r["correct"] for r in passes),
        "attempted": sum(r["ops"] for r in passes),
        "failed": sum(len(r["failures"]) for r in passes),
        "failures": failures,
        "passes": {"plain": len(plain), "traced": len(traced), "setup_samples": len(setups)},
        "metrics": metrics,
        "layers": layers,
        "samples": {"setup_s": setups, "passes": [
            {k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "ops")} for r in passes]},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=2) + "\n")
    print("meta " + json.dumps(result["meta"]))
    print("passes " + json.dumps(result["passes"]))
    units = {**END_TO_END_UNITS, **FAILURE_UNITS} if not args.trace else tracing.PER_LAYER_UNITS
    values = result["layers"] if args.trace else result["metrics"]
    for metric, unit in units.items():
        print(f"{metric} {values[metric]:.6g} {unit}")
    for failure in result["failures"]:
        print(f"failed: {failure}")
    shown = END_TO_END_UNITS if not args.trace else tracing.PER_LAYER_UNITS
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": values[m], "unit": u} for m, u in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
