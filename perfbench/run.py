"""boxprime benchmark: cold CLI jobs, end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the package is imported from ``src``
(``PYTHONPATH=src``), so nothing is installed.  Every ``boxprime`` process is
started from this one parent and waited for before the next starts, so
processes run one at a time.

``--trace 0`` fills the bytecode cache with one untimed process, times the
workload's set-up job (each subcommand with no work) several times, then
repeats the whole job while the next repetition still fits in ``--seconds``
and reports the median job.
``--trace 1`` runs the job once untraced and twice traced (``layer_trace.py``)
and reports per-layer metrics.  All output is checked; see ``workloads.py``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (output items) and ``metrics``.  The lines before it are the
readable report; the full result, with the run environment, is also written
to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import layer_trace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_REPEATS = (3, 9)  # at least, at most
SETUP_SECONDS = 3
TRACED_REPEATS = 2
PROCESS_TIMEOUT_S = 170
SPEC = ROOT / "BENCHMARK.json"


@dataclass
class Process:
    seconds: float
    code: int
    stdout: bytes
    stderr: bytes
    rss_mb: float


def spawn(argv: list[str], stdin: Path | None, tag: str) -> Process:
    """Run one process to exit; time it from spawn to exit and read its peak RSS."""
    env = dict(os.environ, PYTHONPATH="src")
    # an installed package has its bytecode cached; so do these runs after
    # the untimed warm-up process
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(stdin or os.devnull, "rb") as inp, open(out_path, "wb") as out, \
            open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=inp, stdout=out, stderr=err,
                                cwd=ROOT, env=env)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(seconds, proc.returncode, out_path.read_bytes(),
                   err_path.read_bytes(), usage.ru_maxrss / 1024)


class Checker:
    """Counts output items attempted and failed; caches checks by output."""

    def __init__(self) -> None:
        self.digests = json.loads((BENCH / "data" / "digests.json").read_text())
        self.seen: dict[tuple, int] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def __call__(self, cmd: workloads.Command, proc: Process) -> None:
        self.attempted += cmd.items
        label = " ".join(cmd.argv)
        if proc.code != 0:
            self.failed += cmd.items
            self.notes.append(f"exit {proc.code}: {label}: "
                              f"{proc.stderr.decode(errors='replace').strip()[-300:]}")
            return
        digest = hashlib.sha256(proc.stdout).hexdigest()
        key = (id(cmd), digest)
        if key not in self.seen:
            failed = cmd.check(proc.stdout.decode("ascii", errors="replace"), cmd)
            recorded = self.digests.get(label)
            if recorded is not None and recorded != digest:
                failed = cmd.items
                self.notes.append(f"stdout differs from the recorded digest: {label}")
            elif failed:
                self.notes.append(f"{failed} of {cmd.items} items failed: {label}")
            self.seen[key] = failed
        self.failed += self.seen[key]


def spans_file(tag: str, k: int) -> Path:
    return WORK / f"{tag}-{k}.spans"


def run_job(commands, check: Checker, tag: str, traced: bool = False):
    """Run commands one at a time; return (job seconds, processes)."""
    procs = []
    for k, cmd in enumerate(commands):
        if traced:
            argv = [sys.executable, str(BENCH / "layer_trace.py"),
                    str(spans_file(tag, k)), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "boxprime", *cmd.argv]
        proc = spawn(argv, cmd.stdin, f"{tag}-{k}")
        check(cmd, proc)
        procs.append(proc)
    return sum(p.seconds for p in procs), procs


def environment(args) -> dict:
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "boxprime").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": "one at a time, each waited for before the next starts",
    }


def _spread(values) -> str:
    return (f"{len(values)} samples, median {median(values):.4f}, "
            f"min {min(values):.4f}, max {max(values):.4f}")


def measure(wl: workloads.Workload, seconds: float, check: Checker):
    setups = []
    began = time.perf_counter()
    while len(setups) < SETUP_REPEATS[0] or (
            len(setups) < SETUP_REPEATS[1] and time.perf_counter() - began < SETUP_SECONDS):
        setups.append(run_job(wl.setup, check, "setup")[0])
    jobs, peak, samples = [], 0.0, []
    began = time.perf_counter()
    while True:
        job_s, procs = run_job(wl.job, check, "job")
        jobs.append(job_s)
        samples.append([p.seconds for p in procs])
        peak = max([peak] + [p.rss_mb for p in procs])
        if time.perf_counter() - began + median(jobs) > seconds:
            break
    items = sum(c.items for c in wl.job)
    job_s = median(jobs)
    metrics = {"job_s": job_s, "items_per_s": items / job_s,
               "setup_s": median(setups), "peak_rss_mb": peak}
    report = [
        f"job_s        {job_s:.4f} s    median job; {_spread(jobs)}",
        f"items_per_s  {items / job_s:.4f} 1/s  {items} items per job",
        f"setup_s      {median(setups):.4f} s    median set-up job; {_spread(setups)}",
        f"peak_rss_mb  {peak:.2f} MB   largest of any process in the jobs",
    ]
    return report, {**metrics, "job_process_s": samples, "setup_s_samples": setups}


def measure_traced(wl: workloads.Workload, check: Checker):
    """All per-layer metrics; counts must repeat across the traced runs."""
    job_s, _ = run_job(wl.job, check, "untraced")
    runs, traced_s = [], []
    for r in range(TRACED_REPEATS):
        seconds, _ = run_job(wl.job, check, f"traced{r}", traced=True)
        traced_s.append(seconds)
        runs.append(layer_trace.summarize(
            [spans_file(f"traced{r}", k) for k in range(len(wl.job))]))
    first = runs[0]["metrics"]
    all_metrics = dict(first)
    for name in all_metrics:
        if name.endswith("self_s"):
            all_metrics[name] = median(r["metrics"][name] for r in runs)
    traced = median(traced_s)
    layer_self = sum(all_metrics[f"{layer}.self_s"] for layer in layer_trace.LAYERS)
    all_metrics["trace.job_s"] = job_s
    all_metrics["trace.traced_job_s"] = traced
    all_metrics["trace.untraced_s"] = traced - layer_self
    all_metrics["trace.overhead_ratio"] = traced / job_s - 1
    unsteady = [name for name, value in first.items()
                if not name.endswith("self_s")
                and any(r["metrics"][name] != value for r in runs[1:])]
    if any(r["calls"] != runs[0]["calls"] for r in runs[1:]):
        unsteady.append("calls per function")
    report = [f"{name:42s} {value:.6g}" for name, value in sorted(all_metrics.items())]
    report.append(f"layer self times {layer_self:.4f} s + untraced "
                  f"{traced - layer_self:.4f} s = traced job {traced:.4f} s; "
                  f"untraced job {job_s:.4f} s, overhead "
                  f"{100 * (traced / job_s - 1):.1f}%")
    report.append("traced functions by self time (calls, self_s):")
    by_self = sorted(runs[0]["self_s"].items(), key=lambda kv: -kv[1])
    report += [f"  {fn:40s} {runs[0]['calls'][fn]:9d} {t:.4f}" for fn, t in by_self]
    if unsteady:
        check.notes.append("counts differ between traced runs: " + ", ".join(unsteady))
    return report, not unsteady, all_metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "boxprime" / "cli.py").is_file():
        print(f"perfbench: no boxprime source under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    WORK.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed, WORK)
    check = Checker()
    warm = spawn([sys.executable, "-m", "boxprime", *wl.setup[0].argv], None, "warm")
    if warm.code != 0:
        print(f"perfbench: boxprime does not run: "
              f"{warm.stderr.decode(errors='replace')}", file=sys.stderr)
        return 1
    env = environment(args)
    steady = True
    # the final line carries the metrics BENCHMARK.json lists; the report has
    # the rest (items_per_s, error_rate, every layer's self time, ...)
    if args.trace:
        report, steady, detail = measure_traced(wl, check)
        listed = spec["per_layer"]
    else:
        report, detail = measure(wl, args.seconds, check)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": detail[m["name"]], "unit": m["unit"]} for m in listed}
    error_rate = check.failed / check.attempted
    report.append(f"error_rate   {error_rate:.4f} ratio  {check.failed} failed of "
                  f"{check.attempted} items")
    result = {"correct": check.failed == 0 and steady, "attempted": check.attempted,
              "failed": check.failed, "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(
        {**result, "environment": env, "detail": detail, "error_rate": error_rate,
         "notes": check.notes}, indent=1) + "\n")
    print(f"perfbench {args.workload}: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("why: " + next(w["why"] for w in spec["workloads"] if w["name"] == wl.name))
    print("\n".join(report + [f"note: {n}" for n in check.notes]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
