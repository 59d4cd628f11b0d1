"""ldpccc benchmark: one workload, one process, jobs issued back to back.

    python3 perfbench/run.py --workload stream-qspa-toy --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the reference decoder from ``tests/``.  Job j runs with seed
``--seed + j``; every job's output is checked.  ``--trace 0`` times an
untraced pass for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs an untraced pass and then a traced pass, each for half
of ``--seconds``, and reports the per-layer metrics of the traced pass;
its spans are written to ``.bench_work/spans-<workload>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it describe the machine and list every metric with its unit.  Timings are
reported at reference host speed (``speed.py``); the line just before the
last one is a JSON object ``{"measured": {...}}`` with the measured value
of every scaled metric, so that the scaling can be judged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from perlayer import METRICS, per_layer, percentile
from speed import NUMPY_IMPORT_REF_S, SpeedMeter
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 7
PROBE_SHARE = 0.15  # probe time between jobs, as a share of the last job's

# one fresh interpreter per sample: numpy, then the timed set-up (import,
# base load, code construction); numpy's own import time is the yardstick
_SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import ldpccc
from ldpccc.construction import demo_base, split_and_unwrap
split_and_unwrap(demo_base(sys.argv[1]))
print(time.perf_counter() - t1, t1 - t0, ldpccc.__file__)
"""

E2E_UNITS = {
    "info_bps": "bit/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def machine() -> dict:
    """Where the numbers were measured; read-only probes of this host."""
    import numpy

    model = None
    for line in (read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    quota = read_text(Path("/sys/fs/cgroup/cpu.max"))  # cgroup v2
    if quota is None:  # cgroup v1
        q = read_text(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"))
        p = read_text(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us"))
        quota = None if q is None else f"{q} {p}"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cgroup_cpu_max": quota,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    head = read_text(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = read_text(ROOT / ".git" / ref)
    if loose is not None:
        return loose
    for line in (read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def read_text(path: Path):
    try:
        return path.read_text().strip()
    except OSError:
        return None


def setup_seconds(base: str) -> tuple[list[float], list[float]]:
    """Set-up seconds and numpy import seconds, one pair per interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    setup, numpy_import = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, base], cwd=ROOT,
                             env=env, capture_output=True, text=True, check=True,
                             timeout=60).stdout.split()
        if not Path(out[2]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"set-up imported ldpccc from {out[2]}")
        setup.append(float(out[0]))
        numpy_import.append(float(out[1]))
    return setup, numpy_import


class Pass:
    """One closed-loop pass: jobs back to back until the time is up."""

    def __init__(self, workload, seed, golden, work_dir, tracer=None):
        self.w = workload
        self.seed = seed
        self.golden = golden
        self.work_dir = work_dir
        self.tracer = tracer
        self.times: list[float] = []
        self.speed = SpeedMeter()
        self.info_bits = 0
        self.frames_used = 0
        self.failed = 0
        self.first = None

    def run(self, seconds: float):
        from workloads import golden_problems

        end = time.perf_counter() + seconds
        j = 0
        self.speed.gap(PROBE_SHARE * 0.2)
        while j == 0 or time.perf_counter() < end:
            job_seed = self.seed + j
            if self.tracer is not None:
                self.tracer.job = j
            t0 = time.perf_counter()
            try:
                raw = self.w.job(job_seed, self.work_dir)
                self.times.append(time.perf_counter() - t0)
                if self.tracer is not None:
                    self.tracer.job = -1
                    self.tracer.collect_workers()
                out = self.w.collect(raw)
                problems = self.w.check(out, job_seed)
                problems += golden_problems(self.w.name, self.golden, out, self.seed, j)
            except Exception:  # a job that raises is a failed job; keep going
                traceback.print_exc(file=sys.stderr)
                problems, out = ["raised"], None
                if len(self.times) == j:
                    self.times.append(time.perf_counter() - t0)
            if problems:
                self.failed += 1
                print(f"job {j} (seed {job_seed}) failed: {problems}", file=sys.stderr)
            else:
                self.info_bits += self.w.info_bits(out)
                self.frames_used += self.w.frames_used(out)
            if j == 0:
                self.first = (out, not problems)
            j += 1
            self.speed.gap(PROBE_SHARE * self.times[-1])
        if self.tracer is not None:
            self.tracer.job = -1

    def oracle(self):
        """Re-derive job 0 another way; a mismatch fails that job."""
        out, ok = self.first
        if not ok:
            return  # job 0 is already counted as failed
        problems = self.w.oracle(out, self.seed, self.work_dir, self.golden)
        if problems:
            self.failed += 1
            print(f"oracle on job 0 failed: {problems}", file=sys.stderr)


def peak_rss_mib(pool_workers: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "ldpccc" / "__init__.py",
                   ROOT / "tests" / "reference_decoder.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from the "
                  "root of an ldpccc source checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    golden = json.loads((HERE / "golden.json").read_text())
    work_dir = WORK / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(w, args, golden, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(w, args, golden, work_dir) -> dict:
    info = machine()
    warm = Pass(w, args.seed, golden, work_dir)
    warm.run(0.0)  # caches, lazy imports and pyc files settle before timing
    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    plain = Pass(w, args.seed, golden, work_dir)
    plain.run(seconds)
    rss = peak_rss_mib(w.pool_workers)  # before any set-up interpreter is a child
    plain.oracle()
    passes = [plain]
    times = plain.speed.scale(plain.times)
    p50 = statistics.median(times)

    if args.trace == 0:
        setup, numpy_import = setup_seconds(w.base)
        pct = w.tail_pct
        value, beyond = percentile(times, pct)
        if beyond < 10:
            print(f"warning: only {beyond} jobs beyond p{pct}", file=sys.stderr)
        setup_ref = statistics.median(
            s * NUMPY_IMPORT_REF_S / n for s, n in zip(setup, numpy_import))
        metrics = {
            "info_bps": plain.info_bits / sum(times),
            "job_s.p50": p50,
            "job_s.tail": value,
            "setup_s": setup_ref,
            "peak_rss_mb": rss,
        }
        units = E2E_UNITS
        measured = {
            "info_bps": plain.info_bits / sum(plain.times),
            "job_s.p50": statistics.median(plain.times),
            "job_s.tail": percentile(plain.times, pct)[0],
            "setup_s": statistics.median(setup),
        }
        notes = {k: f"measured {v:.6g}" for k, v in measured.items()}
        notes["job_s.tail"] += f"; p{pct}, {beyond} of {len(times)} jobs beyond"
        notes["setup_s"] += (f"; median of {len(setup)} fresh interpreters, "
                             f"numpy import {statistics.median(numpy_import):.6g}")
    else:
        tracer = Tracer(work_dir)
        traced = Pass(w, args.seed, golden, work_dir, tracer)
        tracer.install()
        try:
            traced.run(seconds)
            tracer.job = -2
            traced.oracle()
        finally:
            tracer.uninstall()
        passes.append(traced)
        scaled = traced.speed.scale(traced.times)
        metrics = per_layer(tracer.spans, len(traced.times), traced.frames_used,
                            sum(scaled) / sum(traced.times), p50,
                            statistics.median(scaled))
        units = {k: v[0] for k, v in METRICS.items()}
        measured = {"trace.overhead": statistics.median(traced.times)
                    / statistics.median(plain.times) - 1}
        notes = {"trace.overhead": f"job p50 at reference speed: traced "
                                   f"{statistics.median(scaled):.6g} s, untraced {p50:.6g} s; "
                                   f"measured {measured['trace.overhead']:.6g}"}
        tracer.write(WORK / f"spans-{w.name}.csv")
        notes["spans"] = f"{len(tracer.spans)} spans in .bench_work/spans-{w.name}.csv"

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"machine": info}))
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted}  failed_jobs {failed / attempted:.4g} ratio  "
          f"speed probes {plain.speed.n_probes}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {value:>14.6g} {units[name]}{note}")
    if "spans" in notes:
        print(f"  {notes['spans']}")
    print(json.dumps({"measured": measured}))
    return {
        "correct": failed == 0 and warm.failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
