"""Write perfbench/golden.json: the outputs of the golden seed's jobs.

    python3 perfbench/make_golden.py

Run it from the root of a checkout at the commit whose outputs define
"correct"; a change that alters any output on purpose regenerates it and
says why.  Job j of each workload runs with seed GOLDEN_SEED + j, exactly as
in run.py, for the first JOBS[name] jobs.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from ldpccc import arch  # noqa: E402
from workloads import GOLDEN_SEED, HW_PRESET, WORKLOADS  # noqa: E402

# a few times the jobs one 25 s pass runs at the commit the golden came from
JOBS = {"stream-qspa-toy": 400, "sweep-float-rate56": 100, "block-qspa-rate56": 400}


def main() -> int:
    golden = {"seed": GOLDEN_SEED}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        for name, n_jobs in JOBS.items():
            w = WORKLOADS[name]
            outs = []
            for j in range(n_jobs):
                out = w.collect(w.job(GOLDEN_SEED + j, work))
                problems = w.check(out, GOLDEN_SEED + j)
                if problems:
                    raise SystemExit(f"{name} job {j}: {problems}")
                outs.append(out["csv"] if name == "sweep-float-rate56" else out)
            golden[name] = outs
            print(f"{name}: {n_jobs} jobs", flush=True)
        w = WORKLOADS["hw-model"]
        out = w.collect(w.job(GOLDEN_SEED, work))
        sched = arch.schedule_multi(arch.PRESETS[HW_PRESET])
        golden["hw-model"] = {
            "girth": out["girth"],
            "csv_sha256": out["csv_sha256"],
            "csv_rows": out["csv_rows"],
            "audit_collisions": len(sched.audit_collisions()),
            "steps_per_cycle": sched.steps_per_cycle(),
        }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
