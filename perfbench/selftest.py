"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that the untraced pass leaves every attribute of the package as it
found it, that install/uninstall of the tracer restores every binding,
that pool workers' spans reach the parent, that the output check fails a
job when one count in its result is perturbed (hw-model's golden output
on any seed), that the float oracle catches a wrong float check update,
that no metric is derived from the hardware model's throughput figure,
and that a job's time is scaled by the probes taken next to it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from ldpccc import arch  # noqa: E402
from perlayer import tail  # noqa: E402
from run import Pass  # noqa: E402
from speed import REF_S, SpeedMeter  # noqa: E402
from tracing import NAME, PID, Tracer, package_bindings  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_SEED,
    WORKLOADS,
    float_decoder_problems,
    golden_problems,
)

GOLDEN = json.loads((HERE / "golden.json").read_text())
WORK = ROOT / ".bench_work" / f"selftest-{os.getpid()}"


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def same_bindings(before, after):
    changed = [k for k in before.keys() | after.keys()
               if before.get(k) is not after.get(k)]
    return sorted(map(str, changed))


def test_untraced_pass_patches_nothing():
    before = package_bindings()
    Pass(WORKLOADS["stream-qspa-toy"], GOLDEN_SEED, GOLDEN, WORK).run(0.0)
    changed = same_bindings(before, package_bindings())
    check(not changed, f"untraced pass changed {changed[:5]}")


def test_tracer_restores_every_binding():
    before = package_bindings()
    tracer = Tracer(WORK)
    tracer.install()
    try:
        import ldpccc.harness as h
        import ldpccc.decoder as d
        check(h.decode_stream is not before[("ldpccc.harness", "decode_stream")],
              "harness.decode_stream is not patched where harness looks it up")
        check(d.syndrome_check is not before[("ldpccc.decoder", "syndrome_check")],
              "decoder.syndrome_check is not patched where decoder looks it up")
    finally:
        tracer.uninstall()
    changed = same_bindings(before, package_bindings())
    check(not changed, f"install/uninstall left {changed[:5]} changed")


def test_worker_spans_reach_parent():
    w = WORKLOADS["sweep-float-rate56"]
    tracer = Tracer(WORK)
    p = Pass(w, GOLDEN_SEED, GOLDEN, WORK, tracer)
    tracer.install()
    try:
        p.run(0.0)
    finally:
        tracer.uninstall()
    check(p.failed == 0, "sweep job failed")
    workers = {s[PID] for s in tracer.spans if s[NAME] == "decoder.decode_stream"}
    check(workers and os.getpid() not in workers,
          f"decode_stream spans came from {workers}, not from pool workers")


def _perturbed(out, name):
    """Copies of a job output with one count changed by one."""
    if name in ("stream-qspa-toy", "block-qspa-rate56"):
        for i in range(5):
            bad = copy.deepcopy(out)
            bad[0][i] += 1
            yield f"field {i}", bad
    elif name == "sweep-float-rate56":
        lines = out["csv"].splitlines()
        for row in range(1, len(lines)):
            for col in (1, 2, 3):  # blocks, bit_errors, block_errors
                cells = lines[row].split(",")
                cells[col] = str(int(cells[col]) + 1)
                bad = dict(out, csv="\n".join(
                    lines[:row] + [",".join(cells)] + lines[row + 1:]) + "\n")
                yield f"row {row} col {col}", bad
    else:
        yield "csv_rows", dict(out, csv_rows=out["csv_rows"] + 1)
        yield "girth", dict(out, girth=["6", "8"])


def _golden_out(name):
    want = GOLDEN[name]
    if name == "hw-model":
        return {"rc": [0, 0], "girth": want["girth"],
                "csv_sha256": want["csv_sha256"], "csv_rows": want["csv_rows"]}
    if name == "sweep-float-rate56":
        return {"rc": 0, "csv": want[0]}
    return copy.deepcopy(want[0])


def test_checker_fails_perturbed_counts():
    for name, w in WORKLOADS.items():
        out = _golden_out(name)
        problems = w.check(out, GOLDEN_SEED) + golden_problems(
            name, GOLDEN, out, GOLDEN_SEED, 0)
        check(not problems, f"{name}: golden output rejected: {problems}")
        for label, bad in _perturbed(out, name):
            problems = w.check(bad, GOLDEN_SEED) + golden_problems(
                name, GOLDEN, bad, GOLDEN_SEED, 0)
            check(problems, f"{name}: {label} perturbed but the job passed")


def test_hw_model_golden_on_any_seed():
    out = _golden_out("hw-model")
    seed = GOLDEN_SEED + 100
    check(not golden_problems("hw-model", GOLDEN, out, seed, 3),
          "hw-model golden output rejected on another seed")
    bad = dict(out, csv_sha256="0" * 64)
    check(golden_problems("hw-model", GOLDEN, bad, seed, 3),
          "hw-model CSV digest perturbed on another seed but the job passed")


def test_float_oracle_catches_wrong_check_update():
    import ldpccc.decoder as d
    check(not float_decoder_problems(GOLDEN_SEED + 100), "float oracle rejects the decoder")
    original = d._cnp_float_rows
    d._cnp_float_rows = lambda v, clamp: 0.95 * original(v, clamp)
    try:
        problems = float_decoder_problems(GOLDEN_SEED + 100)
    finally:
        d._cnp_float_rows = original
    check(problems, "a float check update 5% off passed the float oracle")


def test_no_metric_from_model_throughput():
    for path in HERE.glob("*.py"):
        if path.name != "selftest.py":
            text = path.read_text()
            check("throughput" not in text and "derive_report" not in text,
                  f"{path.name} reads the hardware model's throughput")
    original = arch.derive_report

    def poisoned(params):
        return dataclasses.replace(original(params), throughput_bps=math.nan)

    import run
    arch.derive_report = poisoned
    try:  # harness and cli look it up on the arch module at call time
        result = run.measure(WORKLOADS["hw-model"],
                             _Args(workload="hw-model", seed=GOLDEN_SEED,
                                   seconds=0.0, trace=0), GOLDEN, WORK)
    finally:
        arch.derive_report = original
    check(result["correct"], "hw-model job failed under the poisoned model")
    for name, m in result["metrics"].items():
        check(math.isfinite(m["value"]), f"{name} depends on the model throughput")


@dataclasses.dataclass
class _Args:
    workload: str
    seed: int
    seconds: float
    trace: int


def test_speed_scale_uses_adjacent_gaps():
    meter = SpeedMeter()
    meter.gaps = [[REF_S], [2 * REF_S], [2 * REF_S, 2 * REF_S, 4 * REF_S]]
    got = meter.scale([1.0, 3.0])
    check(all(map(math.isclose, got, [1.0 / 1.5, 1.5])), f"scaled {got}")
    try:
        meter.scale([1.0])
    except ValueError:
        pass
    else:
        check(False, "scale accepted intervals without a gap on each side")


def test_tail_has_ten_beyond():
    value, pct, beyond = tail(list(range(100)))
    check((pct, beyond) == (90, 10) and value == 89, f"tail {value, pct, beyond}")
    value, pct, beyond = tail([1.0, 2.0, 3.0, 4.0])
    check((value, pct, beyond) == (3.0, 50, 1), f"short tail {value, pct, beyond}")


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    try:
        for test in tests:
            test()
            print(f"ok   {test.__name__}", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
