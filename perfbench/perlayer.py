"""Per-layer metrics from the spans of one traced pass.

Times marked "per job" are summed over the pass and divided by the number
of timed jobs.  A span's self time is its duration minus the durations of
its direct child spans (children run nested, in the same process).  A
layer's time counts only its entry spans, whose parent is in another layer
or absent, so nested calls inside one layer are not counted twice.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import END, JOB, NAME, NOTE, PARENT, PID, SID, START

# name -> (unit, better); the order is the order of the report
METRICS = {
    "decoder.step.us_p50": ("us", "lower"),
    "decoder.step.us_tail": ("us", "lower"),
    "decoder.steps": ("steps/job", "lower"),
    "decoder.steps_per_block": ("steps/block", "lower"),
    "decoder.decode_stream.self_s": ("s/job", "lower"),
    "decoder.frame_ms.p50": ("ms", "lower"),
    "decoder.frame_ms.tail": ("ms", "lower"),
    "decoder.init.calls_per_frame": ("calls/frame", "lower"),
    "decoder.init.s": ("s/job", "lower"),
    "quantization.quantize.s": ("s/job", "lower"),
    "quantization.lut_builds_per_frame": ("calls/frame", "lower"),
    "construction.row_structure.calls_per_step": ("calls/step", "lower"),
    "construction.split_and_unwrap.calls_per_job": ("calls/job", "lower"),
    "construction.syndrome.s": ("s/job", "lower"),
    "construction.girth.s": ("s/job", "lower"),
    "channel.s": ("s/job", "lower"),
    "channel.ns_per_sample": ("ns/sample", "lower"),
    "harness.self_s": ("s/job", "lower"),
    "harness.frames_decoded": ("frames/job", "lower"),
    "harness.frames_used": ("frames/job", "higher"),
    "harness.useful_frame_ratio": ("ratio", "higher"),
    "arch.schedule.s": ("s/job", "lower"),
    "arch.events": ("events/job", "lower"),
    "arch.accesses": ("accesses/job", "lower"),
    "arch.us_per_event": ("us/event", "lower"),
    "arch.audit.s": ("s", "lower"),
    "arch.csv.s": ("s/job", "lower"),
    "cli.self_s": ("s/job", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def percentile(values, p):
    """(value, samples beyond it): nearest rank, but the upper median for
    p50, so a tail is never below the median."""
    xs = sorted(values)
    n = len(xs)
    k = n // 2 if p == 50 else max(0, math.ceil(p / 100 * n) - 1)
    return xs[k], n - 1 - k


def tail(values):
    """(value, percentile, samples beyond it) for the highest of p99, p95,
    p90, p75 and p50 that has at least ten samples beyond it; p50 when none
    has."""
    for p in (99, 95, 90, 75):
        value, beyond = percentile(values, p)
        if beyond >= 10:
            return value, p, beyond
    value, beyond = percentile(values, 50)
    return value, 50, beyond


def _p50(xs):
    return statistics.median(xs) if xs else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


TIME_UNITS = {"us", "ms", "s", "s/job", "ns/sample", "us/event"}


def per_layer(spans, n_jobs, frames_used, speed, untraced_p50, traced_p50) -> dict:
    """Every metric in METRICS; 0 where the layer does no work.

    Times are multiplied by ``speed``, the traced pass's ratio of
    reference-speed to measured job time (see speed.py); the two p50s are
    already at reference speed.
    """
    by_key = {(s[PID], s[SID]): s for s in spans}
    child_ns = defaultdict(int)
    for s in spans:
        if s[PARENT] is not None:
            child_ns[(s[PID], s[PARENT])] += s[END] - s[START]

    def dur(s):
        return s[END] - s[START]

    def self_ns(s):
        return dur(s) - child_ns[(s[PID], s[SID])]

    def parent_name(s):
        p = by_key.get((s[PID], s[PARENT]))
        return None if p is None else p[NAME]

    def per_job(ns):
        return ns / 1e9 / n_jobs

    named = defaultdict(list)
    for s in spans:
        if s[JOB] >= 0:
            named[s[NAME]].append(s)

    def layer_spans(layer):
        return [s for name, ss in named.items() if name.split(".")[0] == layer
                for s in ss]

    steps = named["decoder.StreamDecoder.step"]
    step_us = [dur(s) / 1e3 for s in steps]
    streams = named["decoder.decode_stream"]
    frames = streams + named["decoder.BlockDecoder.decode"]
    frame_ms = [dur(s) / 1e6 for s in frames]
    inits = named["decoder.StreamDecoder.__init__"] + named["decoder.BlockDecoder.__init__"]
    blocks_fed = sum(s[NOTE] for s in streams)
    row_in_step = [s for s in named["construction.ConvCode.row_structure"]
                   if parent_name(s) == "decoder.StreamDecoder.step"]
    syndrome = [s for name in ("construction.window_matrix", "construction.syndrome_check")
                for s in named[name] if parent_name(s) == "decoder.decode_stream"]
    channel = [s for s in layer_spans("channel")
               if (parent_name(s) or "").split(".")[0] != "channel"]
    channel_ns = sum(dur(s) for s in channel)
    samples = sum(s[NOTE] for s in named["channel.transmit_all_zero"])
    sched = named["arch.schedule_multi"]
    sched_ns = sum(dur(s) for s in sched)
    events = sum(s[NOTE][0] for s in sched)
    audits = [dur(s) / 1e9 for s in spans if s[NAME] == "arch.Schedule.audit_collisions"]

    out = {
        "decoder.step.us_p50": _p50(step_us),
        "decoder.step.us_tail": tail(step_us)[0] if step_us else 0.0,
        "decoder.steps": len(steps) / n_jobs,
        "decoder.steps_per_block": _ratio(len(steps), blocks_fed),
        "decoder.decode_stream.self_s": per_job(sum(self_ns(s) for s in streams)),
        "decoder.frame_ms.p50": _p50(frame_ms),
        "decoder.frame_ms.tail": tail(frame_ms)[0] if frame_ms else 0.0,
        "decoder.init.calls_per_frame": _ratio(len(inits), len(frames)),
        "decoder.init.s": per_job(sum(dur(s) for s in inits)),
        "quantization.quantize.s": per_job(
            sum(dur(s) for s in named["quantization.Quantizer.quantize"])),
        "quantization.lut_builds_per_frame": _ratio(
            len(named["quantization.build_pair_lut"]), len(frames)),
        "construction.row_structure.calls_per_step": _ratio(len(row_in_step), len(steps)),
        "construction.split_and_unwrap.calls_per_job":
            len(named["construction.split_and_unwrap"]) / n_jobs,
        "construction.syndrome.s": per_job(sum(dur(s) for s in syndrome)),
        "construction.girth.s": per_job(sum(dur(s) for s in named["construction.girth"])),
        "channel.s": per_job(channel_ns),
        "channel.ns_per_sample": _ratio(channel_ns, samples),
        "harness.self_s": per_job(sum(self_ns(s) for s in layer_spans("harness"))),
        "harness.frames_decoded": len(frames) / n_jobs,
        "harness.frames_used": frames_used / n_jobs,
        "harness.useful_frame_ratio": _ratio(frames_used, len(frames)),
        "arch.schedule.s": per_job(sched_ns),
        "arch.events": events / n_jobs,
        "arch.accesses": sum(s[NOTE][1] for s in sched) / n_jobs,
        "arch.us_per_event": _ratio(sched_ns / 1e3, events),
        "arch.audit.s": _p50(audits),
        "arch.csv.s": per_job(sum(dur(s) for s in named["arch.Schedule.csv_rows"])),
        "cli.self_s": per_job(sum(self_ns(s) for s in layer_spans("cli"))),
    }
    out = {k: v * speed if METRICS[k][0] in TIME_UNITS else v for k, v in out.items()}
    out["trace.overhead"] = traced_p50 / untraced_p50 - 1.0
    return out
