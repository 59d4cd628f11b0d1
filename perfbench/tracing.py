"""Spans around the public callables of the ldpccc modules, from outside.

``Tracer.install`` replaces every public function of each package module,
and every public method of its public classes, with a wrapper that records
a span.  A function imported into another module is patched there too,
because that is where the caller looks it up: ``ldpccc.harness`` calls its
own ``decode_stream`` binding, not the one in ``ldpccc.decoder``.
``Tracer.uninstall`` puts every original object back.

Pool workers forked while the tracer is installed inherit the wrappers.
They keep their spans in memory and write them to one file per process
when the worker exits; ``collect_workers`` moves those spans into the
parent's list.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pickle
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

LAYERS = ("construction", "channel", "quantization", "decoder", "arch",
          "harness", "cli")

# span tuple fields
SID, PARENT, NAME, START, END, JOB, PID, NOTE = range(8)

# constructors worth a span; dataclass constructors are left alone
_INIT_SPANS = {"StreamDecoder", "BlockDecoder", "ConvCode"}

# extra numbers kept beside a span: (args, result) -> value
_NOTES = {
    "channel.transmit_all_zero": lambda args, result: int(args[0]),
    "decoder.decode_stream": lambda args, result: (
        len(args[1]) // args[0].code.block_len),
    "arch.schedule_multi": lambda args, result: (
        len(result.events), sum(len(ev.accesses) for ev in result.events)),
}


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "ldpccc" or n.startswith("ldpccc.")]


def public_callables():
    """(owner, attribute, span name, original) for every traced callable.

    Public means listed in the module's ``__all__`` (or, without one, a
    module-level function whose name has no leading underscore), plus the
    public methods of public classes and the constructors in _INIT_SPANS.
    """
    targets = []
    for layer in LAYERS:
        mod = importlib.import_module(f"ldpccc.{layer}")
        names = getattr(mod, "__all__", None) or [
            n for n, v in vars(mod).items()
            if not n.startswith("_") and inspect.isfunction(v)
            and v.__module__ == mod.__name__
        ]
        for name in names:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                targets.append((mod, name, f"{layer}.{name}", obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    wanted = not attr.startswith("_") or (
                        attr == "__init__" and name in _INIT_SPANS)
                    if wanted and (inspect.isfunction(member) or isinstance(
                            member, (classmethod, staticmethod))):
                        targets.append((obj, attr, f"{layer}.{name}.{attr}", member))
    return targets


def package_bindings() -> dict:
    """Every attribute of every ldpccc module and of its classes, by key."""
    out = {}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(f"{mod.__name__}.{attr}", cattr)] = cvalue
    return out


class Tracer:
    """Records (sid, parent, name, start_ns, end_ns, job, pid, note) spans.

    ``job`` is set by the caller before each job; spans recorded while it
    is negative belong to the benchmark's own checks, not to a job.
    """

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.spans: list[tuple] = []
        self.job = -1
        self._stack: list[int] = []
        self._next = 0
        self._pid = os.getpid()
        self._patched: list[tuple] = []
        self._active = False
        # runs in multiprocessing children only, after their start-up reset
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _wrap(self, name, fn):
        note = _NOTES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            self.spans.append((sid, parent, name, t0, t1, self.job, self._pid,
                               None if note is None else note(args, result)))
            return result

        return wrapper

    def _after_fork(self):
        if not self._active:
            return
        # a forked pool worker: drop the parent's spans, write ours at exit
        self.spans = []
        self._stack = []
        self._next = 0
        self._pid = os.getpid()
        mp_util.Finalize(self, self._write_worker_spans, exitpriority=100)

    def _write_worker_spans(self):
        path = self.work_dir / f"spans-{self._pid}.pkl"
        path.write_bytes(pickle.dumps(self.spans))

    def install(self):
        if self._active:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for owner, attr, name, original in public_callables():
            if isinstance(original, (classmethod, staticmethod)):
                self._set(owner, attr, original,
                          type(original)(self._wrap(name, original.__func__)))
            elif inspect.isclass(owner):
                self._set(owner, attr, original, self._wrap(name, original))
            else:
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for a, v in list(vars(mod).items()):
                        if v is original:
                            self._set(mod, a, original, wrapped)
        self._active = True

    def _set(self, owner, attr, original, wrapped):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._active = False

    def collect_workers(self):
        """Move the spans of exited pool workers into ``spans``."""
        for path in sorted(self.work_dir.glob("spans-*.pkl")):
            # written by this benchmark's own forked workers
            self.spans.extend(pickle.loads(path.read_bytes()))
            path.unlink()

    def write(self, path: Path):
        """All spans as CSV, one line each."""
        lines = ["sid,parent,name,start_ns,end_ns,job,pid"]
        for s in self.spans:
            parent = "" if s[PARENT] is None else s[PARENT]
            lines.append(f"{s[SID]},{parent},{s[NAME]},{s[START]},{s[END]},"
                         f"{s[JOB]},{s[PID]}")
        path.write_text("\n".join(lines) + "\n")
