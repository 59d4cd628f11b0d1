"""The bindings that the benchmark's own files rely on, checked at tier 1.

perfbench runs outside the test suite, so a change under ``src/`` that
broke its imports, or a binding its self-test patches, would otherwise show
only once the benchmark runs.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_modules_import_and_find_their_bindings(monkeypatch):
    for sub in ("tests", "perfbench", "src"):
        monkeypatch.syspath_prepend(str(ROOT / sub))
    importlib.import_module("workloads")
    importlib.import_module("reference_decoder")
    import ldpccc.construction
    import ldpccc.decoder

    # perfbench/selftest.py swaps the float check update, and checks that
    # its tracer patches the syndrome check where the decoder looks it up
    assert callable(ldpccc.decoder._cnp_float_rows)
    assert ldpccc.decoder.syndrome_check is ldpccc.construction.syndrome_check
