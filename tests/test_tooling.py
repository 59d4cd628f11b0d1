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


def test_float_kernel_mutation_reaches_the_frame_engine(monkeypatch):
    # perfbench/selftest.py swaps the float check update for one 5% off and
    # expects the float oracle to notice: the frame engine must look the
    # kernel up where that swap puts it, at call time
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import numpy as np

    import ldpccc.decoder as d
    from ldpccc.construction import demo_base, split_and_unwrap

    code = split_and_unwrap(demo_base("rate56_4x24_z31"))
    llrs = np.random.default_rng(3).normal(1.0, 1.5, 4 * code.block_len) * 2.0

    def decode():
        return d.decode_stream(d.StreamDecoder(code, d.DecoderConfig(8)), llrs).soft

    good = decode()
    original = d._cnp_float_rows
    monkeypatch.setattr(d, "_cnp_float_rows", lambda v, clamp: 0.95 * original(v, clamp))
    assert not np.array_equal(decode(), good)


def test_value_table_mutation_reaches_the_frame_engine(monkeypatch):
    # the frame engine folds quantized messages through the lut's value
    # table, read where the lut keeps it: one changed entry, the combine
    # of two values of +2 steps, changes the soft output
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import numpy as np

    import ldpccc.decoder as d
    from ldpccc.construction import demo_base, split_and_unwrap
    from ldpccc.quantization import PairLut

    code = split_and_unwrap(demo_base("rate56_4x24_z31"))
    llrs = np.random.default_rng(3).normal(1.0, 1.5, 4 * code.block_len) * 2.0

    def decode():
        return d.decode_stream(d.StreamDecoder(code, d.DecoderConfig(8, d.VARIANT_QSPA)),
                               llrs).soft

    good = decode()
    lut = d.StreamDecoder(code, d.DecoderConfig(8, d.VARIANT_QSPA)).lut
    m = lut.quantizer.max_magnitude_int
    table = lut.value_table.copy()
    table[m + 2, m + 2] += 1
    monkeypatch.setattr(PairLut, "value_table", property(lambda self: table))
    assert not np.array_equal(decode(), good)
