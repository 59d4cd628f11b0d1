"""Every numeric setting of every config type takes numbers of its kind only.

A count takes Python and numpy integers, a real Python and numpy reals;
both are stored as the Python ``int`` or ``float`` of the value, so a config
built from a numpy number equals the one built from its Python value.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpccc.arch import ArchModelError, ArchParams, schedule_single
from ldpccc.channel import ChannelConfig
from ldpccc.construction import BaseMatrix, ConstructionError, demo_base
from ldpccc.decoder import DecoderConfig
from ldpccc.harness import ExperimentConfig
from ldpccc.quantization import Quantizer

TOY_ARCH = ArchParams(z=12, block_rows=4, block_cols=8, stages=3, processors=2)
TOY_RUN = ExperimentConfig(base=demo_base("toy_2x4_z8"))
GRID = ((0, -1, 0, 0), (0, 0, -1, 0))


def arch(name):
    return lambda v: replace(TOY_ARCH, **{name: v}), lambda c: getattr(c, name)


def run(name):
    return lambda v: replace(TOY_RUN, **{name: v}), lambda c: getattr(c, name)


def real_values(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# setting: (build a config from a value, read the value back), the name its
# errors give, the valid values, an out-of-range value (None: every finite
# one is valid) and the error type; a real setting's valid values are floats
COUNTS = {
    "ArchParams.z": (arch("z"), "z", st.integers(1, 40).map(lambda k: 3 * k), 0, ArchModelError),
    "ArchParams.block_rows": (arch("block_rows"), "block_rows", st.sampled_from([2, 4, 6]),
                              0, ArchModelError),
    "ArchParams.block_cols": (arch("block_cols"), "block_cols", st.sampled_from([8, 12, 16]),
                              0, ArchModelError),
    "ArchParams.stages": (arch("stages"), "stages", st.sampled_from([1, 2, 3, 4, 6, 12]), 0,
                          ArchModelError),
    "ArchParams.processors": (arch("processors"), "processors", st.integers(1, 100), 0,
                              ArchModelError),
    "ArchParams.quant_bits": (arch("quant_bits"), "quant_bits", st.integers(1, 100), 0,
                              ArchModelError),
    "ArchParams.stage_delay": (arch("stage_delay"), "stage_delay", st.integers(0, 100), -1,
                               ArchModelError),
    "ArchParams.codewords": (arch("codewords"), "codewords", st.integers(1, 4), 5,
                             ArchModelError),
    "Schedule.steps": ((lambda v: schedule_single(TOY_ARCH, v), lambda s: s.steps), "steps",
                       st.integers(0, 12), -1, ArchModelError),
    "DecoderConfig.iterations": ((DecoderConfig, lambda c: c.iterations), "iterations",
                                 st.integers(1, 64), 0, ValueError),
    "Quantizer.bits": ((Quantizer, lambda q: q.bits), "bits", st.integers(2, 8), 9, ValueError),
    "ChannelConfig.seed": ((lambda v: ChannelConfig(3.0, 0.5, v), lambda c: c.seed), "seed",
                           st.integers(0, 2**64 - 1), -1, ValueError),
    # the decoder and the quantizer check these two ranges when a run is built
    "ExperimentConfig.iterations": (run("iterations"), "iterations", st.integers(-9, 64), None,
                                    ValueError),
    "ExperimentConfig.quant_bits": (run("quant_bits"), "quant_bits", st.integers(-9, 64), None,
                                    ValueError),
    "ExperimentConfig.min_error_events": (run("min_error_events"), "min_error_events",
                                          st.integers(1, 10**6), 0, ValueError),
    "ExperimentConfig.max_blocks": (run("max_blocks"), "max_blocks", st.integers(1, 10**9), 0,
                                    ValueError),
    "ExperimentConfig.seed": (run("seed"), "seed", st.integers(0, 2**64 - 1), -1, ValueError),
    "ExperimentConfig.workers": (run("workers"), "workers", st.integers(1, 64), 0, ValueError),
    "ExperimentConfig.frame_blocks": (run("frame_blocks"), "frame_blocks", st.integers(1, 300),
                                      0, ValueError),
    "BaseMatrix.z": ((lambda v: BaseMatrix(v, GRID), lambda b: b.z), "expansion factor",
                     st.integers(2, 10**6), 1, ConstructionError),
}
REALS = {
    "ArchParams.clock_hz": (arch("clock_hz"), "clock_hz", real_values(1.0, 6e4), 0.0,
                            ArchModelError),
    "DecoderConfig.clamp": ((lambda v: DecoderConfig(8, clamp=v), lambda c: c.clamp), "clamp",
                            real_values(0.5, 100.0), -1.0, ValueError),
    "Quantizer.step": ((lambda v: Quantizer(4, v), lambda q: q.step), "step",
                       real_values(0.125, 4.0), 0.0, ValueError),
    "ChannelConfig.ebno_db": ((lambda v: ChannelConfig(v, 0.5, 1), lambda c: c.ebno_db),
                              "ebno_db", real_values(-5.0, 10.0), None, ValueError),
    "ChannelConfig.rate": ((lambda v: ChannelConfig(3.0, v, 1), lambda c: c.rate), "rate",
                           real_values(0.05, 0.95), 1.0, ValueError),
    "ExperimentConfig.ebno_grid": ((lambda v: replace(TOY_RUN, ebno_grid=(v,)),
                                    lambda c: c.ebno_grid[0]), "ebno_grid",
                                   real_values(-5.0, 10.0), None, ValueError),
}
INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
FLOATS = (np.float16, np.float32, np.float64, np.longdouble)
NOT_NUMBERS = (True, False, np.bool_(True), "3", None, math.nan, math.inf, -math.inf)


@settings(max_examples=400, deadline=None)
@given(setting=st.sampled_from(sorted(COUNTS) + sorted(REALS)), data=st.data())
def test_a_setting_takes_numbers_of_its_kind_and_stores_their_python_value(setting, data):
    count = setting in COUNTS
    (build, read), name, valid, out_of_range, error = (COUNTS if count else REALS)[setting]
    wrong_kind = (2.5, np.float64(1.0)) if count else (np.array(0.5), 1j)
    extra = () if out_of_range is None else (out_of_range,)
    for bad in NOT_NUMBERS + wrong_kind + extra:
        if bad is None and setting == "Schedule.steps":
            continue  # None picks the default step count
        with pytest.raises(error, match=re.escape(name)):
            build(bad)
    value = data.draw(valid, label="value")
    if count:
        kinds = [k for k in INTEGERS if np.iinfo(k).min <= value <= np.iinfo(k).max]
    else:
        kinds = FLOATS
    number = data.draw(st.sampled_from(kinds), label="kind")(value)
    python = int(number) if count else float(number)
    config = build(number)
    assert type(read(config)) is type(python) and read(config) == python
    assert config == build(python)
