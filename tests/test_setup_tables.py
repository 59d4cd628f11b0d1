"""The per-period set-up against the row-by-row builders it replaced.

``ConvCode`` derives its sub-matrices, row layouts and diagonal rank check
from one sort of the block code's entries, and the window tables are one
period's template broadcast over the window.  ``tests/reference_setup.py``
keeps the slow forms; every table here must equal them array for array,
dtypes included.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldpccc.construction
import ldpccc.decoder
from ldpccc.construction import (
    BaseMatrix,
    SparseBinaryMatrix,
    demo_base,
    demo_base_names,
    split_and_unwrap,
)
from ldpccc.decoder import DecoderConfig, StreamDecoder
from ldpccc.harness import ExperimentConfig, run_ber

from reference_setup import (
    ref_build_row_structure,
    ref_build_window_tables,
    ref_gf2_full_row_rank,
    ref_sub_entries,
)
from test_pipeline import period_four_code

pytestmark = pytest.mark.filterwarnings("ignore:diagonal sub-matrix")


def quiet_code(base):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "diagonal sub-matrix")
        return split_and_unwrap(base)


def fixed_codes():
    """Every bundled code, the period-4 code with -1 entries and a code
    without edges."""
    return ([split_and_unwrap(demo_base(name)) for name in demo_base_names()]
            + [period_four_code(np.random.default_rng(5)),
               quiet_code(BaseMatrix(z=3, exponents=((-1,) * 4,) * 2))])


@st.composite
def periodic_bases(draw):
    """Small bases with a period of at least 2 and -1 entries anywhere."""
    period = draw(st.integers(2, 4))
    rows = period * draw(st.integers(1, 2))
    cols = period * draw(st.integers(rows // period + 1, 4))
    z = draw(st.integers(2, 7))
    entry = st.integers(-1, z - 1)
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return BaseMatrix(z=z, exponents=tuple(map(tuple, grid)))


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def assert_same_rows(code):
    for t in range(code.memory + 2 * code.period):
        got, want = code.row_structure(t), ref_build_row_structure(code, t)
        assert got.n_edges == want.n_edges
        for name in ("edge_check", "edge_delta", "edge_col"):
            assert_same_array(getattr(got, name), getattr(want, name))
        assert [deg for deg, _ in got.by_degree] == [deg for deg, _ in want.by_degree]
        for (_, pos), (_, ref) in zip(got.by_degree, want.by_degree):
            assert_same_array(pos, ref)
    for i in range(code.period):
        for j in range(code.period):
            want = np.stack(ref_sub_entries(code, i, j), axis=1)
            assert code.sub_block(i, j) == SparseBinaryMatrix(
                code.checks_per_block, code.block_len, want)


def window_lengths(code):
    """1, memory, memory + period - 1, a 64-block frame's window with
    8 processors, and the step windows of 1 and 8 processors."""
    m, p = code.memory, code.period
    steps = []
    for n_proc in (1, 8):
        dec = StreamDecoder(code, DecoderConfig(n_proc))
        dec.step(np.zeros(code.block_len))
        steps.append(len(dec._lam))
    return sorted({1, m, m + p - 1, 64 + 8 * m, *steps})


def assert_same_window(code, n_rows):
    got = ldpccc.decoder._build_window_tables(code, n_rows)
    want = ref_build_window_tables(code, n_rows)
    assert len(got.groups) == len(want.groups)
    for (deg, lo, hi, rows), (ref_deg, ref_lo, ref_hi, ref_rows) in zip(got.groups, want.groups):
        assert (deg, lo, hi) == (ref_deg, ref_lo, ref_hi)
        assert_same_array(rows, ref_rows)
    assert_same_array(got.slot_col, want.slot_col)
    assert_same_array(got.col_slots, want.col_slots)


@pytest.mark.parametrize("code", fixed_codes(), ids=repr)
def test_row_structures_match_the_reference(code):
    assert_same_rows(code)


@pytest.mark.parametrize("code", fixed_codes(), ids=repr)
def test_window_tables_match_the_reference(code):
    for n_rows in window_lengths(code):
        assert_same_window(code, n_rows)


@settings(max_examples=40, deadline=None)
@given(base=periodic_bases(), n_rows=st.integers(1, 40))
def test_tables_match_the_reference_property(base, n_rows):
    code = quiet_code(base)
    assert_same_rows(code)
    assert_same_window(code, n_rows)
    assert_same_window(code, code.memory + code.period - 1)


def dense_gf2_rank(matrix):
    """Rank over GF(2) by elimination on a dense 0/1 array."""
    m = np.array(matrix, dtype=np.uint8) % 2
    rank = 0
    for col in range(m.shape[1]):
        below = np.flatnonzero(m[rank:, col])
        if below.size == 0:
            continue
        m[[rank, rank + below[0]]] = m[[rank + below[0], rank]]
        others = np.flatnonzero(m[:, col])
        m[others[others != rank]] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


@settings(max_examples=60, deadline=None)
@given(base=periodic_bases())
def test_rank_warning_marks_exactly_the_deficient_phases(base):
    # the elimination on integer rows warns, from the caller of
    # split_and_unwrap's frame, for exactly the phases whose diagonal
    # sub-matrix has dependent rows in a dense elimination and in the
    # bit-loop reference
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = split_and_unwrap(base)
    warned = [int(re.match(r"diagonal sub-matrix (\d+) ", str(w.message)).group(1))
              for w in caught]
    assert all(w.filename == ldpccc.construction.__file__ for w in caught)
    dense = code.h_block.to_dense()
    cb, c = code.checks_per_block, code.block_len
    deficient = [k for k in range(code.period)
                 if dense_gf2_rank(dense[k * cb:(k + 1) * cb, k * c:(k + 1) * c]) < cb]
    assert warned == deficient
    assert deficient == [k for k in range(code.period) if not ref_gf2_full_row_rank(
        code.h_block, k * cb, (k + 1) * cb, k * c, (k + 1) * c)]


def test_a_run_builds_each_row_layout_and_the_window_once(monkeypatch):
    # one toy run_ber call builds the code once, each of its memory +
    # period row layouts once and the window tables once
    base = demo_base("toy_2x4_z16")
    code = split_and_unwrap(base)
    layouts, windows = [], []
    real_layouts = ldpccc.construction._row_layouts
    real_window = ldpccc.decoder._build_window_tables

    def count_layouts(*args):
        layouts.append(real_layouts(*args))
        return layouts[-1]

    def count_window(code, n_rows):
        windows.append(n_rows)
        return real_window(code, n_rows)

    monkeypatch.setattr(ldpccc.construction, "_row_layouts", count_layouts)
    monkeypatch.setattr(ldpccc.decoder, "_build_window_tables", count_window)
    points = run_ber(ExperimentConfig(base=base, variant="qspa", ebno_grid=(4.0,),
                                      min_error_events=10**9, max_blocks=2 * 32,
                                      frame_blocks=32))
    assert points[0].blocks_sent == 64
    assert [len(built) for built in layouts] == [code.memory + code.period]
    # the frame's own 32 rows: the zero reach of toy_2x4_z16 is 0
    assert windows == [ldpccc.decoder._window_rows(code, 32, 8)] == [32]
