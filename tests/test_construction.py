import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

# random bases are allowed to have rank-deficient phases; the warning is
# exercised explicitly in its own test
pytestmark = pytest.mark.filterwarnings("ignore:diagonal sub-matrix")

from ldpccc.construction import (
    BaseMatrix,
    ConstructionError,
    SparseBinaryMatrix,
    demo_base,
    demo_base_names,
    expand_base,
    girth,
    split_and_unwrap,
    syndrome_check,
    window_matrix,
)
from ldpccc import construction
from ldpccc.decoder import _block_syndromes

from reference_hw import ref_girth_by_edge_bfs


def random_base(rng, rows=None, cols=None, z=None, zero_prob=0.0):
    rows = rows or int(rng.integers(2, 5))
    cols = cols or rows * int(rng.integers(2, 4))
    z = z or int(rng.integers(3, 8))
    while True:
        exps = []
        for _ in range(rows):
            row = [
                -1 if rng.random() < zero_prob else int(rng.integers(0, z))
                for _ in range(cols)
            ]
            exps.append(tuple(row))
        grid = np.array(exps)
        # keep every row and column populated so degrees stay sane
        if (grid != -1).all(axis=0).any() or zero_prob == 0.0:
            if ((grid != -1).sum(axis=0) > 0).all() and ((grid != -1).sum(axis=1) > 0).all():
                return BaseMatrix(z=z, exponents=tuple(exps))


# ---------------------------------------------------------------------------
# BaseMatrix


def test_base_matrix_validation():
    with pytest.raises(ConstructionError):
        BaseMatrix(z=1, exponents=((0, 0),))
    with pytest.raises(ConstructionError):
        BaseMatrix(z=4, exponents=((0, 4),))  # exponent out of range
    with pytest.raises(ConstructionError):
        BaseMatrix(z=4, exponents=((0, -2),))
    with pytest.raises(ConstructionError):
        BaseMatrix(z=4, exponents=((0, 1), (2,)))  # ragged
    with pytest.raises(ConstructionError):
        BaseMatrix(z=4, exponents=((0,), (1,)))  # taller than wide
    with pytest.raises(ConstructionError, match="rate"):
        split_and_unwrap(BaseMatrix(z=4, exponents=((0, 1), (2, 3))))


def test_base_matrix_error_names_position():
    with pytest.raises(ConstructionError, match=r"\(1, 2\)"):
        BaseMatrix(z=5, exponents=((0, 1, 2, 3), (4, 0, 7, 1)))


@pytest.mark.parametrize("bad", [0.7, 1.9, 1.0, True, False, "2", None])
def test_base_matrix_rejects_a_non_integer_exponent(bad):
    # 0.7 and 1.9 used to be truncated to 0 and 1, True read as 1 and "2" as 2
    exps = [[0, 1, -1, 1], [1, 0, 1, -1]]
    exps[1][2] = bad
    with pytest.raises(ConstructionError,
                       match=re.escape(f"exponent {bad!r} at (1, 2) is not an integer")):
        BaseMatrix(z=4, exponents=tuple(map(tuple, exps)))


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "8", None])
def test_base_matrix_rejects_a_non_integer_z(bad):
    # 2.5 used to fail in expand_base, 3.0 in a numpy cast, True as "must be >= 2"
    with pytest.raises(ConstructionError,
                       match=re.escape(f"expansion factor must be an integer, got {bad!r}")):
        BaseMatrix(z=bad, exponents=((0, 1, -1, 1), (1, 0, 1, -1)))


def test_base_matrix_takes_numpy_integers():
    grid = np.array([[0, 1, -1, 1], [1, 0, 1, -1]])
    for dtype in (np.int8, np.int32, np.int64):
        base = BaseMatrix(z=np.int64(4), exponents=tuple(map(tuple, grid.astype(dtype))))
        assert base == BaseMatrix(z=4, exponents=((0, 1, -1, 1), (1, 0, 1, -1)))
        assert all(type(e) is int for row in base.exponents for e in row)


@pytest.mark.parametrize("make, error, message", [
    (lambda: BaseMatrix(z=4, exponents=()), ConstructionError, "exponent grid is empty"),
    (lambda: BaseMatrix.from_text("# comment only\n\n"), ConstructionError,
     "no data in base matrix text"),
    (lambda: BaseMatrix.from_text("1 4\n0 1 2 3\n"), ConstructionError,
     "header must be 'rows cols z', got '1 4'"),
    (lambda: BaseMatrix.from_text("2 4 8\n0 1 2 3\n"), ConstructionError,
     "expected 2 grid rows, found 1"),
    (lambda: BaseMatrix.from_text("1 4 8\n0 1 2\n"), ConstructionError,
     "expected 4 entries per row, got 3"),
    (lambda: SparseBinaryMatrix(2, 2, [(0, 1, 1)]), ConstructionError,
     "entries must be (row, col) pairs"),
    (lambda: split_and_unwrap(demo_base("toy_2x4_z8")).row_structure(-1), ValueError,
     "block row index must be >= 0"),
    (lambda: window_matrix(split_and_unwrap(demo_base("toy_2x4_z8")), 0, 0), ValueError,
     "need at least one block row"),
    (lambda: window_matrix(split_and_unwrap(demo_base("toy_2x4_z8")), -1, 1), ValueError,
     "window start must be >= 0"),
    (lambda: window_matrix(split_and_unwrap(demo_base("toy_2x4_z8")), 0, 10**5),
     ConstructionError, "window too large to materialize"),
], ids=["empty-grid", "no-data", "short-header", "missing-row", "short-row",
        "triple-entries", "negative-row", "no-window-rows", "negative-window-start",
        "huge-window"])
def test_construction_rejects_malformed_input(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()


def test_base_matrix_text_roundtrip(tmp_path):
    base = BaseMatrix(z=5, exponents=((0, -1, 3, 2), (4, 1, -1, 0)))
    text = base.to_text()
    again = BaseMatrix.from_text("# comment line\n" + text)
    assert again == base
    path = tmp_path / "base.txt"
    path.write_text(text)
    assert BaseMatrix.load(path) == base


@st.composite
def valid_bases(draw):
    """Any valid base: fewer block rows than columns, and -1 entries anywhere."""
    z = draw(st.integers(2, 40))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(rows + 1, 12))
    entry = st.integers(-1, z - 1)
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return BaseMatrix(z=z, exponents=tuple(map(tuple, grid)))


@settings(max_examples=200, deadline=None)
@given(base=valid_bases())
def test_base_matrix_text_roundtrip_property(base):
    assert BaseMatrix.from_text(base.to_text()) == base


@settings(max_examples=100, deadline=None)
@given(base=valid_bases(), data=st.data())
def test_block_syndromes_match_windows_property(base, data):
    # flag w is the parity of block row w over the blocks it touches, as one
    # window per block computes it; zero blocks among random ones let some
    # rows see even parity
    assume(math.gcd(base.block_rows, base.block_cols) >= 2)
    code = split_and_unwrap(base)
    c, m = code.block_len, code.memory
    n_blocks = data.draw(st.integers(1, 3 * code.period))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2, (n_blocks, c)).astype(np.uint8)
    bits[rng.random(n_blocks) < 0.5] = 0
    bits = bits.ravel()
    want = [syndrome_check(window_matrix(code, w, 1), bits[max(0, w - m) * c:(w + 1) * c])
            for w in range(n_blocks)]
    assert _block_syndromes(code, bits).tolist() == want


def test_demo_bases_load():
    names = demo_base_names()
    assert "toy_2x4_z8" in names
    for name in names:
        base = demo_base(name)
        assert base.block_cols > base.block_rows


def test_demo_base_reads_each_bundled_file_once(monkeypatch):
    # bundled bases are parsed once per process and shared, being frozen;
    # an unknown name raises on every call
    construction._bundled_base.cache_clear()
    parsed = []
    from_text = BaseMatrix.from_text
    monkeypatch.setattr(BaseMatrix, "from_text",
                        lambda text: parsed.append(text) or from_text(text))
    first, second = demo_base("toy_2x4_z8"), demo_base("toy_2x4_z8")
    assert first is second and len(parsed) == 1
    for _ in range(2):
        with pytest.raises(ConstructionError, match="unknown demo base 'nope'"):
            demo_base("nope")


# ---------------------------------------------------------------------------
# expand_base


def test_expand_identity():
    base = BaseMatrix(z=3, exponents=((0, 0),))
    m = expand_base(base)
    assert np.array_equal(m.to_dense()[:, :3], np.eye(3, dtype=np.uint8))


def test_expand_shift_by_one():
    base = BaseMatrix(z=3, exponents=((1, 0),))
    m = expand_base(base)
    ones = {tuple(e) for e in m.entries() if e[1] < 3}
    assert ones == {(0, 1), (1, 2), (2, 0)}


def test_expand_2x2_mixed():
    # enumerate block placements by hand: 3 nonzero blocks of 4 ones each
    base = BaseMatrix(z=4, exponents=((0, 1), (-1, 2)))
    m = expand_base(base)
    assert m.nnz == 12
    assert m.to_dense().sum(axis=1).tolist() == [2, 2, 2, 2, 1, 1, 1, 1]


def test_expand_block_is_permutation():
    rng = np.random.default_rng(0)
    base = random_base(rng)
    m = expand_base(base)
    dense = m.to_dense()
    z = base.z
    for i, row in enumerate(base.exponents):
        for j, e in enumerate(row):
            block = dense[i * z:(i + 1) * z, j * z:(j + 1) * z]
            if e == -1:
                assert block.sum() == 0
            else:
                assert block.sum() == z
                assert (block.sum(axis=0) == 1).all()
                assert (block.sum(axis=1) == 1).all()


# ---------------------------------------------------------------------------
# SparseBinaryMatrix


def test_sparse_matrix_rejects_duplicates_and_range():
    with pytest.raises(ConstructionError):
        SparseBinaryMatrix(2, 2, [(0, 0), (0, 0)])
    with pytest.raises(ConstructionError):
        SparseBinaryMatrix(2, 2, [(0, 2)])


def test_sparse_matrix_supports():
    m = SparseBinaryMatrix(3, 4, [(0, 1), (0, 3), (2, 1)])
    assert m.row_support(0).tolist() == [1, 3]
    assert m.row_support(1).tolist() == []
    assert m.col_support(1).tolist() == [0, 2]
    assert m.row_weights().tolist() == [2, 0, 1]
    assert m.col_weights().tolist() == [0, 2, 0, 1]


# ---------------------------------------------------------------------------
# split_and_unwrap


def test_unwrap_period_two():
    base = demo_base("toy_2x4_z8")
    code = split_and_unwrap(base)
    assert code.period == 2
    assert code.memory == 1
    assert code.block_len == 2 * base.z
    assert code.block_len - code.info_len == base.z
    assert code.rate == 0.5


def test_unwrap_rate_five_sixths():
    base = demo_base("rate56_4x24_z31")
    code = split_and_unwrap(base)
    assert code.period == 4
    assert code.memory == 3
    assert code.rate == pytest.approx(5 / 6)


def test_unwrap_rejects_degenerate_period():
    base = BaseMatrix(z=4, exponents=((0, 1, 2),))  # gcd(1, 3) == 1
    with pytest.raises(ConstructionError, match="degenerate period"):
        split_and_unwrap(base)


def test_split_parts_recompose():
    rng = np.random.default_rng(1)
    for _ in range(10):
        base = random_base(rng, zero_prob=0.15)
        if math.gcd(base.block_rows, base.block_cols) < 2:
            continue
        code = split_and_unwrap(base)
        full = code.h_lower.to_dense() + code.h_upper.to_dense()
        assert np.array_equal(full, code.h_block.to_dense())
        # disjoint supports
        assert (code.h_lower.to_dense() & code.h_upper.to_dense()).sum() == 0


def test_split_triangular_supports():
    base = demo_base("toy_3x6_z16")
    code = split_and_unwrap(base)
    cb, c = code.checks_per_block, code.block_len
    for r, col in code.h_upper.entries():
        assert col // c > r // cb
    for r, col in code.h_lower.entries():
        assert col // c <= r // cb


def test_zero_upper_triangle_gives_block_diagonal():
    base = BaseMatrix(
        z=4, exponents=((0, 2, -1, -1), (1, 3, 0, 2))
    )  # strict upper super-block (base row 0, cols 2..3) is all zero
    code = split_and_unwrap(base)
    assert code.h_upper.nnz == 0
    win = window_matrix(code, 0, 2 * code.period)
    # with no coupling part the unwrapped matrix repeats the lower part
    dense = win.to_dense()
    tile = code.h_lower.to_dense()
    assert np.array_equal(dense[: tile.shape[0], : tile.shape[1]], tile)
    assert np.array_equal(
        dense[tile.shape[0]:, tile.shape[1]:], tile
    )


def test_rank_deficient_diagonal_warns():
    # base rows 0 and 1 agree on the first diagonal super-block, so its
    # expansion has two identical row sets
    base = BaseMatrix(
        z=2,
        exponents=(
            (0, 1, 0, 1, 1, 1),
            (0, 1, 0, 0, 1, 0),
            (1, 0, 1, 1, 0, 1),
            (0, 1, 1, 0, 1, 1),
        ),
    )
    with pytest.warns(UserWarning, match="rank"):
        split_and_unwrap(base)


# ---------------------------------------------------------------------------
# window_matrix


def test_window_first_row_is_diagonal_subblock():
    base = demo_base("toy_2x4_z8")
    code = split_and_unwrap(base)
    win = window_matrix(code, 0, 1)
    assert win == code.sub_block(0, 0)


def test_window_one_period_contains_each_phase_once():
    base = demo_base("toy_2x4_z8")
    code = split_and_unwrap(base)
    win = window_matrix(code, code.memory, code.period)
    # every (phase, delta) pair appears exactly once in the band
    c = code.block_len
    cb = code.checks_per_block
    seen = {}
    for r, col in win.entries():
        key = (r // cb, col // c)
        seen[key] = seen.get(key, 0) + 1
    counts = {k: v for k, v in seen.items()}
    assert len(counts) == code.period * (code.memory + 1)
    phases = {(t + code.memory) % code.period for t in range(code.period)}
    assert phases == set(range(code.period))


def test_window_periodicity():
    rng = np.random.default_rng(2)
    for _ in range(5):
        base = random_base(rng, zero_prob=0.1)
        if math.gcd(base.block_rows, base.block_cols) < 2:
            continue
        code = split_and_unwrap(base)
        t = code.memory + int(rng.integers(0, 3))
        a = window_matrix(code, t, 3)
        b = window_matrix(code, t + code.period, 3)
        assert a == b


def test_window_interior_weights_match_block_code():
    base = demo_base("toy_3x6_z16")  # no -1 entries
    code = split_and_unwrap(base)
    win = window_matrix(code, code.memory, 2 * code.period)
    assert set(win.row_weights().tolist()) == {base.block_cols}
    # interior columns (full band coverage) carry the block-code weight
    col_w = win.col_weights()
    interior = col_w[
        code.memory * code.block_len: -(code.memory * code.block_len) or None
    ]
    assert set(interior.tolist()) == {base.block_rows}


# ---------------------------------------------------------------------------
# girth


def _girth_by_vertex_bfs(matrix):
    """Textbook per-root BFS girth used as an independent oracle."""
    import collections

    n_rows, n_cols = matrix.shape
    adj = {}
    for r in range(n_rows):
        adj[("c", r)] = [("v", int(x)) for x in matrix.row_support(r)]
    for c in range(n_cols):
        adj[("v", c)] = [("c", int(x)) for x in matrix.col_support(c)]
    best = math.inf
    for root in adj:
        dist = {root: 0}
        parent = {root: None}
        queue = collections.deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent.get(w) != u:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def test_girth_all_ones_2x2():
    m = SparseBinaryMatrix(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert girth(m) == 4


def test_girth_tree_is_infinite():
    m = SparseBinaryMatrix(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    assert girth(m) == math.inf


def test_girth_matches_vertex_bfs_oracle():
    rng = np.random.default_rng(3)
    base = random_base(rng, rows=3, cols=6, z=5)
    m = expand_base(base)
    assert girth(m) == _girth_by_vertex_bfs(m)
    for _ in range(8):
        b = random_base(rng, zero_prob=0.2)
        m = expand_base(b)
        assert girth(m) == _girth_by_vertex_bfs(m)


@st.composite
def qc_bases(draw):
    rows = draw(st.integers(2, 3))
    cols = rows * draw(st.integers(2, 3))
    z = draw(st.integers(2, 4))
    exps = draw(st.lists(st.lists(st.integers(-1, z - 1), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    grid = np.array(exps)
    assume((grid != -1).any(axis=0).all() and (grid != -1).any(axis=1).all())
    return BaseMatrix(z=z, exponents=tuple(map(tuple, exps)))


@settings(max_examples=30, deadline=None)
@given(base=qc_bases(), periods=st.sampled_from([0, 1, 2, 3]))
def test_girth_matches_slow_references(base, periods):
    """periods 0: the expanded block matrix; k: a window of k periods."""
    if periods == 0:
        m = expand_base(base)
    else:
        code = split_and_unwrap(base)
        m = window_matrix(code, 0, periods * code.period)
    g = girth(m)
    assert g == ref_girth_by_edge_bfs(m) == _girth_by_vertex_bfs(m)
    assert g == math.inf or (type(g) is int and g % 2 == 0)


def _cycle(n, offset=0):
    """Entries of a cycle of length 2n on n checks and n variables."""
    return [(offset + i, offset + i) for i in range(n)] + [
        (offset + i, offset + (i + 1) % n) for i in range(n)]


GIRTH_SPECIAL_CASES = {
    "empty": (SparseBinaryMatrix(3, 4, []), math.inf),
    "tree": (SparseBinaryMatrix(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)]),
             math.inf),
    "four-cycle": (SparseBinaryMatrix(2, 2, _cycle(2)), 4),
    "six-cycle-and-isolated": (SparseBinaryMatrix(5, 6, _cycle(3, 1)), 6),
    "disconnected-8-and-6": (SparseBinaryMatrix(7, 7, _cycle(4) + _cycle(3, 4)), 6),
    "disconnected-tree-and-10": (
        SparseBinaryMatrix(8, 8, [(0, 0), (0, 1), (1, 1), (1, 2)] + _cycle(5, 3)), 10),
}


@pytest.mark.parametrize("case", list(GIRTH_SPECIAL_CASES))
def test_girth_special_cases(case):
    m, want = GIRTH_SPECIAL_CASES[case]
    assert girth(m) == want
    assert ref_girth_by_edge_bfs(m) == want and _girth_by_vertex_bfs(m) == want


@pytest.mark.parametrize("budget", [1, 100, 1000])
def test_girth_same_for_any_root_chunk(monkeypatch, budget):
    rng = np.random.default_rng(11)
    mats = [m for m, _ in GIRTH_SPECIAL_CASES.values()]
    for _ in range(4):
        code = split_and_unwrap(random_base(rng, zero_prob=0.2))
        mats += [code.h_block, window_matrix(code, 0, 2 * code.period)]
    want = [girth(m) for m in mats]
    monkeypatch.setattr(construction, "_GIRTH_CHUNK_BYTES", budget)
    assert [girth(m) for m in mats] == want


def test_girth_preserved_by_unwrapping():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 25:
        base = random_base(rng, zero_prob=0.1)
        if math.gcd(base.block_rows, base.block_cols) < 2:
            continue
        code = split_and_unwrap(base)
        g_block = girth(code.h_block)
        for k in (1, 2, 3):
            win = window_matrix(code, 0, k * code.period)
            assert girth(win) >= g_block
        checked += 1


# ---------------------------------------------------------------------------
# syndrome_check


def test_syndrome_zero_vector():
    base = demo_base("toy_2x4_z8")
    m = expand_base(base)
    assert syndrome_check(m, np.zeros(m.cols, dtype=np.uint8))


def test_syndrome_single_one_fails():
    base = demo_base("toy_2x4_z8")
    m = expand_base(base)
    bits = np.zeros(m.cols, dtype=np.uint8)
    col = int(m.entries()[0][1])
    bits[col] = 1  # column with odd (nonzero) support parity
    assert not syndrome_check(m, bits)


def test_syndrome_length_mismatch():
    base = demo_base("toy_2x4_z8")
    m = expand_base(base)
    with pytest.raises(ValueError):
        syndrome_check(m, np.zeros(m.cols - 1))
