"""QC-LDPC block codes and their unwrapping into convolutional codes.

A quasi-cyclic block code is given by a grid of circulant exponents: -1
marks an all-zero z-by-z block, a value k in [0, z) marks the identity
matrix cyclically right-shifted by k.  Expanding the grid yields a binary
parity-check matrix.  Splitting that matrix into a lower and a strictly
upper block-triangular part (at the granularity of an M-by-M partition,
M = gcd of the grid dimensions) and tiling the two parts down an infinite
diagonal yields the parity-check matrix of an unterminated convolutional
code with period M and memory M - 1.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._settings import _count

__all__ = [
    "ConstructionError",
    "BaseMatrix",
    "SparseBinaryMatrix",
    "ConvCode",
    "RowStructure",
    "expand_base",
    "split_and_unwrap",
    "window_matrix",
    "girth",
    "syndrome_check",
    "demo_base",
    "demo_base_names",
]


class ConstructionError(ValueError):
    """Invalid base matrix, parameters, or matrix data."""


@dataclass(frozen=True)
class BaseMatrix:
    """Circulant-exponent description of a QC-LDPC block code.

    ``exponents[i][j]`` is -1 for an all-zero block or a right-shift in
    [0, z).  The grid must be strictly wider than tall (more variable
    blocks than check blocks).
    """

    z: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "z", _count("expansion factor", self.z, 2, ConstructionError))
        rows = len(self.exponents)
        if rows < 1:
            raise ConstructionError("exponent grid is empty")
        cols = len(self.exponents[0])
        for i, row in enumerate(self.exponents):
            if len(row) != cols:
                raise ConstructionError(f"ragged exponent grid at row {i}")
            for j, e in enumerate(row):
                try:
                    _count("exponent", e, error=ConstructionError)
                except ConstructionError:
                    raise ConstructionError(
                        f"exponent {e!r} at ({i}, {j}) is not an integer") from None
                if e != -1 and not 0 <= e < self.z:
                    raise ConstructionError(
                        f"exponent {e} at ({i}, {j}) outside {{-1}} | [0, {self.z})"
                    )
        object.__setattr__(self, "exponents",
                           tuple(tuple(int(e) for e in row) for row in self.exponents))
        if cols < rows:
            raise ConstructionError(
                f"grid must be at least as wide as tall, got {rows}x{cols}"
            )

    @property
    def block_rows(self) -> int:
        return len(self.exponents)

    @property
    def block_cols(self) -> int:
        return len(self.exponents[0])

    @classmethod
    def from_text(cls, text: str) -> "BaseMatrix":
        """Parse the text format: ``n_rows n_cols z`` then one grid row per line.

        ``#`` starts a comment; blank lines are ignored.
        """
        lines = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
        if not lines:
            raise ConstructionError("no data in base matrix text")
        head = lines[0].split()
        if len(head) != 3:
            raise ConstructionError(f"header must be 'rows cols z', got {lines[0]!r}")
        rows, cols, z = (int(x) for x in head)
        if len(lines) - 1 != rows:
            raise ConstructionError(
                f"expected {rows} grid rows, found {len(lines) - 1}"
            )
        grid = []
        for line in lines[1:]:
            parts = [int(x) for x in line.split()]
            if len(parts) != cols:
                raise ConstructionError(
                    f"expected {cols} entries per row, got {len(parts)}"
                )
            grid.append(tuple(parts))
        return cls(z=z, exponents=tuple(grid))

    @classmethod
    def load(cls, path: str | Path) -> "BaseMatrix":
        return cls.from_text(Path(path).read_text())

    def to_text(self) -> str:
        lines = [f"{self.block_rows} {self.block_cols} {self.z}"]
        for row in self.exponents:
            lines.append(" ".join(str(e) for e in row))
        return "\n".join(lines) + "\n"


class SparseBinaryMatrix:
    """Set of (row, col) positions of ones, iterable by row and by column."""

    def __init__(self, rows: int, cols: int, entries):
        arr = np.asarray(list(entries) if not isinstance(entries, np.ndarray) else entries,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ConstructionError("entries must be (row, col) pairs")
        if arr.size:
            if arr.min() < 0 or arr[:, 0].max() >= rows or arr[:, 1].max() >= cols:
                raise ConstructionError("entry position out of range")
        self.rows = int(rows)
        self.cols = int(cols)
        key = np.sort(arr[:, 0] * self.cols + arr[:, 1], kind="stable")  # row-major
        if (key[1:] == key[:-1]).any():
            raise ConstructionError("duplicate entry positions")
        self._rows, self._cols = np.divmod(key, max(self.cols, 1))
        # CSR-style row pointers for row_support
        self._row_ptr = np.searchsorted(self._rows, np.arange(rows + 1))
        self._col_sorted = None

    @property
    def nnz(self) -> int:
        return int(self._rows.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entries(self) -> np.ndarray:
        """All (row, col) positions in row-major order, shape (nnz, 2)."""
        return np.stack([self._rows, self._cols], axis=1)

    def row_support(self, r: int) -> np.ndarray:
        lo, hi = self._row_ptr[r], self._row_ptr[r + 1]
        return self._cols[lo:hi]

    def _ensure_col_index(self):
        if self._col_sorted is None:
            order = np.lexsort((self._rows, self._cols))
            cs = self._cols[order]
            self._col_sorted = (
                self._rows[order],
                np.searchsorted(cs, np.arange(self.cols + 1)),
            )

    def col_support(self, c: int) -> np.ndarray:
        self._ensure_col_index()
        rows_by_col, ptr = self._col_sorted
        return rows_by_col[ptr[c]:ptr[c + 1]]

    def row_weights(self) -> np.ndarray:
        return np.diff(self._row_ptr)

    def col_weights(self) -> np.ndarray:
        return np.bincount(self._cols, minlength=self.cols)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.rows, self.cols), dtype=np.uint8)
        dense[self._rows, self._cols] = 1
        return dense

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseBinaryMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.nnz == other.nnz
            and bool(np.array_equal(self._rows, other._rows))
            and bool(np.array_equal(self._cols, other._cols))
        )

    def __repr__(self) -> str:
        return f"SparseBinaryMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _expanded_entries(base: BaseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each one of the expanded matrix: block (i, j) with
    exponent k puts row i*z + r's one at column j*z + (r + k) mod z."""
    z = base.z
    exps = np.array(base.exponents, dtype=np.int64)
    i, j = np.nonzero(exps != -1)
    shift = np.arange(z, dtype=np.int64)
    return ((i[:, None] * z + shift).ravel(),
            (j[:, None] * z + (shift + exps[i, j][:, None]) % z).ravel())


def expand_base(base: BaseMatrix) -> SparseBinaryMatrix:
    """Expand circulant exponents into the full binary parity-check matrix.

    Block (i, j) with exponent k becomes the z-by-z identity right-shifted
    by k: row r has its one at column (r + k) mod z.
    """
    return SparseBinaryMatrix(base.block_rows * base.z, base.block_cols * base.z,
                              np.stack(_expanded_entries(base), axis=1))


def _gf2_full_row_rank(rows) -> bool:
    """Row rank over GF(2) of ``rows``, each a Python int with bit c for
    column c, equals their count: each row is eliminated against the pivots
    found so far."""
    pivots = {}
    for bits in rows:
        while bits:
            top = bits.bit_length() - 1
            if top in pivots:
                bits ^= pivots[top]
            else:
                pivots[top] = bits
                break
        else:
            return False  # row reduced to zero
    return True


@dataclass(frozen=True)
class RowStructure:
    """Edge layout of one block row of the unterminated parity matrix.

    Edges are listed in a canonical order (by check, then by the variable
    block they touch, then by column inside the block).  ``edge_delta[e]``
    gives the block-offset delta so the edge's variable block is
    ``t - delta`` for block row t.
    """

    n_edges: int
    edge_check: np.ndarray     # (n_edges,) check index inside the block row
    edge_delta: np.ndarray     # (n_edges,) block offset, 0 = newest block
    edge_col: np.ndarray       # (n_edges,) column inside the variable block
    by_degree: tuple           # ((degree, positions (k, degree)), ...)


def _grouped(keys: np.ndarray, n_keys: int, values: np.ndarray) -> list:
    """Per key k in [0, n_keys), the ``values`` at the positions holding k,
    in position order: one stable sort."""
    ends = np.bincount(keys, minlength=n_keys).cumsum().tolist()
    values = values[keys.argsort(kind="stable")]
    return [values[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _row_layouts(layout: np.ndarray, check: np.ndarray, delta: np.ndarray, col: np.ndarray,
                 n: int, n_checks: int) -> list:
    """Row structures of edges listed layout by layout (``n`` layouts),
    each layout's edges in canonical order.  One stable sort groups every
    layout's positions by check degree."""
    counts = np.bincount(layout, minlength=n)
    ends = counts.cumsum().tolist()
    # each edge's position in its layout
    local = np.arange(layout.size) - np.repeat([0] + ends[:-1], counts)
    node = layout * n_checks + check
    degree = np.bincount(node, minlength=n * n_checks)[node]
    top = int(degree.max(initial=0)) + 1
    by_degree = _grouped(layout * top + degree, n * top, local)
    return [RowStructure(
        n_edges=hi - lo,
        edge_check=check[lo:hi],
        edge_delta=delta[lo:hi],
        edge_col=col[lo:hi],
        by_degree=tuple((g, pos.reshape(-1, g))
                        for g, pos in enumerate(by_degree[k * top:(k + 1) * top]) if pos.size),
    ) for k, (lo, hi) in enumerate(zip([0] + ends, ends))]


class ConvCode:
    """Unwrapped convolutional parity structure derived from a block code.

    Block row t of the unterminated matrix holds, for each offset delta in
    [0, memory], the sub-matrix of the expanded block code at grid position
    (t mod period, (t - delta) mod period); the sub-matrix multiplies the
    variable block t - delta.  Lower-triangular grid positions come from
    the fundamental tile, strictly upper ones from the tile one period up.

    Everything is derived per period, not per block row.  One period of
    full-band rows holds each sub-matrix once, so one sort of the block
    code's entries gives every row phase's layout, and a phase's layout cut
    to offsets <= t gives row t < memory.  ``h_block``, its triangles and
    the decoder's window tables are built on first use and kept here.
    """

    def __init__(self, base: BaseMatrix):
        if base.block_cols <= base.block_rows:
            raise ConstructionError(
                "code rate would not be positive; the grid needs more "
                "variable blocks than check blocks"
            )
        period = math.gcd(base.block_rows, base.block_cols)
        if period == 1:
            raise ConstructionError("degenerate period; code would be block-like")
        self.base = base
        self.z = base.z
        self.period = period
        self.memory = period - 1
        self.checks_per_block = base.z * base.block_rows // period
        self.block_len = base.z * base.block_cols // period
        self.info_len = self.block_len - self.checks_per_block
        self.rate = self.info_len / self.block_len
        # one period of full-band rows holds each sub-matrix once, phase i
        # (i, j) at offset (i - j) mod period; sorted phase by phase in the
        # canonical order in which the quantized fold consumes a check's
        # inputs: check, then oldest block first, then column
        row, column = _expanded_entries(base)
        phase, check = np.divmod(row.astype(np.int32), self.checks_per_block)
        block, col = np.divmod(column.astype(np.int32), self.block_len)
        delta = (phase - block) % period
        order = ((row * period - delta) * self.block_len + col).argsort(kind="stable")
        phase, check, delta, col = phase[order], check[order], delta[order], col[order]
        # and, as layouts period .. period + memory - 1, each row t < memory:
        # its phase's full-band row cut to offsets <= t
        head = np.flatnonzero((phase < self.memory) & (delta <= phase))
        layouts = _row_layouts(*(np.concatenate([x, y[head]]) for x, y in (
            (phase, phase + period), (check, check), (delta, delta), (col, col))),
            period + self.memory, self.checks_per_block)
        # row_structure(t) for t < memory, then one row per phase from memory on
        self._layouts = layouts[period:] + [layouts[t % period]
                                            for t in range(self.memory, self.memory + period)]
        # the period's edges, phase by phase in full-band layout order
        self._period_edges = (phase, delta, col)
        # index tables of ldpccc.decoder, built on first use
        self._decoder_tables: dict = {}
        diagonal = delta == 0
        self._check_diagonal_rank(phase[diagonal], check[diagonal], col[diagonal])

    @functools.cached_property
    def h_block(self) -> SparseBinaryMatrix:
        """The expanded block code."""
        return expand_base(self.base)

    def _triangle(self, lower: bool) -> SparseBinaryMatrix:
        ent = self.h_block.entries()
        is_lower = ent[:, 0] // self.checks_per_block >= ent[:, 1] // self.block_len
        return SparseBinaryMatrix(*self.h_block.shape, ent[is_lower == lower])

    @functools.cached_property
    def h_lower(self) -> SparseBinaryMatrix:
        """The block code's entries at grid positions on or below the diagonal."""
        return self._triangle(lower=True)

    @functools.cached_property
    def h_upper(self) -> SparseBinaryMatrix:
        """The block code's entries at grid positions above the diagonal."""
        return self._triangle(lower=False)

    def _check_diagonal_rank(self, phase: np.ndarray, check: np.ndarray, col: np.ndarray):
        """Warns for each diagonal sub-matrix, entries (phase, check, col),
        whose rows are linearly dependent; each row is an int with bit c
        for column c."""
        n = self.checks_per_block
        rows = [0] * (self.period * n)
        for r, c in zip((phase * n + check).tolist(), col.tolist()):
            rows[r] |= 1 << c
        for k in range(self.period):
            if not _gf2_full_row_rank(rows[k * n:(k + 1) * n]):
                warnings.warn(
                    f"diagonal sub-matrix {k} is row-rank deficient; check rows "
                    "of that phase lack pivots in their own time instant",
                    stacklevel=3,
                )

    def sub_block(self, i: int, j: int) -> SparseBinaryMatrix:
        """Sub-matrix (i, j) of the M-by-M partition of the block code: row
        phase i's edges at offset (i - j) mod M."""
        struct = self.row_structure(self.memory + (i - self.memory) % self.period)
        at = struct.edge_delta == (i - j) % self.period
        return SparseBinaryMatrix(self.checks_per_block, self.block_len,
                                  np.stack([struct.edge_check[at], struct.edge_col[at]], axis=1))

    def row_structure(self, t: int) -> RowStructure:
        """Edge layout of block row t: its own before ``memory``, its
        phase's from there on."""
        if t < 0:
            raise ValueError("block row index must be >= 0")
        return self._layouts[t if t < self.memory
                             else self.memory + (t - self.memory) % self.period]

    def __repr__(self) -> str:
        return (
            f"ConvCode(z={self.z}, grid={self.base.block_rows}x"
            f"{self.base.block_cols}, period={self.period}, "
            f"rate={self.info_len}/{self.block_len})"
        )


def split_and_unwrap(base: BaseMatrix) -> ConvCode:
    """Build the convolutional code: expand, split at the gcd partition, unwrap."""
    return ConvCode(base)


def window_matrix(code: ConvCode, t_start: int, n_block_rows: int) -> SparseBinaryMatrix:
    """Finite sub-matrix covering the given block rows and all blocks they touch.

    Columns start at block max(0, t_start - memory); the band is at most
    (memory + 1) blocks wide per row.  Windows at t and t + period have the
    same support pattern once t >= memory (the first rows of the stream are
    truncated on the left).
    """
    if n_block_rows < 1:
        raise ValueError("need at least one block row")
    if t_start < 0:
        raise ValueError("window start must be >= 0")
    n_rows = n_block_rows * code.checks_per_block
    col_block_lo = max(0, t_start - code.memory)
    n_cols = (t_start + n_block_rows - col_block_lo) * code.block_len
    if n_rows * n_cols > 5_000_000_000:
        raise ConstructionError("window too large to materialize")
    parts = []
    for k in range(n_block_rows):
        t = t_start + k
        s = code.row_structure(t)
        rows = s.edge_check.astype(np.int64) + k * code.checks_per_block
        cols = (
            s.edge_col.astype(np.int64)
            + (t - s.edge_delta.astype(np.int64) - col_block_lo) * code.block_len
        )
        parts.append(np.stack([rows, cols], axis=1))
    entries = np.concatenate(parts) if parts else np.empty((0, 2), np.int64)
    return SparseBinaryMatrix(n_rows, n_cols, entries)


# bytes of one vertex-by-root array in girth, which sets the root chunk
_GIRTH_CHUNK_BYTES = 1 << 21


def girth(matrix: SparseBinaryMatrix) -> float:
    """Shortest cycle length of the bipartite adjacency graph.

    Breadth-first search from every vertex at once, level by level.  The
    graph is bipartite, so the first level L at which a vertex is reached
    from two frontier vertices closes a cycle of length 2L through the
    root, and the smallest such 2L over all roots is the girth.  A level
    counts each vertex's frontier parents for a chunk of roots, one
    gather-and-add per neighbour slot; a chunk stops at the first level
    that cannot beat the best cycle found so far.  Time is at most
    (rows + cols) * 2 * nnz additions per level below girth / 2; memory is
    a few vertex-by-root arrays of about ``_GIRTH_CHUNK_BYTES`` bytes each,
    plus O(rows + cols + nnz).  Returns math.inf for acyclic matrices.
    """
    n_rows = matrix.rows
    src = np.concatenate([matrix._rows, matrix._cols + n_rows])
    dst = np.concatenate([matrix._cols + n_rows, matrix._rows])
    deg = np.bincount(src, minlength=n_rows + matrix.cols)
    starts = np.cumsum(deg) - deg
    # vertices (checks, then variables) renumbered by falling degree,
    # those without an edge dropped
    order = np.argsort(-deg, kind="stable")[: np.count_nonzero(deg)]
    rank = np.empty(deg.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    nbr = rank[dst[np.argsort(src, kind="stable")]]
    deg, starts = deg[order], starts[order]
    n, max_deg = order.size, int(deg.max(initial=0))
    # slot j: the j-th neighbour of every vertex of degree > j, a prefix
    slots = [nbr[starts[: np.count_nonzero(deg > j)] + j] for j in range(max_deg)]
    count_dtype = np.min_scalar_type(max_deg)  # parent counts never exceed it
    best = math.inf
    chunk = max(1, _GIRTH_CHUNK_BYTES // max(1, n))
    for lo in range(0, n, chunk):
        roots = np.arange(lo, min(n, lo + chunk))
        frontier = np.zeros((n, roots.size), dtype=bool)  # vertex x root
        frontier[roots, np.arange(roots.size)] = True
        seen = frontier.copy()
        level = 1
        while 2 * level < best:
            parents = np.zeros((n, roots.size), dtype=count_dtype)
            for idx in slots:
                parents[: idx.size] += frontier[idx]
            parents[seen] = 0
            if (parents > 1).any():
                best = 2 * level
                break
            frontier = parents.astype(bool)
            if not frontier.any():
                break
            seen |= frontier
            level += 1
    return best


def syndrome_check(matrix: SparseBinaryMatrix, bits) -> bool:
    """True iff every row has even parity over its support."""
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size != matrix.cols:
        raise ValueError(
            f"bit vector length {bits.size} does not match {matrix.cols} columns"
        )
    ones = np.flatnonzero(bits)
    if ones.size == 0:
        return True
    marks = np.zeros(matrix.cols, dtype=np.int64)
    marks[ones] = 1
    ent = matrix.entries()
    parity = np.bincount(ent[:, 0], weights=marks[ent[:, 1]], minlength=matrix.rows)
    return bool(np.all(parity.astype(np.int64) % 2 == 0))


def demo_base_names() -> list[str]:
    """Names of the base matrices bundled with the package."""
    from importlib import resources

    names = []
    for item in resources.files("ldpccc").joinpath("data").iterdir():
        if item.name.endswith(".txt"):
            names.append(item.name[: -len(".txt")])
    return sorted(names)


def demo_base(name: str) -> BaseMatrix:
    """Load a bundled demo base matrix by name (see demo_base_names).

    Each is read and parsed once per process; a ``BaseMatrix`` is frozen,
    so every caller shares it.
    """
    # the cache sits behind a plain function, which perfbench's tracer wraps
    return _bundled_base(name)


@functools.cache
def _bundled_base(name: str) -> BaseMatrix:
    from importlib import resources

    path = resources.files("ldpccc").joinpath("data").joinpath(f"{name}.txt")
    if not path.is_file():  # not cached: an unknown name raises on every call
        raise ConstructionError(
            f"unknown demo base {name!r}; available: {', '.join(demo_base_names())}"
        )
    return BaseMatrix.from_text(path.read_text())
