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

import math
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
        if self.z < 2:
            raise ConstructionError(f"expansion factor must be >= 2, got {self.z}")
        rows = len(self.exponents)
        if rows < 1:
            raise ConstructionError("exponent grid is empty")
        cols = len(self.exponents[0])
        exps = tuple(tuple(int(e) for e in row) for row in self.exponents)
        object.__setattr__(self, "exponents", exps)
        for i, row in enumerate(exps):
            if len(row) != cols:
                raise ConstructionError(f"ragged exponent grid at row {i}")
            for j, e in enumerate(row):
                if e != -1 and not 0 <= e < self.z:
                    raise ConstructionError(
                        f"exponent {e} at ({i}, {j}) outside {{-1}} | [0, {self.z})"
                    )
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
        order = np.lexsort((arr[:, 1], arr[:, 0]))
        arr = arr[order]
        if arr.shape[0] > 1 and np.any(np.all(arr[1:] == arr[:-1], axis=1)):
            raise ConstructionError("duplicate entry positions")
        self.rows = int(rows)
        self.cols = int(cols)
        self._rows = np.ascontiguousarray(arr[:, 0])
        self._cols = np.ascontiguousarray(arr[:, 1])
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


def expand_base(base: BaseMatrix) -> SparseBinaryMatrix:
    """Expand circulant exponents into the full binary parity-check matrix.

    Block (i, j) with exponent k becomes the z-by-z identity right-shifted
    by k: row r has its one at column (r + k) mod z.
    """
    z = base.z
    shift = np.arange(z, dtype=np.int64)
    rows = []
    cols = []
    for i, row in enumerate(base.exponents):
        for j, e in enumerate(row):
            if e == -1:
                continue
            rows.append(i * z + shift)
            cols.append(j * z + (shift + e) % z)
    if rows:
        entries = np.stack([np.concatenate(rows), np.concatenate(cols)], axis=1)
    else:
        entries = np.empty((0, 2), dtype=np.int64)
    return SparseBinaryMatrix(base.block_rows * z, base.block_cols * z, entries)


def _gf2_full_row_rank(matrix: SparseBinaryMatrix, row_lo: int, row_hi: int,
                       col_lo: int, col_hi: int) -> bool:
    """Row rank over GF(2) of the given sub-matrix equals its row count."""
    width = col_hi - col_lo
    rows = []
    for r in range(row_lo, row_hi):
        support = matrix.row_support(r)
        support = support[(support >= col_lo) & (support < col_hi)]
        bits = 0
        for c in support:
            bits |= 1 << int(c - col_lo)
        rows.append(bits)
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

    t_is_boundary: bool
    n_checks: int
    n_edges: int
    edge_check: np.ndarray     # (n_edges,) check index inside the block row
    edge_delta: np.ndarray     # (n_edges,) block offset, 0 = newest block
    edge_col: np.ndarray       # (n_edges,) column inside the variable block
    degrees: np.ndarray        # (n_checks,) edge count per check
    by_degree: tuple           # ((degree, check_ids, positions (k, degree)), ...)
    delta_slices: dict         # delta -> (positions, cols, checks)


def _build_row_structure(code: "ConvCode", t: int) -> RowStructure:
    deltas = range(min(t, code.memory) + 1)
    checks = []
    dels = []
    cols = []
    for d in deltas:
        ch, co = code._sub_entries(t % code.period, (t - d) % code.period)
        checks.append(ch)
        dels.append(np.full(ch.size, d, dtype=np.int32))
        cols.append(co)
    edge_check = np.concatenate(checks) if checks else np.empty(0, np.int32)
    edge_delta = np.concatenate(dels) if dels else np.empty(0, np.int32)
    edge_col = np.concatenate(cols) if cols else np.empty(0, np.int32)
    # canonical order: check, then left to right across the band (oldest
    # block first, column ascending); the quantized fold consumes inputs
    # in exactly this order
    order = np.lexsort((edge_col, -edge_delta, edge_check))
    edge_check = np.ascontiguousarray(edge_check[order])
    edge_delta = np.ascontiguousarray(edge_delta[order])
    edge_col = np.ascontiguousarray(edge_col[order])

    n_checks = code.checks_per_block
    degrees = np.bincount(edge_check, minlength=n_checks).astype(np.int32)
    by_degree = []
    positions = np.arange(edge_check.size, dtype=np.int64)
    for deg in sorted(set(degrees.tolist())):
        if deg == 0:
            continue
        ids = np.flatnonzero(degrees == deg)
        mask = np.isin(edge_check, ids)
        pos = positions[mask].reshape(ids.size, deg)
        by_degree.append((int(deg), ids, pos))
    delta_slices = {}
    for d in deltas:
        mask = edge_delta == d
        delta_slices[d] = (
            positions[mask],
            np.ascontiguousarray(edge_col[mask]),
            np.ascontiguousarray(edge_check[mask]),
        )
    return RowStructure(
        t_is_boundary=t < code.memory,
        n_checks=n_checks,
        n_edges=int(edge_check.size),
        edge_check=edge_check,
        edge_delta=edge_delta,
        edge_col=edge_col,
        degrees=degrees,
        by_degree=tuple(by_degree),
        delta_slices=delta_slices,
    )


class ConvCode:
    """Unwrapped convolutional parity structure derived from a block code.

    Block row t of the unterminated matrix holds, for each offset delta in
    [0, memory], the sub-matrix of the expanded block code at grid position
    (t mod period, (t - delta) mod period); the sub-matrix multiplies the
    variable block t - delta.  Lower-triangular grid positions come from
    the fundamental tile, strictly upper ones from the tile one period up.
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
        self.h_block = expand_base(base)
        self.checks_per_block = base.z * base.block_rows // period
        self.block_len = base.z * base.block_cols // period
        self.info_len = self.block_len - self.checks_per_block
        self.rate = self.info_len / self.block_len
        self.h_lower, self.h_upper = self._split()
        self._sub_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._row_cache: dict[int, RowStructure] = {}
        # index tables of ldpccc.decoder, built on first use
        self._decoder_tables: dict = {}
        self._check_diagonal_rank()

    def _split(self) -> tuple[SparseBinaryMatrix, SparseBinaryMatrix]:
        ent = self.h_block.entries()
        grid_i = ent[:, 0] // self.checks_per_block
        grid_j = ent[:, 1] // self.block_len
        lower = grid_i >= grid_j
        shape = self.h_block.shape
        return (
            SparseBinaryMatrix(*shape, ent[lower]),
            SparseBinaryMatrix(*shape, ent[~lower]),
        )

    def _check_diagonal_rank(self):
        for k in range(self.period):
            ok = _gf2_full_row_rank(
                self.h_block,
                k * self.checks_per_block,
                (k + 1) * self.checks_per_block,
                k * self.block_len,
                (k + 1) * self.block_len,
            )
            if not ok:
                warnings.warn(
                    f"diagonal sub-matrix {k} is row-rank deficient; check rows "
                    "of that phase lack pivots in their own time instant",
                    stacklevel=3,
                )

    def sub_block(self, i: int, j: int) -> SparseBinaryMatrix:
        """Sub-matrix (i, j) of the M-by-M partition of the block code."""
        ch, co = self._sub_entries(i, j)
        return SparseBinaryMatrix(
            self.checks_per_block, self.block_len, np.stack([ch, co], axis=1)
        )

    def _sub_entries(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        key = (i, j)
        cached = self._sub_cache.get(key)
        if cached is not None:
            return cached
        ent = self.h_block.entries()
        r0 = i * self.checks_per_block
        c0 = j * self.block_len
        mask = (
            (ent[:, 0] >= r0)
            & (ent[:, 0] < r0 + self.checks_per_block)
            & (ent[:, 1] >= c0)
            & (ent[:, 1] < c0 + self.block_len)
        )
        ch = (ent[mask, 0] - r0).astype(np.int32)
        co = (ent[mask, 1] - c0).astype(np.int32)
        self._sub_cache[key] = (ch, co)
        return ch, co

    def row_structure(self, t: int) -> RowStructure:
        """Edge layout of block row t; cached per phase for interior rows."""
        if t < 0:
            raise ValueError("block row index must be >= 0")
        if t < self.memory:
            key = t
        else:
            # smallest full-band row with the same phase as t
            key = self.memory + (t - self.memory) % self.period
        struct = self._row_cache.get(key)
        if struct is None:
            struct = _build_row_structure(self, key)
            self._row_cache[key] = struct
        return struct

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


def girth(matrix: SparseBinaryMatrix) -> float:
    """Shortest cycle length of the bipartite adjacency graph.

    BFS from each edge: the shortest cycle through edge (r, c) is one plus
    the shortest path from c back to r that avoids the edge itself.
    Returns math.inf for acyclic matrices.  Quadratic in the edge count, so
    intended for desk-scale matrices.
    """
    if matrix.nnz == 0:
        return math.inf
    n_rows, n_cols = matrix.shape
    row_adj = [matrix.row_support(r) for r in range(n_rows)]
    col_adj = [matrix.col_support(c) for c in range(n_cols)]
    best = math.inf
    # node ids: checks 0..n_rows-1, variables n_rows..n_rows+n_cols-1
    dist = np.empty(n_rows + n_cols, dtype=np.int64)
    for r in range(n_rows):
        for c in row_adj[r]:
            c = int(c)
            dist.fill(-1)
            start = n_rows + c
            dist[start] = 0
            queue = deque([start])
            found = None
            while queue:
                node = queue.popleft()
                d = dist[node]
                if d + 1 >= best:  # cannot improve on current best cycle
                    break
                if node >= n_rows:
                    v = node - n_rows
                    for nxt in col_adj[v]:
                        nxt = int(nxt)
                        if nxt == r and v == c:
                            continue  # the banned edge itself
                        if nxt == r:
                            found = d + 1
                            break
                        if dist[nxt] < 0:
                            dist[nxt] = d + 1
                            queue.append(nxt)
                else:
                    for nxt in row_adj[node]:
                        nxt = n_rows + int(nxt)
                        if dist[nxt] < 0:
                            dist[nxt] = d + 1
                            queue.append(nxt)
                if found is not None:
                    break
            if found is not None and found + 1 < best:
                best = found + 1
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
    """Load a bundled demo base matrix by name (see demo_base_names)."""
    from importlib import resources

    path = resources.files("ldpccc").joinpath("data").joinpath(f"{name}.txt")
    if not path.is_file():
        raise ConstructionError(
            f"unknown demo base {name!r}; available: {', '.join(demo_base_names())}"
        )
    return BaseMatrix.from_text(path.read_text())
