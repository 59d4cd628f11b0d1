"""Slow, literal forms of the per-code set-up: sub-matrices, row layouts,
the diagonal rank check and the decoder's window tables.

Each is the row-by-row form that ``ldpccc.construction`` and
``ldpccc.decoder`` replaced with per-period derivations: one mask of the
whole block code per sub-matrix, one ``np.isin`` per check degree, a bit
loop per rank row, and a window scatter over every (row, position) pair.
The tests compare the package's tables with these array for array.
"""

from __future__ import annotations

import numpy as np

from ldpccc.construction import ConvCode, RowStructure, SparseBinaryMatrix
from ldpccc.decoder import _column_table, _FloodTables


def ref_gf2_full_row_rank(matrix: SparseBinaryMatrix, row_lo: int, row_hi: int,
                          col_lo: int, col_hi: int) -> bool:
    """Row rank over GF(2) of the given sub-matrix equals its row count."""
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


def ref_sub_entries(code: ConvCode, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(checks, columns) of sub-matrix (i, j), masked out of the block code."""
    ent = code.h_block.entries()
    r0 = i * code.checks_per_block
    c0 = j * code.block_len
    mask = (
        (ent[:, 0] >= r0)
        & (ent[:, 0] < r0 + code.checks_per_block)
        & (ent[:, 1] >= c0)
        & (ent[:, 1] < c0 + code.block_len)
    )
    return (ent[mask, 0] - r0).astype(np.int32), (ent[mask, 1] - c0).astype(np.int32)


def ref_build_row_structure(code: ConvCode, t: int) -> RowStructure:
    deltas = range(min(t, code.memory) + 1)
    checks = []
    dels = []
    cols = []
    for d in deltas:
        ch, co = ref_sub_entries(code, t % code.period, (t - d) % code.period)
        checks.append(ch)
        dels.append(np.full(ch.size, d, dtype=np.int32))
        cols.append(co)
    edge_check = np.concatenate(checks)
    edge_delta = np.concatenate(dels)
    edge_col = np.concatenate(cols)
    order = np.lexsort((edge_col, -edge_delta, edge_check))
    edge_check = np.ascontiguousarray(edge_check[order])
    edge_delta = np.ascontiguousarray(edge_delta[order])
    edge_col = np.ascontiguousarray(edge_col[order])

    degrees = np.bincount(edge_check, minlength=code.checks_per_block)
    by_degree = []
    positions = np.arange(edge_check.size, dtype=np.int64)
    for deg in sorted(set(degrees.tolist())):
        if deg == 0:
            continue
        ids = np.flatnonzero(degrees == deg)
        mask = np.isin(edge_check, ids)
        pos = positions[mask].reshape(ids.size, deg)
        by_degree.append((int(deg), pos))
    return RowStructure(
        n_edges=int(edge_check.size),
        edge_check=edge_check,
        edge_delta=edge_delta,
        edge_col=edge_col,
        by_degree=tuple(by_degree),
    )


def ref_full_rows(code: ConvCode) -> list:
    """Full-band edge layout of each row phase, which every row from
    ``memory`` on uses."""
    p, m = code.period, code.memory
    return [code.row_structure(m + (k - m) % p) for k in range(p)]


def ref_leaving_edges(code: ConvCode) -> tuple[list, int]:
    """Per step phase s, the K edges of the block that leaves there, in the
    summation order, as ``(rows, positions, cols, slots)``: each edge's row
    as an offset from the block, its position in that row's full-band
    layout, its column, and the ``_column_table`` over the K edges, padded
    with ``pad``, the largest K, which is returned too.  The block's newest
    row comes first, then its older rows from oldest to newest."""
    p, m = code.period, code.memory
    full = ref_full_rows(code)
    edges = []
    for s in range(p):
        rows, pos, cols = [], [], []
        for j in (m, *range(m)):
            row = full[(s - m + j) % p]
            positions = np.flatnonzero(row.edge_delta == j)
            rows.append(np.full(positions.size, j))
            pos.append(positions)
            cols.append(row.edge_col[positions])
        edges.append((np.concatenate(rows), np.concatenate(pos),
                      np.concatenate(cols).astype(np.intp)))
    pad = max(cols.size for _, _, cols in edges)
    return [(rows, pos, cols, _column_table(cols, np.arange(cols.size), code.block_len, pad))
            for rows, pos, cols in edges], pad


def ref_build_window_tables(code: ConvCode, n_rows: int) -> _FloodTables:
    """The window tables, every (row, full-layout position) scattered to its
    slot first and every column's slots gathered from that map."""
    p, m, c = code.period, code.memory, code.block_len
    full = ref_full_rows(code)
    parts = [(np.array([r]), code.row_structure(r), np.flatnonzero(full[r].edge_delta <= r))
             for r in range(min(m, n_rows))]
    parts += [(np.arange(m + (k - m) % p, n_rows, p), full[k], np.arange(full[k].n_edges))
              for k in range(p) if m + (k - m) % p < n_rows]
    pieces = {}  # (degree, checks per row) -> [(rows, layout, to_full, positions)]
    for rows, struct, to_full in parts:
        for deg, pos in struct.by_degree:
            pieces.setdefault((deg, len(pos)), []).append((rows, struct, to_full, pos))
    n_slots = sum(rows.size * struct.n_edges for rows, struct, _ in parts)
    dtype = np.min_scalar_type(max(n_slots, n_rows * c))
    # slot of each (row, full-layout position), flat; rows past the window
    # and positions no row uses read as the zero slot
    row_len = max(s.n_edges for s in full)
    where = np.full((n_rows + m) * row_len, n_slots, dtype=dtype)
    slot_col = np.empty(n_slots, dtype=dtype)
    groups, lo = [], 0
    for (deg, checks), group in pieces.items():
        rows = np.sort(np.concatenate([piece[0] for piece in group]))
        hi = lo + deg * rows.size * checks
        slots = np.arange(lo, hi).reshape(deg, rows.size, checks)
        cols = slot_col[lo:hi].reshape(deg, rows.size, checks)
        for part_rows, struct, to_full, pos in group:
            rank = np.searchsorted(rows, part_rows)
            at = slice(rank[0], rank[-1] + 1, rank[1] - rank[0] if rank.size > 1 else 1)
            e = pos.T[:, None, :]
            where[part_rows[:, None] * row_len + to_full[e]] = slots[:, at]
            cols[:, at] = (part_rows[:, None] - struct.edge_delta[e]) * c + struct.edge_col[e]
        groups.append((deg, lo, hi, rows))
        lo = hi
    leaving, pad = ref_leaving_edges(code)
    col_slots = np.full((max(len(e[3]) for e in leaving), n_rows, c), n_slots, dtype=dtype)
    for s, (rows, pos, _, table) in enumerate(leaving):
        first = (s - m) % p
        blocks = np.arange(first, n_rows, p)[:, None]
        slots = np.full((blocks.size, pad + 1), n_slots, dtype=dtype)
        where.take((blocks + rows) * row_len + pos, out=slots[:, :rows.size])
        col_slots[:len(table), first::p] = slots[:, table].transpose(1, 0, 2)
    return _FloodTables(tuple(groups), slot_col, col_slots.reshape(len(col_slots), n_rows * c))
