"""Slow, literal models of the hardware schedule and of the girth.

An object-per-access schedule builder, a dict-based port audit and a
per-edge BFS girth: the plain forms of what ``ldpccc.arch`` and
``ldpccc.construction`` compute with arrays.  The tests compare the
array code with them.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from ldpccc.arch import _RamMap


def ref_stage_accesses(p, rams: _RamMap, codeword, phase, stage):
    """(ram, address, op) of every RAM access of one stage, in port order."""
    M = p.period
    acc = []
    for delta in range(M):
        for ram in rams.edge_bank(codeword, phase, delta):
            acc.append((ram, stage, "R"))
    for j in range(M - 1):
        for ram in rams.edge_bank(codeword, (phase + 1 + j) % M, j):
            acc.append((ram, stage, "R"))
    for ram in rams.channel_bank(codeword, (phase + 1) % M):
        acc.append((ram, stage, "R"))
    for delta in range(M - 1):
        for ram in rams.edge_bank(codeword, phase, delta):
            acc.append((ram, stage, "W"))
    for j in range(M):
        for ram in rams.edge_bank(codeword, (phase + 1 + j) % M, j):
            acc.append((ram, stage, "W"))
    for ram in rams.channel_bank(codeword, (phase + 1) % M):
        acc.append((ram, stage, "W"))
    return tuple(acc)


def ref_events(p, phases, steps):
    """(cycle, step, stage, codeword, bpu, phases, accesses) per stage slot,
    sorted by (cycle, bpu)."""
    rams = _RamMap(p)
    cycles_per_step = p.stages + p.stage_delay
    events = []
    for cw in range(p.codewords):
        for step in range(steps):
            phase = step % p.period
            bpu = phase if p.codewords == 1 else cw
            for stage in range(p.stages):
                events.append((step * cycles_per_step + stage, step, stage, cw, bpu,
                               phases, ref_stage_accesses(p, rams, cw, phase, stage)))
    events.sort(key=lambda ev: (ev[0], ev[4]))
    return events


def ref_csv_rows(events):
    rows = []
    for cycle, _step, _stage, _cw, bpu, phases, accesses in events:
        for ram, address, op in accesses:
            rows.append((cycle, bpu, op, ram, address))
        rows.append((cycle, bpu, "+".join(phases), "", ""))
    return rows


def ref_audit(events):
    """Messages for every (cycle, RAM, op) key used twice, from a dict."""
    conflicts = []
    seen = {}
    for ev in events:
        for acc in ev.accesses:
            key = (ev.cycle, acc.ram, acc.op)
            if key in seen:
                conflicts.append(f"cycle {ev.cycle}: RAM {acc.ram} {acc.op} by BPU "
                                 f"{seen[key]} and BPU {ev.bpu}")
            else:
                seen[key] = ev.bpu
    return conflicts


def ref_girth_by_edge_bfs(matrix):
    """Girth as the shortest cycle through each edge (r, c): one plus the
    shortest path from c back to r that avoids the edge itself."""
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
                best = int(found) + 1
    return best
