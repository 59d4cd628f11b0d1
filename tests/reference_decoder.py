"""Independent reference decoder for equivalence tests.

Materializes a finite window of the convolutional parity-check matrix,
pads the stream with zero-LLR blocks, and runs plain synchronous flooding:
every check node updates from the previous iteration's variable messages,
then every variable node updates, I times.  The quantized check update is
a literal nested table fold sharing no code with the engine.  The float
check update calls the package's scalar kernel (itself pinned against a
high-precision oracle elsewhere) so that float deviations here measure
scheduling and storage only; near the clamp, atanh amplifies differences
between distinct arithmetic orderings far beyond any useful tolerance,
while the input-to-output sensitivity of the update is at most one.
"""

import numpy as np

from ldpccc.decoder import _TANH_CEIL, _TANH_FLOOR, cnp_float


def ref_cnp_float_rows(v, clamp):
    """Row-major float check update on a (n_checks, degree) block.

    The slow path that the engine's degree-major kernel replaced, kept
    verbatim so the fast kernel is pinned bit for bit: magnitudes combine
    in the log-tanh domain, each check's log terms are summed as one
    contiguous row, and an exact zero input zeroes every other output of
    its check.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    sign = np.where(v < 0, -1.0, 1.0)
    zero = v == 0.0
    n_zero = zero.sum(axis=1, keepdims=True)
    av = np.abs(v)
    lt = np.multiply(av, 0.5)
    np.tanh(lt, out=lt)
    np.clip(lt, _TANH_FLOOR, _TANH_CEIL, out=lt)
    np.log(lt, out=lt)
    np.copyto(lt, 0.0, where=zero)
    total = lt.sum(axis=1, keepdims=True)
    mag = np.subtract(total, lt, out=lt)
    np.exp(mag, out=mag)
    np.clip(mag, 0.0, _TANH_CEIL, out=mag)
    np.arctanh(mag, out=mag)
    mag *= 2.0
    arg = np.argmin(av, axis=1)
    rows = np.arange(av.shape[0])
    min1 = av[rows, arg]
    av[rows, arg] = np.inf
    min2 = av.min(axis=1)
    min_excl = np.broadcast_to(min1[:, None], av.shape).copy()
    min_excl[rows, arg] = min2
    np.minimum(mag, min_excl, out=mag)
    np.minimum(mag, clamp, out=mag)
    sign_all = np.where(zero, 1.0, sign).prod(axis=1, keepdims=True)
    alpha = np.multiply(sign_all, sign, out=sign)
    alpha *= mag
    np.copyto(alpha, 0.0, where=(n_zero == 1) & ~zero)
    np.copyto(alpha, 0.0, where=n_zero >= 2)
    return alpha


def ref_check_update_float(beta, clamp):
    return list(cnp_float(np.asarray(beta, dtype=np.float64), clamp))


def ref_check_update_lut(codes, table, max_pos_code):
    """Literal nested-fold form: prefix and suffix rebuilt per output."""
    d = len(codes)
    out = []
    for i in range(d):
        left = None
        for k in range(i):
            left = codes[k] if left is None else int(table[left, codes[k]])
        right = None
        for k in range(d - 1, i, -1):
            right = codes[k] if right is None else int(table[right, codes[k]])
        if left is None and right is None:
            out.append(max_pos_code)
        elif left is None:
            out.append(right)
        elif right is None:
            out.append(left)
        else:
            out.append(int(table[left, right]))
    return out


def _window_edges(code, n_rows):
    """Adjacency of block rows 0..n_rows-1 over columns starting at block 0."""
    checks = {}
    for t in range(n_rows):
        s = code.row_structure(t)
        for e in range(s.n_edges):
            check = (t, int(s.edge_check[e]))
            col = (t - int(s.edge_delta[e])) * code.block_len + int(s.edge_col[e])
            checks.setdefault(check, []).append(col)
    for cols in checks.values():
        cols.sort()
    return checks


def ref_decode_float(code, llrs, iterations, clamp=25.0):
    """Flooding on the padded window; returns (bits, soft) for the real blocks."""
    c = code.block_len
    n_blocks = len(llrs) // c
    pad = iterations * code.memory + 1
    n_rows = n_blocks + pad
    lam = np.zeros(n_rows * c)
    lam[: n_blocks * c] = llrs
    checks = _window_edges(code, n_rows)

    v2c = {}
    for check, cols in checks.items():
        for col in cols:
            v2c[(check, col)] = lam[col]
    c2v = {}
    for _ in range(iterations):
        for check, cols in checks.items():
            outs = ref_check_update_float([v2c[(check, col)] for col in cols], clamp)
            for col, a in zip(cols, outs):
                c2v[(check, col)] = a
        incoming = {}
        for check, cols in checks.items():
            for col in cols:
                incoming.setdefault(col, []).append((check, c2v[(check, col)]))
        for col, items in incoming.items():
            total = sum(a for _, a in items)
            for check, a in items:
                v2c[(check, col)] = lam[col] + total - a
    soft = lam.copy()
    for (check, col), a in c2v.items():
        soft[col] += a
    soft = soft[: n_blocks * c]
    return (soft < 0).astype(np.uint8), soft


def ref_decode_qspa(code, llrs, iterations, quantizer, table):
    """Quantized flooding twin of ref_decode_float; all messages are codes."""
    c = code.block_len
    n_blocks = len(llrs) // c
    pad = iterations * code.memory + 1
    n_rows = n_blocks + pad
    lam_codes = np.asarray(quantizer.quantize(np.zeros(n_rows * c)))
    lam_codes[: n_blocks * c] = quantizer.quantize(np.asarray(llrs))
    sign = quantizer.sign_bit
    maxm = quantizer.max_magnitude_int

    def code_to_int(k):
        m = k & (sign - 1)
        return -m if k & sign else m

    def int_to_code(v):
        v = max(-maxm, min(maxm, v))
        return sign - v if v < 0 else v

    checks = _window_edges(code, n_rows)
    v2c = {}
    for check, cols in checks.items():
        for col in cols:
            v2c[(check, col)] = int(lam_codes[col])
    c2v = {}
    for _ in range(iterations):
        for check, cols in checks.items():
            outs = ref_check_update_lut([v2c[(check, col)] for col in cols],
                                        table, maxm)
            for col, a in zip(cols, outs):
                c2v[(check, col)] = a
        incoming = {}
        for check, cols in checks.items():
            for col in cols:
                incoming.setdefault(col, []).append((check, c2v[(check, col)]))
        for col, items in incoming.items():
            total = sum(code_to_int(a) for _, a in items)
            for check, a in items:
                v2c[(check, col)] = int_to_code(
                    code_to_int(int(lam_codes[col])) + total - code_to_int(a)
                )
    soft = np.array([code_to_int(int(k)) for k in lam_codes], dtype=np.int64)
    for (check, col), a in c2v.items():
        soft[col] += code_to_int(a)
    soft = soft[: n_blocks * c]
    return (soft < 0).astype(np.uint8), soft


def ref_decode_block(matrix, llrs, iterations, quantizer=None, table=None, clamp=25.0):
    """Flooding on a block code's parity-check matrix, edge by edge.

    Column sums run in edge order (by check, then by column).  With a
    quantizer the check update folds codes through ``table`` and the
    variable update sums integers and saturates, as in ref_decode_qspa.
    """
    checks = [[int(c) for c in matrix.row_support(r)] for r in range(matrix.rows)]
    if quantizer is None:
        lam = [float(x) for x in llrs]

        def check_update(values):
            return ref_check_update_float(values, clamp)

        def saturate(v):
            return v
    else:
        sign, maxm = quantizer.sign_bit, quantizer.max_magnitude_int

        def code_to_int(k):
            m = k & (sign - 1)
            return -m if k & sign else m

        def saturate(v):
            return max(-maxm, min(maxm, v))

        def int_to_code(v):
            v = saturate(v)
            return sign - v if v < 0 else v

        lam = [code_to_int(int(k)) for k in quantizer.quantize(np.asarray(llrs))]

        def check_update(values):
            codes = [int_to_code(v) for v in values]
            return [code_to_int(a) for a in ref_check_update_lut(codes, table, maxm)]

    v2c = [[lam[c] for c in cols] for cols in checks]
    for _ in range(iterations):
        c2v = [check_update(values) for values in v2c]
        total = [0] * matrix.cols
        for cols, alphas in zip(checks, c2v):
            for c, a in zip(cols, alphas):
                total[c] += a
        v2c = [[saturate(lam[c] + total[c] - a) for c, a in zip(cols, alphas)]
               for cols, alphas in zip(checks, c2v)]
    soft = np.array([x + t for x, t in zip(lam, total)])
    return (soft < 0).astype(np.uint8), soft
