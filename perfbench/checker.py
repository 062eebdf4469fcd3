"""Result checks made apart from the program.

Every check returns ``None`` when the output is right and a one-line
reason when it is not.  Products are recomputed from the semiring
definitions with NumPy/SciPy alone: no ``repro`` code runs here, so a
fault in the program's own ground truth (``SupportedInstance.verify``,
``Semiring.segment_sum``) cannot hide a fault in its output.

Float tolerance: only the real field is compared within a tolerance.  A
product entry is a sum of at most ``n`` float64 products, so two correct
summation orders differ by less than ``n * 2**-53 * S`` where
``S = sum_j |a_ij * b_jk|``; the check allows ``REAL_RTOL * S + REAL_ATOL``
(``REAL_RTOL = 1e-9``, ~10^4 times that bound at n = 256).  Every other
semiring is compared exactly: min/max pick one operand, ``+`` of two
floats and ``*`` of two floats round the same way on every path, and the
integer, boolean and GF(2) semirings have no rounding at all.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

REAL_RTOL = 1e-9
REAL_ATOL = 1e-12

#: per semiring name: (dtype, additive identity, product, accumulate)
#: where ``accumulate(out, pos, prods)`` folds ``prods`` into ``out[pos]``
_SEMIRINGS = {
    "real-field": (np.float64, 0.0, np.multiply, np.add.at),
    "integer-ring": (np.int64, 0, np.multiply, np.add.at),
    "boolean": (np.bool_, False, np.logical_and, np.logical_or.at),
    "gf2": (np.uint8, 0, np.bitwise_and, np.bitwise_xor.at),
    "min-plus": (np.float64, np.inf, np.add, np.minimum.at),
    "max-plus": (np.float64, -np.inf, np.add, np.maximum.at),
    "viterbi": (np.float64, 0.0, np.multiply, np.maximum.at),
}
SEMIRING_NAMES = tuple(_SEMIRINGS)


def _sorted_entries(mat: sp.spmatrix, n_cols: int):
    """Row-major keys, rows, cols and data of a sparse matrix's stored
    entries (duplicates rejected: they have no semiring meaning)."""
    coo = sp.coo_matrix(mat)
    keys = coo.row.astype(np.int64) * n_cols + coo.col.astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if keys.size > 1 and np.any(keys[1:] == keys[:-1]):
        raise ValueError("matrix holds duplicate entries")
    return keys, coo.row[order].astype(np.int64), coo.col[order].astype(np.int64), coo.data[order]


def _values_on(hat: sp.spmatrix, vals: sp.spmatrix, dtype, zero):
    """Rows, cols and values of every support position of ``hat``; a
    support position with no stored value holds the semiring zero."""
    n_cols = hat.shape[1]
    h_keys, h_rows, h_cols, _ = _sorted_entries(hat, n_cols)
    v_keys, _, _, v_data = _sorted_entries(vals, n_cols)
    out = np.full(h_keys.size, zero, dtype=dtype)
    if v_keys.size:
        pos = np.minimum(np.searchsorted(v_keys, h_keys), v_keys.size - 1)
        hit = v_keys[pos] == h_keys
        out[hit] = np.asarray(v_data, dtype=dtype)[pos[hit]]
    return h_rows, h_cols, out


def reference_product(semiring: str, a_hat, b_hat, x_hat, a, b):
    """``X[i, k] = (+)_j A[i, j] (*) B[j, k]`` on the support of ``x_hat``.

    Returns ``(x_keys, values, scale)``: row-major keys of the requested
    positions, the product there, and ``sum_j |A[i,j] B[j,k]|`` (the real
    field's tolerance scale; ``None`` for the other semirings).
    """
    dtype, zero, mul, accumulate = _SEMIRINGS[semiring]
    m = b_hat.shape[1]
    a_rows, a_cols, a_vals = _values_on(a_hat, a, dtype, zero)
    b_rows, b_cols, b_vals = _values_on(b_hat, b, dtype, zero)
    x_keys, _, _, _ = _sorted_entries(x_hat, m)

    # every wedge (i, j, k) with A[i, j] and B[j, k] on their supports
    b_count = np.bincount(b_rows, minlength=b_hat.shape[0])
    b_start = np.concatenate(([0], np.cumsum(b_count)[:-1]))
    per_a = b_count[a_cols]
    ia = np.repeat(np.arange(a_rows.size), per_a)
    offset = np.arange(ia.size) - np.repeat(np.cumsum(per_a) - per_a, per_a)
    ib = b_start[a_cols[ia]] + offset
    keys = a_rows[ia] * m + b_cols[ib]
    pos = np.searchsorted(x_keys, keys)
    keep = pos < x_keys.size
    keep[keep] = x_keys[pos[keep]] == keys[keep]
    ia, ib, pos = ia[keep], ib[keep], pos[keep]

    prods = mul(a_vals[ia], b_vals[ib]).astype(dtype)
    values = np.full(x_keys.size, zero, dtype=dtype)
    accumulate(values, pos, prods)
    scale = None
    if semiring == "real-field":
        scale = np.zeros(x_keys.size)
        np.add.at(scale, pos, np.abs(prods))
    return x_keys, values, scale


def _result_on(x, x_keys: np.ndarray, n_cols: int, dtype):
    """The result's values at ``x_keys``, or a reason it has the wrong
    set of entries."""
    if x is None:
        return None, "no result matrix"
    try:
        keys, _, _, data = _sorted_entries(x, n_cols)
    except ValueError as exc:
        return None, f"result {exc}"
    if keys.size != x_keys.size or not np.array_equal(keys, x_keys):
        missing = np.setdiff1d(x_keys, keys).size
        extra = np.setdiff1d(keys, x_keys).size
        return None, f"result support differs: {missing} requested entries missing, {extra} extra"
    return np.asarray(data, dtype=dtype), None


def check_product(semiring: str, a_hat, b_hat, x_hat, a, b, x) -> str | None:
    """Does ``x`` hold the semiring product on the support of ``x_hat``?"""
    if semiring not in _SEMIRINGS:
        return f"unknown semiring {semiring!r}"
    dtype = _SEMIRINGS[semiring][0]
    x_keys, want, scale = reference_product(semiring, a_hat, b_hat, x_hat, a, b)
    got, why = _result_on(x, x_keys, x_hat.shape[1], dtype)
    if why:
        return why
    if scale is not None:
        bad = ~(np.abs(got - want) <= REAL_RTOL * scale + REAL_ATOL)
    elif np.issubdtype(dtype, np.floating):
        bad = ~((got == want) | (np.isnan(got) & np.isnan(want)))
    else:
        bad = got != want
    if np.any(bad):
        first = int(np.flatnonzero(bad)[0])
        key = int(x_keys[first])
        row, col = divmod(key, x_hat.shape[1])
        return (
            f"{semiring}: {int(bad.sum())} of {bad.size} entries wrong; "
            f"X[{row},{col}] = {got[first]!r}, expected {want[first]!r}"
        )
    return None


def check_instance_product(inst, x) -> str | None:
    """:func:`check_product` on a ``SupportedInstance``'s public fields."""
    return check_product(
        inst.semiring.name, inst.a_hat, inst.b_hat, inst.x_hat, inst.a, inst.b, x
    )


def triangle_count(adjacency) -> int:
    """Triangles of an undirected simple graph: ``trace(A^3) / 6``."""
    adj = (sp.csr_matrix(adjacency).toarray() != 0).astype(np.int64)
    return int(np.trace(adj @ adj @ adj)) // 6


def check_triangle_count(adjacency, value) -> str | None:
    """Is ``value`` the graph's triangle count?"""
    want = triangle_count(adjacency)
    if value != want:
        return f"triangle count {value!r}, expected trace(A^3)/6 = {want}"
    return None


def two_hop_distances(weights) -> np.ndarray:
    """Dense distances over paths of at most two hops: one min-plus
    relaxation ``D[i, k] = min_j W[i, j] + W[j, k]`` where ``W`` holds the
    edge weights, 0 on the diagonal (stay put) and +inf elsewhere."""
    w = sp.coo_matrix(weights)
    n = w.shape[0]
    dist = np.full((n, n), np.inf)
    dist[w.row, w.col] = w.data
    np.fill_diagonal(dist, 0.0)
    out = np.full((n, n), np.inf)
    for j in range(n):
        np.minimum(out, dist[:, j : j + 1] + dist[j : j + 1, :], out=out)
    return out


def check_two_hop(weights, x) -> str | None:
    """Does ``x`` hold every finite two-hop distance, and only those?"""
    dist = two_hop_distances(weights)
    rows, cols = np.nonzero(np.isfinite(dist))
    n = dist.shape[1]
    x_keys = np.sort(rows.astype(np.int64) * n + cols)
    got, why = _result_on(x, x_keys, n, np.float64)
    if why:
        return why
    want = dist.ravel()[x_keys]
    bad = got != want
    if np.any(bad):
        first = int(np.flatnonzero(bad)[0])
        row, col = divmod(int(x_keys[first]), n)
        return f"two-hop distance D[{row},{col}] = {got[first]!r}, expected {want[first]!r}"
    return None


def check_bill(rounds: int, messages: int, ref_rounds: int, ref_messages: int, what: str) -> str | None:
    """Property: the same structure bills the same rounds and messages."""
    if (rounds, messages) != (ref_rounds, ref_messages):
        return (
            f"{what}: billed {rounds} rounds / {messages} messages, "
            f"reference {ref_rounds} / {ref_messages}"
        )
    return None


def check_wire(outcome, reference) -> str | None:
    """Property: a TCP run equals the in-process run of the same instance
    in values digest, rounds and messages."""
    if not outcome.ok or outcome.aborted:
        return f"wire run failed: {outcome.error}"
    for field in ("values_digest", "rounds", "messages"):
        got, want = getattr(outcome, field), getattr(reference, field)
        if got != want:
            return f"wire {field} {got!r} != local {want!r}"
    return None


def check_served(result, direct_rounds: int, *, certify_requested: bool) -> str | None:
    """Properties of one served job: it succeeded, its rounds (less the
    certification rounds) equal a direct run of the same instance, and a
    job that asked for a certificate got a passing one."""
    if not result.ok:
        return f"served job failed: {result.error}"
    if result.rounds - result.cert_rounds != direct_rounds:
        return (
            f"served job billed {result.rounds - result.cert_rounds} rounds, "
            f"a direct run bills {direct_rounds}"
        )
    if certify_requested and result.certified is not True:
        return f"certification requested, certificate {result.certified!r}"
    return None
