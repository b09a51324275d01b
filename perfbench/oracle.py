"""Float64 k-NN oracle and the per-row answer check.

The oracle's final distances are computed from ``q - x`` directly, never
through the Gram trick the served path uses.  To keep it affordable on
every served row it first ranks the database with a float64 Gram block and
then recomputes directly every point the Gram values cannot rule out.  The
filter is certified: for a dot product of length ``d`` in float64 the Gram
value differs from the true squared distance by at most
``2 * gamma_{d+2} * (|q|^2 + |x|^2)`` (``gamma_n = n u / (1 - n u)``,
``u = 2^-53``), about ``5e-15`` times that scale at ``d = 21``.  The filter
uses ``GRAM_SLACK = 1e-12`` times the scale, so no true neighbour can be
dropped.

A served row passes when its ids are distinct live database rows, its
reported distances match the direct distances of those ids, and those
direct distances, sorted, equal the oracle's within the Gram rounding
bound.  Comparing sorted distances lets tied ids pass.
"""

from __future__ import annotations

import numpy as np

#: relative slack of the Gram-trick filter (see module docstring)
GRAM_SLACK = 1e-12


def sqnorms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


def knn_oracle(
    Q: np.ndarray,
    X: np.ndarray,
    k: int,
    *,
    alive: np.ndarray | None = None,
    x_sq: np.ndarray | None = None,
    block: int = 64,
) -> np.ndarray:
    """Sorted exact squared k-NN distances of each row of ``Q`` over the
    live rows of ``X``, shape ``(m, k)`` (``inf``-padded when fewer than
    ``k`` rows are live)."""
    Q = np.asarray(Q, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    x_sq = sqnorms(X) if x_sq is None else x_sq
    q_sq = sqnorms(Q)
    out = np.full((Q.shape[0], k), np.inf)
    n_live = X.shape[0] if alive is None else int(alive.sum())
    kk = min(k, n_live)
    if kk == 0:
        return out
    x_sq_max = float(x_sq.max())
    XT = np.ascontiguousarray(X.T)
    dead = None if alive is None else np.flatnonzero(~alive)
    for lo in range(0, Q.shape[0], block):
        hi = min(lo + block, Q.shape[0])
        G = q_sq[lo:hi, None] + x_sq[None, :] - 2.0 * (Q[lo:hi] @ XT)
        if dead is not None:
            G[:, dead] = np.inf
        # per-row bound on every Gram error in the row
        eps = GRAM_SLACK * (q_sq[lo:hi] + x_sq_max)
        # the kk-th Gram value plus its error bounds the true kk-th
        # distance; a point whose Gram value minus its error exceeds that
        # cannot be among the kk nearest
        if kk == 1:
            kth = G.min(axis=1)
        else:
            kth = np.partition(G, kk - 1, axis=1)[:, kk - 1]
        rows, cols = np.nonzero(G <= (kth + 2.0 * eps)[:, None])
        diff = X[cols] - Q[lo + rows]
        d = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((d, rows))
        starts = np.searchsorted(rows[order], np.arange(hi - lo))
        out[lo:hi, :kk] = d[order][starts[:, None] + np.arange(kk)]
    return out


def check_rows(
    Q: np.ndarray,
    dist: np.ndarray,
    idx: np.ndarray,
    oracle_sq: np.ndarray,
    X: np.ndarray,
    *,
    alive: np.ndarray | None = None,
    x_sq_max: float | None = None,
) -> np.ndarray:
    """Boolean mask of the served rows ``(dist, idx)`` that fail the check
    against ``oracle_sq`` (from :func:`knn_oracle`)."""
    Q = np.asarray(Q, dtype=np.float64)
    dist = np.asarray(dist, dtype=np.float64)
    idx = np.asarray(idx)
    m, k = oracle_sq.shape
    if idx.shape != (m, k) or dist.shape != (m, k):
        return np.ones(m, dtype=bool)
    n = X.shape[0]
    x_sq_max = float(sqnorms(X).max()) if x_sq_max is None else x_sq_max
    # slots that must hold a neighbour (the oracle pads the rest with inf)
    live = np.isfinite(oracle_sq)
    ids_ok = np.where(live, (idx >= 0) & (idx < n), idx == -1)
    safe = np.clip(idx, 0, n - 1)
    if alive is not None:
        ids_ok &= ~live | alive[safe]
    # distinct ids: padded slots get distinct negative stand-ins
    keyed = np.where(live, idx, -1 - np.arange(k))
    dup = (np.diff(np.sort(keyed, axis=1), axis=1) == 0).any(axis=1)
    diff = X[safe] - Q[:, None, :]
    got = np.where(live, np.einsum("ijk,ijk->ij", diff, diff), np.inf)
    tol = GRAM_SLACK * (sqnorms(Q) + x_sq_max)[:, None]
    with np.errstate(invalid="ignore"):
        # reported distances belong to the reported ids ...
        stray = live & (np.abs(dist**2 - got) > tol + 1e-12 * got)
        # ... and are the exact k nearest, up to ties
        wrong = live & (np.abs(np.sort(got, axis=1) - oracle_sq) > tol)
    return ~ids_ok.all(axis=1) | dup | stray.any(axis=1) | wrong.any(axis=1)
