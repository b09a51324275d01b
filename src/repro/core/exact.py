"""The exact RBC search algorithm (paper §5.2).

Search runs as two brute-force stages separated by a pruning step that uses
only the triangle inequality:

1. ``BF(Q, R)`` with distances retained; ``gamma`` = distance to the
   nearest representative is an upper bound on the distance to the true NN
   (representatives are database points).
2. Pruning discards every representative ``r`` that provably cannot own a
   nearest neighbor, by two rules used simultaneously (the paper notes
   their combination improves empirical performance):

   * **psi rule** (inequality (1)): discard if
     ``rho(q, r) >= gamma + psi_r`` — the whole ball around ``r`` lies
     further than the bound;
   * **3-gamma rule** (inequality (2) / Lemma 1): discard if
     ``rho(q, r) > 3 gamma`` — the owner of the NN is within ``3 gamma``.

   Within surviving lists, the sorted order by distance-to-representative
   enables the Claim-2 trim: a nearest neighbor owned by ``r`` satisfies
   ``rho(x, r) <= rho(q, r) + gamma``, so only a sorted prefix is scanned.
3. ``BF(q, X[L_1 ∪ ... ∪ L_t])`` over the surviving candidates.

For k-NN, ``gamma`` is the distance to the k-th nearest representative
(still an upper bound on the k-th NN distance since ``R ⊂ X``); all three
rules generalize with that substitution.

An approximation knob ``approx_eps`` implements the paper's footnote 1:
with ``approx_eps = e > 0`` the pruning threshold shrinks from ``gamma`` to
``gamma / (1 + e)``, which guarantees the returned point is within a factor
``(1 + e)`` of the true NN distance while pruning more aggressively.

Search is **plan → scan → merge**; single-node search, the sharded server
and the distributed engine only pick a partition of it.  :meth:`ExactRBC.plan`
runs stage 1 and all pruning arithmetic once per batch: the rules broadcast
over the ``(m, n_reps)`` stage-1 block, the seeds, the rule counters, and
the Claim-2 trim as one ``searchsorted`` of every kept ``(row, rep)`` bound
``rep + 1j * bound`` into the **trim key**, a packed ``complex128``
column holding ``list id + 1j * rho(x, r)`` for each row (slack rows
``list id + 1j * inf``; numpy orders complex numbers by real, then
imaginary part, so each cut is the per-list ``searchsorted`` answer) that
inserts and deletes move with the lists.
:meth:`ExactRBC.scan` runs stage 2 for any subset of query rows and
representatives, one dense kernel block per trimmed prefix, with every
group's rows, cuts and prefix taken from one ``nonzero`` of the cut block;
partials over disjoint representative subsets and the plan's seed block (the
seeds no scanned prefix holds) fold with
:func:`~repro.parallel.reduce.merge_topk`.

**Certified survivor threshold.**  On the prepared-operand engine a scanned
candidate survives if its kernel value is at most a per-row threshold.  A
pair's Gram value differs between the stage-1 and stage-2 calls by an
*absolute* rounding error of order ``u (|q|^2 + max |x|^2)``, which no
relative slack covers next to a representative far from the origin; the
threshold adds that bound (:func:`_rounding_bound`), so rounding can admit
an extra survivor but never drop a true neighbor or empty a row.

**Per-group cap and the ranking pass.**  Within a group each row's threshold
is lowered to the group's k-th smallest value of that row, ties kept: a
dropped value has k smaller ones in its own row, so it could never rank
into the top k.  The survivors leave the group in row-major order and one
stable ``lexsort`` over the ~``k x groups`` entries per row keeps each row's
first k -- the same ids and distances, ties included, as ranking every
survivor.  In float32 the cap is the k-th value plus twice the rounding
bound: every true top-k neighbor's float32 value lies within it, so the
float64 re-rank is certified, not a fixed over-fetch count.  The quantized
grouped scan keeps every survivor (decoded distances cannot rank).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics.engine import Prepared, refine_topk, rescore_pairs
from ..parallel.blocking import row_chunks
from ..parallel.bruteforce import _is_batch, _record_dist_tile, _record_select
from ..parallel.pool import SerialExecutor
from ..parallel.reduce import EMPTY_IDX, merge_group_topk, merge_topk
from ..runtime.context import ExecContext
from ..simulator.trace import NULL_RECORDER, Op, TraceRecorder
from .params import standard_n_reps
from .rbc import RBCBase, sample_representatives
from .stats import SearchStats

__all__ = ["ExactRBC", "StagePlan"]


def _rounding_bound(metric, Qp: Prepared, rows, x_sq_max: float, g):
    """Bound on ``|computed - exact|`` of one prepared-kernel value for the
    query rows ``rows``, in the kernel's ranking domain.

    ``4 (d + 2) eps`` is twice the dot-product bound ``2 gamma_{d+2}``
    (``gamma_n = n u / (1 - n u)``, ``u = eps / 2``); the margin covers
    rounding the operands to the compute dtype.  Gram-trick metrics
    (``squared_ok``) carry an absolute error scaled by the norms, the
    others a relative one at distance scale ``g`` (plus the square-root
    loss of ``arccos`` near 0 for the angular metric).
    """
    rel = 4.0 * (Qp.data.shape[1] + 2) * float(np.finfo(Qp.data.dtype).eps)
    if metric.squared_ok:
        return rel * (Qp.sqnorms[rows].astype(np.float64) + x_sq_max)
    err = rel * g
    if metric.prepared_kernel == "angular":
        err = err + np.pi * np.sqrt(rel)
    return err


def _trim_slack(j: int) -> complex:
    """Trim-key value of a slack row of list ``j``: after every stored row
    of the list, before list ``j + 1``."""
    return complex(j, np.inf)


def _kth_smallest(D: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th smallest value, as a ``(rows, 1)`` column."""
    if k == 1:
        return D.min(axis=1, keepdims=True)  # partition(D, 0) is ~5x slower
    return np.partition(D, k - 1, axis=1)[:, k - 1 : k]


def _check_query_args(k: int, approx_eps: float) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if approx_eps < 0:
        raise ValueError("approx_eps must be >= 0")


@dataclass
class StagePlan:
    """Stage 1 and the pruning decisions of one exact k-NN batch, built by
    :meth:`ExactRBC.plan` and only read by :meth:`ExactRBC.scan`, so any
    partition of its rows and representatives can be scanned concurrently.
    """

    Qb: object
    k: int
    #: ``(m, n_reps)`` stage-1 distances and ``(m,)`` k-th smallest of each
    #: row (``inf`` when ``n_reps < k``: pruning is then unsound)
    D_R: np.ndarray
    gamma: np.ndarray
    #: ``(m, n_reps)`` survivors of the psi and 3-gamma rules, and the
    #: Claim-2 prefix length scanned in each list (0 = not scanned)
    keep: np.ndarray
    cuts: np.ndarray
    #: ``(m, k)`` sorted seed block: the k nearest representatives that no
    #: scanned prefix holds, padded with ``inf`` / ``EMPTY_IDX``
    seed_d: np.ndarray
    seed_i: np.ndarray
    #: rule counters and stage-1 evaluations
    stats: SearchStats
    recorder: TraceRecorder = NULL_RECORDER
    #: engine only: prepared queries, the ``(m,)`` certified survivor
    #: threshold (ranking domain) and upper bound on the true k-th NN
    #: distance; grouped quantized scans add float32 queries + code operand
    Qp: Prepared | None = None
    thr: np.ndarray | None = None
    g_up: np.ndarray | None = None
    Qp_q: Prepared | None = None
    qop: object = None
    #: float32 engine: scans over-fetch and re-rank in float64
    fp32: bool = False


class ExactRBC(RBCBase):
    """Random Ball Cover with the exact (guaranteed-correct) search.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import ExactRBC
    >>> X = np.random.default_rng(0).normal(size=(2000, 8))
    >>> index = ExactRBC(seed=0).build(X)
    >>> dist, idx = index.query(X[:3], k=2)
    >>> bool((idx[:, 0] == [0, 1, 2]).all())   # a point's 1-NN is itself
    True
    """

    CAPS = RBCBase.CAPS.replace(range_queries=True)

    def build(
        self,
        X,
        n_reps: int | None = None,
        *,
        c: float = 1.0,
        ctx: ExecContext | None = None,
    ) -> "ExactRBC":
        """Build: sample ``R``, then one ``BF(X, R)`` assigns every point to
        its nearest representative (paper §4).

        ``n_reps`` defaults to the standard setting ``c^{3/2} sqrt(n)``.
        The build always computes in float64 (stored list distances and
        radii must stay exact bounds), so only ``ctx``'s transport fields
        — executor, recorder, chunking — apply here.
        """
        ctx = self._call_ctx(ctx).transport()
        self._require_true_metric("the exact search's pruning")
        n = self.metric.length(X)
        if n == 0:
            raise ValueError("database is empty")
        self._validate_input(X)
        n_reps = standard_n_reps(n, c=c) if n_reps is None else n_reps

        rep_ids = sample_representatives(n, n_reps, self.rng, scheme=self.rep_scheme)
        rep_data = self.metric.take(X, rep_ids)

        evals0 = self.metric.counter.n_evals
        # the build routine is exactly BF(X, R) (paper §4)
        from ..parallel.bruteforce import bf_nn

        dist, owner = bf_nn(X, rep_data, self.metric, ctx=ctx)
        build_evals = self.metric.counter.n_evals - evals0

        # group points by owner, each list ascending by distance to its rep
        order = np.lexsort((dist, owner))
        owner_sorted = owner[order]
        boundaries = np.searchsorted(owner_sorted, np.arange(rep_ids.size + 1))
        lists, list_dists = [], []
        for j in range(rep_ids.size):
            sl = order[boundaries[j] : boundaries[j + 1]]
            lists.append(sl.astype(np.int64))
            list_dists.append(dist[sl])
        self._finish_build(X, rep_ids, lists, list_dists, build_evals)
        return self

    # ------------------------------------------------------------- queries
    def query(
        self,
        Q,
        k: int = 1,
        *,
        use_psi_rule: bool = True,
        use_3gamma_rule: bool = True,
        use_trim: bool = True,
        approx_eps: float = 0.0,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact k-NN (or ``(1 + approx_eps)``-approximate if ``> 0``):
        :meth:`plan`, one :meth:`scan` per row chunk, then the seed merge.

        The three rule flags exist for the ablation experiments; with all
        rules disabled the second stage degenerates to full brute force
        over every ownership list (still correct, just slow).

        ``ctx`` overrides the index configuration for this call: set
        ``ctx`` fields win, then the index defaults.

        Returns ``(dist, idx)`` of shape ``(m, k)``, rows sorted ascending.
        """
        _check_query_args(k, approx_eps)
        ctx = self._call_ctx(ctx)
        if self.quantizer is not None and self._engine_active(ctx):
            qplan = self._quant_plan()
            Qb = Q if _is_batch(self.metric, Q) else self.metric._as_batch(Q)
            if qplan.strategy == "flat" and self.metric.length(Qb):
                return self._query_quant_flat(Qb, k, qplan, ctx.recorder)
        plan = self.plan(
            Q,
            k,
            use_psi_rule=use_psi_rule,
            use_3gamma_rule=use_3gamma_rule,
            use_trim=use_trim,
            approx_eps=approx_eps,
            ctx=ctx,
        )
        chunks = [slice(*ch) for ch in row_chunks(len(plan.D_R), 256)] or [slice(0, 0)]
        evals0 = self.metric.counter.n_evals
        # stage 2 under a process pool would ship the whole index state per
        # chunk; the batched kernels are BLAS-bound and release the GIL, so
        # the context degrades that backend to inline execution
        with ctx.executor_scope(inline_processes=True) as exec_:
            if len(chunks) == 1 or isinstance(exec_, SerialExecutor):
                parts = [self.scan(plan, rows) for rows in chunks]
            else:
                parts = exec_.map(lambda rows: self.scan(plan, rows), chunks)
        plan.stats.stage2_evals = self.metric.counter.n_evals - evals0
        self.last_stats = plan.stats
        dist, idx = (np.concatenate(p, axis=0) for p in zip(*parts))
        return merge_topk((dist, idx), (plan.seed_d, plan.seed_i))

    def plan(
        self,
        Q,
        k: int = 1,
        *,
        use_psi_rule: bool = True,
        use_3gamma_rule: bool = True,
        use_trim: bool = True,
        approx_eps: float = 0.0,
        ctx: ExecContext | None = None,
    ) -> StagePlan:
        """Stage 1 and every pruning decision for the batch ``Q``: the psi
        and 3-gamma rules, the Claim-2 trim, the seeds, the rule counters
        and, on the engine, the certified survivor threshold.  Arguments
        as for :meth:`query`."""
        self._require_built()
        _check_query_args(k, approx_eps)
        ctx = self._call_ctx(ctx)
        metric = self.metric
        recorder = ctx.recorder
        dtype = ctx.dtype_or_default
        engine = self._engine_active(ctx)
        fp32 = engine and dtype == "float32"
        nr = self.n_reps
        Qb = Q if _is_batch(metric, Q) else metric._as_batch(Q)
        m = metric.length(Qb)
        stats = SearchStats(n_queries=m)

        qplan = self._quant_plan() if engine else None
        qop = Qp_q = None
        if qplan is not None and qplan.strategy == "grouped":
            # grouped quantized stage 2: the trimmed prefixes are scanned
            # on the float32 decode cache and every survivor is re-ranked
            # in float64, so the answer ids match the unquantized path
            qop = self._quant_operand(qplan.quantizer)
            Qp_q = metric.prepare(Qb, dtype="float32")
            stats.quant = dict(
                strategy="grouped", quantizer=qplan.quantizer,
                backend=qplan.backend, code_bytes=int(qop.code_bytes),
            )
        Qp = metric.prepare(Qb, dtype=dtype) if engine else None

        # ---- stage 1: BF(Q, R) with all distances retained
        evals0 = metric.counter.n_evals
        D_R = self._stage1_distances(Qb, recorder, Qp=Qp)
        # gamma = distance to the k-th nearest representative (upper bound
        # on the k-th NN distance); inf disables pruning when nr < k.
        if nr >= k:
            gamma = _kth_smallest(D_R, k)[:, 0]
        else:
            gamma = np.full(m, np.inf)
        ge = gamma / (1.0 + approx_eps)
        psi = self.radii
        # relative slack on the pruning bounds in float32 mode (float32
        # kernels carry ~1e-7 relative error; 1e-4 leaves ample headroom at
        # negligible extra candidate cost)
        slack = 1e-4 if fp32 else 0.0

        # ---- rules, broadcast over the whole batch
        keep = np.ones((m, nr), dtype=bool)
        if use_psi_rule:
            # inequality (1): rho(q,r) >= gamma + psi_r  =>  discard
            tol = slack * (np.abs(D_R) + psi[None, :]) if fp32 else 0.0
            kept = D_R - psi[None, :] < ge[:, None] + tol
            stats.pruned_by_psi = int(m * nr - np.count_nonzero(kept))
            keep &= kept
        if use_3gamma_rule:
            # inequality (2) via Lemma 1
            tol = 4.0 * slack * np.abs(D_R) if fp32 else 0.0
            kept = D_R <= 3.0 * gamma[:, None] + tol
            stats.pruned_by_3gamma = int(np.count_nonzero(keep & ~kept))
            keep &= kept
        if recorder.enabled:
            with recorder.phase("exact:stage2"):
                recorder.record(
                    Op(kind="ewise", flops=4.0 * nr * m, bytes=8.0 * nr * m,
                       tag="exact:prune")
                )

        # ---- Claim-2 trim: rho(x, r) <= rho(q, r) + gamma bounds a sorted
        # prefix; one searchsorted of every kept (row, rep) bound over the
        # packed (list id, distance) key cuts all lists at once
        packed = self._packed
        rr, jj = np.nonzero(keep)
        size = packed.lengths[jj]
        if use_trim:
            bound = np.empty(rr.size, dtype=np.complex128)
            bound.real = jj
            bound.imag = (D_R[rr, jj] + ge[rr]) * (1.0 + slack)
            end = np.searchsorted(self._trim_key(), bound, side="right")
            cut = np.minimum(end - packed.starts[jj], size)
            stats.trimmed_by_4gamma = int((size - cut).sum())
        else:
            cut = size
        cuts = np.zeros((m, nr), dtype=np.int64)
        cuts[rr, jj] = cut

        # Seed with the k nearest representatives: they are database points
        # whose distances are already known (stage 1) to be <= gamma, which
        # keeps the answer exact even when a boundary tie in rule (1)
        # discards a representative's own singleton list.  A seed inside a
        # scanned prefix is left to the scan, so no candidate repeats.
        kk = min(k, nr)
        seed_cols = np.argpartition(D_R, kk - 1, axis=1)[:, :kk]
        ri = np.arange(m)[:, None]
        rep_owner, rep_pos = self._rep_positions()
        so = rep_owner[seed_cols]
        scanned = (so >= 0) & (rep_pos[seed_cols] < cuts[ri, np.maximum(so, 0)])
        stats.candidates_examined = int(cuts.sum() + np.count_nonzero(~scanned))
        seed_i = np.where(scanned, EMPTY_IDX, self.rep_ids[seed_cols])
        if fp32 or qop is not None:
            # these scans re-rank in float64; the seeds must match them
            seed_d = rescore_pairs(metric, Qb, self.X, seed_i)
        else:
            seed_d = np.where(scanned, np.inf, D_R[ri, seed_cols])
        order = np.argsort(seed_d, axis=1, kind="stable")
        sd, si = seed_d[ri, order], seed_i[ri, order]
        seed_d = np.full((m, k), np.inf)
        seed_i = np.full((m, k), EMPTY_IDX, dtype=np.int64)
        seed_d[:, :kk], seed_i[:, :kk] = sd, si
        stats.stage1_evals = metric.counter.n_evals - evals0

        thr = g_up = None
        if engine:
            # a true top-k neighbor's stage-2 value is <= its exact value +
            # err <= the k-th representative's exact value + err <= gamma +
            # 2 err; one more err covers the rounding of gamma itself
            err = _rounding_bound(
                metric, Qp, slice(None), self._max_sqnorm(dtype), gamma
            )
            if metric.squared_ok:
                g2 = metric.to_squared(gamma)
                thr, g_up = g2 + 3.0 * err, np.sqrt(g2 + 2.0 * err)
            else:
                thr, g_up = gamma + 3.0 * err, gamma + 2.0 * err
        return StagePlan(
            Qb, int(k), D_R, gamma, keep, cuts, seed_d, seed_i, stats,
            recorder, Qp, thr, g_up, Qp_q, qop, fp32,
        )

    def scan(
        self,
        plan: StagePlan,
        rows=slice(None),
        reps: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stage 2 of ``plan`` for the query ``rows`` over the trimmed
        prefixes of the representatives ``reps`` (default: all): a dense
        ``(len(rows), plan.k)`` top-k partial, sorted, padded with ``inf`` /
        ``EMPTY_IDX``, seeds not included.

        Each representative's group of rows scans one dense block, padded
        to the longest prefix and masked back to each row's cut; every
        group's rows, cuts and prefix come from one ``nonzero`` of the cut
        block.  On the engine the prefix is a slice of the prepared
        candidate operand, one compare against the certified threshold
        keeps survivors, each row's survivors are capped at the group's
        k-th smallest value (ties kept), and one ``lexsort`` ranks what is
        left; off it (``engine=False``, non-vector metrics) each group
        folds in with ``merge_group_topk``.
        """
        metric = self.metric
        packed = self._packed
        ridx = np.arange(len(plan.D_R))[rows]
        cuts = plan.cuts[rows] if reps is None else plan.cuts[rows][:, reps]
        c = ridx.size
        recorder = plan.recorder
        engine = plan.Qp is not None
        quant = plan.qop is not None
        dim = metric.dim(self.rep_data)
        k = plan.k
        squared = engine and metric.squared_ok
        # the groups: representative-major, rows ascending within a group
        # (the order survivors are emitted in, which breaks distance ties)
        cols = np.flatnonzero(cuts.any(axis=0))
        gj, gr = np.nonzero(cuts.T)
        gcut = cuts[gr, gj]
        head = np.searchsorted(gj, cols)
        end = np.searchsorted(gj, cols, side="right")
        starts = packed.starts[cols if reps is None else np.asarray(reps)[cols]]
        plens = np.maximum.reduceat(gcut, head)
        ragged = np.minimum.reduceat(gcut, head) < plens
        qrows = ridx[gr]
        if engine:
            Qp = plan.Qp_q if quant else plan.Qp
            if quant:
                Cp = plan.qop.decoded
                q_err = _rounding_bound(
                    metric, Qp, ridx, self._max_sqnorm("quant", Cp), 0.0
                )
            else:
                dtype = "float32" if plan.fp32 else "float64"
                Cp = self._prepared_cands(dtype)
                thr = plan.thr[qrows]
                if plan.fp32:
                    # float32 keeps every value within twice the rounding
                    # bound of the k-th: that certifies the float64 re-rank
                    over = 2.0 * _rounding_bound(
                        metric, Qp, ridx, self._max_sqnorm(dtype), plan.thr[ridx]
                    )
            itemsize = float(Qp.data.dtype.itemsize)
            acc_r = [np.empty(0, dtype=np.int64)]
            acc_d = [np.empty(0)]
            acc_g = [np.empty(0, dtype=np.int64)]
        else:
            itemsize = 8.0
            dists = np.full((c, k), np.inf)
            idxs = np.full((c, k), EMPTY_IDX, dtype=np.int64)
        # DRAM traffic model: each unique candidate is streamed once per
        # scan (one memcpy op at the end); group ops carry only compute and
        # output bytes
        touched = np.zeros(self.n, dtype=bool) if recorder.enabled else None
        with recorder.phase("exact:stage2"):
            for a, b, lo, plen, rag in zip(
                head.tolist(), end.tolist(), starts.tolist(), plens.tolist(),
                ragged.tolist(),
            ):
                sel = gr[a:b]
                prefix = packed.ids[lo : lo + plen]
                # a ragged group's rows only own their own trimmed prefix
                if rag:
                    inside = np.arange(plen)[None, :] < gcut[a:b, None]
                if engine:
                    D = metric.pairwise_prepared(
                        Qp.take(qrows[a:b]), Cp.slice(lo, lo + plen), squared=squared
                    )
                    if quant:
                        # a candidate with true distance <= g_up has decoded
                        # distance <= g_up + resid (triangle inequality),
                        # plus the float32 kernel error
                        bd = plan.g_up[qrows[a:b], None] + plan.qop.resid[lo : lo + plen]
                        if squared:
                            t = metric.to_squared(bd) + 2.0 * q_err[sel, None]
                        else:
                            t = bd + 2.0 * _rounding_bound(metric, Qp, sel, 0.0, bd)
                    else:
                        t = thr[a:b, None]
                        if plen > k:
                            # each row keeps at most its k smallest values
                            # (ties included): no other value can rank
                            # into its top k
                            kth = _kth_smallest(
                                np.where(inside, D, np.inf) if rag else D, k
                            )
                            t = np.minimum(t, kth + over[sel, None] if plan.fp32 else kth)
                    mask = D <= t
                    if rag:
                        mask &= inside
                    # 1-D nonzero + divmod beats 2-D nonzero by ~2x here
                    flat = mask.ravel().nonzero()[0]
                    rr, cc = np.divmod(flat, plen)
                    acc_r.append(sel[rr])
                    acc_d.append(D.reshape(-1)[flat].astype(np.float64, copy=False))
                    acc_g.append(prefix[cc])
                else:
                    D = metric.pairwise(
                        metric.take(plan.Qb, qrows[a:b]), metric.take(self.X, prefix)
                    )
                    if rag:
                        D[~inside] = np.inf
                    merge_group_topk(dists, idxs, sel, D, prefix, n_valid=gcut[a:b])
                if touched is not None:
                    touched[prefix] = True
                    _record_dist_tile(recorder, metric, sel.size, plen, dim,
                                      "exact:stage2", itemsize=itemsize)
                    _record_select(recorder, sel.size, plen, "exact:stage2",
                                   itemsize=itemsize)
                    # two (rows, k) candidate blocks: distances at the
                    # compute itemsize plus int64 ids
                    recorder.record(
                        Op(kind="reduce", flops=4.0 * sel.size * k,
                           bytes=2.0 * sel.size * k * (itemsize + 8.0),
                           vectorizable=True, tag="exact:stage2:merge")
                    )
            if touched is not None and touched.any():
                recorder.record(
                    Op(kind="memcpy", flops=0.0,
                       bytes=itemsize * dim * float(touched.sum()),
                       tag="exact:stage2-stream")
                )
        if engine:
            # one ranking pass: stable sort by (query row, distance); each
            # row keeps its first k -- float32 every value within ``over``
            # of its k-th, the quantized scan (whose distances cannot rank
            # the answer) every survivor
            r_all, d_all = np.concatenate(acc_r), np.concatenate(acc_d)
            order = np.lexsort((d_all, r_all))
            r_s, d_s = r_all[order], d_all[order]
            first = np.searchsorted(r_s, np.arange(c + 1))
            rank = np.arange(r_s.size) - first[r_s]
            if quant:
                top = np.ones(r_s.size, dtype=bool)
            elif plan.fp32:
                kth = np.full(c, np.inf)
                full = np.flatnonzero(np.diff(first) >= k)
                kth[full] = d_s[first[full] + k - 1]
                top = d_s <= kth[r_s] + over[r_s]
            else:
                top = rank < k
            k_out = max(int(rank[top].max()) + 1 if top.any() else 0, k)
            dists = np.full((c, k_out), np.inf)
            idxs = np.full((c, k_out), EMPTY_IDX, dtype=np.int64)
            dists[r_s[top], rank[top]] = d_s[top]
            idxs[r_s[top], rank[top]] = np.concatenate(acc_g)[order][top]
        if quant or plan.fp32:
            # exact float64 re-score and re-rank of the candidates
            return refine_topk(metric, metric.take(plan.Qb, ridx), self.X, idxs, k)
        if squared:
            dists = metric.from_squared(dists)
        return dists, idxs

    def _max_sqnorm(self, key, P=None) -> float:
        """Largest squared norm of the candidate or code operand, cached."""
        val = self._prep.get(("max_sqnorm", key))
        if val is None:
            sq = (P if P is not None else self._prepared_cands(key)).sqnorms
            val = float(sq.max()) if sq is not None and len(sq) else 0.0
            self._prep[("max_sqnorm", key)] = val
        return val

    def _query_quant_flat(self, Qb, k, plan, recorder):
        """One certified quantized scan of the live points, replacing both
        stages (the autotuner's *flat* strategy — chosen when the pruning
        rules are predicted to keep nearly everything, so the grouped
        "pruned" scan would be a slower full scan).

        Answers are id-identical to the two-stage exact search: the scan
        over-fetches ``ck`` candidates per query, certifies the frontier
        with the per-row residual bound ``|d(q,x) - d(q,x~)| <= d(x,x~)``,
        and re-ranks every survivor in float64.
        """
        from ..metrics.quantize import quant_search

        qop = self._quant_operand(plan.quantizer)
        n_rows = len(qop.codes)  # packed width incl. slack (the GEMM scans it)
        n_live = (
            int(qop.valid.sum()) if qop.valid is not None else n_rows
        )
        dim = self.metric.dim(self.X)
        m = self.metric.length(Qb)
        stats = SearchStats(n_queries=m)
        evals0 = self.metric.counter.n_evals
        with recorder.phase("exact:quant-flat"):
            dist, idx, info = quant_search(
                self.metric,
                np.asarray(Qb),
                self.X,
                qop,
                k,
                over_fetch=plan.over_fetch,
                row_chunk=plan.row_chunk,
                backend=plan.backend,
            )
            if recorder.enabled:
                # the scan streams the code block once per query chunk
                n_blocks = -(-m // max(1, plan.row_chunk))
                recorder.record(
                    Op(
                        kind="gemm",
                        flops=2.0 * m * n_rows * dim,
                        bytes=float(qop.code_bytes) * n_blocks,
                        tag="exact:quant-flat",
                    )
                )
        stats.stage2_evals = self.metric.counter.n_evals - evals0
        # live rows only, matching quant_topk's m * n_valid counter credit
        stats.candidates_examined = m * n_live
        stats.quant = dict(info, strategy="flat", over_fetch=plan.over_fetch)
        self.last_stats = stats
        return dist, idx

    def _stage1_distances(
        self, Qb, recorder: TraceRecorder, Qp=None
    ) -> np.ndarray:
        """Full (m, n_reps) float64 distance matrix, in row chunks; on the
        prepared queries ``Qp`` against the cached prepared representatives
        when given (float32 results are widened back to float64)."""
        metric = self.metric
        m = metric.length(Qb)
        out = np.empty((m, self.n_reps))
        # the reps cache keys on dtype, so a per-call override via
        # ExecContext gets (and keeps) its own prepared block
        Rp = self._prepared_reps(str(Qp.data.dtype)) if Qp is not None else None
        with recorder.phase("exact:stage1"):
            for lo, hi in row_chunks(m, 1024):
                if Rp is not None:
                    out[lo:hi] = metric.pairwise_prepared(Qp.slice(lo, hi), Rp)
                else:
                    Qc = metric.take(Qb, np.arange(lo, hi))
                    out[lo:hi] = metric.pairwise(Qc, self.rep_data)
                _record_dist_tile(
                    recorder, metric, hi - lo, self.n_reps,
                    metric.dim(self.rep_data), "exact:stage1",
                    itemsize=float(Qp.data.dtype.itemsize) if Rp is not None else 8.0,
                )
        return out

    def warm(self, ctx: ExecContext | None = None) -> "ExactRBC":
        """Additionally pre-computes the Claim-2 trim key and the
        representative-position table :meth:`plan` consults (see
        :meth:`RBCBase.warm`)."""
        super().warm(ctx)
        self._trim_key()
        self._rep_positions()
        return self

    def _trim_key(self) -> np.ndarray:
        """Sort key of the packed lists for the one-call Claim-2 trim, a
        packed column: backing row ``t`` of list ``j`` is the complex
        ``j + 1j * rho(x_t, r_j)`` (slack rows ``j + 1j * inf``).  numpy
        orders complex numbers by real then imaginary part, so
        ``searchsorted`` of ``j + 1j * bound`` lands on list ``j``'s cut
        with exactly the float comparisons of a per-list ``searchsorted``.
        Rebuilt only after a build or a representative delete; inserts and
        deletes move it with the lists.
        """
        packed = self._packed
        key = packed.columns.get("trim_key")
        if key is None:
            owner, live = packed.row_owners()
            # fields by assignment: the arithmetic 1j * inf is nan + inf j
            key = np.empty(owner.size, dtype=np.complex128)
            key.real = owner
            key.imag = np.where(live, packed.dists, np.inf)
            packed.attach("trim_key", key, _trim_slack)
        return key

    def _list_row(self, j: int, dist: float, row: dict) -> dict:
        if "trim_key" in self._packed.columns:
            row = {**row, "trim_key": complex(j, dist)}
        return row

    _PATCHED = RBCBase._PATCHED + ("rep_positions",)

    def _after_edit(self, j: int, pos: int, step: int, relayout: bool) -> None:
        """Also shifts the representatives after row ``pos`` of list ``j``
        in the position table (see :meth:`RBCBase._after_edit`)."""
        cached = self._prep.get("rep_positions")
        if cached is not None:
            owner, rpos = cached
            # an insert lands before the entry at pos, a delete removes it
            rpos[(owner == j) & (rpos >= pos + (step < 0))] += step
        super()._after_edit(j, pos, step, relayout)

    def _rep_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """``(owner, pos)``: representative ``r`` (a database point) sits at
        ``lists[owner[r]][pos[r]]`` (``owner`` -1: in no list, "not
        scanned"), so a seed inside a scanned prefix is not examined twice.
        Rebuilt only after a build or a representative delete; inserts and
        deletes shift it.
        """
        cached = self._prep.get("rep_positions")
        if cached is not None:
            return cached
        packed = self._packed
        row_owner, live = packed.row_owners()
        t = np.flatnonzero(live)
        t = t[np.isin(packed.ids[t], self.rep_ids)]
        ridx = np.searchsorted(self.rep_ids, packed.ids[t])
        owner = np.full(self.n_reps, -1, dtype=np.int64)
        pos = np.zeros(self.n_reps, dtype=np.int64)
        owner[ridx] = row_owner[t]
        pos[ridx] = t - packed.starts[row_owner[t]]
        self._prep["rep_positions"] = (owner, pos)
        return owner, pos

    def _estimate_candidate_fraction(self) -> float:
        """Measured fraction of the database the pruning rules keep,
        probed on <= 64 database points standing in as queries (k = 1).

        This is the autotuner's flat-vs-grouped input: at low dimension
        the rules prune hard and the grouped scan wins; past d ~ 32 on
        i.i.d. data they keep nearly everything and one flat quantized
        scan is cheaper.  The probe is a single stage-1 block plus the
        vectorized rule arithmetic — no stage-2 distances — and runs once
        per index version (the plan is cached in ``_prep``).
        """
        self._require_built()
        probe_m = min(64, self.n)
        rows = np.random.default_rng(0).choice(
            self.n, size=probe_m, replace=False
        )
        # the generic path: no prepared operands, no quantized tier
        plan = self.plan(
            self.metric.take(self.X, rows), 1, ctx=ExecContext(engine=False)
        )
        return min(1.0, int(plan.cuts.sum()) / max(1, probe_m * self.n))

    # ------------------------------------------------------ dynamic updates
    def insert(self, x) -> int:
        """Insert a point: assign it to its nearest representative.

        Exactly the per-point step of the build's ``BF(X, R)``; queries
        remain exact afterwards.  Returns the new point's global id.
        O(n_reps) distance evaluations plus an O(n) database append —
        rebuild instead when inserting a large batch.
        """
        self._require_built()
        self._require_vector_db("insert")
        gid = self._append_point(x)
        d = self.metric.pairwise(
            self.metric.take(self.X, [gid]), self.rep_data
        )[0]
        j = int(np.argmin(d))
        self._insert_rows(gid, [j], [d[j]])
        return gid

    def delete(self, gid: int) -> None:
        """Delete a point by global id.

        Non-representative points are removed from their owner's list.
        Deleting a representative redistributes its surviving list members
        to their nearest remaining representative (the same assignment
        rule as the build).  Radii are kept as-is: they remain valid
        *upper* bounds, so exactness is preserved; pruning tightness can
        be restored by rebuilding after heavy churn.
        """
        self._require_built()
        self._require_vector_db("delete")
        gid = int(gid)
        self._tombstone(gid)

        packed = self._packed
        rep_pos = np.flatnonzero(self.rep_ids == gid)
        if rep_pos.size == 0:
            if not self._delete_rows(gid):
                raise AssertionError(f"point {gid} missing from every list")
            return

        j = int(rep_pos[0])
        if self.rep_ids.size == 1:
            raise ValueError(
                "cannot delete the only representative; rebuild the index"
            )
        # the lists and the representative block are renumbered
        self._reset_prep()
        lst = packed.ids_of(j)
        orphans = lst[lst != gid].copy()
        # drop representative j
        self.rep_ids = np.delete(self.rep_ids, j)
        self.rep_data = self.metric.take(self.X, self.rep_ids)
        packed.drop(j)
        self.radii = np.delete(self.radii, j)
        if orphans.size:
            # reassign orphans to their nearest surviving representative
            D = self.metric.pairwise(
                self.metric.take(self.X, orphans), self.rep_data
            )
            owner = D.argmin(axis=1)
            dist = D[np.arange(orphans.size), owner]
            for t in np.unique(owner):
                sel = owner == t
                merged_ids = np.concatenate([packed.ids_of(t), orphans[sel]])
                merged_d = np.concatenate([packed.dists_of(t), dist[sel]])
                order = np.argsort(merged_d, kind="stable")
                packed.replace(t, merged_ids[order], merged_d[order])
                self.radii[t] = max(self.radii[t], float(merged_d.max()))

    def range_query(
        self,
        Q,
        eps: float,
        *,
        ctx: ExecContext | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Exact ε-range search: every point within ``eps`` of each query.

        A representative's list can contain hits only if
        ``rho(q, r) <= eps + psi_r``; inside a surviving list, hits satisfy
        ``|rho(x, r) - rho(q, r)| <= eps``, so the sorted order admits a
        two-sided window.  Survivor candidates are then verified exactly.

        Like the k-NN stage 2, the scan is batched: pruning and the
        two-sided windows are vectorized over the whole query batch, and
        each representative's candidate window is verified with one dense
        ``pairwise`` block over all queries that reached it.
        """
        self._require_built()
        if eps < 0:
            raise ValueError("eps must be non-negative")
        ctx = self._call_ctx(ctx)
        recorder = ctx.recorder
        dtype = ctx.dtype_or_default
        Qb = Q if _is_batch(self.metric, Q) else self.metric._as_batch(Q)
        m = self.metric.length(Qb)
        engine = self._engine_active(ctx)
        fp32 = engine and dtype == "float32"
        Qp = self.metric.prepare(Qb, dtype=dtype) if engine else None
        if engine:
            Cp = self._prepared_cands(str(Qp.data.dtype))
            packed = self._packed
            itemsize = float(Qp.data.dtype.itemsize)
        D_R = self._stage1_distances(Qb, recorder, Qp=Qp)
        dim = self.metric.dim(self.rep_data)
        # float32 windows/thresholds are slack-widened; candidate hits are
        # then verified with the exact float64 distance
        slack = 1e-4 if fp32 else 0.0

        keep = D_R <= (eps + self.radii[None, :]) * (1.0 + slack)
        parts_d: list[list[np.ndarray]] = [[] for _ in range(m)]
        parts_i: list[list[np.ndarray]] = [[] for _ in range(m)]
        with recorder.phase("exact:range"):
            for j in np.flatnonzero(keep.any(axis=0)):
                lst = self.lists[j]
                ld = self.list_dists[j]
                if lst.size == 0:
                    continue
                rows = np.flatnonzero(keep[:, j])
                tol = slack * (np.abs(D_R[rows, j]) + eps)
                lsl = np.searchsorted(ld, D_R[rows, j] - eps - tol, side="left")
                lsr = np.searchsorted(ld, D_R[rows, j] + eps + tol, side="right")
                nonempty = lsr > lsl
                rows, lsl, lsr = rows[nonempty], lsl[nonempty], lsr[nonempty]
                if rows.size == 0:
                    continue
                # one dense block over the union window; each row then keeps
                # its own two-sided slice
                wlo, whi = int(lsl.min()), int(lsr.max())
                window = lst[wlo:whi]
                if engine:
                    plo = int(packed.starts[j])
                    D = self.metric.pairwise_prepared(
                        Qp.take(rows), Cp.slice(plo + wlo, plo + whi)
                    )
                    _record_dist_tile(
                        recorder, self.metric, rows.size, window.size, dim,
                        "exact:range", itemsize=itemsize,
                    )
                else:
                    D = self.metric.pairwise(
                        self.metric.take(Qb, rows),
                        self.metric.take(self.X, window),
                    )
                    _record_dist_tile(
                        recorder, self.metric, rows.size, window.size, dim,
                        "exact:range",
                    )
                cols = np.arange(wlo, whi)[None, :]
                eps_scan = eps + slack * (1.0 + np.abs(D)) if fp32 else eps
                hit = (cols >= lsl[:, None]) & (cols < lsr[:, None]) & (D <= eps_scan)
                for t, i_row in enumerate(rows):
                    sel = np.flatnonzero(hit[t])
                    if not sel.size:
                        continue
                    if fp32:
                        # exact float64 verification of the float32 hits
                        d = self.metric.pairwise(
                            self.metric.take(Qb, [i_row]),
                            self.metric.take(self.X, window[sel]),
                        )[0]
                        inside = d <= eps
                        parts_d[i_row].append(d[inside])
                        parts_i[i_row].append(window[sel][inside])
                    else:
                        parts_d[i_row].append(D[t, sel])
                        parts_i[i_row].append(window[sel])

        out = []
        for r in range(m):
            if parts_d[r]:
                d = np.concatenate(parts_d[r])
                gi = np.concatenate(parts_i[r]).astype(np.int64)
                order = np.argsort(d, kind="stable")
                out.append((d[order], gi[order]))
            else:
                out.append((np.empty(0), np.empty(0, dtype=np.int64)))
        return out
