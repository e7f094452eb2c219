"""``ComputeBoundPro`` — progressive upper-bound estimation (Algorithm 3).

The plain greedy of Algorithm 2 rescans every candidate per selection,
``O(k n)`` tau evaluations per bound.  Algorithm 3 instead:

1. sorts candidates once by their *individual* gain ``delta_∅(v)``;
2. runs a decreasing-threshold sweep: at threshold ``h``, any candidate
   whose current marginal gain reaches ``h`` is taken immediately;
3. breaks a sweep early as soon as a candidate's individual gain falls
   below ``h`` — by submodularity everything after it in the sorted order
   is also below ``h`` (line 11-12 of the paper's pseudocode);
4. lowers ``h`` geometrically by ``(1 + eps)`` (line 13) and stops the
   whole procedure once ``h <= tau(S-bar|S-bar^a)/(k - |S-bar^a|) *
   e^{-1}/(1 - e^{-1})`` (line 14) — at that point even taking every
   remaining candidate cannot lift the optimum above
   ``tau / (1 - 1/e)``, which is what Theorem 3's ``d < k'`` case needs.

The result carries a (1 − 1/e − eps) guarantee (Lemma 3 / Theorem 3) at a
fraction of the evaluations (Theorem 4): the early break means only
candidates whose individual gain lies within the current threshold window
are ever touched, and the power-law influence distribution keeps that
window sparse.

Line 2's scan is the bound's one pass over the whole pool.  An exclude
child of the BAB driver inherits it from its parent (``initial=``)
instead of rescanning; a commit reuses the sweep's evaluation of the
same pair (see :mod:`repro.core.upper_bound`).  Neither changes the
bound or its evaluation count.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.compute_bound import (
    BoundResult,
    CandidateSpace,
    _bound_result,
    _open_bound,
)
from repro.core.coverage import CoverageState
from repro.core.plan import AssignmentPlan
from repro.core.tangent import MajorantTable
from repro.core.upper_bound import PoolIndex
from repro.diffusion.adoption import AdoptionModel
from repro.sampling.mrr import MRRCollection
from repro.utils.validation import check_positive

__all__ = ["compute_bound_progressive"]

_E_FACTOR = math.exp(-1) / (1.0 - math.exp(-1))  # e^{-1} / (1 - e^{-1})


def compute_bound_progressive(
    mrr: MRRCollection,
    table: MajorantTable,
    adoption: AdoptionModel,
    partial_plan: AssignmentPlan,
    candidates: CandidateSpace,
    k: int,
    *,
    epsilon: float = 0.5,
    base: CoverageState | None = None,
    index: PoolIndex | None = None,
    initial: np.ndarray | None = None,
) -> BoundResult:
    """Run Algorithm 3 for one search node.

    ``epsilon`` is the threshold-decay knob the experiments sweep in
    Fig. 3: larger values take bigger threshold steps (faster, coarser),
    degrading the guarantee to (1 − 1/e − eps).  ``base`` optionally
    supplies a pre-built coverage of ``partial_plan``, ``index`` the
    pool's slab index and ``initial`` an inherited initial scan (see
    :func:`repro.core.compute_bound.compute_bound`); bounds are identical
    either way.
    """
    check_positive("epsilon", epsilon)
    tau, available, budget, scan = _open_bound(
        mrr, table, adoption, partial_plan, candidates, k, base, index,
        initial,
    )

    # Line 2: order candidates by individual gain delta_∅(v) — one
    # vectorised pool scan per piece (or the parent's, inherited by an
    # exclude child), then a stable sort on -gain (ties keep
    # piece-major pool order).  Only positive gains enter.
    scanned = scan()
    flat = scanned.ravel()
    order = np.argsort(-flat, kind="stable")
    order = order[: np.count_nonzero(flat > 0.0)]
    deltas = flat[order].tolist()
    pieces, positions = np.divmod(order, tau.index.pool.size)
    individual = list(
        zip(tau.index.pool[positions].tolist(), pieces.tolist())
    )

    picks: list[tuple[int, int]] = []
    if individual and budget > 0:
        # Lines 3-4: threshold starts at the largest individual gain.
        h = deltas[0]
        smallest = deltas[-1]
        chosen: set[tuple[int, int]] = set()
        # Lines 6-15: progressive threshold sweep.
        while len(picks) < budget:
            advanced = False
            for delta_0, pair in zip(deltas, individual):
                if delta_0 < h:
                    # Lines 11-12: sorted order => everything further is
                    # below h too (submodularity: marginal <= individual).
                    break
                if pair in chosen:
                    continue
                # The one-slab case of the initial scan's kernel, so
                # cached individual gains and fresh re-evaluations
                # round identically.
                gain = tau.marginal_gain(*pair)
                if gain >= h:
                    tau.add(*pair)
                    chosen.add(pair)
                    picks.append(pair)
                    advanced = True
                    if len(picks) >= budget:
                        break
            if len(picks) >= budget:
                break
            # Line 13: lower the threshold geometrically.
            h = h / (1.0 + epsilon)
            # Line 14: early termination once h is provably negligible.
            if h <= tau.value / budget * _E_FACTOR:
                break
            # Safety: once the threshold sinks below every remaining
            # individual gain and a full sweep added nothing, no further
            # sweep can add anything either.
            if not advanced and h < smallest:
                break

    return _bound_result(tau, partial_plan, picks, scanned)
