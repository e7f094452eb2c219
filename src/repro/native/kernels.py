"""Typed hot-loop kernels for the ``backend="native"`` tier.

Every function here is written in Numba's nopython subset and wrapped
with the package's :data:`~repro.native.njit` shim: with Numba
installed they compile (``cache=True``, so CI and repeat runs skip the
JIT warmup); without it they run as plain Python loops — slow, but
*identical*, which is how the bit-identity suites cover the kernel
logic on machines with no compiler.

The contract shared by all of them: replicate the arithmetic of the
NumPy ``batch`` kernels exactly.  Draw streams are consumed by the
caller (``rng.random`` happens *outside* the kernel, in the same order
and the same counts as the batch engine), float accumulations are
sequential left-to-right like ``np.cumsum``, and the scatters are
integer-exact counting sorts matching ``np.argsort(kind="stable")`` —
so ``native`` output is bit-for-bit the ``batch`` output, never merely
close.
"""

from __future__ import annotations

import numpy as np

from repro.native import njit

__all__ = [
    "gather_scatter_runs",
    "invert_index",
    "lt_walk_step",
    "popcount_words",
    "rr_expand_level",
    "scatter_by_root",
    "sort_pairs_by_vertex",
    "uncovered_segment_counts",
]

# SWAR popcount constants (uint64-typed so uint64/int promotion can
# never kick an operand to float, in Numba or plain NumPy scalars).
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_M127 = np.uint64(0x7F)
_U0 = np.uint64(0)
_U1 = np.uint64(1)
_S1 = np.uint64(1)
_S2 = np.uint64(2)
_S4 = np.uint64(4)
_S8 = np.uint64(8)
_S16 = np.uint64(16)
_S32 = np.uint64(32)
_BIT63 = np.int64(63)


@njit
def rr_expand_level(
    in_ptr, in_src, in_prob, level_v, level_r, draws, mark, stamp, n,
    next_v, next_r,
):
    """One fused RR frontier expansion: mask + gather + dedupe.

    Walks the frontier's reverse slabs in the exact order the batch
    engine gathers them (frontier order, then slab slot order),
    consuming one pre-drawn uniform per edge, and appends each (vertex,
    root slot) pair the first time its stamp cell is fresh — the
    sequential equivalent of ``hit``/``fresh``/``first_occurrence``.
    ``next_v``/``next_r`` must hold at least ``draws.size`` entries;
    returns how many were written.
    """
    pos = 0
    k = 0
    for i in range(level_v.size):
        v = level_v[i]
        r = level_r[i]
        base = r * n
        for e in range(in_ptr[v], in_ptr[v + 1]):
            if draws[pos] < in_prob[e]:
                u = in_src[e]
                key = base + u
                if mark[key] != stamp:
                    mark[key] = stamp
                    next_v[k] = u
                    next_r[k] = r
                    k += 1
            pos += 1
    return k


@njit
def lt_walk_step(
    in_ptr, in_src, in_prob, cur_v, cur_r, draws, mark, stamp, n,
    next_v, next_r,
):
    """One fused LT walk step: inverse-CDF choice + cycle cut.

    ``cur_v``/``cur_r`` are the live walks (in-degree > 0), one
    pre-drawn uniform each.  The running accumulator ``c`` crosses all
    segments exactly like the batch engine's single global
    ``np.cumsum`` over the gathered slab, and each comparison is the
    same ``(c - segment base) > draw`` — so even the float rounding of
    the chosen-predecessor boundary is identical.  Returns how many
    walks advanced (their successors written to ``next_v``/``next_r``).
    """
    c = 0.0
    k = 0
    for i in range(cur_v.size):
        v = cur_v[i]
        lo = in_ptr[v]
        hi = in_ptr[v + 1]
        base = c
        count = 0
        for e in range(lo, hi):
            c = c + in_prob[e]
            if c - base > draws[i]:
                count += 1
        if count == 0:
            continue  # the "no live incoming edge" mass
        chosen = hi - count
        u = in_src[chosen]
        key = cur_r[i] * n + u
        if mark[key] != stamp:
            mark[key] = stamp
            next_v[k] = u
            next_r[k] = cur_r[i]
            k += 1
    return k


@njit
def scatter_by_root(found_v, found_r, b, sizes, out):
    """Stable counting scatter of a block's finds, grouped by root slot.

    Equivalent to ``np.argsort(found_r, kind="stable")`` +
    ``np.bincount`` on the batch path, in one O(finds) pass: ``sizes``
    (zeroed, length ``b``) receives the per-root counts and ``out``
    (length ``found_v.size``) the vertices in per-root discovery order.
    """
    for i in range(found_r.size):
        sizes[found_r[i]] += 1
    cursor = np.empty(b, np.int64)
    acc = 0
    for r in range(b):
        cursor[r] = acc
        acc += sizes[r]
    for i in range(found_r.size):
        r = found_r[i]
        out[cursor[r]] = found_v[i]
        cursor[r] += 1


@njit
def popcount_words(words):
    """Total set bits across uint64 ``words`` (SWAR, no intermediates)."""
    total = np.int64(0)
    for i in range(words.size):
        x = words[i]
        x = x - ((x >> _S1) & _M1)
        x = (x & _M2) + ((x >> _S2) & _M2)
        x = (x + (x >> _S4)) & _M4
        x = x + (x >> _S8)
        x = x + (x >> _S16)
        x = x + (x >> _S32)
        total += np.int64(x & _M127)
    return total


@njit
def uncovered_segment_counts(words, samples, deg, gains):
    """Marginal-gain scan: per segment, count samples not yet covered.

    ``samples`` is the flat concatenation of each candidate's index
    slab (segment lengths in ``deg``); ``words`` the packed covered
    bitset.  Writes ``gains[i] = #{uncovered samples in segment i}`` —
    the fused form of ``segment_sums(~covered.test(samples), deg)``
    with no intermediate mask or gather arrays.
    """
    pos = 0
    for i in range(deg.size):
        cnt = 0
        for _ in range(deg[i]):
            s = samples[pos]
            w = words[s >> 6]
            if ((w >> np.uint64(s & _BIT63)) & _U1) == _U0:
                cnt += 1
            pos += 1
        gains[i] = cnt
    return gains


@njit
def invert_index(ptr, nodes, idx_ptr, idx_samples):
    """CSR transpose: RR-set arrays to the vertex→samples index.

    A stable counting scatter producing exactly what the memory store's
    ``np.argsort(nodes, kind="stable")`` construction yields: for each
    vertex, its containing sample ids in increasing order.  ``idx_ptr``
    must be zeroed (length ``n + 1``); ``idx_samples`` sized
    ``nodes.size``.
    """
    for i in range(nodes.size):
        idx_ptr[nodes[i] + 1] += 1
    for v in range(1, idx_ptr.size):
        idx_ptr[v] += idx_ptr[v - 1]
    cursor = idx_ptr[:-1].copy()
    for sample in range(ptr.size - 1):
        for slot in range(ptr[sample], ptr[sample + 1]):
            v = nodes[slot]
            idx_samples[cursor[v]] = sample
            cursor[v] += 1


@njit
def sort_pairs_by_vertex(nodes, samples, n, out_v, out_s):
    """Stable counting sort of (vertex, sample) pairs by vertex.

    The shard store's external-sort bucket scatter: byte-identical to
    ``order = np.argsort(nodes, kind="stable")`` followed by
    ``nodes[order], samples[order]``, in O(pairs + n) with no argsort.
    """
    counts = np.zeros(n + 1, np.int64)
    for i in range(nodes.size):
        counts[nodes[i] + 1] += 1
    for v in range(1, n + 1):
        counts[v] += counts[v - 1]
    for i in range(nodes.size):
        v = nodes[i]
        p = counts[v]
        out_v[p] = v
        out_s[p] = samples[i]
        counts[v] = p + 1


@njit
def gather_scatter_runs(buf, slab_lo, deg, run_lo, buf_base, out):
    """Scatter merged-run reads back into request order.

    ``buf`` holds the shard index file's merged runs back to back
    (run ``r`` spans file offsets ``run_lo[r]..`` at buffer offset
    ``buf_base[r]``); each requested vertex's slab starts at file
    offset ``slab_lo[i]`` with ``deg[i]`` entries.  Finds the owning
    run by binary search (== ``np.searchsorted(..., side="right") - 1``)
    and copies the slab — the fused form of the NumPy
    ``frontier_edge_slots`` + ``np.repeat`` shift-gather.
    """
    pos = 0
    for i in range(slab_lo.size):
        d = deg[i]
        if d == 0:
            continue
        lo = slab_lo[i]
        a = 0
        z = run_lo.size
        while a < z:
            m = (a + z) >> 1
            if run_lo[m] <= lo:
                a = m + 1
            else:
                z = m
        r = a - 1
        src = lo + (buf_base[r] - run_lo[r])
        for t in range(d):
            out[pos] = buf[src + t]
            pos += 1
