"""Concave majorants of the logistic adoption curve (Def. 6, Fig. 2, Alg. 4).

The per-sample contribution to the AU estimator is ``g(c)`` — the logistic
adoption probability of a sample covered by ``c`` distinct pieces.  ``g``
is S-shaped (convex below the inflection ``c = alpha/beta``, concave
above), so a set function summing ``g`` over samples is not submodular.
The paper's fix: replace each ``g`` by a *concave* majorant ``phi``
anchored at the sample's current count, because "concave, nondecreasing
of a coverage count" **is** monotone submodular — giving the greedy its
(1 − 1/e) guarantee.

Two majorant constructions are provided:

``tangent`` (the paper's, Fig. 2 / Algorithm 4)
    Working in the centred coordinate ``x = beta*c - alpha`` where the
    curve is the standard sigmoid ``f(x) = 1/(1+e^{-x})``: from anchor
    ``x0``, take the unique line through ``(x0, f(x0))`` tangent to the
    sigmoid at some ``t > 0``, and follow the sigmoid itself beyond ``t``.
    The tangency slope has no closed form (the paper's appendix notes
    neither ``t`` nor ``e^{-t}`` is a closed-form function of the anchor),
    so Algorithm 4's binary search over ``w ∈ (0, 1/4)`` is reproduced in
    :func:`refine_tangent_slope`.  Anchors past the inflection need no
    line: the sigmoid is already concave there.

``chord`` (our tightening, used in ablations)
    The discrete upper concave envelope (upper convex-hull chain) of the
    integer points ``(c, g(c))``, ``c = base..l`` — including the true
    zero branch ``g(0) = 0``.  Tighter than the tangent construction and
    still a valid majorant; the ablation benchmark quantifies how much
    pruning it buys.

:class:`MajorantTable` precomputes, for every possible base count
``b = 0..l``, the majorant's values and unit-step gains at all counts —
so the solvers' inner loops are pure table lookups.
"""

from __future__ import annotations

import math

import numpy as np

from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import ParameterError

__all__ = ["refine_tangent_slope", "MajorantTable"]


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def refine_tangent_slope(
    x0: float, *, tol: float = 1e-12, max_iterations: int = 200
) -> tuple[float, float]:
    """Algorithm 4 (``Refine``): slope of the tangent line from ``x0``.

    Finds ``w`` such that the line through ``(x0, f(x0))`` with slope
    ``w`` is tangent to the sigmoid at a point ``t >= 0``; returns
    ``(w, t)``.

    The search uses the paper's parameterisation: a slope ``w ∈ (0, 1/4)``
    corresponds to the tangency point ``t = log((1+s)/(1-s))`` with
    ``s = sqrt(1-4w)`` (the concave-side solution of
    ``w = f(t)(1-f(t))``).  The line through ``x0`` evaluated at ``t``
    exceeds ``f(t)`` exactly when ``w`` is too steep, so bisection
    converges monotonically.

    Requires ``x0 < 0`` (anchors past the inflection are already in the
    concave region and need no line).
    """
    if not (x0 < 0):
        raise ParameterError(
            f"tangent refinement needs an anchor below the inflection "
            f"(x0 < 0), got {x0}"
        )
    if tol <= 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    f_x0 = _sigmoid(x0)
    lower, upper = 0.0, 0.25
    t = 0.0
    for _ in range(max_iterations):
        w = 0.5 * (upper + lower)
        s = math.sqrt(max(1.0 - 4.0 * w, 0.0))
        s = min(s, 1.0 - 1e-16)
        t = math.log((1.0 + s) / (1.0 - s))
        line_at_t = w * t + f_x0 - w * x0
        gap = line_at_t - _sigmoid(t)
        if abs(gap) <= tol or upper - lower <= tol:
            return w, t
        if gap > 0:
            upper = w
        else:
            lower = w
    return 0.5 * (upper + lower), t


def _upper_concave_envelope(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Values of the upper concave envelope of ``(xs, ys)`` at each ``xs``.

    ``xs`` must be strictly increasing.  Returns an array aligned with
    ``xs``; points on the hull keep their value, points below it get the
    hull's interpolated value.
    """
    hull: list[int] = []
    for i in range(xs.size):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            cross = (xs[i2] - xs[i1]) * (ys[i] - ys[i1]) - (
                ys[i2] - ys[i1]
            ) * (xs[i] - xs[i1])
            if cross >= 0:  # middle point is below/on the chord: drop it
                hull.pop()
            else:
                break
        hull.append(i)
    env = np.empty_like(ys)
    for seg in range(len(hull) - 1):
        i1, i2 = hull[seg], hull[seg + 1]
        for i in range(i1, i2 + 1):
            frac = (xs[i] - xs[i1]) / (xs[i2] - xs[i1])
            env[i] = ys[i1] + frac * (ys[i2] - ys[i1])
    if len(hull) == 1:
        env[:] = ys
    return np.maximum(env, ys)


class MajorantTable:
    """Per-base-count concave majorants, precomputed as lookup tables.

    Attributes
    ----------
    values:
        ``values[b, c] = phi_b(c)`` for ``b <= c <= l`` (entries with
        ``c < b`` are filled with the anchor value and never read).
    gains:
        ``gains[b, c] = phi_b(c+1) - phi_b(c)`` for ``b <= c < l`` and 0
        elsewhere — the marginal-gain lookup used by every tau
        evaluation.  Rows are non-increasing over ``c`` (concavity), which
        is what makes tau submodular.
    anchor_diag:
        ``anchor_diag[b] = phi_b(b) = values[b, b]`` — the anchor values,
        extracted once so a tau state's anchor sum is an O(l) dot with
        the coverage state's count histogram instead of an O(theta)
        per-sample gather.
    flat_gains:
        ``gains`` flattened row-major (a view), so :meth:`gains_at` reads
        a whole slab's gains with one ``take``.
    """

    __slots__ = (
        "adoption",
        "num_pieces",
        "method",
        "values",
        "gains",
        "flat_gains",
        "anchor_diag",
    )

    def __init__(
        self,
        adoption: AdoptionModel,
        num_pieces: int,
        *,
        method: str = "tangent",
        tol: float = 1e-12,
    ) -> None:
        if num_pieces < 1:
            raise ParameterError(f"need at least one piece, got {num_pieces}")
        if method not in ("tangent", "chord"):
            raise ParameterError(
                f"method must be 'tangent' or 'chord', got {method!r}"
            )
        self.adoption = adoption
        self.num_pieces = int(num_pieces)
        self.method = method
        l = self.num_pieces
        self.values = np.zeros((l + 1, l + 1), dtype=np.float64)
        self.gains = np.zeros((l + 1, l + 1), dtype=np.float64)
        for base in range(l + 1):
            row = (
                self._tangent_row(base, tol)
                if method == "tangent"
                else self._chord_row(base)
            )
            self.values[base, base:] = row
            self.values[base, :base] = row[0]
            if base < l:
                self.gains[base, base:l] = np.diff(row)
        self.flat_gains = self.gains.ravel()
        diag = np.arange(l + 1)
        self.anchor_diag = self.values[diag, diag].copy()

    # ------------------------------------------------------------------

    def _tangent_row(self, base: int, tol: float) -> np.ndarray:
        """phi_base at counts base..l via the paper's tangent construction.

        For base counts ``>= 1`` (or when the adoption model drops the
        zero branch) the anchor value is the logistic ``f(x0)`` and the
        majorant is the tangent line glued to the sigmoid, exactly
        Fig. 2.  For base count 0 under the zero-branch model the true
        contribution is ``g(0) = 0`` — anchoring the line at ``f(x0)``
        there would hand *every uncovered sample* a phantom
        ``1/(1+e^alpha)`` of bound mass and the branch-and-bound could
        never prune (tau(empty) would exceed any achievable sigma).  The
        zero-consistent anchor is the discrete concave envelope over
        ``{(0, 0), (1, f(1)), ..., (l, f(l))}``, which stays a valid
        monotone-submodular majorant and makes ``tau(empty | empty) = 0``
        — matching sigma(empty) = 0 from the paper's Example 2.
        """
        a, b = self.adoption.alpha, self.adoption.beta
        l = self.num_pieces
        if base == 0 and self.adoption.zero_if_unreached:
            return self._chord_row(0)
        counts = np.arange(base, l + 1, dtype=np.float64)
        xs = b * counts - a
        x0 = float(xs[0])
        if x0 >= 0:
            # Anchor at/past the inflection: the sigmoid is concave here.
            return np.array([_sigmoid(x) for x in xs])
        w, t = refine_tangent_slope(x0, tol=tol)
        f_x0 = _sigmoid(x0)
        row = np.empty_like(xs)
        for i, x in enumerate(xs):
            if x <= t:
                row[i] = f_x0 + w * (x - x0)
            else:
                row[i] = _sigmoid(x)
        return np.minimum(row, 1.0)

    def _chord_row(self, base: int) -> np.ndarray:
        """phi_base at counts base..l via the discrete concave envelope."""
        l = self.num_pieces
        counts = np.arange(base, l + 1, dtype=np.float64)
        g = np.asarray(self.adoption.probability(counts), dtype=np.float64)
        if counts.size == 1:
            return g
        return _upper_concave_envelope(counts, g)

    # ------------------------------------------------------------------

    def anchor(self, base: int) -> float:
        """``phi_base(base)`` — the majorant's value at its anchor."""
        return float(self.values[base, base])

    def gain(self, base: int, count: int) -> float:
        """``phi_base(count+1) - phi_base(count)`` (0 once count hits l)."""
        return float(self.gains[base, count])

    def gains_at(self, base: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``gains[base, counts]`` elementwise, as one flat ``take``.

        The flat index ``base * (l + 1) + counts`` is built in ``intp``:
        the solvers' int16 count arrays would overflow it from l = 181 on.
        """
        flat = base.astype(np.intp)
        flat *= self.num_pieces + 1
        flat += counts
        return self.flat_gains.take(flat)

    def __repr__(self) -> str:
        return (
            f"MajorantTable(method={self.method!r}, l={self.num_pieces}, "
            f"alpha={self.adoption.alpha:.4g}, beta={self.adoption.beta:.4g})"
        )
