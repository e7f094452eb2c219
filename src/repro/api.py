"""The :class:`Session` facade: one execution surface for OIPA.

The library's primitives — datasets, campaigns, MRR sampling, the
BAB/BAB-P solvers, the baselines, the simulators — compose freely, but
a full pipeline historically meant threading a problem, two sample
collections, and seven execution kwargs through half a dozen calls.
``Session`` wires graph → campaign → MRR sampling → solver → evaluation
behind one object carrying a single :class:`repro.runtime.Runtime`, so
the quickstart is three lines::

    from repro import Session
    session = Session.from_dataset("lastfm", pieces=3, k=10, seed=7)
    result = session.solve("bab-p", theta=4000)

Solvers live in a declarative registry: ``session.solve(method=...)``
accepts ``"bab"``, ``"bab-p"``, ``"celf"``, ``"ris"`` (alias ``"im"``),
``"tim"``, ``"local-search"``, and ``"brute-force"``, and new solvers
register with the :func:`register_solver` decorator instead of growing
another entry-point signature.  Every solver runs on the session's
shared optimisation collection, so method comparisons follow the
paper's protocol (fixed theta across methods, independent evaluation
via :meth:`Session.evaluate`).

Determinism contract: a ``Session`` built with the same graph,
campaign, adoption, ``k`` and ``seed`` as a legacy hand-wired pipeline
produces **bit-identical** seed sets and estimates — the facade calls
exactly the same primitives with exactly the same seeds (pinned in
``tests/test_session.py``).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
import uuid
from dataclasses import dataclass
from types import MappingProxyType

from repro.artifacts import ArtifactKey
from repro.core.bab import solve_bab, solve_bab_progressive
from repro.core.brute_force import brute_force_oipa
from repro.core.local_search import local_search
from repro.core.plan import AssignmentPlan
from repro.core.problem import OIPAProblem
from repro.datasets.registry import DatasetBundle, load_dataset
from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import PieceGraph, project_campaign
from repro.diffusion.simulate import simulate_adoption_utility
from repro.diffusion.threshold import normalize_lt_weights
from repro.exceptions import ConfigError, SolverError
from repro.graph.digraph import TopicGraph
from repro.im.baselines import _best_single_piece_plan, im_baseline, tim_baseline
from repro.im.greedy import celf_greedy_im
from repro.pipeline import PipelineTrace
from repro.runtime import Runtime, as_runtime, resolve_runtime
from repro.sampling.mrr import MRRCollection, resolve_models
from repro.topics.distributions import Campaign

__all__ = [
    "Session",
    "SessionResult",
    "available_solvers",
    "register_solver",
]


# --------------------------------------------------------------------------
# Solver registry
# --------------------------------------------------------------------------

_SOLVERS: dict[str, object] = {}

#: Solvers whose results may be served from the artifact cache.  A
#: cacheable solver must be a pure function of (problem, collection,
#: options, effective seed) — the built-ins qualify; user solvers opt
#: in via ``register_solver(..., cacheable=True)``.
_CACHEABLE_SOLVERS: set[str] = set()


def _normalize_method(name: str) -> str:
    if not isinstance(name, str) or not name.strip():
        raise ConfigError(f"solver method must be a name, got {name!r}")
    return name.strip().lower().replace("_", "-")


def register_solver(
    name: str, fn=None, *, overwrite: bool = False, cacheable: bool = False
):
    """Register a solver under ``name`` (usable as a decorator).

    A solver is ``fn(session, **options) -> (plan, estimate,
    diagnostics)``: it reads the problem and the shared optimisation
    collection off the session (``session.problem`` /
    ``session.mrr``), and returns the selected
    :class:`~repro.core.plan.AssignmentPlan`, its estimate on that
    collection, and a diagnostics mapping.  Registration is the whole
    extension surface — no entry-point signature grows.

    ``cacheable=True`` declares the solver a pure function of its
    inputs, letting the artifact cache replay its (plan, estimate,
    diagnostics) for identical keys; leave it off (the default) for
    solvers with hidden state or unseeded randomness.
    """

    def decorate(solver):
        key = _normalize_method(name)
        if key in _SOLVERS and not overwrite:
            raise ConfigError(
                f"solver {key!r} is already registered "
                "(pass overwrite=True to replace it)"
            )
        _SOLVERS[key] = solver
        if cacheable:
            _CACHEABLE_SOLVERS.add(key)
        else:
            _CACHEABLE_SOLVERS.discard(key)
        return solver

    return decorate(fn) if fn is not None else decorate


def available_solvers() -> tuple[str, ...]:
    """The registered solver names, sorted."""
    return tuple(sorted(_SOLVERS))


@dataclass(frozen=True)
class SessionResult:
    """One solver run: the plan plus its scores and diagnostics."""

    method: str
    plan: AssignmentPlan
    #: AU estimate on the session's (shared) optimisation collection.
    estimate: float
    #: AU estimate on the independent evaluation collection, when
    #: ``solve(..., evaluate=True)`` asked for one; ``None`` otherwise.
    evaluation: float | None
    diagnostics: object

    @property
    def seed_sets(self) -> tuple[frozenset[int], ...]:
        """Per-piece seed sets of the selected plan."""
        return self.plan.seed_sets


class Session:
    """One OIPA pipeline: problem, samples, solvers, evaluation.

    Parameters
    ----------
    graph:
        The social :class:`~repro.graph.digraph.TopicGraph` (or a
        :class:`~repro.datasets.registry.DatasetBundle`, whose graph is
        used and whose metadata is kept on :attr:`bundle`).
    campaign:
        The multifaceted :class:`~repro.topics.distributions.Campaign`.
    adoption:
        Logistic adoption parameters; defaults to the paper's
        ``beta/alpha = 0.5``.
    k:
        Promoter budget.
    pool / pool_fraction:
        Either an explicit promoter pool, or the fraction of ``V``
        drawn uniformly (the experiments' 10 %) with ``seed``.
    seed:
        The session's default entropy: used for the pool draw and, when
        a per-call seed is not given, for sampling — matching the
        legacy idiom of reusing one seed across the hand-wired calls.
        Falls back to ``runtime.seed``.
    runtime:
        The session-wide :class:`~repro.runtime.Runtime` execution
        policy (backend, models, workers, store, ...).
    """

    def __init__(
        self,
        graph,
        campaign: Campaign,
        adoption: AdoptionModel | None = None,
        *,
        k: int = 10,
        pool=None,
        pool_fraction: float = 0.1,
        seed=None,
        runtime: Runtime | None = None,
    ) -> None:
        self.bundle: DatasetBundle | None = None
        if isinstance(graph, DatasetBundle):
            self.bundle = graph
            graph = graph.graph
        if not isinstance(graph, TopicGraph):
            raise ConfigError(
                "Session needs a TopicGraph or DatasetBundle, got "
                f"{type(graph).__name__}"
            )
        self.graph = graph
        self.campaign = campaign
        self.adoption = (
            adoption if adoption is not None else AdoptionModel.from_ratio(0.5)
        )
        self.runtime = as_runtime(runtime)
        self.seed = seed if seed is not None else self.runtime.seed
        if pool is not None:
            self.problem = OIPAProblem(
                graph, campaign, self.adoption, k, pool
            )
        else:
            self.problem = OIPAProblem.with_random_pool(
                graph,
                campaign,
                self.adoption,
                k,
                pool_fraction=pool_fraction,
                seed=self.seed,
            )
        self._piece_graphs: list[PieceGraph] | None = None
        self._flat_graph: PieceGraph | None = None
        self._mrr: MRRCollection | None = None
        self._mrr_eval: MRRCollection | None = None
        self._eval_seed = None  # the draw the eval collection used
        self._trace = PipelineTrace()
        self._mrr_key: ArtifactKey | None = None  # sample-stage artifact
        #: Incremental-lineage state (set by :meth:`sample_incremental`).
        self._inc = None
        #: The last celf-mrr run's WarmGains record (warm re-solves).
        self._celf_gains = None
        #: The last solve's normalized method (update's default).
        self._last_solve: str | None = None

    @classmethod
    def from_dataset(
        cls,
        name: str,
        *,
        pieces: int = 3,
        scale: float | None = None,
        dataset_seed: int | None = None,
        adoption: AdoptionModel | None = None,
        k: int = 10,
        pool=None,
        pool_fraction: float = 0.1,
        seed=None,
        runtime: Runtime | None = None,
    ) -> "Session":
        """Build a session from a named dataset and a sampled campaign.

        Loads the dataset, draws a ``pieces``-piece unit campaign with
        ``seed``, and wires the problem — the whole legacy quickstart
        preamble in one call.  ``dataset_seed`` overrides the dataset
        builder's deterministic default.
        """
        bundle = load_dataset(name, scale=scale, seed=dataset_seed)
        if seed is None and runtime is not None:
            seed = runtime.seed
        campaign = Campaign.sample_unit(
            pieces, bundle.graph.num_topics, seed=seed
        )
        return cls(
            bundle,
            campaign,
            adoption,
            k=k,
            pool=pool,
            pool_fraction=pool_fraction,
            seed=seed,
            runtime=runtime,
        )

    # ------------------------------------------------------------------
    # shared state
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        return self.problem.k

    @property
    def num_pieces(self) -> int:
        return self.campaign.num_pieces

    @property
    def piece_graphs(self) -> list[PieceGraph]:
        """Per-piece projections, LT pieces weight-normalised.

        Projected once and shared by sampling, solving, and the forward
        simulators.  Pieces whose resolved diffusion model is ``"lt"``
        are normalised to satisfy the live-edge feasibility condition;
        IC pieces keep their raw projections (so the pure-IC default is
        bit-identical to :meth:`MRRCollection.generate`'s internal
        projection).
        """
        if self._piece_graphs is None:
            models = resolve_models(
                resolve_runtime(self.runtime).model, self.num_pieces
            )
            self._piece_graphs = [
                normalize_lt_weights(pg) if model == "lt" else pg
                for pg, model in zip(
                    project_campaign(self.graph, self.campaign), models
                )
            ]
        return self._piece_graphs

    @property
    def flat_graph(self) -> PieceGraph:
        """The topic-blind flattened influence graph (IM baselines)."""
        if self._flat_graph is None:
            probs = self.graph.mean_edge_probabilities(
                self.campaign.vectors()
            )
            self._flat_graph = PieceGraph.from_edge_probabilities(
                self.graph, probs
            )
        return self._flat_graph

    @property
    def mrr(self) -> MRRCollection:
        """The shared optimisation collection (:meth:`sample` first)."""
        if self._mrr is None:
            raise SolverError(
                "no MRR collection yet — call session.sample(theta) or "
                "pass theta to session.solve()"
            )
        return self._mrr

    @property
    def mrr_eval(self) -> MRRCollection | None:
        """The independent evaluation collection, if generated."""
        return self._mrr_eval

    @property
    def stage_trace(self) -> PipelineTrace:
        """The pipeline-stage execution trace of this session.

        Every stage execution appends a
        :class:`~repro.pipeline.StageEvent` recording whether the stage
        ran or was served from the artifact cache;
        :meth:`~repro.pipeline.PipelineTrace.sampled` is the "did a
        warm run really skip sampling" check.  :meth:`run` clears the
        trace first, so after a ``run`` the trace covers exactly that
        invocation.
        """
        return self._trace

    def _role_runtime(self, role: str, theta: int, seed):
        """The session runtime with a per-collection shard subdir.

        The key includes the role *and* the collection's (theta, seed)
        so re-sampling at a new size (``solve(theta=...)`` again) never
        collides with an earlier collection's shards — while repeating
        the exact same integer-seeded call reloads the finished
        directory.  A non-reproducible draw (``None`` / Generator
        seeds) can never be resumed or reloaded by anyone, so those get
        a globally unique key under the configured root instead of a
        collision — across generations *and* across process runs.
        """
        rt = resolve_runtime(
            self.runtime, seed=seed if seed is not None else self.seed
        )
        parts = [role, f"theta{theta}"]
        if isinstance(rt.seed, int):
            parts.append(f"seed{rt.seed}")
        else:
            parts.append(f"run{uuid.uuid4().hex[:12]}")
        return rt.with_shard_subdir("-".join(parts))

    def _generate(self, rt, theta: int, detail: str):
        """Generate one collection under ``rt`` and trace its stages.

        The shared body of :meth:`sample`, :meth:`sample_evaluation`
        and :meth:`sample_incremental`; returns
        ``MRRCollection.generate_traced``'s ``(collection, events,
        key)``.
        """
        start = time.perf_counter()
        result = MRRCollection.generate_traced(
            self.graph,
            self.campaign,
            theta,
            piece_graphs=self.piece_graphs,
            runtime=rt,
        )
        self._record_events(result[1], detail, time.perf_counter() - start)
        return result

    def _record_events(self, events, detail: str, seconds: float) -> None:
        """Record sample/index ``events`` on the pipeline trace.

        The generation is timed as a whole; its wall-clock is
        attributed to the first stage it reports (sample).
        """
        for i, event in enumerate(events):
            stage, action = event
            self._trace.record(
                stage,
                action,
                detail,
                seconds=seconds if i == 0 else 0.0,
                extra=getattr(event, "extra", None),
            )

    def sample(self, theta: int, *, seed=None) -> MRRCollection:
        """Generate (and share) the optimisation MRR collection.

        ``seed`` defaults to the session seed — the same value a legacy
        hand-wired ``MRRCollection.generate(..., seed=...)`` call would
        use, which is what keeps facade and legacy paths bit-identical.
        """
        rt = self._role_runtime("opt", theta, seed)
        self._mrr, _events, self._mrr_key = self._generate(rt, theta, "opt")
        return self._mrr

    def sample_evaluation(self, theta: int, *, seed=None) -> MRRCollection:
        """Generate the independent evaluation collection.

        ``seed`` defaults to ``session.seed + 1`` (when the session
        seed is an int) so the two collections are never generated from
        the same stream; pass it explicitly for full control.
        """
        if seed is None and isinstance(self.seed, int):
            seed = self.seed + 1
        rt = self._role_runtime("eval", theta, seed)
        self._mrr_eval, _events, _key = self._generate(rt, theta, "eval")
        self._eval_seed = seed
        return self._mrr_eval

    def sample_incremental(self, theta: int, *, seed=None) -> MRRCollection:
        """:meth:`sample`, plus an incremental lineage for :meth:`update`.

        Draws exactly the collection :meth:`sample` draws for the same
        seed, and pins its stream entropy and (piece, block) geometry
        so the session can absorb graph deltas and theta growth through
        :meth:`update` — kept shards are reused verbatim, appended and
        invalidated ones are regenerated bit-identically to a cold
        generate.
        """
        from repro.incremental.update import sample_incremental

        return sample_incremental(self, theta, seed=seed)

    def update(
        self,
        delta,
        *,
        theta: int | None = None,
        method: str | None = None,
        evaluate: bool = False,
        eval_theta: int | None = None,
        **options,
    ):
        """Absorb a :class:`~repro.incremental.delta.GraphDelta` and re-solve.

        Requires an incremental collection (:meth:`sample_incremental`).
        Regenerates only the delta-touched shards (plus any appended by
        ``theta`` growth), rebuilds the problem on the updated graph,
        and re-solves warm from the previous run's state.  Returns an
        :class:`~repro.incremental.update.UpdateResult` whose ``result``
        is the usual :class:`SessionResult` and whose ``trace`` is the
        :class:`~repro.incremental.update.IncrementalTrace` accounting
        of what was reused.
        """
        from repro.incremental.update import update_session

        return update_session(
            self,
            delta,
            theta=theta,
            method=method,
            evaluate=evaluate,
            eval_theta=eval_theta,
            **options,
        )

    # ------------------------------------------------------------------
    # solving and scoring
    # ------------------------------------------------------------------

    def solve(
        self,
        method: str = "bab-p",
        *,
        theta: int | None = None,
        seed=None,
        evaluate: bool = False,
        eval_theta: int | None = None,
        **options,
    ) -> SessionResult:
        """Run a registered solver on the shared sample collection.

        ``theta`` generates the optimisation collection on first use
        (or regenerates it when passed again); every method then sees
        the *same* samples — the paper's fixed-theta comparison
        protocol.  ``seed`` seeds that sampling draw and is also handed
        to solvers that declare their own ``seed`` option (the
        randomised baselines ``ris``/``im``/``celf``).
        ``evaluate=True`` also scores the plan on the independent
        evaluation collection (``eval_theta`` defaults to 4x the
        optimisation theta).  Extra keyword ``options`` go to the
        solver (e.g. ``epsilon=`` / ``max_nodes=`` for BAB-P,
        ``rounds=`` for CELF).
        """
        key = _normalize_method(method)
        solver = _SOLVERS.get(key)
        if solver is None:
            raise SolverError(
                f"unknown solver method {method!r}; available: "
                f"{', '.join(available_solvers())}"
            )
        if theta is not None or self._mrr is None:
            if theta is None:
                raise SolverError(
                    "no MRR collection yet — pass theta to solve() or "
                    "call session.sample(theta) first"
                )
            self.sample(theta, seed=seed)
        if (
            seed is not None
            and "seed" in inspect.signature(solver).parameters
        ):
            options.setdefault("seed", seed)
        start = time.perf_counter()
        plan, estimate, diagnostics, action = self._solve_stage(
            key, solver, options
        )
        self._trace.record(
            "solve", action, key, seconds=time.perf_counter() - start
        )
        self._last_solve = key
        evaluation = None
        if evaluate:
            evaluation = self.evaluate(plan, theta=eval_theta)
        return SessionResult(
            method=key,
            plan=plan,
            estimate=float(estimate),
            evaluation=evaluation,
            diagnostics=MappingProxyType(dict(diagnostics)),
        )

    def run(
        self,
        method: str = "bab-p",
        *,
        theta: int | None = None,
        seed=None,
        eval_theta: int | None = None,
        **options,
    ) -> SessionResult:
        """One full pipeline pass: plan → sample → index → solve → evaluate.

        Equivalent to ``solve(method, theta=..., evaluate=True)`` but
        framed as the staged pipeline: the :attr:`stage_trace` is reset
        first and afterwards covers exactly this invocation, recording
        for each stage whether it ran or was served from the artifact
        cache — a warm ``run`` against an artifact store performs zero
        sampling (``session.stage_trace.sampled()`` is ``False``) and
        returns results bit-identical to the cold one.
        """
        self._trace.clear()
        self._trace.record("plan", "run", "problem")
        return self.solve(
            method,
            theta=theta,
            seed=seed,
            evaluate=True,
            eval_theta=eval_theta,
            **options,
        )

    def _solve_cache_key(self, method_key: str, options: dict):
        """The solve-stage artifact (store, key), or ``(None, None)``.

        Cacheable only when the whole causal chain is pinned: a
        cache-served-able solver, a sample collection that itself came
        through the artifact layer (its key digest is the upstream
        link), an integer session seed (the randomised baselines
        default to it), and JSON-able options.
        """
        if method_key not in _CACHEABLE_SOLVERS or self._mrr_key is None:
            return None, None
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            return None, None
        rt = resolve_runtime(self.runtime, seed=self.seed)
        art_store = rt.artifact_store()
        if art_store is None:
            return None, None
        try:
            options_token = json.dumps(options, sort_keys=True)
        except (TypeError, ValueError):
            return None, None
        pool_digest = hashlib.sha256(self.problem.pool.tobytes()).hexdigest()
        adoption = self.adoption
        key = ArtifactKey(
            graph=self.graph.fingerprint(),
            campaign=self.campaign.fingerprint(),
            runtime=rt.cache_key(),
            stage="solve",
            extra=(
                f"mrr={self._mrr_key.digest[:16]}",
                f"method={method_key}",
                f"k={self.k}",
                f"pool={pool_digest[:16]}",
                f"adoption={adoption.alpha!r},{adoption.beta!r},"
                f"{adoption.zero_if_unreached}",
                f"options={options_token}",
            ),
        )
        return art_store, key

    def _solve_stage(self, method_key: str, solver, options: dict):
        """Run one solver through the artifact cache (when eligible)."""
        art_store, solve_key = self._solve_cache_key(method_key, options)
        if solve_key is not None:
            hit = art_store.get(solve_key)
            if hit is not None:
                plan = AssignmentPlan(hit.meta["seed_sets"])
                return (
                    plan,
                    float(hit.meta["estimate"]),
                    dict(hit.meta["diagnostics"]),
                    "hit",
                )
        plan, estimate, diagnostics = solver(self, **options)
        if solve_key is not None:
            meta = {
                "seed_sets": plan.seed_lists(),
                "estimate": float(estimate),
                "diagnostics": dict(diagnostics),
            }
            try:
                json.dumps(meta)
            except (TypeError, ValueError):
                pass  # non-JSON diagnostics: run fine, just never cached
            else:
                art_store.put(solve_key, meta)
        return plan, estimate, diagnostics, "run"

    def estimate(self, plan) -> float:
        """AU estimate of ``plan`` on the optimisation collection."""
        return self.mrr.estimate(_plan_of(plan).seed_lists(), self.adoption)

    def evaluate(self, plan, *, theta: int | None = None, seed=None) -> float:
        """AU estimate of ``plan`` on the independent eval collection.

        Generates the evaluation collection on first use — and
        regenerates it whenever ``theta`` or ``seed`` asks for a draw
        *different from the cached one* (a matching collection is
        reused, so a method-comparison loop with ``evaluate=True``
        samples it once); ``theta`` defaults to 4x the optimisation
        theta (the quick profile's ratio).  No optimiser grades its
        own homework.
        """
        cached = self._mrr_eval
        if theta is None:
            theta = cached.theta if cached is not None else 4 * self.mrr.theta
        if (
            cached is None
            or cached.theta != theta
            or (seed is not None and seed != self._eval_seed)
        ):
            self.sample_evaluation(theta, seed=seed)
        start = time.perf_counter()
        score = self._mrr_eval.estimate(
            _plan_of(plan).seed_lists(), self.adoption
        )
        # Scoring a plan on an existing collection is a cheap segmented
        # reduction — always executed, so the trace records a run.
        self._trace.record(
            "evaluate",
            "run",
            f"theta={theta}",
            seconds=time.perf_counter() - start,
        )
        return score

    def simulate(
        self,
        plan,
        *,
        rounds: int = 100,
        seed=None,
        return_std: bool = False,
        runtime: Runtime | None = None,
    ):
        """Forward Monte-Carlo AU of ``plan`` (ground-truth side).

        Runs on the session's (LT-normalised) piece graphs under the
        session runtime; pass ``runtime=`` to override it for this call
        — the facade takes no per-call execution kwargs.
        """
        return simulate_adoption_utility(
            self.piece_graphs,
            _plan_of(plan).seed_lists(),
            self.adoption,
            rounds=rounds,
            seed=seed if seed is not None else self.seed,
            return_std=return_std,
            runtime=runtime if runtime is not None else self.runtime,
        )

    def __repr__(self) -> str:
        sampled = self._mrr.theta if self._mrr is not None else None
        return (
            f"Session(n={self.graph.n}, l={self.num_pieces}, "
            f"k={self.k}, theta={sampled})"
        )


def _plan_of(plan) -> AssignmentPlan:
    """Accept an :class:`AssignmentPlan` or a :class:`SessionResult`."""
    if isinstance(plan, SessionResult):
        return plan.plan
    if isinstance(plan, AssignmentPlan):
        return plan
    raise SolverError(
        f"expected an AssignmentPlan or SessionResult, got "
        f"{type(plan).__name__}"
    )


# --------------------------------------------------------------------------
# Built-in solvers
# --------------------------------------------------------------------------


@register_solver("bab", cacheable=True)
def _solve_bab(session: Session, **options):
    """The paper's BAB: branch-and-bound, greedy bound (Algorithm 2)."""
    result = solve_bab(session.problem, session.mrr, **options)
    return result.plan, result.utility, _bab_diagnostics(result)


@register_solver("bab-p", cacheable=True)
def _solve_bab_progressive(session: Session, **options):
    """The paper's BAB-P: progressive bound (Algorithm 3)."""
    result = solve_bab_progressive(session.problem, session.mrr, **options)
    return result.plan, result.utility, _bab_diagnostics(result)


def _bab_diagnostics(result) -> dict:
    diag = result.diagnostics
    return {
        "upper_bound": result.upper_bound,
        "gap": result.gap,
        "termination": diag.termination,
        "nodes_expanded": diag.nodes_expanded,
        "bounds_computed": diag.bounds_computed,
        "tau_evaluations": diag.tau_evaluations,
        "elapsed_seconds": diag.elapsed_seconds,
    }


@register_solver("brute-force", cacheable=True)
def _solve_brute_force(session: Session, **options):
    """Exhaustive enumeration (small instances; the exactness oracle)."""
    plan, utility = brute_force_oipa(session.problem, session.mrr, **options)
    return plan, utility, {}


@register_solver("local-search", cacheable=True)
def _solve_local_search(session: Session, *, start=None, **options):
    """Greedy fill + first-improvement exchange search.

    ``start`` seeds the search with an existing plan (or
    :class:`SessionResult`); the default starts from the empty plan, so
    the fill phase alone reproduces plain greedy assignment.
    """
    plan = (
        _plan_of(start) if start is not None
        else session.problem.empty_plan()
    )
    result = local_search(session.problem, session.mrr, plan, **options)
    return result.plan, result.utility, {
        "initial_utility": result.initial_utility,
        "fills": result.fills,
        "swaps": result.swaps,
        "rounds": result.rounds,
        "elapsed_seconds": result.elapsed_seconds,
    }


def _flat_runtime(session: Session):
    """The session runtime restricted to the flattened baseline graph.

    The flat baselines are topic-blind *and* model-blind: the session's
    ``model`` policy describes the campaign's pieces, not the flattened
    graph (which is never LT-normalised), so — exactly like the legacy
    ``im_baseline``, which always sampled the flat graph under IC — any
    configured model is dropped and the default applies.
    """
    rt = as_runtime(session.runtime)
    if rt.model is not None:
        rt = rt.replace(model=None)
    return rt


def _ris_solver(session: Session, *, seed=None, **options):
    """RIS max coverage on the flattened graph, best single piece."""
    result = im_baseline(
        session.problem,
        session.mrr,
        seed=seed if seed is not None else session.seed,
        runtime=_flat_runtime(session),
        **options,
    )
    return result.plan, result.utility, {
        "chosen_piece": result.chosen_piece,
        "seeds": result.seeds,
        "elapsed_seconds": result.elapsed_seconds,
        "sample_seconds": result.sample_seconds,
    }


register_solver("ris", _ris_solver, cacheable=True)
register_solver("im", _ris_solver, cacheable=True)


@register_solver("tim", cacheable=True)
def _solve_tim(session: Session, **options):
    """Per-piece topic-aware RIS seeds, best single piece (TIM)."""
    result = tim_baseline(session.problem, session.mrr, **options)
    return result.plan, result.utility, {
        "chosen_piece": result.chosen_piece,
        "seeds": result.seeds,
        "elapsed_seconds": result.elapsed_seconds,
    }


@register_solver("celf", cacheable=True)
def _solve_celf(session: Session, *, rounds: int = 100, seed=None, **options):
    """Simulation-based CELF greedy on the flattened graph.

    The classical Kempe-et-al. pipeline: ``k`` seeds by lazy greedy
    over Monte-Carlo spread on the topic-blind graph, then the one seed
    set is assigned to whichever piece yields the best AU — the
    historically faithful (and slowest) baseline, useful as a
    cross-validation oracle on small instances.
    """
    seeds, spread = celf_greedy_im(
        session.flat_graph,
        session.k,
        pool=session.problem.pool,
        rounds=rounds,
        seed=seed if seed is not None else session.seed,
        runtime=_flat_runtime(session),
        **options,
    )
    plan, utility, piece = _best_single_piece_plan(
        session.problem, session.mrr, [list(seeds)] * session.num_pieces
    )
    return plan, utility, {
        "chosen_piece": piece,
        "seeds": tuple(seeds),
        "flat_spread": spread,
    }


@register_solver("celf-mrr", cacheable=True)
def _solve_celf_mrr(session: Session, *, warm=None, margin: float = 0.0):
    """Exact lazy greedy over (vertex, piece) moves on the MRR estimate.

    The incremental tier's workhorse: a full AU-objective greedy whose
    per-move pruning caps stay valid on the non-submodular objective,
    so a ``warm=`` :class:`~repro.incremental.warm.WarmGains` record
    from a previous run (inflated by the update's staleness ``margin``)
    skips most first-iteration evaluations while selecting the exact
    same plan as a cold run.  The run's own record lands on
    ``session._celf_gains`` for the next warm start.  Cold runs (no
    ``warm``) are artifact-cacheable; warm options are non-JSON and
    naturally bypass the solve cache.
    """
    from repro.incremental.warm import celf_assign

    plan, record, diagnostics = celf_assign(
        session.problem, session.mrr, warm=warm, margin=margin
    )
    session._celf_gains = record
    return plan, session.estimate(plan), diagnostics
