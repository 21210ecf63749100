"""Evaluation of region-algebra expressions against instances.

Two interchangeable strategies implement Definition 2.3:

* ``"indexed"`` (the default) — the production engine.  Structural
  semi-joins run on sorted region arrays (see
  :mod:`repro.core.regionset`), the direct operators use the instance
  forest, and ``both-included`` uses two suffix-minimum probes per
  region.  This reproduces the set-at-a-time efficiency the paper
  attributes to the PAT engine.
* ``"naive"`` — a literal transcription of the definitions, quadratic or
  cubic per operator.  It is the semantic oracle: the test suite checks
  the two strategies agree on randomly generated instances.

Common sub-expressions are evaluated once per query: results are memoized
on the (hashable, immutable) expression nodes for the duration of one
:meth:`Evaluator.evaluate` call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import TYPE_CHECKING, Literal, Protocol, runtime_checkable

from repro.algebra import ast as A
from repro.algebra.parser import parse
from repro.core.instance import Instance
from repro.core.regionset import RegionSet
from repro.core.wordindex import TextWordIndex
from repro.errors import EvaluationError, QueryCancelled, QueryTimeout
from repro.faults import registry as _faults
from repro.obs import context as _context
from repro.vm.kernels import both_included

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

__all__ = ["Evaluator", "EvalStats", "evaluate", "Strategy", "CancelToken"]

Strategy = Literal["indexed", "naive"]


@runtime_checkable
class CancelToken(Protocol):
    """Anything with ``is_set()`` — e.g. :class:`threading.Event`."""

    def is_set(self) -> bool: ...  # pragma: no cover - protocol


@dataclass
class EvalStats:
    """Per-:meth:`Evaluator.evaluate` accounting (observed mode only).

    ``compiled`` marks that the call executed a :mod:`repro.vm` program
    rather than walking the AST.  The VM mirrors the interpreter's
    counts exactly: ``nodes_evaluated = instructions + cse_hits`` and
    ``memo_hits = cse_hits`` (a compile-time CSE register read is the
    same elided work as a memo-table hit).
    """

    nodes_evaluated: int = 0
    memo_hits: int = 0
    compiled: bool = False


#: Distinguishes "never compiled" from a cached ``None`` (compiler declined).
_PROGRAM_MISS = object()


class _Limits:
    """Per-call deadline/cancellation state, checked once per operator.

    Lives in the evaluator's thread-local slot for the duration of one
    :meth:`Evaluator.evaluate` call, so concurrent queries on a shared
    evaluator (the server's worker threads) never see each other's
    deadlines.
    """

    __slots__ = ("budget", "started", "deadline_at", "cancel")

    def __init__(self, budget: float | None, cancel: CancelToken | None):
        self.budget = budget
        self.cancel = cancel
        self.started = monotonic()
        self.deadline_at = (
            self.started + budget if budget is not None else None
        )

    def check(self) -> None:
        """Raise if the deadline passed or the token was cancelled."""
        if self.cancel is not None and self.cancel.is_set():
            raise QueryCancelled()
        if self.deadline_at is not None:
            now = monotonic()
            if now > self.deadline_at:
                raise QueryTimeout(self.budget, elapsed=now - self.started)


def _both_included_naive(
    source: RegionSet, first: RegionSet, second: RegionSet
) -> RegionSet:
    """Definition 5.2 transcribed literally (the oracle)."""
    out = []
    for r in source:
        if any(
            r.includes(s) and r.includes(t) and s.precedes(t)
            for s in first
            for t in second
        ):
            out.append(r)
    return RegionSet(out)


def _direct_including_naive(
    instance: Instance, r_set: RegionSet, s_set: RegionSet
) -> RegionSet:
    """``R ⊃_d S`` by quantifying over all instance regions (the oracle)."""
    universe = instance.all_regions()
    out = []
    for r in r_set:
        for s in s_set:
            if r.includes(s) and not any(
                r.includes(t) and t.includes(s) for t in universe
            ):
                out.append(r)
                break
    return RegionSet(out)


def _direct_included_naive(
    instance: Instance, r_set: RegionSet, s_set: RegionSet
) -> RegionSet:
    universe = instance.all_regions()
    out = []
    for r in r_set:
        for s in s_set:
            if s.includes(r) and not any(
                s.includes(t) and t.includes(r) for t in universe
            ):
                out.append(r)
                break
    return RegionSet(out)


class Evaluator:
    """Evaluates expressions against instances with a chosen strategy.

    ``memoize`` controls per-query caching of common sub-expressions;
    disabling it exists for the ablation benchmarks.

    ``tracer``/``metrics`` attach the observability layer: with either
    present, every node evaluation is timed into the
    ``eval_node_seconds{op=...}`` histogram, memo hits are counted, and
    (when the tracer is enabled) each node emits a span carrying its
    expression and output cardinality.  With both absent — the default —
    evaluation takes the original uninstrumented path; the only
    per-node overhead is one attribute check (see
    ``benchmarks/bench_e12_obs_overhead.py``).
    """

    #: Capacity of the per-evaluator compiled-program LRU cache.
    PROGRAM_CACHE_CAPACITY = 256

    def __init__(
        self,
        strategy: Strategy = "indexed",
        memoize: bool = True,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        vm: bool = True,
    ):
        if strategy not in ("indexed", "naive"):
            raise EvaluationError(f"unknown strategy {strategy!r}")
        self.strategy: Strategy = strategy
        self.memoize = memoize
        self.tracer = tracer
        self.metrics = metrics
        # The plan VM only implements the indexed operator semantics;
        # the naive strategy is the oracle and always interprets.
        self.vm_enabled = bool(vm) and strategy == "indexed"
        self._observed = tracer is not None or metrics is not None
        self._node_hist = None
        if self._observed:
            # Shadow the class-level _eval with the instrumented twin so
            # the uninstrumented hot path stays byte-for-byte the seed
            # code — no per-node "is observability on?" check at all.
            self._eval = self._eval_observed
        self._vm_compile_counter = None
        self._vm_fallback_counter = None
        self._vm_kernel_counter = None
        self._vm_exec_hist = None
        if metrics is not None:
            from repro.obs.metrics import (
                EVAL_NODE_SECONDS,
                VM_COMPILE_TOTAL,
                VM_EXEC_SECONDS,
                VM_FALLBACK_TOTAL,
                VM_KERNEL_INVOCATIONS_TOTAL,
            )

            self._node_hist = metrics.histogram(EVAL_NODE_SECONDS)
            self._vm_compile_counter = metrics.counter(VM_COMPILE_TOTAL)
            self._vm_fallback_counter = metrics.counter(VM_FALLBACK_TOTAL)
            self._vm_kernel_counter = metrics.counter(VM_KERNEL_INVOCATIONS_TOTAL)
            self._vm_exec_hist = metrics.histogram(VM_EXEC_SECONDS)
        # Compiled-program cache (expr -> Program, or None for plans the
        # compiler declined).  Engines build a fresh evaluator per index
        # generation, so the cache is generation-invalidated for free —
        # the same lifecycle as the Engine's CostModel cache.
        self._programs: "OrderedDict[A.Expr, object]" = OrderedDict()
        self._programs_lock = threading.Lock()
        # Per-thread call state (deadline/cancel limits, last stats), so
        # one evaluator instance is safe to share across server workers.
        self._local = threading.local()

    @property
    def last_stats(self) -> EvalStats | None:
        """Accounting for this thread's most recent ``evaluate`` call;
        ``None`` unless a tracer or metrics registry is attached."""
        return getattr(self._local, "stats", None)

    @last_stats.setter
    def last_stats(self, stats: EvalStats | None) -> None:
        self._local.stats = stats

    def evaluate(
        self,
        expr: A.Expr | str,
        instance: Instance,
        deadline: float | None = None,
        cancel: CancelToken | None = None,
    ) -> RegionSet:
        """The result ``e(I)`` of Definition 2.3.

        Accepts either an expression tree or query text (parsed first).

        ``deadline`` is a wall-clock budget in seconds for this call;
        when it runs out the evaluation aborts with
        :class:`~repro.errors.QueryTimeout`.  ``cancel`` is a
        :class:`threading.Event`-like token polled alongside the
        deadline; once set, evaluation aborts with
        :class:`~repro.errors.QueryCancelled`.  Both are checked
        cooperatively, once per operator evaluation, so an abort lands
        within one node of the trigger.  With neither given there is no
        per-node clock read.
        """
        if isinstance(expr, str):
            expr = parse(expr)
        limited = deadline is not None or cancel is not None
        if limited:
            if deadline is not None and deadline < 0:
                raise EvaluationError("deadline must be non-negative")
            self._local.limits = limits = _Limits(deadline, cancel)
        try:
            if limited:
                limits.check()  # an already-expired budget aborts up front
            program = self._vm_program(expr) if self.vm_enabled else None
            if program is not None:
                if not self._observed:
                    return self._run_program(program, instance)
                self.last_stats = stats = EvalStats(
                    nodes_evaluated=program.size + program.cse_hits,
                    memo_hits=program.cse_hits,
                    compiled=True,
                )
                result = self._run_program(program, instance)
            else:
                memo: dict[A.Expr, RegionSet] = {}
                if not self._observed:
                    return self._eval(expr, instance, memo)
                self.last_stats = stats = EvalStats()
                result = self._eval(expr, instance, memo)
        finally:
            if limited:
                self._local.limits = None
        if self.metrics is not None:
            from repro.obs.metrics import EVAL_NODES_TOTAL, MEMO_HITS_TOTAL

            self.metrics.counter(EVAL_NODES_TOTAL).inc(stats.nodes_evaluated)
            if stats.memo_hits:
                self.metrics.counter(MEMO_HITS_TOTAL).inc(stats.memo_hits)
        return result

    # ------------------------------------------------------------------
    # Compiled execution (repro.vm).
    # ------------------------------------------------------------------

    def compiled_program(self, expr: A.Expr) -> tuple[object, bool]:
        """``(program, was_cached)`` for ``expr``.

        ``program`` is ``None`` when the compiler declined the plan
        (unknown node type) — the miss is cached too, so the fallback
        decision is O(1) on repeat queries.
        """
        _MISS = _PROGRAM_MISS
        with self._programs_lock:
            program = self._programs.get(expr, _MISS)
            if program is not _MISS:
                self._programs.move_to_end(expr)
                if self._vm_compile_counter is not None:
                    self._vm_compile_counter.inc(outcome="hit")
                return program, True
        from repro.vm.compiler import compile_expr

        program = compile_expr(expr)
        if self._vm_compile_counter is not None:
            outcome = "compiled" if program is not None else "uncompilable"
            self._vm_compile_counter.inc(outcome=outcome)
        with self._programs_lock:
            self._programs[expr] = program
            while len(self._programs) > self.PROGRAM_CACHE_CAPACITY:
                self._programs.popitem(last=False)
        return program, False

    def program_cached(self, expr: A.Expr) -> bool:
        """Is a compiled program for ``expr`` already in the cache?"""
        with self._programs_lock:
            return self._programs.get(expr) is not None

    def _vm_program(self, expr: A.Expr):
        """The program to execute for this call, or ``None`` to fall back.

        Fallback rules: per-node detail tracing needs one span per AST
        node (the interpreter's shape), and ``memoize=False`` ablations
        must not silently regain CSE through registers.
        """
        fallback_reason = None
        if not self.memoize:
            fallback_reason = "memoize-off"
        else:
            tracer = self.tracer
            if tracer is not None and tracer.enabled and _context.detail_enabled():
                fallback_reason = "trace-detail"
        if fallback_reason is None:
            program, _cached = self.compiled_program(expr)
            if program is not None:
                return program
            fallback_reason = "uncompilable"
        if self._vm_fallback_counter is not None:
            self._vm_fallback_counter.inc(reason=fallback_reason)
        return None

    def _run_program(self, program, instance: Instance) -> RegionSet:
        from repro.vm.machine import execute

        limits = getattr(self._local, "limits", None)
        metrics = self.metrics
        tracer = self.tracer
        started = perf_counter() if metrics is not None else 0.0
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "vm.execute",
                instructions=program.size,
                cse_hits=program.cse_hits,
            ) as span:
                result = execute(program, instance, limits, self._node_hist)
                span.set("cardinality", len(result))
        else:
            result = execute(program, instance, limits, self._node_hist)
        if metrics is not None:
            self._vm_exec_hist.observe(perf_counter() - started)
            kernel_counter = self._vm_kernel_counter
            for op, count in program.op_counts.items():
                kernel_counter.inc(count, op=op)
        return result

    # ------------------------------------------------------------------

    def _eval(
        self, expr: A.Expr, instance: Instance, memo: dict[A.Expr, RegionSet]
    ) -> RegionSet:
        if not self.memoize:
            return self._dispatch(expr, instance, memo)
        cached = memo.get(expr)
        if cached is not None:
            return cached
        result = self._dispatch(expr, instance, memo)
        memo[expr] = result
        return result

    def _eval_observed(
        self, expr: A.Expr, instance: Instance, memo: dict[A.Expr, RegionSet]
    ) -> RegionSet:
        """The instrumented twin of :meth:`_eval` (tracer/metrics set)."""
        stats = self.last_stats
        if stats is None:  # direct _eval call without evaluate()
            self.last_stats = stats = EvalStats()
        stats.nodes_evaluated += 1
        tracer = self.tracer
        # Per-operator detail is the expensive part of a trace, so it is
        # double-gated: the tracer must be on, and the active request's
        # head-sampling decision (if a request context exists) must say
        # yes.  The coarse request/shard skeleton is recorded regardless.
        tracing = (
            tracer is not None and tracer.enabled and _context.detail_enabled()
        )
        op = type(expr).__name__
        if self.memoize:
            cached = memo.get(expr)
            if cached is not None:
                stats.memo_hits += 1
                if tracing:
                    with tracer.span(
                        f"eval.{op}",
                        expression=expr,
                        cardinality=len(cached),
                        cached=True,
                    ):
                        pass
                return cached
        if tracing:
            with tracer.span(f"eval.{op}", expression=expr, cached=False) as span:
                started = perf_counter()
                result = self._dispatch(expr, instance, memo)
                elapsed = perf_counter() - started
                span.set("cardinality", len(result))
        else:
            started = perf_counter()
            result = self._dispatch(expr, instance, memo)
            elapsed = perf_counter() - started
        if self._node_hist is not None:
            self._node_hist.observe(elapsed, op=op)
        if self.memoize:
            memo[expr] = result
        return result

    def _dispatch(
        self, expr: A.Expr, instance: Instance, memo: dict[A.Expr, RegionSet]
    ) -> RegionSet:
        # Cooperative deadline/cancellation point: one thread-local read
        # per operator when no limits are active (see `evaluate`).
        limits = getattr(self._local, "limits", None)
        if limits is not None:
            limits.check()
        # Fault point (repro.faults): a module-attribute None check when
        # no registry is active, so the disabled cost stays in the noise.
        if _faults._active is not None:
            _faults._active.fire("evaluator.step")
        indexed = self.strategy == "indexed"
        if isinstance(expr, A.NameRef):
            return instance.region_set(expr.name)
        if isinstance(expr, A.Empty):
            return RegionSet.empty()
        if isinstance(expr, A.Select):
            child = self._eval(expr.child, instance, memo)
            pattern = expr.pattern
            return child.select(lambda r: instance.matches(r, pattern))
        if isinstance(expr, A.MatchPoints):
            word_index = instance.word_index
            if not isinstance(word_index, TextWordIndex):
                raise EvaluationError(
                    "match-point queries need a text-backed word index; "
                    "this instance carries an abstract label index"
                )
            return word_index.match_points(expr.pattern)
        if isinstance(expr, A.BothIncluded):
            source = self._eval(expr.source, instance, memo)
            first = self._eval(expr.first, instance, memo)
            second = self._eval(expr.second, instance, memo)
            fn = both_included if indexed else _both_included_naive
            return fn(source, first, second)
        if isinstance(expr, A.BinaryOp):
            left = self._eval(expr.left, instance, memo)
            right = self._eval(expr.right, instance, memo)
            return self._binary(expr, left, right, instance, indexed)
        raise EvaluationError(f"cannot evaluate node {type(expr).__name__}")

    @staticmethod
    def _binary(
        expr: A.BinaryOp,
        left: RegionSet,
        right: RegionSet,
        instance: Instance,
        indexed: bool,
    ) -> RegionSet:
        kind = type(expr)
        if kind is A.Union:
            return left.union(right)
        if kind is A.Intersection:
            return left.intersection(right)
        if kind is A.Difference:
            return left.difference(right)
        if kind is A.Including:
            return left.including(right) if indexed else left.including_naive(right)
        if kind is A.IncludedIn:
            return (
                left.included_in(right) if indexed else left.included_in_naive(right)
            )
        if kind is A.Preceding:
            return left.preceding(right) if indexed else left.preceding_naive(right)
        if kind is A.Following:
            return left.following(right) if indexed else left.following_naive(right)
        if kind is A.DirectlyIncluding:
            if indexed:
                return instance.forest().directly_including(left, right)
            return _direct_including_naive(instance, left, right)
        if kind is A.DirectlyIncluded:
            if indexed:
                return instance.forest().directly_included(left, right)
            return _direct_included_naive(instance, left, right)
        raise EvaluationError(f"cannot evaluate operator {kind.__name__}")


_DEFAULT = Evaluator("indexed")
_ORACLE = Evaluator("naive")


def evaluate(
    expr: A.Expr | str,
    instance: Instance,
    strategy: Strategy = "indexed",
    deadline: float | None = None,
    cancel: CancelToken | None = None,
) -> RegionSet:
    """Module-level convenience wrapper around :class:`Evaluator`."""
    evaluator = _DEFAULT if strategy == "indexed" else _ORACLE
    return evaluator.evaluate(expr, instance, deadline=deadline, cancel=cancel)
