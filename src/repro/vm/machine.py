"""The register VM: execute a compiled :class:`Program` over an instance.

One pass over the instruction list; each step checks cooperative
deadline/cancel limits, fires the fault points the interpreter would
(``evaluator.step`` per AST node, plus the VM's own ``vm.kernel`` per
kernel execution), and dispatches to a set-at-a-time kernel.  With a
metrics histogram attached, each kernel is timed individually under the
same per-op labels the interpreter uses.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.core.regionset import RegionSet
from repro.core.wordindex import TextWordIndex
from repro.errors import EvaluationError
from repro.faults import registry as _faults
from repro.vm import kernels as K
from repro.vm import program as P
from repro.vm.program import Program

if TYPE_CHECKING:
    from repro.core.instance import Instance

__all__ = ["execute"]


def execute(
    program: Program,
    instance: "Instance",
    limits: Any = None,
    node_hist: Any = None,
) -> RegionSet:
    """Run ``program`` against ``instance`` and return the final register."""
    regs: list[RegionSet | None] = [None] * len(program.instructions)
    for ins in program.instructions:
        if limits is not None:
            limits.check()
        active = _faults._active
        if active is not None:
            if ins.fires:
                active.fire("evaluator.step")
            active.fire("vm.kernel")
        if node_hist is None:
            regs[ins.dest] = _step(ins, regs, instance, program.constants)
        else:
            started = perf_counter()
            regs[ins.dest] = _step(ins, regs, instance, program.constants)
            node_hist.observe(perf_counter() - started, op=ins.label)
    return regs[-1]


def _step(ins, regs, instance, constants) -> RegionSet:
    op = ins.op
    if op == P.OP_INCLUDING:
        return K.including(regs[ins.a], regs[ins.b])
    if op == P.OP_INCLUDED_IN:
        return K.included_in(regs[ins.a], regs[ins.b])
    if op == P.OP_PRECEDING:
        return K.preceding(regs[ins.a], regs[ins.b])
    if op == P.OP_FOLLOWING:
        return K.following(regs[ins.a], regs[ins.b])
    if op == P.OP_UNION:
        return K.union(regs[ins.a], regs[ins.b])
    if op == P.OP_INTERSECT:
        return K.intersection(regs[ins.a], regs[ins.b])
    if op == P.OP_DIFFERENCE:
        return K.difference(regs[ins.a], regs[ins.b])
    if op == P.OP_LOAD_NAME:
        return instance.region_set(ins.arg)
    if op == P.OP_LOAD_EMPTY:
        return RegionSet.empty()
    if op == P.OP_LOAD_CONST:
        return constants[ins.arg]
    if op == P.OP_SELECT:
        return instance.word_index.select(regs[ins.a], ins.arg)
    if op == P.OP_MATCH_POINTS:
        word_index = instance.word_index
        if not isinstance(word_index, TextWordIndex):
            raise EvaluationError(
                "match-point queries need a text-backed word index; "
                "this instance carries an abstract label index"
            )
        return word_index.match_points(ins.arg)
    if op == P.OP_ORDER_BOUND_PRE:
        return K.order_bound_preceding(regs[ins.a], ins.arg)
    if op == P.OP_ORDER_BOUND_FOL:
        return K.order_bound_following(regs[ins.a], ins.arg)
    if op == P.OP_DIRECT_INCLUDING:
        return instance.forest().directly_including(regs[ins.a], regs[ins.b])
    if op == P.OP_DIRECT_INCLUDED:
        return instance.forest().directly_included(regs[ins.a], regs[ins.b])
    if op == P.OP_BOTH_INCLUDED:
        return K.both_included(regs[ins.a], regs[ins.b], regs[ins.c])
    raise EvaluationError(f"unknown VM opcode {op}")  # pragma: no cover
