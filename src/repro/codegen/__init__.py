"""Bit-level circuit IR, synthesis and code emission (paper §4.4).

The paper generates its unrolled CUDA bit-level kernels from "a
higher-level transcript (i.e., written in Python language)" because
hand-writing thousands of gate lines "increase[s] the error rate".  This
package is that transcript machinery:

``circuit``
    A tiny gate-level IR (:class:`Circuit`, :class:`CircuitBuilder`) with
    hash-consing, NumPy evaluation and gate accounting.
``anf``
    Truth-table → algebraic-normal-form synthesis (Möbius transform) and
    shared-monomial circuit construction — how the bitsliced AES S-box is
    produced from the byte table.
``emit``
    Source emitters: vectorized NumPy kernels and CUDA-C translation
    units, both generated from the same IR.
"""

from repro.codegen.anf import anf_from_truth_table, circuit_from_truth_tables
from repro.codegen.circuit import Circuit, CircuitBuilder, Node
from repro.codegen.emit import emit_cuda, emit_numpy

__all__ = [
    "Circuit",
    "CircuitBuilder",
    "Node",
    "anf_from_truth_table",
    "circuit_from_truth_tables",
    "emit_numpy",
    "emit_cuda",
]
