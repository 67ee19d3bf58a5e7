"""Codegen tests: circuit IR, ANF synthesis and the source emitters
(the paper's §4.4 automation methodology)."""

import itertools

import numpy as np
import pytest

from repro.codegen import (
    Circuit,
    CircuitBuilder,
    anf_from_truth_table,
    circuit_from_truth_tables,
    emit_cuda,
    emit_numpy,
)
from repro.codegen.anf import sbox_truth_tables
from repro.errors import SpecificationError


def eval_scalar(circuit, **bits):
    return circuit.evaluate_bits(bits)


class TestCircuitBuilder:
    def test_constant_folding_xor(self):
        b = CircuitBuilder()
        x = b.input("x")
        assert b.xor(x, b.zero) is x
        assert b.xor(x, x) is b.zero
        assert b.xor(b.one, b.one) is b.zero

    def test_constant_folding_and_or(self):
        b = CircuitBuilder()
        x = b.input("x")
        assert b.and_(x, b.one) is x
        assert b.and_(x, b.zero) is b.zero
        assert b.or_(x, b.zero) is x
        assert b.or_(x, b.one) is b.one
        assert b.and_(x, x) is x

    def test_double_negation_cancels(self):
        b = CircuitBuilder()
        x = b.input("x")
        assert b.not_(b.not_(x)) is x

    def test_cse_commutative(self):
        b = CircuitBuilder()
        x, y = b.inputs(["x", "y"])
        assert b.xor(x, y) is b.xor(y, x)
        assert b.and_(x, y) is b.and_(y, x)

    def test_mux_semantics(self):
        b = CircuitBuilder()
        s, x, y = b.inputs(["s", "x", "y"])
        b.output("z", b.mux(s, x, y))
        c = b.build()
        for sv, xv, yv in itertools.product((0, 1), repeat=3):
            got = eval_scalar(c, s=sv, x=xv, y=yv)["z"]
            assert got == (xv if sv else yv)

    def test_duplicate_output_rejected(self):
        b = CircuitBuilder()
        x = b.input("x")
        b.output("z", x)
        with pytest.raises(SpecificationError):
            b.output("z", x)

    def test_no_outputs_rejected(self):
        with pytest.raises(SpecificationError):
            CircuitBuilder().build()

    def test_xor_many_parity(self):
        b = CircuitBuilder()
        xs = b.inputs([f"x{i}" for i in range(5)])
        b.output("p", b.xor_many(xs))
        c = b.build()
        for vals in itertools.product((0, 1), repeat=5):
            bits = {f"x{i}": v for i, v in enumerate(vals)}
            assert eval_scalar(c, **bits)["p"] == sum(vals) % 2


class TestCircuit:
    def test_dead_code_elimination(self):
        b = CircuitBuilder()
        x, y = b.inputs(["x", "y"])
        _dead = b.and_(x, y)  # never used by an output
        b.output("z", b.xor(x, y))
        c = b.build()
        assert c.gate_counts()["and"] == 0
        assert c.gate_counts()["xor"] == 1

    def test_depth(self):
        b = CircuitBuilder()
        x, y, z = b.inputs(["x", "y", "z"])
        b.output("o", b.and_(b.xor(x, y), z))
        assert b.build().depth() == 2

    def test_vectorized_evaluation(self):
        b = CircuitBuilder()
        x, y = b.inputs(["x", "y"])
        b.output("x_and_y", b.and_(x, y))
        b.output("x_or_ny", b.or_(x, b.not_(y)))
        c = b.build()
        rng = np.random.default_rng(0)
        xa = rng.integers(0, 1 << 32, 16, dtype=np.uint64)
        ya = rng.integers(0, 1 << 32, 16, dtype=np.uint64)
        out = c.evaluate({"x": xa, "y": ya})
        assert np.array_equal(out["x_and_y"], xa & ya)
        assert np.array_equal(out["x_or_ny"], xa | ~ya)

    def test_missing_input_rejected(self):
        b = CircuitBuilder()
        x, y = b.inputs(["x", "y"])
        b.output("z", b.xor(x, y))
        with pytest.raises(SpecificationError):
            b.build().evaluate({"x": np.zeros(1, np.uint64)})

    def test_compile_matches_interpreted(self):
        b = CircuitBuilder()
        xs = b.inputs(["a", "b", "c"])
        b.output("maj", b.or_(b.and_(xs[0], xs[1]), b.and_(xs[2], b.xor(xs[0], xs[1]))))
        c = b.build()
        fn = c.compile()
        rng = np.random.default_rng(1)
        ins = {n: rng.integers(0, 1 << 63, 8, dtype=np.uint64) for n in "abc"}
        assert np.array_equal(fn(**ins)["maj"], c.evaluate(ins)["maj"])


class TestANF:
    def test_xor_function(self):
        # f(x0, x1) = x0 ^ x1: ANF has exactly monomials {x0}, {x1}.
        table = [0, 1, 1, 0]
        anf = anf_from_truth_table(table)
        assert list(anf) == [0, 1, 1, 0]

    def test_and_function(self):
        # f = x0 & x1: single monomial x0x1 (mask 0b11).
        assert list(anf_from_truth_table([0, 0, 0, 1])) == [0, 0, 0, 1]

    def test_constant_one(self):
        assert list(anf_from_truth_table([1, 1, 1, 1])) == [1, 0, 0, 0]

    def test_moebius_is_involution(self):
        rng = np.random.default_rng(2)
        table = rng.integers(0, 2, 64, dtype=np.uint8)
        assert np.array_equal(anf_from_truth_table(anf_from_truth_table(table)), table)

    def test_rejects_bad_length(self):
        with pytest.raises(SpecificationError):
            anf_from_truth_table([0, 1, 1])

    def test_rejects_non_binary(self):
        with pytest.raises(SpecificationError):
            anf_from_truth_table([0, 2, 0, 0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_synthesis_reproduces_random_functions(self, n):
        rng = np.random.default_rng(n)
        tables = [rng.integers(0, 2, 1 << n, dtype=np.uint8) for _ in range(3)]
        c = circuit_from_truth_tables(tables)
        for p in range(1 << n):
            bits = {f"x{i}": (p >> i) & 1 for i in range(n)}
            out = c.evaluate_bits(bits)
            for j, t in enumerate(tables):
                assert out[f"y{j}"] == int(t[p]), (n, p, j)

    def test_monomial_sharing_across_outputs(self):
        # Two outputs sharing monomial x0x1x2: the AND chain is built once.
        t_shared = np.zeros(8, np.uint8)
        t_shared[7] = 1  # x0x1x2
        c2 = circuit_from_truth_tables([t_shared, t_shared ^ 1])
        # x0x1x2 needs 2 ANDs; output 2 adds a NOT — no duplicate ANDs.
        assert c2.gate_counts()["and"] == 2

    def test_name_validation(self):
        with pytest.raises(SpecificationError):
            circuit_from_truth_tables([[0, 1]], input_names=["a", "b"])

    def test_sbox_truth_tables_roundtrip(self):
        from repro.ciphers.aes import _build_sbox

        sbox, _ = _build_sbox()
        tables = sbox_truth_tables(sbox)
        assert len(tables) == 8
        recon = sum((t.astype(int) << i) for i, t in enumerate(tables))
        assert np.array_equal(recon, sbox)

    def test_aes_sbox_circuit_correct(self):
        from repro.ciphers.aes import _build_sbox

        sbox, _ = _build_sbox()
        c = circuit_from_truth_tables(sbox_truth_tables(sbox))
        # vectorized check over all 256 inputs at once
        inputs = {f"x{i}": ((np.arange(256) >> i) & 1).astype(np.uint64) * np.uint64(0xFFFFFFFFFFFFFFFF) for i in range(8)}
        out = c.evaluate(inputs)
        got = sum(((out[f"y{j}"] & 1).astype(int) << j) for j in range(8))
        assert np.array_equal(got, sbox)


class TestEmitters:
    @pytest.fixture()
    def sample_circuit(self):
        b = CircuitBuilder()
        x, y, z = b.inputs(["x", "y", "z"])
        b.output("s", b.xor(b.xor(x, y), z))
        b.output("c", b.or_(b.and_(x, y), b.and_(z, b.xor(x, y))))
        return b.build()

    def test_numpy_emitter_executes(self, sample_circuit):
        src = emit_numpy(sample_circuit, func_name="adder")
        ns = {"np": np}
        exec(src, ns)
        rng = np.random.default_rng(3)
        ins = {n: rng.integers(0, 1 << 32, 4, dtype=np.uint64) for n in "xyz"}
        got = ns["adder"](**ins)
        ref = sample_circuit.evaluate(ins)
        assert np.array_equal(got["s"], ref["s"])
        assert np.array_equal(got["c"], ref["c"])

    def test_numpy_emitter_is_flat(self, sample_circuit):
        src = emit_numpy(sample_circuit)
        assert "for " not in src and "while " not in src

    def test_cuda_emitter_structure(self, sample_circuit):
        src = emit_cuda(sample_circuit, func_name="full_adder")
        assert "__device__" in src
        assert "void full_adder(" in src
        assert "const uint32_t x" in src
        assert "uint32_t *out_s" in src and "uint32_t *out_c" in src
        assert src.count("{") == src.count("}")
        assert "*out_s = " in src

    def test_cuda_emitter_word_type(self, sample_circuit):
        src = emit_cuda(sample_circuit, word_type="uint64_t")
        assert "uint32_t" not in src

    def test_cuda_constants_only_when_used(self):
        b = CircuitBuilder()
        x = b.input("x")
        b.output("y", b.not_(x))
        src = emit_cuda(b.build())
        assert "_ones" not in src and "_zeros" not in src


class TestMickeyCircuit:
    def test_generated_circuit_matches_reference(self):
        """The generated one-clock netlist must match the bit-serial
        reference cipher for random states (paper §4.4: the generated
        kernel replaces hand-written code)."""
        from repro.ciphers.mickey import Mickey2
        from repro.ciphers.mickey_circuit import mickey_clock_circuit

        circuit = mickey_clock_circuit(mixing=False)
        rng = np.random.default_rng(4)
        key = rng.integers(0, 2, 80, dtype=np.uint8)
        ref = Mickey2(key, iv=rng.integers(0, 2, 40, dtype=np.uint8))
        r0, s0 = ref.state()
        out_ref = ref.next_bit()
        r1, s1 = ref.state()

        inputs = {f"r{i}": np.uint64(0xFFFFFFFFFFFFFFFF) * np.uint64(r0[i]) for i in range(100)}
        inputs.update({f"s{i}": np.uint64(0xFFFFFFFFFFFFFFFF) * np.uint64(s0[i]) for i in range(100)})
        inputs["input_bit"] = np.uint64(0)
        out = circuit.evaluate({k: np.array([v], dtype=np.uint64) for k, v in inputs.items()})
        got_bit = int(out["z"][0] & np.uint64(1))
        assert got_bit == out_ref
        for i in range(100):
            assert int(out[f"nr{i}"][0] & np.uint64(1)) == r1[i], f"R{i}"
            assert int(out[f"ns{i}"][0] & np.uint64(1)) == s1[i], f"S{i}"

    def test_cuda_source_wellformed(self):
        from repro.ciphers.mickey_circuit import mickey_cuda_source

        src = mickey_cuda_source()
        assert "__device__" in src
        assert src.count("{") == src.count("}")
        assert "*out_z = " in src
        assert "*out_nr99 = " in src and "*out_ns99 = " in src

    def test_gate_count_stability(self):
        """The measured kernel cost feeding the GPU model must stay in the
        regime the analysis assumes (hundreds of gates per clock)."""
        from repro.ciphers.mickey_circuit import mickey_clock_circuit

        counts = mickey_clock_circuit(mixing=False).gate_counts()
        assert 300 <= counts["total"] <= 1500
