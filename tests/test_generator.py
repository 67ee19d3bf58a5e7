"""BSRNG facade: buffering, draw types, algorithm registry."""

import numpy as np
import pytest

from repro import BSRNG, available_algorithms
from repro.errors import SpecificationError


class TestRegistry:
    def test_lists_all_algorithms(self):
        algs = available_algorithms()
        for expected in ("mickey2", "grain", "aes128ctr", "mt19937", "xorwow", "philox"):
            assert expected in algs

    def test_unknown_algorithm(self):
        with pytest.raises(SpecificationError):
            BSRNG("rot13")


@pytest.mark.parametrize("alg", ["mickey2", "grain", "aes128ctr", "mt19937", "philox"])
class TestDraws:
    def test_deterministic(self, alg):
        a = BSRNG(alg, seed=9, lanes=64).random_uint64(32)
        b = BSRNG(alg, seed=9, lanes=64).random_uint64(32)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self, alg):
        a = BSRNG(alg, seed=1, lanes=64).random_uint64(32)
        b = BSRNG(alg, seed=2, lanes=64).random_uint64(32)
        assert not np.array_equal(a, b)

    def test_stream_continuity(self, alg):
        """Chunked draws must concatenate to one contiguous stream."""
        whole = BSRNG(alg, seed=5, lanes=64).random_uint64(300)
        r = BSRNG(alg, seed=5, lanes=64)
        parts = np.concatenate([r.random_uint64(7), r.random_uint64(200), r.random_uint64(93)])
        assert np.array_equal(whole, parts)

    def test_uint32(self, alg):
        out = BSRNG(alg, seed=3, lanes=64).random_uint32(11)
        assert out.shape == (11,) and out.dtype == np.uint32

    def test_bytes(self, alg):
        out = BSRNG(alg, seed=3, lanes=64).random_bytes(13)
        assert isinstance(out, bytes) and len(out) == 13

    def test_bits(self, alg):
        out = BSRNG(alg, seed=3, lanes=64).random_bits(77)
        assert out.shape == (77,) and set(np.unique(out)) <= {0, 1}

    def test_floats_in_unit_interval(self, alg):
        f = BSRNG(alg, seed=3, lanes=64).random(1000)
        assert np.all((f >= 0.0) & (f < 1.0))
        assert 0.4 < f.mean() < 0.6

    def test_random_shape(self, alg):
        f = BSRNG(alg, seed=3, lanes=64).random((3, 5))
        assert f.shape == (3, 5)

    def test_integers_range(self, alg):
        v = BSRNG(alg, seed=3, lanes=64).integers(-5, 10, size=500)
        assert v.min() >= -5 and v.max() < 10

    def test_normal_moments(self, alg):
        z = BSRNG(alg, seed=3, lanes=64).normal(4000)
        assert abs(z.mean()) < 0.12 and abs(z.std() - 1.0) < 0.1


class TestEdgeCases:
    def test_zero_draws(self):
        r = BSRNG("mt19937", seed=0, lanes=8)
        assert r.random_uint64(0).size == 0
        assert r.random_bytes(0) == b""

    def test_negative_rejected(self):
        r = BSRNG("mt19937", seed=0, lanes=8)
        with pytest.raises(SpecificationError):
            r.random_uint64(-1)

    @pytest.mark.parametrize(
        "monitored, method, args",
        [
            (False, "random_bits", (-5,)),
            (False, "random_bits", (-9,)),
            (False, "random", (-1,)),
            (False, "random", ((-2, -3),)),
            (False, "integers", (0, 10, -1)),
            (False, "normal", (-1,)),
            (True, "random_bits", (-5,)),
            (True, "random_bits", (-9,)),
            (True, "random", (-1,)),
        ],
    )
    def test_negative_sizes_rejected(self, monitored, method, args):
        # every draw, plain or health-monitored, rejects a negative size
        # the same way instead of returning [] or raising NumPy's error
        from repro.robust.health import HealthMonitoredBSRNG

        r = BSRNG("xorwow", seed=0, lanes=64)
        if monitored:
            r = HealthMonitoredBSRNG(r, startup_test=False)
        with pytest.raises(SpecificationError):
            getattr(r, method)(*args)

    def test_integers_validation(self):
        r = BSRNG("mt19937", seed=0, lanes=8)
        with pytest.raises(SpecificationError):
            r.integers(5, 5)

    def test_gates_per_output_bit(self):
        assert BSRNG("mickey2", seed=0, lanes=64).gates_per_output_bit() > 0
        assert np.isfinite(BSRNG("mickey2", seed=0, lanes=64).gates_per_output_bit())

    def test_bitsliced_cross_dtype_stream_consistency(self):
        """The word stream must not depend on buffering geometry."""
        a = BSRNG("grain", seed=4, lanes=64).random_bytes(64)
        b = BSRNG("grain", seed=4, lanes=64).random_bytes(64)
        assert a == b


class TestReadWithReceipt:
    @pytest.mark.parametrize("alg", ["trivium", "aes128ctr"])
    def test_bytes_equal_read_and_crc_equals_payload_crc(self, alg):
        from repro.robust.supervisor import payload_crc

        refill = BSRNG(alg, seed=6, lanes=64)._source.refill_bytes
        for n in (0, 1, refill - 1, refill + 1, 3 * refill):
            data, receipt = BSRNG(alg, seed=6, lanes=64).read_with_receipt(n)
            assert data == BSRNG(alg, seed=6, lanes=64).read(n)
            assert receipt.crc == payload_crc(data)

    def test_negative_rejected(self):
        with pytest.raises(SpecificationError):
            BSRNG("mt19937", seed=0, lanes=8).read_with_receipt(-1)


class TestSeedExpansion:
    def test_lane_count_changes_stream(self):
        a = BSRNG("mickey2", seed=1, lanes=32).random_uint64(8)
        b = BSRNG("mickey2", seed=1, lanes=64).random_uint64(8)
        assert not np.array_equal(a, b)

    def test_splitmix_reference(self):
        from repro.core.seeding import splitmix64

        # golden value: splitmix64(0) per the reference implementation
        assert int(splitmix64(np.uint64(0))) == 0xE220A8397B1DCDAF


class TestSpawn:
    def test_children_are_independent(self):
        from repro import BSRNG

        parent = BSRNG("xorwow", seed=5, lanes=64)
        kids = parent.spawn(4)
        streams = [k.random_bytes(64) for k in kids] + [parent.random_bytes(64)]
        assert len(set(streams)) == 5  # pairwise distinct

    def test_deterministic_spawning(self):
        from repro import BSRNG

        a = BSRNG("trivium", seed=9, lanes=64).spawn(3)
        b = BSRNG("trivium", seed=9, lanes=64).spawn(3)
        for x, y in zip(a, b):
            assert x.random_bytes(32) == y.random_bytes(32)

    def test_children_inherit_algorithm_and_lanes(self):
        from repro import BSRNG

        kid = BSRNG("grain", seed=1, lanes=128).spawn(1)[0]
        assert kid.algorithm == "grain" and kid.lanes == 128

    def test_spawn_validation(self):
        from repro import BSRNG
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError):
            BSRNG("xorwow", seed=1, lanes=64).spawn(0)

    def test_child_lanes_uncorrelated(self):
        from repro import BSRNG
        from repro.analysis import lane_correlation_matrix, max_abs_offdiag

        kids = BSRNG("xorwow", seed=2, lanes=64).spawn(4)
        lanes = np.stack([k.random_bits(20_000) for k in kids])
        assert max_abs_offdiag(lane_correlation_matrix(lanes)) < 0.05
