import numpy as np
import pytest

from wavelab.modulation import qpsk_demodulate, qpsk_modulate, random_qpsk


def formula(bits):
    """The Gray map written out: ((1 - 2 b0) + j (1 - 2 b1)) / sqrt(2)."""
    b = np.asarray(bits).reshape(-1, 2)
    return (1.0 / np.sqrt(2.0)) * ((1 - 2 * b[:, 0]) + 1j * (1 - 2 * b[:, 1]))


class TestQpskModulate:
    @pytest.mark.parametrize("pair", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_each_pair_matches_formula(self, pair):
        actual = qpsk_modulate(np.array(pair))
        assert actual.dtype == np.complex128
        assert np.array_equal(actual.view(np.float64), formula(pair).view(np.float64))

    def test_random_bits_match_formula(self):
        bits = np.random.default_rng(3).integers(0, 2, size=2 * 4097)
        actual = qpsk_modulate(bits)
        assert np.array_equal(actual.view(np.float64), formula(bits).view(np.float64))
        assert np.array_equal(qpsk_demodulate(actual), bits)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.uint8])
    def test_non_intp_bits_match_formula(self, dtype):
        bits = np.random.default_rng(4).integers(0, 2, size=64).astype(dtype)
        actual = qpsk_modulate(bits)
        expected = formula(bits.astype(np.int64))
        assert np.array_equal(actual.view(np.float64), expected.view(np.float64))

    def test_empty_bits(self):
        assert qpsk_modulate(np.asarray([])).shape == (0,)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            qpsk_modulate(np.array([0, 1, 1]))


def live_state(rng):
    """A PCG64 generator's state less its spare 32-bit half, which is read
    only while has_uint32 is set."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"], state["has_uint32"] and state["uinteger"]


class TestRandomQpsk:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 511, 65536])
    def test_equals_the_integers_draw(self, n):
        # Each raw word's bits 31 and 63 are the two bits integers(0, 2)
        # takes from its halves: same symbols, same generator state after.
        for seed in range(20):
            raw, bits = np.random.default_rng(seed), np.random.default_rng(seed)
            actual = random_qpsk(raw, n)
            expected = qpsk_modulate(bits.integers(0, 2, size=2 * n))
            assert actual.dtype == np.complex128 and actual.shape == (n,)
            assert np.array_equal(actual.view(np.float64), expected.view(np.float64))
            assert live_state(raw) == live_state(bits)
            assert raw.integers(2 ** 63) == bits.integers(2 ** 63)
            assert np.array_equal(raw.integers(0, 2, size=3), bits.integers(0, 2, size=3))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            random_qpsk(np.random.default_rng(0), -1)
