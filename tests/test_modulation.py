import numpy as np
import pytest

from wavelab.modulation import qpsk_demodulate, qpsk_modulate


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
