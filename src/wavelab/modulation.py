"""Gray-mapped QPSK bit/symbol conversions and the hard slicer."""

from __future__ import annotations

import numpy as np

_SCALE = 1.0 / np.sqrt(2.0)

# Constellation point of the bit pair (b0, b1), indexed by 2 * b0 + b1.
_QPSK = _SCALE * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])


def qpsk_modulate(bits: np.ndarray) -> np.ndarray:
    """Map bit pairs (b0, b1) to ((1-2*b0) + j(1-2*b1)) / sqrt(2).

    Bits may be integer, bool or float 0/1 values.
    """
    bits = np.asarray(bits).ravel().astype(np.intp, copy=False)
    if len(bits) % 2:
        raise ValueError("bit stream length must be even")
    return _QPSK[2 * bits[0::2] + bits[1::2]]


def qpsk_demodulate(symbols: np.ndarray) -> np.ndarray:
    """Hard bit decisions, inverse of qpsk_modulate."""
    s = np.asarray(symbols).ravel()
    bits = np.empty((len(s), 2), dtype=np.int8)
    bits[:, 0] = s.real < 0
    bits[:, 1] = s.imag < 0
    return bits.ravel()


def qpsk_slice(symbols: np.ndarray) -> np.ndarray:
    """Nearest QPSK constellation point per symbol."""
    s = np.asarray(symbols)
    return _SCALE * (np.where(s.real >= 0, 1.0, -1.0)
                     + 1j * np.where(s.imag >= 0, 1.0, -1.0))


def random_qpsk(rng, n: int) -> np.ndarray:
    """n uniform QPSK symbols from the given Generator."""
    return qpsk_modulate(rng.integers(0, 2, size=2 * n))
