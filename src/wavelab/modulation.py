"""Gray-mapped QPSK bit/symbol conversions, the hard slicer and random draws.

random_qpsk takes its symbols from the generator's raw 64-bit words, one
word per symbol: bit 31 is b0, the sign of the real part, and bit 63 is
b1, the sign of the imaginary part.  Those are the bits
Generator.integers(0, 2) returns for the word's low and high 32-bit
halves, in that order (Lemire's bounded draw keeps the top bit of each
half), so the symbols and the generator's state afterwards equal those of
qpsk_modulate(rng.integers(0, 2, size=2 * n)).
"""

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
    """n uniform QPSK symbols from the given Generator, one raw word each.

    Symbol i is word i's bits 31 and 63 through the Gray map: its real
    part is -1/sqrt(2) if bit 31 (the sign of the low 32-bit half) is set,
    its imaginary part likewise from bit 63 (the high half).  This equals
    qpsk_modulate(rng.integers(0, 2, size=2 * n)) and leaves the generator
    in the same state, for any bit generator with 64-bit raw words (PCG64,
    the default_rng one, PCG64DXSM, Philox, SFC64) that holds no buffered
    32-bit half from an earlier draw.  A negative n raises ValueError.
    """
    # '<u8' then '<i4' names each half by its place in the word, not in memory.
    halves = rng.bit_generator.random_raw(n).astype("<u8", copy=False).view("<i4")
    symbols = np.empty(n, dtype=np.complex128)
    np.copysign(_SCALE, halves, out=symbols.view(np.float64))
    return symbols
