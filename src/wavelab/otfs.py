"""OTFS: one delay-Doppler transform, two modems (Zak-based and ISFFT-based).

Information symbols live on a (delay bins x Doppler bins) grid, mapped to
M*K time samples with delay fastest (n = k + K*m) plus one CP per frame by
the inverse discrete Zak transform, an IDFT over the Doppler axis.  With
rectangular pulses the ISFFT followed by OFDM is that same unitary map
(Raviteja, Hong, Viterbo and Biglieri, IEEE TVT 2019): the Zak modem
applies it directly, the ISFFT modem through the ISFFT and the OFDM layer,
which also takes per-subcarrier weights.  The delay-Doppler effective
matrix is the exact linear map for equalization: the time matrix that
time_matrix builds from a channel between two OTFS transforms, each one
batched FFT pass over blocks of rows or columns.  Because the transform
is unitary, the DD-domain MMSE is solved in the time domain, where C^H C
is banded and, in a folded sample order, block-tridiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Frame, ScalarChannel
from .metrics import count, fft_multiplies
from .ofdm import OfdmConfig, _add_cyclic_prefix, ofdm_demodulate, ofdm_modulate

# Dense effective-matrix construction is capped at this grid size.
MAX_DENSE_GRID = 4096

# The effective-matrix transforms run over blocks of rows (then columns) of
# about this many bytes, so their temporaries stay small.
TRANSFORM_BLOCK_BYTES = 1 << 20

# banded_gram's blocks hold at least this many samples (or all N when fewer),
# so a C with a narrow band is not solved one tiny block at a time.
MIN_GRAM_BLOCK = 64


@dataclass(frozen=True)
class OtfsConfig:
    """M Doppler bins x K delay bins per frame, one CP of cp_len samples."""

    num_doppler_bins: int
    num_delay_bins: int
    cp_len: int
    sample_rate: float

    def __post_init__(self):
        for name in ("num_doppler_bins", "num_delay_bins"):
            v = getattr(self, name)
            if v < 1 or (v & (v - 1)) != 0:
                raise ValueError(f"{name} must be a positive power of two")
        if self.cp_len < 0:
            raise ValueError("cp_len must be >= 0")
        if self.cp_len > self.frame_len:
            raise ValueError(f"cp_len {self.cp_len} exceeds the frame length "
                             f"{self.frame_len} (num_doppler_bins * num_delay_bins)")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")

    @property
    def frame_len(self) -> int:
        """Samples per frame excluding the cyclic prefix."""
        return self.num_doppler_bins * self.num_delay_bins

    @property
    def grid_shape(self) -> tuple:
        """(K, M): delay bins x Doppler bins."""
        return self.num_delay_bins, self.num_doppler_bins


def _check_grid(grid: np.ndarray, cfg: OtfsConfig) -> np.ndarray:
    grid = np.asarray(grid, dtype=np.complex128)
    want = (cfg.num_delay_bins, cfg.num_doppler_bins)
    if grid.shape != want:
        raise ValueError(f"grid shape {grid.shape} does not match {want}")
    return grid


def _frame_body(rx, cfg: OtfsConfig) -> np.ndarray:
    samples = rx.row() if isinstance(rx, Frame) else np.asarray(rx, dtype=np.complex128)
    need = cfg.frame_len + cfg.cp_len
    if len(samples) < need:
        raise ValueError(f"need at least {need} samples, got {len(samples)}")
    return samples[cfg.cp_len:need]


def otfs_modulate_isfft(grid: np.ndarray, cfg: OtfsConfig,
                        weights: np.ndarray = None) -> Frame:
    """DD grid -> TF grid via ISFFT, then OFDM over the TF grid.

    Each of the M time slots of the (K x M) TF grid is one CP-less OFDM
    symbol of K subcarriers (ofdm_modulate, with its optional (R x K)
    per-subcarrier weights, one row per antenna or per beam); the frame
    carries one CP of cfg.cp_len.
    """
    grid = _check_grid(grid, cfg)
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    count(m * fft_multiplies(k) + k * fft_multiplies(m))  # ISFFT
    tf = np.fft.ifft(np.fft.fft(grid, axis=0, norm="ortho"), axis=1, norm="ortho")
    rows = ofdm_modulate(tf.T, OfdmConfig(k, 0, cfg.sample_rate), weights).samples
    return Frame(_add_cyclic_prefix(rows, cfg.cp_len), cfg.sample_rate)


def otfs_demodulate_isfft(rx, cfg: OtfsConfig) -> np.ndarray:
    """OFDM demodulation of the M CP-less time slots, then SFFT back to the DD grid."""
    body = _frame_body(rx, cfg)
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    tf = ofdm_demodulate(body.reshape(m, k), OfdmConfig(k, 0, cfg.sample_rate)).T
    count(m * fft_multiplies(k) + k * fft_multiplies(m))  # SFFT
    return np.fft.ifft(np.fft.fft(tf, axis=1, norm="ortho"), axis=0, norm="ortho")


def otfs_modulate_zak(grid: np.ndarray, cfg: OtfsConfig) -> Frame:
    """Inverse discrete Zak transform: s[k + K*m] = IDFT over the Doppler axis."""
    grid = _check_grid(grid, cfg)
    count(cfg.num_delay_bins * fft_multiplies(cfg.num_doppler_bins))
    time = _add_cyclic_prefix(otfs_samples(grid), cfg.cp_len)
    return Frame(samples=time, sample_rate=cfg.sample_rate)


def otfs_demodulate_zak(rx, cfg: OtfsConfig) -> np.ndarray:
    """Discrete Zak transform, inverse of otfs_modulate_zak."""
    body = _frame_body(rx, cfg)
    count(cfg.num_delay_bins * fft_multiplies(cfg.num_doppler_bins))
    return otfs_grids(body, cfg.grid_shape)


VARIANTS = ("zak", "isfft")


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown OTFS variant {variant!r}, expected one of "
                         f"{', '.join(VARIANTS)}")


def otfs_samples(grids: np.ndarray) -> np.ndarray:
    """CP-free transmit samples of (..., K, M) DD grids: (..., K*M), delay fastest.

    The OTFS transform: an IDFT over the Doppler axis, one batched
    transform for a stack of grids.
    """
    z = np.fft.ifft(grids, axis=-1, norm="ortho")
    return np.swapaxes(z, -1, -2).reshape(*z.shape[:-2], -1)


def otfs_grids(samples: np.ndarray, shape: tuple) -> np.ndarray:
    """(..., K, M) DD grids of (..., K*M) CP-free samples, inverse of otfs_samples.

    shape is the grid's (K, M).  A DFT over the Doppler axis, one batched
    transform for a stack.
    """
    k, m = shape
    z = np.swapaxes(samples.reshape(*samples.shape[:-1], m, k), -1, -2)
    return np.fft.fft(z, axis=-1, norm="ortho")


def otfs_modem(variant: str):
    """(modulate, demodulate) functions of the "zak" or "isfft" variant."""
    _check_variant(variant)
    # Looked up on each call from the module attributes, so a wrapper
    # installed on them (as the benchmark's tracer does) sees every call.
    if variant == "zak":
        return otfs_modulate_zak, otfs_demodulate_zak
    return otfs_modulate_isfft, otfs_demodulate_isfft


def time_matrix(channel, cfg: OtfsConfig) -> np.ndarray:
    """(N x N) map C from the CP-free frame body to the received body.

    The body rows of the channel's matrix over the N + cp transmitted
    samples, with each CP column added to the column of the body sample it
    repeats (the last cp).  A ScalarChannel builds its matrix from its
    taps.  Any other callable is probed with combs of unit impulses: with a
    support (lo, hi), an impulse at j reaches rows j + lo .. j + hi, so
    impulses step = hi - lo + 1 apart do not overlap and one pass gives
    every step-th column, min(step, N + cp) passes in all.  Only those rows
    are read, so a comb column equals a lone impulse's up to the round-off
    that a channel summing its taps by FFT leaves on the other rows.  A
    callable without a support gets one impulse per pass.
    """
    n, cp = cfg.frame_len, cfg.cp_len
    if isinstance(channel, ScalarChannel):
        rows = channel.matrix(n + cp)[cp:cp + n]
    else:
        lo, hi = getattr(channel, "support", (-(n + cp), n + cp))
        step = hi - lo + 1
        rows = np.zeros((n, n + cp), dtype=np.complex128)
        for r in range(min(step, n + cp)):
            probe = np.zeros(n + cp, dtype=np.complex128)
            probe[r::step] = 1.0
            y = channel(probe)[cp:cp + n]
            for j in range(r, n + cp, step):
                top = max(j + lo - cp, 0)
                bottom = max(top, min(j + hi + 1 - cp, len(y)))
                rows[top:bottom, j] = y[top:bottom]
    c = rows[:, cp:].copy()
    c[:, n - cp:] += rows[:, :cp]
    return c


def dd_effective_matrix(c: np.ndarray, cfg: OtfsConfig) -> np.ndarray:
    """Exact end-to-end DD-domain map H = M^H C M of a scalar channel.

    c is the channel's (N x N) time matrix C (see time_matrix), the map on
    the frame body with the CP folded in; it is left unchanged.  M is the
    unitary OTFS transform (otfs_samples), the same for both modems, so
    column j of H is the demodulated response to a unit impulse at
    flattened DD bin j (row-major over the K x M grid).
    C M is the conjugated demodulation of the rows of conj(C), and
    M^H (C M) the demodulation of its columns: two batched transforms over
    blocks.
    """
    size = cfg.frame_len
    if size > MAX_DENSE_GRID:
        raise ValueError(f"grid size {size} exceeds dense limit {MAX_DENSE_GRID}")
    if np.shape(c) != (size, size):
        raise ValueError(f"time matrix shape {np.shape(c)} does not match the "
                         f"frame length {size}")
    h = np.array(c, dtype=np.complex128)
    block = max(1, TRANSFORM_BLOCK_BYTES // (16 * size))
    for i in range(0, size, block):
        rows = otfs_grids(h[i:i + block].conj(), cfg.grid_shape)
        h[i:i + block] = rows.reshape(-1, size).conj()
    for j in range(0, size, block):
        columns = otfs_grids(h[:, j:j + block].T, cfg.grid_shape)
        h[:, j:j + block] = columns.reshape(-1, size).T
    return h


@dataclass(frozen=True)
class BandedGram:
    """C^H C of a time matrix C, block-tridiagonal in the folded sample order.

    order is the folded order 0, N-1, 1, N-2, ... of the N body samples.
    diagonal[i] and upper[i] are the blocks (i, i) and (i, i + 1) of C^H C
    with its rows and columns taken in that order; the blocks below the
    diagonal are the conjugate transposes of upper.
    """

    order: np.ndarray
    diagonal: tuple
    upper: tuple


def banded_gram(c: np.ndarray) -> BandedGram:
    """The blocks of C^H C for mmse_equalize_dd, built without C^H C itself.

    C is cyclic-banded: its nonzeros lie on cyclic diagonals r - j (mod N)
    whose signed offsets span some width w, so those of C^H C, their
    differences, lie within w of the main diagonal.  Two samples at cyclic
    distance d are at most 2d apart in the folded order, so there C^H C is
    a plain band of half-width 2w, and blocks of that many samples make it
    block-tridiagonal.  Blocks are never smaller than MIN_GRAM_BLOCK
    samples, or N when N is smaller; when the block size reaches N there is
    one block.  Each block product runs over the rows of C that its columns
    reach.
    """
    n = len(c)
    live = c != 0
    rows, cols = np.nonzero(live)
    signed = ((rows - cols) % n + n // 2) % n - n // 2
    size = (max(min(MIN_GRAM_BLOCK, n), 2 * int(signed.max() - signed.min()))
            if len(signed) else n)
    order = np.empty(n, dtype=int)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    blocks = [order[i:i + size] for i in range(0, n, size)]
    diagonal, upper = [], []
    for i, here in enumerate(blocks):
        reached = np.flatnonzero(live[:, here].any(axis=1))
        block = c[np.ix_(reached, here)]
        block_h = block.conj().T
        diagonal.append(block_h @ block)
        if i + 1 < len(blocks):
            upper.append(block_h @ c[np.ix_(reached, blocks[i + 1])])
    return BandedGram(order, tuple(diagonal), tuple(upper))


def _block_thomas(gram: BandedGram, noise_var: float) -> tuple:
    """Schur complements S_i of gram + noise_var I and the W_i = S_i^-1 B_i
    that carry each block's solution back, B_i the upper blocks.  Every S_i
    is Hermitian positive definite for noise_var > 0, so no pivoting
    across blocks is needed."""
    schur, carry = [], []
    loaded = [a + noise_var * np.eye(len(a)) for a in gram.diagonal]
    s = loaded[0]
    for b, a in zip(gram.upper, loaded[1:]):
        w = np.linalg.solve(s, b)
        schur.append(s)
        carry.append(w)
        s = a - b.conj().T @ w
    schur.append(s)
    return schur, carry


def _block_substitute(gram: BandedGram, schur: list, carry: list,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve (gram + noise_var I) x = rhs for one (N,) right-hand side in
    natural sample order, with _block_thomas's factors of that matrix."""
    v = rhs[gram.order]
    bounds = np.cumsum([0] + [len(s) for s in schur])
    g = []
    for i, s in enumerate(schur):
        z = v[bounds[i]:bounds[i + 1]]
        if i:
            z = z - gram.upper[i - 1].conj().T @ g[-1]
        g.append(np.linalg.solve(s, z[:, np.newaxis])[:, 0])
    x = [g[-1]]
    for gi, w in zip(g[-2::-1], carry[::-1]):
        x.append(gi - w @ x[-1])
    out = np.empty_like(v)
    out[gram.order] = np.concatenate(x[::-1])
    return out


def mmse_equalize_dd(received: np.ndarray, effective_matrix: np.ndarray,
                     gram: BandedGram, noise_var: float) -> np.ndarray:
    """Linear MMSE estimate (H^H H + noise_var I)^-1 H^H y of each received grid.

    received is an (F, K, M) stack of F grids, and the estimate has its
    shape.  H = M^H C M with M the OTFS transform of both modems, so the
    estimate is M^H (C^H C + noise_var I)^-1 M (H^H y): a time-domain solve
    against gram, the banded_gram(C) of the C that H was built from.  That
    system is factored once per call by block Thomas; each frame's H^H y
    and substitution run on their own, so an estimate is bit-identical
    whether its frame comes alone or in a stack.  With noise_var 0,
    C^H C must be well conditioned (its condition number is H's squared).
    """
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    y = np.asarray(received, dtype=np.complex128)
    h = np.asarray(effective_matrix, dtype=np.complex128)
    size = len(h)
    if y.ndim != 3 or y.shape[1] * y.shape[2] != size or h.shape != (size, size):
        raise ValueError(f"received shape {y.shape} is not a stack of grids of "
                         f"the effective matrix {h.shape}")
    if len(gram.order) != size:
        raise ValueError(f"gram of {len(gram.order)} samples does not match the "
                         f"effective matrix {h.shape}")
    if noise_var == 0 and not np.linalg.cond(h) ** 2 <= 1e12:  # NaN fails it too
        raise np.linalg.LinAlgError(
            "singular effective matrix with noise_var=0; add regularization")
    schur, carry = _block_thomas(gram, noise_var)
    out = np.empty_like(y)
    for f, grid in enumerate(y):
        h_h_y = (grid.reshape(-1).conj() @ h).conj()  # H^H y, with no copy of H^H
        body = otfs_samples(h_h_y.reshape(grid.shape))
        x = _block_substitute(gram, schur, carry, body)
        out[f] = otfs_grids(x, grid.shape)
    return out
