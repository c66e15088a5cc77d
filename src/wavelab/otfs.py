"""OTFS modem in ISFFT-based and Zak-based variants.

Information symbols live on a (delay bins x Doppler bins) grid.  Both
modulation chains are unitary and map the grid to M*K time samples with
delay fastest (sample n = k + K*m), plus one cyclic prefix per frame.
The delay-Doppler effective matrix is the exact linear map for
equalization: the channel's time-domain matrix between two unitary OTFS
transforms, each one batched FFT pass over blocks of rows or columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Frame, ScalarChannel
from .metrics import count, fft_multiplies
from .ofdm import _add_cyclic_prefix

# Dense effective-matrix construction is capped at this grid size.
MAX_DENSE_GRID = 4096

# The effective-matrix transforms run over blocks of rows (then columns) of
# about this many bytes, so their temporaries stay small.
TRANSFORM_BLOCK_BYTES = 1 << 20


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


def otfs_modulate_isfft(grid: np.ndarray, cfg: OtfsConfig) -> Frame:
    """DD grid -> TF grid via ISFFT, then per-column IDFTs of size K."""
    grid = _check_grid(grid, cfg)
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    count(m * fft_multiplies(k) + k * fft_multiplies(m))  # ISFFT
    count(m * fft_multiplies(k))                          # Heisenberg step
    time = _add_cyclic_prefix(otfs_samples(grid, "isfft"), cfg.cp_len)
    return Frame(samples=time, sample_rate=cfg.sample_rate)


def otfs_demodulate_isfft(rx, cfg: OtfsConfig) -> np.ndarray:
    """Per-column DFTs of size K, then SFFT back to the DD grid."""
    body = _frame_body(rx, cfg)
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    count(m * fft_multiplies(k))
    count(m * fft_multiplies(k) + k * fft_multiplies(m))
    return otfs_grids(body, cfg, "isfft")


def otfs_modulate_zak(grid: np.ndarray, cfg: OtfsConfig) -> Frame:
    """Inverse discrete Zak transform: s[k + K*m] = IDFT over the Doppler axis."""
    grid = _check_grid(grid, cfg)
    count(cfg.num_delay_bins * fft_multiplies(cfg.num_doppler_bins))
    time = _add_cyclic_prefix(otfs_samples(grid, "zak"), cfg.cp_len)
    return Frame(samples=time, sample_rate=cfg.sample_rate)


def otfs_demodulate_zak(rx, cfg: OtfsConfig) -> np.ndarray:
    """Discrete Zak transform, inverse of otfs_modulate_zak."""
    body = _frame_body(rx, cfg)
    count(cfg.num_delay_bins * fft_multiplies(cfg.num_doppler_bins))
    return otfs_grids(body, cfg, "zak")


VARIANTS = ("zak", "isfft")


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown OTFS variant {variant!r}, expected one of "
                         f"{', '.join(VARIANTS)}")


def otfs_samples(grids: np.ndarray, variant: str) -> np.ndarray:
    """CP-free transmit samples of (..., K, M) DD grids: (..., K*M), delay fastest.

    zak: inverse Zak transform, an IDFT over the Doppler axis.  isfft: the
    ISFFT to the TF grid, then an IDFT of size K per column.  A stack of
    grids is one batched transform per step.
    """
    _check_variant(variant)
    if variant == "zak":
        z = np.fft.ifft(grids, axis=-1, norm="ortho")
    else:
        tf = np.fft.ifft(np.fft.fft(grids, axis=-2, norm="ortho"), axis=-1, norm="ortho")
        z = np.fft.ifft(tf, axis=-2, norm="ortho")
    return np.swapaxes(z, -1, -2).reshape(*z.shape[:-2], -1)


def otfs_grids(samples: np.ndarray, cfg: OtfsConfig, variant: str) -> np.ndarray:
    """(..., K, M) DD grids of (..., K*M) CP-free samples, inverse of otfs_samples.

    zak: the Zak transform, a DFT over the Doppler axis.  isfft: a DFT of
    size K per column, then the SFFT back to the DD grid.  A stack is one
    batched transform per step.
    """
    _check_variant(variant)
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    z = np.swapaxes(samples.reshape(*samples.shape[:-1], m, k), -1, -2)
    if variant == "zak":
        return np.fft.fft(z, axis=-1, norm="ortho")
    tf = np.fft.fft(z, axis=-2, norm="ortho")
    return np.fft.ifft(np.fft.fft(tf, axis=-1, norm="ortho"), axis=-2, norm="ortho")


def otfs_modem(variant: str):
    """(modulate, demodulate) functions of the "zak" or "isfft" variant."""
    _check_variant(variant)
    # Looked up on each call from the module attributes, so a wrapper
    # installed on them (as the benchmark's tracer does) sees every call.
    if variant == "zak":
        return otfs_modulate_zak, otfs_demodulate_zak
    return otfs_modulate_isfft, otfs_demodulate_isfft


def _time_matrix(channel, cfg: OtfsConfig) -> np.ndarray:
    """(N x N) map from the CP-free frame body to the received body.

    The body rows of the channel's matrix over the N + cp transmitted
    samples, with each CP column added to the column of the body sample it
    repeats (the last cp).  A ScalarChannel builds its matrix from its
    taps.  Any other callable is probed with combs of unit impulses: with a
    support (lo, hi), an impulse at j reaches rows j + lo .. j + hi only,
    so impulses step = hi - lo + 1 apart never overlap and one pass gives
    every step-th column, min(step, N + cp) passes in all.  A callable
    without a support gets one impulse per pass.
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


def dd_effective_matrix(channel, cfg: OtfsConfig, variant: str = "zak") -> np.ndarray:
    """Exact end-to-end DD-domain map H = M^H C M of a scalar channel.

    channel is a callable mapping a 1-D time signal to the received signal.
    A ScalarChannel gives its time-domain matrix from its taps; any other
    callable is probed with combs of unit impulses spaced by its support
    (see _time_matrix), or one impulse per pass without one.  C is that
    matrix on the frame body with the CP folded in, and M the unitary OTFS
    modulator, so column j of H is the demodulated response to a unit
    impulse at flattened DD bin j (row-major over the K x M grid).  C M is
    the conjugated demodulation of the rows of conj(C), and M^H (C M) the
    demodulation of its columns: two batched transforms over blocks.
    """
    size = cfg.frame_len
    if size > MAX_DENSE_GRID:
        raise ValueError(f"grid size {size} exceeds dense limit {MAX_DENSE_GRID}")
    _check_variant(variant)
    h = _time_matrix(channel, cfg)
    block = max(1, TRANSFORM_BLOCK_BYTES // (16 * size))
    for i in range(0, size, block):
        rows = otfs_grids(h[i:i + block].conj(), cfg, variant)
        h[i:i + block] = rows.reshape(-1, size).conj()
    for j in range(0, size, block):
        columns = otfs_grids(h[:, j:j + block].T, cfg, variant)
        h[:, j:j + block] = columns.reshape(-1, size).T
    return h


def mmse_gram(effective_matrix: np.ndarray) -> np.ndarray:
    """H^H H, built once per curve; mmse_equalize_dd loads each point's
    noise_var onto its diagonal."""
    h = np.asarray(effective_matrix, dtype=np.complex128)
    return h.conj().T @ h


def mmse_equalize_dd(received: np.ndarray, effective_matrix: np.ndarray,
                     gram: np.ndarray, noise_var: float) -> np.ndarray:
    """Linear MMSE estimate (H^H H + noise_var I)^-1 H^H y of each received grid.

    received is an (F, K, M) stack of F grids, and the estimate has its
    shape.  gram is mmse_gram(H) of the same H, built once per curve.
    noise_var is added to its diagonal in place for one solve with one
    right-hand side per grid, and the diagonal is restored after.  Each
    H^H y stays its own matrix-vector product.  With noise_var 0 the Gram
    must be well conditioned.
    """
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    y = np.asarray(received, dtype=np.complex128)
    h = np.asarray(effective_matrix, dtype=np.complex128)
    size = len(h)
    if y.ndim != 3 or y.shape[1] * y.shape[2] != size or h.shape != (size, size):
        raise ValueError(f"received shape {y.shape} is not a stack of grids of "
                         f"the effective matrix {h.shape}")
    if noise_var == 0 and not np.linalg.cond(gram) <= 1e12:  # NaN fails it too
        raise np.linalg.LinAlgError(
            "singular effective matrix with noise_var=0; add regularization")
    h_h = h.conj().T
    rhs = np.stack([h_h @ grid for grid in y.reshape(-1, size)], axis=1)
    del h_h  # freed before the solve copies the Gram, so peak memory stays put
    diagonal = gram.diagonal().copy()
    gram[np.diag_indices(size)] += noise_var
    try:
        x = np.linalg.solve(gram, rhs)
    finally:
        np.fill_diagonal(gram, diagonal)
    return x.T.reshape(y.shape)
