"""OTFS modem in ISFFT-based and Zak-based variants.

Information symbols live on a (delay bins x Doppler bins) grid.  Both
modulation chains are unitary and map the grid to M*K time samples with
delay fastest (sample n = k + K*m), plus one cyclic prefix per frame.
The delay-Doppler effective matrix is built brute force, column by column,
to serve as an exact linear oracle for equalization.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .channel import Frame
from .metrics import fft_multiplies

# Dense effective-matrix construction is capped at this grid size.
MAX_DENSE_GRID = 4096

GRID_MAGIC = b"DDG1"


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


def _prepend_cp(time: np.ndarray, cfg: OtfsConfig) -> Frame:
    if cfg.cp_len:
        time = np.concatenate([time[-cfg.cp_len:], time])
    return Frame(samples=time[np.newaxis, :], sample_rate=cfg.sample_rate)


def _frame_body(rx, cfg: OtfsConfig) -> np.ndarray:
    samples = rx.row() if isinstance(rx, Frame) else np.asarray(rx, dtype=np.complex128)
    need = cfg.frame_len + cfg.cp_len
    if len(samples) < need:
        raise ValueError(f"need at least {need} samples, got {len(samples)}")
    return samples[cfg.cp_len:need]


def otfs_modulate_isfft(grid: np.ndarray, cfg: OtfsConfig, counter=None) -> Frame:
    """DD grid -> TF grid via ISFFT, then per-column IDFTs of size K."""
    grid = _check_grid(grid, cfg)
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    if counter is not None:
        counter.add(m * fft_multiplies(k) + k * fft_multiplies(m))  # ISFFT
        counter.add(m * fft_multiplies(k))                          # Heisenberg step
    return _prepend_cp(otfs_samples(grid, "isfft"), cfg)


def otfs_demodulate_isfft(rx, cfg: OtfsConfig, counter=None) -> np.ndarray:
    """Per-column DFTs of size K, then SFFT back to the DD grid."""
    body = _frame_body(rx, cfg)
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    if counter is not None:
        counter.add(m * fft_multiplies(k))
        counter.add(m * fft_multiplies(k) + k * fft_multiplies(m))
    tf = np.fft.fft(body.reshape(m, k).T, axis=0, norm="ortho")
    return np.fft.ifft(np.fft.fft(tf, axis=1, norm="ortho"), axis=0, norm="ortho")


def otfs_modulate_zak(grid: np.ndarray, cfg: OtfsConfig, counter=None) -> Frame:
    """Inverse discrete Zak transform: s[k + K*m] = IDFT over the Doppler axis."""
    grid = _check_grid(grid, cfg)
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    if counter is not None:
        counter.add(k * fft_multiplies(m))
    return _prepend_cp(otfs_samples(grid, "zak"), cfg)


def otfs_demodulate_zak(rx, cfg: OtfsConfig, counter=None) -> np.ndarray:
    """Discrete Zak transform, inverse of otfs_modulate_zak."""
    body = _frame_body(rx, cfg)
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    if counter is not None:
        counter.add(k * fft_multiplies(m))
    z = body.reshape((k, m), order="F")
    return np.fft.fft(z, axis=1, norm="ortho")


VARIANTS = ("zak", "isfft")


def otfs_samples(grids: np.ndarray, variant: str) -> np.ndarray:
    """CP-free transmit samples of (..., K, M) DD grids: (..., K*M), delay fastest.

    zak: inverse Zak transform, an IDFT over the Doppler axis.  isfft: the
    ISFFT to the TF grid, then an IDFT of size K per column.  A stack of
    grids is one batched transform per step.
    """
    if variant == "zak":
        z = np.fft.ifft(grids, axis=-1, norm="ortho")
    elif variant == "isfft":
        tf = np.fft.ifft(np.fft.fft(grids, axis=-2, norm="ortho"), axis=-1, norm="ortho")
        z = np.fft.ifft(tf, axis=-2, norm="ortho")
    else:
        raise ValueError(f"unknown OTFS variant {variant!r}, expected one of "
                         f"{', '.join(VARIANTS)}")
    return np.swapaxes(z, -1, -2).reshape(*z.shape[:-2], -1)


def otfs_modem(variant: str):
    """(modulate, demodulate) functions of the "zak" or "isfft" variant."""
    # Built on each call from the module attributes, so a wrapper installed
    # on them (as the benchmark's tracer does) sees every call.
    modems = {"zak": (otfs_modulate_zak, otfs_demodulate_zak),
              "isfft": (otfs_modulate_isfft, otfs_demodulate_isfft)}
    if variant not in modems:
        raise ValueError(f"unknown OTFS variant {variant!r}, expected one of "
                         f"{', '.join(VARIANTS)}")
    return modems[variant]


def dd_effective_matrix(channel, cfg: OtfsConfig, variant: str = "zak") -> np.ndarray:
    """Exact end-to-end DD-domain map of a scalar channel, column by column.

    channel is a callable mapping a 1-D time signal to the received signal
    (e.g. a ScalarChannel).  Column j is the demodulated response to a unit
    impulse at flattened DD bin j (row-major over the K x M grid).
    """
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    size = k * m
    if size > MAX_DENSE_GRID:
        raise ValueError(f"grid size {size} exceeds dense limit {MAX_DENSE_GRID}")
    modulate, demodulate = otfs_modem(variant)
    h = np.empty((size, size), dtype=np.complex128)
    for j in range(size):
        grid = np.zeros((k, m), dtype=np.complex128)
        grid.flat[j] = 1.0
        tx = modulate(grid, cfg)
        rx = channel(tx.row())
        need = cfg.frame_len + cfg.cp_len
        if len(rx) < need:
            rx = np.concatenate([rx, np.zeros(need - len(rx), dtype=np.complex128)])
        h[:, j] = demodulate(rx, cfg).reshape(-1)
    return h


def mmse_equalize_dd(received_grid: np.ndarray, effective_matrix: np.ndarray,
                     noise_var: float) -> np.ndarray:
    """Linear MMSE estimate (H^H H + noise_var I)^-1 H^H y, reshaped to the grid."""
    y = np.asarray(received_grid, dtype=np.complex128)
    shape = y.shape
    y = y.reshape(-1)
    h = np.asarray(effective_matrix, dtype=np.complex128)
    if h.shape != (len(y), len(y)):
        raise ValueError("effective matrix does not match the grid size")
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    gram = h.conj().T @ h + noise_var * np.eye(len(y))
    rhs = h.conj().T @ y
    if noise_var == 0:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > 1e12:
            raise np.linalg.LinAlgError(
                "singular effective matrix with noise_var=0; add regularization")
    x = np.linalg.solve(gram, rhs)
    return x.reshape(shape)


def grid_to_bytes(grid: np.ndarray) -> bytes:
    """Serialize a DD grid: 16-byte header (magic, K, M, reserved) + row-major pairs."""
    grid = np.ascontiguousarray(grid, dtype=np.complex128)
    if grid.ndim != 2:
        raise ValueError("grid must be 2-D")
    k, m = grid.shape
    header = GRID_MAGIC + struct.pack("<III", k, m, 0)
    return header + grid.tobytes()


def grid_from_bytes(blob: bytes) -> np.ndarray:
    """Inverse of grid_to_bytes."""
    if len(blob) < 16 or blob[:4] != GRID_MAGIC:
        raise ValueError("not a DD grid container")
    k, m, _ = struct.unpack("<III", blob[4:16])
    want = 16 + 16 * k * m
    if len(blob) != want:
        raise ValueError(f"container length {len(blob)} does not match header ({want})")
    return np.frombuffer(blob[16:], dtype=np.complex128).reshape(k, m).copy()
