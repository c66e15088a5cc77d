"""OFDM modem and the delay/Doppler feasibility-region analysis.

The modem uses unitary DFTs throughout.  The feasibility operations relate
the cyclic-prefix overhead ratio and subcarrier-count thresholds to the
largest channel delay and Doppler spreads an OFDM parameterization can
tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Frame
from .metrics import count, fft_multiplies


@dataclass(frozen=True)
class OfdmConfig:
    """K subcarriers, cyclic prefix length in samples, sample rate in Hz."""

    num_subcarriers: int
    cp_len: int
    sample_rate: float

    def __post_init__(self):
        k = self.num_subcarriers
        if k < 1 or (k & (k - 1)) != 0:
            raise ValueError("num_subcarriers must be a positive power of two")
        if self.cp_len < 0:
            raise ValueError("cp_len must be >= 0")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")


@dataclass(frozen=True)
class FeasibilityThresholds:
    """Performance thresholds: CP ratio, subcarrier count, bandwidth, Doppler margin."""

    rho_th: float
    k_th: int
    bandwidth: float
    xi: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.rho_th < 1.0:
            raise ValueError("rho_th must lie in (0, 1)")
        if self.k_th < 1:
            raise ValueError("k_th must be a positive integer")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.xi <= 0:
            raise ValueError("xi must be > 0")


@dataclass(frozen=True)
class FeasibleRegion:
    """Axis-aligned rectangle [0, tau_max] x [0, nu_max] of admissible spreads."""

    tau_max: float
    nu_max: float


def feasible_region(th: FeasibilityThresholds) -> FeasibleRegion:
    """Largest (tau_d, nu_d) rectangle meeting the thresholds.

    tau_max = ((1 - rho_th) / rho_th) * (k_th / B) and nu_max = B / (xi * k_th),
    so tau_max * nu_max = (1 - rho_th) / (xi * rho_th) independent of B and k_th.
    """
    tau_max = (1.0 - th.rho_th) / th.rho_th * (th.k_th / th.bandwidth)
    nu_max = th.bandwidth / (th.xi * th.k_th)
    return FeasibleRegion(tau_max=tau_max, nu_max=nu_max)


def _add_cyclic_prefix(time: np.ndarray, cp_len: int) -> np.ndarray:
    """Prepend the last cp_len samples of every row (along the last axis)."""
    if not cp_len:
        return time
    # modular indexing keeps the extension cyclic even for cp_len > K
    prefix = time[..., np.arange(-cp_len, 0) % time.shape[-1]]
    return np.concatenate([prefix, time], axis=-1)


def ofdm_modulate(freq_symbols: np.ndarray, cfg: OfdmConfig,
                  weights: np.ndarray = None) -> Frame:
    """Unitary inverse DFT plus cyclic prefix of each OFDM symbol.

    freq_symbols is one (K,) symbol vector or an (S x K) block, one OFDM
    symbol per row.  weights, if given, is (R x K), one row per antenna or
    per beam, and weights each subcarrier of every symbol per row.  The
    result has R rows (one without weights) of S * (K + cp_len) samples,
    the S symbols back to back, each with its own prefix.
    """
    k = cfg.num_subcarriers
    x = np.asarray(freq_symbols, dtype=np.complex128)
    if x.ndim == 1:
        x = x[np.newaxis, :]
    if x.ndim != 2 or x.shape[1] != k:
        raise ValueError(f"expected {k} frequency symbols per row, got shape {x.shape}")
    if weights is None:
        grid = x[np.newaxis]
        count(len(x) * fft_multiplies(k))
    else:
        rows = weights.shape[0]
        grid = weights[:, np.newaxis, :] * x[np.newaxis, :, :]
        count(len(x) * (rows * k + rows * fft_multiplies(k)))
    time = _add_cyclic_prefix(np.fft.ifft(grid, axis=-1, norm="ortho"), cfg.cp_len)
    return Frame(samples=time.reshape(len(grid), -1), sample_rate=cfg.sample_rate)


def ofdm_demodulate(rx, cfg: OfdmConfig) -> np.ndarray:
    """Drop the cyclic prefix and apply the unitary DFT to symbol windows.

    rx is a Frame or 1-D stream, of which the first K + cp_len samples are
    one symbol window and a (K,) vector is returned, or an (S x (K + cp_len))
    array of S windows, one per row, and an (S x K) array is returned.
    """
    samples = rx.row() if isinstance(rx, Frame) else np.asarray(rx, dtype=np.complex128)
    need = cfg.num_subcarriers + cfg.cp_len
    if samples.ndim == 1 and len(samples) >= need:
        samples = samples[:need]
    elif samples.ndim != 2 or samples.shape[1] != need:
        raise ValueError(f"need {need}-sample symbol windows, got shape {samples.shape}")
    count(samples.size // need * fft_multiplies(cfg.num_subcarriers))
    return np.fft.fft(samples[..., cfg.cp_len:], axis=-1, norm="ortho")


# One-tap responses below this magnitude are reported as erasures.
ERASURE_THRESHOLD = 1e-15


def ofdm_equalize_one_tap(freq_symbols: np.ndarray, channel_freq_response: np.ndarray):
    """Element-wise division by the per-subcarrier response.

    freq_symbols is a (K,) vector or an (S x K) block; the response has the
    same shape, or is one (K,) response shared by every row.  Returns
    (equalized, erasure_mask) in the shape of freq_symbols; bins whose
    response magnitude falls below the erasure threshold are zeroed and
    flagged instead of divided.
    """
    x = np.asarray(freq_symbols, dtype=np.complex128)
    h = np.asarray(channel_freq_response, dtype=np.complex128)
    if h.shape != x.shape and h.shape != x.shape[-1:]:
        raise ValueError("symbol and response vectors must have equal length")
    h = np.broadcast_to(h, x.shape)
    erased = np.abs(h) < ERASURE_THRESHOLD
    out = np.zeros_like(x)
    ok = ~erased
    out[ok] = x[ok] / h[ok]
    return out, erased
