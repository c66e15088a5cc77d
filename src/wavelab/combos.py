"""Combined pipelines: DDAM-OFDM and DDAM-OTFS.

DDAM-OFDM weights each subcarrier by the conjugate phase of the residual
equivalent channel, OFDM-modulates with a reduced cyclic prefix sized to
the residual delay window, and feeds the scalar stream through the DDAM
time-domain chain.  Both transmitters return ddam_modulate's BeamFrame, the
L path streams on their beams.  DDAM-OTFS multiplexes symbols on the
delay-Doppler grid and equalizes with the DD effective matrix of the
compensated end-to-end channel, whose time-domain matrix comes from probing
the chain with combs of unit impulses spaced by the chain's support, so one
pass gives many columns, each equal to a lone impulse's up to round-off.
Its functions take the plan, built per BER point, and the blocks of C^H C
of that time matrix C, built once per curve when the beams do not depend
on the noise; the receiver equalizes all of a point's frames in one
mmse_equalize_dd call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import DEFAULT_HALF_LENGTH, BeamFrame, Frame, MultipathChannel
from .ddam import (
    AlignmentWindow,
    BeamformerSet,
    CompensationPlan,
    EquivalentChannel,
    PathStateInfo,
    build_compensation_plan,
    ddam_chain_callable,
    ddam_modulate,
)
from .ofdm import OfdmConfig, ofdm_demodulate, ofdm_equalize_one_tap, ofdm_modulate
from .otfs import (
    BandedGram,
    OtfsConfig,
    dd_effective_matrix,
    mmse_equalize_dd,
    otfs_modem,
    time_matrix,
)


@dataclass(frozen=True)
class DdamOfdmLink:
    """Shared TX/RX state of one DDAM-OFDM configuration."""

    psi: PathStateInfo
    beams: BeamformerSet
    ofdm_cfg: OfdmConfig
    plan: CompensationPlan
    align_start: int          # first covered tap of the residual window
    subcarrier_weights: np.ndarray
    subcarrier_response: np.ndarray

    @property
    def symbol_stride(self) -> int:
        return self.ofdm_cfg.num_subcarriers + self.ofdm_cfg.cp_len


def ddam_ofdm_link(psi: PathStateInfo, beams: BeamformerSet, ofdm_cfg: OfdmConfig,
                   equivalent: EquivalentChannel, window: AlignmentWindow = None,
                   mode: str = "path_based",
                   half_length: int = DEFAULT_HALF_LENGTH) -> DdamOfdmLink:
    """Derive the per-subcarrier weights and alignment for a DDAM-OFDM run.

    The cyclic prefix must cover the declared residual delay window.  The
    equivalent taps inside [n_max - w_tau, n_max + cp - w_tau] define the
    per-subcarrier response; the transmit weighting is its conjugate phase.
    """
    window = window or AlignmentWindow()
    if ofdm_cfg.cp_len < window.w_tau_samples:
        raise ValueError(
            f"cp_len {ofdm_cfg.cp_len} shorter than the residual delay window "
            f"{window.w_tau_samples}")
    plan = build_compensation_plan(psi, mode=mode, window=window,
                                   half_length=half_length)
    align_start = max(0, plan.n_max - window.w_tau_samples)
    k = ofdm_cfg.num_subcarriers
    h_rel = np.zeros(k, dtype=np.complex128)
    covered = equivalent.taps[align_start:align_start + ofdm_cfg.cp_len + 1]
    h_rel[:len(covered)] = covered[:k]
    response = np.fft.fft(h_rel)
    magnitude = np.abs(response)
    weights = np.where(magnitude > 0, np.conj(response) / np.maximum(magnitude, 1e-300), 1.0)
    return DdamOfdmLink(psi=psi, beams=beams, ofdm_cfg=ofdm_cfg, plan=plan,
                        align_start=align_start, subcarrier_weights=weights,
                        subcarrier_response=response)


def ddam_ofdm_transmit_with_link(freq_symbols: np.ndarray,
                                 link: DdamOfdmLink) -> BeamFrame:
    """Phase-align and OFDM-modulate (S x K) symbol rows, then DDAM-transmit them."""
    stream = ofdm_modulate(freq_symbols, link.ofdm_cfg,
                           link.subcarrier_weights[np.newaxis]).row()
    return ddam_modulate(stream, link.psi, link.beams, plan=link.plan)


def ddam_ofdm_receive(rx: Frame, link: DdamOfdmLink, num_symbols: int,
                      pilot_symbol: np.ndarray = None) -> np.ndarray:
    """Align at the residual window, demodulate and one-tap equalize.

    Returns the (num_symbols x K) equalized symbols.  A frame shorter than
    align_start + num_symbols * stride raises ValueError.  The transmit power
    normalization leaves an unknown scalar on the link; when the first OFDM
    symbol is a known pilot, a least-squares scalar fit on it removes that
    factor from every returned symbol.  The fit is weighted by |H|^2, which
    equals fitting the bins before the one-tap division, so a near-null
    subcarrier cannot rotate the scale.
    """
    stride = link.symbol_stride
    need = num_symbols * stride
    stream = rx.row()[link.align_start:link.align_start + need]
    if len(stream) < need:
        raise ValueError(
            f"received frame of {rx.num_samples} samples is shorter than the "
            f"{link.align_start + need} that {num_symbols} symbols after the "
            f"alignment lag need")
    bins = ofdm_demodulate(stream.reshape(num_symbols, stride), link.ofdm_cfg)
    effective = link.subcarrier_response * link.subcarrier_weights
    out, _ = ofdm_equalize_one_tap(bins, effective)
    if pilot_symbol is not None:
        pilot = np.asarray(pilot_symbol, dtype=np.complex128)
        fit = np.abs(effective) ** 2 * pilot.conj()
        scale = (fit @ out[0]) / (fit @ pilot)
        out /= scale
    return out


def ddam_otfs_transmit(grid: np.ndarray, psi: PathStateInfo, beams: BeamformerSet,
                       otfs_cfg: OtfsConfig, plan: CompensationPlan,
                       variant: str = "zak") -> BeamFrame:
    """OTFS-modulate the DD grid, then apply the DDAM time-domain chain of the plan."""
    modulate, _ = otfs_modem(variant)
    stream = modulate(grid, otfs_cfg).row()
    return ddam_modulate(stream, psi, beams, plan=plan)


def ddam_otfs_effective_matrix(channel: MultipathChannel, psi: PathStateInfo,
                               beams: BeamformerSet, otfs_cfg: OtfsConfig,
                               plan: CompensationPlan, variant: str = "zak",
                               half_length: int = DEFAULT_HALF_LENGTH) -> np.ndarray:
    """DD effective matrix of the compensated end-to-end channel.

    The unnormalized chain is probed with combs of unit impulses spaced by
    its support (see otfs.time_matrix).
    """
    chain = ddam_chain_callable(channel, psi, beams, plan, half_length)
    return dd_effective_matrix(time_matrix(chain, otfs_cfg), otfs_cfg, variant=variant)


def ddam_otfs_receive(frames, effective_matrix: np.ndarray, otfs_cfg: OtfsConfig,
                      gram: BandedGram, noise_var: float,
                      variant: str = "zak") -> np.ndarray:
    """Demodulate each received frame to its DD grid, then MMSE-equalize them.

    frames is a list of F received Frames, none shorter than CP plus body;
    the result is the (F, K, M) stack of equalized grids.  gram is
    otfs.banded_gram of the time matrix C the effective matrix was built
    from, built once per curve when the beams do not depend on the noise;
    the F grids go through one mmse_equalize_dd call, which factors
    C^H C + noise_var I once.
    """
    _, demodulate = otfs_modem(variant)
    grids = np.array([demodulate(rx, otfs_cfg) for rx in frames])
    return mmse_equalize_dd(grids, effective_matrix, gram, noise_var, variant=variant)


def dominant_entries_per_column(matrix: np.ndarray, threshold_db: float = -30.0) -> np.ndarray:
    """Equalization cost proxy: entries per column above the power threshold."""
    mags = np.abs(matrix) ** 2
    floor = 10.0 ** (threshold_db / 10.0) * mags.max(axis=0, keepdims=True)
    return (mags >= floor).sum(axis=0)
