"""End-to-end link runners: per-waveform BER chains and PAPR generators.

These tie the modems to the channel: MISO OFDM with per-subcarrier MRT and
genie one-tap equalization frozen at each symbol's center time, DDAM with
genie gain from the noiseless receive, OTFS with a wideband MRT beam and
dense DD-domain MMSE, and the combined pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    DEFAULT_HALF_LENGTH,
    ArrayConfig,
    Frame,
    MultipathChannel,
    ScalarChannel,
    _delayed_segment,
    add_awgn,
    apply_channel,
    sample_random_channel,
    steering_vector,
)
from .combos import (
    ddam_ofdm_link,
    ddam_ofdm_receive,
    ddam_ofdm_transmit_with_link,
    ddam_otfs_effective_matrix,
    ddam_otfs_receive,
    ddam_otfs_transmit,
)
from .ddam import (
    AlignmentWindow,
    DdamFrameConfig,
    build_compensation_plan,
    ddam_demodulate,
    ddam_modulate,
    equivalent_channel,
    estimate_gain,
    path_beamformers,
    psi_from_channel,
)
from .metrics import fft_multiplies
from .modulation import qpsk_demodulate, qpsk_modulate, random_qpsk
from .ofdm import (
    OfdmConfig,
    _add_cyclic_prefix,
    _symbol_rows,
    ofdm_demodulate,
    ofdm_equalize_one_tap,
)
from .otfs import OtfsConfig, dd_effective_matrix, mmse_equalize_dd, otfs_modem

WAVEFORMS = ("ofdm", "otfs_isfft", "otfs_zak", "ddam", "ddam_ofdm", "ddam_otfs")


@dataclass(frozen=True)
class LinkResult:
    snr_db: float
    bits: int
    bit_errors: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits


def _path_dft_phases(channel: MultipathChannel, k: int,
                     half_length: int = DEFAULT_HALF_LENGTH) -> np.ndarray:
    """(L x K) per-subcarrier response of each path's discrete delay taps."""
    bins = np.arange(k)
    phases = np.empty((channel.num_paths, k), dtype=np.complex128)
    for l, path in enumerate(channel.paths):
        start, segment = _delayed_segment(
            np.array([1.0 + 0.0j]), path.delay_s * channel.sample_rate,
            half_length, 1e-9)
        positions = start + np.arange(len(segment))
        phases[l] = np.exp(-2j * np.pi * np.outer(bins, positions) / k) @ segment
    return phases


def ofdm_miso_precoder(channel: MultipathChannel, cfg: OfdmConfig) -> np.ndarray:
    """Per-subcarrier MRT toward the composite response, (M_t x K) unit columns."""
    steer = np.stack([steering_vector(p.aod, channel.array) for p in channel.paths],
                     axis=1)
    alpha = np.array([p.gain for p in channel.paths])
    phases = _path_dft_phases(channel, cfg.num_subcarriers)
    w = steer @ np.conj(alpha[:, None] * phases)
    return w / np.linalg.norm(w, axis=0)


def ofdm_miso_modulate(freq_symbols: np.ndarray, weights: np.ndarray,
                       cfg: OfdmConfig, counter=None) -> Frame:
    """Weight each subcarrier per antenna, IFFT per antenna, prepend the CP.

    freq_symbols is one (K,) symbol vector or an (S x K) block, one OFDM
    symbol per row; weights is (M_t x K).  Returns (M_t x S * (K + cp_len))
    samples, the S symbols back to back on every antenna.
    """
    k = cfg.num_subcarriers
    x = _symbol_rows(freq_symbols, k)
    mt = weights.shape[0]
    grid = weights[:, np.newaxis, :] * x[np.newaxis, :, :]
    if counter is not None:
        counter.add(len(x) * (mt * k + mt * fft_multiplies(k)))
    time = _add_cyclic_prefix(np.fft.ifft(grid, axis=-1, norm="ortho"), cfg.cp_len)
    return Frame(samples=time.reshape(mt, -1), sample_rate=cfg.sample_rate)


def ofdm_genie_response(channel: MultipathChannel, weights: np.ndarray,
                        cfg: OfdmConfig, symbol_index) -> np.ndarray:
    """One-tap response per subcarrier, channel frozen at each symbol center.

    symbol_index is one index, giving a (K,) response, or an array of S
    indices, giving an (S x K) response with one row per index.
    """
    k, cp = cfg.num_subcarriers, cfg.cp_len
    t_center = np.asarray(symbol_index) * (k + cp) + cp + k / 2.0
    alpha = np.array([p.gain for p in channel.paths])
    dopplers = np.array([p.doppler_hz for p in channel.paths])
    ramp = np.exp(2j * np.pi * dopplers * t_center[..., np.newaxis] / channel.sample_rate)
    steer = np.stack([steering_vector(p.aod, channel.array) for p in channel.paths],
                     axis=1)
    phases = _path_dft_phases(channel, k)
    cross = steer.conj().T @ weights
    return (ramp * alpha) @ (phases * cross)


def run_ofdm_ber(channel: MultipathChannel, cfg: OfdmConfig, snr_db: float,
                 num_symbols: int, rng_seed) -> LinkResult:
    """Uncoded QPSK over MISO OFDM with per-symbol genie equalization."""
    rng = np.random.default_rng(rng_seed)
    k, stride = cfg.num_subcarriers, cfg.num_subcarriers + cfg.cp_len
    weights = ofdm_miso_precoder(channel, cfg)
    bits = rng.integers(0, 2, size=2 * k * num_symbols)
    symbols = qpsk_modulate(bits).reshape(num_symbols, k)
    rx = apply_channel(channel, ofdm_miso_modulate(symbols, weights, cfg))
    noisy = add_awgn(rx, snr_db, rng_seed=rng.integers(2 ** 63)).row()
    bins = ofdm_demodulate(noisy[:num_symbols * stride].reshape(num_symbols, stride), cfg)
    equalized, _ = ofdm_equalize_one_tap(
        bins, ofdm_genie_response(channel, weights, cfg, np.arange(num_symbols)))
    errors = int(np.sum(qpsk_demodulate(equalized.reshape(-1)) != bits))
    return LinkResult(snr_db=snr_db, bits=2 * k * num_symbols, bit_errors=errors)


def run_ddam_ber(channel: MultipathChannel, snr_db: float, num_symbols: int,
                 rng_seed, criterion: str = "zf", mode: str = "path_based",
                 block_len: int = 100_000, window: AlignmentWindow = None,
                 noise_var_hint: float = None,
                 half_length: int = DEFAULT_HALF_LENGTH) -> LinkResult:
    """Uncoded QPSK over DDAM, genie gain taken from the noiseless receive."""
    psi = psi_from_channel(channel)
    noise_var = noise_var_hint if noise_var_hint is not None else 10 ** (-snr_db / 10)
    beams = path_beamformers(psi, criterion, noise_var=noise_var)
    plan = build_compensation_plan(psi, mode=mode, window=window,
                                   half_length=half_length)
    seeds = np.random.SeedSequence(rng_seed)
    errors = 0
    total_bits = 0
    remaining = num_symbols
    block_id = 0
    while remaining > 0:
        n = min(block_len, remaining)
        child = np.random.default_rng(seeds.spawn(1)[0])
        bits = child.integers(0, 2, size=2 * n)
        symbols = qpsk_modulate(bits)
        frame = ddam_modulate(symbols, psi, beams, DdamFrameConfig(n), plan=plan,
                              half_length=half_length)
        clean = apply_channel(channel, frame, half_length=half_length)
        gain = estimate_gain(clean.row(), symbols, plan.n_max)
        noisy = add_awgn(clean, snr_db, rng_seed=child.integers(2 ** 63))
        detected = ddam_demodulate(noisy, gain, DdamFrameConfig(n), plan.n_max)
        errors += int(np.sum(qpsk_demodulate(detected) != bits))
        total_bits += 2 * n
        remaining -= n
        block_id += 1
    return LinkResult(snr_db=snr_db, bits=total_bits, bit_errors=errors)


def otfs_miso_modulate_isfft(grid: np.ndarray, weights: np.ndarray,
                             cfg: OtfsConfig, counter=None) -> Frame:
    """ISFFT chain with per-subcarrier MRT: per-antenna Heisenberg IFFTs.

    weights is (M_t x K), one unit-norm column per subcarrier, as in the
    OFDM baseline; the subcarrier-dependent precoding forces one inverse
    transform per antenna.
    """
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.shape != (k, m):
        raise ValueError(f"grid shape {grid.shape} does not match ({k}, {m})")
    mt = weights.shape[0]
    if counter is not None:
        counter.add(m * fft_multiplies(k) + k * fft_multiplies(m))  # ISFFT
        counter.add(mt * k * m)                                     # per-bin weights
        counter.add(mt * m * fft_multiplies(k))                     # per-antenna IFFTs
    tf = np.fft.ifft(np.fft.fft(grid, axis=0, norm="ortho"), axis=1, norm="ortho")
    weighted = weights[:, :, np.newaxis] * tf[np.newaxis, :, :]
    chunks = np.fft.ifft(weighted, axis=1, norm="ortho")
    time = chunks.transpose(0, 2, 1).reshape(mt, k * m)
    if cfg.cp_len:
        time = np.concatenate([time[:, -cfg.cp_len:], time], axis=1)
    return Frame(samples=time, sample_rate=cfg.sample_rate)


def otfs_miso_beam(channel: MultipathChannel) -> np.ndarray:
    """Wideband MRT beam toward the strongest path."""
    strongest = int(np.argmax([abs(p.gain) for p in channel.paths]))
    beam = steering_vector(channel.paths[strongest].aod, channel.array)
    return beam / np.linalg.norm(beam)


def otfs_scalar_taps(channel: MultipathChannel, beam: np.ndarray) -> ScalarChannel:
    """Post-beamforming scalar view of the physical channel."""
    taps = tuple(
        (p.gain * (steering_vector(p.aod, channel.array).conj() @ beam),
         p.delay_s * channel.sample_rate, p.doppler_hz)
        for p in channel.paths)
    return ScalarChannel(taps, channel.sample_rate)


def run_otfs_ber(channel: MultipathChannel, cfg: OtfsConfig, snr_db: float,
                 num_frames: int, rng_seed, variant: str = "zak") -> LinkResult:
    """Uncoded QPSK over MISO OTFS with dense DD-domain MMSE equalization."""
    beam = otfs_miso_beam(channel)
    scalar = otfs_scalar_taps(channel, beam)
    h_dd = dd_effective_matrix(scalar, cfg, variant=variant)
    modulate, demodulate = otfs_modem(variant)
    noise_var = 10 ** (-snr_db / 10)
    seeds = np.random.SeedSequence(rng_seed)
    errors = 0
    per_frame = 2 * cfg.frame_len
    need = cfg.frame_len + cfg.cp_len
    for _ in range(num_frames):
        child = np.random.default_rng(seeds.spawn(1)[0])
        bits = child.integers(0, 2, size=per_frame)
        grid = qpsk_modulate(bits).reshape(cfg.num_delay_bins, cfg.num_doppler_bins)
        stream = modulate(grid, cfg).row()
        tx = Frame(np.outer(beam, stream), cfg.sample_rate)
        rx = add_awgn(apply_channel(channel, tx), snr_db,
                      rng_seed=child.integers(2 ** 63))
        samples = rx.row()
        if len(samples) < need:
            samples = np.concatenate([samples, np.zeros(need - len(samples), complex)])
        grid_rx = demodulate(samples, cfg)
        equalized = mmse_equalize_dd(grid_rx, h_dd, noise_var)
        errors += int(np.sum(qpsk_demodulate(equalized.reshape(-1)) != bits))
    return LinkResult(snr_db=snr_db, bits=per_frame * num_frames, bit_errors=errors)


def run_ddam_ofdm_ber(channel: MultipathChannel, cfg: OfdmConfig, snr_db: float,
                      num_symbols: int, rng_seed, criterion: str = "zf",
                      mode: str = "path_based", window: AlignmentWindow = None,
                      half_length: int = DEFAULT_HALF_LENGTH) -> LinkResult:
    """Uncoded QPSK over DDAM-OFDM; the first OFDM symbol is a scale pilot."""
    psi = psi_from_channel(channel)
    beams = path_beamformers(psi, criterion, noise_var=10 ** (-snr_db / 10))
    eq = equivalent_channel(channel, psi, beams, mode=mode, window=window,
                            half_length=half_length)
    link = ddam_ofdm_link(psi, beams, cfg, eq, window=window, mode=mode,
                          half_length=half_length)
    rng = np.random.default_rng(rng_seed)
    k = cfg.num_subcarriers
    bits = rng.integers(0, 2, size=2 * k * num_symbols)
    data = qpsk_modulate(bits).reshape(num_symbols, k)
    pilot = random_qpsk(np.random.default_rng(0xBEEF), k)
    grid = np.concatenate([pilot[np.newaxis, :], data], axis=0)
    tx = ddam_ofdm_transmit_with_link(grid, link)
    rx = add_awgn(apply_channel(channel, tx, half_length=half_length), snr_db,
                  rng_seed=rng.integers(2 ** 63))
    out = ddam_ofdm_receive(rx, link, num_symbols + 1, pilot_symbol=pilot)
    errors = int(np.sum(qpsk_demodulate(out[1:].reshape(-1)) != bits))
    return LinkResult(snr_db=snr_db, bits=2 * k * num_symbols, bit_errors=errors)


def run_ddam_otfs_ber(channel: MultipathChannel, cfg: OtfsConfig, snr_db: float,
                      num_frames: int, rng_seed, criterion: str = "zf",
                      mode: str = "path_based", window: AlignmentWindow = None,
                      variant: str = "zak",
                      half_length: int = DEFAULT_HALF_LENGTH) -> LinkResult:
    """Uncoded QPSK over DDAM-OTFS with the compensated-channel DD MMSE."""
    psi = psi_from_channel(channel)
    beams = path_beamformers(psi, criterion, noise_var=10 ** (-snr_db / 10))
    h_dd = ddam_otfs_effective_matrix(channel, psi, beams, cfg, window=window,
                                      mode=mode, variant=variant,
                                      half_length=half_length)
    noise_var = 10 ** (-snr_db / 10)
    seeds = np.random.SeedSequence(rng_seed)
    errors = 0
    per_frame = 2 * cfg.frame_len
    for _ in range(num_frames):
        child = np.random.default_rng(seeds.spawn(1)[0])
        bits = child.integers(0, 2, size=per_frame)
        grid = qpsk_modulate(bits).reshape(cfg.num_delay_bins, cfg.num_doppler_bins)
        tx = ddam_otfs_transmit(grid, psi, beams, cfg, window=window, mode=mode,
                                variant=variant, half_length=half_length)
        rx = add_awgn(apply_channel(channel, tx, half_length=half_length), snr_db,
                      rng_seed=child.integers(2 ** 63))
        out = ddam_otfs_receive(rx, h_dd, cfg, noise_var, variant=variant)
        errors += int(np.sum(qpsk_demodulate(out.reshape(-1)) != bits))
    return LinkResult(snr_db=snr_db, bits=per_frame * num_frames, bit_errors=errors)


def make_papr_generator(waveform: str, **params):
    """Build a seeded one-trial waveform generator (guard/CP excluded).

    ofdm: one OFDM symbol body of K subcarriers.  otfs_*: one frame body.
    ddam: one block over a fresh random channel, all antennas returned.
    """
    if waveform == "ofdm":
        k = params["num_subcarriers"]
        return lambda rng: np.fft.ifft(random_qpsk(rng, k), norm="ortho")

    if waveform in ("otfs_zak", "otfs_isfft"):
        cfg = OtfsConfig(num_doppler_bins=params["num_doppler_bins"],
                         num_delay_bins=params["num_delay_bins"],
                         cp_len=0, sample_rate=params.get("sample_rate", 1e6))
        modulate, _ = otfs_modem(waveform.split("_")[1])

        def gen(rng):
            grid = random_qpsk(rng, cfg.frame_len).reshape(
                cfg.num_delay_bins, cfg.num_doppler_bins)
            return modulate(grid, cfg).row()

        return gen

    if waveform == "ddam":
        num_paths = params["num_paths"]
        mt = params["mt"]
        block = params.get("block_len", 512)
        criterion = params.get("criterion", "zf")
        max_delay = params.get("max_delay_samples", 32)
        rate = params.get("sample_rate", 1e6)
        doppler = params.get("max_doppler_hz", 0.0)

        def gen(rng):
            channel = sample_random_channel(
                ArrayConfig(mt), num_paths, (0.0, max_delay / rate),
                (-doppler, doppler), rng.integers(2 ** 63), sample_rate=rate)
            psi = psi_from_channel(channel)
            beams = path_beamformers(psi, criterion, noise_var=0.01)
            plan = build_compensation_plan(psi)
            symbols = random_qpsk(rng, block)
            frame = ddam_modulate(symbols, psi, beams, DdamFrameConfig(block),
                                  plan=plan)
            return frame.samples[:, :block + plan.max_kappa]

        return gen

    raise ValueError(f"no PAPR generator for waveform {waveform!r}")
