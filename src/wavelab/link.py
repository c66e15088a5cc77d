"""End-to-end link runners: per-waveform BER chains and PAPR generators.

These tie the modems to the channel: MISO OFDM with per-subcarrier MRT and
genie one-tap equalization frozen at each symbol's center time, DDAM
read at its equivalent channel's dominant tap, OTFS with a wideband MRT
beam and dense DD-domain MMSE (H and H^H H built once per curve when the
beams do not depend on the noise, one solve per BER point), and the
combined pipelines.  Every BER runner is a (transmit, receive, frames)
triple fed to one frame loop: draw bits, QPSK, transmit, apply_channel,
add_awgn, receive the noisy frame, count bit errors.  The DDAM-family
runners transmit with ddam_modulate or its combos wrappers, which return
a BeamFrame of L path streams on their beams, and OTFS sends one stream
on its beam: only MISO OFDM, whose precoder changes per subcarrier,
sends M_t antenna rows.  The PAPR generators draw each trial's random
values from its own generator and run everything after the draws over
stacked chunks of trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .channel import (
    DEFAULT_HALF_LENGTH,
    ArrayConfig,
    BeamFrame,
    Frame,
    MultipathChannel,
    ScalarChannel,
    add_awgn,
    apply_channel,
    draw_random_paths,
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
    NOISE_FREE_CRITERIA,
    AlignmentWindow,
    DdamFrameConfig,
    PathStateInfo,
    build_compensation_plan,
    ddam_demodulate,
    ddam_modulate,
    equivalent_channel,
    path_based_blocks,
    path_beamformers,
    psi_from_channel,
)
from .metrics import count, fft_multiplies
from .modulation import qpsk_demodulate, qpsk_modulate, random_qpsk
from .ofdm import (
    OfdmConfig,
    _add_cyclic_prefix,
    _symbol_rows,
    ofdm_demodulate,
    ofdm_equalize_one_tap,
)
from .otfs import (
    OtfsConfig,
    dd_effective_matrix,
    mmse_equalize_dd,
    mmse_gram,
    otfs_modem,
    otfs_samples,
)

# A PAPR chunk holds as many trials as fit about this many bytes of
# (trials x rows x N) complex samples.  The trials run at PAPR_SAMPLE_RATE.
PAPR_CHUNK_BYTES = 1 << 20
PAPR_SAMPLE_RATE = 1e6


@dataclass(frozen=True)
class LinkResult:
    bits: int
    bit_errors: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits


def _run_frames(channel: MultipathChannel, snr_db: float, rngs, frame_symbols,
                transmit, receive, equalize=None,
                half_length: int = DEFAULT_HALF_LENGTH) -> LinkResult:
    """Monte Carlo BER: one frame of frame_symbols[i] QPSK symbols per rngs[i].

    Per frame: draw the bits, transmit(symbols) -> Frame or BeamFrame,
    apply_channel, add_awgn (seeded from the frame's generator), then
    receive(noisy, n) with the frame's symbol count n.  Without equalize,
    receive returns the frame's equalized symbols and their bit errors are
    counted frame by frame, so no frame is held.  With equalize, the
    point's receive outputs are held and equalize(list of them) returns
    every frame's equalized symbols, stacked, from one call.
    """
    errors = total = 0
    held_bits, held = [], []
    for rng, n in zip(rngs, frame_symbols):
        bits = rng.integers(0, 2, size=2 * n)
        symbols = qpsk_modulate(bits)
        clean = apply_channel(channel, transmit(symbols), half_length=half_length)
        noisy = add_awgn(clean, snr_db, rng_seed=rng.integers(2 ** 63))
        received = receive(noisy, n)
        if equalize is None:
            errors += int(np.sum(qpsk_demodulate(received.reshape(-1)) != bits))
        else:
            held_bits.append(bits)
            held.append(received)
        total += 2 * n
    if held:
        detected = equalize(held).reshape(-1)
        errors += int(np.sum(qpsk_demodulate(detected) != np.concatenate(held_bits)))
    return LinkResult(bits=total, bit_errors=errors)


def _spawned_rngs(rng_seed, num_frames: int) -> list:
    """One generator per frame, from the seed's spawned children in order."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(rng_seed).spawn(num_frames)]


def ofdm_miso_precoder(channel: MultipathChannel, cfg: OfdmConfig) -> np.ndarray:
    """Per-subcarrier MRT toward the composite response, (M_t x K) unit columns."""
    taps = channel.scalar_taps()
    response = taps.gains[:, np.newaxis] * taps.frequency_response(cfg.num_subcarriers)
    w = channel.steering_matrix @ np.conj(response)
    return w / np.linalg.norm(w, axis=0)


def ofdm_miso_modulate(freq_symbols: np.ndarray, weights: np.ndarray,
                       cfg: OfdmConfig) -> Frame:
    """Weight each subcarrier per antenna, IFFT per antenna, prepend the CP.

    freq_symbols is one (K,) symbol vector or an (S x K) block, one OFDM
    symbol per row; weights is (M_t x K).  Returns (M_t x S * (K + cp_len))
    samples, the S symbols back to back on every antenna.  These stay
    antenna rows, not a BeamFrame: the precoder changes per subcarrier, so
    no few time-domain beams carry the frame.
    """
    k = cfg.num_subcarriers
    x = _symbol_rows(freq_symbols, k)
    mt = weights.shape[0]
    grid = weights[:, np.newaxis, :] * x[np.newaxis, :, :]
    count(len(x) * (mt * k + mt * fft_multiplies(k)))
    time = _add_cyclic_prefix(np.fft.ifft(grid, axis=-1, norm="ortho"), cfg.cp_len)
    return Frame(samples=time.reshape(mt, -1), sample_rate=cfg.sample_rate)


def ofdm_genie_response(channel: MultipathChannel, weights: np.ndarray,
                        cfg: OfdmConfig, symbol_index) -> np.ndarray:
    """One-tap response per subcarrier, channel frozen at each symbol center.

    symbol_index is one index, giving a (K,) response, or an array of S
    indices, giving an (S x K) response with one row per index.
    """
    k, cp = cfg.num_subcarriers, cfg.cp_len
    taps = channel.scalar_taps()
    t_center = np.asarray(symbol_index) * (k + cp) + cp + k / 2.0
    ramp = np.exp(2j * np.pi * taps.dopplers * t_center[..., np.newaxis]
                  / channel.sample_rate)
    cross = channel.steering_matrix.conj().T @ weights
    return (ramp * taps.gains) @ (taps.frequency_response(k) * cross)


def run_ofdm_ber(channel: MultipathChannel, cfg: OfdmConfig, snr_db: float,
                 num_symbols: int, rng_seed) -> LinkResult:
    """Uncoded QPSK over MISO OFDM with per-symbol genie equalization."""
    k, stride = cfg.num_subcarriers, cfg.num_subcarriers + cfg.cp_len
    weights = ofdm_miso_precoder(channel, cfg)

    def transmit(symbols):
        return ofdm_miso_modulate(symbols.reshape(num_symbols, k), weights, cfg)

    def receive(noisy, n):
        bins = ofdm_demodulate(
            noisy.row()[:num_symbols * stride].reshape(num_symbols, stride), cfg)
        response = ofdm_genie_response(channel, weights, cfg, np.arange(num_symbols))
        return ofdm_equalize_one_tap(bins, response)[0]

    return _run_frames(channel, snr_db, [np.random.default_rng(rng_seed)],
                       [k * num_symbols], transmit, receive)


def run_ddam_ber(channel: MultipathChannel, snr_db: float, num_symbols: int,
                 rng_seed, criterion: str = "zf", mode: str = "path_based",
                 block_len: int = 100_000, window: AlignmentWindow = None,
                 half_length: int = DEFAULT_HALF_LENGTH) -> LinkResult:
    """Uncoded QPSK over DDAM, detected at its equivalent channel's dominant tap.

    That tap's gain omits the transmit normalization, a positive scale QPSK
    slicing ignores, and is taken at t = 0: the residual Doppler rotation a
    w_nu window leaves is not tracked.
    """
    psi = psi_from_channel(channel)
    beams = path_beamformers(psi, criterion, noise_var=10 ** (-snr_db / 10))
    plan = build_compensation_plan(psi, mode=mode, window=window,
                                   half_length=half_length)
    eq = equivalent_channel(channel, psi, beams, plan=plan, half_length=half_length)

    def transmit(symbols):
        return ddam_modulate(symbols, psi, beams, DdamFrameConfig(len(symbols)), plan)

    def receive(noisy, n):
        return ddam_demodulate(noisy, eq.dominant_gain, DdamFrameConfig(n),
                               eq.dominant_tap_index)

    blocks = [min(block_len, num_symbols - start)
              for start in range(0, num_symbols, block_len)]
    return _run_frames(channel, snr_db, _spawned_rngs(rng_seed, len(blocks)),
                       blocks, transmit, receive, half_length=half_length)


def otfs_miso_modulate_isfft(grid: np.ndarray, weights: np.ndarray,
                             cfg: OtfsConfig) -> Frame:
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
    count(m * fft_multiplies(k) + k * fft_multiplies(m))  # ISFFT
    count(mt * k * m)                                     # per-bin weights
    count(mt * m * fft_multiplies(k))                     # per-antenna IFFTs
    tf = np.fft.ifft(np.fft.fft(grid, axis=0, norm="ortho"), axis=1, norm="ortho")
    weighted = weights[:, :, np.newaxis] * tf[np.newaxis, :, :]
    chunks = np.fft.ifft(weighted, axis=1, norm="ortho")
    time = chunks.transpose(0, 2, 1).reshape(mt, k * m)
    time = _add_cyclic_prefix(time, cfg.cp_len)
    return Frame(samples=time, sample_rate=cfg.sample_rate)


def otfs_miso_beam(channel: MultipathChannel) -> np.ndarray:
    """Wideband MRT beam toward the strongest path."""
    strongest = int(np.argmax([abs(p.gain) for p in channel.paths]))
    beam = steering_vector(channel.paths[strongest].aod, channel.array)
    return beam / np.linalg.norm(beam)


def otfs_scalar_taps(channel: MultipathChannel, beam: np.ndarray) -> ScalarChannel:
    """Post-beamforming scalar view: the channel's taps weighted by a_l^H beam."""
    cross = channel.steering_matrix.conj().T @ beam
    taps = tuple((gain * c, delay, doppler)
                 for (gain, delay, doppler), c in zip(channel.scalar_taps().taps, cross))
    return ScalarChannel(taps, channel.sample_rate)


def _with_gram(h_dd: np.ndarray) -> tuple:
    return h_dd, mmse_gram(h_dd)


def run_otfs_ber(channel: MultipathChannel, cfg: OtfsConfig, snr_db: float,
                 num_frames: int, rng_seed, variant: str = "zak") -> LinkResult:
    """Uncoded QPSK over MISO OTFS with dense DD-domain MMSE equalization.

    H and H^H H are kept on the channel, built once per curve.
    """
    beam = otfs_miso_beam(channel)
    h_dd, gram = channel.cached(("otfs", cfg, variant), lambda: _with_gram(
        dd_effective_matrix(otfs_scalar_taps(channel, beam), cfg, variant=variant)))
    modulate, demodulate = otfs_modem(variant)

    def transmit(symbols):
        grid = symbols.reshape(cfg.num_delay_bins, cfg.num_doppler_bins)
        return BeamFrame(beam[:, np.newaxis], modulate(grid, cfg).samples, cfg.sample_rate)

    def receive(noisy, n):
        return demodulate(noisy, cfg)

    def equalize(grids):
        return mmse_equalize_dd(np.array(grids), h_dd, gram, 10 ** (-snr_db / 10))

    return _run_frames(channel, snr_db, _spawned_rngs(rng_seed, num_frames),
                       [cfg.frame_len] * num_frames, transmit, receive, equalize)


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
    k = cfg.num_subcarriers
    pilot = random_qpsk(np.random.default_rng(0xBEEF), k)

    def transmit(symbols):
        grid = np.concatenate([pilot[np.newaxis, :], symbols.reshape(num_symbols, k)])
        return ddam_ofdm_transmit_with_link(grid, link)

    def receive(noisy, n):
        return ddam_ofdm_receive(noisy, link, num_symbols + 1, pilot_symbol=pilot)[1:]

    return _run_frames(channel, snr_db, [np.random.default_rng(rng_seed)],
                       [k * num_symbols], transmit, receive, half_length=half_length)


def run_ddam_otfs_ber(channel: MultipathChannel, cfg: OtfsConfig, snr_db: float,
                      num_frames: int, rng_seed, criterion: str = "zf",
                      mode: str = "path_based", window: AlignmentWindow = None,
                      variant: str = "zak",
                      half_length: int = DEFAULT_HALF_LENGTH) -> LinkResult:
    """Uncoded QPSK over DDAM-OTFS with the compensated-channel DD MMSE.

    H and H^H H are kept on the channel, built once per curve, unless the
    beams depend on the noise (rzf, mmse): then they are built per point.
    """
    psi = psi_from_channel(channel)
    noise_var = 10 ** (-snr_db / 10)
    beams = path_beamformers(psi, criterion, noise_var=noise_var)
    plan = build_compensation_plan(psi, mode=mode, window=window,
                                   half_length=half_length)

    def build():
        return _with_gram(ddam_otfs_effective_matrix(
            channel, psi, beams, cfg, plan, variant=variant, half_length=half_length))

    if criterion.lower() in NOISE_FREE_CRITERIA:
        key = ("ddam_otfs", cfg, variant, criterion, mode, window, half_length)
        h_dd, gram = channel.cached(key, build)
    else:
        h_dd, gram = build()

    def transmit(symbols):
        grid = symbols.reshape(cfg.num_delay_bins, cfg.num_doppler_bins)
        return ddam_otfs_transmit(grid, psi, beams, cfg, plan, variant=variant)

    def receive(noisy, n):
        return noisy

    def equalize(frames):
        return ddam_otfs_receive(frames, h_dd, cfg, gram, noise_var, variant=variant)

    return _run_frames(channel, snr_db, _spawned_rngs(rng_seed, num_frames),
                       [cfg.frame_len] * num_frames, transmit, receive, equalize,
                       half_length=half_length)


def _chunks(rngs, rows: int, width: int):
    """The per-trial generators in lists that fill about PAPR_CHUNK_BYTES
    of (trials x rows x width) complex samples."""
    size = max(1, PAPR_CHUNK_BYTES // (16 * rows * width))
    rngs = iter(rngs)
    while chunk := list(islice(rngs, size)):
        yield chunk


def make_papr_generator(waveform: str, **params):
    """Build a seeded chunk generator of PAPR trials (guard/CP excluded).

    The generator takes the per-trial Generators and yields, for papr_ccdf,
    one (samples (T x rows x N), span (T,)) chunk per T consecutive trials,
    T sized from PAPR_CHUNK_BYTES.  Each trial draws from its own generator
    in the order of a trial run on its own; everything after the draws runs
    once per chunk, and each trial's samples equal the one-trial chain's.

    ofdm: one OFDM symbol body of K subcarriers.  otfs_*: one frame body.
    ddam: one block over a fresh random channel, all antennas, over its
    active span N + max kappa; one path_beamformers call per chunk.
    """
    if waveform == "ofdm":
        k = params["num_subcarriers"]

        def gen(rngs):
            for chunk in _chunks(rngs, 1, k):
                x = np.fft.ifft([random_qpsk(rng, k) for rng in chunk], norm="ortho")
                yield x[:, np.newaxis, :], np.full(len(chunk), k)

        return gen

    if waveform in ("otfs_zak", "otfs_isfft"):
        cfg = OtfsConfig(num_doppler_bins=params["num_doppler_bins"],
                         num_delay_bins=params["num_delay_bins"],
                         cp_len=0, sample_rate=PAPR_SAMPLE_RATE)
        k, m = cfg.num_delay_bins, cfg.num_doppler_bins
        variant = waveform.split("_")[1]

        def gen(rngs):
            for chunk in _chunks(rngs, 1, k * m):
                grids = np.array([random_qpsk(rng, k * m).reshape(k, m) for rng in chunk])
                x = otfs_samples(grids, variant)
                yield x[:, np.newaxis, :], np.full(len(chunk), k * m)

        return gen

    if waveform == "ddam":
        num_paths = params["num_paths"]
        array = ArrayConfig(params["mt"])
        block = params.get("block_len", 512)
        criterion = params.get("criterion", "zf")
        max_delay = params.get("max_delay_samples", 32)
        doppler = params.get("max_doppler_hz", 0.0)

        def gen(rngs):
            for chunk in _chunks(rngs, array.num_tx_antennas, block + max_delay):
                paths, symbols = [], []
                for rng in chunk:
                    paths.append(draw_random_paths(
                        array, num_paths, (0.0, max_delay / PAPR_SAMPLE_RATE),
                        (-doppler, doppler), rng.integers(2 ** 63)))
                    symbols.append(random_qpsk(rng, block))
                aods, delays, dopplers, gains = (np.array(v) for v in zip(*paths))
                psi = PathStateInfo(array, PAPR_SAMPLE_RATE, delays * PAPR_SAMPLE_RATE,
                                    dopplers, aods, gains)
                beams = path_beamformers(psi, criterion, noise_var=0.01)
                yield path_based_blocks(np.array(symbols), psi, beams)

        return gen

    raise ValueError(f"no PAPR generator for waveform {waveform!r}")
