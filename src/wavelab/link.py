"""End-to-end link runners: per-waveform BER chains and PAPR generators.

These tie the modems to the channel: MISO OFDM with per-subcarrier MRT and
genie one-tap equalization frozen at each symbol's center time, DDAM
read at its equivalent channel's dominant tap, OTFS with a wideband MRT
beam and DD-domain MMSE solved as a banded time-domain system (the DD
matrix H and the blocks of C^H C, C the time matrix it comes from, built
once per curve when the beams do not depend on the noise; one factoring
per BER point), and the combined pipelines.  Every BER runner is a
(transmit, receive, frames) triple fed to one frame loop: draw QPSK
symbols, transmit, apply_channel, add_awgn, receive the noisy frame, count
bit errors.  Every transmitter returns a BeamFrame: the DDAM family sends
L path streams on their beams, OTFS one stream on its beam, and MISO OFDM
L streams on the L steering vectors, since its per-subcarrier MRT lies in
their span: ofdm_modulate's rows, weighted by the (L x K) precoder.  The
PAPR generators draw the random values of a group of trials in stacked
calls on the group's generator and run everything after the draws over
chunks of trials filled across groups; OFDM and OTFS bodies are one
otfs_samples call per chunk, an OFDM symbol as a 1 x K grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    DEFAULT_HALF_LENGTH,
    ArrayConfig,
    BeamFrame,
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
    ddam_otfs_receive,
    ddam_otfs_transmit,
)
from .ddam import (
    NOISE_FREE_CRITERIA,
    AlignmentWindow,
    DdamFrameConfig,
    PathStateInfo,
    build_compensation_plan,
    ddam_chain_callable,
    ddam_demodulate,
    ddam_modulate,
    equivalent_channel,
    path_based_blocks,
    path_beamformers,
    psi_from_channel,
)
from .modulation import qpsk_demodulate, random_qpsk
from .ofdm import OfdmConfig, ofdm_demodulate, ofdm_equalize_one_tap, ofdm_modulate
from .otfs import (
    OtfsConfig,
    banded_gram,
    dd_effective_matrix,
    mmse_equalize_dd,
    otfs_modem,
    otfs_samples,
    time_matrix,
)

# A PAPR chunk holds as many consecutive trials as fit about this many
# bytes of (trials x rows x N) complex samples.  The trials run at
# PAPR_SAMPLE_RATE.
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

    Per frame: draw the symbols (random_qpsk) and read their bits,
    transmit(symbols) -> BeamFrame, apply_channel, add_awgn (seeded from
    the frame's generator), then receive(noisy, n) with the frame's symbol
    count n.  Without equalize, receive returns the frame's equalized
    symbols and their bit errors are counted frame by frame, so no frame is
    held.  With equalize, the point's receive outputs are held and
    equalize(list of them) returns every frame's equalized symbols,
    stacked, from one call.
    """
    errors = total = 0
    held_bits, held = [], []
    for rng, n in zip(rngs, frame_symbols):
        symbols = random_qpsk(rng, n)
        bits = qpsk_demodulate(symbols)
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
    """Per-subcarrier MRT toward the composite response, in path coordinates.

    Returns the (L x K) path-domain precoder C = conj(g * F), g the path
    gains and F their delay filters' K-point responses, each column scaled
    so that the antenna precoder steering_matrix @ C has unit columns.
    """
    taps = channel.scalar_taps()
    c = np.conj(taps.gains[:, np.newaxis] * taps.frequency_response(cfg.num_subcarriers))
    return c / np.linalg.norm(channel.steering_matrix @ c, axis=0)


def ofdm_genie_response(channel: MultipathChannel, weights: np.ndarray,
                        cfg: OfdmConfig, symbol_index) -> np.ndarray:
    """One-tap response per subcarrier, channel frozen at each symbol center.

    weights is the (L x K) path-domain precoder of ofdm_miso_precoder.
    symbol_index is one index, giving a (K,) response, or an array of S
    indices, giving an (S x K) response with one row per index.
    """
    k, cp = cfg.num_subcarriers, cfg.cp_len
    taps = channel.scalar_taps()
    t_center = np.asarray(symbol_index) * (k + cp) + cp + k / 2.0
    ramp = np.exp(2j * np.pi * taps.dopplers * t_center[..., np.newaxis]
                  / channel.sample_rate)
    cross = channel.steering_matrix.conj().T @ channel.steering_matrix @ weights
    return (ramp * taps.gains) @ (taps.frequency_response(k) * cross)


def run_ofdm_ber(channel: MultipathChannel, cfg: OfdmConfig, snr_db: float,
                 num_symbols: int, rng_seed) -> LinkResult:
    """Uncoded QPSK over MISO OFDM with per-symbol genie equalization."""
    k, stride = cfg.num_subcarriers, cfg.num_subcarriers + cfg.cp_len
    weights = ofdm_miso_precoder(channel, cfg)

    def transmit(symbols):
        streams = ofdm_modulate(symbols.reshape(num_symbols, k), cfg, weights)
        return BeamFrame(channel.steering_matrix, streams.samples, cfg.sample_rate)

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
        return ddam_modulate(symbols, psi, beams, plan=plan)

    def receive(noisy, n):
        return ddam_demodulate(noisy, eq.dominant_gain, DdamFrameConfig(n),
                               eq.dominant_tap_index)

    blocks = [min(block_len, num_symbols - start)
              for start in range(0, num_symbols, block_len)]
    return _run_frames(channel, snr_db, _spawned_rngs(rng_seed, len(blocks)),
                       blocks, transmit, receive, half_length=half_length)


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


def _mmse_operators(c: np.ndarray, cfg: OtfsConfig, variant: str) -> tuple:
    """(H, banded_gram(C)) of a time matrix C, which is not kept."""
    return dd_effective_matrix(c, cfg, variant=variant), banded_gram(c)


def run_otfs_ber(channel: MultipathChannel, cfg: OtfsConfig, snr_db: float,
                 num_frames: int, rng_seed, variant: str = "zak") -> LinkResult:
    """Uncoded QPSK over MISO OTFS with DD-domain MMSE equalization.

    H and the blocks of C^H C are kept on the channel, built once per curve
    from one time matrix C of the beamformed channel.
    """
    beam = otfs_miso_beam(channel)
    h_dd, gram = channel.cached(("otfs", cfg, variant), lambda: _mmse_operators(
        time_matrix(otfs_scalar_taps(channel, beam), cfg), cfg, variant))
    modulate, demodulate = otfs_modem(variant)

    def transmit(symbols):
        grid = symbols.reshape(cfg.num_delay_bins, cfg.num_doppler_bins)
        return BeamFrame(beam[:, np.newaxis], modulate(grid, cfg).samples, cfg.sample_rate)

    def receive(noisy, n):
        return demodulate(noisy, cfg)

    def equalize(grids):
        return mmse_equalize_dd(np.array(grids), h_dd, gram, 10 ** (-snr_db / 10),
                                variant=variant)

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

    H and the blocks of C^H C, from one time matrix C of the compensated
    chain, are kept on the channel, built once per curve, unless the beams
    depend on the noise (rzf, mmse): then they are built per point.
    """
    psi = psi_from_channel(channel)
    noise_var = 10 ** (-snr_db / 10)
    beams = path_beamformers(psi, criterion, noise_var=noise_var)
    plan = build_compensation_plan(psi, mode=mode, window=window,
                                   half_length=half_length)

    def build():
        chain = ddam_chain_callable(channel, psi, beams, plan, half_length)
        return _mmse_operators(time_matrix(chain, cfg), cfg, variant)

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


def _chunks(stacks, rows: int, width: int):
    """Chunks of consecutive trials from per-group stacks of draws.

    stacks yields one tuple of arrays per group, trials on axis 0.  Each
    chunk holds as many trials as fill about PAPR_CHUNK_BYTES of (trials x
    rows x width) complex samples, filled across group boundaries; only the
    last chunk may be shorter.  The groups a chunk needs are joined by one
    concatenation when enough have arrived, and a chunk that is one whole
    group is that group's arrays, not a copy.
    """
    size = max(1, PAPR_CHUNK_BYTES // (16 * rows * width))
    held, count = [], 0
    for stack in stacks:
        held.append(stack)
        count += len(stack[0])
        if count < size:
            continue
        joined = _join(held)
        for start in range(0, count - size + 1, size):
            yield tuple(a[start:start + size] for a in joined)
        rest = count % size
        held, count = ([tuple(a[-rest:] for a in joined)] if rest else []), rest
    if held:
        yield _join(held)


def _join(stacks: list) -> tuple:
    """The stacks' arrays concatenated along axis 0; one stack as it is."""
    return stacks[0] if len(stacks) == 1 else tuple(map(np.concatenate, zip(*stacks)))


def make_papr_generator(waveform: str, **params):
    """Build a seeded chunk generator of PAPR trials (guard/CP excluded).

    The generator takes papr_ccdf's (Generator, count) groups and yields
    (samples (T x rows x N), span (T,)) chunks.  A group's random values
    are stacked draws on its generator: one random_qpsk call for all its
    trials, and for DDAM first one draw_random_paths stack.  The trials
    then run in chunks of T, T sized from PAPR_CHUNK_BYTES and filled
    across groups; everything after the draws runs once per chunk, and
    each trial's samples are bit-identical for every chunk size.  OFDM and
    OTFS samples equal the one-trial chain's on the draws bit for bit; a
    DDAM trial's PAPR lies within 1e-12 dB of the one-trial ddam_modulate
    chain's.

    ofdm: one OFDM symbol body of K subcarriers, the Zak transform of a
    1 x K grid.  otfs_*: one frame body.
    ddam: one block over a fresh random channel, all antennas, over its
    active span N + max kappa within a fixed width N + ceil(max_delay_samples);
    one path_beamformers and one path_based_blocks call per chunk.
    """
    if waveform in ("ofdm", "otfs_zak", "otfs_isfft"):
        if waveform == "ofdm":
            k, m, variant = 1, params["num_subcarriers"], "zak"
        else:
            cfg = OtfsConfig(num_doppler_bins=params["num_doppler_bins"],
                             num_delay_bins=params["num_delay_bins"],
                             cp_len=0, sample_rate=PAPR_SAMPLE_RATE)
            (k, m), variant = cfg.grid_shape, waveform.split("_")[1]

        def gen(groups):
            draws = ((random_qpsk(rng, count * k * m).reshape(count, k, m),)
                     for rng, count in groups)
            for grids, in _chunks(draws, 1, k * m):
                x = otfs_samples(grids, variant)
                yield x[:, np.newaxis, :], np.full(len(x), k * m)

        return gen

    if waveform == "ddam":
        num_paths = params["num_paths"]
        array = ArrayConfig(params["mt"])
        block = params.get("block_len", 512)
        criterion = params.get("criterion", "zf")
        max_delay = params.get("max_delay_samples", 32)
        doppler = params.get("max_doppler_hz", 0.0)
        width = block + math.ceil(max_delay)  # every span fits; fixed, so no chunk moves bits

        def gen(groups):
            draws = ((*draw_random_paths(array, num_paths,
                                         (0.0, max_delay / PAPR_SAMPLE_RATE),
                                         (-doppler, doppler), rng, count),
                      random_qpsk(rng, count * block).reshape(count, block))
                     for rng, count in groups)
            for aods, delays, dopplers, gains, symbols in _chunks(
                    draws, array.num_tx_antennas, width):
                psi = PathStateInfo(array, PAPR_SAMPLE_RATE, delays * PAPR_SAMPLE_RATE,
                                    dopplers, aods, gains)
                beams = path_beamformers(psi, criterion, noise_var=0.01)
                yield path_based_blocks(symbols, psi, beams, width)

        return gen

    raise ValueError(f"no PAPR generator for waveform {waveform!r}")
