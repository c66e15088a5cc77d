import numpy as np
import pytest

import wavelab.link as link
from wavelab.channel import (
    DEFAULT_HALF_LENGTH,
    ArrayConfig,
    BeamFrame,
    Frame,
    add_awgn,
    apply_channel,
    sample_random_channel,
)
from wavelab.ddam import (
    AlignmentWindow,
    build_compensation_plan,
    ddam_demodulate,
    equivalent_channel,
    path_beamformers,
    psi_from_channel,
)
from wavelab.metrics import count, counting, fft_multiplies
from wavelab.modulation import qpsk_demodulate, qpsk_modulate
from wavelab.ofdm import OfdmConfig, _add_cyclic_prefix
from wavelab.otfs import OtfsConfig, otfs_modulate_isfft

RATE = 1e6


def windowed_channel():
    """Three paths with fractional delays up to 16 samples, no Doppler."""
    return sample_random_channel(ArrayConfig(16), 3, (0, 16e-6), (0, 0), 7,
                                 sample_rate=RATE)


RUNNERS = [
    ("run_ofdm_ber", (OfdmConfig(16, 4, RATE), 8.0, 3), {}, [48]),
    ("run_ddam_ber", (8.0, 250), {"block_len": 100}, [100, 100, 50]),
    ("run_otfs_ber", (OtfsConfig(4, 8, 8, RATE), 8.0, 2), {}, [32, 32]),
    ("run_ddam_ofdm_ber", (OfdmConfig(16, 4, RATE), 8.0, 3), {"window": AlignmentWindow(4)},
     [48]),
    ("run_ddam_otfs_ber", (OtfsConfig(4, 8, 8, RATE), 8.0, 2), {}, [32, 32]),
]


@pytest.mark.parametrize("runner, args, options, frame_symbols", RUNNERS,
                         ids=[r[0] for r in RUNNERS])
def test_receive_sees_only_the_frame_and_its_symbol_count(monkeypatch, runner, args,
                                                          options, frame_symbols):
    seen = []
    run_frames = link._run_frames

    def spy(channel, snr_db, rngs, sizes, transmit, receive, *rest, **kwargs):
        def recording(*received):
            seen.append(received)
            return receive(*received)

        return run_frames(channel, snr_db, rngs, sizes, transmit, recording, *rest, **kwargs)

    monkeypatch.setattr(link, "_run_frames", spy)
    getattr(link, runner)(windowed_channel(), *args, rng_seed=3, **options)
    assert [tuple(type(x) for x in r) for r in seen] == [(Frame, int)] * len(frame_symbols)
    assert [n for _, n in seen] == frame_symbols


def integers_run_frames(channel, snr_db, rngs, frame_symbols, transmit, receive,
                        equalize=None, half_length=DEFAULT_HALF_LENGTH):
    """The frame loop as it was before random_qpsk drew its symbols: one
    integers(0, 2) draw per bit, then qpsk_modulate.  It sends through
    link.apply_channel, as the runners' loop does."""
    errors = total = 0
    held_bits, held = [], []
    for rng, n in zip(rngs, frame_symbols):
        bits = rng.integers(0, 2, size=2 * n)
        symbols = qpsk_modulate(bits)
        clean = link.apply_channel(channel, transmit(symbols), half_length=half_length)
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
    return link.LinkResult(bits=total, bit_errors=errors)


@pytest.mark.parametrize("runner, args, options, frame_symbols", RUNNERS,
                         ids=[r[0] for r in RUNNERS])
def test_frames_carry_the_integers_bits(monkeypatch, runner, args, options,
                                        frame_symbols):
    # At 0 dB every runner makes bit errors, so equal counts and equal sent
    # frames show the bits and symbols are the old loop's, frame by frame.
    args = tuple(0.0 if isinstance(a, float) else a for a in args)  # the SNR
    results, sent = [], []
    for run_frames in (link._run_frames, integers_run_frames):
        frames = []

        def spy(channel, tx, *rest, **kwargs):
            frames.append(tx.streams)
            return apply_channel(channel, tx, *rest, **kwargs)

        monkeypatch.setattr(link, "apply_channel", spy)
        monkeypatch.setattr(link, "_run_frames", run_frames)
        results.append(getattr(link, runner)(windowed_channel(), *args, rng_seed=3,
                                             **options))
        sent.append(frames)
    assert results[0] == results[1] and results[0].bit_errors > 0
    assert len(sent[0]) == len(sent[1]) == len(frame_symbols)
    assert all(np.array_equal(a, b) for a, b in zip(*sent))


# The public transmitter each DDAM-family runner builds its frames with.
TRANSMITTERS = {"run_ddam_ber": "ddam_modulate",
                "run_ddam_ofdm_ber": "ddam_ofdm_transmit_with_link",
                "run_ddam_otfs_ber": "ddam_otfs_transmit"}


@pytest.mark.parametrize("runner, args, options, frame_symbols", RUNNERS,
                         ids=[r[0] for r in RUNNERS])
def test_channel_gets_beam_streams(monkeypatch, runner, args, options, frame_symbols):
    # DDAM sends one stream per path beam, OTFS one beam and MISO OFDM one
    # stream per steering vector.  A DDAM-family runner calls its
    # transmitter once per frame and sends that very frame.
    sent = []
    made = {name: [] for name in TRANSMITTERS.values()}

    def spy(channel, tx, *rest, **kwargs):
        sent.append(tx)
        return apply_channel(channel, tx, *rest, **kwargs)

    def recording(name, transmit):
        def record(*a, **kw):
            made[name].append(transmit(*a, **kw))
            return made[name][-1]
        return record

    monkeypatch.setattr(link, "apply_channel", spy)
    for name in made:
        monkeypatch.setattr(link, name, recording(name, getattr(link, name)))
    channel = windowed_channel()
    getattr(link, runner)(channel, *args, rng_seed=3, **options)
    assert len(sent) == len(frame_symbols)
    assert all(type(tx) is BeamFrame and tx.num_antennas == 16
               and len(tx.streams) <= channel.num_paths for tx in sent)
    if runner == "run_ofdm_ber":
        assert all(np.array_equal(tx.beams, channel.steering_matrix)
                   and len(tx.streams) == channel.num_paths for tx in sent)
    if runner == "run_otfs_ber":
        assert all(len(tx.streams) == 1 for tx in sent)
    assert {name: len(txs) for name, txs in made.items()} == {
        name: len(sent) if name == TRANSMITTERS.get(runner) else 0 for name in made}
    if runner in TRANSMITTERS:
        assert all(a is b for a, b in zip(sent, made[TRANSMITTERS[runner]]))


@pytest.mark.parametrize("options", [
    {},
    {"mode": "tap_based", "half_length": 8},
    {"window": AlignmentWindow(4, 0.0)},
    {"criterion": "mmse", "window": AlignmentWindow(8, 0.0)},
])
def test_ddam_detects_at_the_equivalent_channel(monkeypatch, options):
    calls = []

    def recording(rx, gain, frame_cfg, dominant_index):
        calls.append((gain, frame_cfg.block_len, dominant_index))
        return ddam_demodulate(rx, gain, frame_cfg, dominant_index)

    monkeypatch.setattr(link, "ddam_demodulate", recording)
    channel = windowed_channel()
    snr_db = 10.0
    link.run_ddam_ber(channel, snr_db, 300, rng_seed=1, block_len=200, **options)
    psi = psi_from_channel(channel)
    beams = path_beamformers(psi, options.get("criterion", "zf"),
                             noise_var=10 ** (-snr_db / 10))
    half_length = options.get("half_length", 32)
    plan = build_compensation_plan(psi, mode=options.get("mode", "path_based"),
                                   window=options.get("window"), half_length=half_length)
    eq = equivalent_channel(channel, psi, beams, plan=plan, half_length=half_length)
    assert calls == [(eq.dominant_gain, 200, eq.dominant_tap_index),
                     (eq.dominant_gain, 100, eq.dominant_tap_index)]


@pytest.mark.parametrize("w_tau", [0, 4, 8])
def test_windowed_ddam_reads_the_aimed_lag(w_tau):
    # A w_tau window aims every term at n_max - w_tau // 2; a receiver that
    # reads at n_max sees BER near 0.45 at w_tau 4 and 8 on this channel.
    result = link.run_ddam_ber(windowed_channel(), 10.0, 20_000, rng_seed=1,
                               window=AlignmentWindow(w_tau, 0.0))
    assert result.bits == 40_000
    assert result.ber < 0.05


def per_antenna_isfft(grid, weights, cfg):
    """The ISFFT chain with its own per-antenna Heisenberg IFFTs."""
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    mt = weights.shape[0]
    count(m * fft_multiplies(k) + k * fft_multiplies(m))  # ISFFT
    count(mt * k * m)                                     # per-bin weights
    count(mt * m * fft_multiplies(k))                     # per-antenna IFFTs
    tf = np.fft.ifft(np.fft.fft(grid, axis=0, norm="ortho"), axis=1, norm="ortho")
    weighted = weights[:, :, np.newaxis] * tf[np.newaxis, :, :]
    chunks = np.fft.ifft(weighted, axis=1, norm="ortho")
    return _add_cyclic_prefix(chunks.transpose(0, 2, 1).reshape(mt, k * m), cfg.cp_len)


@pytest.mark.parametrize("cfg, rows", [(OtfsConfig(4, 8, 8, RATE), 16),
                                       (OtfsConfig(16, 32, 0, RATE), 3),
                                       (OtfsConfig(1, 4, 4, RATE), 1)])
def test_isfft_modulator_matches_per_antenna_oracle(cfg, rows):
    rng = np.random.default_rng(40)
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    grid = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    weights = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
    with counting() as ops:
        frame = otfs_modulate_isfft(grid, cfg, weights)
    with counting() as oracle_ops:
        oracle = per_antenna_isfft(grid, weights, cfg)
    assert frame.samples.shape == (rows, k * m + cfg.cp_len)
    assert np.max(np.abs(frame.samples - oracle)) < 1e-12
    assert sum(ops) == sum(oracle_ops)
