import numpy as np
import pytest

import wavelab.link as link
from wavelab.channel import (
    ArrayConfig,
    BeamFrame,
    Frame,
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
from wavelab.ofdm import OfdmConfig
from wavelab.otfs import OtfsConfig

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


@pytest.mark.parametrize("runner, args, options, frame_symbols", RUNNERS,
                         ids=[r[0] for r in RUNNERS])
def test_channel_gets_beam_streams(monkeypatch, runner, args, options, frame_symbols):
    # DDAM sends one stream per path beam and OTFS one beam; only MISO OFDM,
    # whose precoder changes per subcarrier, sends M_t antenna rows.
    sent = []

    def spy(channel, tx, *rest, **kwargs):
        sent.append(tx)
        return apply_channel(channel, tx, *rest, **kwargs)

    monkeypatch.setattr(link, "apply_channel", spy)
    channel = windowed_channel()
    getattr(link, runner)(channel, *args, rng_seed=3, **options)
    assert len(sent) == len(frame_symbols)
    if runner == "run_ofdm_ber":
        assert all(type(tx) is Frame and tx.num_antennas == 16 for tx in sent)
    else:
        assert all(type(tx) is BeamFrame and tx.num_antennas == 16
                   and len(tx.streams) <= channel.num_paths for tx in sent)
    if runner == "run_otfs_ber":
        assert all(len(tx.streams) == 1 for tx in sent)


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
