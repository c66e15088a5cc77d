import numpy as np
import pytest

from wavelab.channel import (
    ArrayConfig,
    Frame,
    PathParams,
    ScalarChannel,
    add_awgn,
    apply_channel,
    build_channel,
    sample_separated_aods,
    steering_vector,
)
from wavelab.combos import (
    ddam_ofdm_link,
    ddam_ofdm_receive,
    ddam_ofdm_transmit_with_link,
    ddam_otfs_effective_matrix,
    ddam_otfs_receive,
    ddam_otfs_transmit,
    dominant_entries_per_column,
)
from wavelab.ddam import (
    AlignmentWindow,
    DdamFrameConfig,
    build_compensation_plan,
    ddam_chain_callable,
    ddam_modulate,
    equivalent_channel,
    path_beamformers,
    psi_from_channel,
)
from wavelab.metrics import ber
from wavelab.modulation import qpsk_demodulate, qpsk_modulate, qpsk_slice, random_qpsk
from wavelab.ofdm import OfdmConfig, ofdm_demodulate, ofdm_equalize_one_tap, ofdm_modulate
from wavelab.otfs import (
    OtfsConfig,
    banded_gram,
    dd_effective_matrix,
    mmse_equalize_dd,
    otfs_modem,
    otfs_modulate_zak,
    time_matrix,
)


RATE = 1e6


def make_scenario(rng, delays_samples, dopplers=None, mt=16):
    num = len(delays_samples)
    dopplers = dopplers if dopplers is not None else [0.0] * num
    aods = sample_separated_aods(rng, num, ArrayConfig(mt))
    gains = rng.standard_normal(num) + 1j * rng.standard_normal(num)
    gains /= np.linalg.norm(gains)
    paths = [PathParams(g, d / RATE, f, a)
             for g, d, f, a in zip(gains, delays_samples, dopplers, aods)]
    channel = build_channel(ArrayConfig(mt), paths, RATE)
    psi = psi_from_channel(channel)
    beams = path_beamformers(psi, "zf")
    return channel, psi, beams


def ddam_otfs_operators(channel, psi, beams, cfg, plan, variant="zak"):
    """(H, banded_gram(C)) of the compensated chain's time matrix C."""
    c = time_matrix(ddam_chain_callable(channel, psi, beams, plan), cfg)
    return dd_effective_matrix(c, cfg, variant), banded_gram(c)


def dense_mmse(grids, h, noise_var):
    """Oracle: the dense DD MMSE, one solve against H^H H + noise_var I per grid."""
    gram = h.conj().T @ h + noise_var * np.eye(len(h))
    return np.stack([np.linalg.solve(gram, (h.conj().T @ g.reshape(-1))[:, np.newaxis])
                     .reshape(g.shape) for g in grids])


class TestDdamOfdm:
    def test_single_subcarrier_degenerates_to_ddam(self):
        rng = np.random.default_rng(0)
        channel, psi, beams = make_scenario(rng, [0, 3, 7])
        eq = equivalent_channel(channel, psi, beams)
        cfg = OfdmConfig(1, 0, RATE)
        s = random_qpsk(rng, 40).reshape(-1, 1)
        link = ddam_ofdm_link(psi, beams, cfg, eq)
        frame = ddam_ofdm_transmit_with_link(s, link)
        rotated = (link.subcarrier_weights[0] * s[:, 0])
        plain = ddam_modulate(rotated, psi, beams, DdamFrameConfig(40))
        assert np.max(np.abs(frame.beams @ frame.streams - plain.beams @ plain.streams)) < 1e-12

    @pytest.mark.parametrize("k", [16, 64])
    def test_ideal_zf_recovery(self, k):
        rng = np.random.default_rng(k)
        channel, psi, beams = make_scenario(rng, [2, 6, 11], dopplers=[900.0, -400.0, 150.0])
        eq = equivalent_channel(channel, psi, beams)
        cfg = OfdmConfig(k, 0, RATE)
        link = ddam_ofdm_link(psi, beams, cfg, eq)
        symbols = random_qpsk(rng, 4 * k).reshape(4, k)  # row 0 doubles as pilot
        tx = ddam_ofdm_transmit_with_link(symbols, link)
        rx = apply_channel(channel, tx)
        out = ddam_ofdm_receive(rx, link, 4, pilot_symbol=symbols[0])
        assert np.max(np.abs(out - symbols)) < 1e-9

    def fractional_scenario(self):
        # strong fractional paths; half_length=2 leakage clusters land in [46, 50]
        rng = np.random.default_rng(8)
        aods = sample_separated_aods(rng, 3, ArrayConfig(16))
        gains = np.array([0.2, 0.72 * np.exp(0.4j), 0.72 * np.exp(-1.1j)])
        gains /= np.linalg.norm(gains)
        paths = [PathParams(g, d / RATE, 0.0, a)
                 for g, d, a in zip(gains, [50.0, 48.45, 13.45], aods)]
        channel = build_channel(ArrayConfig(16), paths, RATE)
        psi = psi_from_channel(channel)
        return channel, psi, path_beamformers(psi, "zf")

    def test_fractional_window_covers_leakage(self):
        rng = np.random.default_rng(7)
        channel, psi, beams = self.fractional_scenario()
        window = AlignmentWindow(w_tau_samples=4)
        plan = build_compensation_plan(psi, window=window, half_length=2)
        eq = equivalent_channel(channel, psi, beams, plan=plan, half_length=2)
        assert eq.delay_spread_samples <= 4
        cfg = OfdmConfig(16, 4, RATE)
        link = ddam_ofdm_link(psi, beams, cfg, eq, window=window, half_length=2)
        symbols = random_qpsk(rng, 6 * 16).reshape(6, 16)
        tx = ddam_ofdm_transmit_with_link(symbols, link)
        rx = apply_channel(channel, tx, half_length=2)
        out = ddam_ofdm_receive(rx, link, 6, pilot_symbol=symbols[0])
        assert np.max(np.abs(out - symbols)) < 1e-6

    def test_fractional_without_cp_has_error_floor(self):
        channel, psi, beams = self.fractional_scenario()
        eq = equivalent_channel(channel, psi, beams, half_length=2)
        cfg = OfdmConfig(16, 0, RATE)
        link = ddam_ofdm_link(psi, beams, cfg, eq, half_length=2)
        n_sym = 150
        bits = np.random.default_rng(9).integers(0, 2, size=2 * 16 * n_sym)
        from wavelab.modulation import qpsk_modulate
        symbols = qpsk_modulate(bits).reshape(n_sym, 16)
        tx = ddam_ofdm_transmit_with_link(symbols, link)
        rx = apply_channel(channel, tx, half_length=2)
        out = ddam_ofdm_receive(rx, link, n_sym, pilot_symbol=symbols[0])
        measured = ber(qpsk_demodulate(out[1:].ravel()), bits[2 * 16:])
        assert measured >= 1e-3

    def test_delays_inside_window_noiseless(self):
        # n_max = 2 < w_tau = 4: the residual window starts at sample 0
        rng = np.random.default_rng(12)
        channel, psi, beams = make_scenario(rng, [0, 1, 2], dopplers=[300.0, -700.0, 50.0])
        window = AlignmentWindow(w_tau_samples=4)
        eq = equivalent_channel(channel, psi, beams, window=window)
        cfg = OfdmConfig(16, 4, RATE)
        link = ddam_ofdm_link(psi, beams, cfg, eq, window=window)
        assert link.align_start == 0
        n_sym = 20
        bits = rng.integers(0, 2, size=2 * 16 * n_sym)
        from wavelab.modulation import qpsk_modulate
        symbols = qpsk_modulate(bits).reshape(n_sym, 16)
        rx = apply_channel(channel, ddam_ofdm_transmit_with_link(symbols, link))
        out = ddam_ofdm_receive(rx, link, n_sym, pilot_symbol=symbols[0])
        assert ber(qpsk_demodulate(out.ravel()), bits) == 0.0

    def test_pilot_fit_ignores_near_null_subcarrier(self):
        k, null_bin = 16, 5
        channel, link = near_null_scenario(k, null_bin)
        magnitude = np.abs(link.subcarrier_response)
        assert magnitude[null_bin] < 1e-2 * np.median(magnitude)

        rng = np.random.default_rng(14)
        symbols = random_qpsk(rng, 30 * k).reshape(30, k)
        tx = ddam_ofdm_transmit_with_link(symbols, link)
        rx = add_awgn(apply_channel(channel, tx), 25.0, rng_seed=15)
        out = ddam_ofdm_receive(rx, link, 30, pilot_symbol=symbols[0])
        others = np.arange(k) != null_bin
        assert np.array_equal(qpsk_slice(out[1:, others]), symbols[1:, others])

    def test_cp_shorter_than_window_rejected(self):
        rng = np.random.default_rng(10)
        channel, psi, beams = make_scenario(rng, [0, 5])
        eq = equivalent_channel(channel, psi, beams)
        with pytest.raises(ValueError, match="window"):
            ddam_ofdm_link(psi, beams, OfdmConfig(16, 2, RATE), eq,
                           window=AlignmentWindow(w_tau_samples=4))

    def test_unit_transmit_power(self):
        rng = np.random.default_rng(11)
        channel, psi, beams = make_scenario(rng, [1, 4, 9])
        eq = equivalent_channel(channel, psi, beams)
        cfg = OfdmConfig(32, 4, RATE)
        link = ddam_ofdm_link(psi, beams, cfg, eq)
        symbols = random_qpsk(rng, 3 * 32).reshape(3, 32)
        tx = ddam_ofdm_transmit_with_link(symbols, link)
        active = 3 * (32 + 4) + link.plan.max_kappa
        power = np.sum(np.abs((tx.beams @ tx.streams)[:, :active]) ** 2) / active
        assert power == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_ber_zero_over_random_scenarios(self):
        # 50 random on-grid scenarios, QPSK over DDAM-OFDM, no noise
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            num_paths = int(rng.integers(2, 5))
            delays = rng.integers(0, 10, size=num_paths)
            channel, psi, beams = make_scenario(rng, delays, mt=16)
            eq = equivalent_channel(channel, psi, beams)
            cfg = OfdmConfig(16, 0, RATE)
            link = ddam_ofdm_link(psi, beams, cfg, eq)
            symbols = random_qpsk(rng, 2 * 16).reshape(2, 16)
            rx = apply_channel(channel, ddam_ofdm_transmit_with_link(symbols, link))
            out = ddam_ofdm_receive(rx, link, 2)
            assert np.array_equal(qpsk_slice(out), symbols), f"scenario {trial}"


def per_symbol_receive(rx, link, num_symbols, pilot_symbol=None):
    """The per-symbol ddam_ofdm_receive loop."""
    stream = rx.row()[link.align_start:]
    stride = link.symbol_stride
    out = np.empty((num_symbols, link.ofdm_cfg.num_subcarriers), dtype=np.complex128)
    effective = link.subcarrier_response * link.subcarrier_weights
    for i in range(num_symbols):
        bins = ofdm_demodulate(stream[i * stride:(i + 1) * stride], link.ofdm_cfg)
        out[i], _ = ofdm_equalize_one_tap(bins, effective)
    if pilot_symbol is not None:
        pilot = np.asarray(pilot_symbol, dtype=np.complex128)
        fit = np.abs(effective) ** 2 * pilot.conj()
        out /= (fit @ out[0]) / (fit @ pilot)
    return out


def near_null_scenario(k=16, null_bin=5):
    """Two residual taps one sample apart; subcarrier null_bin 60 dB down."""
    aods = sample_separated_aods(np.random.default_rng(13), 2, ArrayConfig(16))
    window = AlignmentWindow(w_tau_samples=2)

    def scenario(g2):
        paths = [PathParams(g, d / RATE, 0.0, a)
                 for g, d, a in zip([1.0, g2], [5, 6], aods)]
        channel = build_channel(ArrayConfig(16), paths, RATE)
        psi = psi_from_channel(channel)
        beams = path_beamformers(psi, "zf")
        return channel, psi, beams, equivalent_channel(channel, psi, beams,
                                                       window=window)

    taps = scenario(1.0)[3].taps[5:7]  # each tap is gain * |gain| * c_l
    ratio = -(1 - 1e-3) * np.exp(2j * np.pi * null_bin / k) * taps[0] / taps[1]
    channel, psi, beams, eq = scenario(np.sqrt(abs(ratio)) * np.exp(1j * np.angle(ratio)))
    link = ddam_ofdm_link(psi, beams, OfdmConfig(k, 4, RATE), eq, window=window)
    return channel, link


def doppler_scenario():
    rng = np.random.default_rng(40)
    channel, psi, beams = make_scenario(rng, [1, 4.5, 9], dopplers=[900.0, -600.0, 250.0])
    window = AlignmentWindow(w_tau_samples=4)
    eq = equivalent_channel(channel, psi, beams, window=window)
    return channel, ddam_ofdm_link(psi, beams, OfdmConfig(16, 4, RATE), eq, window=window)


class TestDdamOfdmSymbolBlocks:
    """The batched DDAM-OFDM transmitter and receiver against per-symbol loops."""

    def test_transmit_equals_stacked_rows(self):
        channel, link = doppler_scenario()
        symbols = random_qpsk(np.random.default_rng(41), 9 * 16).reshape(9, 16)
        stream = np.concatenate([
            ofdm_modulate(link.subcarrier_weights * row, link.ofdm_cfg).row()
            for row in symbols])
        ref = ddam_modulate(stream, link.psi, link.beams,
                            DdamFrameConfig(len(stream)), plan=link.plan)
        tx = ddam_ofdm_transmit_with_link(symbols, link)
        assert np.array_equal(tx.beams @ tx.streams, ref.beams @ ref.streams)

    @pytest.mark.parametrize("scenario,snr_db", [(doppler_scenario, 6.0),
                                                 (near_null_scenario, 25.0)])
    def test_receive_matches_per_symbol_loop(self, scenario, snr_db):
        channel, link = scenario()
        n_sym = 40
        rng = np.random.default_rng(42)
        bits = rng.integers(0, 2, size=2 * 16 * n_sym)
        symbols = qpsk_modulate(bits).reshape(n_sym, 16)
        tx = ddam_ofdm_transmit_with_link(symbols, link)
        rx = add_awgn(apply_channel(channel, tx), snr_db, rng_seed=43)
        ref = per_symbol_receive(rx, link, n_sym, pilot_symbol=symbols[0])
        out = ddam_ofdm_receive(rx, link, n_sym, pilot_symbol=symbols[0])
        assert np.array_equal(out, ref)
        errors = np.sum(qpsk_demodulate(out[1:].ravel()) != bits[2 * 16:])
        assert errors == np.sum(qpsk_demodulate(ref[1:].ravel()) != bits[2 * 16:])
        # a frame ending with the last symbol suffices; one sample less is refused
        end = link.align_start + n_sym * link.symbol_stride
        exact = Frame(rx.row()[:end], rx.sample_rate)
        assert np.array_equal(
            ddam_ofdm_receive(exact, link, n_sym, pilot_symbol=symbols[0]), out)
        with pytest.raises(ValueError, match="shorter"):
            ddam_ofdm_receive(Frame(rx.row()[:end - 1], rx.sample_rate), link, n_sym)

    def test_transmit_shape_errors(self):
        _, link = doppler_scenario()
        for bad in (np.zeros((3, 15)), np.zeros((3, 1)), np.zeros((2, 3, 16))):
            with pytest.raises(ValueError):
                ddam_ofdm_transmit_with_link(bad, link)


class TestDdamOtfs:
    def test_ideal_zf_matrix_is_dd_shift(self):
        rng = np.random.default_rng(12)
        channel, psi, beams = make_scenario(rng, [1, 4, 6], dopplers=[700.0, -300.0, 0.0])
        cfg = OtfsConfig(4, 8, 8, RATE)
        h = ddam_otfs_effective_matrix(channel, psi, beams, cfg, build_compensation_plan(psi))
        counts = dominant_entries_per_column(h)
        assert np.all(counts == 1)
        # matches the effective matrix of the single-tap equivalent channel
        eq = equivalent_channel(channel, psi, beams)
        single = ScalarChannel(((eq.dominant_gain, psi.n_max, 0.0),), RATE)
        h_ref = dd_effective_matrix(time_matrix(single, cfg), cfg)
        assert np.max(np.abs(h - h_ref)) < 1e-9 * np.max(np.abs(h_ref))

    def test_identity_equivalent_round_trip(self):
        rng = np.random.default_rng(13)
        channel, psi, beams = make_scenario(rng, [0], mt=4)
        cfg = OtfsConfig(4, 8, 0, RATE)
        grid = random_qpsk(rng, 32).reshape(8, 4)
        plan = build_compensation_plan(psi)
        h, gram = ddam_otfs_operators(channel, psi, beams, cfg, plan)
        tx = ddam_otfs_transmit(grid, psi, beams, cfg, plan)
        rx = apply_channel(channel, tx)
        out = ddam_otfs_receive([rx], h, cfg, gram, 0.0)[0]
        # the transmit power normalization is a real positive scalar
        scale = out[0, 0] / grid[0, 0]
        assert abs(scale.imag) < 1e-9
        assert np.max(np.abs(out / scale - grid)) < 1e-9

    def test_end_to_end_hard_decisions(self):
        rng = np.random.default_rng(14)
        channel, psi, beams = make_scenario(rng, [2, 5], dopplers=[450.0, -800.0])
        cfg = OtfsConfig(4, 8, 8, RATE)
        grid = random_qpsk(rng, 32).reshape(8, 4)
        plan = build_compensation_plan(psi)
        h, gram = ddam_otfs_operators(channel, psi, beams, cfg, plan)
        rx = apply_channel(channel, ddam_otfs_transmit(grid, psi, beams, cfg, plan))
        out = ddam_otfs_receive([rx], h, cfg, gram, 0.0)[0]
        assert np.array_equal(qpsk_slice(out), grid)

    def test_truncated_frame_rejected(self):
        # the guard and the channel tail only lengthen a received frame, so
        # one shorter than CP plus body is an error, not a frame to pad
        rng = np.random.default_rng(14)
        channel, psi, beams = make_scenario(rng, [2, 5])
        cfg = OtfsConfig(4, 8, 8, RATE)
        plan = build_compensation_plan(psi)
        h, gram = ddam_otfs_operators(channel, psi, beams, cfg, plan)
        grid = random_qpsk(rng, 32).reshape(8, 4)
        rx = apply_channel(channel, ddam_otfs_transmit(grid, psi, beams, cfg, plan))
        short = Frame(rx.samples[:, :cfg.frame_len + cfg.cp_len - 1], RATE)
        with pytest.raises(ValueError):
            ddam_otfs_receive([rx, short], h, cfg, gram, 0.0)

    def test_equalizer_bandwidth_below_plain_otfs(self):
        # residual windows leave the DDAM matrix sparser than plain OTFS
        for trial in range(5):
            rng = np.random.default_rng(200 + trial)
            num_paths = int(rng.integers(2, 4))
            delays = rng.integers(0, 6, size=num_paths).astype(float)
            res = RATE / 64  # Doppler bin width of the 8x8 grid
            dopplers = rng.uniform(-2.3, 2.3, size=num_paths) * res
            channel, psi, beams = make_scenario(rng, delays, dopplers=list(dopplers))
            cfg = OtfsConfig(8, 8, 8, RATE)
            window = AlignmentWindow(w_nu_hz=res / 8)
            h_ddam = ddam_otfs_effective_matrix(channel, psi, beams, cfg,
                                                build_compensation_plan(psi, window=window))
            beam = steering_vector(psi.aod[np.argmax(np.abs(psi.gain_estimate))],
                                   channel.array)
            beam = beam / np.linalg.norm(beam)
            taps = tuple(
                (p.gain * (steering_vector(p.aod, channel.array).conj() @ beam),
                 p.delay_s * RATE, p.doppler_hz)
                for p in channel.paths)
            h_plain = dd_effective_matrix(time_matrix(ScalarChannel(taps, RATE), cfg), cfg)
            c_ddam = dominant_entries_per_column(h_ddam)
            c_plain = dominant_entries_per_column(h_plain)
            assert np.all(c_ddam <= c_plain), f"scenario {trial}"
            assert c_ddam.mean() < c_plain.mean(), f"scenario {trial}"

    def test_unit_transmit_power(self):
        rng = np.random.default_rng(15)
        channel, psi, beams = make_scenario(rng, [0, 3])
        cfg = OtfsConfig(4, 8, 4, RATE)
        grid = random_qpsk(rng, 32).reshape(8, 4)
        plan = build_compensation_plan(psi)
        tx = ddam_otfs_transmit(grid, psi, beams, cfg, plan)
        active = 32 + 4 + plan.max_kappa
        power = np.sum(np.abs((tx.beams @ tx.streams)[:, :active]) ** 2) / active
        assert power == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["path_based", "tap_based"])
    def test_one_plan_per_ber_point(self, monkeypatch, mode):
        import wavelab.combos
        import wavelab.ddam
        import wavelab.link

        builds = []

        def counting(*args, **kwargs):
            builds.append(None)
            return build_compensation_plan(*args, **kwargs)

        for module in (wavelab.ddam, wavelab.combos, wavelab.link):
            monkeypatch.setattr(module, "build_compensation_plan", counting)
        rng = np.random.default_rng(17)
        channel, _, _ = make_scenario(rng, [1.3, 4.6], dopplers=[300.0, -200.0], mt=8)
        cfg = OtfsConfig(4, 8, 8, RATE)
        counts = []
        for frames in (1, 3):
            builds.clear()
            wavelab.link.run_ddam_otfs_ber(channel, cfg, 10.0, frames, rng_seed=5,
                                           mode=mode)
            counts.append(len(builds))
        assert counts == [1, 1]

    @pytest.mark.parametrize("runner", ["run_otfs_ber", "run_ddam_otfs_ber"])
    def test_one_gram_per_curve_one_solve_per_point(self, monkeypatch, runner):
        import wavelab.combos
        import wavelab.link
        import wavelab.otfs

        builds, calls = [], []

        def counting(c):
            builds.append(None)
            return banded_gram(c)

        def recording(grids, h, gram, noise_var, variant="zak"):
            out = mmse_equalize_dd(grids, h, gram, noise_var, variant)
            calls.append((grids, h, noise_var, out))
            return out

        for module in (wavelab.otfs, wavelab.combos, wavelab.link):
            monkeypatch.setattr(module, "banded_gram", counting, raising=False)
            monkeypatch.setattr(module, "mmse_equalize_dd", recording, raising=False)
        rng = np.random.default_rng(18)
        channel, _, _ = make_scenario(rng, [1.3, 4.6], dopplers=[300.0, -200.0], mt=8)
        cfg = OtfsConfig(4, 8, 8, RATE)
        points = [(6.0, 1), (10.0, 3)]  # (SNR dB, frames) of one curve
        for snr_db, frames in points:
            getattr(wavelab.link, runner)(channel, cfg, snr_db, frames, rng_seed=5)
        assert len(builds) == 1  # the blocks of C^H C once per curve
        # one stacked equalize call, and so one factoring, per point
        assert [grids.shape for grids, *_ in calls] == [(1, 8, 4), (3, 8, 4)]
        # each frame's estimate equals the dense MMSE of the same H
        for (grids, h, noise_var, out), (snr_db, _) in zip(calls, points):
            assert noise_var == 10 ** (-snr_db / 10)
            expected = dense_mmse(grids, h, noise_var)
            assert np.max(np.abs(out - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_cache_key_holds_what_the_matrix_depends_on(self, monkeypatch):
        import wavelab.combos
        import wavelab.link

        seen = []

        def recording(grids, h, gram, noise_var, variant="zak"):
            seen.append(h)
            return mmse_equalize_dd(grids, h, gram, noise_var, variant)

        for module in (wavelab.combos, wavelab.link):
            monkeypatch.setattr(module, "mmse_equalize_dd", recording, raising=False)
        rng = np.random.default_rng(19)
        channel, _, _ = make_scenario(rng, [1.3, 4.6], dopplers=[300.0, -200.0], mt=8)
        cfg = OtfsConfig(4, 8, 8, RATE)
        runs = [("run_otfs_ber", cfg, {}),
                ("run_otfs_ber", cfg, {"variant": "isfft"}),
                ("run_otfs_ber", OtfsConfig(4, 8, 4, RATE), {}),
                ("run_ddam_otfs_ber", cfg, {}),
                ("run_ddam_otfs_ber", cfg, {"variant": "isfft"}),
                ("run_ddam_otfs_ber", cfg, {"criterion": "mrt"}),
                ("run_ddam_otfs_ber", cfg, {"mode": "tap_based"}),
                ("run_ddam_otfs_ber", cfg, {"mode": "tap_based", "half_length": 8}),
                ("run_ddam_otfs_ber", cfg, {"window": AlignmentWindow(2, 0.0)})]
        for runner, run_cfg, options in runs:
            getattr(wavelab.link, runner)(channel, run_cfg, 6.0, 1, rng_seed=5, **options)
        shared = list(seen)
        # every run needs its own matrix, so a key missing one option would show
        assert len({h.tobytes() for h in shared}) == len(runs)
        seen.clear()
        for runner, run_cfg, options in runs:
            fresh = build_channel(channel.array, channel.paths, channel.sample_rate)
            getattr(wavelab.link, runner)(fresh, run_cfg, 6.0, 1, rng_seed=5, **options)
        assert all(np.array_equal(a, b) for a, b in zip(shared, seen))

    @pytest.mark.parametrize("variant", ["zak", "isfft"])
    def test_banded_receiver_matches_dense_mmse(self, variant):
        # the combos receiver on the grids of this class against the dense oracle
        rng = np.random.default_rng(20)
        channel, psi, beams = make_scenario(rng, [1.3, 4.6], dopplers=[300.0, -200.0])
        for cfg in (OtfsConfig(4, 8, 8, RATE), OtfsConfig(8, 8, 8, RATE)):
            plan = build_compensation_plan(psi, mode="tap_based")
            h, gram = ddam_otfs_operators(channel, psi, beams, cfg, plan, variant)
            assert np.array_equal(
                h, ddam_otfs_effective_matrix(channel, psi, beams, cfg, plan, variant))
            grid = random_qpsk(rng, cfg.frame_len).reshape(cfg.grid_shape)
            rx = apply_channel(channel, ddam_otfs_transmit(grid, psi, beams, cfg, plan,
                                                           variant=variant))
            for noise_var in (1e-3, 0.4, 1e3):
                out = ddam_otfs_receive([rx], h, cfg, gram, noise_var, variant=variant)
                _, demodulate = otfs_modem(variant)
                expected = dense_mmse([demodulate(rx, cfg)], h, noise_var)
                assert (np.max(np.abs(out - expected))
                        <= 1e-10 * np.max(np.abs(expected)))

    def test_chain_callable_matches_modulate(self):
        rng = np.random.default_rng(16)
        channel, psi, beams = make_scenario(rng, [1, 5])
        chain = ddam_chain_callable(channel, psi, beams, build_compensation_plan(psi))
        stream = otfs_modulate_zak(random_qpsk(rng, 32).reshape(8, 4),
                                   OtfsConfig(4, 8, 0, RATE)).row()
        via_chain = chain(stream)
        frame = ddam_modulate(stream, psi, beams, DdamFrameConfig(len(stream)))
        via_mod = apply_channel(channel, frame).row()
        # same up to the transmit power normalization; lengths differ by the guard
        n = min(len(via_chain), len(via_mod))
        peak = np.argmax(np.abs(via_mod[:n]))
        scale = via_mod[peak] / via_chain[peak]
        assert np.max(np.abs(via_mod[:n] - scale * via_chain[:n])) < 1e-9 * np.max(np.abs(via_mod))
