import numpy as np
import pytest

from wavelab.channel import (
    ArrayConfig,
    Frame,
    PathParams,
    add_awgn,
    apply_channel,
    build_channel,
    sample_separated_aods,
)
from wavelab.link import (
    ofdm_genie_response,
    ofdm_miso_precoder,
    run_ofdm_ber,
)
from wavelab.metrics import counting
from wavelab.modulation import qpsk_demodulate, qpsk_modulate, random_qpsk
from wavelab.ofdm import (
    FeasibilityThresholds,
    OfdmConfig,
    feasible_region,
    ofdm_demodulate,
    ofdm_equalize_one_tap,
    ofdm_modulate,
)


class TestFeasibleRegion:
    def test_spot_values(self):
        th = FeasibilityThresholds(rho_th=0.9, k_th=1024, bandwidth=1e8, xi=10.0)
        region = feasible_region(th)
        assert region.tau_max == pytest.approx(1.1378e-6, abs=1e-10)
        assert region.nu_max == 9765.625

    def test_extreme_cp_ratio_kills_delay_spread(self):
        th = FeasibilityThresholds(rho_th=1 - 1e-9, k_th=1024, bandwidth=1e8)
        assert feasible_region(th).tau_max < 2e-14

    def test_product_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rho = rng.uniform(0.05, 0.999)
            k_th = int(2 ** rng.integers(4, 13))
            b = 10 ** rng.uniform(6, 9)
            xi = rng.uniform(1, 30)
            region = feasible_region(FeasibilityThresholds(rho, k_th, b, xi))
            target = (1 - rho) / (xi * rho)
            assert abs(region.tau_max * region.nu_max - target) <= 1e-14 * target

    def test_monotonicity(self):
        b, xi = 1e8, 10.0
        rhos = [0.5, 0.7, 0.9, 0.95]
        ks = [64, 256, 1024, 4096]
        for k in ks:
            taus = [feasible_region(FeasibilityThresholds(r, k, b, xi)).tau_max for r in rhos]
            assert all(a > b2 for a, b2 in zip(taus, taus[1:]))  # decreasing in rho
        for r in rhos:
            taus = [feasible_region(FeasibilityThresholds(r, k, b, xi)).tau_max for k in ks]
            nus = [feasible_region(FeasibilityThresholds(r, k, b, xi)).nu_max for k in ks]
            assert all(a < b2 for a, b2 in zip(taus, taus[1:]))  # increasing in k_th
            assert all(a > b2 for a, b2 in zip(nus, nus[1:]))    # decreasing in k_th


class TestModem:
    def test_zero_in_zero_out(self):
        cfg = OfdmConfig(64, 16, 1e6)
        frame = ofdm_modulate(np.zeros(64), cfg)
        assert frame.num_samples == 80
        assert np.all(frame.samples == 0)

    def test_impulse_gives_constant(self):
        cfg = OfdmConfig(64, 0, 1e6)
        x = np.zeros(64)
        x[0] = 1.0
        frame = ofdm_modulate(x, cfg)
        assert np.allclose(frame.row(), np.full(64, 1 / 8), atol=1e-15)

    @pytest.mark.parametrize("k", [16, 64, 256, 1024, 4096])
    @pytest.mark.parametrize("cp", [0, 17])
    def test_round_trip(self, k, cp):
        rng = np.random.default_rng(k + cp)
        cfg = OfdmConfig(k, cp, 1e6)
        x = random_qpsk(rng, k)
        assert np.max(np.abs(ofdm_demodulate(ofdm_modulate(x, cfg), cfg) - x)) < 1e-12

    def test_length_checks(self):
        cfg = OfdmConfig(64, 16, 1e6)
        with pytest.raises(ValueError):
            ofdm_modulate(np.zeros(63), cfg)
        with pytest.raises(ValueError):
            ofdm_demodulate(np.zeros(79, dtype=complex), cfg)

    @pytest.mark.parametrize("shape", [(8,), (2, 4), (2, 1), (0, 8)])
    def test_weights_shape_checked(self, shape):
        with pytest.raises(ValueError, match="weights"):
            ofdm_modulate(np.ones((3, 8)), OfdmConfig(8, 2, 1e6), np.ones(shape))

    def two_tap_channel(self, rate=1e6):
        array = ArrayConfig(1)
        paths = [PathParams(0.9, 0.0, 0.0, 0.0), PathParams(0.45j, 3 / rate, 0.0, 0.0)]
        return build_channel(array, paths, rate)

    def test_static_channel_is_diagonal_with_cp(self):
        rng = np.random.default_rng(5)
        cfg = OfdmConfig(64, 8, 1e6)
        ch = self.two_tap_channel()
        x = random_qpsk(rng, 64)
        rx = apply_channel(ch, ofdm_modulate(x, cfg))
        y = ofdm_demodulate(rx, cfg)
        # oracle: DFT of the zero-padded taps (circular convolution theorem)
        taps = np.zeros(64, dtype=complex)
        taps[0], taps[3] = 0.9, 0.45j
        h = np.fft.fft(taps)
        assert np.max(np.abs(y - h * x)) < 1e-12

    def test_short_cp_breaks_orthogonality(self):
        rng = np.random.default_rng(6)
        cfg = OfdmConfig(64, 1, 1e6)
        ch = self.two_tap_channel()
        x = random_qpsk(rng, 64)
        rx = apply_channel(ch, ofdm_modulate(x, cfg))
        y = ofdm_demodulate(rx, cfg)
        taps = np.zeros(64, dtype=complex)
        taps[0], taps[3] = 0.9, 0.45j
        h = np.fft.fft(taps)
        assert np.max(np.abs(y - h * x)) > 1e-3

    def test_end_to_end_matrix_diagonal(self):
        # brute-force end-to-end matrix over a static channel, K <= 64
        cfg = OfdmConfig(32, 8, 1e6)
        ch = self.two_tap_channel()
        cols = []
        for j in range(32):
            e = np.zeros(32, dtype=complex)
            e[j] = 1.0
            rx = apply_channel(ch, ofdm_modulate(e, cfg))
            cols.append(ofdm_demodulate(rx, cfg))
        h = np.stack(cols, axis=1)
        diag_power = np.sum(np.abs(np.diag(h)) ** 2)
        off_power = np.sum(np.abs(h - np.diag(np.diag(h))) ** 2)
        assert off_power / diag_power < 1e-20


class TestEqualizer:
    def test_flat_response(self):
        x = np.array([1 + 1j, -2.0, 0.5j])
        out, erased = ofdm_equalize_one_tap(x, np.full(3, 2.0))
        assert np.allclose(out, x / 2.0)
        assert not erased.any()

    def test_end_to_end_recovery(self):
        rng = np.random.default_rng(7)
        cfg = OfdmConfig(64, 8, 1e6)
        ch = build_channel(ArrayConfig(1),
                           [PathParams(0.8, 0.0, 0.0, 0.0), PathParams(0.4j, 5e-6, 0.0, 0.0)],
                           1e6)
        x = random_qpsk(rng, 64)
        rx = apply_channel(ch, ofdm_modulate(x, cfg))
        taps = np.zeros(64, dtype=complex)
        taps[0], taps[5] = 0.8, 0.4j
        out, erased = ofdm_equalize_one_tap(ofdm_demodulate(rx, cfg), np.fft.fft(taps))
        assert not erased.any()
        assert np.max(np.abs(out - x)) < 1e-10

    def test_zero_bin_flagged(self):
        x = np.ones(4, dtype=complex)
        h = np.array([1.0, 0.0, 1.0, 1e-16])
        out, erased = ofdm_equalize_one_tap(x, h)
        assert list(erased) == [False, True, False, True]
        assert out[1] == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ofdm_equalize_one_tap(np.ones(4), np.ones(5))


RATE = 1e6


def doppler_channel():
    """Four paths on eight antennas, fractional delays, Dopplers up to 1 kHz."""
    rng = np.random.default_rng(21)
    aods = sample_separated_aods(rng, 4, ArrayConfig(8))
    gains = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    paths = [PathParams(g, d / RATE, f, a) for g, d, f, a in
             zip(gains / np.linalg.norm(gains), [0.0, 2.5, 5.25, 9.0],
                 [800.0, -1000.0, 350.0, -120.0], aods)]
    return build_channel(ArrayConfig(8), paths, RATE)


def near_null_channel(k=16, null_bin=5):
    """One antenna, taps at 0 and 1 sample, subcarrier null_bin 60 dB down."""
    g2 = -(1 - 1e-3) * np.exp(2j * np.pi * null_bin / k)
    paths = [PathParams(1.0, 0.0, 0.0, 0.0), PathParams(g2, 1 / RATE, 0.0, 0.0)]
    return build_channel(ArrayConfig(1), paths, RATE)


def per_symbol_ofdm_ber(channel, cfg, snr_db, num_symbols, rng_seed):
    """The per-symbol run_ofdm_ber loop on M_t antenna rows: (bit errors,
    equalized symbols)."""
    rng = np.random.default_rng(rng_seed)
    k, stride = cfg.num_subcarriers, cfg.num_subcarriers + cfg.cp_len
    weights = ofdm_miso_precoder(channel, cfg)
    antenna = channel.steering_matrix @ weights
    bits = rng.integers(0, 2, size=2 * k * num_symbols)
    symbols = qpsk_modulate(bits).reshape(num_symbols, k)
    tx = np.concatenate(
        [ofdm_modulate(row, cfg, antenna).samples for row in symbols], axis=1)
    rx = apply_channel(channel, Frame(tx, cfg.sample_rate))
    noisy = add_awgn(rx, snr_db, rng_seed=rng.integers(2 ** 63)).row()
    errors = 0
    equalized = np.empty((num_symbols, k), dtype=np.complex128)
    for i in range(num_symbols):
        bins = ofdm_demodulate(noisy[i * stride:(i + 1) * stride], cfg)
        equalized[i], _ = ofdm_equalize_one_tap(
            bins, ofdm_genie_response(channel, weights, cfg, i))
        errors += int(np.sum(qpsk_demodulate(equalized[i])
                             != bits[2 * k * i:2 * k * (i + 1)]))
    return errors, equalized


class TestSymbolBlocks:
    """(S x K) blocks against the stacked per-symbol calls."""

    cfg = OfdmConfig(16, 5, RATE)

    def block(self, s=7, seed=30):
        return random_qpsk(np.random.default_rng(seed), s * 16).reshape(s, 16)

    def test_modulate_equals_stacked_rows(self):
        x = self.block()
        stacked = np.concatenate([ofdm_modulate(row, self.cfg).row() for row in x])
        batch = ofdm_modulate(x, self.cfg)
        assert batch.samples.shape == (1, 7 * 21)
        assert np.array_equal(batch.row(), stacked)

    def test_demodulate_equals_stacked_rows(self):
        rng = np.random.default_rng(31)
        windows = rng.standard_normal((7, 21)) + 1j * rng.standard_normal((7, 21))
        stacked = np.stack([ofdm_demodulate(w, self.cfg) for w in windows])
        assert np.array_equal(ofdm_demodulate(windows, self.cfg), stacked)

    def test_miso_modulate_equals_stacked_rows(self):
        x = self.block()
        rng = np.random.default_rng(32)
        weights = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        stacked = np.concatenate(
            [ofdm_modulate(row, self.cfg, weights).samples for row in x], axis=1)
        batch = ofdm_modulate(x, self.cfg, weights)
        assert batch.samples.shape == (4, 7 * 21)
        assert np.array_equal(batch.samples, stacked)

    def test_precoder_is_the_antenna_mrt_in_path_coordinates(self):
        channel = doppler_channel()
        weights = ofdm_miso_precoder(channel, self.cfg)
        assert weights.shape == (channel.num_paths, 16)
        antenna = channel.steering_matrix @ weights
        assert np.max(np.abs(np.linalg.norm(antenna, axis=0) - 1.0)) < 1e-12
        # MRT toward each subcarrier's composite antenna response
        taps = channel.scalar_taps()
        response = taps.gains[:, np.newaxis] * taps.frequency_response(16)
        mrt = channel.steering_matrix @ np.conj(response)
        assert np.max(np.abs(antenna - mrt / np.linalg.norm(mrt, axis=0))) < 1e-12

    def test_genie_response_equals_stacked_indices(self):
        channel = doppler_channel()
        weights = ofdm_miso_precoder(channel, self.cfg)
        indices = np.arange(40)
        stacked = np.stack([ofdm_genie_response(channel, weights, self.cfg, int(i))
                            for i in indices])
        batch = ofdm_genie_response(channel, weights, self.cfg, indices)
        assert batch.shape == (40, 16)
        assert np.max(np.abs(batch - stacked)) < 1e-12

    def test_equalize_broadcasts_one_response(self):
        x = self.block()
        h = np.linspace(0.5, 2.0, 16) * np.exp(1j * np.arange(16))
        h[3] = 0.0
        out, erased = ofdm_equalize_one_tap(x, h)
        for i, row in enumerate(x):
            ref, ref_erased = ofdm_equalize_one_tap(row, h)
            assert np.array_equal(out[i], ref)
            assert np.array_equal(erased[i], ref_erased)

    def test_op_counts_scale_with_rows(self):
        x = self.block()
        weights = np.ones((4, 16)) / 2.0
        for run in (lambda rows: ofdm_modulate(rows, self.cfg),
                    lambda rows: ofdm_modulate(rows, self.cfg, weights),
                    lambda rows: ofdm_demodulate(
                        np.zeros((len(rows), 21), dtype=complex), self.cfg)):
            with counting() as one:
                run(x[:1])
            with counting() as many:
                run(x)
            assert sum(one) > 0
            assert sum(many) == 7 * sum(one)

    def test_shape_errors(self):
        cfg, weights = self.cfg, np.ones((4, 16))
        for bad in (np.zeros((3, 15)), np.zeros((2, 3, 16)), np.zeros(17)):
            with pytest.raises(ValueError):
                ofdm_modulate(bad, cfg)
            with pytest.raises(ValueError):
                ofdm_modulate(bad, cfg, weights)
        for bad in (np.zeros((3, 20)), np.zeros((2, 3, 21)), np.zeros(20)):
            with pytest.raises(ValueError):
                ofdm_demodulate(bad, cfg)
        with pytest.raises(ValueError):
            ofdm_equalize_one_tap(np.ones((3, 16)), np.ones((3, 15)))

    @pytest.mark.parametrize("channel,snr_db", [(doppler_channel(), 8.0),
                                                (near_null_channel(), 20.0)])
    def test_run_ofdm_ber_matches_per_symbol_loop(self, channel, snr_db):
        num_symbols = 50
        errors, equalized = per_symbol_ofdm_ber(channel, self.cfg, snr_db,
                                                num_symbols, 33)
        result = run_ofdm_ber(channel, self.cfg, snr_db, num_symbols, 33)
        assert result.bits == 2 * 16 * num_symbols
        assert result.bit_errors == errors
        assert errors > 0

        # the same received symbols through the batched receiver
        rng = np.random.default_rng(33)
        weights = ofdm_miso_precoder(channel, self.cfg)
        bits = rng.integers(0, 2, size=2 * 16 * num_symbols)
        symbols = qpsk_modulate(bits).reshape(num_symbols, 16)
        antenna = channel.steering_matrix @ weights
        rx = apply_channel(channel, ofdm_modulate(symbols, self.cfg, antenna))
        noisy = add_awgn(rx, snr_db, rng_seed=rng.integers(2 ** 63)).row()
        bins = ofdm_demodulate(noisy[:num_symbols * 21].reshape(num_symbols, 21),
                               self.cfg)
        batch, _ = ofdm_equalize_one_tap(
            bins, ofdm_genie_response(channel, weights, self.cfg,
                                      np.arange(num_symbols)))
        assert np.max(np.abs(batch - equalized)) < 1e-9
