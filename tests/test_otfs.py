import numpy as np
import pytest

import wavelab.ddam
from wavelab.channel import (
    ArrayConfig,
    PathParams,
    ScalarChannel,
    build_channel,
    sample_random_channel,
)
from wavelab.ddam import (
    AlignmentWindow,
    build_compensation_plan,
    ddam_chain_callable,
    path_beamformers,
    psi_from_channel,
)
from wavelab.modulation import random_qpsk
from wavelab.otfs import (
    MIN_GRAM_BLOCK,
    OtfsConfig,
    banded_gram,
    dd_effective_matrix,
    mmse_equalize_dd,
    otfs_demodulate_isfft,
    otfs_demodulate_zak,
    otfs_modulate_isfft,
    otfs_modem,
    otfs_modulate_zak,
    time_matrix,
)


def random_grid(rng, cfg):
    return random_qpsk(rng, cfg.frame_len).reshape(cfg.num_delay_bins,
                                                   cfg.num_doppler_bins)


def column_loop_matrix(channel, cfg, variant="zak"):
    """Oracle: one modulate -> channel -> demodulate pass per DD column."""
    k, m = cfg.num_delay_bins, cfg.num_doppler_bins
    modulate, demodulate = otfs_modem(variant)
    need = cfg.frame_len + cfg.cp_len
    h = np.empty((k * m, k * m), dtype=np.complex128)
    for j in range(k * m):
        grid = np.zeros((k, m), dtype=np.complex128)
        grid.flat[j] = 1.0
        rx = channel(modulate(grid, cfg).row())
        if len(rx) < need:
            rx = np.concatenate([rx, np.zeros(need - len(rx), dtype=np.complex128)])
        h[:, j] = demodulate(rx, cfg).reshape(-1)
    return h


def assert_matches_oracle(channel, cfg, variant):
    """The one DD matrix against the column loop through the variant's modem."""
    expected = column_loop_matrix(channel, cfg, variant)
    actual = dd_effective_matrix(time_matrix(channel, cfg), cfg)
    assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestModulation:
    def test_zero_grid_zero_frame(self):
        cfg = OtfsConfig(4, 8, 2, 1e6)
        for mod in (otfs_modulate_isfft, otfs_modulate_zak):
            frame = mod(np.zeros((8, 4)), cfg)
            assert frame.num_samples == 34
            assert np.all(frame.samples == 0)

    @pytest.mark.parametrize("k,m,cp", [(8, 4, 0), (16, 16, 5), (64, 8, 12)])
    def test_round_trips(self, k, m, cp):
        rng = np.random.default_rng(k * m)
        cfg = OtfsConfig(m, k, cp, 1e6)
        grid = random_grid(rng, cfg)
        for mod, demod in ((otfs_modulate_isfft, otfs_demodulate_isfft),
                           (otfs_modulate_zak, otfs_demodulate_zak)):
            assert np.max(np.abs(demod(mod(grid, cfg), cfg) - grid)) < 1e-12

    def test_variants_agree(self):
        # with rectangular pulses the ISFFT chain is the inverse Zak transform
        # (Raviteja et al., IEEE TVT 2019): the modems agree to round-off,
        # CP included, and so do the receivers on any received frame
        rng = np.random.default_rng(9)
        for m, k, cp in ((8, 16, 4), (1, 16, 3), (16, 64, 16), (4, 8, 32)):
            cfg = OtfsConfig(m, k, cp, 1e6)
            for _ in range(3):
                grid = random_grid(rng, cfg)
                a = otfs_modulate_isfft(grid, cfg)
                b = otfs_modulate_zak(grid, cfg)
                assert np.max(np.abs(a.samples - b.samples)) < 1e-13
                rx = random_qpsk(rng, cfg.frame_len + cfg.cp_len)
                assert np.max(np.abs(otfs_demodulate_isfft(rx, cfg)
                                     - otfs_demodulate_zak(rx, cfg))) < 1e-13

    def test_single_doppler_axis_is_identity(self):
        cfg = OtfsConfig(1, 16, 0, 1e6)
        rng = np.random.default_rng(3)
        grid = random_qpsk(rng, 16).reshape(16, 1)
        frame = otfs_modulate_zak(grid, cfg)
        assert np.allclose(frame.row(), grid[:, 0], atol=1e-15)

    def test_impulse_bin_gives_spike_train(self):
        # unit symbol at DD bin (0, 0) -> M spikes of 1/sqrt(M) spaced K apart
        cfg = OtfsConfig(4, 8, 0, 1e6)
        grid = np.zeros((8, 4), dtype=complex)
        grid[0, 0] = 1.0
        s = otfs_modulate_zak(grid, cfg).row()
        expected = np.zeros(32, dtype=complex)
        expected[::8] = 0.5
        assert np.allclose(s, expected, atol=1e-15)
        assert np.mean(np.abs(s) ** 2) == pytest.approx(1 / 32)

    def test_unitary_power(self):
        rng = np.random.default_rng(4)
        cfg = OtfsConfig(8, 32, 7, 1e6)
        grid = rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8))
        for mod in (otfs_modulate_isfft, otfs_modulate_zak):
            body = mod(grid, cfg).row()[cfg.cp_len:]
            assert np.sum(np.abs(body) ** 2) == pytest.approx(
                np.sum(np.abs(grid) ** 2), rel=1e-12)

    def test_dimension_mismatch(self):
        cfg = OtfsConfig(4, 8, 0, 1e6)
        with pytest.raises(ValueError):
            otfs_modulate_zak(np.zeros((4, 8)), cfg)
        with pytest.raises(ValueError):
            otfs_demodulate_zak(np.zeros(31, dtype=complex), cfg)


class TestEffectiveMatrix:
    def test_identity_channel(self):
        cfg = OtfsConfig(4, 8, 2, 1e6)
        h = dd_effective_matrix(time_matrix(ScalarChannel(((1.0, 0, 0.0),), 1e6), cfg), cfg)
        assert np.max(np.abs(h - np.eye(32))) < 1e-12

    def test_integer_delay_is_phase_permutation(self):
        cfg = OtfsConfig(4, 8, 3, 1e6)
        h = dd_effective_matrix(time_matrix(ScalarChannel(((1.0, 2, 0.0),), 1e6), cfg), cfg)
        mags = np.abs(h)
        # exactly one unit-magnitude entry per column
        assert np.allclose(np.sort(mags, axis=0)[-1], 1.0, atol=1e-12)
        assert np.allclose(np.sort(mags, axis=0)[:-1], 0.0, atol=1e-12)

    def test_two_tap_column_support(self):
        cfg = OtfsConfig(4, 8, 4, 1e6)
        channel = ScalarChannel(((0.8, 0, 0.0), (0.6, 3, 0.0)), 1e6)
        h = dd_effective_matrix(time_matrix(channel, cfg), cfg)
        dominant = np.abs(h) > 1e-6
        assert np.all(dominant.sum(axis=0) == 2)

    def test_linearity(self):
        cfg = OtfsConfig(4, 8, 4, 1e6)
        channel = ScalarChannel(((0.7, 1, 120.0), (0.4j, 5, -260.0)), 1e6)
        h = dd_effective_matrix(time_matrix(channel, cfg), cfg)
        rng = np.random.default_rng(11)
        for _ in range(3):
            grid = random_grid(rng, cfg)
            tx = otfs_modulate_zak(grid, cfg)
            rx = channel(tx.row())
            rx = np.concatenate([rx, np.zeros(max(0, 36 - len(rx)), dtype=complex)])
            direct = otfs_demodulate_zak(rx, cfg).reshape(-1)
            via_matrix = h @ grid.reshape(-1)
            assert np.max(np.abs(direct - via_matrix)) < 1e-12

    def test_size_guard(self):
        cfg = OtfsConfig(64, 128, 0, 1e6)
        with pytest.raises(ValueError):
            dd_effective_matrix(np.eye(32), cfg)


    def test_cp_longer_than_frame_rejected(self):
        OtfsConfig(4, 8, 32, 1e6)
        with pytest.raises(ValueError, match="cp_len 33 exceeds the frame length 32"):
            OtfsConfig(4, 8, 33, 1e6)

    def test_variant_lookup(self):
        assert otfs_modem("zak") == (otfs_modulate_zak, otfs_demodulate_zak)
        assert otfs_modem("isfft") == (otfs_modulate_isfft, otfs_demodulate_isfft)
        with pytest.raises(ValueError, match="variant"):
            otfs_modem("zz")


INTEGER_TAPS = ((0.8, 0, 0.0), (0.5j, 3, 0.0), (-0.3, 6, 0.0))
DOPPLER_TAPS = ((0.7, 1, 120.0), (0.4j, 5, -2600.0), (0.2 - 0.1j, 9, 31000.0))
FRACTIONAL_TAPS = ((0.7, 0.3, 1500.0), (0.4j, 4.5, -20000.0), (0.2 - 0.1j, 7.81, 900.0))


class TestEffectiveMatrixOracle:
    @pytest.mark.parametrize("variant", ["zak", "isfft"])
    @pytest.mark.parametrize("cp", [0, 5, 32])  # 32 = K * M
    @pytest.mark.parametrize("taps", [INTEGER_TAPS, DOPPLER_TAPS, FRACTIONAL_TAPS])
    def test_scalar_channel(self, variant, cp, taps):
        assert_matches_oracle(ScalarChannel(taps, 1e6, half_length=8),
                              OtfsConfig(4, 8, cp, 1e6), variant)

    @pytest.mark.parametrize("variant", ["zak", "isfft"])
    def test_output_shorter_than_frame(self, variant):
        channel = ScalarChannel(FRACTIONAL_TAPS, 1e6, half_length=4)
        # drops the last 20 received samples, so the body runs past the output
        assert_matches_oracle(lambda s: channel(s)[:len(s) - 20],
                              OtfsConfig(4, 8, 6, 1e6), variant)

    @pytest.mark.parametrize("variant", ["zak", "isfft"])
    def test_ddam_chain_callable(self, variant):
        rate = 1e6
        paths = [PathParams(0.8 + 0.2j, 1.4 / rate, 900.0, -0.6),
                 PathParams(-0.3 + 0.5j, 4.0 / rate, -1300.0, 0.1),
                 PathParams(0.2j, 6.7 / rate, 400.0, 0.7)]
        channel = build_channel(ArrayConfig(8), paths, rate)
        psi = psi_from_channel(channel)
        plan = build_compensation_plan(psi, mode="tap_based", half_length=8)
        chain = ddam_chain_callable(channel, psi, path_beamformers(psi, "zf"), plan,
                                    half_length=8)
        cfg = OtfsConfig(4, 8, 4, rate)
        assert_matches_oracle(chain, cfg, variant)

    @pytest.mark.parametrize("variant", ["zak", "isfft"])
    def test_64x16_grid(self, variant):
        channel = ScalarChannel(FRACTIONAL_TAPS, 1e6)
        assert_matches_oracle(channel, OtfsConfig(16, 64, 16, 1e6), variant)


RATE = 1e6
# The first path's fractional delay is near zero, so its interpolator starts
# half_length samples before sample 0 and the chain's support has lo < 0.
NEAR_ZERO_PATHS = (PathParams(0.8 + 0.2j, 0.02 / RATE, 900.0, -0.6),
                   PathParams(-0.3 + 0.5j, 3.4 / RATE, -1300.0, 0.1),
                   PathParams(0.2j, 6.0 / RATE, 400.0, 0.7))


def near_zero_chain(mode, window=None, half_length=32):
    channel = build_channel(ArrayConfig(8), NEAR_ZERO_PATHS, RATE)
    psi = psi_from_channel(channel)
    plan = build_compensation_plan(psi, mode=mode, window=window, half_length=half_length)
    return ddam_chain_callable(channel, psi, path_beamformers(psi, "zf"), plan,
                               half_length=half_length)


def assert_close_relative(actual, expected, rel=1e-12):
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


def impulse_matrix(chain, cfg):
    """Oracle: C from one unit impulse per transmitted sample, CP folded in."""
    n, cp = cfg.frame_len, cfg.cp_len
    rows = np.zeros((n, n + cp), dtype=np.complex128)
    for j in range(n + cp):
        y = chain(np.eye(1, n + cp, j, dtype=np.complex128)[0])[cp:cp + n]
        rows[:len(y), j] = y
    return rows[:, cp:] + np.pad(rows[:, :cp], ((0, 0), (n - cp, 0)))


@pytest.fixture
def chain_passes(monkeypatch):
    """Counts the DDAM chain's channel passes."""
    calls = []
    original = wavelab.ddam.apply_channel

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(wavelab.ddam, "apply_channel", counting)
    return calls


class TestCombProbing:
    @pytest.mark.parametrize("mode", ["path_based", "tap_based"])
    @pytest.mark.parametrize("cp", [0, 5, 32])  # 32 = K * M
    @pytest.mark.parametrize("window", [None, AlignmentWindow(2, 500.0)])
    def test_matches_impulse_probing_8x4(self, mode, cp, window, chain_passes):
        chain = near_zero_chain(mode, window, half_length=4)
        cfg = OtfsConfig(4, 8, cp, RATE)
        lo, hi = chain.support
        assert lo < 0 and hi - lo + 1 < cfg.frame_len  # several impulses per pass
        expected = impulse_matrix(chain, cfg)
        chain_passes.clear()
        assert_close_relative(time_matrix(chain, cfg), expected)
        assert len(chain_passes) == min(hi - lo + 1, cfg.frame_len + cp)

    @pytest.mark.parametrize("mode", ["path_based", "tap_based"])
    def test_matches_impulse_probing_64x16(self, mode, chain_passes):
        chain = near_zero_chain(mode, AlignmentWindow(1, 200.0))
        cfg = OtfsConfig(16, 64, 16, RATE)
        lo, hi = chain.support
        expected = impulse_matrix(chain, cfg)
        chain_passes.clear()
        assert_close_relative(time_matrix(chain, cfg), expected)
        assert len(chain_passes) == hi - lo + 1 < 100

    def test_callable_without_support_gets_one_impulse_per_pass(self, chain_passes):
        chain = near_zero_chain("path_based", half_length=4)
        cfg = OtfsConfig(4, 8, 5, RATE)
        assert_close_relative(time_matrix(lambda s: chain(s), cfg),
                              time_matrix(chain, cfg))
        lo, hi = chain.support
        assert len(chain_passes) == cfg.frame_len + 5 + hi - lo + 1

    def test_support_wider_than_small_frame(self, chain_passes):
        # ber_vs_snr ddam_otfs at k 8, m 4, cp 4, tap-based, over a seeded
        # random 2-path channel on 4 antennas: the default 32-tap
        # interpolator makes the support wider than the 36 sent samples, so
        # every sample still gets its own pass.
        channel = sample_random_channel(ArrayConfig(4), 2, (0.0, 4e-6),
                                        (-500.0, 500.0), rng_seed=5, sample_rate=RATE)
        psi = psi_from_channel(channel)
        beams = path_beamformers(psi, "zf", noise_var=10 ** -0.6)
        chain = ddam_chain_callable(channel, psi, beams,
                                    build_compensation_plan(psi, mode="tap_based"))
        lo, hi = chain.support
        assert hi - lo + 1 > 36
        time_matrix(chain, OtfsConfig(4, 8, 4, RATE))
        assert len(chain_passes) == 36


class TestChainSupport:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mode", ["path_based", "tap_based"])
    @pytest.mark.parametrize("half_length", [8, 32])
    def test_impulse_response_stays_inside_support(self, seed, mode, half_length):
        channel = sample_random_channel(ArrayConfig(8), 3, (0.0, 10e-6),
                                        (-2000.0, 2000.0), rng_seed=seed,
                                        sample_rate=RATE)
        psi = psi_from_channel(channel)
        plan = build_compensation_plan(psi, mode=mode, half_length=half_length)
        n = 64 * 16 + 16  # N + cp of a 64x16 grid with CP 16
        # Under ZF the cross gains a_k^H f_l are round-off, so a term meets
        # only its own path's filter and the support's ends see 1e-21 of the
        # peak or less; MRT beams make every term meet every filter.
        for criterion in ("zf", "mrt"):
            chain = ddam_chain_callable(channel, psi, path_beamformers(psi, criterion),
                                        plan, half_length=half_length)
            lo, hi = chain.support
            for j in (0, n // 2, n - 1):
                # the channel sums its taps by FFT: round-off reaches every row
                y = np.abs(chain(np.eye(1, n, j, dtype=np.complex128)[0]))
                rows = np.flatnonzero(y > 1e-14 * y.max())
                assert rows.min() >= j + lo and rows.max() <= j + hi
                if criterion == "mrt" and j == n // 2:
                    # both ends are reached: the support is tight
                    assert rows.min() == j + lo and rows.max() == j + hi


def dense_mmse(grids, h, noise_var):
    """Oracle: the dense DD MMSE, one solve against H^H H + noise_var I per grid."""
    gram = h.conj().T @ h + noise_var * np.eye(len(h))
    return np.stack([np.linalg.solve(gram, (h.conj().T @ g.reshape(-1))[:, np.newaxis])
                     .reshape(g.shape) for g in grids])


def operators(c, cfg):
    """(H, banded_gram(C)) of a time matrix C, as the BER runners build them."""
    return dd_effective_matrix(c, cfg), banded_gram(c)


def random_grids(rng, count, cfg):
    shape = (count, *cfg.grid_shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_matches_dense(channel, cfg, variant, noise_vars, seed=0):
    """The banded MMSE of a channel within 1e-10 of the dense oracle on the
    variant's demodulation of random frames; returns the banded_gram."""
    h, gram = operators(time_matrix(channel, cfg), cfg)
    _, demodulate = otfs_modem(variant)
    rng = np.random.default_rng(seed)
    shape = (2, cfg.frame_len + cfg.cp_len)
    frames = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    grids = np.array([demodulate(rx, cfg) for rx in frames])
    for noise_var in noise_vars:
        expected = dense_mmse(grids, h, noise_var)
        got = mmse_equalize_dd(grids, h, gram, noise_var)
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))
    return gram


def bench_like_channel(seed):
    """A beamformed 4-path channel as ber_dd_grid draws them: M_t 16, delays
    up to 8 us, Doppler up to 1 kHz."""
    from wavelab.link import otfs_miso_beam, otfs_scalar_taps

    channel = sample_random_channel(ArrayConfig(16), 4, (0.0, 8e-6), (-1000.0, 1000.0),
                                    rng_seed=seed, sample_rate=1e6)
    return channel, otfs_scalar_taps(channel, otfs_miso_beam(channel))


class TestMmse:
    def test_identity_no_noise(self):
        y = np.arange(8, dtype=complex).reshape(1, 4, 2)
        h, gram = operators(np.eye(8), OtfsConfig(2, 4, 0, 1e6))
        out = mmse_equalize_dd(y, h, gram, 0.0)
        assert np.allclose(out, y, atol=1e-12)

    def test_noiseless_invertible_recovery(self):
        rng = np.random.default_rng(13)
        cfg = OtfsConfig(4, 8, 4, 1e6)
        channel = ScalarChannel(((0.9, 0, 0.0), (0.5j, 2, 400.0)), 1e6)
        h, gram = operators(time_matrix(channel, cfg), cfg)
        for variant in ("zak", "isfft"):
            grid = random_grid(rng, cfg)
            modulate, demodulate = otfs_modem(variant)
            y = demodulate(channel(modulate(grid, cfg).row()), cfg)
            out = mmse_equalize_dd([y], h, gram, 0.0)[0]
            assert np.max(np.abs(out - grid)) < 1e-9

    def test_infinite_noise_shrinks_to_zero(self):
        rng = np.random.default_rng(14)
        h, gram = operators(np.eye(16) * 2.0, OtfsConfig(4, 4, 0, 1e6))
        y = rng.standard_normal(16).reshape(4, 4).astype(complex)
        out = mmse_equalize_dd([y], h, gram, 1e12)
        assert np.max(np.abs(out)) < 1e-10

    def test_singular_without_noise_raises(self):
        c = np.zeros((4, 4), dtype=complex)
        c[0, 0] = 1.0
        h, gram = operators(c, OtfsConfig(2, 2, 0, 1e6))
        with pytest.raises(np.linalg.LinAlgError):
            mmse_equalize_dd(np.ones((1, 2, 2)), h, gram, 0.0)
        # the same matrix is fine once regularized
        assert np.all(np.isfinite(mmse_equalize_dd(np.ones((1, 2, 2)), h, gram, 1e-3)))

    def test_condition_bound_on_c_h_c(self):
        # cond(C^H C) = cond(H^H H) = cond(C)^2: C = diag(1, ..., 1, e) has
        # cond(C^H C) = 1 / e^2, so e = 1e-5 gives 1e10 and passes, while
        # e = 1e-7 gives 1e14 and fails the 1e12 bound.
        cfg = OtfsConfig(2, 4, 0, 1e6)
        for e, fails in ((1e-5, False), (1e-7, True)):
            h, gram = operators(np.diag([1.0] * 7 + [e]).astype(complex), cfg)
            if fails:
                with pytest.raises(np.linalg.LinAlgError):
                    mmse_equalize_dd(np.ones((1, 4, 2)), h, gram, 0.0)
            else:
                mmse_equalize_dd(np.ones((1, 4, 2)), h, gram, 0.0)

    def test_negative_noise_rejected(self):
        h, gram = operators(np.eye(4), OtfsConfig(2, 2, 0, 1e6))
        with pytest.raises(ValueError, match="noise_var"):
            mmse_equalize_dd(np.ones((1, 2, 2)), h, gram, -1.0)

    def test_stack_equals_per_grid_solves(self):
        # a dense random C: its band wraps, so the system is one block
        rng = np.random.default_rng(15)
        cfg = OtfsConfig(4, 8, 0, 1e6)
        c = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        h, gram = operators(c, cfg)
        assert len(gram.diagonal) == 1
        grids = random_grids(rng, 3, cfg)
        out = mmse_equalize_dd(grids, h, gram, 0.25)
        assert out.shape == grids.shape
        for grid, estimate in zip(grids, out):
            assert np.array_equal(estimate, mmse_equalize_dd([grid], h, gram, 0.25)[0])
        expected = dense_mmse(grids, h, 0.25)
        assert np.max(np.abs(out - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("shape", [(32,), (4, 4), (8, 4), (2, 4, 4), (1, 2, 8, 4)])
    def test_received_shape_checked(self, shape):
        h, gram = operators(np.eye(32), OtfsConfig(4, 8, 0, 1e6))
        with pytest.raises(ValueError, match="received shape"):
            mmse_equalize_dd(np.zeros(shape), h, gram, 0.1)

    def test_gram_size_checked(self):
        h, _ = operators(np.eye(32), OtfsConfig(4, 8, 0, 1e6))
        with pytest.raises(ValueError, match="gram of 16 samples"):
            mmse_equalize_dd(np.zeros((1, 8, 4)), h, banded_gram(np.eye(16)), 0.1)


class TestBandedSolve:
    """The block-tridiagonal solve against the dense DD MMSE oracle."""

    @pytest.mark.parametrize("variant", ["zak", "isfft"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_64x16_many_blocks(self, variant, seed):
        _, taps = bench_like_channel(seed)
        gram = assert_matches_dense(taps, OtfsConfig(16, 64, 16, 1e6), variant,
                                    (1e-3, 0.4, 1e3))
        assert len(gram.diagonal) >= 6

    @pytest.mark.parametrize("variant", ["zak", "isfft"])
    def test_64x16_ddam_otfs_chain(self, variant):
        channel, _ = bench_like_channel(3)
        psi = psi_from_channel(channel)
        chain = ddam_chain_callable(channel, psi, path_beamformers(psi, "zf"),
                                    build_compensation_plan(psi))
        gram = assert_matches_dense(chain, OtfsConfig(16, 64, 16, 1e6), variant,
                                    (1e-3, 0.4, 1e3))
        assert len(gram.diagonal) >= 6

    @pytest.mark.parametrize("variant", ["zak", "isfft"])
    @pytest.mark.parametrize("cp", [0, 5, 32])
    @pytest.mark.parametrize("taps", [INTEGER_TAPS, DOPPLER_TAPS, FRACTIONAL_TAPS])
    def test_small_grids(self, variant, cp, taps):
        # the grids of TestEffectiveMatrixOracle, where the band wraps
        assert_matches_dense(ScalarChannel(taps, 1e6, half_length=8),
                             OtfsConfig(4, 8, cp, 1e6), variant, (1e-3, 0.4, 1e3))

    @pytest.mark.parametrize("variant", ["zak", "isfft"])
    def test_small_grid_chain_and_truncated_output(self, variant):
        channel = ScalarChannel(FRACTIONAL_TAPS, 1e6, half_length=4)
        assert_matches_dense(lambda s: channel(s)[:len(s) - 20],
                             OtfsConfig(4, 8, 6, 1e6), variant, (1e-3, 0.4))
        assert_matches_dense(near_zero_chain("tap_based", half_length=4),
                             OtfsConfig(4, 8, 5, RATE), variant, (1e-3, 0.4))

    @pytest.mark.parametrize("k, m, sizes", [
        (8, 4, [32]),                          # N below the floor: one block
        (16, 8, [MIN_GRAM_BLOCK] * 2),
        (16, 32, [MIN_GRAM_BLOCK] * 8),
    ])
    def test_single_tap_blocks_take_the_floor(self, k, m, sizes):
        # one diagonal has no band width: the block size is the floor
        cfg = OtfsConfig(m, k, 0, 1e6)
        gram = assert_matches_dense(ScalarChannel(((0.8j, 0, 0.0),), 1e6), cfg, "zak",
                                    (0.0, 0.4))
        assert [len(a) for a in gram.diagonal] == sizes

    @pytest.mark.parametrize("seed", [1, 2])
    def test_blocks_hold_all_of_c_h_c(self, seed):
        # the band read off C's pattern covers every nonzero of C^H C in the
        # folded order, and the blocks equal its entries
        _, taps = bench_like_channel(seed)
        c = time_matrix(taps, OtfsConfig(16, 64, 16, 1e6))
        gram = banded_gram(c)
        folded = (c.conj().T @ c)[np.ix_(gram.order, gram.order)]
        assert sorted(gram.order) == list(range(1024))
        assembled = np.zeros_like(folded)
        starts = np.cumsum([0] + [len(a) for a in gram.diagonal])
        for i, a in enumerate(gram.diagonal):
            here = slice(starts[i], starts[i + 1])
            assembled[here, here] = a
            if i < len(gram.upper):
                there = slice(starts[i + 1], starts[i + 2])
                assembled[here, there] = gram.upper[i]
                assembled[there, here] = gram.upper[i].conj().T
        assert np.max(np.abs(assembled - folded)) <= 1e-12 * np.max(np.abs(folded))
        outside = np.ones(folded.shape, dtype=bool)
        outside[assembled != 0] = False
        assert np.all(folded[outside] == 0)

    def test_stack_equals_lone_calls_with_many_blocks(self):
        _, taps = bench_like_channel(1)
        cfg = OtfsConfig(16, 64, 16, 1e6)
        h, gram = operators(time_matrix(taps, cfg), cfg)
        grids = random_grids(np.random.default_rng(5), 3, cfg)
        out = mmse_equalize_dd(grids, h, gram, 0.1)
        for grid, estimate in zip(grids, out):
            assert np.array_equal(estimate, mmse_equalize_dd([grid], h, gram, 0.1)[0])

    def test_time_matrix_is_not_changed(self):
        _, taps = bench_like_channel(1)
        cfg = OtfsConfig(16, 64, 16, 1e6)
        c = time_matrix(taps, cfg)
        kept = c.copy()
        h = dd_effective_matrix(c, cfg)
        banded_gram(c)
        assert np.array_equal(c, kept)
        assert np.array_equal(h, dd_effective_matrix(time_matrix(taps, cfg), cfg))
        for bad in (c[:-1], taps):  # only the (N x N) time matrix, never a channel
            with pytest.raises(ValueError, match="time matrix shape"):
                dd_effective_matrix(bad, cfg)


class TestSingleTapBer:
    def run_link(self, snr_db, num_frames, seed):
        from wavelab.channel import Frame, add_awgn
        from wavelab.modulation import qpsk_demodulate, qpsk_modulate

        cfg = OtfsConfig(16, 64, 0, 1e6)
        gain = 0.8 * np.exp(0.9j)
        channel = ScalarChannel(((gain, 0, 0.0),), 1e6)
        h, gram = operators(time_matrix(channel, cfg), cfg)
        noise_var = 10 ** (-snr_db / 10)
        seeds = np.random.SeedSequence(seed).spawn(num_frames)
        errors = 0
        for seq in seeds:
            rng = np.random.default_rng(seq)
            bits = rng.integers(0, 2, size=2 * cfg.frame_len)
            grid = qpsk_modulate(bits).reshape(64, 16)
            tx = otfs_modulate_zak(grid, cfg)
            rx = add_awgn(Frame(channel(tx.row())[np.newaxis, :], 1e6), snr_db,
                          rng_seed=rng.integers(2 ** 63))
            out = mmse_equalize_dd([otfs_demodulate_zak(rx.row(), cfg)], h, gram,
                                   noise_var)[0]
            errors += int(np.sum(qpsk_demodulate(out.reshape(-1)) != bits))
        return errors, num_frames * 2 * cfg.frame_len

    def test_matches_awgn_theory_at_20db(self):
        from wavelab.metrics import qfunc

        errors, bits = self.run_link(20.0, 10, seed=77)
        p = qfunc(np.sqrt(100.0))
        sigma = np.sqrt(max(p * (1 - p), p) / bits)
        assert abs(errors / bits - p) <= 3 * sigma  # zero errors expected

    def test_matches_awgn_theory_at_6db(self):
        from wavelab.metrics import qfunc

        errors, bits = self.run_link(6.0, 40, seed=78)
        p = qfunc(np.sqrt(10 ** 0.6))
        sigma = np.sqrt(p * (1 - p) / bits)
        assert abs(errors / bits - p) <= 3 * sigma

