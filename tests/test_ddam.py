import numpy as np
import pytest

from wavelab.channel import (
    ArrayConfig,
    Frame,
    PathParams,
    add_awgn,
    apply_channel,
    build_channel,
    delay_filter,
    sample_separated_aods,
    steering_vector,
)
from wavelab.ddam import (
    AlignmentWindow,
    DdamFrameConfig,
    PathStateInfo,
    PsiPerturbation,
    build_compensation_plan,
    ddam_demodulate,
    ddam_modulate,
    equivalent_channel,
    estimate_gain,
    path_beamformers,
    psi_from_channel,
)
from wavelab.metrics import papr_db, qfunc
from wavelab.modulation import qpsk_demodulate, random_qpsk


def on_grid_channel(rng, num_paths, mt=64, rate=1e6, delay_lo=0, delay_hi=24,
                    doppler_hi=2000.0):
    """Random scenario with integer-sample delays."""
    array = ArrayConfig(mt)
    aods = sample_separated_aods(rng, num_paths, array)
    delays = rng.integers(delay_lo, delay_hi + 1, size=num_paths)
    if delay_hi > delay_lo:
        delays[rng.integers(num_paths)] = delay_hi  # pin n_max for predictability
    dopplers = rng.uniform(-doppler_hi, doppler_hi, size=num_paths)
    gains = (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths))
    gains /= np.linalg.norm(gains)
    paths = [PathParams(g, d / rate, f, a)
             for g, d, f, a in zip(gains, delays, dopplers, aods)]
    return build_channel(array, paths, rate)


def ideal_setup(rng, num_paths=3, mt=64, **kwargs):
    channel = on_grid_channel(rng, num_paths, mt=mt, **kwargs)
    psi = psi_from_channel(channel)
    beams = path_beamformers(psi, "zf")
    return channel, psi, beams


class TestPsi:
    def test_genie_matches_truth(self):
        rng = np.random.default_rng(0)
        channel = on_grid_channel(rng, 4)
        psi = psi_from_channel(channel)
        delays = [round(p.delay_s * channel.sample_rate) for p in channel.paths]
        assert np.array_equal(np.floor(psi.delays), delays)
        assert np.allclose(psi.delays - np.floor(psi.delays), 0.0, atol=1e-9)
        assert np.array_equal(psi.delays, channel.delays_in_samples())
        assert np.array_equal(psi.doppler_hz, [p.doppler_hz for p in channel.paths])
        assert np.array_equal(psi.aod, [p.aod for p in channel.paths])
        assert np.array_equal(psi.gain_estimate, [p.gain for p in channel.paths])

    def test_perturbed_is_reproducible(self):
        rng = np.random.default_rng(1)
        channel = on_grid_channel(rng, 3)
        pert = PsiPerturbation(aod_err=0.01)
        a = psi_from_channel(channel, pert, rng_seed=5)
        b = psi_from_channel(channel, pert, rng_seed=5)
        assert not np.array_equal(a.aod, [p.aod for p in channel.paths])
        assert np.array_equal(a.doppler_hz, [p.doppler_hz for p in channel.paths])
        assert np.array_equal(a.aod, b.aod)
        assert not np.allclose(a.aod, psi_from_channel(channel).aod)

    def test_delay_error_rms(self):
        # 100 paths x 100 seeds = 1e4 draws of the sigma=0.5 delay error
        rate = 1e6
        array = ArrayConfig(4)
        paths = [PathParams(1.0, (50 + i) / rate, 0.0, -1 + 2 * i / 100)
                 for i in range(100)]
        channel = build_channel(array, paths, rate)
        truth = channel.delays_in_samples()
        errs = []
        for seed in range(100):
            psi = psi_from_channel(channel, PsiPerturbation(delay_err_samples=0.5),
                                   rng_seed=seed)
            errs.append(psi.delays - truth)
        rms = np.sqrt(np.mean(np.concatenate(errs) ** 2))
        assert abs(rms - 0.5) < 0.05 * 0.5

    def test_fractional_split(self):
        channel = build_channel(ArrayConfig(2), [PathParams(1.0, 7.625e-6, 0.0, 0.0)], 1e6)
        psi = psi_from_channel(channel)
        assert np.array_equal(psi.delays, channel.delays_in_samples())  # bit for bit
        assert np.floor(psi.delays[0]) == 7
        assert psi.delays[0] - np.floor(psi.delays[0]) == pytest.approx(0.625)
        assert psi.nearest_delays()[0] == 8
        assert psi.n_max == 8
        # halves round up; the residue, not d + 0.5, decides just below a half
        delays = np.array([7.5, 7.499999999999999, 0.49999999999999994])
        psi = PathStateInfo(ArrayConfig(2), 1.0, delays, np.zeros(3), np.zeros(3),
                            np.ones(3))
        assert np.array_equal(psi.nearest_delays(), [8, 7, 0])


class TestBeamformers:
    def single_path_psi(self, mt=8, aod=0.3):
        channel = build_channel(ArrayConfig(mt), [PathParams(1.0, 0.0, 0.0, aod)], 1e6)
        return psi_from_channel(channel)

    def test_single_path_all_criteria_agree(self):
        psi = self.single_path_psi()
        expected = steering_vector(0.3, psi.array) / np.sqrt(8)
        for criterion in ("mrt", "zf", "rzf", "mmse"):
            beams = path_beamformers(psi, criterion, noise_var=0.1)
            assert np.allclose(beams.vectors[:, 0], expected, atol=1e-12)

    def test_two_orthogonal_paths_zf_equals_mrt(self):
        # steering [1, 1] and [1, -1]
        channel = build_channel(
            ArrayConfig(2),
            [PathParams(1.0, 0.0, 0.0, 0.0), PathParams(0.5, 1e-6, 0.0, -1.0)], 1e6)
        psi = psi_from_channel(channel)
        zf = path_beamformers(psi, "zf")
        mrt = path_beamformers(psi, "mrt")
        assert np.allclose(zf.vectors, mrt.vectors, atol=1e-12)
        a0 = steering_vector(0.0, psi.array)
        a1 = steering_vector(-1.0, psi.array)
        assert abs(a1.conj() @ zf.vectors[:, 0]) < 1e-12
        assert abs(a0.conj() @ zf.vectors[:, 1]) < 1e-12

    def test_zf_nulls_cross_paths(self):
        rng = np.random.default_rng(3)
        channel = on_grid_channel(rng, 3, mt=64)
        psi = psi_from_channel(channel)
        beams = path_beamformers(psi, "zf")
        steer = np.stack([steering_vector(w, psi.array) for w in psi.aod], axis=1)
        cross = steer.conj().T @ beams.vectors
        np.fill_diagonal(cross, 0.0)
        assert np.max(np.abs(cross)) < 1e-9

    def test_unit_norms_and_power_sum(self):
        rng = np.random.default_rng(4)
        channel = on_grid_channel(rng, 4, mt=16)
        psi = psi_from_channel(channel)
        for criterion in ("mrt", "zf", "rzf", "mmse"):
            beams = path_beamformers(psi, criterion, noise_var=0.05)
            assert np.allclose(np.linalg.norm(beams.vectors, axis=0), 1.0, atol=1e-12)
            assert beams.power_allocation.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gain_proportional_allocation(self):
        channel = build_channel(
            ArrayConfig(4),
            [PathParams(2.0, 0.0, 0.0, 0.0), PathParams(1.0, 1e-6, 0.0, 0.5)], 1e6)
        psi = psi_from_channel(channel)
        beams = path_beamformers(psi, "mrt")
        assert np.allclose(beams.power_allocation, [0.8, 0.2])
        uniform = path_beamformers(psi, "mrt", power_allocation="uniform")
        assert np.allclose(uniform.power_allocation, [0.5, 0.5])

    def test_zf_too_many_paths(self):
        channel = build_channel(
            ArrayConfig(2),
            [PathParams(1.0, i * 1e-6, 0.0, -0.9 + 0.5 * i) for i in range(3)], 1e6)
        psi = psi_from_channel(channel)
        with pytest.raises(ValueError, match="L <= M_t"):
            path_beamformers(psi, "zf")

    def test_zf_collinear_paths_named(self):
        channel = build_channel(
            ArrayConfig(8),
            [PathParams(1.0, 0.0, 0.0, 0.2), PathParams(1.0, 1e-6, 0.0, 0.2 + 1e-9)], 1e6)
        psi = psi_from_channel(channel)
        with pytest.raises(ValueError, match="paths 0 and 1"):
            path_beamformers(psi, "zf")

    @pytest.mark.parametrize("spacing", [0.5, 1e-3, 1e-9, 0.0])
    def test_zf_rank_check_decides_as_the_condition_number(self, spacing):
        # separated, nearly collinear and exactly collinear first designs of a
        # stack whose second design is separated; every condition number lies
        # far from the 1e12 threshold, so round-off cannot flip the decision
        array = ArrayConfig(8)
        aods = np.array([[0.2, 0.2 + spacing, -0.7], [0.9, -0.4, 0.1]])
        a = steering_vector(aods, array)
        cond = np.linalg.cond(np.swapaxes(a.conj(), -1, -2) @ a)
        assert np.all((cond < 1e6) | (cond > 1e15))
        cases = [(aods, np.any(cond > 1e12)), (aods[0], cond[0] > 1e12),
                 (aods[1], cond[1] > 1e12)]
        for design, deficient in cases:
            ones = np.ones(design.shape)
            psi = PathStateInfo(array, 1e6, ones, 0 * ones, design, ones)
            if deficient:
                with pytest.raises(ValueError, match="paths 0 and 1 are nearly collinear"):
                    path_beamformers(psi, "zf")
            else:
                path_beamformers(psi, "zf")


class TestCompensationPlan:
    def psi_with_delays(self, delays, mt=8, rate=1e6, dopplers=None):
        dopplers = dopplers if dopplers is not None else [0.0] * len(delays)
        aods = np.linspace(-0.8, 0.8, len(delays))
        paths = [PathParams(1.0, d / rate, f, a)
                 for d, f, a in zip(delays, dopplers, aods)]
        return psi_from_channel(build_channel(ArrayConfig(mt), paths, rate))

    def test_kappa_complements_delay(self):
        psi = self.psi_with_delays([2, 5, 9])
        plan = build_compensation_plan(psi)
        assert [t.kappa for t in plan.terms] == [7, 4, 0]
        assert plan.n_max == 9

    def test_window_targets_region(self):
        psi = self.psi_with_delays([0, 3, 9])
        plan = build_compensation_plan(psi, window=AlignmentWindow(4, 0.0))
        residuals = [t.grid_delay + t.kappa for t in plan.terms]
        assert all(5 <= r <= 9 for r in residuals)
        assert max(residuals) - min(residuals) <= 4

    def test_zero_window_is_full_alignment(self):
        psi = self.psi_with_delays([1, 6, 11], dopplers=[100.0, -50.0, 0.0])
        plan = build_compensation_plan(psi, window=AlignmentWindow(0, 0.0))
        assert plan == build_compensation_plan(psi)

    def test_doppler_window_clips_compensation(self):
        psi = self.psi_with_delays([0, 0, 0], dopplers=[500.0, -120.0, 40.0])
        plan = build_compensation_plan(psi, window=AlignmentWindow(0, 200.0))
        comps = [t.doppler_comp_hz for t in plan.terms]
        assert comps == pytest.approx([400.0, -20.0, 0.0])
        residuals = np.array([500.0, -120.0, 40.0]) - np.array(comps)
        assert np.all(np.abs(residuals) <= 100.0)

    def test_tap_based_on_grid_matches_path_based(self):
        psi = self.psi_with_delays([2, 7])
        path_plan = build_compensation_plan(psi, mode="path_based")
        tap_plan = build_compensation_plan(psi, mode="tap_based")
        assert [t.kappa for t in tap_plan.terms] == [t.kappa for t in path_plan.terms]
        assert all(t.amplitude == 1.0 for t in tap_plan.terms)
        assert tap_plan == path_plan  # a plan is its terms and n_max, whatever the mode

    def test_tap_based_expands_fractional_paths(self):
        rate = 1e6
        paths = [PathParams(1.0, 10.4 / rate, 0.0, 0.0)]
        psi = psi_from_channel(build_channel(ArrayConfig(4), paths, rate))
        plan = build_compensation_plan(psi, mode="tap_based", half_length=8)
        assert len(plan.terms) > 1
        # strongest term targets the nearest grid tap
        strongest = max(plan.terms, key=lambda t: abs(t.amplitude))
        assert strongest.grid_delay == 10
        # the -30 dB trim keeps almost all of the leakage energy
        from wavelab.channel import fractional_delay_taps
        full = np.sum(np.abs(fractional_delay_taps(0.4, 8)) ** 2)
        kept = sum(abs(t.amplitude) ** 2 for t in plan.terms)
        assert kept >= 0.99 * full

    def test_tap_based_terms_are_the_channel_delay_filter(self):
        # 12 - 1e-10 lies within FRACTIONAL_TOL of an integer: the channel
        # applies it as a pure shift, so the plan must aim a single tap.
        delays = [3.5, 7.25, 9.0, 12.0 - 1e-10]
        aods = np.linspace(-0.8, 0.8, len(delays))
        channel = build_channel(ArrayConfig(8), [PathParams(1.0, d, 0.0, a)
                                                 for d, a in zip(delays, aods)], 1.0)
        plan = build_compensation_plan(psi_from_channel(channel), mode="tap_based",
                                       half_length=8)
        for l, delay in enumerate(channel.delays_in_samples()):
            start, amps = delay_filter(delay, 8)
            # taps within -30 dB of the strongest, on the causal part of the grid
            keep = np.abs(amps) ** 2 >= 1e-3 * np.max(np.abs(amps) ** 2)
            expected = [(start + j, amps[j]) for j in np.nonzero(keep)[0] if start + j >= 0]
            assert [(t.grid_delay, t.amplitude) for t in plan.terms
                    if t.path_index == l] == expected
        assert [t.grid_delay for t in plan.terms if t.path_index == 3] == [12]
        # an integer delay's filter is the one-tap FIR [1.0] at that delay
        for delay, nearest in ((5.0, 5), (5 + 1e-10, 5), (7 - 1e-12, 7)):
            start, amps = delay_filter(delay, 8)
            assert start == nearest and amps.shape == (1,) and np.array_equal(amps, [1.0])


class TestModulate:
    def test_single_path_passthrough(self):
        channel = build_channel(ArrayConfig(4), [PathParams(1.0, 0.0, 0.0, 0.4)], 1e6)
        psi = psi_from_channel(channel)
        beams = path_beamformers(psi, "mrt")
        rng = np.random.default_rng(5)
        s = random_qpsk(rng, 128)
        tx = ddam_modulate(s, psi, beams, DdamFrameConfig(128))
        x = tx.beams @ tx.streams
        assert x.shape == (4, 128)
        assert np.allclose(x, np.outer(beams.vectors[:, 0], s), atol=1e-12)
        assert papr_db(x) == pytest.approx(0.0, abs=1e-9)

    def test_matches_direct_synthesis(self):
        rng = np.random.default_rng(6)
        channel = on_grid_channel(rng, 3, mt=8)
        psi = psi_from_channel(channel)
        beams = path_beamformers(psi, "zf")
        s = random_qpsk(rng, 64)
        tx = ddam_modulate(s, psi, beams, DdamFrameConfig(64))
        # direct oracle: x[n] = sum_l sqrt(p_l) f_l e^{-j2pi nu_l n/B} s[n-kappa_l]
        n_max = psi.n_max
        total = 64 + 2 * n_max
        x = np.zeros((8, total), dtype=complex)
        kappas = [n_max - int(d) for d in psi.nearest_delays()]
        for l in range(3):
            kappa = kappas[l]
            n = np.arange(64) + kappa
            seg = s * np.exp(-2j * np.pi * psi.doppler_hz[l] * n / 1e6)
            x[:, kappa:kappa + 64] += np.sqrt(beams.power_allocation[l]) * np.outer(
                beams.vectors[:, l], seg)
        active = 64 + max(kappas)
        x /= np.sqrt(np.sum(np.abs(x[:, :active]) ** 2) / active)
        assert np.max(np.abs(tx.beams @ tx.streams - x)) < 1e-12

    def test_power_conservation(self):
        rng = np.random.default_rng(7)
        rate = 1e6
        aods = sample_separated_aods(rng, 3, ArrayConfig(16))
        paths = [PathParams(g, d / rate, f, a) for g, d, f, a in zip(
            (rng.standard_normal(3) + 1j * rng.standard_normal(3)),
            [3.0, 7.4, 12.8], [500.0, -200.0, 90.0], aods)]
        channel = build_channel(ArrayConfig(16), paths, rate)
        psi = psi_from_channel(channel)
        s = random_qpsk(rng, 200)
        for criterion in ("mrt", "zf", "rzf"):
            beams = path_beamformers(psi, criterion, noise_var=0.01)
            for mode in ("path_based", "tap_based"):
                plan = build_compensation_plan(psi, mode=mode, half_length=8)
                tx = ddam_modulate(s, psi, beams, DdamFrameConfig(200), plan=plan)
                active = 200 + plan.max_kappa
                power = np.sum(np.abs((tx.beams @ tx.streams)[:, :active]) ** 2) / active
                assert power == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("criterion", ["mrt", "zf", "mmse"])
    @pytest.mark.parametrize("mode", ["path_based", "tap_based"])
    def test_beam_frame_is_the_antenna_block(self, criterion, mode):
        # None of these beam sets is orthogonal, so the unit-power scale
        # needs the off-diagonal terms of the beams' and streams' Grams.
        # The oracle normalizes the antenna rows themselves.
        rng = np.random.default_rng(8)
        rate = 1e6
        aods = sample_separated_aods(rng, 3, ArrayConfig(16))
        paths = [PathParams(g, d / rate, f, a) for g, d, f, a in zip(
            (rng.standard_normal(3) + 1j * rng.standard_normal(3)),
            [3.0, 7.4, 12.8], [500.0, -200.0, 90.0], aods)]
        psi = psi_from_channel(build_channel(ArrayConfig(16), paths, rate))
        beams = path_beamformers(psi, criterion, noise_var=0.01)
        plan = build_compensation_plan(psi, mode=mode, half_length=8)
        s = random_qpsk(rng, 200)
        tx = ddam_modulate(s, psi, beams, DdamFrameConfig(200), plan=plan)
        assert tx.beams.shape == (16, 3)
        assert tx.sample_rate == rate
        x = tx.beams @ tx.streams
        active = 200 + plan.max_kappa
        oracle = per_term_synthesis(s, plan, beams, rate, 200 + 2 * plan.n_max)
        oracle /= np.sqrt(np.sum(np.abs(oracle[:, :active]) ** 2) / active)
        assert x.shape == oracle.shape
        assert np.max(np.abs(x - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        assert np.sum(np.abs(x[:, :active]) ** 2) / active == pytest.approx(1.0, abs=1e-12)

    def test_guard_defaults_to_twice_n_max(self):
        psi = TestCompensationPlan().psi_with_delays([2, 5, 9])
        beams = path_beamformers(psi, "mrt")
        tx = ddam_modulate(np.ones(32), psi, beams, DdamFrameConfig(32))
        assert tx.streams.shape[1] == 32 + 18
        assert np.all(tx.streams[:, -9:] == 0)  # flush tail is silent
        bare = ddam_modulate(np.ones(32), psi, beams)  # the block is the symbols given
        assert np.array_equal(bare.streams, tx.streams)
        assert np.array_equal(bare.beams, tx.beams)

    def test_input_validation(self):
        psi = TestCompensationPlan().psi_with_delays([0, 4])
        beams = path_beamformers(psi, "mrt")
        with pytest.raises(ValueError):
            ddam_modulate(np.ones(8), psi, beams, DdamFrameConfig(16))
        with pytest.raises(ValueError):
            ddam_modulate([], psi, beams, DdamFrameConfig(1))
        with pytest.raises(ValueError, match="non-empty"):
            ddam_modulate([], psi, beams, DdamFrameConfig(1), build_compensation_plan(psi))
        three = path_beamformers(TestCompensationPlan().psi_with_delays([0, 4, 6]), "mrt")
        with pytest.raises(ValueError, match="path count"):
            ddam_modulate(np.ones(8), psi, three, DdamFrameConfig(8))


def per_term_synthesis(symbols, plan, beams, rate, total_len):
    """Oracle: one pre-delayed, pre-rotated rank-1 update per plan term."""
    n = len(symbols)
    norms = np.zeros(beams.num_paths)
    for t in plan.terms:
        norms[t.path_index] += abs(t.amplitude) ** 2
    x = np.zeros((beams.vectors.shape[0], total_len), dtype=complex)
    for t in plan.terms:
        w = (np.sqrt(beams.power_allocation[t.path_index]) * np.conj(t.amplitude)
             / np.sqrt(norms[t.path_index]))
        clock = t.kappa + np.arange(n)
        seg = symbols * np.exp(-2j * np.pi * t.doppler_comp_hz * clock / rate)
        x[:, t.kappa:t.kappa + n] += np.outer(w * beams.vectors[:, t.path_index], seg)
    return x


class TestSynthesisOracle:
    """Per-path FIR-plus-ramp synthesis against the per-term loop."""

    RATE = 1e6
    HALF = 8

    def scenario(self, seed, delays):
        rng = np.random.default_rng(seed)
        array = ArrayConfig(16)
        aods = sample_separated_aods(rng, len(delays), array)
        gains = rng.standard_normal(len(delays)) + 1j * rng.standard_normal(len(delays))
        dopplers = rng.uniform(-2000.0, 2000.0, size=len(delays))
        paths = [PathParams(g, d / self.RATE, f, a)
                 for g, d, f, a in zip(gains, delays, dopplers, aods)]
        channel = build_channel(array, paths, self.RATE)
        psi = psi_from_channel(channel)
        return rng, channel, psi, path_beamformers(psi, "zf")

    def check(self, seed, delays, window=(0, 0.0), n=96):
        rng, channel, psi, beams = self.scenario(seed, delays)
        plan = build_compensation_plan(psi, mode="tap_based",
                                       window=AlignmentWindow(*window),
                                       half_length=self.HALF)
        s = random_qpsk(rng, n)
        tx = ddam_modulate(s, psi, beams, DdamFrameConfig(n), plan=plan)
        x = per_term_synthesis(s, plan, beams, self.RATE, n + 2 * plan.n_max)
        active = n + plan.max_kappa
        x /= np.sqrt(np.sum(np.abs(x[:, :active]) ** 2) / active)
        assert tx.streams.shape[1] == x.shape[1]
        assert np.max(np.abs(tx.beams @ tx.streams - x)) < 1e-12

        eq = equivalent_channel(channel, psi, beams, plan=plan, half_length=self.HALF)
        probe = per_term_synthesis(np.ones(1), plan, beams, self.RATE, 1 + plan.max_kappa)
        taps = apply_channel(channel, Frame(probe, self.RATE),
                             half_length=self.HALF).row()[:len(eq.taps)]
        assert np.max(np.abs(eq.taps - taps)) < 1e-12
        return plan

    @pytest.mark.parametrize("seed", range(4))
    def test_tap_based_fractional(self, seed):
        plan = self.check(seed, [3.5, 7.25, 12.4])
        assert len(plan.terms) > 3

    def test_block_past_one_phasor_block(self):
        # 600 symbols: the Doppler ramps of the paths with nonzero kappa
        # start mid-block and cross the 512-sample phasor block boundary.
        plan = self.check(7, [3.5, 7.25, 12.4], n=600)
        assert any(t.kappa > 0 and t.doppler_comp_hz != 0.0 for t in plan.terms)

    def test_doppler_window(self):
        plan = self.check(5, [2.3, 6.5, 9.8], window=(2, 1500.0))
        comps = {t.doppler_comp_hz for t in plan.terms}
        assert any(c != 0.0 for c in comps)

    def test_terms_sharing_kappa_zero(self):
        plan = self.check(6, [4.2, 11.5])
        last = [t for t in plan.terms if t.path_index == 1]
        assert sum(t.kappa == 0 for t in last) >= 2


class TestEquivalentChannel:
    def test_ideal_case_single_tap(self):
        rng = np.random.default_rng(8)
        channel, psi, beams = ideal_setup(rng, num_paths=3)
        eq = equivalent_channel(channel, psi, beams)
        assert eq.dominant_tap_index == psi.n_max
        assert eq.residual_isi_power < 1e-20
        assert eq.delay_spread_samples == 0
        assert abs(eq.residual_doppler_hz) < 1e-6
        assert eq.doppler_drift < 1e-10

    def test_ideal_tap_value_formula(self):
        rng = np.random.default_rng(9)
        channel, psi, beams = ideal_setup(rng, num_paths=4)
        eq = equivalent_channel(channel, psi, beams)
        steer = np.stack([steering_vector(w, psi.array) for w in psi.aod], axis=1)
        rate = psi.sample_rate
        expected = sum(
            np.sqrt(beams.power_allocation[l]) * psi.gain_estimate[l]
            * np.exp(2j * np.pi * psi.doppler_hz[l] * psi.nearest_delays()[l] / rate)
            * (steer[:, l].conj() @ beams.vectors[:, l])
            for l in range(4))
        assert eq.dominant_gain == pytest.approx(expected, rel=1e-10)

    def test_mrt_leakage_is_small_for_large_array(self):
        rng = np.random.default_rng(10)
        rate = 1e6
        aods = [-0.5, 0.1, 0.7]
        gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        gains /= np.linalg.norm(gains)
        paths = [PathParams(g, d / rate, 0.0, a)
                 for g, d, a in zip(gains, [2, 9, 14], aods)]
        channel = build_channel(ArrayConfig(64), paths, rate)
        psi = psi_from_channel(channel)
        beams = path_beamformers(psi, "mrt")
        eq = equivalent_channel(channel, psi, beams)
        assert 0 < eq.residual_isi_power < 1e-2

    def test_doppler_elimination_property(self):
        rng = np.random.default_rng(11)
        channel, psi, beams = ideal_setup(rng, num_paths=3, mt=32)
        s = random_qpsk(rng, 256)
        rx = apply_channel(channel, ddam_modulate(s, psi, beams, DdamFrameConfig(256)))
        ratio = rx.row()[psi.n_max:psi.n_max + 256] / s
        assert np.max(np.abs(ratio - ratio.mean())) / abs(ratio.mean()) < 1e-10
        # disabling compensation (zero-Doppler PSI) leaves the variation in place
        psi_off = psi_from_channel(
            build_channel(channel.array,
                          [PathParams(p.gain, p.delay_s, 0.0, p.aod) for p in channel.paths],
                          channel.sample_rate))
        rx_off = apply_channel(channel, ddam_modulate(s, psi_off, beams, DdamFrameConfig(256)))
        ratio_off = rx_off.row()[psi.n_max:psi.n_max + 256] / s
        assert np.max(np.abs(ratio_off - ratio_off.mean())) / abs(ratio_off.mean()) > 1e-3

    def test_fractional_tap_based_beats_path_based(self):
        rng = np.random.default_rng(12)
        rate = 1e6
        aods = sample_separated_aods(rng, 3, ArrayConfig(16))
        gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        gains /= np.linalg.norm(gains)
        paths = [PathParams(g, d / rate, 0.0, a)
                 for g, d, a in zip(gains, [12.0, 9.3, 4.7], aods)]
        channel = build_channel(ArrayConfig(16), paths, rate)
        psi = psi_from_channel(channel)
        beams = path_beamformers(psi, "zf")
        eq_path = equivalent_channel(channel, psi, beams, mode="path_based",
                                     half_length=8)
        eq_tap = equivalent_channel(channel, psi, beams, mode="tap_based",
                                    half_length=8)
        assert eq_path.residual_isi_power > 1e-3
        assert eq_tap.residual_isi_power < eq_path.residual_isi_power

    def test_window_bounds_delay_spread(self):
        rng = np.random.default_rng(13)
        rate = 1e6
        aods = sample_separated_aods(rng, 3, ArrayConfig(16))
        gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        gains /= np.linalg.norm(gains)
        paths = [PathParams(g, d / rate, 0.0, a)
                 for g, d, a in zip(gains, [0, 3, 9], aods)]
        channel = build_channel(ArrayConfig(16), paths, rate)
        psi = psi_from_channel(channel)
        beams = path_beamformers(psi, "zf")
        plan = build_compensation_plan(psi, window=AlignmentWindow(4, 0.0))
        eq = equivalent_channel(channel, psi, beams, plan=plan)
        assert eq.delay_spread_samples <= 4

    def test_window_monotonicity_on_grid(self):
        rng = np.random.default_rng(14)
        rate = 1e6
        aods = sample_separated_aods(rng, 3, ArrayConfig(16))
        gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        gains /= np.linalg.norm(gains)
        paths = [PathParams(g, d / rate, 0.0, a)
                 for g, d, a in zip(gains, [0, 3, 9], aods)]
        channel = build_channel(ArrayConfig(16), paths, rate)
        psi = psi_from_channel(channel)
        beams = path_beamformers(psi, "zf")
        isi = []
        for w in (0, 2, 4, 8):
            plan = build_compensation_plan(psi, window=AlignmentWindow(w, 0.0))
            isi.append(equivalent_channel(channel, psi, beams, plan=plan).residual_isi_power)
        assert isi[0] < 1e-20
        assert all(a <= b + 1e-15 for a, b in zip(isi, isi[1:]))


class TestDetection:
    def test_noiseless_recovery_is_exact(self):
        rng = np.random.default_rng(15)
        channel, psi, beams = ideal_setup(rng, num_paths=3, mt=32)
        s = random_qpsk(rng, 512)
        cfg = DdamFrameConfig(512)
        rx = apply_channel(channel, ddam_modulate(s, psi, beams, cfg))
        gain = estimate_gain(rx.row(), s, psi.n_max)
        detected = ddam_demodulate(rx, gain, cfg, psi.n_max)
        assert np.array_equal(qpsk_demodulate(detected), qpsk_demodulate(s))
        soft = rx.row()[psi.n_max:psi.n_max + 512] / gain
        assert np.max(np.abs(soft - s)) < 1e-9

    def test_phase_of_gain_is_irrelevant(self):
        rng = np.random.default_rng(16)
        s = random_qpsk(rng, 64)
        g = 0.3 * np.exp(1j * 2.1)
        cfg = DdamFrameConfig(64)
        rx = Frame((g * s)[np.newaxis, :], 1e6)
        assert np.allclose(ddam_demodulate(rx, g, cfg, 0), s, atol=1e-12)

    def test_zero_gain_rejected(self):
        rx = Frame(np.ones((1, 8)), 1e6)
        with pytest.raises(ValueError):
            ddam_demodulate(rx, 0.0, DdamFrameConfig(8), 0)

    def test_pilot_prefix_gain_estimate(self):
        rng = np.random.default_rng(17)
        channel, psi, beams = ideal_setup(rng, num_paths=2, mt=16)
        pilot = random_qpsk(np.random.default_rng(0xDDA), 32)
        data = random_qpsk(rng, 200)
        s = np.concatenate([pilot, data])
        cfg = DdamFrameConfig(len(s))
        rx = apply_channel(channel, ddam_modulate(s, psi, beams, cfg))
        gain = estimate_gain(rx.row(), pilot, psi.n_max)
        genie = estimate_gain(rx.row(), s, psi.n_max)
        assert gain == pytest.approx(genie, rel=1e-9)

    def test_ber_matches_qpsk_theory(self):
        rng = np.random.default_rng(18)
        channel, psi, beams = ideal_setup(rng, num_paths=2, mt=16, doppler_hi=800.0)
        n = 100_000
        snr_db = 6.0
        s = random_qpsk(rng, n)
        cfg = DdamFrameConfig(n)
        clean = apply_channel(channel, ddam_modulate(s, psi, beams, cfg))
        gain = estimate_gain(clean.row(), s, psi.n_max)
        noisy = add_awgn(clean, snr_db, rng_seed=99)
        bits_hat = qpsk_demodulate(ddam_demodulate(noisy, gain, cfg, psi.n_max))
        measured = np.mean(bits_hat != qpsk_demodulate(s))
        p = qfunc(np.sqrt(10 ** (snr_db / 10)))
        sigma = np.sqrt(p * (1 - p) / (2 * n))
        assert abs(measured - p) < 3 * sigma


class TestPaprScaling:
    def test_papr_grows_with_path_count(self):
        percentiles = []
        for num_paths in (1, 2, 4, 6):
            seeds = np.random.SeedSequence(20 + num_paths).spawn(600)
            values = []
            for seq in seeds:
                rng = np.random.default_rng(seq)
                channel = on_grid_channel(rng, num_paths, mt=16, delay_hi=16,
                                          doppler_hi=0.0)
                psi = psi_from_channel(channel)
                beams = path_beamformers(psi, "zf", power_allocation="uniform")
                s = random_qpsk(rng, 256)
                tx = ddam_modulate(s, psi, beams, DdamFrameConfig(256))
                plan = build_compensation_plan(psi)
                values.append(papr_db((tx.beams @ tx.streams)[:, :256 + plan.max_kappa]))
            percentiles.append(np.percentile(values, 99.9))
        assert all(a <= b + 1e-9 for a, b in zip(percentiles, percentiles[1:]))
        assert percentiles[0] == pytest.approx(0.0, abs=1e-6)
