import math

import numpy as np
import pytest

import wavelab.link as link
from wavelab.channel import ArrayConfig, PathParams, build_channel, draw_random_paths
from wavelab.ddam import (
    DdamFrameConfig,
    PathStateInfo,
    build_compensation_plan,
    ddam_modulate,
    path_based_blocks,
    path_beamformers,
    psi_from_channel,
)
from wavelab.link import make_papr_generator
from wavelab.metrics import (
    PAPR_GROUP_TRIALS,
    PAPR_ZERO_TOL_DB,
    ComplexityParams,
    ber,
    complexity_model,
    count,
    counting,
    fft_multiplies,
    measured_complexity,
    papr_ccdf,
    papr_db,
    qfunc,
    se_overhead,
)
from wavelab.modulation import random_qpsk
from wavelab.otfs import OtfsConfig, otfs_modulate_isfft


def per_trial(gen_one):
    """Adapter: a one-trial generator, rng -> samples, as a chunk generator
    yielding one-trial chunks; a group's trials draw in turn from its
    generator."""
    def gen(groups):
        for rng, count in groups:
            for _ in range(count):
                x = np.atleast_2d(gen_one(rng))
                yield x[np.newaxis], [x.shape[-1]]
    return gen


class TestPapr:
    def test_constant_envelope_is_zero_db(self):
        x = np.exp(1j * 0.7) * np.ones(256)
        assert papr_db(x) == pytest.approx(0.0, abs=1e-12)

    def test_qpsk_rectangular_pulse_is_zero_db(self):
        rng = np.random.default_rng(0)
        assert papr_db(random_qpsk(rng, 512)) == pytest.approx(0.0, abs=1e-12)

    def test_ofdm_impulse_case(self):
        # all-ones symbol vector -> time impulse -> 10 log10(64)
        x = np.fft.ifft(np.ones(64), norm="ortho")
        assert papr_db(x) == pytest.approx(10 * math.log10(64), abs=1e-9)

    def test_max_over_antennas(self):
        rows = np.stack([np.ones(64, dtype=complex),
                         np.concatenate([np.ones(63), [3.0]]).astype(complex)])
        single = papr_db(rows[1])
        assert papr_db(rows) == pytest.approx(single)

    def test_oversampling_reveals_intersample_peaks(self):
        rng = np.random.default_rng(1)
        x = random_qpsk(rng, 256)
        assert papr_db(x, oversample=4) > papr_db(x)

    def test_oversampling_keeps_true_constant_flat(self):
        x = np.exp(1j * 1.1) * np.ones(128)
        assert papr_db(x, oversample=4) == pytest.approx(0.0, abs=1e-9)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            papr_db(np.zeros(8, dtype=complex))

    @pytest.mark.parametrize("oversample", [0, -3, 1.5, 2.0])
    def test_oversample_must_be_a_positive_integer(self, oversample):
        with pytest.raises(ValueError, match="oversample"):
            papr_db(np.ones(8, dtype=complex), oversample=oversample)

    def test_numpy_integer_oversample_accepted(self):
        x = random_qpsk(np.random.default_rng(1), 256)
        assert papr_db(x, oversample=np.int64(4)) == papr_db(x, oversample=4)

    def test_span_past_the_row_rejected(self):
        # the mean would average a sample that is not there: 0.97 dB, not 0
        with pytest.raises(ValueError, match="span"):
            papr_db(np.ones(4, dtype=complex), span=5)

    def test_zero_span_rejected(self):
        with pytest.raises(ValueError, match="span"):
            papr_db(np.ones((2, 1, 4), dtype=complex), span=[4, 0])

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError, match="span"):
            papr_db(np.ones(4, dtype=complex), span=-1)

    def test_empty_stack_gives_empty_array(self):
        got = papr_db(np.zeros((0, 2, 4), dtype=complex), span=np.zeros(0, dtype=int))
        assert got.shape == (0,)

    def test_span_bounds_are_accepted(self):
        x = np.zeros((2, 1, 4), dtype=complex)
        x[0, 0, 0] = x[1] = 1.0
        assert np.array_equal(papr_db(x, span=[1, 4]), [0.0, 0.0])

    @pytest.mark.parametrize("oversample", [1, 4])
    def test_power_within_round_off_of_abs_squared(self, oversample):
        # papr_db takes power as re^2 + im^2; np.abs(x) ** 2 rounds through
        # hypot, and the two PAPRs differ by round-off only
        rng = np.random.default_rng(9)
        x = rng.standard_normal((50, 4, 256)) + 1j * rng.standard_normal((50, 4, 256))
        expected = []
        for matrix in x:
            peak_rows = matrix
            if oversample > 1:
                spectrum = np.fft.fft(matrix, axis=-1)
                padded = np.zeros((4, 1024), dtype=np.complex128)
                padded[:, :128], padded[:, -128:] = spectrum[:, :128], spectrum[:, 128:]
                peak_rows = 4 * np.fft.ifft(padded, axis=-1)
            ratio = (np.max(np.abs(peak_rows) ** 2, axis=-1)
                     / np.mean(np.abs(matrix) ** 2, axis=-1))
            expected.append(np.max(10 * np.log10(ratio)))
        got = papr_db(x, oversample)
        assert np.max(np.abs(got - np.array(expected))) <= 1e-13

    def test_constant_envelope_round_off_snaps_to_exactly_zero(self):
        # unit-modulus samples at random phases, scaled: peak and mean power
        # differ by round-off only, in a stack with a zero tail past the span
        rng = np.random.default_rng(4)
        x = np.zeros((40, 3, 300), dtype=complex)
        x[..., :257] = 0.37 * np.exp(2j * np.pi * rng.uniform(size=(40, 3, 257)))
        assert np.array_equal(papr_db(x, span=np.full(40, 257)), np.zeros(40))
        assert papr_db(x[0, 0, :257]) == 0.0
        # a real PAPR far below any CCDF step is not snapped
        x[0, 0, 5] *= 1.0 + 1e-9
        assert 0.0 < papr_db(x[0, 0, :257]) < 1e-6


class TestPaprCcdf:
    def test_constant_envelope_never_exceeds(self):
        gen = lambda rng: np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.ones(64)
        ccdf = papr_ccdf(per_trial(gen), 200, rng_seed=2)
        positive = ccdf.thresholds_db > 0
        assert np.all(ccdf.exceed_probability[positive] == 0.0)

    def test_monotone_non_increasing(self):
        gen = lambda rng: np.fft.ifft(random_qpsk(rng, 64), norm="ortho")
        ccdf = papr_ccdf(per_trial(gen), 500, rng_seed=3)
        assert np.all(np.diff(ccdf.exceed_probability) <= 0)

    def test_deterministic_under_seed(self):
        gen = lambda rng: np.fft.ifft(random_qpsk(rng, 64), norm="ortho")
        a = papr_ccdf(per_trial(gen), 100, rng_seed=4)
        b = papr_ccdf(per_trial(gen), 100, rng_seed=4)
        assert np.array_equal(a.exceed_probability, b.exceed_probability)

    def test_ddam_vs_ofdm_ordering(self):
        # few superposed unit-modulus streams peak far below a 512-carrier IFFT
        def ddam_like(rng):
            s = random_qpsk(rng, 512)
            x = (s + np.roll(s, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                 + np.roll(s, 7) * np.exp(1j * rng.uniform(0, 2 * np.pi))) / np.sqrt(3)
            return x

        ofdm = lambda rng: np.fft.ifft(random_qpsk(rng, 512), norm="ortho")
        level = 1e-2
        trials = 3000
        a = papr_ccdf(per_trial(ddam_like), trials, rng_seed=5).papr_at_level(level)
        b = papr_ccdf(per_trial(ofdm), trials, rng_seed=6).papr_at_level(level)
        assert a < b

    def test_seed_sequence_is_not_advanced(self):
        gen = make_papr_generator("ofdm", num_subcarriers=64)
        seed = np.random.SeedSequence(17)
        a = papr_ccdf(gen, 200, seed)
        b = papr_ccdf(gen, 200, seed)
        assert seed.n_children_spawned == 0
        assert np.array_equal(a.exceed_probability, b.exceed_probability)
        fresh = papr_ccdf(gen, 200, np.random.SeedSequence(17))
        assert np.array_equal(a.exceed_probability, fresh.exceed_probability)
        # A sequence that has spawned children seeds the groups after them.
        seed.spawn(1)
        c = papr_ccdf(gen, 200, seed)
        assert seed.n_children_spawned == 1
        assert not np.array_equal(a.exceed_probability, c.exceed_probability)

    def test_one_generator_per_group_of_trials(self):
        seen = []

        def gen(groups):
            for rng, count in groups:
                seen.append(count)
                yield np.ones((count, 1, 4)), np.full(count, 4)

        papr_ccdf(gen, 2 * PAPR_GROUP_TRIALS + 3, rng_seed=0)
        assert seen == [PAPR_GROUP_TRIALS, PAPR_GROUP_TRIALS, 3]

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            papr_ccdf(per_trial(lambda rng: np.ones(4)), 0, rng_seed=0)

    def test_ddam_large_array_below_ofdm_at_1e2(self):
        trials = 4000
        ddam = papr_ccdf(make_papr_generator("ddam", num_paths=3, mt=64,
                                             block_len=512),
                         trials, rng_seed=7)
        ofdm = papr_ccdf(make_papr_generator("ofdm", num_subcarriers=512),
                         trials, rng_seed=8)
        assert ddam.papr_at_level(1e-2) < ofdm.papr_at_level(1e-2)


# The per-trial PAPR path that the chunk generators replaced, kept as their
# oracle: the group's stacked draws, then one one-trial chain and one
# papr_db per trial (snapped to 0 dB as papr_db snaps), and one exceed
# count per threshold.

def oracle_power(x):
    """A sample's power as papr_db defines it: re^2 + im^2."""
    return x.real ** 2 + x.imag ** 2


def oracle_papr_db(samples, oversample=1):
    x = np.atleast_2d(np.asarray(samples, dtype=np.complex128))
    mean_power = np.mean(oracle_power(x), axis=1)
    if oversample > 1:
        rows, n = x.shape
        spectrum = np.fft.fft(x, axis=1)
        out_len = 1 << (oversample * n - 1).bit_length()
        padded = np.zeros((rows, out_len), dtype=np.complex128)
        half = n // 2
        padded[:, :half] = spectrum[:, :half]
        padded[:, out_len - (n - half):] = spectrum[:, half:]
        x = (out_len / n) * np.fft.ifft(padded, axis=1)
    peak_power = np.max(oracle_power(x), axis=1)
    papr = float(np.max(10.0 * np.log10(peak_power / mean_power)))
    return 0.0 if abs(papr) <= PAPR_ZERO_TOL_DB else papr


def oracle_generator(waveform, **params):
    """(rng, count) -> the samples of each of a group's count trials."""
    if waveform == "ofdm":
        k = params["num_subcarriers"]

        def gen(rng, count):
            symbols = random_qpsk(rng, count * k).reshape(count, k)
            return [np.fft.ifft(row, norm="ortho") for row in symbols]

        return gen

    if waveform in ("otfs_zak", "otfs_isfft"):
        # both modems compute the inverse Zak transform: the one-trial Zak chain
        k, m = params["num_delay_bins"], params["num_doppler_bins"]
        return lambda rng, count: [
            np.fft.ifft(grid, axis=1, norm="ortho").reshape(-1, order="F")
            for grid in random_qpsk(rng, count * k * m).reshape(count, k, m)]

    num_paths, array = params["num_paths"], ArrayConfig(params["mt"])
    block = params.get("block_len", 512)
    criterion = params.get("criterion", "zf")
    max_delay = params.get("max_delay_samples", 32)
    rate = params.get("sample_rate", 1e6)
    doppler = params.get("max_doppler_hz", 0.0)

    def gen(rng, count):
        drawn = draw_random_paths(array, num_paths, (0.0, max_delay / rate),
                                  (-doppler, doppler), rng, count)
        symbols = random_qpsk(rng, count * block).reshape(count, block)
        out = []
        for t, (aods, delays, dopplers, gains) in enumerate(zip(*drawn)):
            channel = build_channel(array, [
                PathParams(gain=g, delay_s=d, doppler_hz=f, aod=a)
                for g, d, f, a in zip(gains, delays, dopplers, aods)], sample_rate=rate)
            psi = psi_from_channel(channel)
            beams = path_beamformers(psi, criterion, noise_var=0.01)
            plan = build_compensation_plan(psi)
            frame = ddam_modulate(symbols[t], psi, beams, DdamFrameConfig(block), plan=plan)
            out.append((frame.beams @ frame.streams)[:, :block + plan.max_kappa])
        return out

    return gen


def isfft_modem_generator(num_delay_bins, num_doppler_bins):
    """(rng, count) -> each trial's frame body from otfs_modulate_isfft itself."""
    cfg = OtfsConfig(num_doppler_bins, num_delay_bins, 0, 1e6)
    return lambda rng, count: [
        otfs_modulate_isfft(grid, cfg).row() for grid in
        random_qpsk(rng, count * cfg.frame_len).reshape(count, *cfg.grid_shape)]


def groups(num_trials, rng_seed):
    """The trials in groups of PAPR_GROUP_TRIALS, one spawned Generator per
    group, as papr_ccdf seeds them."""
    counts = [min(PAPR_GROUP_TRIALS, num_trials - start)
              for start in range(0, num_trials, PAPR_GROUP_TRIALS)]
    seeds = np.random.SeedSequence(rng_seed).spawn(len(counts))
    return zip(map(np.random.default_rng, seeds), counts)


def oracle_values(gen_group, num_trials, rng_seed, oversample=1):
    return np.array([oracle_papr_db(x, oversample)
                     for rng, count in groups(num_trials, rng_seed)
                     for x in gen_group(rng, count)])


def chunk_values(gen, num_trials, rng_seed, oversample=1):
    """Per-trial PAPR of a chunk generator, trials seeded as papr_ccdf seeds them."""
    return np.concatenate([papr_db(x, oversample, span)
                           for x, span in gen(groups(num_trials, rng_seed))])


# (waveform, params, rows x width of one trial's samples for chunk sizing)
ORACLE_CASES = {
    "ddam_zf": ("ddam", dict(num_paths=3, mt=8, block_len=64, criterion="zf"), 8 * 96),
    "ddam_mrt": ("ddam", dict(num_paths=3, mt=8, block_len=64, criterion="mrt"), 8 * 96),
    "ddam_rzf": ("ddam", dict(num_paths=3, mt=8, block_len=64, criterion="rzf"), 8 * 96),
    "ddam_mmse": ("ddam", dict(num_paths=3, mt=8, block_len=64, criterion="mmse"), 8 * 96),
    "ddam_doppler": ("ddam", dict(num_paths=2, mt=4, block_len=48, criterion="zf",
                                  max_delay_samples=20, max_doppler_hz=3000.0), 4 * 68),
    "otfs_zak": ("otfs_zak", dict(num_delay_bins=16, num_doppler_bins=8), 128),
    "otfs_isfft": ("otfs_isfft", dict(num_delay_bins=16, num_doppler_bins=8), 128),
    "ofdm": ("ofdm", dict(num_subcarriers=64), 64),
    "ofdm_k100": ("ofdm", dict(num_subcarriers=100), 100),
}


# DDAM's chunk forms its Grams and beam product stacked over a fixed width,
# so its PAPRs differ from the one-trial chain's by round-off, bounded here.
DDAM_ORACLE_TOL_DB = 1e-12


def assert_matches_oracle(waveform, got, expected):
    """OFDM and OTFS run the one-trial arithmetic per trial: equal values.
    DDAM: within DDAM_ORACLE_TOL_DB."""
    if waveform == "ddam":
        assert np.max(np.abs(got - expected)) <= DDAM_ORACLE_TOL_DB
    else:
        assert np.array_equal(got, expected)


class TestPaprChunkOracle:
    """Chunked generators against the per-trial path on the same group
    draws: identical PAPR values and exceed probabilities (DDAM: within
    DDAM_ORACLE_TOL_DB, with exceedance compared away from the values)."""

    @pytest.mark.parametrize("oversample", [1, 4])
    @pytest.mark.parametrize("trials,chunk", [(1, None), (37, None), (37, 4)])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_per_trial_oracle(self, monkeypatch, case, trials, chunk, oversample):
        waveform, params, size = ORACLE_CASES[case]
        if chunk is not None:  # groups of 32 and 5 in chunks of 4: nine full, one of 1
            monkeypatch.setattr(link, "PAPR_CHUNK_BYTES", chunk * 16 * size)
        seed = 100 + trials
        expected = oracle_values(oracle_generator(waveform, **params), trials, seed,
                                 oversample)
        got = chunk_values(make_papr_generator(waveform, **params), trials, seed,
                           oversample)
        assert got.shape == (trials,)
        assert_matches_oracle(waveform, got, expected)
        if waveform == "otfs_isfft":  # the ISFFT modem's own chain, to round-off
            modem = oracle_values(isfft_modem_generator(**params), trials, seed, oversample)
            assert np.max(np.abs(got - modem)) <= 1e-12
        thresholds = np.unique(np.concatenate([np.arange(0.0, 14.0, 0.05), expected]))
        if waveform == "ddam":  # only thresholds the 1e-12 dB bound cannot straddle
            gap = np.min(np.abs(thresholds[:, np.newaxis] - expected), axis=1)
            thresholds = thresholds[gap > DDAM_ORACLE_TOL_DB]
        ccdf = papr_ccdf(make_papr_generator(waveform, **params), trials, seed,
                         thresholds_db=thresholds, oversample=oversample)
        oracle_exceed = np.array([(expected > t).mean() for t in thresholds])
        assert np.array_equal(ccdf.exceed_probability, oracle_exceed)

    def test_one_beam_design_per_chunk(self, monkeypatch):
        waveform, params, size = ORACLE_CASES["ddam_zf"]
        monkeypatch.setattr(link, "PAPR_CHUNK_BYTES", 4 * 16 * size)
        calls = []

        def counting(psi, *args, **kwargs):
            calls.append(psi.aod.shape)
            return path_beamformers(psi, *args, **kwargs)

        monkeypatch.setattr(link, "path_beamformers", counting)
        papr_ccdf(make_papr_generator(waveform, **params), 37, rng_seed=1)
        # groups of 32 and 5 trials, each in chunks of 4
        assert calls == [(4, 3)] * 9 + [(1, 3)]

    def test_collinear_trial_in_chunk_raises_rank_error(self, monkeypatch):
        draw = link.draw_random_paths
        drawn = []

        def one_collinear(*args):
            aods, delays, dopplers, gains = draw(*args)
            drawn.append(aods.shape)
            aods[2] = [0.25, 0.25, -0.5]  # the third trial of the first chunk
            return aods, delays, dopplers, gains

        monkeypatch.setattr(link, "draw_random_paths", one_collinear)
        gen = make_papr_generator("ddam", num_paths=3, mt=8, block_len=64)
        with pytest.raises(ValueError, match="paths 0 and 1 are nearly collinear"):
            papr_ccdf(gen, 10, rng_seed=3)
        assert drawn == [(10, 3)]  # the group's paths, one stack before the beam design

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_values_do_not_depend_on_chunk_bytes(self, monkeypatch, case):
        waveform, params, size = ORACLE_CASES[case]
        gen = make_papr_generator(waveform, **params)
        values, ccdfs = [], []
        for chunk in (1, 3, 64):  # trials per chunk
            monkeypatch.setattr(link, "PAPR_CHUNK_BYTES", chunk * 16 * size)
            values.append(chunk_values(gen, 70, 12))
            ccdfs.append(papr_ccdf(gen, 70, 12).exceed_probability)
        assert all(np.array_equal(v, values[0]) for v in values)
        assert all(np.array_equal(c, ccdfs[0]) for c in ccdfs)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_chunks_fill_across_groups(self, monkeypatch, case):
        # 15 trials per chunk over groups of 32, 32 and 6: the chunks straddle
        # the group boundaries, and only the last one is short
        waveform, params, size = ORACLE_CASES[case]
        monkeypatch.setattr(link, "PAPR_CHUNK_BYTES", 15 * 16 * size)
        chunks = list(make_papr_generator(waveform, **params)(groups(70, 21)))
        assert [len(x) for x, _ in chunks] == [15] * 4 + [10]
        got = np.concatenate([papr_db(x, 1, span) for x, span in chunks])
        expected = oracle_values(oracle_generator(waveform, **params), 70, 21)
        assert_matches_oracle(waveform, got, expected)

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_constant_envelope_block_is_exactly_0_db(self, monkeypatch, chunk):
        # Every 7th trial of a group has all its paths at one delay, so its
        # kappas are equal, every antenna row is a multiple of the QPSK
        # block and the envelope is constant: its PAPR is 0.0, not round-off
        # above it, and the 0 dB threshold does not count it, whatever the
        # chunk size.
        waveform, params, size = ORACLE_CASES["ddam_zf"]
        monkeypatch.setattr(link, "PAPR_CHUNK_BYTES", chunk * 16 * size)
        draw = link.draw_random_paths

        def shared_delay_every_seventh(*args):
            aods, delays, dopplers, gains = draw(*args)
            delays[::7] = delays[::7, :1]
            return aods, delays, dopplers, gains

        monkeypatch.setattr(link, "draw_random_paths", shared_delay_every_seventh)
        gen = make_papr_generator(waveform, **params)
        constant = np.arange(70) % PAPR_GROUP_TRIALS % 7 == 0
        values = chunk_values(gen, 70, 5)
        assert np.all(values[constant] == 0.0)
        assert np.all(values[~constant] > 0.0)
        ccdf = papr_ccdf(gen, 70, 5, thresholds_db=[0.0])
        assert ccdf.exceed_probability[0] == np.count_nonzero(~constant) / 70

    def test_blocks_count_the_per_trial_gram_multiplies(self):
        # The stacked unit-power step reports what one _unit_power_beams call
        # per block reported: L^2 multiplies per sample of its active span.
        rng = np.random.default_rng(6)
        array, n, trials = ArrayConfig(8), 64, 9
        aods, delays, dopplers, gains = draw_random_paths(
            array, 3, (0.0, 32e-6), (0.0, 0.0), rng, trials)
        psi = PathStateInfo(array, 1e6, delays * 1e6, dopplers, aods, gains)
        beams = path_beamformers(psi, "zf")
        symbols = random_qpsk(rng, trials * n).reshape(trials, n)
        with counting() as tally:
            _, span = path_based_blocks(symbols, psi, beams, n + 32)
        expected = sum(3 ** 2 * (n + build_compensation_plan(PathStateInfo(
            array, 1e6, delays[t] * 1e6, dopplers[t], aods[t], gains[t])).max_kappa)
            for t in range(trials))
        assert sum(tally) == expected == 9 * np.sum(span)

    def test_fractional_max_delay_sets_an_integer_width(self):
        gen = make_papr_generator("ddam", num_paths=3, mt=8, block_len=64,
                                  max_delay_samples=12.5)
        chunks = list(gen(groups(5, 3)))
        assert [x.shape for x, _ in chunks] == [(5, 8, 77)]
        assert np.all(chunks[0][1] <= 77)

    def test_block_wider_than_width_raises(self):
        psi = PathStateInfo(ArrayConfig(4), 1e6, np.array([[0.0, 9.0]]), np.zeros((1, 2)),
                            np.array([[-0.5, 0.5]]), np.ones((1, 2), dtype=complex))
        beams = path_beamformers(psi, "mrt")
        symbols = np.ones((1, 16), dtype=complex)
        assert path_based_blocks(symbols, psi, beams, 25)[0].shape == (1, 4, 25)
        with pytest.raises(ValueError, match="spans 25 samples, more than width 24"):
            path_based_blocks(symbols, psi, beams, 24)

    def test_stacked_rank_check_names_the_collinear_trial_paths(self):
        aods = np.array([[0.1, -0.4, 0.7], [0.3, -0.2, -0.2]])
        shape = aods.shape
        psi = PathStateInfo(ArrayConfig(8), 1e6, np.zeros(shape), np.zeros(shape),
                            aods, np.ones(shape, dtype=complex))
        with pytest.raises(ValueError, match="paths 1 and 2 are nearly collinear"):
            path_beamformers(psi, "zf")
        single = PathStateInfo(ArrayConfig(8), 1e6, np.zeros(3), np.zeros(3),
                               aods[1], np.ones(3, dtype=complex))
        with pytest.raises(ValueError, match="paths 1 and 2 are nearly collinear"):
            path_beamformers(single, "zf")

    @pytest.mark.parametrize("criterion", ["mrt", "zf", "rzf", "mmse"])
    def test_stacked_beams_equal_per_channel_beams(self, criterion):
        rng = np.random.default_rng(9)
        aods = np.array([[-0.8, 0.1, 0.6], [0.3, -0.3, 0.9], [-0.1, 0.45, -0.6]])
        gains = rng.standard_normal(aods.shape) + 1j * rng.standard_normal(aods.shape)
        delays = rng.uniform(0, 30, size=aods.shape)
        array = ArrayConfig(8)
        stacked = path_beamformers(
            PathStateInfo(array, 1e6, delays, np.zeros(aods.shape), aods, gains),
            criterion, noise_var=0.05)
        for t in range(len(aods)):
            one = path_beamformers(
                PathStateInfo(array, 1e6, delays[t], np.zeros(3), aods[t], gains[t]),
                criterion, noise_var=0.05)
            assert np.allclose(stacked.vectors[t], one.vectors, rtol=0, atol=1e-12)
            assert np.allclose(stacked.power_allocation[t], one.power_allocation,
                               rtol=0, atol=1e-15)

    def test_exceed_counts_values_strictly_above(self):
        # an impulse of length 4 has PAPR exactly 10 log10(4): the threshold
        # equal to it is not exceeded
        level = papr_db(np.array([2.0, 0.0, 0.0, 0.0]))
        ccdf = papr_ccdf(per_trial(lambda rng: np.array([2.0, 0.0, 0.0, 0.0])), 5,
                         rng_seed=0, thresholds_db=[0.0, level, 7.0])
        assert ccdf.exceed_probability.tolist() == [1.0, 0.0, 0.0]


class TestSeOverhead:
    def test_ofdm_example(self):
        assert se_overhead("ofdm", num_subcarriers=64, cp_len=16) == 0.8

    def test_ddam_example(self):
        value = se_overhead("ddam", block_len=1000, n_max=16)
        assert value == pytest.approx(1000 / 1032)

    def test_no_overhead_is_unity(self):
        assert se_overhead("ofdm", num_subcarriers=64, cp_len=0) == 1.0
        assert se_overhead("otfs", num_doppler_bins=4, num_delay_bins=16, cp_len=0) == 1.0
        assert se_overhead("ddam", block_len=100, n_max=0) == 1.0

    def test_ddam_beats_ofdm_bracket(self):
        # N > 2K with the OFDM prefix equal to n_max
        for k in (64, 256):
            for n_max in (8, 32, 128):
                for factor in (3, 8, 16):
                    n = factor * k
                    ddam = se_overhead("ddam", block_len=n, n_max=n_max)
                    ofdm = se_overhead("ofdm", num_subcarriers=k, cp_len=n_max)
                    assert ddam > ofdm

    def test_unknown_waveform(self):
        with pytest.raises(ValueError):
            se_overhead("gfdm", num_subcarriers=4, cp_len=0)


class TestBer:
    def test_identical_streams(self):
        bits = np.array([0, 1, 1, 0])
        assert ber(bits, bits) == 0.0

    def test_single_flip(self):
        tx = np.zeros(1000, dtype=int)
        rx = tx.copy()
        rx[137] = 1
        assert ber(tx, rx) == 0.001

    def test_all_flipped(self):
        tx = np.zeros(64, dtype=int)
        assert ber(tx, 1 - tx) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ber(np.zeros(4), np.zeros(5))


class TestComplexityModel:
    def test_table_examples(self):
        assert complexity_model("ofdm", ComplexityParams(64, 1024, 16, 3, 1000)) == (704, 11)
        tx, rx = complexity_model("ddam_mrt", ComplexityParams(64, 1024, 16, 3, 1000))
        assert (tx, rx) == (192, 1)

    def test_every_variant_over_grid(self):
        # closed-form recomputation of each cell
        for mt in (8, 64):
            for k in (256, 1024):
                for m in (4, 16):
                    for l in (2, 4):
                        p = ComplexityParams(mt, k, m, l, 100_000)
                        lk, lm, lkm = math.log2(k), math.log2(m), math.log2(k * m)
                        assert complexity_model("ofdm", p) == (mt * lk + mt, lk + 1)
                        assert complexity_model("otfs_isfft", p) == (
                            mt * lkm + lk + mt, lk + lkm + 1)
                        assert complexity_model("otfs_zak", p) == (mt * lm + mt, lm + 1)
                        assert complexity_model("ddam_mrt", p) == (mt * l, 1)
                        assert complexity_model("ddam_zf", p) == (
                            mt * l ** 2 / p.n_s + mt * l, 1)
                        assert complexity_model("ddam_mmse", p) == (
                            mt ** 3 * l ** 3 / p.n_s + mt * l, 1)

    def test_zf_amortizes_to_mrt(self):
        small = complexity_model("ddam_zf", ComplexityParams(64, 256, 4, 3, 10 ** 9))[0]
        assert small == pytest.approx(64 * 3, rel=1e-6)

    def test_ddam_zf_below_ofdm_when_paths_are_few(self):
        for mt in (8, 16, 64):
            for k in (256, 1024, 4096):
                for l in range(1, int(math.log2(k)) + 1):
                    for n_s in (10 ** 3, 10 ** 5):
                        if n_s < l ** 2:
                            continue
                        p = ComplexityParams(mt, k, 4, l, n_s)
                        assert (complexity_model("ddam_zf", p)[0]
                                < complexity_model("ofdm", p)[0])


class TestMeasuredComplexity:
    def test_fft_multiplies(self):
        assert fft_multiplies(1024) == 512 * 10
        assert fft_multiplies(1) == 0

    def test_counter_accumulates(self):
        with counting() as ops:
            count(3)
            count(4.5)
        assert ops == [3.0, 4.5]
        assert sum(ops) == 7.5

    def test_count_outside_any_block_records_nothing(self):
        count(5)  # no block is open: nothing to record into, and no error
        with counting() as ops:
            pass
        count(7)  # the block has closed
        assert ops == []

    def test_nested_blocks_see_only_their_own_counts(self):
        with counting() as outer:
            count(1)
            with counting() as inner:
                count(2)
                with counting() as innermost:
                    pass
                count(3)
            count(4)
        assert (outer, inner, innermost) == ([1.0, 4.0], [2.0, 3.0], [])

    def test_block_resets_after_an_exception(self):
        with counting() as outer:
            with pytest.raises(RuntimeError):
                with counting() as inner:
                    count(2)
                    raise RuntimeError("stage failed")
            count(3)  # goes to the enclosing block again
        count(4)
        assert (outer, inner) == ([3.0], [2.0])
        with counting() as fresh:
            count(5)
        assert fresh == [5.0]

    @pytest.mark.parametrize("variant", ["ofdm", "otfs_isfft", "otfs_zak",
                                         "ddam_mrt", "ddam_zf", "ddam_mmse"])
    def test_measured_within_factor_four(self, variant):
        p = ComplexityParams(mt=8, k=256, m=4, l=2, n_s=100_000)
        tx_model, rx_model = complexity_model(variant, p)
        tx_meas, rx_meas = measured_complexity(variant, p)
        assert tx_model / 4 <= tx_meas <= 4 * tx_model
        assert rx_model / 4 <= rx_meas <= 4 * rx_model


class TestQfunc:
    def test_known_values(self):
        assert qfunc(0.0) == pytest.approx(0.5)
        assert qfunc(1.0) == pytest.approx(0.158655, abs=1e-6)
        assert qfunc(-1.0) == pytest.approx(1 - 0.158655, abs=1e-6)
