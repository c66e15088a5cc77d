import math

import numpy as np
import pytest

import wavelab.link as link
from wavelab.channel import ArrayConfig, sample_random_channel
from wavelab.ddam import (
    DdamFrameConfig,
    PathStateInfo,
    build_compensation_plan,
    ddam_modulate,
    path_beamformers,
    psi_from_channel,
)
from wavelab.link import make_papr_generator
from wavelab.metrics import (
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


def per_trial(gen_one):
    """Adapter: a one-trial generator, rng -> samples, as a chunk generator
    yielding one-trial chunks."""
    def gen(rngs):
        for rng in rngs:
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
# oracle: one generator call and one papr_db per trial, one exceed count per
# threshold.

def oracle_papr_db(samples, oversample=1):
    x = np.atleast_2d(np.asarray(samples, dtype=np.complex128))
    mean_power = np.mean(np.abs(x) ** 2, axis=1)
    if oversample > 1:
        rows, n = x.shape
        spectrum = np.fft.fft(x, axis=1)
        out_len = 1 << (oversample * n - 1).bit_length()
        padded = np.zeros((rows, out_len), dtype=np.complex128)
        half = n // 2
        padded[:, :half] = spectrum[:, :half]
        padded[:, out_len - (n - half):] = spectrum[:, half:]
        x = (out_len / n) * np.fft.ifft(padded, axis=1)
    peak_power = np.max(np.abs(x) ** 2, axis=1)
    return float(np.max(10.0 * np.log10(peak_power / mean_power)))


def oracle_generator(waveform, **params):
    if waveform == "ofdm":
        k = params["num_subcarriers"]
        return lambda rng: np.fft.ifft(random_qpsk(rng, k), norm="ortho")

    if waveform in ("otfs_zak", "otfs_isfft"):
        k, m = params["num_delay_bins"], params["num_doppler_bins"]

        def gen(rng):
            grid = random_qpsk(rng, k * m).reshape(k, m)
            if waveform == "otfs_zak":
                return np.fft.ifft(grid, axis=1, norm="ortho").reshape(-1, order="F")
            tf = np.fft.ifft(np.fft.fft(grid, axis=0, norm="ortho"), axis=1, norm="ortho")
            return np.fft.ifft(tf, axis=0, norm="ortho").T.reshape(-1)

        return gen

    num_paths, mt = params["num_paths"], params["mt"]
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
        frame = ddam_modulate(symbols, psi, beams, DdamFrameConfig(block), plan=plan)
        return (frame.beams @ frame.streams)[:, :block + plan.max_kappa]

    return gen


def oracle_values(gen_one, num_trials, rng_seed, oversample=1):
    root = np.random.SeedSequence(rng_seed)
    return np.array([oracle_papr_db(gen_one(np.random.default_rng(seed)), oversample)
                     for seed in root.spawn(num_trials)])


def chunk_values(gen, num_trials, rng_seed, oversample=1):
    """Per-trial PAPR of a chunk generator, trials seeded as papr_ccdf seeds them."""
    root = np.random.SeedSequence(rng_seed)
    rngs = (np.random.default_rng(seed) for seed in root.spawn(num_trials))
    return np.concatenate([papr_db(x, oversample, span) for x, span in gen(rngs)])


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
}


class TestPaprChunkOracle:
    """Chunked generators against the per-trial path: PAPR within 1e-12 dB,
    identical exceed probabilities."""

    @pytest.mark.parametrize("oversample", [1, 4])
    @pytest.mark.parametrize("trials,chunk", [(1, None), (37, None), (37, 4)])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_per_trial_oracle(self, monkeypatch, case, trials, chunk, oversample):
        waveform, params, size = ORACLE_CASES[case]
        if chunk is not None:  # 37 trials in chunks of 4: nine full, one of 1
            monkeypatch.setattr(link, "PAPR_CHUNK_BYTES", chunk * 16 * size)
        seed = 100 + trials
        expected = oracle_values(oracle_generator(waveform, **params), trials, seed,
                                 oversample)
        got = chunk_values(make_papr_generator(waveform, **params), trials, seed,
                           oversample)
        assert got.shape == (trials,)
        assert np.max(np.abs(got - expected)) <= 1e-12
        # The arithmetic per trial is unchanged, so the values are equal, and
        # thresholds at the trials' own values must agree too.
        assert np.array_equal(got, expected)
        thresholds = np.unique(np.concatenate([np.arange(0.0, 14.0, 0.05), expected]))
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
        assert calls == [(4, 3)] * 9 + [(1, 3)]

    def test_collinear_trial_in_chunk_raises_rank_error(self, monkeypatch):
        draw = link.draw_random_paths
        drawn = []

        def one_collinear(*args):
            aods, delays, dopplers, gains = draw(*args)
            drawn.append(None)
            if len(drawn) == 3:  # the third trial of the first chunk
                aods = np.array([0.25, 0.25, -0.5])
            return aods, delays, dopplers, gains

        monkeypatch.setattr(link, "draw_random_paths", one_collinear)
        gen = make_papr_generator("ddam", num_paths=3, mt=8, block_len=64)
        with pytest.raises(ValueError, match="paths 0 and 1 are nearly collinear"):
            papr_ccdf(gen, 10, rng_seed=3)
        assert len(drawn) == 10  # the whole chunk was drawn before the beam design

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
