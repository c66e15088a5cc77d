import json
import math

import numpy as np
import pytest

import wavelab.channel
from wavelab.channel import (
    OVERLAP_SAVE_FFT,
    ArrayConfig,
    BeamFrame,
    Frame,
    PathParams,
    ScalarChannel,
    add_awgn,
    apply_channel,
    build_channel,
    channel_from_json,
    channel_to_json,
    draw_random_paths,
    fractional_delay_taps,
    phasor,
    sample_random_channel,
    sample_separated_aods,
    steering_vector,
)


def brute_force_channel(channel, tx):
    """Direct double-sum oracle for integer-delay channels."""
    mt, n_in = tx.samples.shape
    delays = [round(p.delay_s * channel.sample_rate) for p in channel.paths]
    n_max = max(delays)
    y = np.zeros(n_in + n_max, dtype=complex)
    for path, n_l in zip(channel.paths, delays):
        a = steering_vector(path.aod, channel.array)
        for n in range(n_in + n_max):
            if 0 <= n - n_l < n_in:
                ramp = np.exp(2j * np.pi * path.doppler_hz * n / channel.sample_rate)
                y[n] += path.gain * ramp * (a.conj() @ tx.samples[:, n - n_l])
    return y


def one_path_channel(mt=2, gain=1.0, delay=0.0, doppler=0.0, aod=0.0, rate=1e6):
    array = ArrayConfig(num_tx_antennas=mt)
    return build_channel(array, [PathParams(gain, delay, doppler, aod)], rate)


class TestSteeringVector:
    def test_zero_frequency_is_all_ones(self):
        a = steering_vector(0.0, ArrayConfig(4))
        assert np.allclose(a, np.ones(4))

    def test_quarter_turn(self):
        # exp(j*pi*m*0.5) for m = 0..3
        a = steering_vector(0.5, ArrayConfig(4))
        assert np.allclose(a, [1, 1j, -1, -1j], atol=1e-15)

    def test_first_element_always_one(self):
        for aod in (-1.0, -0.3, 0.0, 0.77):
            assert steering_vector(aod, ArrayConfig(8))[0] == 1.0

    def test_geometric_series_null(self):
        array = ArrayConfig(64)
        a1 = steering_vector(0.0, array)
        a2 = steering_vector(2.0 / 64, array)
        assert abs(a1.conj() @ a2) / 64 < 1e-12

    def test_orthogonality_on_beam_grid(self):
        mt = 16
        array = ArrayConfig(mt)
        grid = -1.0 + 2.0 * np.arange(mt) / mt
        vecs = np.stack([steering_vector(w, array) for w in grid])
        gram = vecs.conj() @ vecs.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-9

    def test_domain_error(self):
        with pytest.raises(ValueError):
            steering_vector(1.0, ArrayConfig(4))
        with pytest.raises(ValueError):
            steering_vector(-1.0001, ArrayConfig(4))


class TestPhasor:
    RATE = 1e6

    @pytest.mark.parametrize("start", [0, 1, 511, 512, 513, 1000])
    @pytest.mark.parametrize("length", [0, 1, 511, 512, 1025])
    def test_slice_equals_longer_ramp(self, start, length):
        # The block split is on the absolute sample index, so a ramp that
        # starts mid-block reads the same bits as a ramp from sample 0.
        f = 1734.25
        ramp = phasor(f, start, length, self.RATE)
        assert len(ramp) == length
        assert np.array_equal(ramp, phasor(f, 0, start + length, self.RATE)[start:])

    def test_zero_frequency_is_exactly_one(self):
        assert np.array_equal(phasor(0.0, 37, 1500, self.RATE), np.ones(1500))

    @pytest.mark.parametrize("freq_hz", [2e3, -2e3])
    def test_matches_direct_exp_over_long_block(self, freq_hz):
        n = np.arange(100_000)
        direct = np.exp(2j * np.pi * freq_hz * n / self.RATE)
        assert_close_relative(phasor(freq_hz, 0, len(n), self.RATE), direct)


class TestBuildChannel:
    def test_empty_path_list_rejected(self):
        with pytest.raises(ValueError):
            build_channel(ArrayConfig(2), [], 1e6)


class TestRandomChannel:
    def test_single_path_gain_is_unit(self):
        ch = sample_random_channel(ArrayConfig(8), 1, (0, 1e-6), (-100, 100), 7,
                                   sample_rate=1e6)
        assert abs(ch.paths[0].gain) == pytest.approx(1.0)

    def test_gain_normalization(self):
        ch = sample_random_channel(ArrayConfig(16), 5, (0, 1e-6), (0, 0), 3,
                                   sample_rate=1e6)
        total = sum(abs(p.gain) ** 2 for p in ch.paths)
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_under_seed(self):
        kw = dict(delay_range=(0, 2e-6), doppler_range=(-1e3, 1e3), sample_rate=1e7)
        a = sample_random_channel(ArrayConfig(32), 4, rng_seed=11, **kw)
        b = sample_random_channel(ArrayConfig(32), 4, rng_seed=11, **kw)
        assert a == b

    def test_aod_separation(self):
        ch = sample_random_channel(ArrayConfig(64), 3, (0, 1e-6), (0, 0), 5,
                                   sample_rate=1e6)
        aods = [p.aod for p in ch.paths]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(aods[i] - aods[j]) >= 2.0 / 64

    @pytest.mark.parametrize("num_paths", [7, 8])
    def test_paths_up_to_mt_always_drawn(self, num_paths):
        # A plain uniform draw almost never separates 7 or 8 AoDs on 8
        # antennas; the exact construction, which such draws start with,
        # always does.
        for seed in range(20):
            aods = sample_separated_aods(np.random.default_rng(seed), num_paths,
                                         ArrayConfig(8))
            assert len(aods) == num_paths
            assert np.all((aods >= -1.0) & (aods < 1.0))
            gaps = np.diff(np.sort(aods))
            assert gaps.min() >= 2.0 / 8

    def test_construction_is_shuffled(self):
        orders = {tuple(np.argsort(sample_separated_aods(
            np.random.default_rng(seed), 6, ArrayConfig(8), max_tries=0)))
            for seed in range(10)}
        assert len(orders) > 1

    def test_impossible_separation_raises(self):
        with pytest.raises(ValueError, match="reduce the path count"):
            sample_random_channel(ArrayConfig(2), 4, (0, 1e-6), (0, 0), 1,
                                  sample_rate=1e6)


# The one-scenario path draw before stacked draws existed, kept as the oracle
# of a single draw: plain tries, then the exact construction.

def oracle_separated_aods(rng, num_paths, array, max_tries=1000):
    min_sep = 2.0 / array.num_tx_antennas
    for _ in range(max_tries):
        aods = rng.uniform(-1.0, 1.0, size=num_paths)
        diffs = np.abs(aods[:, None] - aods[None, :])
        np.fill_diagonal(diffs, np.inf)
        if diffs.min() >= min_sep:
            return aods
    width = 2.0 - (num_paths - 1) * min_sep
    offsets = np.sort(rng.uniform(0.0, width, size=num_paths))
    return rng.permutation(offsets - 1.0 + min_sep * np.arange(num_paths))


def oracle_random_paths(array, num_paths, delay_range, doppler_range, rng_seed):
    (lo_d, hi_d), (lo_f, hi_f) = delay_range, doppler_range
    rng = np.random.default_rng(rng_seed)
    aods = oracle_separated_aods(rng, num_paths, array)
    delays = rng.uniform(lo_d, hi_d, size=num_paths) if hi_d > lo_d else np.full(num_paths, lo_d)
    dopplers = rng.uniform(lo_f, hi_f, size=num_paths) if hi_f > lo_f else np.full(num_paths, lo_f)
    gains = (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths)) / np.sqrt(2.0)
    return aods, delays, dopplers, gains / np.linalg.norm(gains)


class TestPathDraws:
    RANGES = dict(delay_range=(0.0, 8e-6), doppler_range=(-2000.0, 2000.0))

    @pytest.mark.parametrize("mt", [8, 16, 32])
    @pytest.mark.parametrize("num_paths", [3, 4])
    def test_single_draw_matches_oracle(self, num_paths, mt):
        for seed in range(20):
            got = draw_random_paths(ArrayConfig(mt), num_paths, rng_seed=seed, **self.RANGES)
            expected = oracle_random_paths(ArrayConfig(mt), num_paths, rng_seed=seed,
                                           **self.RANGES)
            for g, e in zip(got, expected):
                assert g.shape == (num_paths,)
                assert np.array_equal(g, e)

    def test_single_draw_matches_oracle_through_the_construction(self):
        # 6 AoDs on 8 antennas: a try succeeds with probability 0.0028, so
        # the tries still run, and about 1 seed in 20 fails all 1000 of them
        # and reaches the construction (4 of these 40 do).
        array = ArrayConfig(8)
        constructed = 0
        for seed in range(100, 140):
            expected = oracle_separated_aods(np.random.default_rng(seed), 6, array)
            got = sample_separated_aods(np.random.default_rng(seed), 6, array)
            assert np.array_equal(got, expected)
            replay = np.random.default_rng(seed)
            constructed += all(
                np.min(np.diff(np.sort(replay.uniform(-1.0, 1.0, size=6)))) < 0.25
                for _ in range(1000))
        assert constructed >= 1

    @pytest.mark.parametrize("num_paths,mt", [(7, 8), (8, 8), (10, 16)])
    def test_unlikely_tries_are_skipped(self, num_paths, mt):
        # (1 - (L-1)/M_t)^L is below 1/1000: the draw starts with the
        # exact construction, for one scenario and for a stack alike.
        width = 2.0 - (num_paths - 1) * 2.0 / mt
        spacing = 2.0 / mt * np.arange(num_paths)
        for count in (None, 5):
            rng = np.random.default_rng(3)
            got = sample_separated_aods(rng, num_paths, ArrayConfig(mt), count=count)
            replay = np.random.default_rng(3)
            size = (1 if count is None else count, num_paths)
            offsets = np.sort(replay.uniform(0.0, width, size=size), axis=-1)
            rows = [replay.permutation(row - 1.0 + spacing) for row in offsets]
            assert np.array_equal(got, rows[0] if count is None else np.array(rows))
            assert rng.random() == replay.random()  # nothing else was drawn

    def test_likely_tries_still_run(self):
        # 9 AoDs on 16 antennas: a try succeeds with probability 0.0020,
        # above 1/1000, so a draw starts with plain tries.
        array = ArrayConfig(16)
        got = sample_separated_aods(np.random.default_rng(0), 9, array, count=50)
        tried = sample_separated_aods(np.random.default_rng(0), 9, array,
                                      max_tries=0, count=50)
        assert not np.array_equal(got, tried)

    @pytest.mark.parametrize("num_paths,mt", [(1, 4), (3, 8), (6, 8), (4, 16)])
    def test_stacked_draw_rows_are_valid_scenarios(self, num_paths, mt):
        aods, delays, dopplers, gains = draw_random_paths(
            ArrayConfig(mt), num_paths, rng_seed=5, count=40, **self.RANGES)
        for value in (aods, delays, dopplers, gains):
            assert value.shape == (40, num_paths)
        gaps = np.diff(np.sort(aods, axis=-1), axis=-1)
        assert np.all(gaps >= 2.0 / mt)
        assert np.all((aods >= -1.0) & (aods < 1.0))
        assert np.all((delays >= 0.0) & (delays <= 8e-6))
        assert np.all(np.abs(dopplers) <= 2000.0)
        assert np.allclose(np.sum(np.abs(gains) ** 2, axis=-1), 1.0, rtol=0, atol=1e-12)
        assert len({tuple(row) for row in aods}) == 40

    def test_stacked_draw_of_one_is_the_single_draw(self):
        single = draw_random_paths(ArrayConfig(16), 4, rng_seed=9, **self.RANGES)
        stacked = draw_random_paths(ArrayConfig(16), 4, rng_seed=9, count=1, **self.RANGES)
        for s, t in zip(single, stacked):
            assert t.shape == (1, 4)
            assert np.allclose(t[0], s, rtol=0, atol=1e-15)
        assert np.array_equal(stacked[0][0], single[0])

    def test_stacked_rejection_redraws_only_failing_rows(self):
        sizes = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def uniform(self, low, high, size):
                sizes.append(size)
                return self.rng.uniform(low, high, size)

        count = 200
        aods = sample_separated_aods(Recording(np.random.default_rng(4)), 4,
                                     ArrayConfig(8), count=count)
        rows = [size[0] for size in sizes]
        # 4 AoDs on 8 antennas: about 15% of the rows pass each try.
        assert rows[0] == count
        assert len(rows) > 2
        assert all(b < a for a, b in zip(rows, rows[1:4]))
        assert np.all(np.diff(np.sort(aods, axis=-1), axis=-1) >= 0.25)
        expected = sample_separated_aods(np.random.default_rng(4), 4, ArrayConfig(8),
                                         count=count)
        assert np.array_equal(aods, expected)


class TestApplyChannel:
    def test_single_path_all_ones_steering(self):
        ch = one_path_channel(mt=2)
        x = np.full((2, 64), 0.5 - 0.25j)
        y = apply_channel(ch, Frame(x, 1e6))
        assert np.allclose(y.row(), 2 * x[0], atol=1e-15)

    def test_doppler_ramp(self):
        ch = one_path_channel(mt=2, doppler=1000.0, rate=1e6)
        c = 0.3 + 0.4j
        x = np.full((2, 128), c)
        y = apply_channel(ch, Frame(x, 1e6))
        n = np.arange(128)
        assert np.allclose(y.row(), 2 * c * np.exp(2j * np.pi * 1e-3 * n), atol=1e-12)

    def test_beamforming_isolates_one_path(self):
        # Orthogonal steering vectors: [1, 1] and [1, -1].
        array = ArrayConfig(2)
        paths = [PathParams(0.8 + 0.1j, 0.0, 0.0, 0.0),
                 PathParams(0.5 - 0.3j, 3e-6, 500.0, -1.0)]
        ch = build_channel(array, paths, sample_rate=1e6)
        rng = np.random.default_rng(0)
        s = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        f = steering_vector(0.0, array) / np.sqrt(2)
        tx = Frame(np.outer(f, s), 1e6)
        y = apply_channel(ch, tx)
        oracle = brute_force_channel(ch, tx)
        assert np.allclose(y.row(), oracle, atol=1e-12)
        # only the first path survives: y = gain * sqrt(2) * s
        expected = paths[0].gain * np.sqrt(2) * s
        assert np.allclose(y.row()[:50], expected, atol=1e-12)

    def test_matches_brute_force_multipath(self):
        array = ArrayConfig(4)
        rng = np.random.default_rng(42)
        paths = [PathParams(rng.standard_normal() + 1j * rng.standard_normal(),
                            d / 1e6, f, a)
                 for d, f, a in [(0, 0.0, -0.5), (2, 700.0, 0.25), (5, -300.0, 0.75)]]
        ch = build_channel(array, paths, sample_rate=1e6)
        x = rng.standard_normal((4, 40)) + 1j * rng.standard_normal((4, 40))
        tx = Frame(x, 1e6)
        assert np.allclose(apply_channel(ch, tx).row(),
                           brute_force_channel(ch, tx), atol=1e-12)

    def test_linearity(self):
        ch = one_path_channel(mt=3, delay=4e-6, doppler=250.0, aod=0.3)
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        x2 = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        lhs = apply_channel(ch, Frame(x1 + x2, 1e6)).row()
        rhs = apply_channel(ch, Frame(x1, 1e6)).row() + apply_channel(ch, Frame(x2, 1e6)).row()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_superposition_over_paths(self):
        array = ArrayConfig(4)
        rng = np.random.default_rng(2)
        paths = [PathParams(0.7, 1e-6, 100.0, -0.4), PathParams(0.3j, 6e-6, -80.0, 0.6)]
        ch = build_channel(array, paths, sample_rate=1e6)
        x = rng.standard_normal((4, 48)) + 1j * rng.standard_normal((4, 48))
        tx = Frame(x, 1e6)
        full = apply_channel(ch, tx).row()
        partial = np.zeros_like(full)
        for p in paths:
            single = apply_channel(build_channel(array, [p], 1e6), tx).row()
            partial[:len(single)] += single
        assert np.max(np.abs(full - partial)) <= 1e-12 * np.max(np.abs(full))

    def test_time_invariance_without_doppler(self):
        ch = one_path_channel(mt=2, delay=7e-6, aod=0.2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
        shift = 5
        xs = np.concatenate([np.zeros((2, shift)), x], axis=1)
        y = apply_channel(ch, Frame(x, 1e6)).row()
        ys = apply_channel(ch, Frame(xs, 1e6)).row()
        assert np.allclose(ys[shift:shift + len(y)], y, atol=1e-15)
        assert np.allclose(ys[:shift], 0.0)

    def test_rejects_mismatches(self):
        ch = one_path_channel(mt=2)
        with pytest.raises(ValueError, match="3 rows"):
            apply_channel(ch, Frame(np.ones((3, 8)), 1e6))
        with pytest.raises(ValueError, match="sample rates"):
            apply_channel(ch, Frame(np.ones((2, 8)), 2e6))
        with pytest.raises(ValueError, match="3 rows"):
            apply_channel(ch, BeamFrame(np.ones((3, 1)), np.ones((1, 8)), 1e6))
        with pytest.raises(ValueError, match="sample rates"):
            apply_channel(ch, BeamFrame(np.ones((2, 1)), np.ones((1, 8)), 2e6))

    def test_beam_frame_shapes_checked(self):
        for beams, streams in ((np.ones(2), np.ones((1, 8))),
                               (np.ones((2, 2)), np.ones((1, 8))),
                               (np.ones((2, 1)), np.ones(8)),
                               (np.ones((2, 1)), np.ones((1, 0)))):
            with pytest.raises(ValueError):
                BeamFrame(beams, streams, 1e6)
        with pytest.raises(ValueError):
            BeamFrame(np.ones((2, 1)), np.ones((1, 8)), 0.0)


class TestFractionalDelay:
    def test_zero_delay_is_impulse(self):
        taps = fractional_delay_taps(0.0, half_length=8)
        expected = np.zeros(17)
        expected[8] = 1.0
        assert np.allclose(taps, expected, atol=1e-15)

    def test_half_sample_symmetry(self):
        taps = fractional_delay_taps(0.5, half_length=6)
        # symmetric about k = 0.5: tap(k) == tap(1 - k) wherever both exist,
        # i.e. the sub-array over k in [-5, 6] is a palindrome
        assert np.allclose(taps[1:], taps[1:][::-1], atol=1e-15)
        assert abs(taps[0]) < 1e-2

    def test_unit_sum(self):
        for d in (0.0, 0.1, 0.37, 0.5, 0.93):
            assert fractional_delay_taps(d).sum() == pytest.approx(1.0, abs=1e-12)

    def test_compose_identity_after_trim(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(256)
        h = 16
        y = np.convolve(x, fractional_delay_taps(0.0, half_length=h))
        assert np.max(np.abs(y[h:h + 256] - x)) < 1e-9

    def test_interpolates_bandlimited_signal(self):
        # Delaying a slow complex tone by d approximates the analytic shift.
        n = np.arange(512)
        x = np.exp(2j * np.pi * 0.05 * n)
        d = 0.3
        h = 32
        y = np.convolve(x, fractional_delay_taps(d, half_length=h))
        expected = np.exp(2j * np.pi * 0.05 * (n - d - h))
        mid = slice(2 * h, 512 - 2 * h)
        assert np.max(np.abs(y[mid] - expected[mid])) < 1e-4

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fractional_delay_taps(1.0)
        with pytest.raises(ValueError):
            fractional_delay_taps(-0.1)
        with pytest.raises(ValueError):
            fractional_delay_taps(0.5, half_length=0)

    def test_fractional_path_through_channel(self):
        # A 10.3-sample path delay lands between taps 10 and 11.
        ch = one_path_channel(mt=1, delay=10.3 / 1e6)
        n = np.arange(400)
        x = np.exp(2j * np.pi * 0.02 * n)[np.newaxis, :]
        y = apply_channel(ch, Frame(x, 1e6)).row()
        expected = np.exp(2j * np.pi * 0.02 * (n - 10.3))
        mid = slice(80, 320)
        assert np.max(np.abs(y[mid] - expected[mid])) < 1e-4


def reference_delayed_segment(signal, delay_samples, half_length, fractional_tol=1e-9):
    """(start, segment): exact shift, or the windowed-sinc FIR output."""
    nearest = int(math.floor(delay_samples + 0.5))
    if abs(delay_samples - nearest) <= fractional_tol:
        return nearest, signal
    base = int(math.floor(delay_samples))
    taps = fractional_delay_taps(delay_samples - base, half_length)
    return base - half_length, np.convolve(signal, taps)


def reference_apply_channel(channel, tx, half_length=32):
    """Per-path oracle: project, delay, truncate acausal leakage, ramp, sum."""
    rate = channel.sample_rate
    pieces = []
    total = tx.num_samples
    for path in channel.paths:
        scalar = steering_vector(path.aod, channel.array).conj() @ tx.samples
        start, segment = reference_delayed_segment(scalar, path.delay_s * rate,
                                                   half_length)
        if start < 0:
            segment = segment[-start:]
            start = 0
        pieces.append((path, start, segment))
        total = max(total, start + len(segment))
    y = np.zeros(total, dtype=np.complex128)
    for path, start, segment in pieces:
        n = np.arange(start, start + len(segment))
        ramp = np.exp(2j * np.pi * path.doppler_hz * n / rate)
        y[start:start + len(segment)] += path.gain * ramp * segment
    return y


def assert_close_relative(actual, expected, rel=1e-12):
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


class TestScalarTapOracle:
    RATE = 1e6

    def channel(self, mt, delays, seed=0):
        rng = np.random.default_rng(seed)
        aods = np.linspace(-0.9, 0.7, len(delays))
        paths = [PathParams(rng.standard_normal() + 1j * rng.standard_normal(),
                            d / self.RATE, rng.uniform(-900.0, 900.0), a)
                 for d, a in zip(delays, aods)]
        return build_channel(ArrayConfig(mt), paths, self.RATE)

    def frame(self, mt, n=96, seed=1):
        rng = np.random.default_rng(seed)
        return Frame(rng.standard_normal((mt, n)) + 1j * rng.standard_normal((mt, n)),
                     self.RATE)

    @pytest.mark.parametrize("mt", [1, 8])
    @pytest.mark.parametrize("delays", [
        (0.0, 3.0, 7.0),          # integer
        (1.25, 4.6, 9.5),         # fractional, including a half-sample tie
        (0.0, 2.4, 5.0, 11.75),   # mixed
    ])
    @pytest.mark.parametrize("half_length", [4, 32])
    def test_matches_per_path_loop(self, mt, delays, half_length):
        # Integer delays, and fractional ones whose filter starts before
        # sample 0 and is truncated there.
        channel = self.channel(mt, delays)
        lo, hi = channel.scalar_taps(half_length).support
        span = hi - lo + 1
        step = OVERLAP_SAVE_FFT - span + 1  # outputs per overlap-save block
        # one sample; the longest input whose whole output fits one FFT
        # block, and one more; one block step; within one and across many
        # phasor blocks
        for n in (1, step - span + 1, step - span + 2, step, 96, 20_000):
            tx = self.frame(mt, n)
            y = apply_channel(channel, tx, half_length=half_length).row()
            assert len(y) == n + hi
            assert_close_relative(y, reference_apply_channel(channel, tx, half_length))

    def test_long_frame_matches_per_path_loop(self):
        channel = self.channel(4, (0.0, 2.4, 5.0, 11.75))
        tx = self.frame(4, 272_000)
        assert_close_relative(apply_channel(channel, tx).row(),
                              reference_apply_channel(channel, tx))

    def test_span_wider_than_the_fft(self):
        # a delay spread wider than the default FFT length takes a longer FFT
        channel = self.channel(2, (0.3, 2500.0))
        lo, hi = channel.scalar_taps().support
        assert hi - lo + 1 > OVERLAP_SAVE_FFT
        tx = self.frame(2, 3000)
        assert_close_relative(apply_channel(channel, tx).row(),
                              reference_apply_channel(channel, tx))

    def test_zero_and_extreme_dopplers_match_per_path_loop(self):
        paths = [PathParams(0.8 - 0.1j, 1.25 / self.RATE, 0.0, -0.5),
                 PathParams(-0.3 + 0.4j, 4.0 / self.RATE, 2000.0, 0.1),
                 PathParams(0.2j, 9.5 / self.RATE, -2000.0, 0.6)]
        channel = build_channel(ArrayConfig(4), paths, self.RATE)
        tx = self.frame(4, 5000)
        assert_close_relative(apply_channel(channel, tx).row(),
                              reference_apply_channel(channel, tx))

    @pytest.mark.parametrize("n", [1, 96, 5000])
    def test_shared_signal_matches_per_path_loop(self, n):
        # One antenna: every path sees the same row, so the oracle's
        # projected rows are the shared 1-D signal.
        channel = self.channel(1, (0.0, 2.4, 5.0, 11.75))
        tx = self.frame(1, n)
        assert_close_relative(channel.scalar_taps()(tx.row()),
                              reference_apply_channel(channel, tx))

    @pytest.mark.parametrize("delays", [(1.25, 4.6, 9.5), (0.0, 2.4, 5.0, 11.75)])
    @pytest.mark.parametrize("half_length", [8, 32])
    @pytest.mark.parametrize("num_beams", [1, 3])
    def test_beam_frame_matches_antenna_rows(self, delays, half_length, num_beams):
        # Fractional delays and Dopplers up to 900 Hz; beams @ streams is
        # the antenna matrix the BeamFrame stands for.
        channel = self.channel(8, delays)
        rng = np.random.default_rng(2)
        shape = (8, num_beams)
        beams = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        streams = self.frame(num_beams).samples
        y = apply_channel(channel, BeamFrame(beams, streams, self.RATE),
                          half_length=half_length)
        expected = apply_channel(channel, Frame(beams @ streams, self.RATE),
                                 half_length=half_length)
        assert y.num_antennas == 1
        assert_close_relative(y.samples, expected.samples)

    @pytest.mark.parametrize("delay", [0.2, 0.7, 1e-3])
    def test_acausal_leakage_truncated(self, delay):
        # floor(delay) = 0 < half_length, so the FIR output starts half_length
        # samples before sample 0; those are cut and N + half_length remain.
        channel = self.channel(4, (delay, 3.0))
        tx = self.frame(4, n=40)
        y = apply_channel(channel, tx, half_length=8).row()
        expected = reference_apply_channel(channel, tx, 8)
        assert len(y) == len(expected) == 40 + 8
        assert_close_relative(y, expected)

    def test_row_block_matches_shared_signal(self):
        taps = ((0.8, 0.0, 0.0), (0.3 - 0.2j, 2.4, 350.0), (0.1j, 6.0, -90.0))
        scalar = ScalarChannel(taps, self.RATE, half_length=6)
        s = self.frame(1, n=50).row()
        assert np.array_equal(scalar(np.tile(s, (3, 1))), scalar(s))

    def test_row_block_is_sum_of_single_taps(self):
        taps = ((0.8, 0.0, 0.0), (0.3 - 0.2j, 2.4, 350.0), (0.1j, 6.0, -90.0))
        rows = self.frame(3, n=50).samples
        y = ScalarChannel(taps, self.RATE, half_length=6)(rows)
        expected = np.zeros(len(y), dtype=np.complex128)
        for tap, row in zip(taps, rows):
            single = ScalarChannel((tap,), self.RATE, half_length=6)(row)
            expected[:len(single)] += single
        assert_close_relative(y, expected)

    def test_row_count_must_match_taps(self):
        scalar = ScalarChannel(((1.0, 0.0, 0.0), (0.5, 1.0, 0.0)), self.RATE)
        with pytest.raises(ValueError, match="3 input rows for 2 taps"):
            scalar(np.ones((3, 8)))

    @pytest.mark.parametrize("half_length", [3, 32])
    def test_frequency_response_matches_impulse_dft(self, half_length):
        channel = self.channel(2, (0.0, 0.4, 3.0, 5.5, 12.9))
        k = 64
        bins = np.arange(k)
        expected = np.empty((channel.num_paths, k), dtype=np.complex128)
        for l, path in enumerate(channel.paths):
            start, segment = reference_delayed_segment(
                np.array([1.0 + 0.0j]), path.delay_s * self.RATE, half_length)
            positions = start + np.arange(len(segment))
            expected[l] = np.exp(-2j * np.pi * np.outer(bins, positions) / k) @ segment
        actual = channel.scalar_taps(half_length).frequency_response(k)
        assert_close_relative(actual, expected)

    @pytest.mark.parametrize("taps", [
        ((0.8, 0.0, 0.0), (0.3 - 0.2j, 2.0, 350.0)),               # integer
        ((0.8, 0.3, 120.0), (0.3 - 0.2j, 2.4, 350.0), (0.1j, 6.5, -90.0)),
    ])
    @pytest.mark.parametrize("n_in", [1, 13, 40, 520])  # 520: past one phasor block
    def test_matrix_columns_are_impulse_responses(self, taps, n_in):
        # The call sums its taps by FFT, so it matches the exact band up to
        # round-off, and leaves at most that much outside the support.
        scalar = ScalarChannel(taps, self.RATE, half_length=6)
        h = scalar.matrix(n_in)
        lo, hi = scalar.support
        for j, impulse in enumerate(np.eye(n_in, dtype=np.complex128)):
            y = scalar(impulse)
            assert_close_relative(y, h[:, j])
            outside = np.ones(len(y), dtype=bool)
            outside[max(j + lo, 0):j + hi + 1] = False
            assert np.max(np.abs(y[outside]), initial=0.0) <= 1e-14 * np.max(np.abs(y))

    @pytest.mark.parametrize("taps, support", [
        (((0.8, 0.0, 0.0), (0.3 - 0.2j, 2.0, 350.0)), (0, 2)),
        # near-zero delay: the interpolator starts half_length before sample 0
        (((0.8, 0.02, 120.0), (0.3 - 0.2j, 2.4, 350.0), (0.1j, 6.0, -90.0)), (-6, 8)),
    ])
    def test_support_bounds_matrix_columns(self, taps, support):
        scalar = ScalarChannel(taps, self.RATE, half_length=6)
        assert scalar.support == support
        lo, hi = support
        h = scalar.matrix(40)
        for j in range(40):
            rows = np.flatnonzero(h[:, j])
            assert rows.min() >= j + lo and rows.max() == j + hi
            if j + lo >= 0:
                assert rows.min() == j + lo

    def test_filters_built_once_per_channel_and_half_length(self, monkeypatch):
        calls = []
        original = wavelab.channel.fractional_delay_taps

        def counting(frac, half_length=32):
            calls.append((frac, half_length))
            return original(frac, half_length)

        monkeypatch.setattr(wavelab.channel, "fractional_delay_taps", counting)
        channel = self.channel(2, (0.0, 1.5, 4.25))  # two fractional taps
        tx = self.frame(2, n=24)
        for _ in range(5):
            apply_channel(channel, tx)
        assert len(calls) == 2
        apply_channel(channel, tx, half_length=4)
        apply_channel(channel, tx, half_length=4)
        assert len(calls) == 4
        assert channel.scalar_taps() is channel.scalar_taps(32)

    def test_spectra_built_on_first_call(self, monkeypatch):
        # construction, support and matrix take no FFT; the first call
        # transforms the three tap kernels once, and later calls reuse them
        taps = ((0.8, 0.02, 120.0), (0.3 - 0.2j, 2.4, 350.0), (0.1j, 6.0, -90.0))
        x = self.frame(3, n=96).samples
        fft = np.fft.fft
        shapes = []

        def counting_fft(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counting_fft)
        scalar = ScalarChannel(taps, self.RATE, half_length=6)
        assert scalar.support == (-6, 8)
        scalar.matrix(40)
        assert shapes == []
        first = scalar(x)
        assert shapes[0] == (3, OVERLAP_SAVE_FFT)
        assert np.array_equal(scalar(x), first)
        assert shapes.count((3, OVERLAP_SAVE_FFT)) == 1


class TestAwgn:
    def test_infinite_snr_sentinel(self):
        f = Frame(np.ones((1, 16)), 1e6)
        out = add_awgn(f, float("inf"), 0)
        assert np.array_equal(out.samples, f.samples)

    def test_deterministic_under_seed(self):
        f = Frame(np.ones((1, 64)), 1e6)
        a = add_awgn(f, 10.0, 123)
        b = add_awgn(f, 10.0, 123)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("shape", [(1, 64), (3, 64), (2, 101)])
    def test_matches_two_draw_expression(self, shape):
        # the noise takes one draw of 2 x shape normals, real parts first:
        # the same generator stream as separate real and imaginary draws
        rng = np.random.default_rng(8)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        snr_db = 7.0
        variance = float(np.mean(np.abs(x) ** 2)) / 10 ** (snr_db / 10)
        draws = np.random.default_rng(99)
        expected = x + np.sqrt(variance / 2.0) * (draws.standard_normal(shape)
                                                  + 1j * draws.standard_normal(shape))
        assert np.array_equal(add_awgn(Frame(x, 1e6), snr_db, 99).samples, expected)

    def test_noise_variance_law_of_large_numbers(self):
        n = 10 ** 6
        f = Frame(np.ones((1, n)), 1e6)
        noisy = add_awgn(f, 0.0, 9)
        measured = np.mean(np.abs(noisy.row() - 1.0) ** 2)
        assert abs(measured - 1.0) < 0.05

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((1, 0)), 1e6)


class TestSerialization:
    def test_round_trip_and_field_names(self):
        ch = sample_random_channel(ArrayConfig(8, 0.5), 3, (0, 1e-6), (-500, 500), 17,
                                   sample_rate=1e7)
        doc = channel_to_json(ch)
        assert set(doc) == {"array", "sample_rate_hz", "paths"}
        assert set(doc["array"]) == {"mt", "spacing"}
        assert set(doc["paths"][0]) == {"gain_re", "gain_im", "delay_s", "doppler_hz", "aod"}
        # survives a real JSON encode/decode
        restored = channel_from_json(json.loads(json.dumps(doc)))
        assert restored == ch
