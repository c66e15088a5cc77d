"""Sparse time-varying multipath MISO channel in discrete-time baseband.

The channel is a sum of L discrete paths, each with a complex gain, a
propagation delay, a Doppler shift and an angle of departure seen from a
uniform linear transmit array.  Delays are applied as integer sample shifts
plus a windowed-sinc interpolation filter for the fractional residue.

After beamforming every link is a short list of scalar (gain, delay,
Doppler) taps, so ScalarChannel is the one place taps are applied:
apply_channel projects the transmitted signal onto each path's steering
vector and hands the per-path rows to the channel's own tap list.  A
transmitter that sends R streams on R beams hands it a BeamFrame, and the
projection is the L x R cross-gain matrix A^H F times the streams, so the
M_t antenna rows are never formed; a Frame of antenna rows is projected
as A^H x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Fractional residues below this (in samples) collapse to a pure integer shift.
FRACTIONAL_TOL = 1e-9

# Default half-length of the windowed-sinc fractional delay filter.
DEFAULT_HALF_LENGTH = 32

# phasor splits each sample index as n = PHASOR_BLOCK * q + r.
PHASOR_BLOCK = 512

# ScalarChannel's overlap-save FFT length, doubled while a channel's span of
# lags exceeds half of it.  On 4-tap channels and frames of 1040 to 272 000
# samples it ran within 10 % of the fastest of 1024 to 8192.
OVERLAP_SAVE_FFT = 2048

# ScalarChannel.__call__ runs its overlap-save blocks in passes of about this
# many bytes of spectrum, so its temporaries stay small and in cache on long
# inputs: at 100 000 samples, 1 << 18 ran about 25 % faster than 1 << 16 or
# 1 << 20.
OVERLAP_SAVE_BYTES = 1 << 18


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear transmit array, element spacing in carrier wavelengths."""

    num_tx_antennas: int
    element_spacing: float = 0.5

    def __post_init__(self):
        if self.num_tx_antennas < 1:
            raise ValueError("num_tx_antennas must be >= 1")
        if self.element_spacing <= 0:
            raise ValueError("element_spacing must be > 0")


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain, delay (s), Doppler (Hz), AoD."""

    gain: complex
    delay_s: float
    doppler_hz: float
    aod: float

    def __post_init__(self):
        if abs(self.gain) == 0:
            raise ValueError("path gain must be nonzero")
        if self.delay_s < 0:
            raise ValueError("path delay must be >= 0")
        if not -1.0 <= self.aod < 1.0:
            raise ValueError("aod must lie in [-1, 1)")


@dataclass(frozen=True)
class Frame:
    """Block of complex baseband samples, one row per transmit antenna."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        # copy so freezing the frame never flips flags on a caller's array
        samples = np.array(self.samples, dtype=np.complex128, ndmin=2)
        if samples.ndim != 2 or samples.shape[1] < 1:
            raise ValueError("samples must be a non-empty (rows x N) matrix")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def num_antennas(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    def row(self, i: int = 0) -> np.ndarray:
        return self.samples[i]


@dataclass(frozen=True)
class BeamFrame:
    """R streams sent on R beams: antenna samples beams @ streams, never formed.

    beams is (M_t x R), one column per beam; streams is (R x N), one row
    per beam.  apply_channel takes it in place of the equivalent Frame.
    """

    beams: np.ndarray
    streams: np.ndarray
    sample_rate: float

    def __post_init__(self):
        beams = np.array(self.beams, dtype=np.complex128)
        streams = np.array(self.streams, dtype=np.complex128)
        if beams.ndim != 2 or streams.ndim != 2 or beams.shape[1] != len(streams):
            raise ValueError("beams must be (M_t x R) and streams (R x N)")
        if streams.shape[1] < 1:
            raise ValueError("streams must be non-empty")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        for name, a in (("beams", beams), ("streams", streams)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def num_antennas(self) -> int:
        return self.beams.shape[0]


@dataclass(frozen=True)
class MultipathChannel:
    """L discrete paths plus array geometry and sample rate."""

    array: ArrayConfig
    paths: tuple
    sample_rate: float

    def __post_init__(self):
        if len(self.paths) < 1:
            raise ValueError("channel needs at least one path")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        object.__setattr__(self, "paths", tuple(self.paths))
        object.__setattr__(self, "_cache", {})

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @cached_property
    def steering_matrix(self) -> np.ndarray:
        """(M_t x L) array responses, one column per path."""
        return steering_vector(np.array([p.aod for p in self.paths]), self.array)

    def cached(self, key, build):
        """build(), called once per key for the life of the channel; the key
        names all the value depends on besides the channel."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def scalar_taps(self, half_length: int = DEFAULT_HALF_LENGTH) -> "ScalarChannel":
        """The paths as (gain, delay_samples, doppler_hz) taps, built once per filter."""
        def build():
            taps = tuple((p.gain, p.delay_s * self.sample_rate, p.doppler_hz)
                         for p in self.paths)
            return ScalarChannel(taps, self.sample_rate, half_length)

        return self.cached(("scalar_taps", half_length), build)

    def delays_in_samples(self) -> np.ndarray:
        return np.array([p.delay_s * self.sample_rate for p in self.paths])


def steering_vector(aod, array: ArrayConfig) -> np.ndarray:
    """Array response for a normalized spatial frequency in [-1, 1).

    Element m is exp(j*pi*m*(2*spacing)*aod); element 0 is always 1.  One
    AoD gives an (M_t,) vector; an (..., L) array of AoDs gives an
    (..., M_t, L) stack with one column per AoD.
    """
    aod = np.asarray(aod, dtype=float)
    if np.any((aod < -1.0) | (aod >= 1.0)):
        raise ValueError(f"aod {aod} outside [-1, 1)")
    m = np.arange(array.num_tx_antennas)
    if aod.ndim:
        m, aod = m[:, np.newaxis], aod[..., np.newaxis, :]
    return np.exp(1j * np.pi * m * (2.0 * array.element_spacing) * aod)


def phasor(freq_hz: float, start: int, length: int, sample_rate: float) -> np.ndarray:
    """exp(j*2*pi*freq_hz*n/B) for n = start .. start + length - 1.

    With n = PHASOR_BLOCK * q + r, the ramp is the flattened outer product
    of a coarse exp table over q and a fine one over r: about
    length / PHASOR_BLOCK + PHASOR_BLOCK exps, not one per sample.  The
    split is on the absolute n, so any slice equals the same samples of a
    longer ramp.
    """
    first, last = start // PHASOR_BLOCK, -(-(start + length) // PHASOR_BLOCK)
    step = 2j * np.pi * freq_hz / sample_rate
    coarse = np.exp(step * PHASOR_BLOCK * np.arange(first, last))
    fine = np.exp(step * np.arange(PHASOR_BLOCK))
    offset = start - first * PHASOR_BLOCK
    return (coarse[:, np.newaxis] * fine).ravel()[offset:offset + length]


def build_channel(array: ArrayConfig, paths, sample_rate: float) -> MultipathChannel:
    """Assemble a channel from explicit per-path parameters."""
    return MultipathChannel(array=array, paths=tuple(paths), sample_rate=sample_rate)


def sample_separated_aods(rng, num_paths: int, array: ArrayConfig,
                          max_tries: int = 1000, count: int = None) -> np.ndarray:
    """Draw AoDs uniform on [-1, 1) with pairwise separation >= one beamwidth.

    The separation floor is 2/M_t.  Plain uniform draws are tried up to
    max_tries times; a try succeeds with probability
    (1 - (L-1)/M_t)^L.  When that is below 1/max_tries, or all tries fail,
    the AoDs come from an exact construction on the same generator: sorted
    uniform offsets on [0, 2 - (L-1)*2/M_t), the i-th plus i*2/M_t, shifted
    to start at -1 and shuffled.  Returns (L,), or (count, L) for a stack
    of count scenarios: each try draws every row still failing at once,
    and the rows the tries leave are built at once.  Raises for L > M_t,
    where no L AoDs fit.
    """
    min_sep = 2.0 / array.num_tx_antennas
    width = 2.0 - (num_paths - 1) * min_sep
    if width <= 0:
        raise ValueError(
            f"cannot place {num_paths} AoDs separated by {min_sep:.4g} on [-1, 1); "
            f"reduce the path count or use a larger array")
    if (width / 2.0) ** num_paths * max_tries < 1.0:
        max_tries = 0  # the tries would most likely all fail
    aods = np.empty((1 if count is None else count, num_paths))
    todo = np.arange(len(aods))
    for _ in range(max_tries):
        if len(todo) == 0:
            break
        tries = rng.uniform(-1.0, 1.0, size=(len(todo), num_paths))
        # The closest pair of a row is adjacent once it is sorted.
        gaps = np.diff(np.sort(tries, axis=-1), axis=-1)
        ok = gaps.min(axis=-1, initial=np.inf) >= min_sep
        aods[todo[ok]] = tries[ok]
        todo = todo[~ok]
    if len(todo):
        offsets = np.sort(rng.uniform(0.0, width, size=(len(todo), num_paths)), axis=-1)
        aods[todo] = rng.permuted(offsets - 1.0 + min_sep * np.arange(num_paths), axis=-1)
    return aods[0] if count is None else aods


def draw_random_paths(array: ArrayConfig, num_paths: int, delay_range,
                      doppler_range, rng_seed, count: int = None):
    """(aods, delays_s, dopplers_hz, gains) of one random scenario, or a stack.

    The draws, in order from default_rng(rng_seed) (a Generator is used as
    it is): separated AoDs, uniform delays, uniform Dopplers, then i.i.d.
    circular Gaussian gains normalized so each scenario's sum |gain|^2 = 1.
    Each array is (L,), or (count, L) with one row per scenario: a stack
    draws each quantity for all its rows before the next, with one AoD
    rejection pass over all its rows per try (see sample_separated_aods).
    A degenerate range (low == high) draws nothing.  Deterministic for a
    fixed seed.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    lo_d, hi_d = delay_range
    lo_f, hi_f = doppler_range
    if hi_d < lo_d or hi_f < lo_f:
        raise ValueError("ranges must be (low, high) with low <= high")
    rng = np.random.default_rng(rng_seed)
    shape = (num_paths,) if count is None else (count, num_paths)
    aods = sample_separated_aods(rng, num_paths, array, count=count)
    delays = rng.uniform(lo_d, hi_d, size=shape) if hi_d > lo_d else np.full(shape, lo_d)
    dopplers = rng.uniform(lo_f, hi_f, size=shape) if hi_f > lo_f else np.full(shape, lo_f)
    gains = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    # The 1-D norm sums in another order than the per-row one, so a single
    # scenario keeps it and its gains do not depend on the stacked form.
    norm = (np.linalg.norm(gains) if count is None
            else np.linalg.norm(gains, axis=-1, keepdims=True))
    return aods, delays, dopplers, gains / norm


def sample_random_channel(array: ArrayConfig, num_paths: int, delay_range,
                          doppler_range, rng_seed,
                          sample_rate: float = 1.0) -> MultipathChannel:
    """Random scenario: uniform delays/Dopplers, separated AoDs, unit-energy gains.

    The paths come from draw_random_paths.  Deterministic for a fixed seed.
    """
    aods, delays, dopplers, gains = draw_random_paths(
        array, num_paths, delay_range, doppler_range, rng_seed)
    paths = [PathParams(gain=g, delay_s=d, doppler_hz=f, aod=a)
             for g, d, f, a in zip(gains, delays, dopplers, aods)]
    return build_channel(array, paths, sample_rate=sample_rate)


def fractional_delay_taps(fractional_delay: float, half_length: int = DEFAULT_HALF_LENGTH) -> np.ndarray:
    """Windowed-sinc FIR approximating a delay of d in [0, 1) samples.

    Taps cover k in [-half_length, half_length], Hann-windowed over the
    support and normalized to unit sum.  Tap j of the returned array
    corresponds to lag k = j - half_length.
    """
    if not 0.0 <= fractional_delay < 1.0:
        raise ValueError("fractional_delay must lie in [0, 1)")
    if half_length < 1:
        raise ValueError("half_length must be >= 1")
    k = np.arange(-half_length, half_length + 1)
    t = k - fractional_delay
    window = 0.5 * (1.0 + np.cos(np.pi * t / (half_length + 1)))
    taps = np.sinc(t) * window
    return taps / taps.sum()


def delay_filter(delay_samples: float, half_length: int):
    """(start, fir) realizing a delay of the given samples, fir[0] at lag start.

    Delays within FRACTIONAL_TOL of an integer are exact shifts, the
    one-tap fir [1.0]; fractional residues use the windowed-sinc filter,
    whose output starts half_length samples before the integer part of the
    delay.  The channel and the tap-based DDAM compensation plan both take
    their taps from here.
    """
    nearest = round(delay_samples)
    if abs(delay_samples - nearest) <= FRACTIONAL_TOL:
        return nearest, np.ones(1)
    base = int(math.floor(delay_samples))
    return base - half_length, fractional_delay_taps(delay_samples - base, half_length)


@dataclass(frozen=True)
class ScalarChannel:
    """Scalar channel of (gain, delay_samples, doppler_hz) taps.

    y[n] = sum_l gain_l * exp(j*2*pi*doppler_l*n/B) * x_l[n - delay_l], with
    the Doppler ramp indexed by the receiver clock and taken from phasor.
    A 1-D signal goes through every tap; an (L x N) block sends row l
    through tap l.  Each tap's delay filter (delay_filter: one FIR, even
    for an integer delay) is built once, with the object.
    The output is longer than the input by the largest integer delay plus
    any interpolation transient; acausal leakage of the interpolator for
    near-zero delays is truncated.

    __call__ sums the taps in the frequency domain.  Since
    exp(j w n) (f * x)[n] = ((f[k] exp(j w (s + k))) * (x[m] exp(j w m)))[n - s]
    for a filter f starting at lag s, each tap is a plain FIR on its
    Doppler-rotated input row.  The rotated FIRs share one lag axis from
    the earliest filter start, and their spectra are built once, on the
    first call.  Overlap-save then costs one forward FFT per tap and block and
    one inverse FFT per block for all taps.  matrix is the exact band that
    this computes up to round-off: about 1e-13 relative on long frames,
    and about 1e-18 of an impulse outside support.
    """

    taps: tuple
    sample_rate: float
    half_length: int = DEFAULT_HALF_LENGTH

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(self.taps))
        if not self.taps:
            raise ValueError("a scalar channel needs at least one tap")
        filters = tuple(delay_filter(float(delay), self.half_length)
                        for _, delay, _ in self.taps)
        object.__setattr__(self, "_filters", filters)
        lo = min(start for start, _ in filters)
        # samples the output runs past the input's end
        tail = max([0] + [start + len(fir) - 1 for start, fir in filters])
        object.__setattr__(self, "_tail", tail)
        object.__setattr__(self, "_lo", lo)

    @cached_property
    def _spectra(self) -> np.ndarray:
        """(L x nfft) spectra of the rotated FIRs on the common lag axis,
        built on the first __call__; support and matrix never need them."""
        # overlap-save needs the span of lags to fit in one FFT block
        span = self._tail - self._lo + 1
        nfft = OVERLAP_SAVE_FFT
        while nfft < 2 * span:
            nfft *= 2
        kernels = np.zeros((len(self._filters), nfft), dtype=np.complex128)
        for kernel, (gain, _, doppler_hz), (start, fir) in zip(kernels, self.taps,
                                                               self._filters):
            kernel[start - self._lo:start - self._lo + len(fir)] = gain * fir * phasor(
                doppler_hz, start, len(fir), self.sample_rate)
        return np.fft.fft(kernels)

    @property
    def support(self) -> tuple:
        """(lo, hi): an input impulse at j reaches output rows j + lo .. j + hi.

        lo is the earliest filter start, negative for a fractional delay
        whose interpolator leaks before the integer part; rows below 0 are
        truncated.  hi is the tail the output runs past the input's end.
        __call__ leaves round-off, about 1e-18 of the impulse, on the other
        rows; matrix is exactly zero there.
        """
        return self._lo, self._tail

    @property
    def gains(self) -> np.ndarray:
        return np.array([t[0] for t in self.taps])

    @property
    def dopplers(self) -> np.ndarray:
        return np.array([t[2] for t in self.taps])

    def __call__(self, signal: np.ndarray) -> np.ndarray:
        signal = np.asarray(signal, dtype=np.complex128)
        if signal.ndim == 2 and len(signal) != len(self.taps):
            raise ValueError(f"{len(signal)} input rows for {len(self.taps)} taps")
        n = signal.shape[-1]
        rows = signal if signal.ndim == 2 else np.broadcast_to(signal, (len(self.taps), n))
        nfft = self._spectra.shape[-1]
        span = self._tail - self._lo + 1
        step = nfft - span + 1  # outputs per block
        per_pass = max(1, OVERLAP_SAVE_BYTES // (16 * nfft))  # blocks per pass
        # z[p] = y[p + lo] is the full convolution on the common lag axis;
        # output block b is z[b * step:(b + 1) * step], from input samples
        # b * step - (span - 1) onwards.
        lead = max(self._lo, 0)
        out = np.zeros(lead + -(-(n + span - 1) // step) * step, dtype=np.complex128)
        z = out[lead:]
        for first in range(0, len(z), per_pass * step):
            blocks = min(per_pass, (len(z) - first) // step)
            window = np.zeros((blocks - 1) * step + nfft, dtype=np.complex128)
            origin = first - (span - 1)  # input sample at window[0]
            a, b = max(origin, 0), min(origin + len(window), n)
            # block i is window[i * step:i * step + nfft]
            frames = np.lib.stride_tricks.as_strided(
                window, (blocks, nfft), (step * window.itemsize, window.itemsize),
                writeable=False)
            spectrum = np.zeros((blocks, nfft), dtype=np.complex128)
            for row, (_, _, doppler_hz), tap_spectrum in zip(rows, self.taps,
                                                             self._spectra):
                np.multiply(row[a:b], phasor(doppler_hz, a, b - a, self.sample_rate),
                            out=window[a - origin:b - origin])
                block_spectra = np.fft.fft(frames)
                block_spectra *= tap_spectrum
                spectrum += block_spectra
            z[first:first + blocks * step] = np.fft.ifft(spectrum)[:, span - 1:].reshape(-1)
        skip = max(-self._lo, 0)
        return out[skip:skip + n + self._tail]

    def matrix(self, n_in: int) -> np.ndarray:
        """((n_in + tail) x n_in) time-domain matrix: column j is self(e_j).

        Each tap adds gain * Doppler ramp * FIR on a band of diagonals, one
        diagonal per FIR coefficient.  The band is exact; __call__ matches
        it up to round-off.
        """
        n_out = n_in + self._tail
        h = np.zeros((n_out, n_in), dtype=np.complex128)
        for (gain, _, doppler_hz), (start, fir) in zip(self.taps, self._filters):
            ramp = gain * phasor(doppler_hz, 0, n_out, self.sample_rate)
            lag, col = np.indices((len(fir), n_in)).reshape(2, -1)
            row = start + lag + col
            keep = row >= 0
            lag, col, row = lag[keep], col[keep], row[keep]
            h[row, col] += ramp[row] * fir[lag]
        return h

    def frequency_response(self, k: int) -> np.ndarray:
        """(L x K) K-point DFT of each tap's delay filter, gain and Doppler excluded."""
        bins = np.arange(k)
        response = np.empty((len(self.taps), k), dtype=np.complex128)
        for l, (start, fir) in enumerate(self._filters):
            positions = start + np.arange(len(fir))
            response[l] = np.exp(-2j * np.pi * np.outer(bins, positions) / k) @ fir
        return response


def apply_scalar_paths(signal: np.ndarray, paths, sample_rate: float,
                       half_length: int = DEFAULT_HALF_LENGTH) -> np.ndarray:
    """One-shot ScalarChannel: send a signal through (gain, delay_samples, doppler_hz) taps."""
    return ScalarChannel(paths, sample_rate, half_length)(signal)


def apply_channel(channel: MultipathChannel, tx: Frame | BeamFrame,
                  half_length: int = DEFAULT_HALF_LENGTH) -> Frame:
    """Propagate an M_t-row Frame or a BeamFrame, returning one received row.

    y[n] = sum_l gain_l * exp(j*2*pi*doppler_l*n/B) * a(aod_l)^H x[n - delay_l]:
    the steering projection A^H x gives one row per path, which the
    channel's scalar taps delay, rotate and sum (see ScalarChannel).  For a
    BeamFrame, x = F S and the projection is (A^H F) S, L x R times R x N.
    Every BER runner sends a BeamFrame; antenna rows are the reference form.
    """
    if tx.num_antennas != channel.array.num_tx_antennas:
        raise ValueError(
            f"tx frame has {tx.num_antennas} rows, channel expects "
            f"{channel.array.num_tx_antennas}")
    if tx.sample_rate != channel.sample_rate:
        raise ValueError("tx frame and channel sample rates differ")
    a_h = channel.steering_matrix.conj().T
    if isinstance(tx, BeamFrame):
        rows = (a_h @ tx.beams) @ tx.streams
    else:
        rows = a_h @ tx.samples
    y = channel.scalar_taps(half_length)(rows)
    return Frame(samples=y[np.newaxis, :], sample_rate=channel.sample_rate)


def add_awgn(frame: Frame, snr_db: float, rng_seed) -> Frame:
    """Add circular complex Gaussian noise at the given SNR.

    The noise variance is set so mean-signal-power / variance equals
    10^(snr_db/10), with the mean power measured over the frame itself.
    snr_db must be finite or +inf, the no-noise sentinel.  Deterministic
    under the seed.
    """
    if snr_db == math.inf:
        return frame
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")
    power = float(np.mean(np.abs(frame.samples) ** 2))
    variance = power / (10.0 ** (snr_db / 10.0))
    # one draw: the real parts' normals, then the imaginary parts'
    noise = np.random.default_rng(rng_seed).standard_normal((2, *frame.samples.shape))
    noise *= np.sqrt(variance / 2.0)
    noisy = frame.samples.copy()
    noisy.real += noise[0]
    noisy.imag += noise[1]
    return Frame(samples=noisy, sample_rate=frame.sample_rate)


def channel_to_json(channel: MultipathChannel) -> dict:
    """Serialize a channel scenario to the interchange dictionary layout."""
    return {
        "array": {
            "mt": channel.array.num_tx_antennas,
            "spacing": channel.array.element_spacing,
        },
        "sample_rate_hz": channel.sample_rate,
        "paths": [
            {
                "gain_re": float(np.real(p.gain)),
                "gain_im": float(np.imag(p.gain)),
                "delay_s": p.delay_s,
                "doppler_hz": p.doppler_hz,
                "aod": p.aod,
            }
            for p in channel.paths
        ],
    }


def channel_from_json(doc: dict) -> MultipathChannel:
    """Inverse of channel_to_json."""
    array = ArrayConfig(num_tx_antennas=int(doc["array"]["mt"]),
                        element_spacing=float(doc["array"].get("spacing", 0.5)))
    paths = [
        PathParams(gain=complex(p["gain_re"], p["gain_im"]),
                   delay_s=float(p["delay_s"]),
                   doppler_hz=float(p["doppler_hz"]),
                   aod=float(p["aod"]))
        for p in doc["paths"]
    ]
    return build_channel(array, paths, sample_rate=float(doc["sample_rate_hz"]))
