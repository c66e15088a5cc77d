"""PAPR, overhead-based spectral efficiency, BER and the complexity model.

The complexity model evaluates the per-information-symbol multiplication
counts of each waveform variant with unit constants.  The modem code paths
report their complex multiplies with count(); a counting() block collects
them, so measured counts can be set beside the model.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

# The tally of the innermost open counting() block, or None outside any.
_TALLY = contextvars.ContextVar("wavelab_tally", default=None)


def count(n: float):
    """Record n complex multiplies in the innermost open counting() block, if any."""
    tally = _TALLY.get()
    if tally is not None:
        tally.append(float(n))


@contextlib.contextmanager
def counting():
    """Yield the list of count() values recorded in the block; only the innermost records."""
    tally = []
    token = _TALLY.set(tally)
    try:
        yield tally
    finally:
        _TALLY.reset(token)


def fft_multiplies(n: int) -> float:
    """Complex multiplies of a radix-2 FFT of length n."""
    if n <= 1:
        return 0.0
    return 0.5 * n * math.log2(n)


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# A PAPR within this many dB of 0 is returned as exactly 0.0.  PAPR >= 0 dB
# by definition, and a constant envelope (a DDAM block whose paths share
# one delay) computes to about +-1e-15 dB, so without the snap round-off
# would decide whether it exceeds a 0 dB threshold.  The smallest PAPR of
# a non-constant QPSK block is orders of magnitude above it.
PAPR_ZERO_TOL_DB = 1e-12


def papr_db(samples: np.ndarray, oversample: int = 1, span=None):
    """Peak-to-average power ratio in dB.

    Accepts one row, a (rows x N) matrix or a stack (..., rows, N) of such
    matrices.  A matrix's PAPR is the maximum per-row PAPR (rows are
    antennas): a float for one matrix, an array over the leading axes for a
    stack.  span (one count per matrix, default N) is each matrix's active
    length: the mean power is each row's summed power over span, so the
    samples past span must be zero.  Guard or CP samples are the caller's
    responsibility to exclude.  oversample > 1 interpolates each row's
    active span by zero-padding its spectrum before peak picking.  A PAPR
    within PAPR_ZERO_TOL_DB of 0 dB is returned as exactly 0.0, so a
    constant envelope never exceeds a 0 dB threshold.
    """
    x = np.asarray(samples, dtype=np.complex128)
    if x.shape[-1] == 0:
        raise ValueError("empty signal")
    lead = x.shape[:-2]
    x = x.reshape(-1, *x.shape[-2:]) if x.ndim > 1 else x.reshape(1, 1, -1)
    span = np.broadcast_to(x.shape[-1] if span is None else span, lead).reshape(-1)
    power = np.abs(x) ** 2
    mean_power = power.sum(axis=-1) / span[:, np.newaxis]
    peak_power = np.max(power, axis=-1)  # the zeros past a span never peak
    if oversample > 1:
        for n in np.unique(span):  # one interpolation per active length
            pick = span == n
            peak_power[pick] = np.max(
                np.abs(_interpolate_rows(x[pick, :, :n], oversample)) ** 2, axis=-1)
    if np.any(mean_power == 0):
        raise ValueError("zero-power signal")
    papr = np.max(10.0 * np.log10(peak_power / mean_power), axis=-1).reshape(lead)
    papr = np.where(np.abs(papr) <= PAPR_ZERO_TOL_DB, 0.0, papr)
    return float(papr) if papr.ndim == 0 else papr


def _interpolate_rows(x: np.ndarray, factor: int) -> np.ndarray:
    """Fourier interpolation along the last axis to at least factor x the input rate.

    The padded length is rounded up to a power of two, which changes only
    the (dense) sampling grid of the trigonometric interpolant, not its
    envelope, and keeps the inverse FFT fast for any input length.
    """
    n = x.shape[-1]
    spectrum = np.fft.fft(x, axis=-1)
    out_len = 1 << (factor * n - 1).bit_length()
    padded = np.zeros((*x.shape[:-1], out_len), dtype=np.complex128)
    half = n // 2
    padded[..., :half] = spectrum[..., :half]
    padded[..., out_len - (n - half):] = spectrum[..., half:]
    return (out_len / n) * np.fft.ifft(padded, axis=-1)


DEFAULT_CCDF_THRESHOLDS = np.arange(0.0, 14.0 + 0.25 / 2, 0.25)


@dataclass(frozen=True)
class PaprCcdf:
    """Empirical exceed probability of PAPR per dB threshold."""

    thresholds_db: np.ndarray
    exceed_probability: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thresholds_db, dtype=float)
        p = np.asarray(self.exceed_probability, dtype=float)
        if t.shape != p.shape:
            raise ValueError("thresholds and probabilities must align")
        if np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be ascending")
        if np.any(np.diff(p) > 1e-15):
            raise ValueError("exceed probability must be non-increasing")
        object.__setattr__(self, "thresholds_db", t)
        object.__setattr__(self, "exceed_probability", p)

    def papr_at_level(self, level: float) -> float:
        """Smallest threshold whose exceed probability drops to or below level."""
        below = np.nonzero(self.exceed_probability <= level)[0]
        if len(below) == 0:
            return float(self.thresholds_db[-1])
        return float(self.thresholds_db[below[0]])


# papr_ccdf seeds one Generator per group of this many consecutive trials.
# It is fixed, so no memory setting moves the values.
PAPR_GROUP_TRIALS = 32


def papr_ccdf(waveform_generator, num_trials: int, rng_seed,
              thresholds_db=None, oversample: int = 1) -> PaprCcdf:
    """Monte Carlo CCDF of PAPR for a seeded chunk generator.

    The generator (see link.make_papr_generator) is called once with an
    iterator of (Generator, count) groups: the trials in order, in groups
    of PAPR_GROUP_TRIALS (the last may be shorter), one child Generator
    per group spawned from rng_seed.  A SeedSequence passed as rng_seed is
    not advanced, so it gives the same curve each time.  The generator
    yields (samples, span) chunks of consecutive trials: samples is
    (T x rows x N) with guard/CP already excluded, and span the T active
    lengths (see papr_db).  A threshold's exceed probability is the
    fraction of trials whose PAPR lies strictly above it.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    thresholds = (DEFAULT_CCDF_THRESHOLDS if thresholds_db is None
                  else np.asarray(thresholds_db, dtype=float))
    seed = (rng_seed if isinstance(rng_seed, np.random.SeedSequence)
            else np.random.SeedSequence(rng_seed))
    root = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                  pool_size=seed.pool_size,
                                  n_children_spawned=seed.n_children_spawned)
    counts = [min(PAPR_GROUP_TRIALS, num_trials - start)
              for start in range(0, num_trials, PAPR_GROUP_TRIALS)]
    groups = zip(map(np.random.default_rng, root.spawn(len(counts))), counts)
    values = np.sort(np.concatenate([papr_db(samples, oversample, span)
                                     for samples, span in waveform_generator(groups)]))
    at_or_below = np.searchsorted(values, thresholds, side="right")
    exceed = (len(values) - at_or_below) / len(values)
    return PaprCcdf(thresholds_db=thresholds, exceed_probability=exceed)


def se_overhead(waveform: str, **params) -> float:
    """Fraction of airtime carrying information for a waveform's framing.

    ofdm: K / (K + cp) per symbol; otfs: M*K / (M*K + cp) per frame;
    ddam: N / (N + 2 * n_max) per block.
    """
    if waveform == "ofdm":
        k, cp = params["num_subcarriers"], params["cp_len"]
        if k < 1 or cp < 0:
            raise ValueError("need num_subcarriers >= 1 and cp_len >= 0")
        return k / (k + cp)
    if waveform == "otfs":
        mk = params["num_doppler_bins"] * params["num_delay_bins"]
        cp = params["cp_len"]
        if mk < 1 or cp < 0:
            raise ValueError("need a non-empty grid and cp_len >= 0")
        return mk / (mk + cp)
    if waveform == "ddam":
        n, n_max = params["block_len"], params["n_max"]
        if n < 1 or n_max < 0:
            raise ValueError("need block_len >= 1 and n_max >= 0")
        return n / (n + 2 * n_max)
    raise ValueError(f"unknown waveform {waveform!r}")


def ber(tx_bits: np.ndarray, rx_bits: np.ndarray) -> float:
    """Bit error ratio between two equal-length streams."""
    tx = np.asarray(tx_bits).ravel()
    rx = np.asarray(rx_bits).ravel()
    if tx.shape != rx.shape:
        raise ValueError("bit streams must have equal length")
    if len(tx) == 0:
        raise ValueError("bit streams must be non-empty")
    return float(np.mean(tx != rx))


@dataclass(frozen=True)
class ComplexityParams:
    """Sizes entering the complexity model."""

    mt: int
    k: int
    m: int
    l: int
    n_s: int

    def __post_init__(self):
        for name in ("mt", "k", "m", "l", "n_s"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


COMPLEXITY_VARIANTS = (
    "ofdm", "otfs_isfft", "otfs_zak", "ddam_mrt", "ddam_zf", "ddam_mmse",
)


def complexity_model(variant: str, p: ComplexityParams):
    """Model multiplies per information symbol, (tx, rx), unit constants."""
    mt, k, m, l, n_s = p.mt, p.k, p.m, p.l, p.n_s
    if variant == "ofdm":
        return mt * math.log2(k) + mt, math.log2(k) + 1
    if variant == "otfs_isfft":
        return (mt * math.log2(k * m) + math.log2(k) + mt,
                math.log2(k) + math.log2(k * m) + 1)
    if variant == "otfs_zak":
        return mt * math.log2(m) + mt, math.log2(m) + 1
    if variant == "ddam_mrt":
        return mt * l, 1.0
    if variant == "ddam_zf":
        return mt * l ** 2 / n_s + mt * l, 1.0
    if variant == "ddam_mmse":
        return mt ** 3 * l ** 3 / n_s + mt * l, 1.0
    raise ValueError(f"unknown complexity variant {variant!r}")


def measured_complexity(variant: str, p: ComplexityParams, rng_seed=0):
    """Multiplies per information symbol measured on the real modem paths.

    Runs the transmitter and receiver chains on random data inside
    counting() blocks and normalizes by the number of information
    symbols.  Beamformer construction is amortized over p.n_s.  DDAM's
    transmitter returns a BeamFrame, so the antenna rows a radio sends,
    beams @ streams, are formed and counted here.
    """
    from . import ddam as _ddam
    from . import ofdm as _ofdm
    from . import otfs as _otfs
    from .channel import ArrayConfig, sample_random_channel

    rng = np.random.default_rng(rng_seed)
    mt, k, m, l, n_s = p.mt, p.k, p.m, p.l, p.n_s

    if variant == "ofdm":
        cfg = _ofdm.OfdmConfig(num_subcarriers=k, cp_len=0, sample_rate=1e6)
        x = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2)
        with counting() as tx_ops:
            _ofdm.ofdm_modulate(x, cfg, np.ones((mt, k)) / np.sqrt(mt))
        with counting() as rx_ops:
            _ofdm.ofdm_demodulate(np.zeros(k, dtype=complex) + 1.0, cfg)
            count(k)  # one equalizer multiply per subcarrier
        return sum(tx_ops) / k, sum(rx_ops) / k

    if variant in ("otfs_isfft", "otfs_zak"):
        cfg = _otfs.OtfsConfig(num_doppler_bins=m, num_delay_bins=k,
                               cp_len=0, sample_rate=1e6)
        grid = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m)))
        with counting() as tx_ops:
            if variant == "otfs_isfft":
                weights = np.ones((mt, k), dtype=complex) / np.sqrt(mt)
                frame = _otfs.otfs_modulate_isfft(grid, cfg, weights)
            else:
                frame = _otfs.otfs_modulate_zak(grid, cfg)
                count(mt * k * m)  # wideband beam weight per antenna per sample
        with counting() as rx_ops:
            _, demodulate = _otfs.otfs_modem(variant.split("_")[1])
            demodulate(frame.row(), cfg)
            count(k * m)  # symbol-wise detection divide
        return sum(tx_ops) / (k * m), sum(rx_ops) / (k * m)

    if variant in ("ddam_mrt", "ddam_zf", "ddam_mmse"):
        criterion = variant.split("_")[1]
        channel = sample_random_channel(ArrayConfig(mt), l, (0.0, 16e-6), (0.0, 0.0),
                                        rng_seed, sample_rate=1e6)
        psi = _ddam.psi_from_channel(channel)
        with counting() as bf_ops:
            beams = _ddam.path_beamformers(psi, criterion, noise_var=0.01)
        block = 2048  # long enough that per-symbol cost dominates measurement noise
        symbols = (rng.standard_normal(block) + 1j * rng.standard_normal(block)) / np.sqrt(2)
        with counting() as tx_ops:
            tx = _ddam.ddam_modulate(symbols, psi, beams)
            x = tx.beams @ tx.streams  # the antenna rows a radio sends
            count(x.size * len(tx.streams))
        return sum(tx_ops) / block + sum(bf_ops) / n_s, 1.0  # rx: one divide per symbol

    raise ValueError(f"unknown complexity variant {variant!r}")
