"""Delay-Doppler alignment modulation: transmitter, analysis and detection.

The transmitter resolves each channel path spatially with its own
beamformer, then pre-delays and pre-rotates the symbol stream per path so
that all arrivals pile up at the largest path delay with their Doppler
shifts cancelled:

    x[n] = sum_t w_t * f_t * exp(-j*2*pi*nu_t*n/B) * s[n - kappa_t]

Path-based alignment uses one term per path, targeting its strongest
on-grid delay tap.  Tap-based alignment expands a fractionally delayed
path into its on-grid leakage taps (windowed-sinc amplitudes) and aligns
every dominant tap with a conjugate-matched weight.  Delay and Doppler
windows relax exact alignment to a target region, trading residual spread
for compensation headroom.

Every term of a path shares the path's Doppler compensation, and the
rotation above depends on the output sample n, not on kappa_t.  So
synthesis runs one FIR per path over the symbols (its term weights at lags
kappa_t) followed by one Doppler ramp from channel.phasor, giving one
stream per path beam.  ddam_modulate returns those L streams on their beams
as a BeamFrame, with unit power set from L x L Grams, so no transmitter
forms the M_t antenna rows.  Only path_based_blocks, whose samples the PAPR
results read, forms the (M_t x L) @ (L x N) beam product, for a stack of
blocks at once: each block's samples are bit-identical for every stack
size, and its PAPR lies within 1e-12 dB of the one-block ddam_modulate
chain's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import (
    DEFAULT_HALF_LENGTH,
    ArrayConfig,
    BeamFrame,
    Frame,
    MultipathChannel,
    apply_channel,
    delay_filter,
    phasor,
    steering_vector,
)
from .metrics import count
from .modulation import qpsk_slice

# Tap-based terms below this power (relative to the strongest tap) are dropped.
TAP_THRESHOLD_DB = -30.0

# Taps below this power relative to the dominant tap do not count toward
# the equivalent delay spread.
SIGNIFICANT_TAP_REL_POWER = 1e-8

# equivalent_channel's second impulse comes this many samples after its first.
PROBE_SPACING = 64

BEAMFORMER_CRITERIA = ("mrt", "zf", "rzf", "mmse")
NOISE_FREE_CRITERIA = ("mrt", "zf")  # the designs that do not read noise_var
COMPENSATION_MODES = ("path_based", "tap_based")


@dataclass(frozen=True)
class PsiPerturbation:
    """Std-devs of the Gaussian errors applied to each PSI parameter."""

    delay_err_samples: float = 0.0
    doppler_err_hz: float = 0.0
    aod_err: float = 0.0
    gain_err: float = 0.0


@dataclass(frozen=True)
class PathStateInfo:
    """Transmitter-side knowledge of the paths, on the TX sample grid.

    delays holds each path's tau * B in samples as one float.  The per-path
    arrays are (L,), or (..., L) for a stack of channels, which
    path_beamformers and path_based_blocks take.
    """

    array: ArrayConfig
    sample_rate: float
    delays: np.ndarray
    doppler_hz: np.ndarray
    aod: np.ndarray
    gain_estimate: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name, dtype in (("delays", float), ("doppler_hz", float), ("aod", float),
                            ("gain_estimate", np.complex128)):
            a = np.array(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            arrays[name] = a
            object.__setattr__(self, name, a)
        shape = arrays["delays"].shape
        if any(a.shape != shape for a in arrays.values()) or not shape or not shape[-1]:
            raise ValueError("per-path arrays must share a common nonzero length")
        if np.any(arrays["delays"] < 0):
            raise ValueError("delays must be >= 0")

    @property
    def num_paths(self) -> int:
        return self.delays.shape[-1]

    def nearest_delays(self) -> np.ndarray:
        """Strongest on-grid delay tap per path: round(tau * B), halves up.

        Not floor(d + 0.5): that sum rounds 0.49999999999999994 up to 1."""
        base = np.floor(self.delays)
        return (base + (self.delays - base >= 0.5)).astype(np.int64)

    @property
    def n_max(self) -> int:
        return int(self.nearest_delays().max())


def psi_from_channel(channel: MultipathChannel, perturbation: PsiPerturbation = None,
                     rng_seed=0) -> PathStateInfo:
    """Derive PSI from the ground truth, optionally with Gaussian errors.

    With no perturbation (or all-zero std-devs) the result is genie PSI.
    Deterministic under the seed.
    """
    perturbation = perturbation or PsiPerturbation()
    rate = channel.sample_rate
    delays = channel.delays_in_samples()
    dopplers = np.array([p.doppler_hz for p in channel.paths])
    aods = np.array([p.aod for p in channel.paths])
    gains = np.array([p.gain for p in channel.paths], dtype=complex)
    if perturbation != PsiPerturbation():
        rng = np.random.default_rng(rng_seed)
        n = channel.num_paths
        delays = np.maximum(0.0, delays + perturbation.delay_err_samples * rng.standard_normal(n))
        dopplers = dopplers + perturbation.doppler_err_hz * rng.standard_normal(n)
        aods = np.clip(aods + perturbation.aod_err * rng.standard_normal(n), -1.0, np.nextafter(1.0, 0))
        gains = gains + perturbation.gain_err * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return PathStateInfo(channel.array, rate, delays, dopplers, aods, gains)


@dataclass(frozen=True)
class BeamformerSet:
    """Per-path unit-norm beam vectors plus the power split across paths.

    A stack of channels adds the same leading axes to both arrays.
    """

    vectors: np.ndarray           # (M_t, L), column l is f_l
    power_allocation: np.ndarray  # (L,), nonnegative, sums to 1

    def __post_init__(self):
        v = np.array(self.vectors, dtype=np.complex128)
        p = np.array(self.power_allocation, dtype=float)
        if v.ndim < 2 or v.shape[:-2] + v.shape[-1:] != p.shape:
            raise ValueError("vectors must be (M_t x L) matching the power allocation")
        norms = np.linalg.norm(v, axis=-2)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("beam vectors must be unit norm")
        if np.any(p < 0) or np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-12):
            raise ValueError("power allocation must be nonnegative and sum to 1")
        v.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "power_allocation", p)

    @property
    def num_paths(self) -> int:
        return self.vectors.shape[-1]


def path_beamformers(psi: PathStateInfo, criterion: str, noise_var: float = 0.0,
                     power_allocation: str = "gain") -> BeamformerSet:
    """Design one beam vector per path under the given criterion.

    mrt:  f_l = a_l / ||a_l||.
    zf:   f_l is the unit-norm projection of a_l onto the complement of the
          other paths' steering span, so a_{l'}^H f_l = 0 for l' != l.
    rzf:  f_l ~ (A A^H + L*noise_var I)^-1 a_l, unit-normalized.
    mmse: same matrix form with regularizer noise_var.

    The math runs over the leading axes of a stacked PSI: (..., L) paths
    give (..., M_t, L) beams, one design per channel, and one channel is
    the case without leading axes.
    """
    criterion = criterion.lower()
    if criterion not in BEAMFORMER_CRITERIA:
        raise ValueError(f"criterion must be one of {BEAMFORMER_CRITERIA}")
    mt, L = psi.array.num_tx_antennas, psi.num_paths
    a = steering_vector(psi.aod, psi.array)
    a_h = np.swapaxes(a.conj(), -1, -2)
    designs = a.size // (mt * L)

    if criterion == "mrt":
        w = a
        ops = mt * L
    elif criterion == "zf":
        if L > mt:
            raise ValueError(f"zero-forcing needs L <= M_t, got L={L} > M_t={mt}")
        gram = a_h @ a
        lam = np.linalg.eigvalsh(gram)  # ascending; cond = lam_max / lam_min
        rank_deficient = ~(lam[..., -1] <= 1e12 * lam[..., 0])  # lam_min <= 0, NaN too
        if np.any(rank_deficient):
            off = np.abs(gram.reshape(-1, L, L)[np.argmax(rank_deficient)]) / mt
            np.fill_diagonal(off, 0.0)
            i, j = np.unravel_index(np.argmax(off), off.shape)
            raise ValueError(
                f"steering vectors of paths {i} and {j} are nearly collinear "
                f"(|a_i^H a_j|/M_t = {off[i, j]:.4f}); zero-forcing is rank deficient")
        w = a @ np.linalg.inv(gram)
        ops = mt * L ** 2 + L ** 3 + mt * L ** 2 + mt * L
    else:
        lam = (L * noise_var) if criterion == "rzf" else noise_var
        m = a @ a_h + lam * np.eye(mt)
        inv = np.linalg.pinv(m) if lam == 0 else np.linalg.inv(m)
        w = inv @ a
        ops = mt ** 2 * L + mt ** 3 + mt ** 2 * L + mt * L
    vectors = w / np.linalg.norm(w, axis=-2, keepdims=True)
    count(designs * ops)

    if power_allocation == "gain":
        p = np.abs(psi.gain_estimate) ** 2
        p = p / p.sum(axis=-1, keepdims=True)
    elif power_allocation == "uniform":
        p = np.full(psi.gain_estimate.shape, 1.0 / L)
    else:
        raise ValueError("power_allocation must be 'gain' or 'uniform'")
    return BeamformerSet(vectors=vectors, power_allocation=p)


@dataclass(frozen=True)
class AlignmentWindow:
    """Target residual regions: delays in [n_max - w_tau, n_max], Dopplers in +-w_nu/2."""

    w_tau_samples: int = 0
    w_nu_hz: float = 0.0

    def __post_init__(self):
        if self.w_tau_samples < 0 or self.w_nu_hz < 0:
            raise ValueError("window extents must be >= 0")


@dataclass(frozen=True)
class PlanTerm:
    """One compensated stream: delay shift, Doppler rotation, leakage amplitude."""

    path_index: int
    grid_delay: int        # on-grid delay tap this term targets
    kappa: int             # transmit pre-delay in samples
    doppler_comp_hz: float
    amplitude: complex     # on-grid leakage amplitude of the targeted tap


@dataclass(frozen=True)
class CompensationPlan:
    terms: tuple
    n_max: int

    @property
    def max_kappa(self) -> int:
        return max(t.kappa for t in self.terms)


def build_compensation_plan(psi: PathStateInfo, mode: str = "path_based",
                            window: AlignmentWindow = None,
                            half_length: int = DEFAULT_HALF_LENGTH) -> CompensationPlan:
    """Derive the per-term delay shifts and Doppler rotations from PSI.

    Path-based terms are one unit tap per path at its nearest on-grid
    delay.  Tap-based terms are the on-grid taps of the channel's own
    delay filter (channel.delay_filter) within TAP_THRESHOLD_DB of the
    strongest.  Every term is then aimed by _alignment.
    """
    if mode not in COMPENSATION_MODES:
        raise ValueError("mode must be 'path_based' or 'tap_based'")
    keep = 10.0 ** (TAP_THRESHOLD_DB / 10.0)
    taps = []  # (path index, grid delay, amplitude) in path order
    for l, (nearest, delay) in enumerate(zip(psi.nearest_delays(), psi.delays)):
        start, amps = ((nearest, np.ones(1)) if mode == "path_based"
                       else delay_filter(float(delay), half_length))
        positions = start + np.arange(len(amps))
        power = np.abs(amps) ** 2
        mask = (power >= keep * power.max()) & (positions >= 0)
        taps += [(l, int(q), complex(a)) for q, a in zip(positions[mask], amps[mask])]
    kappa, doppler_comp = _alignment(psi, window or AlignmentWindow(),
                                     np.array([q for _, q, _ in taps]))
    return CompensationPlan(
        terms=tuple(PlanTerm(path_index=l, grid_delay=q, kappa=int(k),
                             doppler_comp_hz=doppler_comp[l], amplitude=a)
                    for (l, q, a), k in zip(taps, kappa)),
        n_max=psi.n_max)


def _alignment(psi: PathStateInfo, window: AlignmentWindow, grid_delays: np.ndarray):
    """(kappa, doppler_comp): pre-delays of on-grid taps and per-path Doppler removal.

    A tap at grid delay q aims at the midpoint of the delay target region
    [n_max - w_tau, n_max], so fractional leakage has headroom on both
    sides: kappa = max(0, target - q), n_max taken per channel of a stacked
    (..., L) PSI and broadcast against grid_delays.  Each path's Doppler
    shift is removed down to the +-w_nu/2 residual window (exactly, for the
    zero window).
    """
    target = psi.nearest_delays().max(axis=-1, keepdims=True) - window.w_tau_samples // 2
    half = window.w_nu_hz / 2.0
    return (np.maximum(0, target - grid_delays),
            psi.doppler_hz - np.clip(psi.doppler_hz, -half, half))


@dataclass(frozen=True)
class DdamFrameConfig:
    """Block of N symbols; ddam_modulate follows it with a 2 * n_max guard tail."""

    block_len: int

    def __post_init__(self):
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")


def _synthesize(symbols: np.ndarray, plan: CompensationPlan, beams: BeamformerSet,
                sample_rate: float, total_len: int):
    """Shared transmit-chain core: (beam vectors (M_t x R), streams (R x total_len)).

    One FIR and Doppler ramp per path with plan terms, as the module
    docstring derives, unnormalized; the antenna samples would be
    vectors @ streams.  Term t of path l weighs
    sqrt(p_l) * conj(amp_t) / (norm of path l's tap amplitudes).
    """
    n = len(symbols)
    paths = {}
    for t in plan.terms:
        paths.setdefault(t.path_index, []).append(t)
    streams = np.zeros((len(paths), total_len), dtype=np.complex128)
    for row, (path, terms) in zip(streams, paths.items()):
        scale = math.sqrt(beams.power_allocation[path])
        norm = math.sqrt(sum(abs(t.amplitude) ** 2 for t in terms))
        lo = min(t.kappa for t in terms)
        fir = np.zeros(max(t.kappa for t in terms) - lo + 1, dtype=np.complex128)
        for t in terms:
            fir[t.kappa - lo] += scale * np.conj(t.amplitude) / norm
        nu = terms[0].doppler_comp_hz
        out = row[lo:lo + len(fir) - 1 + n]
        out[:] = np.convolve(symbols, fir)
        if nu != 0.0:
            out *= phasor(-nu, lo, len(out), sample_rate)
        count(len(fir) * n + (len(out) if nu != 0.0 else 0))
    return beams.vectors[:, list(paths)], streams


def _unit_power_beams(vectors: np.ndarray, streams: np.ndarray, active) -> np.ndarray:
    """The beams scaled to unit mean power of vectors @ streams over active samples.

    The product is not formed: the power comes from L x L Grams,
    ||F S||^2 = sum_ij (F^H F)_ij (S S^H)_ji over the streams' samples,
    which must be zero past active; the beams need not be orthogonal, so
    the off-diagonal terms count.  Like path_beamformers, the math runs
    over leading axes: (..., M_t, L) beams, (..., L, W) streams and
    (...,) active counts.
    """
    beam_gram = np.swapaxes(vectors.conj(), -1, -2) @ vectors
    stream_gram = streams @ np.swapaxes(streams.conj(), -1, -2)
    energy = np.sum(beam_gram * np.swapaxes(stream_gram, -1, -2), axis=(-2, -1)).real
    count(streams.shape[-2] ** 2 * np.sum(active))
    return vectors / np.sqrt(energy / active)[..., np.newaxis, np.newaxis]


def ddam_chain_callable(channel: MultipathChannel, psi: PathStateInfo,
                        beams: BeamformerSet, plan: CompensationPlan,
                        half_length: int = DEFAULT_HALF_LENGTH):
    """Scalar end-to-end map of the unnormalized DDAM chain over the channel.

    Each call sends the synthesized path streams on their beams as one
    BeamFrame through one apply_channel.  The returned callable carries
    support = (lo, hi): an input impulse at j reaches output rows j + lo ..
    j + hi, and the other rows get only the channel's round-off (see
    ScalarChannel.support).  Synthesis delays each term by its kappa and
    the channel spreads by its own support, so lo is the smallest kappa
    plus the channel's lo and hi the largest kappa plus its hi.  Both ends
    are reached when the beams leak between paths; under ZF a term meets
    only its own path, and the response can be narrower.
    """

    def chain(signal: np.ndarray) -> np.ndarray:
        signal = np.asarray(signal, dtype=np.complex128)
        vectors, streams = _synthesize(signal, plan, beams, psi.sample_rate,
                                       len(signal) + plan.max_kappa)
        return apply_channel(channel, BeamFrame(vectors, streams, psi.sample_rate),
                             half_length=half_length).row()

    lo, hi = channel.scalar_taps(half_length).support
    chain.support = (min(t.kappa for t in plan.terms) + lo, plan.max_kappa + hi)
    return chain


def path_based_blocks(symbols: np.ndarray, psi: PathStateInfo,
                      beams: BeamformerSet, width: int):
    """ddam_modulate over a stack of channels: path-based plans, zero windows.

    symbols is (T, N), one block per channel of the stacked psi (T, L) and
    beams (T, M_t, L).  The whole stack runs as one: the path streams
    (each block's symbols, weighted, at its kappa, Doppler-compensated) are
    placed in one (T, L, width) array, the unit-power beams come from
    stacked Grams (_unit_power_beams) and the samples from one stacked beam
    product.  width is fixed by the caller, not taken from the stack, so a
    block's samples are bit-identical in any stack; they lie within 1e-12
    dB in PAPR of ddam_modulate's beams @ streams.  Returns (samples (T,
    M_t, width), span (T,)): block t over its active span N + its largest
    kappa, zero past it.
    """
    nearest = psi.nearest_delays()
    kappa, doppler_comp = _alignment(psi, AlignmentWindow(), nearest)
    n = symbols.shape[-1]
    span = n + kappa.max(axis=-1)
    if np.any(span > width):
        raise ValueError(f"a block spans {span.max()} samples, more than width {width}")
    weighted = symbols[:, np.newaxis, :] * np.sqrt(beams.power_allocation)[..., np.newaxis]
    streams = np.zeros((*kappa.shape, width), dtype=np.complex128)
    # one assignment places every stream: windows[t, l, k] is streams[t, l, k:k + n]
    windows = sliding_window_view(streams, n, axis=-1, writeable=True)
    trial, path = np.indices(kappa.shape)
    windows[trial, path, kappa] = weighted
    for t, l in zip(*np.nonzero(doppler_comp)):
        k = kappa[t, l]
        streams[t, l, k:k + n] *= phasor(-doppler_comp[t, l], k, n, psi.sample_rate)
    return _unit_power_beams(beams.vectors, streams, span) @ streams, span


def ddam_modulate(symbols: np.ndarray, psi: PathStateInfo, beams: BeamformerSet,
                  frame_cfg: DdamFrameConfig = None,
                  plan: CompensationPlan = None) -> BeamFrame:
    """Transmit one DDAM block: per-term alignment, guard tail, unit power.

    The block is the symbols given; a passed frame_cfg must match their
    count.  Without a plan, the default path-based one is built.  Returns
    the L path streams on their beams as a BeamFrame; the average power of
    its antenna samples beams @ streams over the active span is 1, folded
    into the beams (see _unit_power_beams).
    """
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    if len(symbols) == 0:
        raise ValueError("symbol stream must be non-empty")
    if beams.num_paths != psi.num_paths:
        raise ValueError("beamformer set does not match the PSI path count")
    if frame_cfg is not None and len(symbols) != frame_cfg.block_len:
        raise ValueError(
            f"got {len(symbols)} symbols for a block of {frame_cfg.block_len}")
    if plan is None:
        plan = build_compensation_plan(psi)
    vectors, streams = _synthesize(symbols, plan, beams, psi.sample_rate,
                                   len(symbols) + 2 * plan.n_max)
    active = len(symbols) + plan.max_kappa
    vectors = _unit_power_beams(vectors, streams[:, :active], active)
    return BeamFrame(vectors, streams, psi.sample_rate)


@dataclass(frozen=True)
class EquivalentChannel:
    """Scalar end-to-end impulse response after beamforming and compensation."""

    taps: np.ndarray
    dominant_tap_index: int
    residual_isi_power: float
    delay_spread_samples: int
    residual_doppler_hz: float
    doppler_drift: float  # relative dominant-gain change between the two probes

    @property
    def dominant_gain(self) -> complex:
        return complex(self.taps[self.dominant_tap_index])


def equivalent_channel(channel: MultipathChannel, psi: PathStateInfo,
                       beams: BeamformerSet, mode: str = "path_based",
                       window: AlignmentWindow = None,
                       plan: CompensationPlan = None,
                       half_length: int = DEFAULT_HALF_LENGTH) -> EquivalentChannel:
    """Measure the end-to-end scalar taps by driving unit impulses.

    Without a plan, one is built from mode, window and half_length.  The
    impulses go through ddam_chain_callable, the unnormalized transmit
    chain, so the dominant tap equals
    sum_l sqrt(p_l) * gain_l * e^{j phi_l} * a_l^H f_l
    in the ideal case.  A second probe, PROBE_SPACING samples later,
    measures any residual time variation of the dominant tap.
    """
    if plan is None:
        plan = build_compensation_plan(psi, mode=mode, window=window,
                                       half_length=half_length)
    chain = ddam_chain_callable(channel, psi, beams, plan, half_length)

    def probe(position: int) -> np.ndarray:
        impulse = np.zeros(position + 1, dtype=np.complex128)
        impulse[position] = 1.0
        return chain(impulse)[position:]

    taps = probe(0)
    later = probe(PROBE_SPACING)
    length = min(len(taps), len(later))
    taps, later = taps[:length], later[:length]

    dominant = int(np.argmax(np.abs(taps)))
    dom_power = np.abs(taps[dominant]) ** 2
    if dom_power == 0:
        raise ValueError("equivalent channel has no energy")
    isi = float((np.sum(np.abs(taps) ** 2) - dom_power) / dom_power)
    significant = np.nonzero(np.abs(taps) ** 2 >= SIGNIFICANT_TAP_REL_POWER * dom_power)[0]
    spread = int(significant[-1] - significant[0]) if len(significant) else 0
    ratio = later[dominant] / taps[dominant]
    drift = float(abs(ratio - 1.0))
    residual_doppler = float(np.angle(ratio) * psi.sample_rate
                             / (2.0 * np.pi * PROBE_SPACING))
    return EquivalentChannel(taps=taps, dominant_tap_index=dominant,
                             residual_isi_power=isi, delay_spread_samples=spread,
                             residual_doppler_hz=residual_doppler,
                             doppler_drift=drift)


def estimate_gain(rx_samples: np.ndarray, known_symbols: np.ndarray,
                  dominant_index: int) -> complex:
    """Least-squares scalar gain from known symbols at the dominant lag."""
    known = np.asarray(known_symbols, dtype=np.complex128)
    seg = np.asarray(rx_samples, dtype=np.complex128)[
        dominant_index:dominant_index + len(known)]
    if len(seg) < len(known):
        raise ValueError("received stream too short for the pilot span")
    return complex((known.conj() @ seg) / (known.conj() @ known))


def ddam_demodulate(rx: Frame, gain: complex, frame_cfg: DdamFrameConfig,
                    dominant_index: int) -> np.ndarray:
    """Symbol-wise detection: the block at the dominant lag over the gain, sliced to QPSK."""
    if abs(gain) == 0:
        raise ValueError("equivalent gain must be nonzero")
    n = frame_cfg.block_len
    samples = rx.row()[dominant_index:dominant_index + n]
    if len(samples) < n:
        raise ValueError("received stream shorter than the aligned block")
    return qpsk_slice(samples / gain)
