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

Synthesis groups the terms by path and Doppler compensation.  The rotation
above depends on the output sample n, not on kappa_t, so each group is one
FIR over the symbols (its term weights at lags kappa_t) followed by one
Doppler ramp, and one (M_t x groups) @ (groups x N) beam product forms the
antenna samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    DEFAULT_HALF_LENGTH,
    ArrayConfig,
    Frame,
    MultipathChannel,
    apply_channel,
    fractional_delay_taps,
    steering_vector,
)
from .modulation import qpsk_slice

# Tap-based terms below this power (relative to the strongest tap) are dropped.
TAP_THRESHOLD_DB = -30.0

# Taps below this power relative to the dominant tap do not count toward
# the equivalent delay spread.
SIGNIFICANT_TAP_REL_POWER = 1e-8

PILOT_LEN = 32

BEAMFORMER_CRITERIA = ("mrt", "zf", "rzf", "mmse")
COMPENSATION_MODES = ("path_based", "tap_based")


@dataclass(frozen=True)
class PsiPerturbation:
    """Std-devs of the Gaussian errors applied to each PSI parameter."""

    delay_err_samples: float = 0.0
    doppler_err_hz: float = 0.0
    aod_err: float = 0.0
    gain_err: float = 0.0

    def is_zero(self) -> bool:
        return (self.delay_err_samples == 0 and self.doppler_err_hz == 0
                and self.aod_err == 0 and self.gain_err == 0)


@dataclass(frozen=True)
class PathStateInfo:
    """Transmitter-side knowledge of the paths, on the TX sample grid.

    The per-path arrays are (L,), or (..., L) for a stack of channels,
    which path_beamformers and path_based_blocks take.
    """

    array: ArrayConfig
    sample_rate: float
    delay_samples: np.ndarray      # integer part, floor(tau * B)
    fractional_delay: np.ndarray   # residue in [0, 1)
    doppler_hz: np.ndarray
    aod: np.ndarray
    gain_estimate: np.ndarray
    genie: bool

    def __post_init__(self):
        arrays = {}
        for name, dtype in (("delay_samples", np.int64), ("fractional_delay", float),
                            ("doppler_hz", float), ("aod", float),
                            ("gain_estimate", np.complex128)):
            a = np.array(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            arrays[name] = a
            object.__setattr__(self, name, a)
        shape = arrays["delay_samples"].shape
        if any(a.shape != shape for a in arrays.values()) or not shape or not shape[-1]:
            raise ValueError("per-path arrays must share a common nonzero length")
        if np.any(arrays["delay_samples"] < 0):
            raise ValueError("delay_samples must be >= 0")
        if np.any((arrays["fractional_delay"] < 0) | (arrays["fractional_delay"] >= 1)):
            raise ValueError("fractional_delay must lie in [0, 1)")

    @property
    def num_paths(self) -> int:
        return self.delay_samples.shape[-1]

    def nearest_delays(self) -> np.ndarray:
        """Strongest on-grid delay tap per path: round(tau * B)."""
        return (self.delay_samples + (self.fractional_delay >= 0.5)).astype(np.int64)

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
    genie = perturbation.is_zero()
    if not genie:
        rng = np.random.default_rng(rng_seed)
        n = channel.num_paths
        delays = np.maximum(0.0, delays + perturbation.delay_err_samples * rng.standard_normal(n))
        dopplers = dopplers + perturbation.doppler_err_hz * rng.standard_normal(n)
        aods = np.clip(aods + perturbation.aod_err * rng.standard_normal(n), -1.0, np.nextafter(1.0, 0))
        gains = gains + perturbation.gain_err * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return psi_from_paths(channel.array, rate, delays, dopplers, aods, gains, genie)


def psi_from_paths(array: ArrayConfig, sample_rate: float, delays: np.ndarray,
                   dopplers: np.ndarray, aods: np.ndarray, gains: np.ndarray,
                   genie: bool = True) -> PathStateInfo:
    """PSI from per-path arrays, delays in samples; (..., L) arrays stack channels."""
    base = np.floor(delays).astype(np.int64)
    return PathStateInfo(
        array=array, sample_rate=sample_rate,
        delay_samples=base, fractional_delay=delays - base,
        doppler_hz=dopplers, aod=aods, gain_estimate=gains, genie=genie)


def psi_to_json(psi: PathStateInfo) -> dict:
    """Serialize PSI in the channel-scenario layout plus the genie flag."""
    rate = psi.sample_rate
    return {
        "array": {"mt": psi.array.num_tx_antennas, "spacing": psi.array.element_spacing},
        "sample_rate_hz": rate,
        "genie": psi.genie,
        "paths": [
            {
                "gain_re": float(g.real), "gain_im": float(g.imag),
                "delay_s": float((n + f) / rate),
                "doppler_hz": float(d), "aod": float(a),
            }
            for g, n, f, d, a in zip(psi.gain_estimate, psi.delay_samples,
                                     psi.fractional_delay, psi.doppler_hz, psi.aod)
        ],
    }


def psi_from_json(doc: dict) -> PathStateInfo:
    """Inverse of psi_to_json."""
    rate = float(doc["sample_rate_hz"])
    return psi_from_paths(
        ArrayConfig(int(doc["array"]["mt"]), float(doc["array"].get("spacing", 0.5))),
        rate,
        np.array([p["delay_s"] for p in doc["paths"]]) * rate,
        np.array([p["doppler_hz"] for p in doc["paths"]]),
        np.array([p["aod"] for p in doc["paths"]]),
        np.array([complex(p["gain_re"], p["gain_im"]) for p in doc["paths"]]),
        bool(doc["genie"]))


@dataclass(frozen=True)
class BeamformerSet:
    """Per-path unit-norm beam vectors plus the power split across paths.

    A stack of channels adds the same leading axes to both arrays.
    """

    vectors: np.ndarray           # (M_t, L), column l is f_l
    criterion: str
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
                     power_allocation: str = "gain", counter=None) -> BeamformerSet:
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
        cond = np.linalg.cond(gram)
        rank_deficient = ~np.isfinite(cond) | (cond > 1e12)
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
    if counter is not None:
        counter.add(designs * ops)

    if power_allocation == "gain":
        p = np.abs(psi.gain_estimate) ** 2
        p = p / p.sum(axis=-1, keepdims=True)
    elif power_allocation == "uniform":
        p = np.full(psi.gain_estimate.shape, 1.0 / L)
    else:
        raise ValueError("power_allocation must be 'gain' or 'uniform'")
    return BeamformerSet(vectors=vectors, criterion=criterion, power_allocation=p)


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
    target: int
    mode: str
    window: AlignmentWindow

    @property
    def max_kappa(self) -> int:
        return max(t.kappa for t in self.terms)


def build_compensation_plan(psi: PathStateInfo, mode: str = "path_based",
                            window: AlignmentWindow = None,
                            half_length: int = DEFAULT_HALF_LENGTH,
                            tap_threshold_db: float = TAP_THRESHOLD_DB) -> CompensationPlan:
    """Derive the per-term delay shifts and Doppler rotations from PSI.

    The delay target region is [n_max - w_tau, n_max]; terms aim at its
    midpoint so fractional leakage has headroom on both sides.  Doppler
    compensation removes each path's shift down to the +-w_nu/2 residual
    window (exactly, for the zero window).
    """
    if mode not in COMPENSATION_MODES:
        raise ValueError("mode must be 'path_based' or 'tap_based'")
    window = window or AlignmentWindow()
    n_max = psi.n_max
    target = n_max - window.w_tau_samples // 2
    nearest = psi.nearest_delays()
    kappa, doppler_comp = _path_alignment(psi, window)

    terms = []
    if mode == "path_based":
        for l in range(psi.num_paths):
            terms.append(PlanTerm(path_index=l, grid_delay=int(nearest[l]),
                                  kappa=int(kappa[l]),
                                  doppler_comp_hz=doppler_comp[l],
                                  amplitude=1.0 + 0.0j))
    else:
        keep = 10.0 ** (tap_threshold_db / 10.0)
        for l in range(psi.num_paths):
            frac = float(psi.fractional_delay[l])
            base = int(psi.delay_samples[l])
            if frac < 1e-9:
                amps = np.array([1.0])
                positions = np.array([base])
            else:
                amps = fractional_delay_taps(frac, half_length)
                positions = base + np.arange(-half_length, half_length + 1)
            power = np.abs(amps) ** 2
            mask = (power >= keep * power.max()) & (positions >= 0)
            for q, amp in zip(positions[mask], amps[mask]):
                terms.append(PlanTerm(path_index=l, grid_delay=int(q),
                                      kappa=max(0, target - int(q)),
                                      doppler_comp_hz=doppler_comp[l],
                                      amplitude=complex(amp)))
    return CompensationPlan(terms=tuple(terms), n_max=n_max, target=target,
                            mode=mode, window=window)


def _path_alignment(psi: PathStateInfo, window: AlignmentWindow):
    """(kappa, doppler_comp) per path of path-based alignment, over (..., L) paths.

    Each path's strongest on-grid tap aims at the midpoint of the delay
    target region [n_max - w_tau, n_max], n_max taken per channel, and its
    Doppler shift is removed down to the +-w_nu/2 residual window.
    """
    nearest = psi.nearest_delays()
    target = nearest.max(axis=-1, keepdims=True) - window.w_tau_samples // 2
    half = window.w_nu_hz / 2.0
    return (np.maximum(0, target - nearest),
            psi.doppler_hz - np.clip(psi.doppler_hz, -half, half))


def delay_doppler_window(psi: PathStateInfo, w_tau_samples: int, w_nu_hz: float,
                         mode: str = "path_based",
                         half_length: int = DEFAULT_HALF_LENGTH) -> CompensationPlan:
    """Compensation plan under relaxed alignment windows.

    Zero windows reproduce the full-alignment plan of ddam_modulate.
    """
    return build_compensation_plan(
        psi, mode=mode, window=AlignmentWindow(w_tau_samples, w_nu_hz),
        half_length=half_length)


@dataclass(frozen=True)
class DdamFrameConfig:
    """Block of N symbols followed by a guard tail (default 2 * n_max)."""

    block_len: int
    guard_len: int = None

    def __post_init__(self):
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")
        if self.guard_len is not None and self.guard_len < 0:
            raise ValueError("guard_len must be >= 0")

    def resolved_guard(self, n_max: int) -> int:
        return 2 * n_max if self.guard_len is None else self.guard_len


def _term_weights(plan: CompensationPlan, beams: BeamformerSet) -> np.ndarray:
    """Complex weight per term: sqrt(p_path) * conj(amp) / path tap norm."""
    norms = np.zeros(beams.num_paths)
    for t in plan.terms:
        norms[t.path_index] += abs(t.amplitude) ** 2
    weights = np.empty(len(plan.terms), dtype=np.complex128)
    for i, t in enumerate(plan.terms):
        p = beams.power_allocation[t.path_index]
        weights[i] = math.sqrt(p) * np.conj(t.amplitude) / math.sqrt(norms[t.path_index])
    return weights


def _synthesize(symbols: np.ndarray, plan: CompensationPlan, beams: BeamformerSet,
                sample_rate: float, total_len: int, normalize: bool,
                counter=None):
    """Shared transmit-chain core; returns (antenna matrix, active span).

    One FIR and Doppler ramp per (path, compensation) group, then one beam
    product, as the module docstring derives.
    """
    n = len(symbols)
    mt = beams.vectors.shape[0]
    weights = _term_weights(plan, beams)
    groups = {}
    for t, w in zip(plan.terms, weights):
        groups.setdefault((t.path_index, t.doppler_comp_hz), []).append((t.kappa, w))
    streams = np.zeros((len(groups), total_len), dtype=np.complex128)
    for row, ((_, nu), taps) in zip(streams, groups.items()):
        lo = min(k for k, _ in taps)
        fir = np.zeros(max(k for k, _ in taps) - lo + 1, dtype=np.complex128)
        for k, w in taps:
            fir[k - lo] += w
        out = row[lo:lo + len(fir) - 1 + n]
        out[:] = np.convolve(symbols, fir)
        if nu != 0.0:
            out *= _doppler_ramp(nu, lo, len(out), sample_rate)
        if counter is not None:
            counter.add(len(fir) * n + (len(out) if nu != 0.0 else 0))
    paths = [path for path, _ in groups]
    x = beams.vectors[:, paths] @ streams
    if counter is not None:
        counter.add(mt * len(paths) * total_len)
    active = n + plan.max_kappa
    if normalize:
        _unit_power(x, active)
        if counter is not None:
            counter.add(mt * total_len)
    return x, active


def _doppler_ramp(nu: float, start: int, length: int, sample_rate: float) -> np.ndarray:
    """Doppler pre-rotation exp(-j*2*pi*nu*n/B) at samples start .. start + length - 1."""
    return np.exp(-2j * np.pi * nu * np.arange(start, start + length) / sample_rate)


def _unit_power(x: np.ndarray, active: int):
    """Scale the antenna rows in place to unit mean power over the first active samples."""
    power = np.sum(np.abs(x[:, :active]) ** 2) / active
    x *= 1.0 / math.sqrt(power)


def path_based_blocks(symbols: np.ndarray, psi: PathStateInfo,
                      beams: BeamformerSet):
    """ddam_modulate over a stack of channels: path-based plans, zero windows.

    symbols is (T, N), one block per channel of the stacked psi (T, L) and
    beams (T, M_t, L).  The alignment and the path weights are derived once
    for the stack; each block then takes the arithmetic of ddam_modulate
    (streams over the default guard, one beam product, unit power), so its
    samples equal ddam_modulate's bit for bit.  Returns (samples
    (T, M_t, W), span (T,)): block t over its active span N + its largest
    kappa, zero past it, W the widest span.
    """
    kappa, doppler_comp = _path_alignment(psi, AlignmentWindow())
    n = symbols.shape[-1]
    span = n + kappa.max(axis=-1)
    total = n + 2 * psi.nearest_delays().max(axis=-1)
    weighted = symbols[:, np.newaxis, :] * np.sqrt(beams.power_allocation)[..., np.newaxis]
    out = np.zeros((*beams.vectors.shape[:-1], span.max()), dtype=np.complex128)
    for t, active in enumerate(span):
        streams = np.zeros((psi.num_paths, total[t]), dtype=np.complex128)
        for row, k, nu, stream in zip(streams, kappa[t], doppler_comp[t], weighted[t]):
            row[k:k + n] = stream
            if nu != 0.0:
                row[k:k + n] *= _doppler_ramp(nu, k, n, psi.sample_rate)
        x = beams.vectors[t] @ streams
        _unit_power(x, active)
        out[t, :, :active] = x[:, :active]
    return out, span


def ddam_modulate(symbols: np.ndarray, psi: PathStateInfo, beams: BeamformerSet,
                  frame_cfg: DdamFrameConfig, mode: str = "path_based",
                  window: AlignmentWindow = None, plan: CompensationPlan = None,
                  half_length: int = DEFAULT_HALF_LENGTH, counter=None) -> Frame:
    """Transmit one DDAM block: per-term alignment, guard tail, unit power.

    The average transmit power over the active span is normalized to 1.
    """
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    if len(symbols) == 0:
        raise ValueError("symbol stream must be non-empty")
    if len(symbols) != frame_cfg.block_len:
        raise ValueError(
            f"got {len(symbols)} symbols for a block of {frame_cfg.block_len}")
    if beams.num_paths != psi.num_paths:
        raise ValueError("beamformer set does not match the PSI path count")
    if plan is None:
        plan = build_compensation_plan(psi, mode=mode, window=window,
                                       half_length=half_length)
    guard = frame_cfg.resolved_guard(plan.n_max)
    if guard < plan.max_kappa:
        raise ValueError(
            f"guard of {guard} samples cannot absorb the largest pre-delay "
            f"{plan.max_kappa}")
    total = frame_cfg.block_len + guard
    x, _ = _synthesize(symbols, plan, beams, psi.sample_rate, total,
                       normalize=True, counter=counter)
    return Frame(samples=x, sample_rate=psi.sample_rate)


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
                       half_length: int = DEFAULT_HALF_LENGTH,
                       probe_spacing: int = 64) -> EquivalentChannel:
    """Measure the end-to-end scalar taps by driving unit impulses.

    Taps are reported for the unnormalized transmit chain, so the dominant
    tap equals sum_l sqrt(p_l) * gain_l * e^{j phi_l} * a_l^H f_l in the
    ideal case.  A second probe, probe_spacing samples later, measures any
    residual time variation of the dominant tap.
    """
    if plan is None:
        plan = build_compensation_plan(psi, mode=mode, window=window,
                                       half_length=half_length)

    def probe(position: int) -> np.ndarray:
        symbols = np.zeros(position + 1, dtype=np.complex128)
        symbols[position] = 1.0
        x, _ = _synthesize(symbols, plan, beams, psi.sample_rate,
                           position + 1 + plan.max_kappa, normalize=False)
        rx = apply_channel(channel, Frame(x, psi.sample_rate),
                           half_length=half_length)
        return rx.row()[position:]

    taps = probe(0)
    later = probe(probe_spacing)
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
                             / (2.0 * np.pi * probe_spacing))
    return EquivalentChannel(taps=taps, dominant_tap_index=dominant,
                             residual_isi_power=isi, delay_spread_samples=spread,
                             residual_doppler_hz=residual_doppler,
                             doppler_drift=drift)


def make_pilot(length: int = PILOT_LEN) -> np.ndarray:
    """Fixed pseudorandom QPSK pilot sequence shared by TX and RX."""
    rng = np.random.default_rng(0xDDA)
    bits = rng.integers(0, 2, size=2 * length)
    return (1 - 2 * bits[0::2] + 1j * (1 - 2 * bits[1::2])) / np.sqrt(2.0)


def estimate_gain(rx_samples: np.ndarray, known_symbols: np.ndarray,
                  dominant_index: int) -> complex:
    """Least-squares scalar gain from known symbols at the dominant lag."""
    known = np.asarray(known_symbols, dtype=np.complex128)
    seg = np.asarray(rx_samples, dtype=np.complex128)[
        dominant_index:dominant_index + len(known)]
    if len(seg) < len(known):
        raise ValueError("received stream too short for the pilot span")
    return complex((known.conj() @ seg) / (known.conj() @ known))


def ddam_equalize(rx, gain: complex, frame_cfg: DdamFrameConfig,
                  dominant_index: int) -> np.ndarray:
    """Soft symbols: slice the stream at the dominant lag and divide by the gain."""
    samples = rx.row() if isinstance(rx, Frame) else np.asarray(rx, dtype=np.complex128)
    if abs(gain) == 0:
        raise ValueError("equivalent gain must be nonzero")
    n = frame_cfg.block_len
    if len(samples) < dominant_index + n:
        raise ValueError("received stream shorter than the aligned block")
    return samples[dominant_index:dominant_index + n] / gain


def ddam_demodulate(rx, gain: complex, frame_cfg: DdamFrameConfig,
                    dominant_index: int) -> np.ndarray:
    """Symbol-wise detection: equalize by the scalar gain, then slice QPSK."""
    return qpsk_slice(ddam_equalize(rx, gain, frame_cfg, dominant_index))
