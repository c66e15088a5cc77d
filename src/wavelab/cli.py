"""Scenario-driven experiment runner.

One JSON config fully describes a run: the experiment name, the seed and
the experiment parameters.  Results land in the output directory as CSV
files plus a manifest recording the seed, the config echo and hash, the
library version and the wall time.  Identical config and seed produce
byte-identical CSVs.

    wavelab run --config scenario.json --out results/ [--seed-override N]
                [--validate-only]

Exit codes: 0 ok, 2 config error (each diagnostic names its field),
3 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .channel import ArrayConfig, channel_from_json, sample_random_channel
from .ddam import (
    BEAMFORMER_CRITERIA,
    COMPENSATION_MODES,
    AlignmentWindow,
    PsiPerturbation,
    equivalent_channel,
    path_beamformers,
    psi_from_channel,
)
from .link import (
    WAVEFORMS,
    make_papr_generator,
    run_ddam_ber,
    run_ddam_ofdm_ber,
    run_ddam_otfs_ber,
    run_ofdm_ber,
    run_otfs_ber,
)
from .metrics import ComplexityParams, complexity_model, measured_complexity, papr_ccdf
from .ofdm import FeasibilityThresholds, OfdmConfig, feasible_region
from .otfs import MAX_DENSE_GRID, VARIANTS, OtfsConfig

EXPERIMENTS = (
    "feasibility_region",
    "papr_ccdf",
    "se_sweep",
    "ber_vs_snr",
    "equivalent_channel_report",
    "complexity_table",
)

PAPR_WAVEFORMS = ("ofdm", "otfs_isfft", "otfs_zak", "ddam")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Invalid scenario configuration; carries per-field diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


# ---------------------------------------------------------------- validation

def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _positive_int(diags, doc, path, key, default=None):
    label = f"{path}.{key}" if path else key
    v = doc.get(key, default)
    if v is None:
        diags.append(f"{label}: required field missing")
        return None
    if not _is_int(v) or v < 1:
        diags.append(f"{label}: must be a positive integer, got {v!r}")
        return None
    return v


def _nonnegative_int(diags, doc, path, key, default):
    label = f"{path}.{key}" if path else key
    v = doc.get(key, default)
    if not _is_int(v) or v < 0:
        diags.append(f"{label}: must be a nonnegative integer, got {v!r}")
        return None
    return v


def _number(diags, doc, path, key, default=None, positive=True):
    """A number, > 0 when positive else >= 0; required when there is no default."""
    label = f"{path}.{key}" if path else key
    v = doc.get(key, default)
    if v is None and default is None:
        diags.append(f"{label}: required field missing")
    elif not _is_number(v) or (v <= 0 if positive else v < 0):
        kind = "positive" if positive else "nonnegative"
        diags.append(f"{label}: must be a {kind} number, got {v!r}")


def _power_of_two(diags, doc, path, key):
    v = _positive_int(diags, doc, path, key)
    if v is not None and v & (v - 1):
        label = f"{path}.{key}" if path else key
        diags.append(f"{label}: must be a power of two, got {v!r}")
        return None
    return v


def _otfs_grid(diags, doc, path):
    """Power-of-two k and m and a cp_len of at most k*m samples; returns
    k*m when k and m are valid."""
    k = _power_of_two(diags, doc, path, "k")
    m = _power_of_two(diags, doc, path, "m")
    cp = _nonnegative_int(diags, doc, path, "cp_len", 0)
    if k is None or m is None:
        return None
    if cp is not None and cp > k * m:
        label = f"{path}.cp_len" if path else "cp_len"
        diags.append(f"{label}: must not exceed the frame length k*m = {k * m}, "
                     f"got {cp!r}")
    return k * m


def _paths_fit_array(diags, path, key, num_paths, mt):
    """AoDs are drawn 2/mt apart on [-1, 1), room for at most mt paths."""
    if num_paths is not None and mt is not None and num_paths > mt:
        label = f"{path}.{key}" if path else key
        diags.append(f"{label}: must not exceed mt {mt} (AoDs 2/mt apart), "
                     f"got {num_paths!r}")


def _one_of(diags, doc, path, key, choices, default):
    label = f"{path}.{key}" if path else key
    v = doc.get(key, default)
    if v not in choices:
        diags.append(f"{label}: must be one of {', '.join(choices)}, got {v!r}")


def _validate_ddam_options(diags, doc):
    """Beam criterion, compensation mode, interpolator half length and the
    alignment window; returns the window's w_tau when it is valid."""
    _one_of(diags, doc, "", "criterion", BEAMFORMER_CRITERIA, "zf")
    _one_of(diags, doc, "", "mode", COMPENSATION_MODES, "path_based")
    _positive_int(diags, doc, "", "half_length", default=32)
    window = doc.get("window")
    if not window:  # absent, null or empty: no window
        return 0
    if not isinstance(window, dict):
        diags.append(f"window: must be an object, got {window!r}")
        return None
    _number(diags, window, "window", "w_nu_hz", 0.0, positive=False)
    return _nonnegative_int(diags, window, "window", "w_tau", 0)


def _number_list(diags, doc, path, key, allow_negative=True):
    label = f"{path}.{key}" if path else key
    v = doc.get(key)
    if not isinstance(v, list) or not v:
        diags.append(f"{label}: must be a non-empty list")
        return None
    for i, item in enumerate(v):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            diags.append(f"{label}[{i}]: must be a number, got {item!r}")
            return None
        if not allow_negative and item < 0:
            diags.append(f"{label}[{i}]: must be >= 0, got {item!r}")
            return None
    return v


def _validate_channel(diags, doc, path):
    if not isinstance(doc, dict):
        diags.append(f"{path}: must be an object")
        return
    if "random" in doc:
        rnd = doc["random"]
        num_paths = _positive_int(diags, rnd, f"{path}.random", "num_paths")
        mt = _positive_int(diags, rnd, f"{path}.random", "mt")
        _paths_fit_array(diags, f"{path}.random", "num_paths", num_paths, mt)
        for key in ("delay_range_s", "doppler_range_hz"):
            v = rnd.get(key)
            if not (isinstance(v, list) and len(v) == 2):
                diags.append(f"{path}.random.{key}: must be a [low, high] pair")
        _number(diags, rnd, f"{path}.random", "sample_rate_hz")
        _number(diags, rnd, f"{path}.random", "spacing", 0.5)
        return
    for key in ("array", "sample_rate_hz", "paths"):
        if key not in doc:
            diags.append(f"{path}.{key}: required field missing")
    if "sample_rate_hz" in doc:
        _number(diags, doc, path, "sample_rate_hz")
    if isinstance(doc.get("array"), dict):
        _positive_int(diags, doc["array"], f"{path}.array", "mt")
        _number(diags, doc["array"], f"{path}.array", "spacing", 0.5)
    if isinstance(doc.get("paths"), list):
        for i, p in enumerate(doc["paths"]):
            label = f"{path}.paths[{i}]"
            keys = ("gain_re", "gain_im", "delay_s", "doppler_hz", "aod")
            missing = [k for k in keys if not isinstance(p, dict) or k not in p]
            if missing:
                diags.append(f"{label}.{missing[0]}: required field missing")
                continue
            bad = [k for k in keys if not _is_number(p[k])]
            for key in bad:
                diags.append(f"{label}.{key}: must be a number, got {p[key]!r}")
            if "aod" not in bad and not -1.0 <= p["aod"] < 1.0:
                diags.append(f"{label}.aod: must lie in [-1, 1), got {p['aod']!r}")
            if "delay_s" not in bad and p["delay_s"] < 0:
                diags.append(f"{label}.delay_s: must be >= 0, got {p['delay_s']!r}")
            if not bad and p["gain_re"] == 0 and p["gain_im"] == 0:
                diags.append(f"{label}.gain_re: gain_re and gain_im must not both be 0")


def validate_config(doc) -> list:
    """Schema check; returns diagnostics (empty means valid). No side effects."""
    diags = []
    if not isinstance(doc, dict):
        return ["config: must be a JSON object"]
    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        diags.append(f"experiment: must be one of {', '.join(EXPERIMENTS)}, "
                     f"got {experiment!r}")
        return diags
    seed = doc.get("seed")
    if seed is None:
        diags.append("seed: required field missing")
    elif not _is_int(seed) or seed < 0:
        diags.append(f"seed: must be a nonnegative integer, got {seed!r}")

    if experiment == "feasibility_region":
        rho = _number_list(diags, doc, "", "rho_th")
        if rho is not None and any(not 0 < r < 1 for r in rho):
            diags.append("rho_th: every value must lie in (0, 1)")
        k_th = doc.get("k_th")
        if not isinstance(k_th, list) or not all(_is_int(k) and k >= 1 for k in (k_th or [])):
            diags.append("k_th: must be a list of positive integers")
        if not isinstance(doc.get("bandwidth_hz"), (int, float)) or doc["bandwidth_hz"] <= 0:
            diags.append("bandwidth_hz: must be a positive number")
        xi = doc.get("xi", 10.0)
        if not isinstance(xi, (int, float)) or xi <= 0:
            diags.append("xi: must be a positive number")

    elif experiment == "papr_ccdf":
        _positive_int(diags, doc, "", "trials")
        oversample = doc.get("oversample", 4)
        if not _is_int(oversample) or oversample < 1:
            diags.append("oversample: must be a positive integer")
        waveforms = doc.get("waveforms")
        if not isinstance(waveforms, list) or not waveforms:
            diags.append("waveforms: must be a non-empty list")
        else:
            for i, entry in enumerate(waveforms):
                name = entry.get("waveform") if isinstance(entry, dict) else None
                if name not in PAPR_WAVEFORMS:
                    diags.append(f"waveforms[{i}].waveform: must be one of "
                                 f"{', '.join(PAPR_WAVEFORMS)}")
                    continue
                if name == "ofdm":
                    _positive_int(diags, entry, f"waveforms[{i}]", "k")
                elif name in ("otfs_isfft", "otfs_zak"):
                    _power_of_two(diags, entry, f"waveforms[{i}]", "k")
                    _power_of_two(diags, entry, f"waveforms[{i}]", "m")
                else:
                    label = f"waveforms[{i}]"
                    num_paths = _positive_int(diags, entry, label, "l")
                    mt = _positive_int(diags, entry, label, "mt")
                    _paths_fit_array(diags, label, "l", num_paths, mt)
                    _one_of(diags, entry, label, "criterion", BEAMFORMER_CRITERIA, "zf")
                    _positive_int(diags, entry, label, "block_len", default=512)
                    _nonnegative_int(diags, entry, label, "max_delay_samples", 32)
                    _number(diags, entry, label, "max_doppler_hz", 0.0, positive=False)

    elif experiment == "se_sweep":
        n_max = doc.get("n_max")
        if not isinstance(n_max, list) or not all(_is_int(v) and v >= 0 for v in (n_max or [])):
            diags.append("n_max: must be a list of nonnegative integers")
        for key in ("ofdm_k", "otfs_k", "otfs_m", "ddam_block_len"):
            _positive_int(diags, doc, "", key)

    elif experiment == "ber_vs_snr":
        waveform = doc.get("waveform")
        if waveform not in WAVEFORMS:
            diags.append(f"waveform: must be one of {', '.join(WAVEFORMS)}, "
                         f"got {waveform!r}")
        _number_list(diags, doc, "", "snr_db")  # negative SNR values are fine
        _validate_channel(diags, doc.get("channel"), "channel")
        w_tau = _validate_ddam_options(diags, doc)
        _one_of(diags, doc, "", "variant", VARIANTS, "zak")
        if waveform in ("ofdm", "ddam_ofdm"):
            _power_of_two(diags, doc, "", "k")
            cp = doc.get("cp_len", 0)
            if not _is_int(cp) or cp < 0:
                diags.append("cp_len: must be a nonnegative integer")
            elif waveform == "ddam_ofdm" and w_tau is not None and w_tau > cp:
                diags.append(f"window.w_tau: must not exceed cp_len {cp}, got {w_tau!r}")
            _positive_int(diags, doc, "", "num_symbols")
        elif waveform in ("otfs_isfft", "otfs_zak", "ddam_otfs"):
            size = _otfs_grid(diags, doc, "")
            if size is not None and size > MAX_DENSE_GRID:
                diags.append(f"k: k*m = {size} exceeds the dense DD-matrix limit "
                             f"{MAX_DENSE_GRID}")
            _positive_int(diags, doc, "", "num_frames")
        else:
            _positive_int(diags, doc, "", "num_symbols")

    elif experiment == "equivalent_channel_report":
        _validate_channel(diags, doc.get("channel"), "channel")
        _validate_ddam_options(diags, doc)

    elif experiment == "complexity_table":
        for key in ("mt", "k", "l"):
            v = doc.get(key)
            if not isinstance(v, list) or not all(_is_int(x) and x >= 1 for x in (v or [])):
                diags.append(f"{key}: must be a list of positive integers")
        _positive_int(diags, doc, "", "m")
        _positive_int(diags, doc, "", "n_s")

    return diags


# ------------------------------------------------------------------- helpers

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")
    return path


def _config_hash(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _build_channel_from_config(doc, seed):
    if "random" in doc:
        rnd = doc["random"]
        return sample_random_channel(
            ArrayConfig(int(rnd["mt"]), float(rnd.get("spacing", 0.5))),
            int(rnd["num_paths"]),
            tuple(rnd["delay_range_s"]), tuple(rnd["doppler_range_hz"]),
            rng_seed=int(rnd.get("seed", seed)),
            sample_rate=float(rnd["sample_rate_hz"]))
    return channel_from_json(doc)


def _window_from_config(doc):
    w = doc.get("window")
    if not w:
        return None
    return AlignmentWindow(w_tau_samples=int(w.get("w_tau", 0)),
                           w_nu_hz=float(w.get("w_nu_hz", 0.0)))


# --------------------------------------------------------------- experiments

def _run_feasibility_region(doc, seed, out_dir):
    rows = []
    xi = float(doc.get("xi", 10.0))
    b = float(doc["bandwidth_hz"])
    for rho in doc["rho_th"]:
        for k_th in doc["k_th"]:
            region = feasible_region(FeasibilityThresholds(float(rho), int(k_th), b, xi))
            rows.append((float(rho), int(k_th), b, xi, region.tau_max, region.nu_max))
    return [_write_csv(os.path.join(out_dir, "feasibility_region.csv"),
                       ["rho_th", "k_th", "bandwidth_hz", "xi", "tau_max_s", "nu_max_hz"],
                       rows)]


def _run_papr_ccdf(doc, seed, out_dir):
    rows = []
    oversample = int(doc.get("oversample", 4))
    for idx, entry in enumerate(doc["waveforms"]):
        name = entry["waveform"]
        if name == "ofdm":
            gen = make_papr_generator("ofdm", num_subcarriers=int(entry["k"]))
            label = entry.get("label", f"ofdm_k{entry['k']}")
        elif name in ("otfs_isfft", "otfs_zak"):
            gen = make_papr_generator(name, num_delay_bins=int(entry["k"]),
                                      num_doppler_bins=int(entry["m"]))
            label = entry.get("label", f"{name}_k{entry['k']}_m{entry['m']}")
        else:
            gen = make_papr_generator(
                "ddam", num_paths=int(entry["l"]), mt=int(entry["mt"]),
                block_len=int(entry.get("block_len", 512)),
                criterion=entry.get("criterion", "zf"),
                max_delay_samples=int(entry.get("max_delay_samples", 32)),
                max_doppler_hz=float(entry.get("max_doppler_hz", 0.0)))
            label = entry.get("label", f"ddam_l{entry['l']}_mt{entry['mt']}")
        ccdf = papr_ccdf(gen, int(doc["trials"]),
                         rng_seed=np.random.SeedSequence([int(seed), idx]),
                         oversample=oversample)
        rows.extend((label, t, p) for t, p in
                    zip(ccdf.thresholds_db, ccdf.exceed_probability))
    return [_write_csv(os.path.join(out_dir, "papr_ccdf.csv"),
                       ["waveform", "threshold_db", "prob"], rows)]


def _run_se_sweep(doc, seed, out_dir):
    from .metrics import se_overhead

    rows = []
    for n_max in doc["n_max"]:
        rows.append((n_max, "ofdm", se_overhead(
            "ofdm", num_subcarriers=int(doc["ofdm_k"]), cp_len=int(n_max))))
        rows.append((n_max, "otfs", se_overhead(
            "otfs", num_doppler_bins=int(doc["otfs_m"]),
            num_delay_bins=int(doc["otfs_k"]), cp_len=int(n_max))))
        rows.append((n_max, "ddam", se_overhead(
            "ddam", block_len=int(doc["ddam_block_len"]), n_max=int(n_max))))
    return [_write_csv(os.path.join(out_dir, "se_sweep.csv"),
                       ["n_max", "waveform", "efficiency"], rows)]


def _ofdm_config(doc, rate):
    return OfdmConfig(int(doc["k"]), int(doc.get("cp_len", 0)), rate)


def _otfs_config(doc, rate):
    return OtfsConfig(int(doc["m"]), int(doc["k"]), int(doc.get("cp_len", 0)), rate)


# waveform -> one BER point of (channel, doc, snr_db, seed, DDAM options).  The
# runners are looked up when called, so a wrapper installed on them (as the
# benchmark's tracer does) sees every call.
_BER_POINTS = {
    "ofdm": lambda ch, doc, snr, seed, ddam: run_ofdm_ber(
        ch, _ofdm_config(doc, ch.sample_rate), snr, int(doc["num_symbols"]), seed),
    "otfs_isfft": lambda ch, doc, snr, seed, ddam: run_otfs_ber(
        ch, _otfs_config(doc, ch.sample_rate), snr, int(doc["num_frames"]), seed,
        variant="isfft"),
    "otfs_zak": lambda ch, doc, snr, seed, ddam: run_otfs_ber(
        ch, _otfs_config(doc, ch.sample_rate), snr, int(doc["num_frames"]), seed,
        variant="zak"),
    "ddam": lambda ch, doc, snr, seed, ddam: run_ddam_ber(
        ch, snr, int(doc["num_symbols"]), seed, **ddam),
    "ddam_ofdm": lambda ch, doc, snr, seed, ddam: run_ddam_ofdm_ber(
        ch, _ofdm_config(doc, ch.sample_rate), snr, int(doc["num_symbols"]), seed,
        **ddam),
    "ddam_otfs": lambda ch, doc, snr, seed, ddam: run_ddam_otfs_ber(
        ch, _otfs_config(doc, ch.sample_rate), snr, int(doc["num_frames"]), seed,
        variant=doc.get("variant", "zak"), **ddam),
}


def _run_ber_vs_snr(doc, seed, out_dir):
    channel = _build_channel_from_config(doc["channel"], seed)
    ddam = {"criterion": doc.get("criterion", "zf"),
            "mode": doc.get("mode", "path_based"),
            "window": _window_from_config(doc),
            "half_length": int(doc.get("half_length", 32))}
    ber_point = _BER_POINTS[doc["waveform"]]
    rows = []
    for i, snr_db in enumerate(doc["snr_db"]):
        run_seed = np.random.SeedSequence([int(seed), i]).generate_state(1)[0]
        result = ber_point(channel, doc, float(snr_db), run_seed, ddam)
        rows.append((float(snr_db), result.ber))
    return [_write_csv(os.path.join(out_dir, "ber_vs_snr.csv"),
                       ["snr_db", "ber"], rows)]


def _run_equivalent_channel_report(doc, seed, out_dir):
    channel = _build_channel_from_config(doc["channel"], seed)
    pert_doc = doc.get("psi_perturbation") or {}
    perturbation = PsiPerturbation(
        delay_err_samples=float(pert_doc.get("delay_err_samples", 0.0)),
        doppler_err_hz=float(pert_doc.get("doppler_err_hz", 0.0)),
        aod_err=float(pert_doc.get("aod_err", 0.0)),
        gain_err=float(pert_doc.get("gain_err", 0.0)))
    psi = psi_from_channel(channel, perturbation, rng_seed=seed)
    beams = path_beamformers(psi, doc.get("criterion", "zf"),
                             noise_var=float(doc.get("noise_var", 0.0)))
    eq = equivalent_channel(channel, psi, beams, mode=doc.get("mode", "path_based"),
                            window=_window_from_config(doc),
                            half_length=int(doc.get("half_length", 32)))
    taps_rows = [(i, float(t.real), float(t.imag)) for i, t in enumerate(eq.taps)]
    summary_rows = [
        ("dominant_tap_index", eq.dominant_tap_index),
        ("dominant_gain_re", float(eq.dominant_gain.real)),
        ("dominant_gain_im", float(eq.dominant_gain.imag)),
        ("residual_isi_power", eq.residual_isi_power),
        ("delay_spread_samples", eq.delay_spread_samples),
        ("residual_doppler_hz", eq.residual_doppler_hz),
        ("doppler_drift", eq.doppler_drift),
    ]
    return [
        _write_csv(os.path.join(out_dir, "equivalent_taps.csv"),
                   ["index", "re", "im"], taps_rows),
        _write_csv(os.path.join(out_dir, "equivalent_summary.csv"),
                   ["metric", "value"], summary_rows),
    ]


def _run_complexity_table(doc, seed, out_dir):
    measure = bool(doc.get("measure", True))
    m = int(doc["m"])
    n_s = int(doc["n_s"])
    rows = []
    for variant in ("ofdm", "otfs_isfft", "otfs_zak", "ddam_mrt", "ddam_zf", "ddam_mmse"):
        for mt in doc["mt"]:
            for k in doc["k"]:
                for l in doc["l"]:
                    params = ComplexityParams(int(mt), int(k), m, int(l), n_s)
                    tx_model, rx_model = complexity_model(variant, params)
                    if measure:
                        tx_meas, rx_meas = measured_complexity(variant, params,
                                                               rng_seed=seed)
                    else:
                        tx_meas, rx_meas = float("nan"), float("nan")
                    rows.append((variant, mt, k, m, l, n_s,
                                 tx_model, rx_model, tx_meas, rx_meas))
    return [_write_csv(os.path.join(out_dir, "complexity_table.csv"),
                       ["variant", "mt", "k", "m", "l", "n_s",
                        "tx_model", "rx_model", "tx_measured", "rx_measured"],
                       rows)]


_RUNNERS = {
    "feasibility_region": _run_feasibility_region,
    "papr_ccdf": _run_papr_ccdf,
    "se_sweep": _run_se_sweep,
    "ber_vs_snr": _run_ber_vs_snr,
    "equivalent_channel_report": _run_equivalent_channel_report,
    "complexity_table": _run_complexity_table,
}


def run_experiment(config_path, out_dir, seed_override=None):
    """Validate, execute and persist one experiment; returns written paths."""
    try:
        with open(config_path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError([f"config: cannot read {config_path}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON at line {exc.lineno}: {exc.msg}"])
    diagnostics = validate_config(doc)
    if diagnostics:
        raise ConfigError(diagnostics)
    seed = int(seed_override) if seed_override is not None else int(doc["seed"])
    os.makedirs(out_dir, exist_ok=True)
    started = time.monotonic()
    outputs = _RUNNERS[doc["experiment"]](doc, seed, out_dir)
    manifest = {
        "seed": seed,
        "config": doc,
        "config_hash": _config_hash(doc),
        "library_version": __version__,
        "wall_time_s": time.monotonic() - started,
        "outputs": [os.path.basename(p) for p in outputs],
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return outputs + [manifest_path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wavelab",
                                     description="link-level waveform experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute one experiment config")
    run.add_argument("--config", required=True, help="path to the JSON scenario")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed-override", type=int, default=None)
    run.add_argument("--validate-only", action="store_true")
    args = parser.parse_args(argv)

    if args.validate_only:
        try:
            with open(args.config) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        diagnostics = validate_config(doc)
        if diagnostics:
            for line in diagnostics:
                print(line, file=sys.stderr)
            return EXIT_CONFIG
        print("config ok")
        return EXIT_OK

    try:
        outputs = run_experiment(args.config, args.out,
                                 seed_override=args.seed_override)
    except ConfigError as exc:
        for line in exc.diagnostics:
            print(line, file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures: unwritable dir, solver errors
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for path in outputs:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
