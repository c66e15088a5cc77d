"""Scenario-driven experiment runner.

One JSON config fully describes a run: the experiment name, the seed and
the experiment parameters.  A config holds only fields its experiment and
waveform read; any other key is a config error.  Results land in the
output directory as CSV files plus a manifest recording the seed, the
config echo and hash, the library version and the wall time.  Identical
config and seed produce byte-identical CSVs at a fixed BLAS thread count
(the MMSE solves' last bits depend on it).

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
from .channel import (DEFAULT_HALF_LENGTH, ArrayConfig, channel_from_json,
                      sample_random_channel)
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
    make_papr_generator,
    run_ddam_ber,
    run_ddam_ofdm_ber,
    run_ddam_otfs_ber,
    run_ofdm_ber,
    run_otfs_ber,
)
from .metrics import (COMPLEXITY_VARIANTS, ComplexityParams, complexity_model,
                      measured_complexity, papr_ccdf, se_overhead)
from .ofdm import FeasibilityThresholds, OfdmConfig, feasible_region
from .otfs import MAX_DENSE_GRID, VARIANTS, OtfsConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Invalid scenario configuration; carries per-field diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


# ------------------------------------------------------------ config schema
#
# Each config field is one row of the table _CONFIG: name -> Field (kind and
# default).  _read_rows walks it to check a config and read it into typed,
# defaults-filled options at once; the runners read only those options, and
# a key that no row names is a config error.

REQUIRED = object()  # the default of a field that must be given


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


class Field:
    """A config field: its JSON value must pass ok ("must be <what>"), then
    reads as convert(value).  The default is REQUIRED, None (absent or null
    reads as None) or the value an absent field reads as.  A list reads each
    item as item; an object reads rows (a dict, or a function of the value
    giving one); a choice's cases map each name to rows it adds to its object."""

    def __init__(self, what, ok, default=REQUIRED, convert=None, cases=None,
                 item=None, rows=None):
        self.what, self.ok, self.default, self.convert = what, ok, default, convert
        self.cases, self.item, self.rows = cases, item, rows

    def read(self, value, label, diags):
        """The typed option for value, or None after a diagnostic on label."""
        if self.rows is not None and value in (None, {}) and self.default is not REQUIRED:
            value = self.default  # an optional object: null, {} read as the default
        if value is None and self.default is None:
            return None
        if not self.ok(value):
            diags.append(f"{label}: must be {self.what}, got {value!r}")
            return None
        if self.item is not None:
            value = [self.item.read(v, f"{label}[{i}]", diags) for i, v in enumerate(value)]
        if self.rows is not None:
            count = len(diags)
            rows = self.rows(value) if callable(self.rows) else self.rows
            value = _read_rows(value, rows, label, diags)
            if len(diags) > count:
                return None
        return self.convert(value) if self.convert else value


def _read_rows(doc, rows, label, diags):
    """Each row's option read from the object doc, absent fields at their
    defaults, plus the rows that chosen choice names add; once every choice
    is read, a key of doc that no row names is an unknown field."""
    options = {}
    prefix = f"{label}." if label else ""
    pending = list(rows.items())
    for key, field in pending:  # grows while it is walked
        if key not in doc and field.default is REQUIRED:
            diags.append(f"{prefix}{key}: required field missing")
            continue
        options[key] = field.read(doc.get(key, field.default), prefix + key, diags)
        if field.cases and options[key]:
            pending.extend(field.cases[options[key]].items())
    if all(options.get(key) for key, field in pending if field.cases):
        named = dict(pending)
        diags += [f"{prefix}{key}: unknown field" for key in doc if key not in named]
    return options


def _int(lo=1, default=REQUIRED):
    return Field(f"a {'positive' if lo else 'nonnegative'} integer",
                 lambda v: _is_int(v) and v >= lo, default)


def _number(what="a number", ok=lambda v: True, default=REQUIRED):
    """A finite number (not NaN or Infinity, which Python's json accepts), as a float."""
    return Field(what, lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                 and abs(v) <= sys.float_info.max and ok(v), default, float)


def _choice(options, default=REQUIRED):
    """One name of options; a dict maps each name to the rows it adds."""
    return Field(f"one of {', '.join(options)}", lambda v: isinstance(v, str) and v in options,
                 default, cases=options if isinstance(options, dict) else None)


def _list(item, what="a list", size_ok=lambda n: True):
    return Field(what, lambda v: isinstance(v, list) and size_ok(len(v)), item=item)


def _object(rows, default=REQUIRED, make=None):
    return Field("an object", lambda v: isinstance(v, dict), default, make, rows=rows)


_SEED = _int(0)
_POSITIVE = "a positive number", lambda v: v > 0
_NONNEGATIVE = "a nonnegative number", lambda v: v >= 0
_POW2 = Field("a power of two", lambda v: _is_int(v) and v >= 1 and not v & (v - 1))
_NON_EMPTY = {"what": "a non-empty list", "size_ok": bool}
_PAIR = {"what": "a [low, high] pair", "size_ok": lambda n: n == 2}
_SPACING = _number(*_POSITIVE, default=0.5)
_CP_LEN = _int(0, default=0)
_CRITERION = _choice(BEAMFORMER_CRITERIA, default="zf")

# How a DDAM transmitter aligns its paths; only the DDAM waveforms read these.
_ALIGNMENT_ROWS = {
    "mode": _choice(COMPENSATION_MODES, default="path_based"),
    "half_length": _int(default=DEFAULT_HALF_LENGTH),
    "window": _object({"w_tau": _int(0, default=0),
                       "w_nu_hz": _number(*_NONNEGATIVE, default=0.0)},
                      default=None, make=lambda w: AlignmentWindow(w["w_tau"], w["w_nu_hz"])),
}
_DDAM_KEYS = ("criterion", *_ALIGNMENT_ROWS)  # the DDAM runners' keyword options
_RANDOM_CHANNEL = {"random": _object({
    "num_paths": _int(), "mt": _int(),
    "delay_range_s": _list(_number(*_NONNEGATIVE), **_PAIR),
    "doppler_range_hz": _list(_number(), **_PAIR),
    "sample_rate_hz": _number(*_POSITIVE), "spacing": _SPACING,
    "seed": _int(0, default=None)})}  # None: the run's seed
_EXPLICIT_CHANNEL = {
    "array": _object({"mt": _int(), "spacing": _SPACING}),
    "sample_rate_hz": _number(*_POSITIVE),
    "paths": _list(_object({"gain_re": _number(), "gain_im": _number(),
                            "delay_s": _number(*_NONNEGATIVE), "doppler_hz": _number(),
                            "aod": _number("a number in [-1, 1)", lambda v: -1 <= v < 1)}),
                   **_NON_EMPTY),
}
_CHANNEL = _object(lambda ch: _RANDOM_CHANNEL if "random" in ch else _EXPLICIT_CHANNEL)
_GRID = {"k": _POW2, "m": _POW2}
_OFDM_ROWS = {"k": _POW2, "cp_len": _CP_LEN, "num_symbols": _int()}
_OTFS_ROWS = {**_GRID, "cp_len": _CP_LEN, "num_frames": _int()}

_CONFIG = {
    "experiment": _choice({
        "feasibility_region": {
            "rho_th": _list(_number("a number in (0, 1)", lambda v: 0 < v < 1), **_NON_EMPTY),
            "k_th": _list(_int()),
            "bandwidth_hz": _number(*_POSITIVE),
            "xi": _number(*_POSITIVE, default=10.0),
        },
        "papr_ccdf": {
            "trials": _int(),
            "oversample": _int(default=4),
            "waveforms": _list(_object({
                "label": Field("a string", lambda v: isinstance(v, str), default=None),
                "waveform": _choice({
                    "ofdm": {"k": _int()},
                    "otfs_isfft": _GRID,
                    "otfs_zak": _GRID,
                    "ddam": {"l": _int(), "mt": _int(), "criterion": _CRITERION,
                             "block_len": _int(default=512),
                             "max_delay_samples": _int(0, default=32),
                             "max_doppler_hz": _number(*_NONNEGATIVE, default=0.0)}})}),
                **_NON_EMPTY),
        },
        "se_sweep": {
            "n_max": _list(_int(0)),
            "ofdm_k": _int(), "otfs_k": _int(), "otfs_m": _int(), "ddam_block_len": _int(),
        },
        "ber_vs_snr": {
            "waveform": _choice({
                "ofdm": _OFDM_ROWS, "otfs_isfft": _OTFS_ROWS, "otfs_zak": _OTFS_ROWS,
                "ddam": {"num_symbols": _int(), **_ALIGNMENT_ROWS},
                "ddam_ofdm": {**_OFDM_ROWS, **_ALIGNMENT_ROWS},
                "ddam_otfs": {**_OTFS_ROWS, **_ALIGNMENT_ROWS,
                              "variant": _choice(VARIANTS, default="zak")}}),
            "snr_db": _list(_number(), **_NON_EMPTY),  # negative SNR values are fine
            "channel": _CHANNEL,
            "criterion": _CRITERION,  # OFDM/OTFS ignore it; the benchmark sends it to all
        },
        "equivalent_channel_report": {
            "channel": _CHANNEL,
            "criterion": _CRITERION,
            **_ALIGNMENT_ROWS,
            "psi_perturbation": _object({"delay_err_samples": _number(default=0.0),
                                         "doppler_err_hz": _number(default=0.0),
                                         "aod_err": _number(default=0.0),
                                         "gain_err": _number(default=0.0)},
                                        default={}, make=lambda p: PsiPerturbation(**p)),
            "noise_var": _number(*_NONNEGATIVE, default=0.0),
        },
        "complexity_table": {
            "mt": _list(_int()), "k": _list(_int()), "l": _list(_int()),
            "m": _int(), "n_s": _int(),
            "measure": Field("true or false", lambda v: isinstance(v, bool), default=True),
        },
    }),
    "seed": _SEED,
}


def _curve_label(entry) -> str:
    """A papr_ccdf curve's CSV label: its own label, else its waveform and sizes."""
    if entry["label"] is not None:
        return entry["label"]
    sizes = {"ofdm": "k{k}", "ddam": "l{l}_mt{mt}"}.get(entry["waveform"], "k{k}_m{m}")
    return f"{entry['waveform']}_{sizes.format(**entry)}"


def _cross_field(o):
    """Diagnostics of the rules that tie read fields together."""
    diags = []
    channel, waveform, window = o.get("channel", {}), o.get("waveform"), o.get("window")
    curves = o.get("waveforms", [])
    labels = [_curve_label(w) for w in curves]
    diags += [f"waveforms[{i}].label: duplicate curve label '{label}'"
              for i, label in enumerate(labels) if label in labels[:i]]
    fits = [(f"waveforms[{i}].l", w["l"], w["mt"])
            for i, w in enumerate(curves) if w["waveform"] == "ddam"]
    if o.get("measure"):  # the measured modems run FFTs of k and m, and draw l AoDs
        sizes = [(f"k[{i}]", k) for i, k in enumerate(o["k"])] + [("m", o["m"])]
        diags += [f"{label}: must be a power of two when measure is true, got {v!r}"
                  for label, v in sizes if v & (v - 1)]
        fits += [(f"l[{i}]", l, min(o["mt"])) for i, l in enumerate(o["l"]) if o["mt"]]
    if "random" in channel:
        rnd = channel["random"]
        fits.append(("channel.random.num_paths", rnd["num_paths"], rnd["mt"]))
        diags += [f"channel.random.{key}: low must not exceed high, got {rnd[key]!r}"
                  for key in ("delay_range_s", "doppler_range_hz") if rnd[key][0] > rnd[key][1]]
    # AoDs are drawn 2/mt apart on [-1, 1), room for at most mt paths.
    diags += [f"{label}: must not exceed mt {mt} (AoDs 2/mt apart), got {n!r}"
              for label, n, mt in fits if n > mt]
    diags += [f"channel.paths[{i}].gain_re: gain_re and gain_im must not both be 0"
              for i, p in enumerate(channel.get("paths", []))
              if p["gain_re"] == p["gain_im"] == 0]
    # Zero-forcing beams need L <= M_t.  Only runs that read the alignment
    # options (the DDAM waveforms, equivalent_channel_report) design path beams.
    n, mt = len(channel.get("paths", [])), channel.get("array", {}).get("mt", 0)
    if n > mt and o["criterion"] == "zf" and "mode" in o:
        diags.append(f"channel.paths: criterion zf needs at most mt {mt} paths, got {n}")
    if waveform == "ddam_ofdm" and window and window.w_tau_samples > o["cp_len"]:
        diags.append(f"window.w_tau: must not exceed cp_len {o['cp_len']}, "
                     f"got {window.w_tau_samples!r}")
    if waveform in ("otfs_isfft", "otfs_zak", "ddam_otfs"):
        size = o["k"] * o["m"]
        if o["cp_len"] > size:
            diags.append(f"cp_len: must not exceed the frame length k*m = {size}, "
                         f"got {o['cp_len']!r}")
        if size > MAX_DENSE_GRID:
            diags.append(f"k: k*m = {size} exceeds the dense DD-matrix limit "
                         f"{MAX_DENSE_GRID}")
    return diags


def _read_config(doc, seed_override=None):
    """(options, diagnostics) of one config: the options are typed, with
    every default filled, and complete only when there are no diagnostics."""
    if not isinstance(doc, dict):
        return None, ["config: must be a JSON object"]
    diags = []
    options = _read_rows(doc, _CONFIG, "", diags)
    if seed_override is not None:
        options["seed"] = _SEED.read(seed_override, "seed", diags)
    return options, diags or _cross_field(options)


def validate_config(doc) -> list:
    """Schema check; returns diagnostics (empty means valid). No side effects."""
    return _read_config(doc)[1]


def _load(config_path, seed_override=None):
    """(JSON document, options) of a config file; raises ConfigError."""
    try:
        with open(config_path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError([f"config: cannot read {config_path}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON at line {exc.lineno}: {exc.msg}"])
    options, diagnostics = _read_config(doc, seed_override)
    if diagnostics:
        raise ConfigError(diagnostics)
    return doc, options


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


def _build_channel(channel, seed):
    if "random" not in channel:
        return channel_from_json(channel)
    rnd = channel["random"]
    return sample_random_channel(
        ArrayConfig(rnd["mt"], rnd["spacing"]), rnd["num_paths"],
        tuple(rnd["delay_range_s"]), tuple(rnd["doppler_range_hz"]),
        rng_seed=seed if rnd["seed"] is None else rnd["seed"],
        sample_rate=rnd["sample_rate_hz"])


# --------------------------------------------------------------- experiments

def _run_feasibility_region(o, out_dir):
    rows = []
    b, xi = o["bandwidth_hz"], o["xi"]
    for rho in o["rho_th"]:
        for k_th in o["k_th"]:
            region = feasible_region(FeasibilityThresholds(rho, k_th, b, xi))
            rows.append((rho, k_th, b, xi, region.tau_max, region.nu_max))
    return [_write_csv(os.path.join(out_dir, "feasibility_region.csv"),
                       ["rho_th", "k_th", "bandwidth_hz", "xi", "tau_max_s", "nu_max_hz"],
                       rows)]


def _run_papr_ccdf(o, out_dir):
    rows = []
    for idx, entry in enumerate(o["waveforms"]):
        name = entry["waveform"]
        if name == "ofdm":
            gen = make_papr_generator("ofdm", num_subcarriers=entry["k"])
        elif name in ("otfs_isfft", "otfs_zak"):
            gen = make_papr_generator(name, num_delay_bins=entry["k"],
                                      num_doppler_bins=entry["m"])
        else:
            gen = make_papr_generator(
                "ddam", num_paths=entry["l"], mt=entry["mt"],
                block_len=entry["block_len"], criterion=entry["criterion"],
                max_delay_samples=entry["max_delay_samples"],
                max_doppler_hz=entry["max_doppler_hz"])
        ccdf = papr_ccdf(gen, o["trials"], rng_seed=np.random.SeedSequence([o["seed"], idx]),
                         oversample=o["oversample"])
        rows.extend((_curve_label(entry), t, p) for t, p in
                    zip(ccdf.thresholds_db, ccdf.exceed_probability))
    return [_write_csv(os.path.join(out_dir, "papr_ccdf.csv"),
                       ["waveform", "threshold_db", "prob"], rows)]


def _run_se_sweep(o, out_dir):
    rows = []
    for n_max in o["n_max"]:
        rows.append((n_max, "ofdm", se_overhead(
            "ofdm", num_subcarriers=o["ofdm_k"], cp_len=n_max)))
        rows.append((n_max, "otfs", se_overhead(
            "otfs", num_doppler_bins=o["otfs_m"], num_delay_bins=o["otfs_k"],
            cp_len=n_max)))
        rows.append((n_max, "ddam", se_overhead(
            "ddam", block_len=o["ddam_block_len"], n_max=n_max)))
    return [_write_csv(os.path.join(out_dir, "se_sweep.csv"),
                       ["n_max", "waveform", "efficiency"], rows)]


# waveform -> one BER point of (channel, options, snr_db, seed).  The runners
# are looked up when called, so a wrapper installed on them (as the
# benchmark's tracer does) sees every call.
_BER_POINTS = {
    "ofdm": lambda ch, o, snr, seed: run_ofdm_ber(
        ch, OfdmConfig(o["k"], o["cp_len"], ch.sample_rate), snr, o["num_symbols"], seed),
    "otfs_isfft": lambda ch, o, snr, seed: run_otfs_ber(
        ch, OtfsConfig(o["m"], o["k"], o["cp_len"], ch.sample_rate), snr, o["num_frames"],
        seed, variant="isfft"),
    "otfs_zak": lambda ch, o, snr, seed: run_otfs_ber(
        ch, OtfsConfig(o["m"], o["k"], o["cp_len"], ch.sample_rate), snr, o["num_frames"],
        seed, variant="zak"),
    "ddam": lambda ch, o, snr, seed: run_ddam_ber(
        ch, snr, o["num_symbols"], seed, **{key: o[key] for key in _DDAM_KEYS}),
    "ddam_ofdm": lambda ch, o, snr, seed: run_ddam_ofdm_ber(
        ch, OfdmConfig(o["k"], o["cp_len"], ch.sample_rate), snr, o["num_symbols"], seed,
        **{key: o[key] for key in _DDAM_KEYS}),
    "ddam_otfs": lambda ch, o, snr, seed: run_ddam_otfs_ber(
        ch, OtfsConfig(o["m"], o["k"], o["cp_len"], ch.sample_rate), snr, o["num_frames"],
        seed, variant=o["variant"], **{key: o[key] for key in _DDAM_KEYS}),
}


def _run_ber_vs_snr(o, out_dir):
    channel = _build_channel(o["channel"], o["seed"])
    ber_point = _BER_POINTS[o["waveform"]]
    rows = []
    for i, snr_db in enumerate(o["snr_db"]):
        run_seed = np.random.SeedSequence([o["seed"], i]).generate_state(1)[0]
        result = ber_point(channel, o, snr_db, run_seed)
        rows.append((snr_db, result.ber))
    return [_write_csv(os.path.join(out_dir, "ber_vs_snr.csv"),
                       ["snr_db", "ber"], rows)]


def _run_equivalent_channel_report(o, out_dir):
    channel = _build_channel(o["channel"], o["seed"])
    psi = psi_from_channel(channel, o["psi_perturbation"], rng_seed=o["seed"])
    beams = path_beamformers(psi, o["criterion"], noise_var=o["noise_var"])
    eq = equivalent_channel(channel, psi, beams, **{key: o[key] for key in _ALIGNMENT_ROWS})
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


def _run_complexity_table(o, out_dir):
    m, n_s = o["m"], o["n_s"]
    rows = []
    for variant in COMPLEXITY_VARIANTS:
        for mt in o["mt"]:
            for k in o["k"]:
                for l in o["l"]:
                    params = ComplexityParams(mt, k, m, l, n_s)
                    tx_model, rx_model = complexity_model(variant, params)
                    if o["measure"]:
                        tx_meas, rx_meas = measured_complexity(variant, params,
                                                               rng_seed=o["seed"])
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
    doc, options = _load(config_path, seed_override)
    os.makedirs(out_dir, exist_ok=True)
    started = time.monotonic()
    outputs = _RUNNERS[options["experiment"]](options, out_dir)
    manifest = {
        "seed": options["seed"],
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

    try:
        if args.validate_only:
            _load(args.config, args.seed_override)
            print("config ok")
            return EXIT_OK
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
