import copy
import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from wavelab import cli
from wavelab.channel import ArrayConfig, sample_random_channel, channel_to_json
from wavelab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    main,
    run_experiment,
    validate_config,
)
from wavelab.metrics import ComplexityParams, complexity_model
from wavelab.ofdm import FeasibilityThresholds, feasible_region


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def feasibility_config():
    return {
        "experiment": "feasibility_region",
        "seed": 0,
        "rho_th": [0.5, 0.7, 0.9, 0.95],
        "k_th": [64, 256, 1024, 4096],
        "bandwidth_hz": 1e8,
        "xi": 10.0,
    }


def channel_doc():
    ch = sample_random_channel(ArrayConfig(8), 3, (0, 1e-5), (-500, 500), 7,
                               sample_rate=1e6)
    return channel_to_json(ch)


# The size fields each ber_vs_snr waveform reads.
BER_SIZES = {
    "ofdm": {"k": 16, "cp_len": 4, "num_symbols": 4},
    "otfs_isfft": {"k": 16, "m": 4, "cp_len": 4, "num_frames": 1},
    "otfs_zak": {"k": 16, "m": 4, "cp_len": 4, "num_frames": 1},
    "ddam": {"num_symbols": 4},
    "ddam_ofdm": {"k": 16, "cp_len": 4, "num_symbols": 4},
    "ddam_otfs": {"k": 16, "m": 4, "cp_len": 4, "num_frames": 1},
}


def ber_doc(waveform, **fields):
    """A valid ber_vs_snr config that carries only fields its waveform reads."""
    return {"experiment": "ber_vs_snr", "seed": 1, "waveform": waveform,
            "snr_db": [10.0], "channel": channel_doc(), **BER_SIZES[waveform], **fields}


class TestValidate:
    def test_minimal_valid(self):
        assert validate_config(feasibility_config()) == []

    def test_missing_seed_named(self):
        doc = feasibility_config()
        del doc["seed"]
        diags = validate_config(doc)
        assert any(d.startswith("seed:") for d in diags)

    def test_unknown_experiment(self):
        diags = validate_config({"experiment": "mystery", "seed": 0})
        assert any("experiment" in d for d in diags)

    def test_negative_snr_allowed_negative_k_rejected(self):
        doc = {
            "experiment": "ber_vs_snr", "seed": 1, "waveform": "ofdm",
            "snr_db": [-5, 0, 5], "k": 64, "cp_len": 8, "num_symbols": 4,
            "channel": channel_doc(),
        }
        assert validate_config(doc) == []
        doc["k"] = -64
        diags = validate_config(doc)
        assert any(".k" in d or d.startswith("k") for d in diags)

    def test_papr_zero_trials_rejected(self):
        doc = {
            "experiment": "papr_ccdf", "seed": 0, "trials": 0,
            "waveforms": [{"waveform": "ofdm", "k": 64}],
        }
        diags = validate_config(doc)
        assert any("trials" in d for d in diags)

    def test_channel_field_paths_in_diagnostics(self):
        doc = {
            "experiment": "ber_vs_snr", "seed": 1, "waveform": "ddam",
            "snr_db": [0], "num_symbols": 10,
            "channel": {"array": {"mt": 4}, "paths": [{"gain_re": 1.0}]},
        }
        diags = validate_config(doc)
        assert any("channel.sample_rate_hz" in d for d in diags)
        assert any("channel.paths[0]" in d for d in diags)


    @pytest.mark.parametrize("waveform,field,value", [
        ("ddam", "criterion", "zz"),
        ("ddam", "mode", "zz"),
        ("ddam", "half_length", -3),
        ("ofdm", "k", 63),
        ("otfs_zak", "m", 6),
        ("ddam_otfs", "variant", "zz"),
        ("ddam", "window", {"w_tau": -2}),
        ("ddam", "window", {"w_tau": 1.5}),
        ("ddam", "window", {"w_nu_hz": "x"}),
        ("ddam", "window", {"w_nu_hz": -10.0}),
        ("ddam_ofdm", "window", {"w_tau": 8}),  # longer than cp_len 4
        ("otfs_zak", "cp_len", 65),             # longer than the 16 x 4 frame
        ("otfs_isfft", "cp_len", -1),
        ("ddam_otfs", "cp_len", 1.5),
        ("ddam_otfs", "k", 2048),               # 2048 x 4 bins, over the dense limit
        ("ddam", "window", 0),                  # only null and {} read as no window
        ("ddam_otfs", "window", False),
    ])
    def test_bad_ber_field_exits_config_error(self, tmp_path, capsys, waveform,
                                              field, value):
        cfg = write_config(tmp_path, ber_doc(waveform, **{field: value}))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        label = f"{field}.{next(iter(value))}" if isinstance(value, dict) else field
        assert capsys.readouterr().err.startswith(f"{label}: ")

    def test_bad_window_in_equivalent_channel_report(self):
        doc = {"experiment": "equivalent_channel_report", "seed": 1,
               "channel": channel_doc(), "window": {"w_tau": -1}}
        assert validate_config(doc) == [
            "window.w_tau: must be a nonnegative integer, got -1"]
        doc["window"] = {"w_tau": 2, "w_nu_hz": 50.0}
        assert validate_config(doc) == []

    @pytest.mark.parametrize("key,value", [
        ("aod", 1.5),
        ("aod", "0.2"),
        ("delay_s", -1e-6),
        ("doppler_hz", None),
        ("gain_re", 0.0),  # with gain_im 0: a zero gain
    ])
    def test_bad_channel_path_exits_config_error(self, tmp_path, capsys, key, value):
        channel = channel_doc()
        path = channel["paths"][1]
        path[key] = value
        if key == "gain_re":
            path["gain_im"] = 0.0
        doc = {"experiment": "ber_vs_snr", "seed": 1, "waveform": "ddam",
               "snr_db": [10.0], "channel": channel, "num_symbols": 4}
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"channel.paths[1].{key}: ")


    @pytest.mark.parametrize("field,value", [
        ("channel.sample_rate_hz", 0),
        ("channel.sample_rate_hz", "x"),
        ("channel.array.spacing", -1),
        ("channel.random.sample_rate_hz", 0),
        ("channel.random.num_paths", 5),  # more paths than the 4 antennas
    ])
    def test_bad_channel_number_exits_config_error(self, tmp_path, capsys, field, value):
        channel = channel_doc()
        if field.startswith("channel.random."):
            channel = {"random": {"num_paths": 2, "mt": 4, "delay_range_s": [0, 1e-6],
                                  "doppler_range_hz": [0, 0], "sample_rate_hz": 1e6}}
        doc = {"experiment": "ber_vs_snr", "seed": 1, "waveform": "ddam",
               "snr_db": [10.0], "channel": channel, "num_symbols": 4}
        *parents, key = field.split(".")
        target = doc
        for name in parents:
            target = target[name]
        target[key] = value
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"{field}: ")

    @pytest.mark.parametrize("field,value", [
        ("criterion", "foo"),
        ("block_len", 0),
        ("max_delay_samples", -4),
        ("max_delay_samples", "x"),
        ("max_doppler_hz", -5),
        ("l", 5),  # more paths than the 4 antennas
    ])
    def test_bad_papr_ddam_field_exits_config_error(self, tmp_path, capsys, field, value):
        doc = {"experiment": "papr_ccdf", "seed": 0, "trials": 3,
               "waveforms": [{"waveform": "ofdm", "k": 16},
                             {"waveform": "ddam", "l": 2, "mt": 4, "block_len": 16,
                              field: value}]}
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"waveforms[1].{field}: ")

    @pytest.mark.parametrize("curves,index,label", [
        # the automatic DDAM label names only l and mt, not the criterion
        ([{"waveform": "ddam", "l": 2, "mt": 4, "criterion": "zf"},
          {"waveform": "ddam", "l": 2, "mt": 4, "criterion": "mrt"}], 1, "ddam_l2_mt4"),
        ([{"waveform": "ofdm", "k": 16, "label": "x"},
          {"waveform": "otfs_zak", "k": 8, "m": 4},
          {"waveform": "ofdm", "k": 32, "label": "x"}], 2, "x"),
        # an explicit label that repeats another curve's automatic one
        ([{"waveform": "otfs_zak", "k": 8, "m": 4},
          {"waveform": "ofdm", "k": 16, "label": "otfs_zak_k8_m4"}], 1, "otfs_zak_k8_m4"),
    ], ids=["automatic", "explicit", "explicit_vs_automatic"])
    def test_duplicate_papr_label_exits_config_error(self, tmp_path, capsys, curves, index,
                                                     label):
        doc = {"experiment": "papr_ccdf", "seed": 0, "trials": 3, "waveforms": curves}
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"waveforms[{index}].label: duplicate curve label '{label}'\n")
        assert not (tmp_path / "out" / "papr_ccdf.csv").exists()

    @pytest.mark.parametrize("field,value,label", [
        ("channel.random.seed", "x", "channel.random.seed"),
        ("channel.random.delay_range_s", ["x", 1e-6], "channel.random.delay_range_s[0]"),
        ("channel.random.doppler_range_hz", [0, "x"], "channel.random.doppler_range_hz[1]"),
        ("channel.random.delay_range_s", [-1e-6, 1e-6], "channel.random.delay_range_s[0]"),
        ("channel.paths", [], "channel.paths"),
        ("channel.random.doppler_range_hz", [100, -100], "channel.random.doppler_range_hz"),
        # NaN and Infinity, which Python's json reads, are not numbers here.
        ("channel.random.sample_rate_hz", float("inf"), "channel.random.sample_rate_hz"),
        ("channel.random.doppler_range_hz", [0, float("nan")],
         "channel.random.doppler_range_hz[1]"),
    ])
    def test_bad_channel_value_exits_config_error(self, tmp_path, capsys, field, value,
                                                  label):
        channel = channel_doc()
        if field.startswith("channel.random."):
            channel = {"random": {"num_paths": 2, "mt": 4, "delay_range_s": [0, 1e-6],
                                  "doppler_range_hz": [0, 0], "sample_rate_hz": 1e6}}
        doc = {"experiment": "ber_vs_snr", "seed": 1, "waveform": "ddam",
               "snr_db": [10.0], "channel": channel, "num_symbols": 4}
        set_path(doc, field.split("."), value)
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"{label}: ")

    @pytest.mark.parametrize("field,value", [
        ("psi_perturbation.delay_err_samples", "x"),
        ("psi_perturbation.doppler_err_hz", "x"),
        ("psi_perturbation.aod_err", None),
        ("psi_perturbation.gain_err", [0.1]),
        ("noise_var", "x"),
        ("noise_var", -1.0),  # with MMSE beams: a negative noise variance
        ("psi_perturbation", []),
    ])
    def test_bad_equivalent_channel_field_exits_config_error(self, tmp_path, capsys,
                                                             field, value):
        doc = {"experiment": "equivalent_channel_report", "seed": 1,
               "channel": channel_doc(), "criterion": "mmse",
               "psi_perturbation": {"delay_err_samples": 0.1}}
        set_path(doc, field.split("."), value)
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"{field}: ")

    def test_measure_must_be_a_boolean(self, tmp_path, capsys):
        doc = {"experiment": "complexity_table", "seed": 0, "mt": [8], "k": [64],
               "l": [2], "m": 4, "n_s": 1000, "measure": "false"}
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("measure: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fields,message", [
        ({"k": [64, 3]}, "k[1]: must be a power of two when measure is true, got 3"),
        ({"m": 3}, "m: must be a power of two when measure is true, got 3"),
        ({"l": [2, 3], "mt": [8, 2]}, "l[1]: must not exceed mt 2 (AoDs 2/mt apart), got 3"),
    ], ids=["k", "m", "l"])
    def test_measured_sizes_exit_config_error(self, tmp_path, capsys, fields, message):
        doc = {"experiment": "complexity_table", "seed": 0, "mt": [8], "k": [64],
               "l": [2], "m": 4, "n_s": 1000, **fields}
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "out").exists()
        # the model-only table runs no modem, so any size goes
        assert validate_config({**doc, "measure": False}) == []

    @pytest.mark.parametrize("doc", [
        {"experiment": "papr_ccdf", "seed": 0, "trials": 3,
         "waveforms": [{"waveform": "ofdm", "k": 16}]},
        {"experiment": "se_sweep", "seed": 0, "n_max": [16],
         "ofdm_k": 64, "otfs_k": 64, "otfs_m": 4, "ddam_block_len": 1024},
    ], ids=["papr_ccdf", "se_sweep"])
    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys, doc):
        cfg = write_config(tmp_path, doc)
        for extra in ([], ["--validate-only"]):
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--seed-override", "-1", *extra])
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == "seed: must be a nonnegative integer, got -1\n"
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path / "out", seed_override=-1)

    @pytest.mark.parametrize("experiment,waveform", [
        ("ber_vs_snr", "ddam"),
        ("ber_vs_snr", "ddam_ofdm"),
        ("ber_vs_snr", "ddam_otfs"),
        ("equivalent_channel_report", None),
    ])
    def test_zero_forcing_with_more_paths_than_antennas(self, tmp_path, capsys,
                                                        experiment, waveform):
        channel = channel_doc()  # 3 explicit paths
        channel["array"]["mt"] = 2
        if waveform:
            doc = ber_doc(waveform, channel=channel, criterion="zf")
        else:
            doc = {"experiment": experiment, "seed": 1, "channel": channel, "criterion": "zf"}
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "channel.paths: criterion zf needs at most mt 2 paths, got 3\n")
        assert not (tmp_path / "out").exists()
        # other beam criteria take any path count
        doc["criterion"] = "mrt"
        assert validate_config(doc) == []

    @pytest.mark.parametrize("waveform", ["ofdm", "otfs_isfft", "otfs_zak"])
    def test_zero_forcing_rule_skips_waveforms_without_path_beams(self, waveform):
        channel = channel_doc()
        channel["array"]["mt"] = 2
        assert validate_config(ber_doc(waveform, channel=channel, criterion="zf")) == []

    @pytest.mark.parametrize("doc,label", [
        (ber_doc("ddam", critrion="mrt"), "critrion"),
        (ber_doc("ddam", channel={"random": {
            "num_paths": 2, "mt": 4, "delay_range_s": [0, 1e-6], "doppler_range_hz": [0, 0],
            "sample_rate_hz": 1e6, "sed": 3}}), "channel.random.sed"),
        (ber_doc("ddam", window={"w_tau": 1, "w_taux": 2}), "window.w_taux"),
        ({"experiment": "papr_ccdf", "seed": 0, "trials": 3,
          "waveforms": [{"waveform": "ofdm", "k": 16, "kk": 4}]}, "waveforms[0].kk"),
    ], ids=["top_level", "nested_object", "optional_object", "list_item"])
    def test_unknown_field_exits_config_error(self, tmp_path, capsys, doc, label):
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"{label}: unknown field\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("waveform,field,value", [
        *[(waveform, field, value) for waveform in ("ofdm", "otfs_isfft", "otfs_zak")
          for field, value in (("mode", "path_based"), ("half_length", 32),
                               ("window", {"w_tau": 0}))],
        *[(waveform, "variant", "zak") for waveform in BER_SIZES if waveform != "ddam_otfs"],
    ])
    def test_option_the_waveform_does_not_read_exits_config_error(self, tmp_path, capsys,
                                                                  waveform, field, value):
        cfg = write_config(tmp_path, ber_doc(waveform, **{field: value}))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"{field}: unknown field\n"

    def test_each_unread_field_gets_its_own_line(self, tmp_path, capsys):
        doc = ber_doc("otfs_zak", criterion="mrt", mode="tap_based", half_length=4,
                      window={"w_tau": 3}, variant="isfft", half_lenght=8)
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"{key}: unknown field"
            for key in ("mode", "half_length", "window", "variant", "half_lenght")]

    @pytest.mark.parametrize("waveform", ["ofdm", "otfs_isfft", "otfs_zak"])
    def test_criterion_is_accepted_and_ignored_without_path_beams(self, tmp_path, waveform):
        # OFDM and OTFS have no per-path beams, yet criterion stays a shared
        # ber_vs_snr field: the benchmark's BER jobs (bench/workloads.py,
        # _ber_job) send it to every waveform.
        csvs = []
        for name, doc in (("plain", ber_doc(waveform)),
                          ("mrt", ber_doc(waveform, criterion="mrt"))):
            run_experiment(write_config(tmp_path, doc, f"{name}.json"), tmp_path / name)
            csvs.append((tmp_path / name / "ber_vs_snr.csv").read_bytes())
        assert csvs[0] == csvs[1]


@pytest.mark.parametrize("waveform", sorted(BER_SIZES))
def test_ber_point_reads_every_option_of_its_waveform(monkeypatch, waveform):
    """Every option a ber_vs_snr waveform accepts reaches its runner, except
    criterion on OFDM and OTFS (see the test above)."""
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    for name in ("run_ofdm_ber", "run_otfs_ber", "run_ddam_ber", "run_ddam_ofdm_ber",
                 "run_ddam_otfs_ber"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: None)
    options, diags = cli._read_config(ber_doc(waveform))
    assert diags == []
    channel = cli._build_channel(options["channel"], options["seed"])
    cli._BER_POINTS[waveform](channel, Recording(options), 10.0, 1)
    # _run_ber_vs_snr itself reads these.
    unread = set(options) - {"experiment", "seed", "waveform", "snr_db", "channel"} - read
    assert unread == (set() if waveform.startswith("ddam") else {"criterion"})


@pytest.mark.parametrize("waveform, fields, builds", [
    ("otfs_zak", {}, 1), ("otfs_isfft", {}, 1),
    ("ddam_otfs", {"criterion": "zf"}, 1), ("ddam_otfs", {"criterion": "rzf"}, 2)])
def test_ber_curve_equals_its_points_on_fresh_channels(tmp_path, monkeypatch, waveform,
                                                       fields, builds):
    """The OTFS runners share H and H^H H over a curve unless the beams read
    the noise (rzf, mmse); the curve's CSV equals its points run alone, each
    on a freshly built channel."""
    import wavelab.combos
    import wavelab.link
    from wavelab.otfs import dd_effective_matrix

    built = []

    def counting(*args, **kwargs):
        built.append(None)
        return dd_effective_matrix(*args, **kwargs)

    for module in (wavelab.combos, wavelab.link):
        monkeypatch.setattr(module, "dd_effective_matrix", counting)
    doc = ber_doc(waveform, snr_db=[-4.0, 2.0], num_frames=3, **fields)
    run_experiment(str(write_config(tmp_path, doc)), str(tmp_path / "curve"))
    assert len(built) == builds
    options, diags = cli._read_config(doc)
    assert diags == []
    rows = []
    for i, snr_db in enumerate(options["snr_db"]):
        seed = np.random.SeedSequence([options["seed"], i]).generate_state(1)[0]
        channel = cli._build_channel(options["channel"], options["seed"])
        rows.append((snr_db, cli._BER_POINTS[waveform](channel, options, snr_db, seed).ber))
    assert all(ber > 0 for _, ber in rows)  # so a wrong equalizer would show
    cli._write_csv(str(tmp_path / "points.csv"), ["snr_db", "ber"], rows)
    assert ((tmp_path / "curve" / "ber_vs_snr.csv").read_bytes()
            == (tmp_path / "points.csv").read_bytes())


def test_benchmark_configs_validate(monkeypatch):
    """Every config the benchmark generates, 4 workloads x 40 seeds x both seed
    streams, passes the schema."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its @dataclass looks it up
    spec.loader.exec_module(workloads)
    docs = [job.config for name in workloads.WORKLOADS for seed in range(40)
            for held_out in (False, True) for job in workloads.make_jobs(name, seed, held_out)]
    assert len(docs) == 560
    assert [(doc, validate_config(doc)) for doc in docs if validate_config(doc)] == []


# One valid config per branch of the schema: every experiment, every BER and
# PAPR waveform, both channel forms, and every optional object spelled out.
SCHEMA_CONFIGS = [
    {"experiment": "feasibility_region", "seed": 0, "rho_th": [0.5], "k_th": [64],
     "bandwidth_hz": 1e8, "xi": 10.0},
    {"experiment": "papr_ccdf", "seed": 0, "trials": 3, "oversample": 2,
     "waveforms": [{"waveform": "ofdm", "k": 16, "label": "a"},
                   {"waveform": "otfs_isfft", "k": 8, "m": 4},
                   {"waveform": "otfs_zak", "k": 8, "m": 4},
                   {"waveform": "ddam", "l": 2, "mt": 4, "criterion": "zf",
                    "block_len": 16, "max_delay_samples": 4, "max_doppler_hz": 10.0}]},
    {"experiment": "se_sweep", "seed": 0, "n_max": [16], "ofdm_k": 64, "otfs_k": 64,
     "otfs_m": 4, "ddam_block_len": 1024},
    {"experiment": "ber_vs_snr", "seed": 1, "waveform": "ddam_ofdm", "snr_db": [10.0],
     "k": 16, "cp_len": 4, "num_symbols": 2, "criterion": "zf", "mode": "path_based",
     "half_length": 8, "window": {"w_tau": 2, "w_nu_hz": 10.0},
     "channel": {"random": {"num_paths": 2, "mt": 4, "delay_range_s": [0, 1e-6],
                            "doppler_range_hz": [0, 0], "sample_rate_hz": 1e6,
                            "spacing": 0.5, "seed": 3}}},
    {"experiment": "ber_vs_snr", "seed": 1, "waveform": "ddam_otfs", "snr_db": [10.0],
     "k": 16, "m": 4, "cp_len": 4, "num_frames": 1, "variant": "zak",
     "channel": channel_doc()},
    {"experiment": "ber_vs_snr", "seed": 1, "waveform": "ofdm", "snr_db": [10.0],
     "k": 16, "cp_len": 4, "num_symbols": 2, "channel": channel_doc()},
    {"experiment": "ber_vs_snr", "seed": 1, "waveform": "otfs_zak", "snr_db": [10.0],
     "k": 16, "m": 4, "cp_len": 4, "num_frames": 1, "channel": channel_doc()},
    {"experiment": "ber_vs_snr", "seed": 1, "waveform": "ddam", "snr_db": [10.0],
     "num_symbols": 4, "channel": channel_doc()},
    {"experiment": "equivalent_channel_report", "seed": 1, "channel": channel_doc(),
     "window": {"w_tau": 2}, "noise_var": 0.1,
     "psi_perturbation": {"delay_err_samples": 0.1, "doppler_err_hz": 1.0,
                          "aod_err": 0.01, "gain_err": 0.1}},
    {"experiment": "complexity_table", "seed": 0, "mt": [8], "k": [64], "l": [2],
     "m": 4, "n_s": 1000, "measure": False},
]


def set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def label_of(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path).lstrip(".")


def active_rows(doc, rows, path=()):
    """(path, field, rows id) of every schema row that reads a field of doc."""
    pending = [(rows, key, field) for key, field in rows.items()]
    for owner, key, field in pending:
        yield path + (key,), field, (id(owner), key)
        value = doc.get(key)
        if field.cases and value in field.cases:
            case = field.cases[value]
            pending.extend((case, k, f) for k, f in case.items())
        if field.rows is not None and isinstance(value, dict):
            sub = field.rows(value) if callable(field.rows) else field.rows
            yield from active_rows(value, sub, path + (key,))
        if field.item is not None and field.item.rows is not None and value:
            for i, entry in enumerate(value):
                yield from active_rows(entry, field.item.rows, path + (key, i))


def all_rows(rows):
    """(rows id, key) of every row the schema can reach."""
    found = set()
    for key, field in rows.items():
        found.add((id(rows), key))
        for sub in (field.cases or {}).values():
            found |= all_rows(sub)
        item_rows = field.item.rows if field.item is not None else None
        for sub in (field.rows, item_rows):
            if callable(sub):
                found |= all_rows(sub({"random": {}})) | all_rows(sub({}))
            elif sub is not None:
                found |= all_rows(sub)
    return found


class TestSchema:
    def test_schema_configs_are_valid(self):
        for doc in SCHEMA_CONFIGS:
            assert validate_config(doc) == [], doc["experiment"]

    def test_every_row_is_exercised(self):
        seen = {row for doc in SCHEMA_CONFIGS for *_, row in active_rows(doc, cli._CONFIG)}
        assert seen == all_rows(cli._CONFIG)

    def test_wrong_kind_names_the_field(self):
        checked = 0
        for doc in SCHEMA_CONFIGS:
            for path, field, _ in active_rows(doc, cli._CONFIG):
                bad = copy.deepcopy(doc)
                wrong = "x" if field.convert is float else 1.5
                set_path(bad, path, wrong)
                diags = validate_config(bad)
                assert diags and diags[0].startswith(f"{label_of(path)}: "), (path, diags)
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("omitted,spelled", [
        ({"experiment": "feasibility_region", "seed": 0, "rho_th": [0.5, 0.9],
          "k_th": [64], "bandwidth_hz": 1e8},
         {"xi": 10.0}),
        ({"experiment": "papr_ccdf", "seed": 4, "trials": 20,
          "waveforms": [{"waveform": "ddam", "l": 2, "mt": 4}]},
         {"oversample": 4, "waveforms": [
             {"waveform": "ddam", "l": 2, "mt": 4, "block_len": 512, "criterion": "zf",
              "max_delay_samples": 32, "max_doppler_hz": 0.0}]}),
        ({"experiment": "se_sweep", "seed": 0, "n_max": [8], "ofdm_k": 64,
          "otfs_k": 64, "otfs_m": 4, "ddam_block_len": 1024},
         {}),
        ({"experiment": "ber_vs_snr", "seed": 2, "waveform": "ddam", "snr_db": [6.0],
          "num_symbols": 300,
          "channel": {"random": {"num_paths": 2, "mt": 8, "delay_range_s": [0, 4e-6],
                                 "doppler_range_hz": [-100, 100],
                                 "sample_rate_hz": 1e6}}},
         {"criterion": "zf", "mode": "path_based", "half_length": 32, "window": None,
          "channel": {"random": {"num_paths": 2, "mt": 8, "delay_range_s": [0, 4e-6],
                                 "doppler_range_hz": [-100, 100],
                                 "sample_rate_hz": 1e6, "spacing": 0.5, "seed": 2}}}),
        ({"experiment": "ber_vs_snr", "seed": 2, "waveform": "ddam_otfs",
          "snr_db": [6.0], "k": 8, "m": 4, "num_frames": 1, "channel": channel_doc(),
          "window": {"w_tau": 1}},
         {"cp_len": 0, "variant": "zak", "window": {"w_tau": 1, "w_nu_hz": 0.0}}),
        ({"experiment": "ber_vs_snr", "seed": 2, "waveform": "ofdm", "snr_db": [6.0],
          "k": 16, "num_symbols": 2, "channel": channel_doc()},
         {"cp_len": 0}),
        ({"experiment": "equivalent_channel_report", "seed": 3,
          "channel": {k: v for k, v in channel_doc().items() if k != "array"}
          | {"array": {"mt": 8}}},
         {"criterion": "zf", "mode": "path_based", "half_length": 32, "noise_var": 0.0,
          "channel": channel_doc(), "window": {},
          "psi_perturbation": {"delay_err_samples": 0.0, "doppler_err_hz": 0.0,
                               "aod_err": 0.0, "gain_err": 0.0}}),
        ({"experiment": "complexity_table", "seed": 0, "mt": [4], "k": [16], "l": [2],
          "m": 2, "n_s": 64},
         {"measure": True}),
    ], ids=["feasibility_region", "papr_ccdf", "se_sweep", "ber_ddam", "ber_ddam_otfs",
            "ber_ofdm", "equivalent_channel_report", "complexity_table"])
    def test_spelled_out_defaults_give_identical_csvs(self, tmp_path, omitted, spelled):
        outputs = []
        for name, doc in (("omitted", omitted), ("spelled", {**omitted, **spelled})):
            paths = run_experiment(write_config(tmp_path, doc, f"{name}.json"),
                                   tmp_path / name)
            outputs.append({os.path.basename(p): open(p, "rb").read()
                            for p in paths if p.endswith(".csv")})
        assert outputs[0] == outputs[1] and outputs[0]


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_blocks(language):
    with open(README) as f:
        return re.findall(rf"```{language}\n(.*?)```", f.read(), re.S)


def test_readme_configs_validate():
    docs = [doc for doc in map(json.loads, readme_blocks("json")) if "experiment" in doc]
    assert {doc["experiment"] for doc in docs} == set(cli._CONFIG["experiment"].cases)
    for doc in docs:
        assert validate_config(doc) == [], doc


def test_readme_python_quick_start_runs():
    blocks = readme_blocks("python")
    assert blocks
    for source in blocks:
        exec(compile(source, "README.md", "exec"), {})


class TestRunExperiment:
    def test_feasibility_matches_module(self, tmp_path):
        cfg = write_config(tmp_path, feasibility_config())
        out = tmp_path / "out"
        paths = run_experiment(cfg, out)
        csv_path = out / "feasibility_region.csv"
        assert str(csv_path) in paths
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "rho_th,k_th,bandwidth_hz,xi,tau_max_s,nu_max_hz"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 16
        for row in body:
            rho, k_th = float(row[0]), int(row[1])
            region = feasible_region(FeasibilityThresholds(rho, k_th, 1e8, 10.0))
            assert float(row[4]) == region.tau_max
            assert float(row[5]) == region.nu_max

    def test_complexity_table_matches_model(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "complexity_table", "seed": 0,
            "mt": [8], "k": [256], "l": [2], "m": 4, "n_s": 100000,
            "measure": False,
        })
        out = tmp_path / "out"
        run_experiment(cfg, out)
        lines = (out / "complexity_table.csv").read_text().strip().split("\n")
        rows = {r.split(",")[0]: r.split(",") for r in lines[1:]}
        p = ComplexityParams(8, 256, 4, 2, 100000)
        for variant in ("ofdm", "otfs_isfft", "otfs_zak",
                        "ddam_mrt", "ddam_zf", "ddam_mmse"):
            tx_model, rx_model = complexity_model(variant, p)
            assert float(rows[variant][6]) == tx_model
            assert float(rows[variant][7]) == rx_model

    def test_se_sweep_values(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "se_sweep", "seed": 0, "n_max": [16],
            "ofdm_k": 64, "otfs_k": 64, "otfs_m": 4, "ddam_block_len": 1024,
        })
        out = tmp_path / "out"
        run_experiment(cfg, out)
        lines = (out / "se_sweep.csv").read_text().strip().split("\n")
        values = {line.split(",")[1]: float(line.split(",")[2]) for line in lines[1:]}
        assert values["ofdm"] == 0.8
        assert values["otfs"] == 256 / 272
        assert values["ddam"] == 1024 / 1056

    def test_equivalent_channel_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "equivalent_channel_report", "seed": 3,
            "channel": {"random": {"num_paths": 3, "mt": 16,
                                   "delay_range_s": [0, 1e-5],
                                   "doppler_range_hz": [-200, 200],
                                   "sample_rate_hz": 1e6}},
            "criterion": "zf",
        })
        out = tmp_path / "out"
        paths = run_experiment(cfg, out)
        assert (out / "equivalent_taps.csv").exists()
        summary = dict(line.split(",") for line in
                       (out / "equivalent_summary.csv").read_text().strip().split("\n")[1:])
        assert float(summary["residual_isi_power"]) >= 0.0
        assert len(paths) == 3  # two CSVs plus the manifest

    def test_ber_vs_snr_runs(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "ber_vs_snr", "seed": 5, "waveform": "ddam",
            "snr_db": [0, 6], "num_symbols": 2000,
            "channel": channel_doc(),
        })
        out = tmp_path / "out"
        run_experiment(cfg, out)
        lines = (out / "ber_vs_snr.csv").read_text().strip().split("\n")
        assert lines[0] == "snr_db,ber"
        bers = [float(line.split(",")[1]) for line in lines[1:]]
        assert bers[0] > bers[1]  # higher SNR, fewer errors

    @pytest.mark.parametrize("waveform,extra", [
        ("ofdm", {"k": 32, "cp_len": 16, "num_symbols": 4}),
        ("otfs_isfft", {"k": 16, "m": 4, "cp_len": 16, "num_frames": 2}),
        ("otfs_zak", {"k": 16, "m": 4, "cp_len": 16, "num_frames": 2}),
        ("ddam", {"num_symbols": 500}),
        ("ddam_ofdm", {"k": 16, "cp_len": 0, "num_symbols": 3}),
        ("ddam_otfs", {"k": 16, "m": 4, "cp_len": 16, "num_frames": 2}),
    ])
    def test_every_waveform_runs(self, tmp_path, waveform, extra):
        doc = {
            "experiment": "ber_vs_snr", "seed": 2, "waveform": waveform,
            "snr_db": [30.0], "channel": channel_doc(), **extra,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        run_experiment(cfg, out)
        lines = (out / "ber_vs_snr.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert 0.0 <= float(lines[1].split(",")[1]) <= 0.2

    def test_manifest_contents(self, tmp_path):
        cfg_doc = feasibility_config()
        cfg = write_config(tmp_path, cfg_doc)
        out = tmp_path / "out"
        run_experiment(cfg, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["config"] == cfg_doc
        assert manifest["library_version"]
        assert manifest["wall_time_s"] >= 0
        assert "feasibility_region.csv" in manifest["outputs"]
        assert len(manifest["config_hash"]) == 64

    def test_reproducible_byte_identical(self, tmp_path):
        doc = {
            "experiment": "papr_ccdf", "seed": 11, "trials": 200,
            "oversample": 2,
            "waveforms": [{"waveform": "ofdm", "k": 64},
                          {"waveform": "ddam", "l": 2, "mt": 8, "block_len": 64}],
        }
        cfg = write_config(tmp_path, doc)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        a = (tmp_path / "a" / "papr_ccdf.csv").read_bytes()
        b = (tmp_path / "b" / "papr_ccdf.csv").read_bytes()
        assert a == b

    def test_seed_override_changes_results(self, tmp_path):
        doc = {
            "experiment": "ber_vs_snr", "seed": 5, "waveform": "ddam",
            "snr_db": [4.0], "num_symbols": 3000, "channel": channel_doc(),
        }
        cfg = write_config(tmp_path, doc)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b", seed_override=99)
        a = (tmp_path / "a" / "ber_vs_snr.csv").read_text()
        b = (tmp_path / "b" / "ber_vs_snr.csv").read_text()
        assert a != b

    def test_invalid_config_raises(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "papr_ccdf", "seed": 0,
                                      "trials": 0, "waveforms": []})
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path / "out")

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(tmp_path / "nope.json", tmp_path / "out")


class TestMainEntry:
    def test_exit_codes(self, tmp_path):
        cfg = write_config(tmp_path, feasibility_config())
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        bad = write_config(tmp_path, {"experiment": "nope", "seed": 0}, "bad.json")
        assert main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "out2")]) == EXIT_CONFIG

    def test_papr_ddam_with_as_many_paths_as_antennas(self, tmp_path):
        # A plain AoD draw almost never separates 8 paths on 8 antennas.
        doc = {"experiment": "papr_ccdf", "seed": 0, "trials": 5,
               "waveforms": [{"waveform": "ddam", "l": 8, "mt": 8, "block_len": 16}]}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_validate_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, feasibility_config())
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--validate-only"]) == EXIT_OK
        assert "config ok" in capsys.readouterr().out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [None, '{"experiment": }'],
                             ids=["missing", "invalid_json"])
    def test_validate_only_and_run_share_the_loader(self, tmp_path, capsys, content):
        cfg = tmp_path / "config.json"
        if content is not None:
            cfg.write_text(content)
        first_lines = []
        for extra in ([], ["--validate-only"]):
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         *extra])
            assert code == EXIT_CONFIG
            first_lines.append(capsys.readouterr().err.splitlines()[0])
        assert first_lines[0] == first_lines[1]
        expected = ("config: cannot read" if content is None
                    else "config: invalid JSON at line 1: Expecting value")
        assert first_lines[0].startswith(expected)

    def test_console_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, feasibility_config())
        proc = subprocess.run(
            [sys.executable, "-m", "wavelab.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "feasibility_region.csv" in proc.stdout
