import json
import subprocess
import sys

import pytest

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
    ])
    def test_bad_ber_field_exits_config_error(self, tmp_path, capsys, waveform,
                                              field, value):
        doc = {
            "experiment": "ber_vs_snr", "seed": 1, "waveform": waveform,
            "snr_db": [10.0], "channel": channel_doc(), "num_symbols": 4,
            "k": 16, "m": 4, "cp_len": 4, "num_frames": 1, field: value,
        }
        cfg = write_config(tmp_path, doc)
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

    def test_console_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, feasibility_config())
        proc = subprocess.run(
            [sys.executable, "-m", "wavelab.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "feasibility_region.csv" in proc.stdout
