"""Tests of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import wavelab  # noqa: E402
import wavelab.cli  # noqa: E402
from child import csv_digest  # noqa: E402
from tracer import LAYERS, SIGNIFICANT_FRAC, TERMS_PER_PATH, Tracer  # noqa: E402

CHANNEL = {"random": {"num_paths": 2, "mt": 4, "delay_range_s": [0.0, 4e-6],
                      "doppler_range_hz": [-500.0, 500.0],
                      "sample_rate_hz": 1e6, "seed": 5}}

CONFIGS = {
    "ddam_otfs": {"experiment": "ber_vs_snr", "seed": 3, "waveform": "ddam_otfs",
                  "snr_db": [6.0], "k": 8, "m": 4, "cp_len": 4, "num_frames": 2,
                  "mode": "tap_based", "channel": CHANNEL},
    "ofdm": {"experiment": "ber_vs_snr", "seed": 4, "waveform": "ofdm",
             "snr_db": [0.0, 6.0], "k": 16, "cp_len": 8, "num_symbols": 20,
             "channel": CHANNEL},
    "papr": {"experiment": "papr_ccdf", "seed": 2, "trials": 20, "oversample": 1,
             "waveforms": [{"waveform": "ddam", "l": 2, "mt": 4, "block_len": 64},
                           {"waveform": "ofdm", "k": 64}]},
}


def run(tmp_path, name, tracer=None):
    out = tmp_path / f"{name}-{'traced' if tracer else 'plain'}"
    out.mkdir()
    config = out / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    if tracer is None:
        wavelab.cli.run_experiment(str(config), str(out))
    else:
        with tracer:
            wavelab.cli.run_experiment(str(config), str(out))
    return csv_digest(str(out))


def bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "wavelab" or name.startswith("wavelab.")
            for attr, value in vars(module).items() if callable(value)}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_wrappers_are_restored(tmp_path, name):
    before = bindings()
    tracer = Tracer()
    run(tmp_path, name, tracer)
    assert tracer.spans, "nothing was traced"
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_self_times_sum_to_root_duration(tmp_path, name):
    tracer = Tracer()
    run(tmp_path, name, tracer)
    roots = [i for i, s in enumerate(tracer.spans) if s[4] is None]
    assert [tracer.spans[i][0] for i in roots] == ["cli.run_experiment"]
    root = tracer.spans[roots[0]]
    # Self times telescope, so only float rounding separates the two sums.
    assert sum(tracer.self_times()) == pytest.approx(root[3] - root[2], abs=1e-9)
    assert all(own >= -1e-9 for own in tracer.self_times())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_traced_run_writes_identical_csvs(tmp_path, name):
    assert run(tmp_path, name, Tracer()) == run(tmp_path, name)


def test_counts_and_operations(tmp_path):
    tracer = Tracer()
    run(tmp_path, "ddam_otfs", tracer)
    metrics = tracer.metrics()
    assert metrics["link.run_ddam_otfs_ber.calls"] == 1
    assert metrics["otfs.dd_effective_matrix.calls"] == 1
    assert metrics["channel.apply_channel.calls"] >= 32  # one per DD column
    assert 0.0 < metrics[SIGNIFICANT_FRAC] <= 1.0
    assert metrics[TERMS_PER_PATH] >= 1.0
    assert metrics["otfs.mmse_equalize_dd.samples"] == 2 * 8 * 4
    # The BER point is operation 0; every span under it carries that id.
    ops = {s[1] for s in tracer.spans if s[0] != "cli.run_experiment"
           and s[0] != "cli.validate_config" and s[0] != "channel.sample_random_channel"}
    assert ops == {0}


def test_missing_function_reads_zero_calls(tmp_path):
    layers = dict(LAYERS, channel=LAYERS["channel"] + ("apply_channel_renamed",),
                  gone=("anything",))
    tracer = Tracer(layers=layers)
    run(tmp_path, "ofdm", tracer)
    assert tracer.missing == ["channel.apply_channel_renamed", "gone.anything"]
    metrics = tracer.metrics()
    assert metrics["channel.apply_channel_renamed.calls"] == 0
    assert metrics["channel.apply_channel_renamed.self_s"] == 0.0
    assert metrics["link.run_ofdm_ber.calls"] == 2
