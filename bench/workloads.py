"""Benchmark workloads: experiment configs generated from a seed, and the
checks that every output must pass.

A workload is a list of jobs.  Each job is one JSON config for the public
entry point ``wavelab.cli.run_experiment``; the program sees only these
configs.  An operation is one BER point or one PAPR CCDF curve, and each is
checked against bands anchored to theory, never to recorded outputs.

Sizes are chosen so one pass over a workload takes a few seconds on one
core, so a run of the benchmark can repeat it and report medians.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field

RATE = 1e6           # sample rate of every generated channel, Hz
HALF_LENGTH = 32     # run_experiment's default interpolator half-length
DDAM_BLOCK = 100_000  # run_ddam_ber's default block length

# Generated inputs come from one of two disjoint seed streams.  Tuning uses
# the first; a gain claimed on it is re-checked on the held-out one.
STREAM_TUNING = 0
STREAM_HELD_OUT = 1


@dataclass
class Job:
    """One experiment config plus what its checks need to know."""

    config: dict
    trials: int                 # Monte Carlo trials: PAPR trials, BER frames
    bits: int                   # information bits the job simulates
    check: dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        if self.config["experiment"] == "papr_ccdf":
            return len(self.config["waveforms"])
        return len(self.config["snr_db"])


# ------------------------------------------------------------------ channels

def _random_channel(rng, num_paths, mt, max_delay_s, max_doppler_hz):
    return {"random": {"num_paths": num_paths, "mt": mt,
                       "delay_range_s": [0.0, max_delay_s],
                       "doppler_range_hz": [-max_doppler_hz, max_doppler_hz],
                       "sample_rate_hz": RATE,
                       "seed": rng.randrange(2 ** 31)}}


def _separated_aods(rng, count, mt):
    """AoDs uniform on [-1, 1) at least one beamwidth (2/M_t) apart."""
    while True:
        aods = sorted(rng.uniform(-1.0, 1.0) for _ in range(count))
        if all(b - a >= 2.0 / mt for a, b in zip(aods, aods[1:])):
            rng.shuffle(aods)
            return aods


def _stratified_channel(rng, mt, max_doppler_hz):
    """Four fractional-delay paths whose fractions are u/4, (1+u)/4, ...

    In tap-based DDAM a path with fractional delay f gets one plan term per
    interpolator tap within 30 dB of its peak, from 1 term at f = 0 to 24 at
    f = 0.5.  Independent fractions would make the work of one run vary by
    about 20 % from seed to seed.  With fractions one quarter apart, each
    path's count is offset by a mirror-image partner, so the plan keeps about
    50 terms for every seed while delays, Dopplers, AoDs and gains stay random.
    Integer delays start at 16 samples so no significant tap is cut at lag 0.
    """
    u = rng.random()
    fractions = [(i + u) / 4.0 for i in range(4)]
    rng.shuffle(fractions)
    norm = 0.0
    gains = []
    for _ in fractions:
        g = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        gains.append(g)
        norm += abs(g) ** 2
    paths = [{"gain_re": g.real / math.sqrt(norm), "gain_im": g.imag / math.sqrt(norm),
              "delay_s": (rng.randrange(16, 40) + f) / RATE,
              "doppler_hz": rng.uniform(-max_doppler_hz, max_doppler_hz),
              "aod": a}
             for g, f, a in zip(gains, fractions, _separated_aods(rng, 4, mt))]
    return {"array": {"mt": mt, "spacing": 0.5}, "sample_rate_hz": RATE,
            "paths": paths}


def _max_delay_samples(channel):
    if "random" in channel:
        return channel["random"]["delay_range_s"][1] * RATE
    return max(p["delay_s"] for p in channel["paths"]) * RATE


# ----------------------------------------------------------------- BER jobs

def _ber_job(rng, waveform, snr_db, channel, ceiling_penalty_db, min_sir_db=None,
             **params):
    config = {"experiment": "ber_vs_snr", "seed": rng.randrange(2 ** 31),
              "waveform": waveform, "snr_db": list(snr_db), "criterion": "zf",
              "channel": channel, **params}
    k = config.get("k")
    cp = config.get("cp_len", 0)
    # Per received frame: information-bearing samples and transmitted samples.
    if waveform in ("ofdm", "ddam_ofdm"):
        trials = config["num_symbols"]
        info_len = k * trials
        frame_len = (trials + (waveform == "ddam_ofdm")) * (k + cp)
        frames = 1
    elif waveform == "ddam":
        frames = trials = -(-config["num_symbols"] // DDAM_BLOCK)
        info_len = frame_len = min(config["num_symbols"], DDAM_BLOCK)
    else:
        frames = trials = config["num_frames"]
        info_len = k * config["m"]
        frame_len = info_len + cp
    # Received samples per information sample, bounded from above: the
    # channel adds at most the largest integer delay and the interpolator
    # transient (2 * half_length + 1), and a DDAM chain adds its 2 * n_max
    # guard.
    tail = 3 * (math.ceil(_max_delay_samples(channel)) + 1) + 2 * HALF_LENGTH + 2
    rx_over_info = (frame_len + tail) / info_len
    bits_per_point = 2 * info_len * frames
    points = len(config["snr_db"])
    return Job(config=config, trials=trials * points, bits=bits_per_point * points,
               check={"bits_per_point": bits_per_point,
                      "rx_over_info": rx_over_info,
                      "ceiling_penalty_db": ceiling_penalty_db,
                      "min_sir_db": min_sir_db})


def papr_mc(rng):
    """Thousands of tiny per-trial calls: per-call overhead dominates."""
    trials = 3000
    config = {"experiment": "papr_ccdf", "seed": rng.randrange(2 ** 31),
              "trials": trials, "oversample": 1,
              "waveforms": [
                  {"waveform": "ddam", "label": "ddam", "l": 3, "mt": 8,
                   "block_len": 512, "criterion": "zf"},
                  {"waveform": "otfs_zak", "label": "otfs_zak", "k": 128, "m": 16},
                  {"waveform": "ofdm", "label": "ofdm", "k": 512}]}
    # QPSK bits carried per trial: 512 DDAM symbols, a 128 x 16 OTFS grid
    # and 512 OFDM subcarriers.
    bits = trials * 2 * (512 + 128 * 16 + 512)
    return [Job(config=config, trials=3 * trials, bits=bits,
                check={"trials": trials, "ofdm_k": 512})]


def ber_ddam_stream(rng):
    """A few 100 000-symbol blocks: per-sample synthesis and channel work."""
    channel = _stratified_channel(rng, mt=32, max_doppler_hz=2000.0)
    # 6 dB: ZF per-path beams and Doppler pre-compensation may cost at most
    # 6 dB against an AWGN link.  Residual ISI: every plan term is aimed at
    # n_max, the largest nearest-integer delay, and a term cannot be
    # pre-delayed by less than 0 samples.  So the interpolator taps of the
    # latest path that lie past n_max arrive late.  That is at most about
    # half of the energy: the signal-to-ISI ratio stays at or above 0 dB.
    return [_ber_job(rng, "ddam", [2.0, 6.0, 10.0], channel, 6.0, min_sir_db=0.0,
                     mode="tap_based", num_symbols=DDAM_BLOCK)]


def ber_dd_grid(rng):
    """Dense 1024-bin DD matrices and dense MMSE: per-column chain passes."""
    jobs = []
    for waveform in ("otfs_zak", "otfs_isfft", "ddam_otfs"):
        channel = _random_channel(rng, 4, 16, 8e-6, 1000.0)
        extra = {"variant": "zak"} if waveform == "ddam_otfs" else {}
        # 10 dB: a one-beam (OTFS) or ZF (DDAM-OTFS) transmitter and linear
        # MMSE instead of ML detection over a 4-path channel may cost at most
        # 10 dB against an AWGN link.
        jobs.append(_ber_job(rng, waveform, [4.0, 12.0], channel, 10.0,
                             k=64, m=16, cp_len=16, num_frames=2, **extra))
    return jobs


def ber_ofdm(rng):
    """Many short OFDM symbols: per-symbol Python loops dominate."""
    # 10 dB: per-subcarrier MRT toward a composite response and ICI from
    # +-1 kHz Doppler at 15.6 kHz spacing may cost at most 10 dB against an
    # AWGN link.
    ofdm = _ber_job(rng, "ofdm", [4.0, 12.0],
                    _random_channel(rng, 4, 16, 1.6e-5, 1000.0), 10.0,
                    k=64, cp_len=24, num_symbols=1000)
    # DDAM-OFDM with a 4-sample CP also leaves residual ISI.  Path-based
    # compensation aligns each path at its nearest integer delay, so even a
    # path split half-way between two samples keeps about half its energy
    # inside the CP window: the signal-to-ISI ratio stays at or above 0 dB.
    ddam_ofdm = _ber_job(rng, "ddam_ofdm", [4.0, 12.0],
                         _random_channel(rng, 4, 16, 1.6e-5, 1000.0), 10.0,
                         min_sir_db=0.0,
                         k=64, cp_len=4, window={"w_tau": 4}, num_symbols=4000)
    return [ofdm, ddam_ofdm]


WORKLOADS = {
    "papr_mc": papr_mc,
    "ber_ddam_stream": ber_ddam_stream,
    "ber_dd_grid": ber_dd_grid,
    "ber_ofdm": ber_ofdm,
}


def make_jobs(workload: str, seed: int, held_out: bool = False) -> list:
    """The workload's jobs; the same (workload, seed, stream) gives the same jobs."""
    stream = STREAM_HELD_OUT if held_out else STREAM_TUNING
    rng = random.Random(f"{workload}/{stream}/{seed}")
    return WORKLOADS[workload](rng)


# -------------------------------------------------------------------- checks

def qfunc(x: float) -> float:
    """Gaussian tail Q(x); the checks do not borrow it from the code under test."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _read_csv(path, header):
    """Rows of a CSV whose header starts with the given columns."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0][:len(header)] != header:
        raise ValueError(f"{path}: header {rows[:1]} does not start with {header}")
    width = len(rows[0])
    if any(len(r) != width for r in rows[1:]):
        raise ValueError(f"{path}: ragged rows")
    return rows[1:]


def _probability(text):
    p = float(text)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


def check_papr(job: Job, out_dir: str) -> list:
    """(operation, failure or None) per CCDF curve."""
    labels = [w["label"] for w in job.config["waveforms"]]
    curves = {label: [] for label in labels}
    for row in _read_csv(f"{out_dir}/papr_ccdf.csv", ["waveform", "threshold_db", "prob"]):
        if row[0] not in curves:
            raise ValueError(f"unexpected waveform label {row[0]!r}")
        curves[row[0]].append((float(row[1]), _probability(row[2])))
    level = 1e-2
    at_level = {}
    results = {}
    for label, curve in curves.items():
        problem = None
        if len(curve) < 2:
            problem = "fewer than two thresholds"
        elif any(t1 <= t0 for (t0, _), (t1, _) in zip(curve, curve[1:])):
            problem = "thresholds not ascending"
        elif any(p1 > p0 for (_, p0), (_, p1) in zip(curve, curve[1:])):
            problem = "CCDF increases"
        results[label] = problem
        below = [t for t, p in curve if p <= level]
        at_level[label] = below[0] if below else curve[-1][0]

    # Nyquist-sampled OFDM with K subcarriers has about K independent
    # Gaussian samples, so P(PAPR > x) = 1 - (1 - e^-x)^K and the 1e-2 level
    # sits at 10 log10(ln(100 K)) dB (10.35 dB for K = 512).  Tolerance: the
    # CCDF is read on a 0.25 dB grid and reported at the first threshold
    # below the level (+0.25 dB); the level's binomial error at 3 sigma
    # moves it by 3 sqrt(0.01 / trials) / 0.01 in ln P, i.e. by that many
    # units of x near the tail, 4.34 / x dB each; QPSK rather than Gaussian
    # subcarriers are allowed 0.25 dB either way.
    k = job.check["ofdm_k"]
    x = math.log(100.0 * k)
    theory = 10.0 * math.log10(x)
    stat = 3.0 * math.sqrt(level / job.check["trials"]) / level * 4.34 / x
    low, high = theory - 0.25 - stat, theory + 0.5 + stat
    if results["ofdm"] is None and not low <= at_level["ofdm"] <= high:
        results["ofdm"] = (f"PAPR@1e-2 {at_level['ofdm']} dB outside "
                           f"[{low:.2f}, {high:.2f}] around theory {theory:.2f} dB")
    # DDAM sends each path's stream on its own beam, so every antenna carries
    # a sum of 3 streams instead of a sum of hundreds of subcarriers: its
    # PAPR must lie below both multicarrier baselines.
    if results["ddam"] is None:
        for other in ("otfs_zak", "ofdm"):
            if not at_level["ddam"] < at_level[other]:
                results["ddam"] = (f"DDAM PAPR@1e-2 {at_level['ddam']} dB not below "
                                   f"{other} {at_level[other]} dB")
    return [(f"ccdf:{label}", results[label]) for label in labels]


def check_ber(job: Job, out_dir: str) -> list:
    """(operation, failure or None) per BER point."""
    snrs = job.config["snr_db"]
    rows = _read_csv(f"{out_dir}/ber_vs_snr.csv", ["snr_db", "ber"])
    if len(rows) != len(snrs):
        raise ValueError(f"{len(rows)} BER rows for {len(snrs)} SNR points")
    n = job.check["bits_per_point"]
    bers = []
    for row, snr in zip(rows, snrs):
        if float(row[0]) != snr:
            raise ValueError(f"row SNR {row[0]} does not match config {snr}")
        bers.append(_probability(row[1]))
    name = job.config["waveform"]
    results = []
    for i, (snr, p) in enumerate(zip(snrs, bers)):
        problem = None
        # Matched-filter bound.  The noise is scaled to the mean power of
        # the whole received frame, so the information samples see at most
        # SNR * L_rx / L_info; no detector beats Q(sqrt(that)) per bit.
        bound = qfunc(math.sqrt(10 ** (snr / 10) * job.check["rx_over_info"]))
        if p < bound - 3.0 * math.sqrt(bound * (1.0 - bound) / n):
            problem = f"BER {p:.3g} below the matched-filter bound {bound:.3g}"
        # BER must not rise with SNR beyond 3 sigma of the pooled estimate.
        if problem is None and i > 0:
            q = (bers[i - 1] + p) / 2.0
            if p - bers[i - 1] > 3.0 * math.sqrt(2.0 * q * (1.0 - q) / n):
                problem = f"BER rises from {bers[i - 1]:.3g} to {p:.3g}"
        if problem is None and i == len(snrs) - 1:
            # Ceiling: AWGN at the SNR less the job's penalty, with any
            # residual ISI the design leaves counted as extra noise.
            penalty = job.check["ceiling_penalty_db"]
            sinr = 10 ** ((snr - penalty) / 10)
            if job.check["min_sir_db"] is not None:
                sinr = 1.0 / (1.0 / sinr + 10 ** (-job.check["min_sir_db"] / 10))
            ceiling = qfunc(math.sqrt(sinr))
            if p > ceiling:
                problem = (f"BER {p:.3g} at {snr} dB above the ceiling {ceiling:.3g} "
                           f"(AWGN less {penalty} dB, ISI allowance "
                           f"{job.check['min_sir_db']} dB SIR)")
        results.append((f"{name}@{snr}dB", problem))
    return results


def check(job: Job, out_dir: str) -> list:
    """(operation, failure or None) for every operation of the job.

    A malformed output fails every operation of the job.
    """
    try:
        if job.config["experiment"] == "papr_ccdf":
            return check_papr(job, out_dir)
        return check_ber(job, out_dir)
    except (OSError, ValueError, IndexError) as exc:
        return [(f"op{i}", f"malformed output: {exc}") for i in range(job.operations)]
