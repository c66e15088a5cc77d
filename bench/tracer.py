"""Outside-in tracer for the benchmark's traced run.

The program is not instrumented.  Instead the tracer replaces each listed
public function, in every ``wavelab.*`` namespace that binds it, with a
wrapper that records a span, and puts the originals back afterwards.  A
span holds its name, start, end, parent span and operation id; an
operation is one BER point (one ``run_*_ber`` call) or one CCDF curve (one
``papr_ccdf`` call).  Spans stay in memory until the run ends.

A function's self time is its spans' durations minus the parts covered by
their child spans.  Counts derived from returned values (``.samples``,
``terms_per_path``, ``significant_frac``) are computed after the span has
closed, and the time they take is removed from the tracer's clock, so they
do not show in any span.  They are computed counts, not measurements.

The tracer assumes one thread, which holds while ``WAVELAB_THREADS`` is
unset.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# The layers are the modules; the functions are their public entry points.
LAYERS = {
    "channel": ("sample_random_channel", "apply_channel", "apply_scalar_paths",
                "add_awgn"),
    "ddam": ("psi_from_channel", "path_beamformers", "build_compensation_plan",
             "ddam_modulate", "equivalent_channel", "estimate_gain",
             "ddam_demodulate"),
    "ofdm": ("ofdm_modulate", "ofdm_demodulate", "ofdm_equalize_one_tap"),
    "otfs": ("otfs_modulate_zak", "otfs_modulate_isfft", "otfs_demodulate_zak",
             "otfs_demodulate_isfft", "dd_effective_matrix", "mmse_equalize_dd"),
    "combos": ("ddam_ofdm_link", "ddam_ofdm_transmit_with_link",
               "ddam_ofdm_receive", "ddam_otfs_transmit",
               "ddam_otfs_effective_matrix", "ddam_otfs_receive"),
    "link": ("run_ofdm_ber", "run_ddam_ber", "run_otfs_ber", "run_ddam_ofdm_ber",
             "run_ddam_otfs_ber", "ofdm_miso_precoder", "ofdm_genie_response",
             "otfs_scalar_taps"),
    "metrics": ("papr_ccdf", "papr_db"),
    "modulation": ("qpsk_modulate", "qpsk_demodulate", "qpsk_slice", "random_qpsk"),
    "cli": ("run_experiment", "validate_config"),
}

# Functions that return an array or a Frame (or a tuple led by an array):
# their spans also count the complex samples they return.
SAMPLE_FUNCTIONS = frozenset({
    "channel.apply_channel", "channel.apply_scalar_paths", "channel.add_awgn",
    "ddam.ddam_modulate", "ddam.ddam_demodulate",
    "ofdm.ofdm_modulate", "ofdm.ofdm_demodulate", "ofdm.ofdm_equalize_one_tap",
    "otfs.otfs_modulate_zak", "otfs.otfs_modulate_isfft", "otfs.otfs_demodulate_zak",
    "otfs.otfs_demodulate_isfft", "otfs.dd_effective_matrix", "otfs.mmse_equalize_dd",
    "combos.ddam_ofdm_transmit_with_link", "combos.ddam_ofdm_receive",
    "combos.ddam_otfs_transmit", "combos.ddam_otfs_effective_matrix",
    "combos.ddam_otfs_receive",
    "link.ofdm_miso_precoder", "link.ofdm_genie_response",
    "modulation.qpsk_modulate", "modulation.qpsk_demodulate",
    "modulation.qpsk_slice", "modulation.random_qpsk",
})

# Each call of one of these starts a new operation.
OPERATIONS = frozenset({
    "link.run_ofdm_ber", "link.run_ddam_ber", "link.run_otfs_ber",
    "link.run_ddam_ofdm_ber", "link.run_ddam_otfs_ber", "metrics.papr_ccdf",
})

TERMS_PER_PATH = "ddam.build_compensation_plan.terms_per_path"
SIGNIFICANT_FRAC = "otfs.dd_effective_matrix.significant_frac"
OVERHEAD_FRAC = "trace.overhead_frac"


def function_names(layers=LAYERS) -> list:
    """Every traced function as ``<module>.<function>``."""
    return [f"{module}.{fn}" for module, fns in layers.items() for fn in fns]


def metric_units() -> dict:
    """Name -> unit of every per-layer metric the traced run reports."""
    units = {}
    for name in function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in SAMPLE_FUNCTIONS:
            units[f"{name}.samples"] = "count"
    for module in LAYERS:
        units[f"{module}.self_s"] = "s"
    units[TERMS_PER_PATH] = "count"
    units[SIGNIFICANT_FRAC] = "ratio"
    units[OVERHEAD_FRAC] = "ratio"
    return units


def _returned_samples(result) -> int:
    if isinstance(result, tuple):
        result = result[0]
    array = getattr(result, "samples", result)
    return int(getattr(array, "size", 0))


def _terms_per_path(plan) -> float:
    return len(plan.terms) / len({t.path_index for t in plan.terms})


class Tracer:
    """Context manager that traces the listed functions while active."""

    def __init__(self, layers=None):
        self.layers = LAYERS if layers is None else layers
        self._clock = time.perf_counter
        self._excluded = 0.0
        self._stack = []
        self._op = None
        self._next_op = 0
        self._patches = []
        # Finished and open spans: [name, op, start, end, parent index].
        self.spans = []
        self.missing = []
        self.samples = {}
        self.derived = {}  # count name -> (sum, calls)
        self._significant = None

    def now(self) -> float:
        """Tracer clock: wall time minus time spent computing counts."""
        return self._clock() - self._excluded

    # ---------------------------------------------------------- patching

    def __enter__(self):
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "wavelab" or name.startswith("wavelab."))]
        combos = sys.modules.get("wavelab.combos")
        self._significant = getattr(combos, "dominant_entries_per_column", None)
        if self._significant is None:
            self.missing.append("combos.dominant_entries_per_column")
        for module, fns in self.layers.items():
            try:
                home = importlib.import_module(f"wavelab.{module}")
            except ImportError:
                home = None
            for fn in fns:
                original = getattr(home, fn, None)
                name = f"{module}.{fn}"
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, original))
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        tracer = self
        is_op = name in OPERATIONS
        counts_samples = name in SAMPLE_FUNCTIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            outer_op = tracer._op
            if is_op:
                tracer._op = tracer._next_op
                tracer._next_op += 1
            index = len(tracer.spans)
            span = [name, tracer._op, tracer.now(), None, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = tracer.now()
                tracer._stack.pop()
                tracer._op = outer_op
            started = tracer._clock()
            if counts_samples:
                tracer.samples[name] = tracer.samples.get(name, 0) + _returned_samples(result)
            if name == "ddam.build_compensation_plan":
                tracer._add(TERMS_PER_PATH, _terms_per_path(result))
            elif name == "otfs.dd_effective_matrix" and tracer._significant is not None:
                significant = tracer._significant(result, -30.0)
                tracer._add(SIGNIFICANT_FRAC, float(significant.sum()) / result.size)
            tracer._excluded += tracer._clock() - started
            return result

        return traced

    def _add(self, key, value):
        total, calls = self.derived.get(key, (0.0, 0))
        self.derived[key] = (total + value, calls + 1)

    # ----------------------------------------------------------- reports

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        return own

    def root_time(self) -> float:
        """Total duration of the outermost ``run_experiment`` spans."""
        return sum(s[3] - s[2] for s in self.spans
                   if s[0] == "cli.run_experiment" and s[4] is None)

    def metrics(self) -> dict:
        """Per-layer metrics: calls, self time and samples per function, a
        self-time rollup per module and the two computed counts.  Functions
        missing at this commit read as zero calls."""
        names = function_names(self.layers)
        calls = dict.fromkeys(names, 0)
        self_s = dict.fromkeys(names, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += own
        out = {}
        rollup = dict.fromkeys(self.layers, 0.0)
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            if name in SAMPLE_FUNCTIONS:
                out[f"{name}.samples"] = self.samples.get(name, 0)
            rollup[name.split(".")[0]] += self_s[name]
        for module, total in rollup.items():
            out[f"{module}.self_s"] = total
        for key in (TERMS_PER_PATH, SIGNIFICANT_FRAC):
            total, n = self.derived.get(key, (0.0, 0))
            out[key] = total / n if n else 0.0
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, op, start, end, parent."""
        with open(path, "w") as f:
            for index, (name, op, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": index, "name": name, "op": op,
                                    "start": start, "end": end,
                                    "parent": parent}) + "\n")
