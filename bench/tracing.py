"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public qkslab functions at the module attribute where
their caller looks them up (``qkslab.kernels.simulate`` is the name the
kernels module calls), so no program file changes.  Each call becomes a
span ``[name, start, end, parent, operation id, attrs]``; spans stay in
memory until the run ends.  A wrapped name that no longer exists is listed
in ``missing`` and reports zero calls; a hook that no longer fits its
function's arguments or result is listed in ``hook_errors``.

A span's self time is its duration minus the durations of its direct
child spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self.paused = False
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()
        self._restore: list = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, {}])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def install(self, target: str, name: str | None, after=None) -> None:
        """Wrap ``module.attr`` with a span ``name`` (none if None), then call
        ``after(tracer, attrs, args, result)`` on success."""
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            attrs = None
            if name is None:
                result = original(*args, **kwargs)
            else:
                index = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(index)
                attrs = self.spans[index][5]
            if after is not None:
                try:
                    after(self, attrs, args, result)
                except Exception as exc:  # a changed signature must not fail the program's call
                    self.hook_errors.add(f"{target}: {exc!r}")
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def install_all(self) -> None:
        for target, name, after in WRAPS:
            self.install(target, name, after)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, **attrs}) + "\n")


# --- what each wrapper records -------------------------------------------------

def _built(tracer, attrs, args, circuit):
    tracer.counts["feature_maps.gates_built"] += len(circuit.gates)


def _simulated(tracer, attrs, args, state):
    gates = len(args[0].gates)
    tracer.counts["simulator.gates_applied"] += gates
    tracer.counts["simulator.bytes_computed"] += gates * state.amplitudes.size * 16


def _drawn(tracer, attrs, args, draws):
    tracer.counts["seeding.uniform_draws"] += len(draws)


def _seeded(tracer, attrs, args, seed):
    tracer.counts["seeding.entry_seeds"] += 1


def _gram_pair(tracer, attrs, args, grams):
    train_gram, cross_gram = grams
    tracer.counts["kernels.entries"] += train_gram.values.size + cross_gram.values.size
    config = train_gram.config
    attrs.update(kernel=config.name, mode=config.mode, features=args[0].shape[1],
                 train_rows=len(train_gram.row_ids), test_rows=len(cross_gram.row_ids))


def _clipped(tracer, attrs, args, gram):
    tracer.counts["kernels.psd_clip_changed"] += gram is not args[0]


def _trained(tracer, attrs, args, model):
    tracer.counts["svm.smo_iters"] += model.n_iter
    tracer.counts["svm.support_vectors"] += len(model.support_indices)
    tracer.counts["svm.train_rows"] += len(model.alphas)
    config = args[0].config
    attrs.update(kernel=config.name, rows=len(model.alphas),
                 features=config.feature_map.num_features if config.feature_map else None)


def _written(tracer, attrs, args, result):
    tracer.counts["experiment.output_bytes"] += os.path.getsize(args[1])


# (module attribute the caller looks up, span name or None for a counter, hook)
WRAPS = (
    ("qkslab.kernels.build_feature_map", "feature_maps.build", _built),
    ("qkslab.kernels.simulate", "simulator.simulate", _simulated),
    ("qkslab.kernels.compose", "circuits.compose", None),
    ("qkslab.kernels.adjoint", "circuits.compose", None),
    ("qkslab.kernels.sample_zero_count", "simulator.sample", None),
    ("qkslab.simulator.uniforms", None, _drawn),
    ("qkslab.kernels.mix64", None, _seeded),
    ("qkslab.experiment.gram_pair", "kernels.gram_pair", _gram_pair),
    ("qkslab.kernels.psd_clip", "kernels.psd_clip", _clipped),
    ("qkslab.experiment.train", "svm.train", _trained),
    ("qkslab.experiment.predict", "svm.predict", None),
    ("qkslab.experiment.sample_subset", "data.subset", None),
    ("qkslab.experiment.scale_split", "data.scale", None),
    ("qkslab.cli.read_dataset", "data.read", None),
    ("qkslab.experiment.confusion", "metrics.score", None),
    ("qkslab.experiment.balanced_accuracy", "metrics.score", None),
    ("qkslab.experiment.f1", "metrics.score", None),
    ("qkslab.cli.sweep_to_doc", "experiment.serialize", None),
    ("qkslab.cli.variability_to_doc", "experiment.serialize", None),
    ("qkslab.cli.write_json", "experiment.serialize", _written),
    ("qkslab.cli.write_table", "experiment.serialize", _written),
)
# Spans the benchmark opens itself: "cli.main" around each call,
# "experiment.op" around each operation, "bench.check" around its checks.

# name -> (unit, better); all counts and times are per round of the workload.
PER_LAYER = {
    "feature_maps.build_calls": ("count", "lower"),
    "feature_maps.build_s": ("s", "lower"),
    "feature_maps.gates_built": ("count", "lower"),
    "simulator.simulate_calls": ("count", "lower"),
    "simulator.simulate_s": ("s", "lower"),
    "simulator.gates_applied": ("count", "lower"),
    "simulator.bytes_computed": ("bytes", "lower"),
    "circuits.compose_calls": ("count", "lower"),
    "circuits.compose_s": ("s", "lower"),
    "simulator.sample_calls": ("count", "lower"),
    "simulator.sample_s": ("s", "lower"),
    "seeding.uniform_draws": ("count", "lower"),
    "seeding.entry_seeds": ("count", "lower"),
    "kernels.gram_pair_calls": ("count", "lower"),
    "kernels.gram_pair_s": ("s", "lower"),
    "kernels.self_s": ("s", "lower"),
    "kernels.entries": ("count", "lower"),
    "kernels.entries_per_s": ("1/s", "higher"),
    "kernels.psd_clip_calls": ("count", "lower"),
    "kernels.psd_clip_s": ("s", "lower"),
    "kernels.psd_clip_changed_ratio": ("ratio", "lower"),
    "svm.train_calls": ("count", "lower"),
    "svm.train_s": ("s", "lower"),
    "svm.smo_iters": ("count", "lower"),
    "svm.nonconverged": ("count", "lower"),
    "svm.support_ratio": ("ratio", "lower"),
    "svm.predict_s": ("s", "lower"),
    "svm.indefinite_warnings": ("count", "lower"),
    "data.subset_calls": ("count", "lower"),
    "data.subset_s": ("s", "lower"),
    "data.read_s": ("s", "lower"),
    "data.gen_s": ("s", "lower"),
    "metrics.score_s": ("s", "lower"),
    "metrics.f1_undefined": ("count", "lower"),
    "experiment.ops": ("count", "higher"),
    "experiment.self_s": ("s", "lower"),
    "experiment.serialize_s": ("s", "lower"),
    "experiment.output_bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
}

STATE_PREP = ("feature_maps.build", "simulator.simulate")


def span_totals(spans) -> tuple[Counter, Counter, Counter]:
    """Calls, total seconds and self seconds per span name."""
    calls, total, self_s = Counter(), Counter(), Counter()
    for name, start, end, parent, _op, _attrs in spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start
        if parent is not None:
            self_s[spans[parent][0]] -= end - start
    return calls, total, self_s


def layer_metrics(tracer: Tracer, rounds: int, warning_counts: Counter, gen_s: float) -> dict:
    """Per-layer metrics per round, from the spans and counters of ``rounds`` rounds."""
    calls, total, self_s = span_totals(tracer.spans)
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    per_run = {
        "feature_maps.build_calls": calls["feature_maps.build"],
        "feature_maps.build_s": total["feature_maps.build"],
        "feature_maps.gates_built": c["feature_maps.gates_built"],
        "simulator.simulate_calls": calls["simulator.simulate"],
        "simulator.simulate_s": total["simulator.simulate"],
        "simulator.gates_applied": c["simulator.gates_applied"],
        "simulator.bytes_computed": c["simulator.bytes_computed"],
        "circuits.compose_calls": calls["circuits.compose"],
        "circuits.compose_s": total["circuits.compose"],
        "simulator.sample_calls": calls["simulator.sample"],
        "simulator.sample_s": total["simulator.sample"],
        "seeding.uniform_draws": c["seeding.uniform_draws"],
        "seeding.entry_seeds": c["seeding.entry_seeds"],
        "kernels.gram_pair_calls": calls["kernels.gram_pair"],
        "kernels.gram_pair_s": total["kernels.gram_pair"],
        "kernels.self_s": self_s["kernels.gram_pair"],
        "kernels.entries": c["kernels.entries"],
        "kernels.psd_clip_calls": calls["kernels.psd_clip"],
        "kernels.psd_clip_s": total["kernels.psd_clip"],
        "svm.train_calls": calls["svm.train"],
        "svm.train_s": total["svm.train"],
        "svm.smo_iters": c["svm.smo_iters"],
        "svm.nonconverged": warning_counts["svm.nonconverged"],
        "svm.predict_s": total["svm.predict"],
        "svm.indefinite_warnings": warning_counts["svm.indefinite_warnings"],
        "data.subset_calls": calls["data.subset"],
        "data.subset_s": total["data.subset"] + total["data.scale"],
        "data.read_s": total["data.read"],
        "metrics.score_s": total["metrics.score"],
        "metrics.f1_undefined": warning_counts["metrics.f1_undefined"],
        "experiment.ops": calls["experiment.op"],
        "experiment.self_s": self_s["experiment.op"],
        "experiment.serialize_s": total["experiment.serialize"],
        "experiment.output_bytes": c["experiment.output_bytes"],
        "cli.self_s": self_s["cli.main"],
    }
    out = {name: _per_round(value, rounds) for name, value in per_run.items()}
    out["kernels.entries_per_s"] = ratio(c["kernels.entries"], total["kernels.gram_pair"])
    out["kernels.psd_clip_changed_ratio"] = ratio(c["kernels.psd_clip_changed"],
                                                  calls["kernels.psd_clip"])
    out["svm.support_ratio"] = ratio(c["svm.support_vectors"], c["svm.train_rows"])
    out["data.gen_s"] = gen_s
    return {name: out[name] for name in PER_LAYER}


def _per_round(value, rounds: int):
    v = value / rounds
    return int(v) if isinstance(value, int) and v.is_integer() else v


def self_shares(tracer: Tracer) -> dict[str, float]:
    """Share of the program's traced time spent in each span name's own code.

    Feature-map build and per-gate simulation are pooled as "state_prep";
    the benchmark's own checks are left out of both parts of the share.
    """
    _calls, total, self_s = span_totals(tracer.spans)
    program = total["cli.main"] - total["bench.check"]
    groups = Counter()
    for name, seconds in self_s.items():
        if name != "bench.check":
            groups["state_prep" if name in STATE_PREP else name] += seconds
    return {name: seconds / program for name, seconds in groups.most_common()} if program else {}


def roadmap_comparisons(tracer: Tracer) -> list[tuple[str, float, int, str]]:
    """Mean span time for the three single-layer baselines quoted in ROADMAP.md.

    Returns (what, mean seconds, samples, quoted baseline) for those present.
    """
    groups = {
        "yyy F=7 N=400 exact gram_pair (280 train + 120 test rows)":
            ("kernels.gram_pair", dict(kernel="yyy", mode="exact", features=7, train_rows=280),
             "1.03 s"),
        "SMO train, yyy F=7, 280 train rows":
            ("svm.train", dict(kernel="yyy", features=7, rows=280), "0.019 s"),
        "yyy F=5 N=60 shots gram_pair (42 train + 18 test rows)":
            ("kernels.gram_pair", dict(kernel="yyy", mode="shots", features=5, train_rows=42),
             "5.2 s for a 60x60 Gram"),
    }
    out = []
    for what, (name, want, quoted) in groups.items():
        times = [end - start for n, start, end, _p, _o, attrs in tracer.spans
                 if n == name and all(attrs.get(k) == v for k, v in want.items())]
        if times:
            out.append((what, sum(times) / len(times), len(times), quoted))
    return out
