"""Call-site wrappers around redclust's public functions.

The benchmark never edits the program. It replaces the name a calling module
looks up (for example ``redclust.reducers.ica.orthogonalize``) with a wrapper
and puts the original back afterwards. ``Capture`` keeps the arguments and
result of the calls the correctness checks need; ``Tracer`` records one span
per call of every layer below and derives self times and counts from them.
"""

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from contextlib import contextmanager

# layer name -> call sites (module, attribute) through which the program reaches it
LAYERS = {
    "linalg.sym_eig": [
        ("redclust.linalg", "sym_eig"),
        ("redclust.reducers.pca", "sym_eig"),
        ("redclust.reducers.ica", "sym_eig"),
    ],
    "linalg.svd": [("redclust.reducers.pca", "svd")],
    "linalg.orthogonalize": [("redclust.reducers.ica", "orthogonalize")],
    "reducers.pca.pca_fit": [("redclust.benchmark", "pca_fit")],
    "reducers.pca.svd_reduce": [("redclust.benchmark", "svd_reduce")],
    "reducers.som.som_fit": [("redclust.benchmark", "som_fit")],
    "reducers.ica.fastica_fit": [("redclust.benchmark", "fastica_fit")],
    "density.dbscan": [("redclust.benchmark", "dbscan")],
    "density.pairwise_distances": [
        ("redclust.density", "pairwise_distances"),
        ("redclust.dataset", "pairwise_distances"),
    ],
    "dataset.data_to_similarity": [("redclust.benchmark", "data_to_similarity")],
    "dataset.feature_rows": [("redclust.dataset", "Dataset.feature_rows")],
    "dataset.filter_examples": [("redclust.benchmark", "filter_examples")],
    "dataset.load_dataset": [("redclust.benchmark", "load_dataset")],
    "dataset.normalize": [("redclust.benchmark", "normalize")],
    "mixture.em_fit": [("redclust.benchmark", "em_fit")],
    "benchmark.emit_report": [("redclust.benchmark", "emit_report")],
    "benchmark.write_comparison_files": [("redclust.benchmark", "write_comparison_files")],
    "benchmark.pca_threshold_sweep": [("redclust.benchmark", "pca_threshold_sweep")],
    "benchmark.run_benchmark": [("redclust.benchmark", "run_benchmark")],
}

# calls whose arguments and results the correctness checks read
CAPTURED = {
    "svd": [("redclust.reducers.pca", "svd")],
    "svd_reduce": [("redclust.benchmark", "svd_reduce")],
    "pca_fit": [("redclust.benchmark", "pca_fit")],
    "fastica_transform": [("redclust.benchmark", "fastica_transform")],
    "som_encode": [("redclust.benchmark", "som_encode")],
    "dbscan": [("redclust.benchmark", "dbscan")],
    "em_fit": [("redclust.benchmark", "em_fit")],
}

# work counters kept by _count_work
WORK_COUNTS = (
    "reducers.som.som_fit.updates",
    "reducers.ica.fastica_fit.iterations",
    "reducers.ica.fastica_fit.at_cap",
    "density.pairwise_distances.pairs",
    "mixture.em_fit.steps",
    "mixture.em_fit.resets",
)

# layers whose tracemalloc peak is reported; none of them runs inside another
PEAK_LAYERS = ("density.dbscan", "dataset.data_to_similarity")

_MB = 1024.0 * 1024.0


def _owner(module_name, attr):
    """The object holding ``attr`` (a module or, for ``Class.method``, a class) and the name."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def patched(sites, make_wrapper):
    """Replace each call site of ``sites`` (key -> [(module, attr)]) by make_wrapper(key, fn)."""
    saved = []
    try:
        for key, places in sites.items():
            for module_name, attr in places:
                owner, name = _owner(module_name, attr)
                original = getattr(owner, name)
                saved.append((owner, name, original))
                setattr(owner, name, make_wrapper(key, original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def bind(fn, args, kwargs):
    """Arguments of one call by parameter name, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


class Capture:
    """Arguments and result of every captured call, in call order, per key."""

    def __init__(self):
        self.calls = {key: [] for key in CAPTURED}

    def wrap(self, key, fn):
        calls = self.calls[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((bind(fn, args, kwargs), result))
            return result

        return wrapper

    def active(self):
        return patched(CAPTURED, self.wrap)


def _add(counts, name, value):
    counts[name] = counts.get(name, 0) + value


def _count_work(layer, fn, args, kwargs, result, counts):
    """Layer-specific work counters, read from the call's arguments and result."""
    if layer == "reducers.som.som_fit":
        a = bind(fn, args, kwargs)
        _add(counts, "reducers.som.som_fit.updates", int(a["epochs"]) * len(a["x"]))
    elif layer == "reducers.ica.fastica_fit":
        _add(counts, "reducers.ica.fastica_fit.iterations", int(result.n_iter))
        _add(counts, "reducers.ica.fastica_fit.at_cap", int(not result.converged))
    elif layer == "density.pairwise_distances":
        _add(counts, "density.pairwise_distances.pairs", int(result.shape[0]) ** 2)
    elif layer == "mixture.em_fit":
        _add(counts, "mixture.em_fit.steps", sum(len(t) - 1 for t in result.traces))
        _add(counts, "mixture.em_fit.resets", len(result.reset_events))


class Tracer:
    """Spans of every layer call under one root span, kept in memory.

    A span's self time is its duration minus the durations of the spans it
    directly contains; the root's self time is the untraced residue.
    """

    ROOT = "pass"

    def __init__(self):
        self.spans = []  # (id, parent id, layer, start_s, end_s, self_s)
        self._stack = []  # open spans: [id, layer, start_s, child_s]
        self.counts = {}
        self.peaks_mb = {}

    def _open(self, layer):
        self._stack.append([len(self.spans) + len(self._stack), layer, time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        span_id, layer, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((span_id, parent, layer, start, end, duration - child))

    def wrap(self, layer, fn):
        tracer = self
        measure_peak = layer in PEAK_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if measure_peak:
                tracemalloc.start()
            tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
                if measure_peak:
                    peak = tracemalloc.get_traced_memory()[1] / _MB
                    tracemalloc.stop()
                    tracer.peaks_mb[layer] = max(tracer.peaks_mb.get(layer, 0.0), peak)
            _count_work(layer, fn, args, kwargs, result, tracer.counts)
            return result

        return wrapper

    def run(self, fn, *args, **kwargs):
        """Call fn under the root span with every layer wrapped; return (result, seconds)."""
        with patched(LAYERS, self.wrap):
            self._open(self.ROOT)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
        root = self.spans[-1]
        return result, root[4] - root[3]

    def metrics(self):
        """Per-layer self and inclusive times, calls, work counts and peaks, by metric name."""
        self_s = {layer: 0.0 for layer in LAYERS}
        total_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        residue = 0.0
        for _, _, layer, start, end, own in self.spans:
            if layer == self.ROOT:
                residue += own
            else:
                self_s[layer] += own
                total_s[layer] += end - start
                calls[layer] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.total_s"] = (total_s[layer], "s")
            out[f"{layer}.calls"] = (calls[layer], "count")
        for name in WORK_COUNTS:
            out[name] = (self.counts.get(name, 0), "count")
        for layer in PEAK_LAYERS:
            out[f"{layer}.peak_mb"] = (self.peaks_mb.get(layer, 0.0), "MB")
        out["trace.residue_s"] = (residue, "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path):
        """Write the spans, one JSON object per line, in the order they closed."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, layer, start, end, own in self.spans:
                record = {"id": span_id, "parent": parent, "name": layer,
                          "start_s": start, "end_s": end, "self_s": own}
                fh.write(json.dumps(record) + "\n")
