"""Outside-in span tracer for the daplab modules.

The tracer wraps the public functions of every `daplab` module at each
binding the program resolves (module attributes, names imported into other
modules, class attributes), plus the backward closure of every op record
as it is created. Each call records a span (name, tag, start, end, parent)
in memory; `layer_metrics` turns the spans into per-layer self times and
computed counts once the traced work has finished. Nothing under `src/` is
edited: `uninstall` puts every original binding back.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from timing import Patches

# op-record kinds -> the layer name used in metrics
_OP_KIND = {
    "conv2d": "conv2d", "relu": "relu", "take_batch": "take_batch",
    "resize_bilinear": "resize", "resize_nearest": "resize",
    "softmax_cross_entropy": "softmax_cross_entropy",
    "sum_squared_error": "sum_squared_error",
    "add": "elementwise", "scale": "elementwise", "mul": "elementwise",
    "total": "elementwise",
}
OP_KINDS = ("conv2d", "relu", "resize", "softmax_cross_entropy",
            "sum_squared_error", "take_batch", "elementwise")
CONV_LAYERS = ("backbone.conv1", "backbone.conv2", "backbone.conv3",
               "head.conv", "gvi.conv", "gpr.conv")

# Every per-layer metric with its unit. "ms/step" is self time per step of
# the workload's inner loop (a train step, or one evaluated image);
# counts are computed from shapes, not measured.
PER_LAYER = (
    [("tensor.conv2d.fwd_ms", "ms/step"), ("tensor.conv2d.bwd_ms", "ms/step")]
    + [(f"model.{layer}.{d}_ms", "ms/step") for layer in CONV_LAYERS for d in ("fwd", "bwd")]
    + [("model.teacher.fwd_ms", "ms/step"),
       ("tensor.conv2d.mflop", "MFLOP/step"), ("tensor.conv2d.im2col_mb", "MB/step")]
    + [(f"tensor.{k}.{d}_ms", "ms/step") for k in OP_KINDS[1:] for d in ("fwd", "bwd")]
    + [(f"tensor.{k}.calls", "count/step") for k in OP_KINDS]
    + [("tensor.backward.self_ms", "ms/step"), ("tensor.sgd_step_ms", "ms/step"),
       ("priors.proj_ms", "ms/step"), ("priors.proj_mb", "MB/step"),
       ("priors.downsample_ms", "ms/step"),
       ("mixing.sample_class_subset_ms", "ms/step"), ("mixing.classmix_ms", "ms/step"),
       ("mixing.augment_mixed_ms", "ms/step"),
       ("model.forward.self_ms", "ms/step"), ("model.ema_update_ms", "ms/step"),
       ("model.checkpoint_ms", "ms/step"), ("model.checkpoint_mb", "MB/run"),
       ("analysis.predict_labels_ms", "ms/step"), ("analysis.evaluate_ms", "ms/step"),
       ("analysis.class_feature_stats_ms", "ms/step"),
       ("analysis.gaussian_iou_ms", "ms/step"),
       ("analysis.relationship_matrix_ms", "ms/step"),
       ("datagen.generate_scene_ms", "ms/setup"), ("datagen.write_ms", "ms/setup"),
       ("datagen.read_ms", "ms/step"), ("datagen.cache_hit_ratio", "ratio"),
       ("trainer.train_step.self_ms", "ms/step"), ("trainer.checkpoint_ms", "ms/step"),
       ("trainer.run.self_ms", "ms/step"), ("trainer.untraced_ms", "ms/step"),
       ("trainer.trace_overhead_pct", "%"), ("cli.eval.self_ms", "ms/step"),
       ("cli.sweep.workers", "count"), ("cli.sweep.blas_threads", "count"),
       ("cli.sweep.cell_train_s", "s"), ("cli.sweep.cpu_s_per_cell", "s"),
       ("process.minor_faults", "count/step"), ("process.sys_ms", "ms/step")]
)
PER_LAYER_UNITS = dict(PER_LAYER)

# span name -> per-layer metric its self time feeds
_SELF_METRIC = {
    "tensor.backward": "tensor.backward.self_ms",
    "tensor.sgd_step": "tensor.sgd_step_ms",
    "priors.proj": "priors.proj_ms",
    "priors.downsample": "priors.downsample_ms",
    # the resize a prior map goes through belongs to the prior's cost
    "priors.resize": "priors.downsample_ms",
    "mixing.sample_class_subset": "mixing.sample_class_subset_ms",
    "mixing.classmix": "mixing.classmix_ms",
    "mixing.augment_mixed": "mixing.augment_mixed_ms",
    "model.forward": "model.forward.self_ms",
    "model.ema_update": "model.ema_update_ms",
    "model.checkpoint": "model.checkpoint_ms",
    "analysis.predict_labels": "analysis.predict_labels_ms",
    "analysis.evaluate": "analysis.evaluate_ms",
    "analysis.class_feature_stats": "analysis.class_feature_stats_ms",
    "analysis.gaussian_iou": "analysis.gaussian_iou_ms",
    "analysis.relationship_matrix": "analysis.relationship_matrix_ms",
    "datagen.read": "datagen.read_ms",
    "datagen.bundle": "datagen.read_ms",
    "trainer.train_step": "trainer.train_step.self_ms",
    "trainer.pseudo_label": "trainer.train_step.self_ms",
    "trainer.checkpoint": "trainer.checkpoint_ms",
    "trainer.run": "trainer.run.self_ms",
    "cli.eval": "cli.eval.self_ms",
}
for _kind in OP_KINDS:
    for _d in ("fwd", "bwd"):
        _SELF_METRIC[f"tensor.{_kind}.{_d}"] = f"tensor.{_kind}.{_d}_ms"
_SETUP_METRIC = {"datagen.generate_scene": "datagen.generate_scene_ms",
                 "datagen.write": "datagen.write_ms"}


def _conv_cost(x_shape, k_shape, ho: int, wo: int) -> tuple:
    """(multiply-adds, im2col bytes) of one conv2d pass; a pointwise conv
    builds no column matrix."""
    n, cin, h, w = x_shape
    cout, _, kh, kw = k_shape
    macs = n * ho * wo * cout * cin * kh * kw
    pointwise = kh == 1 and kw == 1 and (ho, wo) == (h, w)
    return macs, 0 if pointwise else n * ho * wo * cin * kh * kw * 8


def _checkpoint_bytes(arrays) -> int:
    """Size of the file model.save_checkpoint writes for `arrays`."""
    total = 8
    for name, arr in arrays.items():
        total += 4 + len(name.encode("utf-8")) + 4 + 4 * arr.ndim + 8 * arr.size
    return total


class Tracer(Patches):
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        super().__init__()
        self.spans = []            # [name, tag, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._layer_of = {}        # id(param) -> (layer name, param)

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, tag=None, tag_of=None, before=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span_tag = tag_of(*args, **kwargs) if tag_of is not None else tag
            index = len(spans)
            spans.append([name, span_tag, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record = spans[index]
                record[2] = start
                record[3] = end

        return traced

    def _patch_everywhere(self, original, make_wrapper) -> None:
        """Replace `original` at every daplab module attribute bound to it;
        `make_wrapper(module_name)` builds the wrapper for that binding."""
        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "daplab" or mod_name.startswith("daplab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch_attr(module, attr, make_wrapper(mod_name))
                    patched += 1
        if not patched:
            raise RuntimeError(f"no binding found for {original!r}")

    # -- installation ----------------------------------------------------------

    def install(self):
        from daplab import analysis, cli, datagen, mixing, model, priors, tensor, trainer

        def span(fn, name, **kw):
            self._patch_everywhere(fn, lambda _mod: self._wrap(fn, name, **kw))

        # tensor ops: forward spans; backward via the op-record factory
        span(tensor.conv2d, "tensor.conv2d.fwd", tag_of=self._conv_tag,
             before=self._count_conv)
        for fn_name, kind in (("relu", "relu"), ("take_batch", "take_batch"),
                              ("softmax_cross_entropy", "softmax_cross_entropy"),
                              ("sum_squared_error", "sum_squared_error"),
                              ("add", "elementwise"), ("scale", "elementwise"),
                              ("mul", "elementwise"), ("total", "elementwise")):
            span(getattr(tensor, fn_name), f"tensor.{kind}.fwd",
                 before=self._counter(f"tensor.{kind}.calls"))
        for fn in (tensor.bilinear_resize, tensor.nearest_resize):
            count = self._counter("tensor.resize.calls")
            self._patch_everywhere(fn, lambda mod, fn=fn, count=count: self._wrap(
                fn, "priors.resize" if mod == "daplab.priors" else "tensor.resize.fwd",
                before=None if mod == "daplab.priors" else count))
        self._patch_attr(tensor, "OpRecord", self._record_factory(tensor.OpRecord))
        span(tensor.backward, "tensor.backward")
        self._patch_attr(tensor.SGD, "step", self._wrap(tensor.SGD.step, "tensor.sgd_step"))

        span(priors.proj, "priors.proj", before=self._count_proj)
        span(priors.downsample_embedding, "priors.downsample")
        for fn_name in ("sample_class_subset", "classmix", "augment_mixed"):
            span(getattr(mixing, fn_name), f"mixing.{fn_name}")

        span(model.forward, "model.forward", tag_of=lambda state, *a, **k: state.role,
             before=self._register_layers)
        span(model.ema_update, "model.ema_update")
        span(model.save_checkpoint, "model.checkpoint", before=self._count_checkpoint)
        span(model.load_checkpoint, "model.checkpoint")

        for fn_name in ("predict_labels", "evaluate", "class_feature_stats",
                        "gaussian_iou", "relationship_matrix"):
            span(getattr(analysis, fn_name), f"analysis.{fn_name}")

        span(datagen.make_benchmark, "datagen.make_benchmark")
        span(datagen.generate_scene, "datagen.generate_scene")
        for fn in (datagen.write_ppm, datagen.write_pgm):
            span(fn, "datagen.write")
        for fn in (datagen.read_ppm, datagen.read_pgm):
            span(fn, "datagen.read")
        bundle = datagen.DatasetBundle
        self._patch_attr(bundle, "__init__", self._wrap(bundle.__init__, "datagen.open"))
        for method in ("source", "target_image", "test", "target_hidden_labels"):
            self._patch_attr(bundle, method,
                             self._wrap(getattr(bundle, method), "datagen.bundle"))
        self._patch_attr(bundle, "_cached", self._cache_probe(bundle._cached))

        span(cli.cmd_eval, "cli.eval")
        span(trainer.run, "trainer.run")
        span(trainer.pseudo_label, "trainer.pseudo_label")
        self._patch_attr(trainer.Trainer, "train_step",
                         self._wrap(trainer.Trainer.train_step, "trainer.train_step"))
        self._patch_attr(trainer.Trainer, "save_train_state",
                         self._wrap(trainer.Trainer.save_train_state, "trainer.checkpoint"))
        return self

    # -- hooks -------------------------------------------------------------------

    def _counter(self, key):
        counts = self.counts

        def bump(*args, **kwargs):
            counts[key] += 1

        return bump

    def _register_layers(self, state, *args, **kwargs):
        self._layer_of = {id(p): (name, p) for name, p in state.params.items()}

    def _layer(self, kernel):
        entry = self._layer_of.get(id(kernel))
        return entry[0] if entry is not None and entry[1] is kernel else None

    def _conv_tag(self, x, kernel, *args, **kwargs):
        return self._layer(kernel)

    def _count_conv(self, x, kernel, stride=1, padding=0):
        (_, _, h, w), (_, _, kh, kw) = x.shape, kernel.shape
        macs, col_bytes = _conv_cost(x.shape, kernel.shape,
                                     (h + 2 * padding - kh) // stride + 1,
                                     (w + 2 * padding - kw) // stride + 1)
        self.counts["tensor.conv2d.calls"] += 1
        self.counts["tensor.conv2d.flop"] += 2 * macs
        self.counts["tensor.conv2d.im2col_bytes"] += col_bytes

    def _count_proj(self, labels, embeddings):
        # the class-vector gather and its transposed contiguous copy
        self.counts["priors.proj_bytes"] += 2 * labels.size * embeddings.dim * 8

    def _count_checkpoint(self, path, arrays):
        self.counts["model.checkpoint_bytes"] += _checkpoint_bytes(arrays)

    def _cache_probe(self, cached):
        counts = self.counts

        @functools.wraps(cached)
        def probe(bundle, key, loader):
            counts["datagen.cache_lookups"] += 1
            if key in bundle._cache:
                counts["datagen.cache_hits"] += 1
            return cached(bundle, key, loader)

        return probe

    def _record_factory(self, op_record):
        counts = self.counts

        def make_record(kind, inputs, output, backward_fn):
            layer = _OP_KIND.get(kind, "elementwise")
            tag = None
            extra = {}
            if layer == "conv2d":
                x, kernel = inputs[0], inputs[1]
                tag = self._layer(kernel)
                macs, col_bytes = _conv_cost(x.shape, kernel.shape, *output.shape[2:])
                extra = {"tensor.conv2d.flop": 2 * macs * (
                             int(kernel.requires_grad) + int(x.requires_grad)),
                         "tensor.conv2d.im2col_bytes": col_bytes * int(x.requires_grad)}
            traced = self._wrap(backward_fn, f"tensor.{layer}.bwd", tag=tag)
            if extra:
                inner = traced

                def traced(grad):
                    counts.update(extra)
                    return inner(grad)

            return op_record(kind, inputs, output, traced)

        return make_record

    # -- analysis ------------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus what its children cover."""
        child = [0.0] * len(self.spans)
        for name, tag, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[1], s[3] - s[2] - c, s[3] - s[2], s[4])
                for s, c in zip(self.spans, child)]

    def fired(self) -> set:
        names = {s[0] for s in self.spans}
        names |= {f"model.{s[1]}.{s[0].rsplit('.', 1)[1]}" for s in self.spans
                  if s[0].startswith("tensor.conv2d.") and s[1]}
        return names

    def layer_metrics(self, counts: Counter, steps: int, setups: int, units: int) -> dict:
        """Per-layer metrics over every span recorded so far. `counts` are
        the counts of the traced units, which ran `steps` inner-loop steps
        in all."""
        if steps < 1 or setups < 1 or units < 1:
            raise ValueError("layer_metrics needs at least one step, setup and unit")
        totals = defaultdict(float)
        for name, tag, self_s, dur, parent in self.self_times():
            metric = _SELF_METRIC.get(name)
            if metric is not None:
                totals[metric] += self_s
            if name in _SETUP_METRIC:
                totals[_SETUP_METRIC[name]] += self_s
            if name.startswith("tensor.conv2d.") and tag:
                totals[f"model.{tag}.{name.rsplit('.', 1)[1]}_ms"] += self_s
            if name == "model.forward" and tag == "teacher":
                totals["model.teacher.fwd_ms"] += dur
            if name == "trainer.train_step":
                totals["trainer.untraced_ms"] += self_s
        out = {name: 0.0 for name, _ in PER_LAYER}
        for metric, seconds in totals.items():
            per = setups if PER_LAYER_UNITS[metric] == "ms/setup" else steps
            out[metric] = 1e3 * seconds / per
        c = counts
        for kind in OP_KINDS:
            out[f"tensor.{kind}.calls"] = c[f"tensor.{kind}.calls"] / steps
        out["tensor.conv2d.mflop"] = c["tensor.conv2d.flop"] / 1e6 / steps
        out["tensor.conv2d.im2col_mb"] = c["tensor.conv2d.im2col_bytes"] / 1e6 / steps
        out["priors.proj_mb"] = c["priors.proj_bytes"] / 1e6 / steps
        out["model.checkpoint_mb"] = c["model.checkpoint_bytes"] / 1e6 / units
        lookups = c["datagen.cache_lookups"]
        out["datagen.cache_hit_ratio"] = c["datagen.cache_hits"] / lookups if lookups else 0.0
        return out
