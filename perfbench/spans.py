"""Traced mode: spans around each layer's public functions, plus counters.

The wrappers live in the benchmark, not in the program: :class:`Tracer`
replaces each named public function or method, wherever a ``repro``
module looks it up, by a wrapper that records a span (name, parent,
self time, calls), and restores the originals afterwards.  The
program's own ``repro.perf`` op timers are switched on for the same
window and reported as the ``nn`` layer.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (span name, module, attribute path) of every wrapped public entry point.
SPANS = [
    ("placement.place", "repro.placement.placer", "place"),
    ("placement.qsolve", "repro.placement.quadratic", "QuadraticPlacer.solve"),
    ("placement.spread", "repro.placement.spreading", "spread"),
    ("placement.bin_density", "repro.placement.spreading",
     "compute_bin_density"),
    ("placement.legalize", "repro.placement.legalize", "legalize"),
    ("routing.route", "repro.routing.router", "GlobalRouter.run"),
    ("routing.decompose", "repro.routing.router", "GlobalRouter.decompose"),
    ("routing.pattern", "repro.routing.pattern", "best_pattern_path"),
    ("routing.rrr", "repro.routing.router",
     "GlobalRouter.rip_up_and_reroute"),
    ("routing.astar", "repro.routing.maze", "astar_route"),
    ("routing.edge_costs", "repro.routing.grid", "RoutingGrid.edge_costs"),
    ("features.gnet", "repro.features.gnet", "compute_gnets"),
    ("features.gcell", "repro.features.gcell", "gcell_feature_stack"),
    ("graph.build", "repro.graph.lhgraph", "build_lhgraph"),
    ("pipeline.fingerprint", "repro.pipeline.runner", "stage_keys_for"),
    ("pipeline.cache_load", "repro.pipeline.cache", "StageCache.load"),
    ("store.put", "repro.store.blobs", "BlobStore.put"),
    ("store.get", "repro.store.blobs", "BlobStore.get"),
    ("data.sample_of", "repro.data.dataset", "sample_of"),
    ("data.collate", "repro.data.dataset", "collate_samples"),
    ("models.lhnn_forward", "repro.models.lhnn", "LHNN.forward"),
    ("models.unet_forward", "repro.models.unet", "UNet.forward"),
    ("api.run_experiment", "repro.api.experiment", "run_experiment"),
    ("serve.submit", "repro.serve.engine", "InferenceEngine.submit"),
    ("serve.flush", "repro.serve.engine", "InferenceEngine.flush"),
    ("serve.restore_model", "repro.serve.registry", "restore_model"),
]

# Registry runtimes are looked up by ``run_experiment`` through the model
# registry, so they are wrapped there: family -> span of its trainer (both
# evaluators record ``train.evaluate``).
RUNTIME_FAMILIES = {"lhnn": "train.fit.lhnn", "unet": "train.fit.unet"}

# repro.perf op name -> per-layer metric stem.
PERF_OPS = {
    "spmm.forward": "nn.spmm_forward_s",
    "spmm.backward": "nn.spmm_backward_s",
    "autograd.backward": "nn.autograd_backward_s",
    "optimizer.step": "nn.optimizer_step_s",
    "conv2d.forward": "nn.conv2d_forward_s",
    "conv2d.backward": "nn.conv2d_backward_s",
}

# Per-layer metrics: span self time (``_s``) and call counts (``_calls``).
SPAN_SECONDS = {
    "placement.place_s": "placement.place",
    "placement.qsolve_s": "placement.qsolve",
    "placement.spread_s": "placement.spread",
    "placement.bin_density_s": "placement.bin_density",
    "placement.legalize_s": "placement.legalize",
    "routing.route_s": "routing.route",
    "routing.decompose_s": "routing.decompose",
    "routing.pattern_s": "routing.pattern",
    "routing.rrr_s": "routing.rrr",
    "routing.astar_s": "routing.astar",
    "routing.edge_costs_s": "routing.edge_costs",
    "features.gnet_s": "features.gnet",
    "features.gcell_s": "features.gcell",
    "graph.build_s": "graph.build",
    "pipeline.fingerprint_s": "pipeline.fingerprint",
    "store.put_s": "store.put",
    "store.get_s": "store.get",
    "data.sample_of_s": "data.sample_of",
    "data.collate_s": "data.collate",
    "models.lhnn_forward_s": "models.lhnn_forward",
    "models.unet_forward_s": "models.unet_forward",
    "train.fit_s.lhnn": "train.fit.lhnn",
    "train.fit_s.unet": "train.fit.unet",
    "train.evaluate_s": "train.evaluate",
    "api.run_experiment_s": "api.run_experiment",
    "serve.submit_s": "serve.submit",
    "serve.flush_s": "serve.flush",
    "serve.restore_model_s": "serve.restore_model",
}
SPAN_CALLS = {
    "placement.qsolve_calls": "placement.qsolve",
    "placement.bin_density_calls": "placement.bin_density",
    "routing.pattern_calls": "routing.pattern",
    "routing.astar_calls": "routing.astar",
    "routing.edge_costs_calls": "routing.edge_costs",
    "store.put_count": "store.put",
    "store.get_count": "store.get",
    "data.collate_calls": "data.collate",
}
COUNTERS = ["routing.rerouted_segments", "pipeline.cache_hits",
            "pipeline.cache_misses", "store.put_bytes"]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span recorder over wrapped layer entry points.

    ``spans[(name, parent)] = [self_s, total_s, calls]``; ``counters``
    holds the counts read off call arguments and results.
    """

    def __init__(self):
        self.spans: dict[tuple, list] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self.top_level_s = 0.0

    # -- recording ------------------------------------------------------
    def _wrap(self, name: str, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                else:
                    tracer.top_level_s += elapsed
                rec = tracer.spans.setdefault((name, parent), [0.0, 0.0, 0])
                rec[0] += elapsed - frame[1]
                rec[1] += elapsed
                rec[2] += 1
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str, amount) -> None:
        self.counters[key] += int(amount)

    def _counter_for(self, name: str):
        if name == "routing.route":
            return lambda args, res: self._count(
                "routing.rerouted_segments", res.rerouted_segments)
        if name == "pipeline.cache_load":
            return lambda args, res: self._count(
                "pipeline.cache_misses" if res is None
                else "pipeline.cache_hits", 1)
        if name == "store.put":
            return lambda args, res: self._count(
                "store.put_bytes", len(args[2]) if len(args) > 2 else 0)
        return None

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Replace every wrapped entry point and switch on repro.perf."""
        from repro import perf
        from repro.serve import registry
        for name, module, path in SPANS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, self._counter_for(name))
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)
        for family, fit_span in RUNTIME_FAMILIES.items():
            runtime = registry.get_runtime(family)
            registry.attach_runtime(
                family, trainer=self._wrap(fit_span, runtime.trainer),
                evaluator=self._wrap("train.evaluate", runtime.evaluator),
                default_config=runtime.default_config)
            self._patches.append(("runtime", family, runtime))
        perf.enable(reset=False)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original and switch repro.perf off."""
        from repro import perf
        from repro.serve import registry
        for owner, attr, original in reversed(self._patches):
            if owner == "runtime":
                registry.attach_runtime(
                    attr, trainer=original.trainer,
                    evaluator=original.evaluator,
                    default_config=original.default_config)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        perf.disable()

    # -- reporting ------------------------------------------------------
    def self_seconds(self, name: str) -> float:
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def total_seconds(self, name: str) -> float:
        return sum(rec[1] for (n, parent), rec in self.spans.items()
                   if n == name and parent != name)

    def calls(self, name: str) -> int:
        return sum(rec[2] for (n, _), rec in self.spans.items() if n == name)

    def records(self) -> list[dict]:
        """One span record per (layer, parent) pair, largest first."""
        rows = [{"name": n, "parent": p, "self_s": rec[0],
                 "total_s": rec[1], "calls": rec[2]}
                for (n, p), rec in self.spans.items()]
        return sorted(rows, key=lambda r: -r["self_s"])

    def layer_metrics(self) -> dict:
        """Every span-, counter- and repro.perf-derived per-layer metric."""
        from repro import perf
        out = {key: self.self_seconds(name)
               for key, name in SPAN_SECONDS.items()}
        out.update({key: self.calls(name) for key, name in SPAN_CALLS.items()})
        out.update(self.counters)
        inner = (self.total_seconds("train.fit.lhnn")
                 + self.total_seconds("train.fit.unet")
                 + self.total_seconds("train.evaluate"))
        out["api.overhead_s"] = max(
            self.total_seconds("api.run_experiment") - inner, 0.0)
        ops = perf.perf_report()["ops"]
        for op, key in PERF_OPS.items():
            out[key] = ops.get(op, {}).get("total_s", 0.0)
        out["nn.bytes_allocated"] = sum(
            stat["bytes_allocated"] for stat in ops.values())
        return out
