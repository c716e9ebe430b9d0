"""The three workloads: cold prepare, cold serve, train plus warm serve.

Each workload has a ``setup`` (input generation and everything a user
pays once), and ``run_round(i)``, one round of identical operations.
A round returns the number of operations it attempted and the checks
to run on its outputs; the runner times rounds and runs the checks
outside the timed and traced window.  A check yields ``(op, message)``
pairs: ``op`` names the failed operation of the round, or is ``None``
for a property of the whole run.  Only the program's public entry
points are called: ``pipeline.prepare_workload``,
``serve.InferenceEngine``, ``api.run_experiment`` and
``serve.registry.save_model`` / ``restore_model``.

The designs are the program's own suites (``inputs.py``); the workload
seed sets the order of the operations and the serving model's weights.
"""

from __future__ import annotations

import os
import shutil
import statistics
from time import perf_counter

import numpy as np

import checks
import inputs
from repro import api, pipeline, serve
from repro.data.dataset import CongestionDataset
from repro.pipeline.cache import StageCache
from repro.serve import registry

#: Percentile behind the warm tail latency: one train_serve round serves
#: 384 warm requests, so p95 has at least 19 samples beyond it.
WARM_TAIL_PCT = 95
EPOCHS = 20
FIT_SEEDS = (0, 1, 2)


def _median(values) -> float:
    return float(statistics.median(values))


class _Workload:
    """Shared plumbing: a fresh stage-cache root per preparation."""

    min_rounds = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self._roots = 0

    def fresh_cache_root(self) -> str:
        """A new, empty ``REPRO_CACHE_DIR`` (how a first-time user runs)."""
        self._roots += 1
        root = os.path.join(self.workdir, f"cache{self._roots}")
        os.environ["REPRO_CACHE_DIR"] = root
        return root

    def in_seed_order(self, designs: list) -> list:
        return [designs[k] for k in self.rng.permutation(len(designs))]

    @staticmethod
    def check_prepared(root: str, design, config, congestion):
        """Placement, routing and label checks of one prepared design,
        read back from its stage cache; returns (errors, [hpwl, routed
        wirelength, overflow, spilled cells])."""
        cache = StageCache(root)
        keys = pipeline.stage_keys_for(design, config)
        placement = cache.load(keys["place"])
        routing = cache.load(keys["route"])
        if placement is None or routing is None:
            return [f"{design.name}: stage products missing"], np.zeros(4)
        errors, spilled = checks.check_placement(design, placement)
        errors += (checks.check_routing(design, placement, routing)
                   + checks.check_labels(design.name, congestion, routing))
        return errors, np.array([placement.hpwl_final,
                                 checks.routed_wirelength(routing),
                                 routing.total_overflow, spilled])

    def check_repeatable(self, quality: dict) -> list:
        """Per-design quality of this round against the first round's:
        the same cold preparation must give the same products."""
        if self.quality is None:
            self.quality = quality
            return []
        return [(name, f"{name}: a repeated cold preparation gave "
                 "different results") for name, q in quality.items()
                if not np.array_equal(q, self.quality[name])]

    def quality_metrics(self) -> dict:
        hpwl, wirelength, overflow, spilled = sum(self.quality.values())
        return {"hpwl": hpwl, "route_wirelength": wirelength,
                "layer": {"routing.total_overflow": overflow,
                          "placement.spilled_cells": spilled}}


class PrepareSuperblue(_Workload):
    """Cold, sequential preparation of the 15-design superblue suite."""

    name = "prepare_superblue"
    scale = 0.5
    min_rounds = 2  # a round is ~17 s: report the median of two

    def setup(self) -> list[float]:
        self.config = pipeline.PipelineConfig(scale=self.scale)
        specs = inputs.superblue_specs(self.scale)
        order = self.rng.permutation(len(specs))
        times = []
        for _ in range(5):
            t0 = perf_counter()
            designs = inputs.generate(specs)
            self.designs = [designs[k] for k in order]
            times.append(perf_counter() - t0)
        self.quality = None
        return times

    def run_round(self, i):
        root = self.fresh_cache_root()
        graphs = pipeline.prepare_workload("superblue", self.config,
                                           designs=self.designs)
        return len(self.designs), [lambda: self._check(root, graphs)]

    def _check(self, root, graphs):
        failures, quality = [], {}
        for design, graph in zip(self.designs, graphs):
            errors, quality[design.name] = self.check_prepared(
                root, design, self.config, graph.congestion)
            failures += [(design.name, e) for e in errors]
        shutil.rmtree(root, ignore_errors=True)
        return failures + self.check_repeatable(quality)

    def metrics(self, rounds) -> dict:
        return self.quality_metrics()


class ServeCold(_Workload):
    """Closed loop, one client: every request answered cold.

    Each round serves the first ``requests`` designs of the hotspot
    suite, in seed order, through a new engine over a new, empty cache:
    nothing of an earlier round is reused, so every request pays place,
    route, graph and forward.
    """

    name = "serve_cold"
    scale = 1.0
    requests = 2

    def setup(self) -> list[float]:
        self.config = pipeline.PipelineConfig(scale=self.scale)
        self.specs = inputs.hotspot_specs(self.scale)[:self.requests]
        self.order = self.rng.permutation(self.requests)
        times = []
        for k in range(3):
            t0 = perf_counter()
            model = registry.build_model(
                {"family": "lhnn", "config": {"channels": 1}},
                seed=self.seed)
            path = os.path.join(self.workdir, f"model{k}.npz")
            registry.save_model(model, path)
            self.model, _ = registry.restore_model(path)
            self.next_designs = self.fresh_designs()
            times.append(perf_counter() - t0)
        self.latencies, self.quality = [], None
        return times

    def fresh_designs(self) -> list:
        designs = inputs.generate(self.specs)
        return [designs[k] for k in self.order]

    def run_round(self, i):
        designs = self.next_designs
        root = self.fresh_cache_root()
        engine = serve.InferenceEngine(
            self.model, serve.ServeConfig(pipeline=self.config,
                                          cache_dir=root))
        results = []
        for design in designs:
            t0 = perf_counter()
            results.append(engine.predict(design))
            self.latencies.append((i, perf_counter() - t0))
        return len(designs), [lambda: self._check(root, designs, results)]

    def _check(self, root, designs, results):
        failures, quality = [], {}
        for design, result in zip(designs, results):
            errors = checks.check_probabilities(design.name, result.grids)
            errs, quality[design.name] = self.check_prepared(
                root, design, self.config,
                np.asarray(result.truth["h"]).reshape(-1, 1))
            failures += [(design.name, e) for e in errors + errs]
        shutil.rmtree(root, ignore_errors=True)
        self.next_designs = self.fresh_designs()
        return failures + self.check_repeatable(quality)

    def metrics(self, rounds) -> dict:
        untraced = {r["index"] for r in rounds if not r["traced"]}
        cold = [t for i, t in self.latencies if i in untraced]
        out = self.quality_metrics()
        out["layer"]["serve.cold_p50_ms"] = 1e3 * _median(cold)
        return out


class TrainServe(_Workload):
    """Fits on a warm dataset, with warm micro-batched serving between."""

    name = "train_serve"
    scale = 0.5
    count = 8
    batch = 4
    rounds_per_burst = 8

    def setup(self) -> list[float]:
        t0 = perf_counter()
        self.config = pipeline.PipelineConfig(scale=self.scale)
        self.designs = inputs.generate(
            inputs.hotspot_specs(self.scale, self.count))
        self.root = self.fresh_cache_root()
        graphs = pipeline.prepare_workload(
            "hotspot", self.config, designs=self.designs, lazy=True)
        self.dataset = CongestionDataset(graphs, channels=1)
        self.artifacts = os.path.join(self.workdir, "artifacts")
        for family in ("lhnn", "unet"):  # first fits pay one-time costs
            self.fit(family, seed=99, epochs=2)
        elapsed = perf_counter() - t0
        # Warm request order of each pass of a burst, the same every burst.
        self.passes = [self.in_seed_order(self.designs)
                       for _ in range(self.rounds_per_burst)]
        self.test_names = {self.dataset.graphs.names[i]
                           for i in self.dataset.split.test_indices}
        self.prepared_errors, self.quality = {}, {}
        for index, design in enumerate(self.designs):
            errs, self.quality[design.name] = self.check_prepared(
                self.root, design, self.config,
                self.dataset.graph(index).congestion)
            if errs:
                self.prepared_errors[design.name] = errs
        self.fits = {"lhnn": [], "unet": []}
        self.f1 = {"lhnn": {}, "unet": {}}
        self.warm, self.bursts, self.engine_stats = [], [], []
        return [elapsed]

    def fit(self, family: str, seed: int, epochs: int = EPOCHS):
        spec = api.apply_overrides(api.ExperimentSpec(), [
            f"model.family={family}", "workload.suite=hotspot",
            f"workload.scale={self.scale}", f"workload.count={self.count}",
            f"train.epochs={epochs}", f"train.seed={seed}",
            f"output.artifacts_dir={self.artifacts}"])
        return api.run_experiment(spec, dataset=self.dataset)

    def burst(self, engine, i) -> list:
        """Closed loop, one client, micro-batches of ``batch`` designs;
        returns every answer, in request order."""
        answers = []
        t_burst = perf_counter()
        for designs in self.passes:
            for start in range(0, len(designs), self.batch):
                submitted = []
                for design in designs[start:start + self.batch]:
                    submitted.append(perf_counter())
                    engine.submit(serve.PredictRequest(design=design))
                answers += engine.flush()
                done = perf_counter()
                self.warm += [(i, done - t) for t in submitted]
        self.bursts.append(
            (i, self.rounds_per_burst * len(self.designs),
             perf_counter() - t_burst))
        return answers

    def run_round(self, i):
        pending, attempted = [], 0
        for seed in FIT_SEEDS:
            for family in ("lhnn", "unet"):
                t0 = perf_counter()
                result = self.fit(family, seed)
                self.fits[family].append((i, perf_counter() - t0))
                self.f1[family][seed] = result.metrics["f1"]
                attempted += 1
                if family == "lhnn":
                    model, _ = registry.restore_model(result.checkpoint_path)
                    engine = serve.InferenceEngine(
                        model, serve.ServeConfig(pipeline=self.config,
                                                 cache_dir=self.root,
                                                 max_batch=self.batch))
                answers = self.burst(engine, i)
                attempted += len(answers)
                pending.append((seed, engine, answers, result.metrics["f1"]
                                if family == "lhnn" else None))
        return attempted, [lambda: self._check(i, pending)]

    def _check(self, i, pending):
        served = [a for _, _, answers, _ in pending for a in answers]
        # An answer about a design whose prepared placement, routing or
        # labels failed a check fails with it, in every burst.
        failures = [(id(a), e) for a in served
                    for e in self.prepared_errors.get(a.name, [])]
        failures += [(id(a), e) for a in served
                     for e in checks.check_probabilities(a.name, a.grids)]
        engines = [engine for _, engine, _, f1 in pending if f1 is not None]
        self.engine_stats.append((
            i, sum(e.stats()["forward_passes"] for e in engines),
            sum(e.stats()["sample_cache"]["hits"] for e in engines),
            float(np.mean([a.batch_members for a in served]))))
        lhnn_f1 = []
        for seed, engine, answers, reported in pending:
            if reported is None:
                continue  # the burst after a U-Net fit: same engine
            f1s = []
            last_pass = {a.name: a for a in answers[-len(self.designs):]}
            for design in self.designs:
                batched = last_pass[design.name]
                alone = engine.predict(design)
                if np.abs(alone.grids["h"] - batched.grids["h"]).max() > 1e-5:
                    failures.append((id(batched), f"{design.name}: batched "
                                     "answer differs from serving alone"))
                if design.name in self.test_names:
                    f1s.append(checks.f1_pct(alone.grids["h"],
                                             alone.truth["h"]))
            served_f1 = float(np.mean(f1s))
            if abs(served_f1 - reported) > 1e-6:
                failures.append((("lhnn", seed), f"served F1 {served_f1} "
                                 f"!= run_experiment F1 {reported}"))
            lhnn_f1.append(served_f1)
        baseline = float(np.mean([
            checks.f1_pct(np.ones_like(g.congestion[:, 0]), g.congestion[:, 0])
            for g in (self.dataset.graph(k)
                      for k in self.dataset.split.test_indices)]))
        if np.mean(lhnn_f1) <= baseline:
            failures.append((None, f"LHNN mean F1 {np.mean(lhnn_f1)} does "
                             f"not beat all-congested F1 {baseline}"))
        return failures

    def metrics(self, rounds) -> dict:
        untraced = {r["index"] for r in rounds if not r["traced"]}
        traced = {r["index"] for r in rounds if r["traced"]}
        warm = [t for i, t in self.warm if i in untraced]
        served = sum(n for i, n, _ in self.bursts if i in untraced)
        serving_s = sum(s for i, _, s in self.bursts if i in untraced)
        stats = [s for s in self.engine_stats if s[0] in traced]
        out = self.quality_metrics()
        out["layer"].update({
                    "train.lhnn_fit_median_s": _median(
                        [t for i, t in self.fits["lhnn"] if i in untraced]),
                    "train.unet_fit_median_s": _median(
                        [t for i, t in self.fits["unet"] if i in untraced]),
                    "train.lhnn_f1_pct": float(np.mean(
                        list(self.f1["lhnn"].values()))),
                    "train.unet_f1_pct": float(np.mean(
                        list(self.f1["unet"].values()))),
                    "serve.warm_p50_ms": 1e3 * _median(warm),
                    "serve.warm_tail_ms": 1e3 * float(np.percentile(
                        warm, WARM_TAIL_PCT)),
                    "serve.warm_rps": served / serving_s,
                    "serve.forward_passes": sum(s[1] for s in stats),
                    "serve.sample_cache_hits": sum(s[2] for s in stats),
                    "serve.batch_members_mean": _median(
                        [s[3] for s in stats]) if stats else 0.0})
        return out


WORKLOADS = {w.name: w for w in (PrepareSuperblue, ServeCold, TrainServe)}
