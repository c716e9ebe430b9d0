"""Benchmark inputs: the program's own superblue and hotspot suites.

The specs are drawn exactly as ``repro.circuit.generator`` draws its
``superblue`` and ``hotspot`` suites at their default seed 2022, and
every design keeps the generator's own content seed, so the designs are
byte for byte the suites that ``repro.cli prepare --suite`` builds.

The design content does not depend on the workload seed.  The
legaliser's spills (cells past the die edge or over a fixed cell) come
and go with the content: over eleven content draws of the same specs
(the generator's own and ten others), 5 superblue suites at scale 0.5,
4 hotspot suites at scale 1.0 and 7 at scale 0.5 had a spilling design.  With content drawn from the workload
seed, the share of failed operations would depend on the seed; with the
program's own suites, each illegal placement fails on every run.  The
workload seed sets the order of operations and the model seeds instead
(see ``workloads.py``).

The draws are copied here rather than read from the generator so that a
change to the generator's suite parameters shows as a change of inputs,
not as a change of speed.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.generator import SUPERBLUE_IDS, DesignSpec, generate_design

STRUCTURE_SEED = 2022


def superblue_specs(scale: float) -> list[DesignSpec]:
    """The 15 superblue-like specs of the paper's Table 1 suite."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    specs = []
    for sid in SUPERBLUE_IDS:
        utilization = float(rng.uniform(0.35, 0.6))
        capacity = float(rng.uniform(0.75, 1.45))
        p_local = float(rng.uniform(0.7, 0.85))
        clusters = int(rng.integers(6, 13))
        specs.append(DesignSpec(
            name=f"superblue{sid}", seed=STRUCTURE_SEED * 1000 + sid,
            num_movable=int(900 * scale * rng.uniform(0.8, 1.25)),
            num_terminals=int(64 * max(1.0, scale ** 0.5)),
            num_macros=int(rng.integers(3, 7)),
            nets_per_cell=float(rng.uniform(0.9, 1.1)),
            die_size=64.0 * scale ** 0.5, num_clusters=clusters,
            p_local=p_local, utilization=utilization,
            capacity_factor=capacity))
    return specs


def hotspot_specs(scale: float, count: int = 8) -> list[DesignSpec]:
    """The clustered congestion-hotspot family (``--suite hotspot``)."""
    rng = np.random.default_rng(STRUCTURE_SEED + 9_001)
    specs = []
    for i in range(count):
        specs.append(DesignSpec(
            name=f"hotspot{i}", seed=STRUCTURE_SEED * 1000 + 700 + i,
            num_movable=int(900 * scale * rng.uniform(0.8, 1.2)),
            num_terminals=int(48 * max(1.0, scale ** 0.5)),
            num_macros=int(rng.integers(1, 4)),
            nets_per_cell=float(rng.uniform(1.0, 1.2)),
            die_size=64.0 * scale ** 0.5,
            num_clusters=int(rng.integers(2, 5)),
            cluster_spread=float(rng.uniform(0.03, 0.05)),
            p_local=float(rng.uniform(0.85, 0.93)),
            utilization=float(rng.uniform(0.4, 0.55)),
            capacity_factor=float(rng.uniform(0.55, 0.85))))
    return specs


def generate(specs: list[DesignSpec]) -> list:
    """A fresh set of design objects for ``specs``."""
    return [generate_design(spec) for spec in specs]
