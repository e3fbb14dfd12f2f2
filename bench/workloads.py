"""Seeded problem documents for the benchmark workloads.

Every instance starts from a base draw made the way the ROADMAP robustness
survey draws: one ``numpy.random.default_rng(base_seed)`` per base seed,
families in the listed order, and for each family a normal cost followed by
mu uniform(0.2, 1), normalized.  ``survey_instances`` is exactly that survey.

The benchmark seed then adds a random coboundary to every cost,
``c'(x, w) = c(x, w) + g(lead(w)) - g(trail(w))`` with ``lead``/``trail`` the
first and last (m-1)-blocks of the word.  A coboundary changes every number
the program reads, and the reported subactions and eigenfunctions, but not
the pressure, the Gibbs chain, the constrained value or any cycle mean.  So
each seed is a fresh input for the answer check while every instance keeps
its spectral gap and its failure mode.  Fresh random costs per seed would not
do: per-instance solve times on these families spread over two orders of
magnitude, and a pass over a freshly drawn sample varied by 35-70% from seed
to seed, far beyond any bound a regression gate can use.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

SURVEY_FAMILIES = ((2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 2, 3))
SURVEY_SEEDS = range(40)
GAUGE_SCALE = 0.5


@dataclass(frozen=True)
class Instance:
    """One problem document: a family ``(num_x, d, m)``, its cost and optional mu."""

    name: str
    family: tuple
    base_seed: int
    cost: np.ndarray
    mu: np.ndarray | None

    def document(self):
        num_x, d, m = self.family
        doc = {"num_x": num_x, "alphabet_size": d, "depth": m,
               "cost": self.cost.ravel().tolist()}
        if self.mu is not None:
            doc["mu"] = self.mu.tolist()
        return doc


@dataclass(frozen=True)
class Group:
    """Families drawn from one rng per base seed, in order."""

    families: tuple
    seeds: tuple
    constrained: bool


@dataclass(frozen=True)
class Workload:
    """Verbs run on every instance of the groups; why each was chosen is in BENCHMARK.json."""

    name: str
    verbs: tuple
    groups: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spectral-ladder",
            ("pressure", "entropy", "gibbs"),
            # base seed 1 is the first whose three rungs all converge on the power
            # path; seed 0's n=2048 rung falls back to the exact tropical solve
            # (38 s), which the other two workloads load at their sizes
            (Group(((2, 2, 9), (2, 4, 6), (3, 2, 12)), (1,), False),),
        ),
        Workload(
            "dual-batch",
            ("dual", "certify"),
            (
                Group(((2, 2, 5), (3, 2, 5), (4, 2, 5), (2, 4, 3)), (0, 1, 2, 3), True),
                Group(((2, 2, 7), (3, 2, 7), (4, 2, 7), (2, 4, 4), (3, 4, 4)), (0, 1, 2), True),
                Group(((2, 2, 9), (3, 2, 9), (4, 2, 9), (2, 4, 5)), (0, 1), True),
            ),
        ),
        Workload(
            "zerotemp-survey",
            ("zerotemp",),
            (
                Group(SURVEY_FAMILIES, (0, 1, 2), True),
                Group(((2, 2, 7), (2, 2, 8)), (0,), False),
            ),
        ),
    )
}


def draw_group(group, seed):
    """Base instances of one group for one base seed, in the survey's draw order."""
    rng = np.random.default_rng(seed)
    out = []
    for family in group.families:
        num_x, d, m = family
        cost = rng.normal(size=num_x * d**m).reshape(num_x, d**m)
        mu = rng.uniform(0.2, 1.0, size=num_x)
        mu = mu / mu.sum()
        name = "{}-{}-{}_s{}".format(*family, seed)
        out.append(Instance(name, family, seed, cost,
                            mu if group.constrained else None))
    return out


def add_coboundary(inst, rng):
    """The same instance in another gauge: ``c + g(lead(w)) - g(trail(w))``."""
    _, d, m = inst.family
    n_blocks = d ** (m - 1)
    g = rng.normal(scale=GAUGE_SCALE, size=n_blocks)
    words = np.arange(d**m)
    cost = inst.cost + (g[words % n_blocks] - g[words // d])[None, :]
    return Instance(inst.name, inst.family, inst.base_seed, cost, inst.mu)


def workload_instances(workload, seed):
    """The workload's instances, each moved to a gauge drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return [add_coboundary(inst, rng)
            for group in workload.groups
            for base_seed in group.seeds
            for inst in draw_group(group, base_seed)]


def survey_instances():
    """The ROADMAP robustness survey: 40 seeds x 4 constrained families, no gauge."""
    group = Group(SURVEY_FAMILIES, tuple(SURVEY_SEEDS), True)
    return [inst for seed in group.seeds for inst in draw_group(group, seed)]


def write_specs(instances, directory):
    """Write one problem document per instance; returns ``{name: path}``."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for inst in instances:
        path = os.path.join(directory, inst.name + ".json")
        with open(path, "w") as fh:
            json.dump(inst.document(), fh)
        paths[inst.name] = path
    return paths
