"""The benchmark's three workloads: their instances and their solves.

Each workload is a fixed list of instances, generated from a list of
generator seeds that starts at the workload's generator seed, and a
fixed list of solve modes run over every instance.  README.md records
why each was chosen.  Importing this module imports bidopt, so the
caller must put the checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace

from bidopt import fileio
from bidopt.generate import GenParams, generate_instance, scale_suite


@dataclass(frozen=True)
class Mode:
    sos: int
    strategy: str
    prove: bool

    @property
    def label(self) -> str:
        stop = "prove" if self.prove else "first"
        return f"sos{self.sos}-s{self.strategy}-{stop}"


@dataclass(frozen=True)
class Workload:
    """``oracle``: check proved objectives against the brute-force
    oracles.  ``criterion_6a``: require status feasible and a
    degradation under 5%, as acceptance criterion 6a does."""

    name: str
    default_gen_seed: int
    modes: tuple[Mode, ...]
    oracle: bool = False
    criterion_6a: bool = False


SCALE = Workload("scale-sos2-first", 61, (Mode(2, "3", False),), criterion_6a=True)
TREE = Workload("tree-sos1-prove", 0, (Mode(1, "none", True),))
SWEEP = Workload(
    "suite-many-small",
    1000,
    (
        Mode(1, "none", True),
        Mode(2, "none", True),
        Mode(1, "1", False),
        Mode(1, "2", False),
        Mode(2, "3", False),
    ),
    oracle=True,
)
WORKLOADS = {w.name: w for w in (SCALE, TREE, SWEEP)}

TREE_BATCH = 7


def _scale_instances(gen_seed: int):
    """Acceptance criterion 6a: 2 704 campaigns over 10 businesses."""
    base = GenParams(
        businesses=10,
        campaigns_per_business=1,
        levels_per_campaign=(2, 5),
        budget_tightness=0.7,
        impression_tightness=1.5,
        seed=gen_seed,
    )
    return scale_suite(base, [2704])


def _tree_instances(gen_seed: int):
    """Seven 3 x 12 x 4 instances with tight budgets: hard for SOS1."""
    base = GenParams(
        businesses=3, campaigns_per_business=12, levels_per_campaign=4,
        budget_tightness=0.3,
    )
    return [
        generate_instance(replace(base, seed=gen_seed + i)) for i in range(TREE_BATCH)
    ]


def _sweep_instances(gen_seed: int):
    """The acceptance suite1 sweep: 2..8 campaigns over 1..3 businesses,
    2..5 levels, budget tightness in {0.3, 0.7, 1.5}; 252 instances."""
    out = []
    for bus in (1, 2, 3):
        for total in range(2, 9):
            for levels in range(2, 6):
                for tight in (0.3, 0.7, 1.5):
                    base = GenParams(
                        businesses=min(bus, total),
                        campaigns_per_business=1,
                        levels_per_campaign=levels,
                        budget_tightness=tight,
                        impression_tightness=1.2,
                        seed=gen_seed + len(out),
                    )
                    out.append(scale_suite(base, [total])[0])
    return out


_GENERATORS = {
    SCALE.name: _scale_instances,
    TREE.name: _tree_instances,
    SWEEP.name: _sweep_instances,
}


def generate(name: str, gen_seed: int):
    return _GENERATORS[name](gen_seed)


def instance_path(work_dir: str, number: int) -> str:
    return os.path.join(work_dir, f"instance-{number:03d}.json")


def write_instances(instances, work_dir: str) -> str:
    """Write each instance as JSON; return a digest of the bytes written."""
    os.makedirs(work_dir, exist_ok=True)
    digest = hashlib.sha256()
    for number, inst in enumerate(instances):
        text = fileio.instance_to_json(inst)
        with open(instance_path(work_dir, number), "w", encoding="utf-8") as fh:
            fh.write(text)
        digest.update(text.encode())
    return digest.hexdigest()
