"""Workload definitions: the experiment sequence of one pass, from a seed.

A pass is a list of operations.  Each operation is one ``dqubit`` CLI
experiment, driven by an INI config generated here.  Physical parameters
stay at the CLI defaults; the seed moves only the RNG.  Pass ``k`` of a run
with workload seed ``s`` uses the derived seed ``pass_seed(s, k)``, so the
same ``(s, k)`` always yields the same inputs.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

B_GAUSS = 2.2
INTENSITY = 0.05
JUMP_TRIALS = 100
CHAIN_TRIALS = 6_000

WORKLOADS = ("detect-jump", "detect-chain", "coherence")
CELLS = {"detmatrix_d": 20, "detmatrix_s": 4}


@dataclass(frozen=True)
class Op:
    label: str  # unique within a pass; names the output directory
    experiment: str
    seed: int
    params: tuple[tuple[str, object], ...]

    def config_text(self) -> str:
        lines = ["[run]", f"experiment = {self.experiment}", f"seed = {self.seed}", "", "[params]"]
        lines += [f"{k} = {v}" for k, v in self.params]
        return "\n".join(lines) + "\n"

    def argv(self, pass_dir: Path) -> list[str]:
        cfg = pass_dir / f"{self.label}.cfg"
        return [self.experiment, "--config", str(cfg), "--out", str(pass_dir / self.label), "--quiet"]

    @property
    def trajectories(self) -> int:
        """Monte Carlo trajectories the operation is configured to simulate."""
        p = dict(self.params)
        if self.experiment in CELLS:
            return p["trials"] * CELLS[self.experiment]
        if self.experiment == "ramsey":
            return p["shots"] * p["n_delays"]
        return 0


def pass_seed(seed: int, k: int) -> int:
    """32-bit seed of pass ``k``, derived from the workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{k}".encode()).digest()[:4], "little")


def build_pass(workload: str, seed: int, pass_dir: Path) -> list[Op]:
    """Operations of one pass, in execution order."""
    physics = (("b_gauss", B_GAUSS), ("intensity", INTENSITY))
    if workload == "detect-jump":
        return [
            Op(e, e, seed, physics + (("method", "jump"), ("trials", JUMP_TRIALS)))
            for e in ("detmatrix_d", "detmatrix_s")
        ]
    if workload == "detect-chain":
        written = pass_dir / "detmatrix_d" / "detmatrix_d.txt"
        return [
            Op(e, e, seed, physics + (("method", "chain"), ("trials", CHAIN_TRIALS)))
            for e in ("detmatrix_d", "detmatrix_s")
        ] + [
            Op("tomo-chain", "tomo", seed, physics + (("matrix_source", "chain"),)),
            Op("tomo-file", "tomo", seed, physics + (("matrix_source", str(written)),)),
            Op("darkstates", "darkstates", seed, (("b_gauss", B_GAUSS),)),
        ]
    if workload == "coherence":
        return [
            Op("rabi", "rabi", seed, ()),
            Op("stirap", "stirap", seed, ()),
            Op("synthprep", "synthprep", seed, ()),
            Op("ramsey", "ramsey", seed, (("shots", 10_000), ("n_delays", 16))),
            Op("benchmark", "benchmark", seed, ()),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
