"""Golden artifact digests: fixed CLI runs keep writing the same bytes.

``golden_digests.txt`` holds the sha256 of every file each case below writes,
``resolved.cfg`` included.  Only outputs that are the same on every platform
are pinned: sampled chain matrices, small-trial jump matrices (integer photon
counts; one at 0.1 G, where the time step is below its 0.05 us cap on every
row), tomography from the exact chain matrix, dark states and the
synthetic-qubit preparation.  A change that moves these bytes must say why
and regenerate the file, from the repository root, with::

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import tempfile
from pathlib import Path

import pytest

from dqubit.cli import main

GOLDEN = Path(__file__).with_name("golden_digests.txt")

# case label -> (experiment, seed, parameter overrides)
CASES = {
    "detmatrix_d-chain": ("detmatrix_d", 1, {"method": "chain", "trials": 3000}),
    "detmatrix_s-chain": ("detmatrix_s", 2, {"method": "chain", "trials": 3000}),
    "detmatrix_d-jump": ("detmatrix_d", 3, {"method": "jump", "trials": 24}),
    # at 0.1 G every row's period takes the next whole number of 0.05 us steps
    "detmatrix_d-jump-lowfield": ("detmatrix_d", 8, {"method": "jump", "trials": 16, "b_gauss": 0.1}),
    "detmatrix_s-jump": ("detmatrix_s", 4, {"method": "jump", "trials": 40}),
    "tomo-chain": ("tomo", 5, {"matrix_source": "chain"}),
    "darkstates": ("darkstates", 6, {}),
    "synthprep": ("synthprep", 7, {}),
}


def run_case(case: str, workdir: Path) -> dict[str, str]:
    """Run one case through the CLI; returns file name -> sha256 of what it wrote."""
    experiment, seed, params = CASES[case]
    cfg = workdir / f"{case}.cfg"
    lines = ["[run]", f"experiment = {experiment}", f"seed = {seed}", "", "[params]"]
    cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in params.items()]) + "\n")
    out = workdir / case
    assert main([experiment, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def read_golden() -> dict[str, dict[str, str]]:
    golden: dict[str, dict[str, str]] = {}
    for line in GOLDEN.read_text().splitlines():
        if line and not line.startswith("#"):
            case, name, digest = line.split()
            golden.setdefault(case, {})[name] = digest
    return golden


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_digests(case, tmp_path):
    assert run_case(case, tmp_path) == read_golden()[case]


def write_golden() -> None:
    lines = ["# case, file, sha256 of the file; regenerate with: PYTHONPATH=src python tests/test_golden.py"]
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            lines += [f"{case} {name} {digest}" for name, digest in run_case(case, Path(tmp)).items()]
    GOLDEN.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    write_golden()
