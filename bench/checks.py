"""Output checks against independent references, plus the physics fingerprint.

Each check reads the artifacts an experiment wrote, with parsers of its own,
and returns a list of problems (empty when the output is correct).  The
references are independent of the code under test: the value-iteration
oracle of ``tests/oracles.py`` for detection matrices, the configured
populations for tomography, the configured Rabi frequency, the calibration
targets and the closed-form Gaussian T2* for Ramsey data.

Tolerances are the ones Tier-1 uses for the same property, with two
exceptions.  The calibrated T2* rows of ``benchmark`` must meet their targets
within the 0.5% the calibration loops in ``ramsey.benchmark_suite`` converge
to: each row re-fits the calibration's own seed and delay window, so a miss
means the calibration returned unconverged.  Statistical bands are
``K_SEM`` standard errors wide: Tier-1 pins its seeds and uses up to 4 SEM;
the benchmark draws fresh seeds on every pass and checks thousands of cells
over a set of runs, where 4 SEM would raise a false failure in a sizeable
share of sets, so it uses 5 (a 6e-7 false-alarm rate per cell).
"""
from __future__ import annotations

import configparser
import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np

K_SEM = 5.0
T2_REL_TOL = 0.05  # closed-form T2* of the ramsey experiment (tests/test_ramsey.py)
CALIBRATION_REL_TOL = 0.005  # convergence criterion of the T2* calibrations (src/dqubit/ramsey.py)
STIRAP_MIN_FIDELITY = 0.95  # tests/test_dynamics.py
EXACT_TOL = 1e-9  # quantities exact up to rounding, as for p_d1 in tests/test_cli.py

D_ROWS = ("sigma+", "sigma-", "pi", "sigma+pi", "sigma-pi")
S_ROWS = ("sigma+", "sigma-")
SINGLE_POL = ("sigma+", "sigma-", "pi")
MIRROR_PAIRS = (("sigma+", "sigma-"), ("sigma+pi", "sigma-pi"))


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` read-only, without putting tests/ on sys.path."""
    spec = importlib.util.spec_from_file_location("dqubit_oracles", root / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Checker:
    def __init__(self, root: Path):
        self.oracles = load_oracles(root)
        self._rows: dict[tuple, np.ndarray] = {}

    def oracle_row(self, which: str, label: str, b_gauss: float, intensity: float) -> np.ndarray:
        """Expected photon counts of one row by value iteration on the pumping chain."""
        key = (which, label, b_gauss, intensity)
        if key not in self._rows:
            self._rows[key] = self._oracle_row(*key)
        return self._rows[key]

    def _oracle_row(self, which: str, label: str, b_gauss: float, intensity: float) -> np.ndarray:
        from dqubit import scatter
        from dqubit.atom import Polarization

        pol = {"sigma+": Polarization.SIGMA_PLUS, "sigma-": Polarization.SIGMA_MINUS}
        if which == "s":
            beams = scatter.s_detection_beams(pol[label], b_gauss, intensity)
            cols = slice(0, 2)
        else:
            pols = dict(scatter.D_SETTINGS)[label]
            beams = scatter.d_detection_beams(pols, b_gauss, intensity)
            cols = slice(2, 6)
        model = scatter.build_model(b_gauss, beams)
        ref = self.oracles.chain_counts_by_value_iteration(model._chain_rates, model._decay_probs)
        return ref[cols]

    def check(self, experiment: str, out: Path) -> tuple[list[str], dict]:
        """Problems found in one operation's output, and its fingerprint."""
        try:
            return CHECKS[experiment](self, out, read_cfg(out)), fingerprint(experiment, out)
        except Exception as exc:  # a missing or malformed artifact fails the operation
            return [f"{experiment}: cannot check output: {exc!r}"], {}


# -- parsers -------------------------------------------------------------


def read_cfg(out: Path) -> dict[str, str]:
    cp = configparser.ConfigParser()
    cp.read_string((out / "resolved.cfg").read_text())
    return {**dict(cp["run"]), **dict(cp["params"])}


def fields(path: Path) -> dict[str, str]:
    """``key: value`` lines of a document; the first occurrence wins."""
    out: dict[str, str] = {}
    for line in path.read_text().splitlines():
        if ": " in line and not line.startswith("#"):
            key, val = line.split(": ", 1)
            out.setdefault(key.strip(), val.strip())
    return out


def floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()])


def parse_matrix(path: Path) -> dict:
    doc = {"mean": {}, "sem": {}}
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts and parts[0] in ("mean", "sem"):
            doc[parts[0]][parts[1]] = np.array([float(v) for v in parts[2:]])
        elif parts and parts[0] in ("rows:", "cols:", "trials:"):
            doc[parts[0][:-1]] = parts[1:]
    return doc


def parse_estimate(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Populations and their error bars (sqrt of the covariance diagonal)."""
    pops, cov = None, []
    for line in path.read_text().splitlines():
        if line.startswith("populations:"):
            pops = floats(line.split(":", 1)[1])
        elif line.startswith("cov:"):
            cov.append(floats(line.split(":", 1)[1]))
    return pops, np.sqrt(np.diag(np.array(cov))[: len(pops)])


# -- checks ----------------------------------------------------------------


def _check_matrix(ck: Checker, out: Path, cfg: dict, which: str) -> list[str]:
    name = f"detmatrix_{which}"
    doc = parse_matrix(out / f"{name}.txt")
    rows = D_ROWS if which == "d" else S_ROWS
    ncols = 4 if which == "d" else 2
    problems = []
    if tuple(doc.get("rows", ())) != rows or len(doc.get("cols", ())) != ncols:
        return [f"{name}: unexpected rows/cols {doc.get('rows')} {doc.get('cols')}"]
    if doc.get("trials") != [cfg["trials"]]:
        problems.append(f"{name}: trials {doc.get('trials')} != configured {cfg['trials']}")
    b, inten = float(cfg["b_gauss"]), float(cfg["intensity"])
    # the classical chain is exact for single polarizations; method=chain samples it everywhere
    gated = rows if cfg["method"] == "chain" else SINGLE_POL
    for label in rows:
        mean, sem = doc["mean"][label], doc["sem"][label]
        ref = ck.oracle_row(which, label, b, inten)
        if mean.shape != (ncols,) or sem.shape != (ncols,) or not np.isfinite(mean).all():
            problems.append(f"{name} {label}: malformed row")
            continue
        dark = ref == 0.0
        if (mean[dark] != 0.0).any():
            problems.append(f"{name} {label}: dark cells {np.nonzero(dark)[0].tolist()} not exactly 0")
        if label in gated:
            dev = np.abs(mean - ref)[~dark]
            band = K_SEM * sem[~dark]
            if (sem[~dark] <= 0).any() or (dev > band).any():
                problems.append(f"{name} {label}: means {mean} vs oracle {ref} beyond {K_SEM} SEM")
    for a, b_ in MIRROR_PAIRS:
        if a not in rows or b_ not in rows:
            continue
        fwd, rev = doc["mean"][a], doc["mean"][b_][::-1]
        err = np.hypot(doc["sem"][a], doc["sem"][b_][::-1])
        if ((fwd == 0) != (rev == 0)).any() or (np.abs(fwd - rev) > K_SEM * err).any():
            problems.append(f"{name}: rows {a} and {b_} are not mirror images")
    return problems


def _check_tomo(ck, out: Path, cfg: dict) -> list[str]:
    truth = floats(cfg["populations"].replace(",", " "))
    problems = []
    for method in ("direct", "constrained"):
        pops, err = parse_estimate(out / f"estimate_{method}.txt")
        if pops.shape != (4,) or not (np.abs(pops - truth) <= K_SEM * err).all():
            problems.append(f"tomo {method}: {pops} +- {err} misses {truth}")
        if method == "constrained" and (pops.min() < -EXACT_TOL or abs(pops.sum() - 1) > EXACT_TOL):
            problems.append(f"tomo constrained: {pops} off the simplex")
    return problems


def _check_rabi(ck, out: Path, cfg: dict) -> list[str]:
    f = fields(out / "rabi_fit.txt")
    omega, err = float(f["omega_rad_s"]), float(f["omega_err"])
    target = float(cfg["omega_rad_s"])
    if not abs(omega - target) <= K_SEM * err:
        return [f"rabi: fitted omega {omega} +- {err} misses configured {target}"]
    return []


def _check_stirap(ck, out: Path, cfg: dict) -> list[str]:
    f = fields(out / "stirap.txt")
    if f["counterintuitive"] != "True" or not float(f["fidelity"]) >= STIRAP_MIN_FIDELITY:
        return [f"stirap: counterintuitive={f['counterintuitive']} fidelity={f['fidelity']}"]
    return []


def _check_synthprep(ck, out: Path, cfg: dict) -> list[str]:
    f = fields(out / "synthprep.txt")
    if not (abs(float(f["p_d1"]) - 1) <= EXACT_TOL and abs(float(f["leakage"])) <= EXACT_TOL):
        return [f"synthprep: p_d1={f['p_d1']} leakage={f['leakage']}"]
    return []


def _check_ramsey(ck, out: Path, cfg: dict) -> list[str]:
    f = fields(out / "t2_fit.txt")
    t2 = float(f["t2_s"])
    # quasi-static Gaussian field noise: T2* = sqrt(2) / (2 pi s sigma_B)
    ref = math.sqrt(2) / (2 * math.pi * float(cfg["sensitivity_khz_per_mg"]) * 1e3 * float(cfg["sigma_b_mg"]))
    if not abs(t2 - ref) <= T2_REL_TOL * ref or f["at_upper_bound"] != "False":
        return [f"ramsey: T2* {t2} vs closed form {ref}"]
    return []


def benchmark_rows(path: Path) -> list[list[str]]:
    """Data rows of benchmark.csv: qubit, sensitivity, t2_s, t2_err_s, unbounded."""
    lines = path.read_text().splitlines()
    return [l.split(",") for l in lines[lines.index("qubit,sensitivity_khz_per_mg,t2_s,t2_err_s,unbounded") + 1 :]]


def _check_benchmark(ck, out: Path, cfg: dict) -> list[str]:
    t2 = {row[0]: float(row[2]) for row in benchmark_rows(out / "benchmark.csv")}
    problems = []
    for label, key in (("s-doublet", "s_target_t2_s"), ("synthetic-d1d2", "synth_target_t2_s")):
        target = float(cfg[key])
        if not abs(t2.get(label, math.nan) - target) <= CALIBRATION_REL_TOL * target:
            problems.append(f"benchmark {label}: T2* {t2.get(label)} misses target {target}")
    if not t2.get("s-doublet", math.nan) < t2.get("d-edge-pair", math.nan) < t2.get("synthetic-d1d2", math.nan):
        problems.append(f"benchmark: d-edge-pair T2* not between the calibrated rows: {t2}")
    return problems


def _check_darkstates(ck, out: Path, cfg: dict) -> list[str]:
    states = []
    for line in (out / "darkstates.txt").read_text().splitlines():
        if line.startswith("dark "):
            _, tag, *amp = line.split()
            states.append((tag, np.array([float(a) for a in amp])))
    stationary = [a for tag, a in states if tag == "stationary"]
    norms_ok = all(abs(np.linalg.norm(a) - 1) <= EXACT_TOL for _, a in states)
    # sigma+ and pi both leave d+3/2 uncoupled: the one stationary dark state
    if len(states) != 2 or not norms_ok or len(stationary) != 1 or abs(stationary[0][3]) != 1.0:
        return [f"darkstates: unexpected dark states {states}"]
    return []


CHECKS = {
    "detmatrix_d": lambda ck, out, cfg: _check_matrix(ck, out, cfg, "d"),
    "detmatrix_s": lambda ck, out, cfg: _check_matrix(ck, out, cfg, "s"),
    "tomo": _check_tomo,
    "rabi": _check_rabi,
    "stirap": _check_stirap,
    "synthprep": _check_synthprep,
    "ramsey": _check_ramsey,
    "benchmark": _check_benchmark,
    "darkstates": _check_darkstates,
}


# -- fingerprint -------------------------------------------------------------


def fingerprint(experiment: str, out: Path) -> dict:
    """Physics summary and artifact hashes of one operation; recorded, never gated."""
    fp: dict = {
        "sha256": {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
    }
    if experiment in ("detmatrix_d", "detmatrix_s"):
        doc = parse_matrix(out / f"{experiment}.txt")
        fp["mean"] = {k: v.tolist() for k, v in doc["mean"].items()}
        fp["sem"] = {k: v.tolist() for k, v in doc["sem"].items()}
    elif experiment == "tomo":
        for method in ("direct", "constrained"):
            pops, err = parse_estimate(out / f"estimate_{method}.txt")
            fp[method] = {"populations": pops.tolist(), "err": err.tolist()}
    elif experiment == "benchmark":
        fp["t2_rows"] = benchmark_rows(out / "benchmark.csv")
    elif experiment == "ramsey":
        fp["t2"] = fields(out / "t2_fit.txt")
    elif experiment == "rabi":
        fp["fit"] = fields(out / "rabi_fit.txt")
    return fp
