"""Run configuration: schema, defaults, INI parsing and canonical hashing.

A run is fully determined by (experiment, params, seed).  Configs are
plain-text key-value files with two sections::

    [run]
    experiment = detmatrix_d
    seed = 12345

    [params]
    b_gauss = 2.2
    trials = 1500

Unknown or ill-typed keys fail validation with the offending key named.
The config hash covers the canonical serialization of everything that
affects numeric output (not the output directory), the package version
included, so identical hashes certify identical payloads.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from . import __version__

__all__ = ["ConfigError", "ParamSpec", "RunConfig", "EXPERIMENTS", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"invalid value for '{key}': {message}")
        self.key = key


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(p) for p in s.replace(",", " ").split())


_PARSERS: dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": float,
    "float_or_inf": float,
    "floats": _parse_floats,
    "str": str.strip,
    "bool": _parse_bool,
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return _is_number(v) and (isinstance(v, int) or math.isfinite(v))


# float kinds are finite: inf and nan would pass checks such as v > 0 and
# fail, or print nonsense, deep in a run; float_or_inf also takes +inf
_TYPES: dict[str, Callable[[Any], bool]] = {
    "int": lambda v: _is_number(v) and isinstance(v, int),
    "float": _is_finite,
    "float_or_inf": lambda v: _is_finite(v) or v == math.inf,
    "floats": lambda v: isinstance(v, tuple) and all(map(_is_finite, v)),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # key into _PARSERS and _TYPES
    default: Any
    check: Optional[Callable[[Any], bool]] = None
    help: str = ""

    def parse(self, raw: str) -> Any:
        try:
            val = _PARSERS[self.kind](raw)
        except Exception as exc:
            raise ConfigError(self.name, f"expected {self.kind}: {exc}") from exc
        self.validate(val)
        return val

    def validate(self, val: Any) -> None:
        if not _TYPES[self.kind](val):
            raise ConfigError(self.name, f"expected {self.kind}, got {val!r}")
        if self.check is not None and not self.check(val):
            raise ConfigError(self.name, f"{val!r} fails constraint ({self.help})")


def _positive(v) -> bool:
    return v > 0


def _nonnegative(v) -> bool:
    return v >= 0


_COMMON = [
    ParamSpec("b_gauss", "float", 2.2, _nonnegative, "field in gauss, >= 0"),
    ParamSpec("intensity", "float", 0.05, _positive, "saturation-relative intensity, > 0"),
    ParamSpec("method", "str", "jump", lambda v: v in ("jump", "chain"), "jump or chain"),
]

EXPERIMENTS: dict[str, list[ParamSpec]] = {
    "detmatrix_s": _COMMON + [ParamSpec("trials", "int", 2000, _positive, "trials >= 1")],
    "detmatrix_d": _COMMON + [ParamSpec("trials", "int", 1500, _positive, "trials >= 1")],
    "darkstates": [
        ParamSpec("b_gauss", "float", 2.2, _nonnegative, "field in gauss, >= 0"),
        ParamSpec(
            "pols",
            "str",
            "sigma+,pi",
            lambda v: all(p in ("sigma+", "sigma-", "pi") for p in v.split(",")),
            "comma list of sigma+/sigma-/pi",
        ),
        ParamSpec(
            "detuning_mode",
            "str",
            "standard",
            lambda v: v in ("standard", "common"),
            "standard (distinct) or common",
        ),
    ],
    "tomo": [
        ParamSpec(
            "populations",
            "floats",
            (0.25, 0.25, 0.25, 0.25),
            lambda v: len(v) == 4 and all(x >= 0 for x in v) and abs(sum(v) - 1) < 1e-9,
            "four simplex weights",
        ),
        ParamSpec("efficiency", "float", 0.8, lambda v: 0 < v <= 1, "in (0, 1]"),
        ParamSpec("background", "float", 0.1, _nonnegative, ">= 0"),
        ParamSpec("trials", "int", 10000, _positive, "trials >= 1"),
        ParamSpec("scaled_background", "bool", True),
        ParamSpec(
            "matrix_source",
            "str",
            "chain",
            lambda v: v == "chain" or v.endswith(".txt"),
            "'chain' or a detection-matrix file",
        ),
        ParamSpec("b_gauss", "float", 2.2, _nonnegative, "field in gauss, >= 0"),
        ParamSpec("intensity", "float", 0.05, _positive, "> 0"),
    ],
    "rabi": [
        ParamSpec("kind", "str", "dm1", lambda v: v in ("dm1", "dm2"), "dm1 or dm2"),
        ParamSpec("omega_rad_s", "float", math.sqrt(18.0) * math.pi / 12e-6, _positive, "> 0"),
        ParamSpec("tau_s", "float_or_inf", 200e-6, _positive, "> 0, inf for no decay"),
        ParamSpec("t_max_s", "float", 30e-6, _positive, "> 0"),
        ParamSpec("n_times", "int", 40, lambda v: v >= 8, ">= 8"),
        ParamSpec("noise_frac", "float", 0.01, _nonnegative, ">= 0"),
    ],
    "synthprep": [
        ParamSpec("omega_rad_s", "float", math.pi / 30e-6, _positive, "> 0"),
        ParamSpec("phi", "float", math.pi, lambda v: True),
    ],
    "stirap": [
        ParamSpec("peak_pump_rad_s", "float", 2 * math.pi * 20e6, _nonnegative, ">= 0"),
        ParamSpec("peak_stokes_rad_s", "float", 2 * math.pi * 20e6, _nonnegative, ">= 0"),
        ParamSpec("width_s", "float", 1.6e-6, _positive, "> 0"),
        ParamSpec("delay_s", "float", 2.4e-6, lambda v: True),
        ParamSpec("total_s", "float", 10e-6, _positive, "> 0"),
        ParamSpec("steps", "int", 4000, lambda v: v >= 100, ">= 100"),
    ],
    "ramsey": [
        ParamSpec("sensitivity_khz_per_mg", "float", 2.8, _nonnegative, ">= 0"),
        ParamSpec("sigma_b_mg", "float", 0.837, _nonnegative, ">= 0"),
        ParamSpec("residual_rate_per_s", "float", 0.0, _nonnegative, ">= 0"),
        ParamSpec("max_delay_s", "float", 240e-6, _positive, "> 0"),
        ParamSpec("n_delays", "int", 16, lambda v: v >= 6, ">= 6"),
        ParamSpec("shots", "int", 10000, _positive, ">= 1"),
        ParamSpec(
            "readout", "str", "contrast", lambda v: v in ("contrast", "fringe"), "contrast/fringe"
        ),
        ParamSpec("fringe_detuning_hz", "float", 0.0, lambda v: True),
    ],
    "benchmark": [
        ParamSpec("shots", "int", 10000, _positive, ">= 1"),
        ParamSpec("s_target_t2_s", "float", 96e-6, _positive, "> 0"),
        ParamSpec("synth_target_t2_s", "float", 350e-6, _positive, "> 0"),
    ],
}


@dataclass
class RunConfig:
    experiment: str
    seed: int = 0
    out_dir: str = "."
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                "experiment",
                f"{self.experiment!r} is not one of {sorted(EXPERIMENTS)}",
            )
        spec = {p.name: p for p in EXPERIMENTS[self.experiment]}
        unknown = set(self.params) - set(spec)
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(key, "unknown parameter for this experiment")
        resolved = {}
        for name, p in spec.items():
            val = self.params.get(name, p.default)
            p.validate(val)
            resolved[name] = val
        self.params = resolved
        if not isinstance(self.seed, int):
            raise ConfigError("seed", "must be an integer")
        # 63-bit seeds leave room for the derived seeds of cells (seed + 1000*row + col)
        # and Ramsey scans below 2**64, where Philox keys are distinct
        if not 0 <= self.seed < 2**63:
            raise ConfigError("seed", f"{self.seed} is outside [0, 2**63)")

    def canonical_text(self) -> str:
        """Stable serialization of everything that determines the output.

        The first line, a comment to the config parser, names the package
        version, so the config hash changes when the code that computes the
        outputs does.
        """
        buf = io.StringIO()
        buf.write(f"# dqubit {__version__}\n[run]\n")
        buf.write(f"experiment = {self.experiment}\n")
        buf.write(f"seed = {self.seed}\n\n[params]\n")
        for k in sorted(self.params):
            v = self.params[k]
            if isinstance(v, tuple):
                v = ",".join(format(x, ".17g") for x in v)
            elif isinstance(v, float):
                v = format(v, ".17g")
            buf.write(f"{k} = {v}\n")
        return buf.getvalue()

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def load_config(path: str, experiment: Optional[str] = None) -> RunConfig:
    """Parse an INI config file into a RunConfig (before CLI overrides)."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError("config", f"cannot read config file {path!r}")
        exp = experiment or cp.get("run", "experiment", fallback=None)
        if exp is None:
            raise ConfigError("experiment", "missing from [run] section and command line")
        if exp not in EXPERIMENTS:
            raise ConfigError("experiment", f"{exp!r} is not one of {sorted(EXPERIMENTS)}")
        try:
            seed = cp.getint("run", "seed", fallback=0)
        except ValueError:
            raise ConfigError("seed", f"not an integer: {cp.get('run', 'seed')!r}") from None
        spec = {p.name: p for p in EXPERIMENTS[exp]}
        params: dict[str, Any] = {}
        if cp.has_section("params"):
            for key, raw in cp.items("params"):
                if key not in spec:
                    raise ConfigError(key, "unknown parameter for this experiment")
                params[key] = spec[key].parse(raw)
    except (configparser.Error, UnicodeDecodeError) as exc:
        # syntax errors name the duplicated or uninterpolatable key, else the file
        raise ConfigError(getattr(exc, "option", None) or "config", str(exc)) from None
    return RunConfig(experiment=exp, seed=seed, params=params)
