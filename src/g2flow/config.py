"""Run configuration: JSON file with flat keys mirroring the CLI flags.

Precedence: built-in defaults < config file (G2FLOW_CONFIG or --config) < flags.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .shooter import TOL_FLOOR

ENV_VAR = "G2FLOW_CONFIG"


@dataclass
class RunConfig:
    family: str | None = None
    m: int = 1
    n: int = 1
    r0: float = 1.0
    alpha1: float | None = None
    alpha3: float | None = None
    beta: float | None = None
    c: float = 0.0
    p: float | None = None
    q: float | None = None
    t1: float | None = None
    t_switch: float | None = None
    tol: float = 1e-6
    k: float = 1.5
    rtol: float = 1e-11
    t_factor: float = 3e3
    max_steps: int = 400_000
    confirm_blowup: bool = False
    seed: int = 20240801
    quick: bool = False
    param: str | None = None
    values: str | None = None
    out_dir: str = "."

    def hash(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()

    def echo(self) -> dict:
        return asdict(self)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    data: dict = {}
    cfg_path = path or os.environ.get(ENV_VAR)
    if cfg_path:
        try:
            with open(cfg_path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {cfg_path}: {exc}") from exc
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = RunConfig(**{k: v for k, v in data.items() if k in known})
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if not cfg.tol >= TOL_FLOOR:
        raise ConfigError(f"tol must be at least {TOL_FLOOR}: a bracket of shots cannot shrink further")
    if cfg.rtol <= 0:
        raise ConfigError("rtol must be positive")
    if not (1.0 < cfg.k < 2.0):
        raise ConfigError("k must lie in (1, 2)")
    if cfg.t_switch is not None and cfg.t_switch <= 0:
        raise ConfigError("t_switch must be positive")
