"""Run configuration: flat dotted-key text format, validation, scenarios.

The config format is a plain UTF-8 text file with one `key = value` pair per
line and `#` comments, e.g.

    coefficient.kind = power
    coefficient.alpha = 0.5
    gains.mu1 = 2.0

Overrides are applied as repeated `--set key=value` on the command line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional

from . import mesh as mesh_mod
from . import model, stepper
from .errors import ConfigError

SCENARIO_NAMES = (
    "baseline", "nodelay", "constant-delay", "strong-degeneracy",
    "margin-violation",
)


@dataclass(frozen=True)
class RunConfig:
    """Full experiment description as plain data (picklable for sweeps)."""

    coefficient_kind: str = "power"
    coefficient_alpha: float = 0.5
    coefficient_scale: float = 1.0
    coefficient_factor: Optional[str] = None
    coefficient_xs: Optional[tuple] = None
    coefficient_values: Optional[tuple] = None

    delay_kind: str = "saturating_exponential"
    delay_tau: float = 0.8
    delay_tau0: float = 0.5
    delay_tau1: float = 1.0
    delay_k: float = 0.4
    delay_rise_start: float = 0.0
    delay_rise_end: float = 5.0

    gains_mu1: float = 2.0
    gains_mu2: float = 0.2
    gains_beta: float = 1.0

    mesh_n: int = 256
    mesh_gamma: Optional[float] = None

    channel_n_delta: int = 64

    integrator_dt: Optional[float] = None
    integrator_t_final: float = 10.0
    integrator_record_every: int = 1

    initial_preset: str = "ramp"
    initial_f0: str = "zero"
    initial_f0_amplitude: float = 1.0

    outputs_csv: Optional[str] = None

    seed: int = 0


# dotted config key -> RunConfig attribute and parser
def _float_opt(s):
    return None if s in ("", "none", "None") else float(s)


def _str_opt(s):
    return None if s in ("", "none", "None") else str(s)


def _floats(s):
    return tuple(float(x) for x in str(s).replace(",", " ").split())


_KEYS = {
    "coefficient.kind": ("coefficient_kind", str),
    "coefficient.alpha": ("coefficient_alpha", float),
    "coefficient.scale": ("coefficient_scale", float),
    "coefficient.factor": ("coefficient_factor", _str_opt),
    "coefficient.xs": ("coefficient_xs", _floats),
    "coefficient.values": ("coefficient_values", _floats),
    "delay.kind": ("delay_kind", str),
    "delay.tau": ("delay_tau", float),
    "delay.tau0": ("delay_tau0", float),
    "delay.tau1": ("delay_tau1", float),
    "delay.k": ("delay_k", float),
    "delay.rise_start": ("delay_rise_start", float),
    "delay.rise_end": ("delay_rise_end", float),
    "gains.mu1": ("gains_mu1", float),
    "gains.mu2": ("gains_mu2", float),
    "gains.beta": ("gains_beta", float),
    "mesh.n": ("mesh_n", int),
    "mesh.gamma": ("mesh_gamma", _float_opt),
    "channel.n_delta": ("channel_n_delta", int),
    "integrator.dt": ("integrator_dt", _float_opt),
    "integrator.t_final": ("integrator_t_final", float),
    "integrator.record_every": ("integrator_record_every", int),
    "initial.preset": ("initial_preset", str),
    "initial.f0": ("initial_f0", str),
    "initial.f0_amplitude": ("initial_f0_amplitude", float),
    "outputs.csv": ("outputs_csv", _str_opt),
    "seed": ("seed", int),
}

def _parse_pair(pair: str, where: str) -> tuple[str, object]:
    """Split `key=value`, look the key up and run its parser.

    Returns (RunConfig attribute, parsed value); every failure is a
    ConfigError that starts with `where` and names the key.
    """
    if "=" not in pair:
        raise ConfigError(f"{where}expected 'key = value', got {pair!r}")
    key, val = (part.strip() for part in pair.split("=", 1))
    if key not in _KEYS:
        raise ConfigError(f"{where}unknown key {key!r}")
    attr, parser = _KEYS[key]
    try:
        return attr, parser(val)
    except ValueError as exc:
        raise ConfigError(f"{where}bad value for {key}: {exc}") from exc


def parse_config_text(text: str, base: Optional[RunConfig] = None) -> RunConfig:
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            attr, val = _parse_pair(line, f"line {lineno}: ")
            updates[attr] = val
    return replace(base or RunConfig(), **updates)


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply repeated `key=value` strings on top of a config."""
    return replace(cfg, **dict(_parse_pair(p, "override: ") for p in pairs))


def set_value(cfg: RunConfig, key: str, value) -> RunConfig:
    """Typed single-key override (used by sweep axes)."""
    attr, val = _parse_pair(f"{key}={value}", "")
    return replace(cfg, **{attr: val})


def to_text(cfg: RunConfig) -> str:
    lines = []
    for key in _KEYS:
        attr, _ = _KEYS[key]
        val = getattr(cfg, attr)
        if val is None:
            continue
        if isinstance(val, tuple):
            val = " ".join(f"{x!r}" for x in val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    payload = "\n".join(sorted(to_text(cfg).splitlines()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def effective_items(cfg: RunConfig) -> dict:
    """Dotted-key view of the scalar config entries (for reports/rows)."""
    out = {}
    for key, (attr, _) in _KEYS.items():
        val = getattr(cfg, attr)
        if val is None or isinstance(val, tuple):
            continue
        out[key] = val
    return out


def get_value(cfg: RunConfig, key: str):
    attr, _ = _KEYS[key]
    return getattr(cfg, attr)


def load_config(path_or_name: str, base: Optional[RunConfig] = None) -> RunConfig:
    """Load from a file path, or from the shipped scenarios by bare name."""
    p = Path(path_or_name)
    if p.exists():
        return parse_config_text(p.read_text(encoding="utf-8"), base)
    if path_or_name in SCENARIO_NAMES:
        ref = resources.files("degenwave").joinpath(
            f"scenarios/{path_or_name}.cfg"
        )
        return parse_config_text(ref.read_text(encoding="utf-8"), base)
    raise ConfigError(
        f"config {path_or_name!r} is neither a file nor a shipped scenario "
        f"{SCENARIO_NAMES}"
    )


# --- building the simulation objects ---------------------------------------


@dataclass(frozen=True)
class RunSetup:
    """Validated, assembled objects for one run."""

    cfg: RunConfig
    spec: model.CoefficientSpec
    delay: model.DelaySpec
    gains: model.GainSet
    mesh: mesh_mod.Mesh
    ops: mesh_mod.DiscreteOperators
    dt: float
    fingerprint: str


def build_setup(cfg: RunConfig) -> RunSetup:
    """Validate hypotheses and assemble mesh/operators for a config.

    Raises subclass errors of HypothesisError (CLI exit code 2) when the
    coefficient, delay or boundary pairing violates the structural
    assumptions, and ConfigError for malformed numerics.
    """
    if cfg.mesh_n < 8:
        raise ConfigError("mesh.n must be >= 8 for production runs")
    if cfg.channel_n_delta < 8:
        raise ConfigError("channel.n_delta must be >= 8")
    if cfg.integrator_t_final < 0.0:
        raise ConfigError("integrator.t_final must be >= 0")
    if cfg.integrator_record_every < 1:
        raise ConfigError("integrator.record_every must be >= 1")

    try:
        spec = model.make_coefficient(cfg.coefficient_kind, {
            "alpha": cfg.coefficient_alpha, "scale": cfg.coefficient_scale,
            "factor": cfg.coefficient_factor, "xs": cfg.coefficient_xs,
            "values": cfg.coefficient_values,
        })
        delay = model.make_delay(cfg.delay_kind, {
            "tau": cfg.delay_tau, "tau0": cfg.delay_tau0,
            "tau1": cfg.delay_tau1, "k": cfg.delay_k,
            "rise_start": cfg.delay_rise_start, "rise_end": cfg.delay_rise_end,
        })
        model.validate_delay(delay, horizon=max(cfg.integrator_t_final, 1.0))
        gains = model.GainSet(mu1=cfg.gains_mu1, mu2=cfg.gains_mu2,
                              beta=cfg.gains_beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    gamma = cfg.mesh_gamma if cfg.mesh_gamma is not None else \
        mesh_mod.default_gamma(spec.mu_a)
    msh = mesh_mod.build_mesh(cfg.mesh_n, gamma)
    ops = mesh_mod.assemble_operators(spec, msh, mesh_mod.default_bc(spec))

    dt = cfg.integrator_dt if cfg.integrator_dt is not None else \
        stepper.default_dt(msh, spec.a_of_1)
    if dt <= 0.0:
        raise ConfigError("integrator.dt must be positive")
    if dt > 2.0 * delay.tau0:
        raise ConfigError(
            "integrator.dt must not exceed twice the minimum delay "
            "(the delayed trace would lie in the future of the history)"
        )
    return RunSetup(cfg=cfg, spec=spec, delay=delay, gains=gains, mesh=msh,
                    ops=ops, dt=dt, fingerprint=config_hash(cfg))


def run_from_setup(setup: RunSetup,
                   lyap=None, snapshot_sink=None) -> stepper.Trajectory:
    cfg = setup.cfg
    return stepper.run(
        setup.mesh, setup.ops, setup.gains, setup.delay,
        t_final=cfg.integrator_t_final, dt=setup.dt,
        record_every=cfg.integrator_record_every,
        preset=cfg.initial_preset, f0_preset=cfg.initial_f0,
        f0_amplitude=cfg.initial_f0_amplitude,
        n_delta=cfg.channel_n_delta, fingerprint=setup.fingerprint,
        lyap=lyap, snapshot_sink=snapshot_sink,
    )
