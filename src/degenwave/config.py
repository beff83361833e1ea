"""Run configuration: flat dotted-key text format, validation, scenarios.

The config format is a plain UTF-8 text file with one `key = value` pair per
line and `#` comments, e.g.

    coefficient.kind = power
    coefficient.alpha = 0.5
    gains.mu1 = 2.0

Overrides are applied as repeated `--set key=value` on the command line.

The initial data are named by `initial.preset` (u0 and u1) and `initial.f0`
(the history); this module alone knows the names.  `build_setup` evaluates
them once (`initial_data`), and the stepper takes the resulting arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, get_type_hints

import numpy as np

from . import mesh as mesh_mod
from . import model, stepper
from .errors import ConfigError

SCENARIO_NAMES = (
    "baseline", "nodelay", "constant-delay", "strong-degeneracy",
    "margin-violation",
)


def _finite(s):
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"{s!r} is not a finite number")
    return x


def _float_opt(s):
    return None if s in ("", "none", "None") else _finite(s)


def _str_opt(s):
    return None if s in ("", "none", "None") else str(s)


def _seed(s):
    x = int(s)
    if x < 0:
        raise ValueError(f"{s!r} is negative; a seed is an integer >= 0")
    return x


@dataclass(frozen=True)
class RunConfig:
    """A run as plain data (picklable for sweeps), one field per config key."""

    coefficient_kind: str = "power"
    coefficient_alpha: float = 0.5
    coefficient_scale: float = 1.0
    coefficient_factor: Optional[str] = None

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

    seed: int = field(default=0, metadata={"parser": _seed})


# dotted config key -> (RunConfig attribute, parser), in field order: the key
# is the field name with its first `_` read as `.`, and the parser is the
# field's metadata "parser", else the one for its declared type
_PARSERS = {str: str, float: _finite, int: int,
            Optional[float]: _float_opt, Optional[str]: _str_opt}


def _key_table() -> dict:
    types = get_type_hints(RunConfig)
    table = {}
    for f in fields(RunConfig):
        parser = f.metadata.get("parser", _PARSERS.get(types[f.name]))
        if parser is None:
            raise TypeError(f"no parser for RunConfig.{f.name}: {f.type}")
        table[f.name.replace("_", ".", 1)] = (f.name, parser)
    return table


_KEYS = _key_table()


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


def parse_config_text(text: str) -> RunConfig:
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            attr, val = _parse_pair(line, f"line {lineno}: ")
            updates[attr] = val
    return RunConfig(**updates)


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply repeated `key=value` strings on top of a config."""
    return replace(cfg, **dict(_parse_pair(p, "override: ") for p in pairs))


def set_value(cfg: RunConfig, key: str, value) -> RunConfig:
    """Typed single-key override (used by sweep axes)."""
    attr, val = _parse_pair(f"{key}={value}", "")
    return replace(cfg, **{attr: val})


def to_text(cfg: RunConfig) -> str:
    return "".join(f"{key} = {val}\n"
                   for key, val in effective_items(cfg).items())


def config_hash(cfg: RunConfig) -> str:
    import hashlib  # only reports hash a config; a cold start skips OpenSSL

    payload = "\n".join(sorted(to_text(cfg).splitlines()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def effective_items(cfg: RunConfig) -> dict:
    """Dotted-key view of the config entries that are set (for reports,
    rows and `to_text`)."""
    out = {}
    for key, (attr, _) in _KEYS.items():
        val = getattr(cfg, attr)
        if val is not None:
            out[key] = val
    return out


def get_value(cfg: RunConfig, key: str):
    attr, _ = _KEYS[key]
    return getattr(cfg, attr)


def load_config(path_or_name: str) -> RunConfig:
    """Load from a file path, or from the shipped scenarios by bare name
    when no file has that path (a directory named after a scenario does not
    hide it).  A file may start with a UTF-8 byte-order mark."""
    p = Path(path_or_name)
    if p.is_file():
        return parse_config_text(p.read_text(encoding="utf-8-sig"))
    if path_or_name in SCENARIO_NAMES:
        ref = resources.files("degenwave").joinpath(
            f"scenarios/{path_or_name}.cfg"
        )
        return parse_config_text(ref.read_text(encoding="utf-8"))
    raise ConfigError(
        f"config {path_or_name!r} is neither a file nor a shipped scenario "
        f"{SCENARIO_NAMES}"
    )


# --- initial data presets ---------------------------------------------------

def _u0_zero(x):
    return np.zeros_like(x)


def _u0_ramp(x):
    return x.copy()


def _sine_bump(mu_a):
    p = max(0.0, 1.0 - mu_a)

    def f(x):
        return np.sin(np.pi * x) * x**p

    return f


def _u1_kick(x):
    # smooth velocity bump toward x = 1, vanishing at both endpoints; the
    # front reaches the boundary gradually, so traces stay resolved on the
    # delay grid from the start
    return 4.0 * x * (1.0 - x) * np.exp(-(((x - 0.7) / 0.18) ** 2))


def displacement_presets(mu_a: float) -> dict[str, tuple[Callable, Callable]]:
    """initial.preset name -> (u0, u1) callables on mesh nodes."""
    return {
        "zero": (_u0_zero, _u0_zero),
        "ramp": (_u0_ramp, _u0_zero),
        "sine-bump": (_sine_bump(mu_a), _u0_zero),
        "velocity-kick": (_u0_zero, _u1_kick),
    }


def history_presets(amplitude: float = 1.0) -> dict[str, Callable]:
    """initial.f0 name -> callable on past times s <= 0."""
    return {
        "zero": lambda s: 0.0,
        "constant": lambda s: amplitude,
        "cosine": lambda s: amplitude * math.cos(s),
    }


def initial_data(cfg: RunConfig, mu_a: float, nodes) -> tuple:
    """The initial data (u0, v0, f0) that `stepper.run` takes, from the
    config's preset names: u0 and v0 evaluated on the nodes as read-only
    arrays, and the history f0.  An unknown initial.preset or initial.f0
    name is a ConfigError that lists the known ones."""
    found = []
    for key, name, known in [
        ("initial.preset", cfg.initial_preset, displacement_presets(mu_a)),
        ("initial.f0", cfg.initial_f0,
         history_presets(cfg.initial_f0_amplitude)),
    ]:
        if name not in known:
            raise ConfigError(f"unknown {key} {name!r}; known: "
                              f"{', '.join(sorted(known))}")
        found.append(known[name])
    (p0, p1), f0 = found
    u0, v0 = np.array(p0(nodes), dtype=float), np.array(p1(nodes), dtype=float)
    u0.flags.writeable = v0.flags.writeable = False
    return u0, v0, f0


# --- building the simulation objects ---------------------------------------


@dataclass(frozen=True)
class RunSetup:
    """Validated, assembled objects for one run, and its initial data
    (`initial_data`)."""

    cfg: RunConfig
    spec: model.CoefficientSpec
    delay: model.DelaySpec
    gains: model.GainSet
    mesh: mesh_mod.Mesh
    ops: mesh_mod.DiscreteOperators
    dt: float
    initial: tuple


def build_setup(cfg: RunConfig) -> RunSetup:
    """Validate hypotheses and assemble mesh/operators for a config.

    Raises subclass errors of HypothesisError (CLI exit code 2) when the
    coefficient or the delay violates the structural assumptions, and
    ConfigError for malformed numerics or an unknown initial.preset or
    initial.f0 name.
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
            "factor": cfg.coefficient_factor,
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
    initial = initial_data(cfg, spec.mu_a, msh.nodes)
    ops = mesh_mod.assemble_operators(spec, msh)

    dt = cfg.integrator_dt if cfg.integrator_dt is not None else \
        stepper.default_dt(msh, spec.a_of_1)
    if dt <= 0.0:
        raise ConfigError("integrator.dt must be positive")
    if dt > 2.0 * delay.tau0:
        raise ConfigError(
            "integrator.dt must not exceed twice the minimum delay "
            "(the delayed trace would lie in the future of the history)"
        )
    steps = cfg.integrator_t_final / dt
    if not steps < 2.0**63:
        raise ConfigError(f"integrator.t_final / integrator.dt = {steps:.6g} "
                          "steps; a run takes fewer than 2**63")
    return RunSetup(cfg=cfg, spec=spec, delay=delay, gains=gains, mesh=msh,
                    ops=ops, dt=dt, initial=initial)


def batch_key(cfg: RunConfig) -> RunConfig:
    """What the configs of one lockstep batch share: all but the gains and
    the seed."""
    return replace(cfg, gains_mu1=0.0, gains_mu2=0.0, gains_beta=0.0, seed=0)


def run_from_setup(setups: list[RunSetup], lyap=None,
                   snapshots: bool = False, energy_only: bool = False):
    """`stepper.run` of setups that share their `batch_key`, as one lockstep
    batch whose rows each have their own gains (with `lyap` one entry per
    setup, or None), keeping the snapshots when `snapshots` is set and
    recording t and E alone when `energy_only` is; one Trajectory or
    NonFiniteState per setup.  Raises ValueError naming the
    first config key in which a setup differs from the first one."""
    first = setups[0]
    cfg = first.cfg
    key = batch_key(cfg)
    for other in (batch_key(s.cfg) for s in setups):
        if other != key:
            name = next(k for k, (attr, _) in _KEYS.items()
                        if getattr(other, attr) != getattr(key, attr))
            raise ValueError(f"the setups of a batch must share every config "
                             f"key but gains.mu1, gains.mu2, gains.beta and "
                             f"seed; {name} differs")
    return stepper.run(
        first.ops, [s.gains for s in setups], first.delay,
        t_final=cfg.integrator_t_final, dt=first.dt, initial=first.initial,
        record_every=cfg.integrator_record_every,
        n_delta=cfg.channel_n_delta,
        lyap=lyap, snapshots=snapshots, energy_only=energy_only,
    )
