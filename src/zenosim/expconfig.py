"""Declarative experiment configuration.

Experiments carry around ten parameters, so they are described in a
plain-text key/value file (INI sections) rather than flag soup. Time
quantities take a unit suffix ("ns", "us", "ms", "s"), frequencies take
("Hz", "kHz", "MHz"); ordinary frequencies are converted to angular ones
(omega = 2 pi f) right here at the parsing boundary.

Example::

    [system]
    omegas = 30 kHz, 20 kHz, 10 kHz
    coupling = 100 kHz
    initial_state = entangled_default

    [distribution]
    kind = discrete
    values = 1 ns, 3 ns
    probs = 0.3, 0.7

    [run]
    mode = fixed_m
    m = 2000
    realizations = 100
    seed = 20160719

    [outputs]
    csv = run.csv
    svg = run.svg

``kind = powerlaw`` takes ``mu0`` and ``alpha``, ``degenerate`` takes
``mu_bar``. A ``[distribution]`` section and ``run.mode`` come together
as the run's :class:`~zenosim.montecarlo.EnsembleConfig`, which checks
them: ``fixed_m`` takes ``m``, ``fixed_T`` a finite ``t_total``, neither
the other's key. ``[run]`` may also set ``bins`` (rate histograms) or
``preset = <name>``, which runs the named preset instead and takes no
other ``[run]`` key than ``seed`` and no ``[distribution]``. Any other
section or key, another kind's included, is an error. Values are read
literally: ``%`` is an ordinary character, not an interpolation.
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Hamiltonian, PureState, build_chain_hamiltonian, entangled_initial_state
from .intervals import (
    DegenerateInterval,
    DiscreteIntervals,
    IntervalDistribution,
    PowerLawIntervals,
)
from .montecarlo import EnsembleConfig
from .rng import DEFAULT_SEED

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_time",
    "parse_frequency",
    "parse_distribution",
    "load_config",
]

_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6}
#: the keys a [distribution] section may hold, by its kind
_DIST_KEYS = {
    "discrete": ("kind", "values", "probs"),
    "powerlaw": ("kind", "mu0", "alpha"),
    "degenerate": ("kind", "mu_bar"),
}
#: the keys each section may hold ([distribution]: those of its kind)
_KEYS = {
    "system": ("omegas", "coupling", "initial_state"),
    "distribution": ("kind", "values", "probs", "mu0", "alpha", "mu_bar"),
    "run": ("mode", "m", "t_total", "realizations", "seed", "bins", "preset"),
    "outputs": ("csv", "svg"),
}


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


def _parse_quantity(text: str, units: dict, kind: str) -> tuple[float, float | None]:
    """'<number> [unit]' -> (number, factor of the unit, None when bare)."""
    parts = text.split()
    try:
        if len(parts) not in (1, 2):
            raise ValueError("a number and at most a unit")
        value = float(parts[0])
    except ValueError as exc:
        raise ConfigError(f"bad {kind} quantity {text!r}") from exc
    if len(parts) == 1:
        return value, None
    factor = units.get(parts[1].lower())
    if factor is None:
        raise ConfigError(f"unknown {kind} unit {parts[1]!r} in {text!r}")
    return value, factor


def parse_time(text: str) -> float:
    """'1 ns' -> 1e-9 seconds. Bare numbers are seconds."""
    value, factor = _parse_quantity(text, _TIME_UNITS, "time")
    return value if factor is None else value * factor


def parse_frequency(text: str) -> float:
    """'100 kHz' -> angular frequency 2*pi*1e5 rad/s, as 2 pi (value unit),
    the product ``presets.default_system`` forms.

    Bare numbers are taken as rad/s already (no conversion).
    """
    value, factor = _parse_quantity(text, _FREQ_UNITS, "frequency")
    return value if factor is None else 2.0 * math.pi * (value * factor)


def _split_list(text: str) -> list[str]:
    items = [item.strip() for item in text.split(",")]
    return [item for item in items if item]


def parse_distribution(options: dict) -> IntervalDistribution:
    """Build an interval distribution from its config mapping.

    ``kind`` selects the family: "discrete" (needs ``values``,
    ``probs``), "powerlaw" (needs ``mu0``, ``alpha``) or "degenerate"
    (needs ``mu_bar``).
    """
    kind = options.get("kind", "").strip().lower()
    try:
        if kind == "discrete":
            values = [parse_time(v) for v in _split_list(options["values"])]
            probs = [float(p) for p in _split_list(options["probs"])]
            return DiscreteIntervals(np.asarray(values), np.asarray(probs))
        if kind == "powerlaw":
            return PowerLawIntervals(
                mu0=parse_time(options["mu0"]), alpha=float(options["alpha"])
            )
        if kind == "degenerate":
            return DegenerateInterval(mu_bar=parse_time(options["mu_bar"]))
    except KeyError as exc:
        raise ConfigError(f"distribution kind {kind!r} is missing field {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid distribution parameters: {exc}") from exc
    raise ConfigError(f"unknown distribution kind {kind!r}")


def _parse_initial_state(text: str) -> PureState:
    text = text.strip()
    if text == "entangled_default":
        return entangled_initial_state()
    amps = _split_list(text)
    if len(amps) != 2:
        raise ConfigError(
            "initial_state must be 'entangled_default' or two amplitudes 'a1, a2'"
        )
    try:
        return entangled_initial_state(complex(amps[0]), complex(amps[1]))
    except ValueError as exc:
        raise ConfigError(f"invalid initial state: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, fully parsed and validated;
    ``ensemble`` is None without ``[distribution]`` and ``run.mode``."""

    hamiltonian: Hamiltonian
    state: PureState
    seed: int
    preset: str | None
    csv_path: str | None
    svg_path: str | None
    bins: int
    ensemble: EnsembleConfig | None


def did_you_mean(word: str, choices) -> str:
    """'; did you mean a, b?' for the close matches of ``word``, else ''."""
    hints = difflib.get_close_matches(word, choices, n=3)
    return f"; did you mean {', '.join(hints)}?" if hints else ""


def _check_keys(parser: configparser.ConfigParser) -> None:
    """Reject a section or key that nothing reads."""
    for name, section in parser.items():
        if name not in _KEYS and name != parser.default_section:
            hint = "; name it as [run] preset =" if name == "preset" else did_you_mean(name, _KEYS)
            raise ConfigError(f"unknown section [{name}]{hint}")
        known = _KEYS.get(name, ())
        if name == "distribution":  # an unknown kind is parse_distribution's error
            known = _DIST_KEYS.get(section.get("kind", "").strip().lower(), known)
        for key in section:
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in [{name}]{did_you_mean(key, known)}")


def load_config(path: str) -> ExperimentConfig:
    """Parse an experiment configuration file; its run is checked by
    :class:`~zenosim.montecarlo.EnsembleConfig`."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    _check_keys(parser)

    system = parser["system"] if parser.has_section("system") else {}
    omegas_text = system.get("omegas", "30 kHz, 20 kHz, 10 kHz")
    coupling_text = system.get("coupling", "100 kHz")
    try:
        omegas = [parse_frequency(v) for v in _split_list(omegas_text)]
        coupling = parse_frequency(coupling_text)
        hamiltonian = build_chain_hamiltonian(omegas, coupling)
    except ValueError as exc:
        raise ConfigError(f"invalid system section: {exc}") from exc
    state = _parse_initial_state(system.get("initial_state", "entangled_default"))
    if state.dim != hamiltonian.dim:
        raise ConfigError(f"initial state dimension {state.dim} does not match "
                          f"{hamiltonian.dim} levels")

    run = parser["run"] if parser.has_section("run") else {}
    if "preset" in run:
        for key in run:
            if key not in ("preset", "seed"):
                raise ConfigError(f"a preset run takes no run.{key}")
        if parser.has_section("distribution"):
            raise ConfigError("a preset run takes no [distribution] section")
    dist = (parse_distribution(dict(parser["distribution"]))
            if parser.has_section("distribution") else None)
    if (dist is None) == ("mode" in run):
        raise ConfigError("a [distribution] section and run.mode go together")
    try:
        seed = int(run.get("seed", str(DEFAULT_SEED)))
        bins = int(run.get("bins", "40"))
        ensemble = None if dist is None else EnsembleConfig(
            dist=dist, hamiltonian=hamiltonian, state=state, mode=run["mode"],
            realizations=int(run.get("realizations", "100")), master_seed=seed,
            m=int(run["m"]) if "m" in run else None,
            t_total=parse_time(run["t_total"]) if "t_total" in run else None,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid run section: {exc}") from exc
    if bins < 1:
        raise ConfigError(f"run.bins must be a positive count, not {bins}")

    outputs = parser["outputs"] if parser.has_section("outputs") else {}
    return ExperimentConfig(
        hamiltonian=hamiltonian, state=state, seed=seed, preset=run.get("preset"),
        csv_path=outputs.get("csv"), svg_path=outputs.get("svg"), bins=bins, ensemble=ensemble,
    )
