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

A ``preset = <name>`` key at the top of ``[run]`` (or a ``[preset]``
section with ``name = ...``) delegates to the named preset instead of a
generic run; see :mod:`zenosim.presets`.
"""

from __future__ import annotations

import configparser
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


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


def _split_quantity(text: str) -> tuple[float, str]:
    parts = text.strip().split()
    if len(parts) == 1:
        return float(parts[0]), ""
    if len(parts) == 2:
        return float(parts[0]), parts[1]
    raise ConfigError(f"cannot parse quantity {text!r}")


def parse_time(text: str) -> float:
    """'1 ns' -> 1e-9 seconds. Bare numbers are seconds."""
    try:
        value, unit = _split_quantity(text)
    except ValueError as exc:
        raise ConfigError(f"bad time quantity {text!r}") from exc
    if unit == "":
        return value
    factor = _TIME_UNITS.get(unit.lower())
    if factor is None:
        raise ConfigError(f"unknown time unit {unit!r} in {text!r}")
    return value * factor


def parse_frequency(text: str) -> float:
    """'100 kHz' -> angular frequency 2*pi*1e5 rad/s.

    Bare numbers are taken as rad/s already (no conversion).
    """
    try:
        value, unit = _split_quantity(text)
    except ValueError as exc:
        raise ConfigError(f"bad frequency quantity {text!r}") from exc
    if unit == "":
        return value
    factor = _FREQ_UNITS.get(unit.lower())
    if factor is None:
        raise ConfigError(f"unknown frequency unit {unit!r} in {text!r}")
    return 2.0 * math.pi * value * factor


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
    """Everything one experiment needs, fully parsed and validated."""

    hamiltonian: Hamiltonian
    state: PureState
    dist: IntervalDistribution | None
    mode: str | None
    m: int | None
    t_total: float | None
    realizations: int
    seed: int
    preset: str | None
    csv_path: str | None
    svg_path: str | None
    bins: int


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

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
        raise ConfigError(
            f"initial state dimension {state.dim} does not match "
            f"{hamiltonian.dim} levels"
        )

    dist = None
    if parser.has_section("distribution"):
        dist = parse_distribution(dict(parser["distribution"]))

    run = parser["run"] if parser.has_section("run") else {}
    preset = run.get("preset")
    if preset is None and parser.has_section("preset"):
        preset = parser["preset"].get("name")

    mode = run.get("mode")
    if mode is not None and mode not in ("fixed_m", "fixed_T"):
        raise ConfigError(f"unknown run mode {mode!r}")
    try:
        m = int(run["m"]) if "m" in run else None
        realizations = int(run.get("realizations", "100"))
        seed = int(run.get("seed", str(DEFAULT_SEED)))
        bins = int(run.get("bins", "40"))
        t_total = parse_time(run["t_total"]) if "t_total" in run else None
    except ValueError as exc:
        raise ConfigError(f"invalid run section: {exc}") from exc
    for name, count in (("m", m), ("realizations", realizations), ("bins", bins)):
        if count is not None and count < 1:
            raise ConfigError(f"run.{name} must be a positive count, not {count}")

    outputs = parser["outputs"] if parser.has_section("outputs") else {}
    return ExperimentConfig(
        hamiltonian=hamiltonian,
        state=state,
        dist=dist,
        mode=mode,
        m=m,
        t_total=t_total,
        realizations=realizations,
        seed=seed,
        preset=preset,
        csv_path=outputs.get("csv"),
        svg_path=outputs.get("svg"),
        bins=bins,
    )
