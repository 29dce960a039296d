"""Scenario definition, structured-text ingestion and canonical serialization.

A scenario bundles the receiver deployment (near-field energy harvesters,
far-field information decoders), the power budget, per-decoder noise, the
sum-rate floor and the harvesting model.  Files are YAML with units spelled
out in the key names (`P0_dBm`, `r_over_Z`); dBm/dB conversion happens here
and nowhere else, every internal quantity is linear watts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .geometry import ArrayConfig, PolarLocation, rayleigh_distance

__all__ = [
    "Receiver",
    "Scenario",
    "ScenarioError",
    "dbm_to_watts",
    "watts_to_dbm",
    "parse_scenario",
    "scenario_to_dict",
    "scenario_hash",
    "bundled_scenario_path",
]


class ScenarioError(ValueError):
    """Raised for malformed or invalid scenario files."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def watts_to_dbm(watts: float) -> float:
    if watts <= 0:
        raise ValueError(f"dBm undefined for non-positive power {watts}")
    return 10.0 * math.log10(watts) + 30.0


@dataclass(frozen=True)
class Receiver:
    """One receiver placement; `weight` is the harvesting priority weight alpha."""

    location: PolarLocation
    weight: float = 1.0

    def __post_init__(self):
        if not 0 <= self.weight < math.inf:
            raise ValueError(f"weight must be finite and >= 0, got {self.weight}")


@dataclass(frozen=True)
class Scenario:
    """Receiver deployment plus the resource-allocation problem data.

    sigma2 holds one linear-watts noise power per information receiver.
    solver_overrides carries raw keyword overrides for SolverOptions; it is
    applied at the CLI boundary.
    """

    eh_receivers: tuple[Receiver, ...]
    id_receivers: tuple[Receiver, ...]
    sigma2: tuple[float, ...]
    p0: float
    rate_floor: float
    zeta: float = 0.5
    solver_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.eh_receivers) + len(self.id_receivers) < 1:
            raise ValueError("scenario needs at least one receiver")
        if len(self.sigma2) != len(self.id_receivers):
            raise ValueError(
                f"need one noise power per information receiver, got {len(self.sigma2)} "
                f"for {len(self.id_receivers)} receivers"
            )
        if not all(0 < s < math.inf for s in self.sigma2):
            raise ValueError(f"noise powers must be finite and > 0, got {self.sigma2}")
        if not 0 < self.p0 < math.inf:
            raise ValueError(f"power budget must be finite and > 0, got {self.p0}")
        if not 0 <= self.rate_floor < math.inf:
            raise ValueError(f"rate floor must be finite and >= 0, got {self.rate_floor}")
        if not 0 < self.zeta <= 1:
            raise ValueError(f"harvesting efficiency must lie in (0, 1], got {self.zeta}")

    @property
    def n_eh(self) -> int:
        return len(self.eh_receivers)

    @property
    def n_id(self) -> int:
        return len(self.id_receivers)


def bundled_scenario_path() -> Path:
    """Path of the shipped reference deployment (3 harvesters, 2 decoders)."""
    return Path(__file__).parent / "data" / "table1.scenario"


# ---------------------------------------------------------------------------
# parsing

_ARRAY_KEYS = {"n_antennas", "f_GHz", "spacing", "spacing_m", "aperture_m"}
_EH_KEYS = {"theta", "r_over_Z", "r_m", "alpha"}
_ID_KEYS = {"theta", "r_over_Z", "r_m"}
_POWER_KEYS = {"P0_dBm", "sigma2_dBm"}
_CONSTRAINT_KEYS = {"R_bpshz"}
_EH_MODEL_KEYS = {"zeta"}
_TOP_KEYS = {"array", "eh_receivers", "id_receivers", "power", "constraints", "eh_model", "solver"}


def _mapping(value, where: str, allowed: set | None = None) -> dict:
    """A block as a mapping (an empty block reads as {}), refusing any key
    outside `allowed` when that is given."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be a mapping")
    unknown = set() if allowed is None else set(value) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown, key=str)} in {where}")
    return value


def _number(value, where: str) -> float:
    """A numeric value as a float.  YAML reads `yes`, `no`, `true` and
    `false` as booleans, which float() would take as 1 and 0; they are
    refused here."""
    if isinstance(value, bool):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where} must be a number, got {value!r}") from exc


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"missing key {key!r} in {where}")
    return mapping[key]


def _parse_array(block) -> ArrayConfig:
    block = _mapping(block, "array", _ARRAY_KEYS)
    n = _require(block, "n_antennas", "array")
    f_ghz = _number(_require(block, "f_GHz", "array"), "array.f_GHz")
    spacing = None
    if "spacing_m" in block:
        if "spacing" in block:
            raise ScenarioError("give either spacing: half_wavelength or spacing_m, not both")
        spacing = _number(block["spacing_m"], "array.spacing_m")
    elif block.get("spacing", "half_wavelength") != "half_wavelength":
        raise ScenarioError(
            f"spacing policy must be 'half_wavelength' or a spacing_m value, got {block['spacing']!r}"
        )
    aperture = _number(block["aperture_m"], "array.aperture_m") if "aperture_m" in block else None
    try:
        return ArrayConfig(
            n_antennas=n, carrier_freq=f_ghz * 1e9, spacing=spacing, aperture=aperture
        )
    except ValueError as exc:
        raise ScenarioError(f"array: {exc}") from exc


def _parse_receiver(entry: dict, z: float, idx: int, kind: str) -> Receiver:
    where = f"{kind}[{idx}]"
    entry = _mapping(entry, where, _EH_KEYS if kind == "eh_receivers" else _ID_KEYS)
    theta = _number(_require(entry, "theta", where), f"{where}.theta")
    has_rz, has_rm = "r_over_Z" in entry, "r_m" in entry
    if has_rz == has_rm:
        raise ScenarioError(f"{where}: give exactly one of r_over_Z or r_m")
    if has_rz:
        r = _number(entry["r_over_Z"], f"{where}.r_over_Z") * z
    else:
        r = _number(entry["r_m"], f"{where}.r_m")
    if math.isinf(r):
        raise ScenarioError(f"{where}: distance must be finite, got {r}")
    weight = _number(entry.get("alpha", 1.0), f"{where}.alpha")
    try:
        loc = PolarLocation(spatial_angle=theta, distance=r)
        return Receiver(location=loc, weight=weight)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def parse_scenario(path: str | Path) -> tuple[ArrayConfig, Scenario]:
    """Load and validate a scenario file; distances in Z-multiples are resolved here.

    The file is read by libyaml's safe loader when PyYAML was built with it
    (several times faster, same document) and by the pure
    Python one otherwise; their parse-error messages differ in wording."""
    raw = Path(path).read_text()
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        doc = yaml.load(raw, Loader=loader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    _mapping(doc, "scenario", _TOP_KEYS)

    cfg = _parse_array(_require(doc, "array", "scenario"))
    z = rayleigh_distance(cfg)

    eh_entries = doc.get("eh_receivers") or []
    id_entries = doc.get("id_receivers") or []
    if not isinstance(eh_entries, list) or not isinstance(id_entries, list):
        raise ScenarioError("eh_receivers and id_receivers must be lists")
    eh = tuple(_parse_receiver(e, z, i, "eh_receivers") for i, e in enumerate(eh_entries))
    idr = tuple(_parse_receiver(e, z, i, "id_receivers") for i, e in enumerate(id_entries))

    power = _mapping(_require(doc, "power", "scenario"), "power", _POWER_KEYS)
    p0 = dbm_to_watts(_number(_require(power, "P0_dBm", "power"), "power.P0_dBm"))
    sig = _require(power, "sigma2_dBm", "power")
    if isinstance(sig, list):
        if len(sig) != len(idr):
            raise ScenarioError(
                f"power.sigma2_dBm lists {len(sig)} values for {len(idr)} id_receivers"
            )
        sigma2 = tuple(dbm_to_watts(_number(s, "power.sigma2_dBm")) for s in sig)
    else:
        noise = _number(sig, "power.sigma2_dBm")
        sigma2 = tuple(dbm_to_watts(noise) for _ in idr)

    constraints = _mapping(doc.get("constraints"), "constraints", _CONSTRAINT_KEYS)
    rate_floor = _number(constraints.get("R_bpshz", 0.0), "constraints.R_bpshz")

    eh_model = _mapping(doc.get("eh_model"), "eh_model", _EH_MODEL_KEYS)
    zeta = _number(eh_model.get("zeta", 0.5), "eh_model.zeta")

    solver = _mapping(doc.get("solver"), "solver")

    try:
        scn = Scenario(
            eh_receivers=eh,
            id_receivers=idr,
            sigma2=sigma2,
            p0=p0,
            rate_floor=rate_floor,
            zeta=zeta,
            solver_overrides=dict(solver),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return cfg, scn


# ---------------------------------------------------------------------------
# canonical form

def scenario_to_dict(cfg: ArrayConfig, scn: Scenario) -> dict:
    """Canonical mapping equivalent to the parsed file (distances in meters)."""
    return {
        "array": {
            "n_antennas": cfg.n_antennas,
            "f_GHz": cfg.carrier_freq / 1e9,
            "spacing_m": cfg.d,
            "aperture_m": cfg.D,
        },
        "eh_receivers": [
            {"theta": r.location.spatial_angle, "r_m": r.location.distance, "alpha": r.weight}
            for r in scn.eh_receivers
        ],
        "id_receivers": [
            {"theta": r.location.spatial_angle, "r_m": r.location.distance}
            for r in scn.id_receivers
        ],
        "power": {
            "P0_dBm": watts_to_dbm(scn.p0),
            "sigma2_dBm": [watts_to_dbm(s) for s in scn.sigma2],
        },
        "constraints": {"R_bpshz": scn.rate_floor},
        "eh_model": {"zeta": scn.zeta},
        "solver": dict(sorted(scn.solver_overrides.items())),
    }


def scenario_hash(cfg: ArrayConfig, scn: Scenario) -> str:
    """sha256 of the canonical form; ties emitted results to their inputs."""
    blob = json.dumps(scenario_to_dict(cfg, scn), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
