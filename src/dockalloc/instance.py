"""The instance format: a self-contained optimization problem (stations
with demand profiles, box bounds and baselines, plus budgets) and its JSON
document, read by ``optimize --instance`` and written by the reference
instance generators."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .allocator import Constraints
from .demand import PoissonProfile
from .errors import CapacityLimitError, ValidationError, read_json, real_number, whole_number
from .udf import (
    DEFAULT_CAPACITY_LIMIT,
    CostSource,
    FiniteProfile,
    LazyDailyCost,
    _num_from_json,
    cost_table_from_finite,
)


@dataclass(frozen=True)
class StationSpec:
    id: str
    profile: FiniteProfile | PoissonProfile
    lower: int
    upper: int
    baseline_docks: int
    baseline_bikes: int


@dataclass(frozen=True)
class InstanceSpec:
    """Self-contained optimization instance, small enough to enumerate."""

    stations: tuple[StationSpec, ...]
    bike_budget: int
    dock_budget: int
    max_moves: int | None = None
    tradeoff: tuple[int, int] | None = None

    def constraints(self) -> Constraints:
        return Constraints(
            bike_budget=self.bike_budget,
            dock_budget=self.dock_budget,
            baseline_docks=tuple(s.baseline_docks for s in self.stations),
            baseline_bikes=tuple(s.baseline_bikes for s in self.stations),
            lower=tuple(s.lower for s in self.stations),
            upper=tuple(s.upper for s in self.stations),
            max_moves=self.max_moves,
            tradeoff=self.tradeoff,
        )

    def tables(self) -> list[CostSource]:
        out: list[CostSource] = []
        for s in self.stations:
            if isinstance(s.profile, FiniteProfile):
                out.append(cost_table_from_finite(s.profile, s.upper, station_id=s.id))
            else:
                out.append(LazyDailyCost(s.profile))
        return out


def _profile_to_json(profile) -> dict:
    if isinstance(profile, FiniteProfile):
        atoms = []
        for events, p in profile.atoms:
            atoms.append({"events": list(events), "p": str(p) if isinstance(p, Fraction) else p})
        return {"kind": "finite", "atoms": atoms}
    return {
        "kind": "poisson",
        "rental_rates": list(profile.rental_rates),
        "return_rates": list(profile.return_rates),
        "minutes_per_interval": profile.minutes_per_interval,
        "start_hour": profile.start_hour,
    }


def _profile_from_json(doc: dict, station_id: str):
    kind = doc.get("kind")
    if kind == "finite":
        atoms = []
        for atom in doc["atoms"]:
            atoms.append((tuple(whole_number(x, "event") for x in atom["events"]), _num_from_json(atom["p"])))
        return FiniteProfile(tuple(atoms))
    if kind == "poisson":
        return PoissonProfile(
            station_id=station_id,
            rental_rates=tuple(real_number(r, "rate") for r in doc["rental_rates"]),
            return_rates=tuple(real_number(r, "rate") for r in doc["return_rates"]),
            minutes_per_interval=real_number(doc.get("minutes_per_interval", 30.0), "minutes_per_interval"),
            start_hour=real_number(doc.get("start_hour", 0.0), "start_hour"),
        )
    raise ValidationError(f"unknown profile kind {kind!r}")


def instance_to_json(spec: InstanceSpec) -> dict:
    return {
        "stations": [
            {
                "id": s.id,
                "profile": _profile_to_json(s.profile),
                "lower": s.lower,
                "upper": s.upper,
                "baseline_docks": s.baseline_docks,
                "baseline_bikes": s.baseline_bikes,
            }
            for s in spec.stations
        ],
        "bike_budget": spec.bike_budget,
        "dock_budget": spec.dock_budget,
        "max_moves": spec.max_moves,
        "tradeoff": list(spec.tradeoff) if spec.tradeoff else None,
    }


def instance_from_json(doc: dict) -> InstanceSpec:
    try:
        stations = tuple(
            StationSpec(
                id=str(s["id"]),
                profile=_profile_from_json(s["profile"], str(s["id"])),
                lower=whole_number(s["lower"], "lower"),
                upper=whole_number(s["upper"], "upper"),
                baseline_docks=whole_number(s["baseline_docks"], "baseline_docks"),
                baseline_bikes=whole_number(s["baseline_bikes"], "baseline_bikes"),
            )
            for s in doc["stations"]
        )
        tradeoff = doc.get("tradeoff")
        spec = InstanceSpec(
            stations=stations,
            bike_budget=whole_number(doc["bike_budget"], "bike_budget"),
            dock_budget=whole_number(doc["dock_budget"], "dock_budget"),
            max_moves=None if doc.get("max_moves") is None else whole_number(doc["max_moves"], "max_moves"),
            tradeoff=None if tradeoff is None else (whole_number(tradeoff[0], "k"), whole_number(tradeoff[1], "M")),
        )
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ValidationError(f"malformed instance document: {exc}") from exc
    ids = [s.id for s in spec.stations]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate station id {next(i for i in ids if ids.count(i) > 1)!r}")
    for s in spec.stations:
        if s.upper > DEFAULT_CAPACITY_LIMIT:
            raise CapacityLimitError(f"station {s.id!r}: upper bound {s.upper} exceeds the limit {DEFAULT_CAPACITY_LIMIT}")
    return spec


def save_instance(path: str | Path, spec: InstanceSpec) -> None:
    Path(path).write_text(json.dumps(instance_to_json(spec), indent=2, sort_keys=True))


def load_instance(path: str | Path) -> InstanceSpec:
    return instance_from_json(read_json(path, "instance"))

