"""Canonical fingerprints for scenarios and configuration mappings.

The run store keys cached results by *what was simulated*, not by how
the caller happened to spell it: two :class:`~repro.simulation.scenario.Scenario`
objects that describe the same timeline under the same knobs must hash
to the same fingerprint, and any change that can alter a run's output
(a plenary month, a session length, the team policy, the model version)
must change it.

The fingerprint deliberately **excludes the seed** — the store's unit of
work is ``(fingerprint, seed)``, so one fingerprint indexes the whole
replicate family of a scenario.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from typing import Any, Dict, Iterable, List, Mapping

from repro.simulation.scenario import Scenario

__all__ = [
    "canonical_json",
    "config_fingerprint",
    "scenario_payload",
    "scenario_fingerprint",
    "scenario_fingerprints",
    "scenario_summary",
]


def _model_version() -> str:
    # Imported lazily so repro.store never participates in an import
    # cycle with the repro package root.
    from repro import __version__

    return __version__


def canonical_json(payload: Any) -> str:
    """Serialize ``payload`` to a canonical, byte-stable JSON string.

    Keys are sorted and separators fixed, so mappings that differ only
    in insertion order serialize identically; floats use Python's
    shortest round-trip repr, so they parse back bit-identical.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON of an arbitrary config mapping."""
    return hashlib.sha256(canonical_json(config).encode("ascii")).hexdigest()


def scenario_payload(scenario: Scenario) -> Dict[str, Any]:
    """The scenario's semantic content: every knob except the seed.

    The model version rides along so results cached under one release
    are never served after the simulator's behaviour changes.
    """
    payload = asdict(scenario)
    payload.pop("seed", None)
    payload["model_version"] = _model_version()
    return payload


def scenario_fingerprint(scenario: Scenario) -> str:
    """Stable content hash identifying a scenario across processes."""
    return config_fingerprint(scenario_payload(scenario))


def scenario_fingerprints(scenarios: Iterable[Scenario]) -> List[str]:
    """:func:`scenario_fingerprint` of each scenario, in order.

    A replicate family differs only by seed, so each distinct seed-free
    scenario is hashed once per call.  The memo key is the ``repr`` of
    every field but the seed, which tells apart values that compare
    equal but serialize differently (``1`` vs ``1.0``, ``True`` vs
    ``1``).
    """
    memo: Dict[Any, str] = {}
    fingerprints = []
    for scenario in scenarios:
        key = type(scenario), repr([
            getattr(scenario, f.name)
            for f in fields(scenario)
            if f.name != "seed"
        ])
        fingerprint = memo.get(key)
        if fingerprint is None:
            fingerprint = memo[key] = scenario_fingerprint(scenario)
        fingerprints.append(fingerprint)
    return fingerprints


def scenario_summary(scenario: Scenario) -> Dict[str, Any]:
    """Human-readable manifest entry for a fingerprint."""
    return {
        "name": scenario.name,
        "plenaries": len(scenario.plenaries),
        "hackathons": scenario.hackathon_count(),
        "team_policy": scenario.team_policy,
        "end_month": scenario.end_month,
        "plugin": scenario.plugin,
        "spec_version": scenario.spec_version,
        "model_version": _model_version(),
    }
