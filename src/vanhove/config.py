"""Experiment configuration: JSON schema, loading, canonical hashing.

Configs are strict JSON: unknown fields are errors, not warnings.  Every
experiment kind has its own schema; ``load_config`` parses, validates,
and resolves table paths relative to the config file.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

from .errors import ConfigError

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}

DESCRIPTOR = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "gaussian"},
                "mu": _NUM,
                "sigma": _POS,
                "amplitude": _NUM,
            },
            "required": ["type", "mu", "sigma"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "lorentzian"},
                "center": _NUM,
                "gamma": _POS,
                "amplitude": _NUM,
            },
            "required": ["type", "center", "gamma"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "uniform"}},
            "required": ["type"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "point"}, "omega": {"type": "number", "minimum": 0}},
            "required": ["type", "omega"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "table"}, "path": {"type": "string"}},
            "required": ["type", "path"],
            "additionalProperties": False,
        },
    ]
}

GRID = {
    "type": "object",
    "properties": {
        "omega_max": _POS,
        "n": {"type": "integer", "minimum": 2},
        "scheme": {"enum": ["uniform", "chebyshev"]},
    },
    "required": ["omega_max", "n"],
    "additionalProperties": False,
}

STATE = {
    "type": "object",
    "properties": {
        "singular": DESCRIPTOR,
        "regular": DESCRIPTOR,
        "normalize": {"type": "boolean"},
    },
    "required": ["singular"],
    "additionalProperties": False,
}

OBSERVABLE = {
    "type": "object",
    "properties": {
        "singular": DESCRIPTOR,
        "regular": DESCRIPTOR,
        "self_adjoint": {"type": "boolean"},
    },
    "additionalProperties": False,
}

TIMES = {
    "type": "object",
    "properties": {
        "start": _NUM,
        "stop": _NUM,
        "count": {"type": "integer", "minimum": 1},
    },
    "required": ["start", "stop", "count"],
    "additionalProperties": False,
}

PHASE_GRID = {
    "type": "object",
    "properties": {
        "q_range": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
        "p_range": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
        "nq": {"type": "integer", "minimum": 2},
        "np": {"type": "integer", "minimum": 2},
    },
    "required": ["q_range", "p_range", "nq", "np"],
    "additionalProperties": False,
}

PHASE_FUNCTION = {
    "type": "object",
    "properties": {"type": {"enum": ["harmonic", "kinetic", "momentum", "coordinate"]}},
    "required": ["type"],
    "additionalProperties": False,
}

POTENTIAL = {
    "type": "object",
    "properties": {
        "family": {"enum": ["constant", "quadratic-cap", "table"]},
        "lambda": {"type": "number", "minimum": 0},
        "a1": _POS,
        "path": {"type": "string"},
    },
    "required": ["family", "a1"],
    "additionalProperties": False,
}

MODES = {
    "type": "object",
    "properties": {
        "k_values": {"type": "array", "items": _POS, "minItems": 1},
        "generator": {"enum": ["sqrt-primes"]},
        "count": {"type": "integer", "minimum": 1},
        "scale": _POS,
        "m": {"type": "number", "minimum": 0},
        "a_out": _POS,
    },
    "required": ["m", "a_out"],
    "additionalProperties": False,
}

COSMO_STATE = {
    "type": "object",
    "properties": {
        "type": {"enum": ["uniform", "random", "explicit"]},
        "coherence": {"type": "number", "minimum": 0, "maximum": 1},
        "re": {"type": "array"},
        "im": {"type": "array"},
    },
    "required": ["type"],
    "if": {"properties": {"type": {"const": "explicit"}}},
    "then": {"required": ["re"]},
    "additionalProperties": False,
}

TRAJECTORY = {
    "type": "object",
    "properties": {
        "phase_grid": PHASE_GRID,
        "epsilon": _POS,
        "invariants": {"type": "array", "items": PHASE_FUNCTION, "minItems": 1},
        "a0_points": {"type": "array", "items": _NUM, "minItems": 1},
        "l_values": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "array", "items": _NUM}},
        },
    },
    "required": ["phase_grid", "epsilon", "invariants", "a0_points"],
    "additionalProperties": False,
}

KIND_SCHEMAS = {
    "evolve": {
        "type": "object",
        "properties": {
            "kind": {"const": "evolve"},
            "seed": {"type": "integer", "minimum": 0},
            "grid": GRID,
            "state": STATE,
            "observable": OBSERVABLE,
            "times": TIMES,
            "threshold": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "expected_rate": _POS,
            "rate_rtol": _POS,
        },
        "required": ["kind", "grid", "state", "observable", "times"],
        "additionalProperties": False,
    },
    "weak-limit": {
        "type": "object",
        "properties": {
            "kind": {"const": "weak-limit"},
            "seed": {"type": "integer", "minimum": 0},
            "grid": GRID,
            "state": STATE,
            "observable": OBSERVABLE,
            "times": TIMES,
            "t_min": _NUM,
            "tolerance": _POS,
        },
        "required": ["kind", "grid", "state", "observable", "times"],
        "additionalProperties": False,
    },
    "wigner": {
        "type": "object",
        "properties": {
            "kind": {"const": "wigner"},
            "seed": {"type": "integer", "minimum": 0},
            "grid": GRID,
            "phase_grid": PHASE_GRID,
            "hamiltonian": PHASE_FUNCTION,
            "state": STATE,
            "observable": {
                "type": "object",
                "properties": {"singular": DESCRIPTOR},
                "required": ["singular"],
                "additionalProperties": False,
            },
            "epsilon": _POS,
            "tolerance": _POS,
        },
        "required": ["kind", "grid", "phase_grid", "hamiltonian", "state"],
        "additionalProperties": False,
    },
    "cosmo": {
        "type": "object",
        "properties": {
            "kind": {"const": "cosmo"},
            "seed": {"type": "integer", "minimum": 0},
            "potential": POTENTIAL,
            "a0": {"type": "number", "minimum": 0},
            "branch": {"enum": [1, -1]},
            "eta_max": _POS,
            "tol": _POS,
            "samples": {"type": "integer", "minimum": 2},
            "modes": MODES,
            "n_max": {"type": "integer", "minimum": 1},
            "omega_cut": {"type": ["number", "null"], "minimum": 0},
            "eps_shell": _POS,
            "state": COSMO_STATE,
            "trajectory": TRAJECTORY,
        },
        "required": [
            "kind", "potential", "a0", "branch", "eta_max", "modes", "n_max", "state",
        ],
        "additionalProperties": False,
    },
    "validate": {
        "type": "object",
        "properties": {
            "kind": {"const": "validate"},
            "grid": GRID,
            "state": STATE,
        },
        "required": ["kind", "grid", "state"],
        "additionalProperties": False,
    },
    "oracle": {
        "type": "object",
        "properties": {
            "kind": {"const": "oracle"},
            "seed": {"type": "integer", "minimum": 0},
            "target": {"enum": ["pair", "cosmo-expectation"]},
            "trials": {"type": "integer", "minimum": 1},
            "tolerance": _POS,
            "n": {"type": "integer", "minimum": 2},
            "modes": MODES,
            "n_max": {"type": "integer", "minimum": 1},
            "t_max": _POS,
        },
        "required": ["kind", "target"],
        "if": {"properties": {"target": {"const": "cosmo-expectation"}}},
        "then": {"required": ["modes"]},
        "additionalProperties": False,
    },
}

# the RNG behind every randomized descriptor; counter-based so any
# implementation can reproduce the stream from (seed, draw order)
RANDOM_GENERATOR = "philox4x64"


def load_config(path) -> dict:
    """Parse and validate an experiment config; table paths become absolute.

    Raises ConfigError with the offending line (parse errors) or field
    path (schema violations).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None

    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    kind = config.get("kind")
    if kind not in KIND_SCHEMAS:
        raise ConfigError(
            f"{path}: field 'kind' must be one of {sorted(KIND_SCHEMAS)}, got {kind!r}"
        )
    validator = jsonschema.Draft202012Validator(KIND_SCHEMAS[kind])
    errors = sorted(validator.iter_errors(config), key=lambda e: list(map(str, e.path)))
    if errors:
        err = errors[0]
        where = "/".join(map(str, err.path)) or "<root>"
        raise ConfigError(f"{path}: field '{where}': {err.message}")

    _absolutize_tables(config, path.parent.resolve())
    return config


def _absolutize_tables(node, base: Path) -> None:
    if isinstance(node, dict):
        if "path" in node and (node.get("type") == "table" or node.get("family") == "table"):
            resolved = (base / node["path"]).resolve()
            if not resolved.exists():
                raise ConfigError(f"referenced table does not exist: {resolved}")
            node["path"] = str(resolved)
        for value in node.values():
            _absolutize_tables(value, base)
    elif isinstance(node, list):
        for value in node:
            _absolutize_tables(value, base)


def config_hash(config: dict) -> str:
    """sha256 over the canonical (sorted, compact) JSON form."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
