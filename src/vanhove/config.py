"""Experiment configuration: JSON schema, loading, canonical hashing.

Configs are strict JSON: unknown fields are errors, not warnings.  One
schema covers every experiment kind; each union in it is picked by a tag
field (``kind``, a descriptor's ``type``, a potential's ``family``), so a
refusal names the offending field.  ``load_config`` parses, validates,
and resolves table paths relative to the config file.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import jsonschema

from .errors import ConfigError

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_PATH = {"type": "string"}
# a property that must be absent: every value fails it, and, unlike the
# schema False, its refusal names the property
_ABSENT = {"not": {}}


def _strict(properties: dict, *required: str) -> dict:
    """An object with only the given properties, the named ones required."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(required),
        "additionalProperties": False,
    }


def _tagged(tag: str, variants: dict) -> dict:
    """An object whose ``tag`` value picks one of ``variants``: tag value ->
    _strict schema of the other fields.  The variants form one if/then/else
    chain in declaration order, so validation tests tags only up to the
    matching one; a variant's ``then`` applies only when the tag is present
    and holds its value, so a refusal names a field of the chosen variant."""
    chain = True
    for value, schema in reversed(variants.items()):
        chain = {
            "if": {"properties": {tag: {"const": value}}, "required": [tag]},
            "then": {**schema, "properties": {tag: True, **schema["properties"]}},
            "else": chain,
        }
    return {
        "type": "object",
        "properties": {tag: {"enum": list(variants)}},
        "required": [tag],
        **chain,
    }


DESCRIPTOR = _tagged(
    "type",
    {
        "gaussian": _strict({"mu": _NUM, "sigma": _POS, "amplitude": _NUM}, "mu", "sigma"),
        "lorentzian": _strict(
            {"center": _NUM, "gamma": _POS, "amplitude": _NUM}, "center", "gamma"
        ),
        "uniform": _strict({}),
        "point": _strict({"omega": _NONNEG}, "omega"),
        "table": _strict({"path": _PATH}, "path"),
    },
)

# the keys of these blocks are the keyword arguments of make_grid,
# state_from_descriptors, observable_from_descriptors, decay_profile and
# PhaseGrid
GRID = _strict(
    {
        "omega_max": _POS,
        "n": {"type": "integer", "minimum": 2},
        "scheme": {"enum": ["uniform", "chebyshev"]},
    },
    "omega_max", "n",
)

STATE = _strict(
    {"singular": DESCRIPTOR, "regular": DESCRIPTOR, "normalize": {"type": "boolean"}},
    "singular",
)

OBSERVABLE = _strict({"singular": DESCRIPTOR, "regular": DESCRIPTOR})

TIMES = _strict(
    {"start": _NUM, "stop": _NUM, "count": {"type": "integer", "minimum": 1}},
    "start", "stop", "count",
)

_RANGE = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}
_MATRIX = {"type": "array", "items": {"type": "array", "items": _NUM}}

PHASE_GRID = _strict(
    {
        "q_range": _RANGE,
        "p_range": _RANGE,
        "nq": {"type": "integer", "minimum": 2},
        "np": {"type": "integer", "minimum": 2},
    },
    "q_range", "p_range", "nq", "np",
)

PHASE_FUNCTION = _strict(
    {"type": {"enum": ["harmonic", "kinetic", "momentum", "coordinate"]}}, "type"
)

_CLOSED_FORM = _strict({"lambda": _NONNEG, "a1": _POS}, "a1")

POTENTIAL = _tagged(
    "family",
    {
        "constant": _CLOSED_FORM,
        "quadratic-cap": _CLOSED_FORM,
        "table": _strict({"a1": _POS, "path": _PATH}, "a1", "path"),
    },
)

MODES = {
    **_strict(
        {
            "k_values": {"type": "array", "items": _POS, "minItems": 1},
            "generator": {"enum": ["sqrt-primes"]},
            "count": {"type": "integer", "minimum": 1},
            "scale": _POS,
            "m": _NONNEG,
            "a_out": _POS,
        },
        "m", "a_out",
    ),
    # explicit moduli, or the generator with its count and optional scale
    "if": {"required": ["k_values"]},
    "then": {"properties": {"generator": _ABSENT, "count": _ABSENT, "scale": _ABSENT}},
    "else": {"required": ["generator", "count"]},
}

COSMO_STATE = _tagged(
    "type",
    {
        "uniform": _strict({}),
        "random": _strict({"coherence": {"type": "number", "minimum": 0, "maximum": 1}}),
        "explicit": _strict({"re": _MATRIX, "im": _MATRIX}, "re"),
    },
)

TRAJECTORY = {
    **_strict(
        {
            "phase_grid": PHASE_GRID,
            "epsilon": _POS,
            "invariants": {"type": "array", "items": PHASE_FUNCTION, "minItems": 1},
            "a0_points": {"type": "array", "items": _NUM, "minItems": 1},
            "l_values": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "array", "items": _NUM}},
            },
        },
        "phase_grid", "epsilon", "invariants", "a0_points",
    ),
    # the default l = (shell energy,) serves a single invariant only
    "if": {"properties": {"invariants": {"minItems": 2}}, "required": ["invariants"]},
    "then": {"required": ["l_values"]},
}

_SEED = {"type": "integer", "minimum": 0}

# experiment kind -> schema of the config's other fields
KIND_SCHEMAS = {
    "evolve": {
        **_strict(
            {
                "seed": _SEED,
                "grid": GRID,
                "state": STATE,
                "observable": OBSERVABLE,
                "times": TIMES,
                "threshold": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "expected_rate": _POS,
                "rate_rtol": _POS,
            },
            "grid", "state", "observable", "times",
        ),
        # a tolerance without the rate it bounds checks nothing
        "dependentRequired": {"rate_rtol": ["expected_rate"]},
    },
    "weak-limit": _strict(
        {
            "seed": _SEED,
            "grid": GRID,
            "state": STATE,
            "observable": OBSERVABLE,
            "times": TIMES,
            "t_min": _NUM,
            "tolerance": _POS,
        },
        "grid", "state", "observable", "times",
    ),
    "wigner": {
        **_strict(
            {
                "seed": _SEED,
                "grid": GRID,
                "phase_grid": PHASE_GRID,
                "hamiltonian": PHASE_FUNCTION,
                "state": STATE,
                "observable": _strict({"singular": DESCRIPTOR}, "singular"),
                "epsilon": _POS,
                "tolerance": _POS,
            },
            "grid", "phase_grid", "hamiltonian", "state",
        ),
        "dependentRequired": {"tolerance": ["observable"]},
    },
    "cosmo": _strict(
        {
            "seed": _SEED,
            "potential": POTENTIAL,
            "a0": _NONNEG,
            "branch": {"enum": [1, -1]},
            "eta_max": _POS,
            "samples": {"type": "integer", "minimum": 2},
            "modes": MODES,
            "n_max": {"type": "integer", "minimum": 1},
            "omega_cut": {"type": ["number", "null"], "minimum": 0},
            "eps_shell": _POS,
            "state": COSMO_STATE,
            "trajectory": TRAJECTORY,
        },
        "potential", "a0", "branch", "eta_max", "modes", "n_max", "state",
    ),
    "validate": _strict({"grid": GRID, "state": STATE}, "grid", "state"),
    "oracle": {
        **_strict(
            {
                "seed": _SEED,
                "target": {"enum": ["pair", "cosmo-expectation"]},
                "trials": {"type": "integer", "minimum": 1},
                "tolerance": _POS,
                "n": {"type": "integer", "minimum": 2},
                "modes": MODES,
                "n_max": {"type": "integer", "minimum": 1},
                "t_max": _POS,
            },
            "target",
        ),
        # each target reads only its own size fields
        "if": {"properties": {"target": {"const": "cosmo-expectation"}}},
        "then": {"required": ["modes"], "properties": {"n": _ABSENT}},
        "else": {"properties": {"modes": _ABSENT, "n_max": _ABSENT, "t_max": _ABSENT}},
    },
}

CONFIG = _tagged("kind", KIND_SCHEMAS)
_VALIDATOR = jsonschema.Draft202012Validator(CONFIG)

# the RNG behind every randomized descriptor; counter-based so any
# implementation can reproduce the stream from (seed, draw order)
RANDOM_GENERATOR = "philox4x64"


def load_config(path) -> dict:
    """Parse and validate an experiment config; table paths become absolute.

    Raises ConfigError with the offending line (parse errors), the
    literal (NaN, Infinity or -Infinity, which Python's json would accept,
    or a number that does not fit a float64) or field path (schema
    violations).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")

    def refuse(literal):
        raise ConfigError(f"{path}: {literal} is not JSON; a config takes finite numbers only")

    def finite(parse):
        def checked(literal):
            if not math.isfinite(float(literal)):
                raise ConfigError(
                    f"{path}: {literal} does not fit a float64; a config takes finite numbers only"
                )
            return parse(literal)
        return checked

    try:
        config = json.loads(
            path.read_text(),
            parse_constant=refuse, parse_float=finite(float), parse_int=finite(int),
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None

    errors = sorted(_VALIDATOR.iter_errors(config), key=lambda e: list(map(str, e.path)))
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
