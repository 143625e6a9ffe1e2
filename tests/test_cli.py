import ast
import copy
import hashlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vanhove import (
    CosmoState,
    MollifierPolicy,
    ModeSet,
    PhaseGrid,
    constant_potential,
    cosmo_weak_limit,
    diagonalize_remaining,
    enumerate_fock,
    make_grid,
    solve_scale_factor,
    sqrt_prime_modes,
    trajectory_ensemble,
)
from vanhove._csv import read_csv
from vanhove.cli import _build_parser, main
from vanhove import config as config_module
from vanhove.config import (
    COSMO_STATE,
    DESCRIPTOR,
    KIND_SCHEMAS,
    PHASE_FUNCTION,
    POTENTIAL,
    ConfigError,
    config_hash,
    load_config,
)
from vanhove.cosmology import DEFAULT_EPS_SHELL
from vanhove import harness
from vanhove.harness import _Run, run_experiment
from vanhove.wigner import coordinate_field, momentum_field


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def refactor_gate():
    """``tools/refactor_gate.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        "refactor_gate", Path(__file__).resolve().parent.parent / "tools" / "refactor_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def test_refactor_gate_reports_added_removed_and_changed(tmp_path, monkeypatch, capsys):
    gate = refactor_gate()
    now = {"a": {"x.csv": "1", "y.csv": "2"}, "b": {"z.csv": "3"}}
    monkeypatch.setattr(gate, "gate", lambda workdir: now)
    earlier = tmp_path / "earlier.json"
    earlier.write_text(json.dumps({"a": {"x.csv": "1", "y.csv": "0", "w.csv": "4"}}))
    assert gate.main(["--against", str(earlier)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "added: b/z.csv", "removed: a/w.csv", "changed: a/y.csv"]
    earlier.write_text(json.dumps(now))
    assert gate.main(["--against", str(earlier)]) == 0
    assert capsys.readouterr().err == ""


def test_refactor_gate_refuses_a_directory_its_manifest_does_not_vouch_for(tmp_path, capsys):
    gate = refactor_gate()
    out = tmp_path / "run"
    out.mkdir()
    for name in ("a.csv", "b.csv"):
        (out / name).write_bytes(name.encode())
    listed = {"a.csv": hashlib.sha256(b"a.csv").hexdigest(), "b.csv": "0" * 64}
    manifest = {"artifacts": [{"path": k, "sha256": v} for k, v in listed.items()]}
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as exc:
        gate.vouched(out)
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines() == ["mismatched: run/b.csv"]
    listed["b.csv"] = hashlib.sha256(b"b.csv").hexdigest()
    manifest = {"artifacts": [{"path": k, "sha256": v} for k, v in listed.items()]}
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert gate.vouched(out) == listed
    (out / "c.csv").write_bytes(b"")
    (out / "a.csv").unlink()
    with pytest.raises(SystemExit):
        gate.vouched(out)
    assert capsys.readouterr().err.splitlines() == ["unlisted: run/c.csv", "missing: run/a.csv"]


def gaussian_evolve_config(n=256, **extra):
    cfg = {
        "kind": "evolve",
        "grid": {"omega_max": 10.0, "n": n},
        "state": {
            "singular": {"type": "gaussian", "mu": 5.0, "sigma": 0.5},
            "regular": {"type": "gaussian", "mu": 5.0, "sigma": 0.5},
        },
        "observable": {
            "singular": {"type": "gaussian", "mu": 5.0, "sigma": 0.5},
            "regular": {"type": "gaussian", "mu": 5.0, "sigma": 0.5},
        },
        "times": {"start": 0.0, "stop": 8.0, "count": 33},
    }
    cfg.update(extra)
    return cfg


class TestLoadConfig:
    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "kind": "evolve",\n  oops\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        cfg = gaussian_evolve_config()
        cfg["typo_field"] = 1
        with pytest.raises(ConfigError, match="typo_field"):
            load_config(write_config(tmp_path, cfg))

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="kind"):
            load_config(write_config(tmp_path, {"kind": "explode"}))

    def test_field_path_in_error(self, tmp_path):
        cfg = gaussian_evolve_config()
        cfg["grid"]["n"] = 1
        with pytest.raises(ConfigError, match="grid"):
            load_config(write_config(tmp_path, cfg))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_missing_table_rejected_at_load(self, tmp_path):
        cfg = gaussian_evolve_config()
        cfg["state"]["singular"] = {"type": "table", "path": "ghost.csv"}
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(write_config(tmp_path, cfg))

    def test_table_paths_resolved_relative_to_config(self, tmp_path):
        grid_n = 3
        table = tmp_path / "kern.csv"
        with open(table, "w") as fh:
            fh.write("omega,re,im\n")
            for w in np.linspace(0.0, 10.0, grid_n):
                fh.write(f"{float(w)!r},1.0,0.0\n")
        cfg = gaussian_evolve_config(n=grid_n)
        cfg["state"]["singular"] = {"type": "table", "path": "kern.csv"}
        loaded = load_config(write_config(tmp_path, cfg))
        assert loaded["state"]["singular"]["path"] == str(table.resolve())

    @pytest.mark.parametrize("literal, section, key", [
        ("NaN", None, "threshold"), ("Infinity", "grid", "omega_max"), ("-Infinity", "times", "stop"),
    ])
    def test_non_json_number_literal_is_2(self, tmp_path, capsys, literal, section, key):
        # Python's json writes and reads these three literals; JSON has none
        cfg = gaussian_evolve_config()
        (cfg[section] if section else cfg)[key] = float(literal)
        path = write_config(tmp_path, cfg)
        assert f": {literal}" in path.read_text()
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        assert f"{literal} is not JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["1e400", "1" * 401], ids=["1e400", "401-digits"])
    def test_number_beyond_float64_is_2(self, tmp_path, capsys, literal):
        # json reads the first as inf, and the second as an int no float holds
        path = write_config(tmp_path, gaussian_evolve_config(expected_rate=2.0))
        path.write_text(path.read_text().replace('"expected_rate": 2.0',
                                                 f'"expected_rate": {literal}'))
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        assert f"{literal} does not fit a float64" in capsys.readouterr().err
        assert not out.exists()

    def test_hash_stable_under_key_order(self):
        a = {"kind": "evolve", "x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1, "kind": "evolve"}
        assert config_hash(a) == config_hash(b)


def _earlier_tagged(tag: str, variants: dict) -> dict:
    """The earlier rendering of a tagged union: an ``allOf`` of independent
    if/then branches, each of which jsonschema tests."""
    branches = [
        {
            "if": {"properties": {tag: {"const": value}}, "required": [tag]},
            "then": {**schema, "properties": {tag: True, **schema["properties"]}},
        }
        for value, schema in variants.items()
    ]
    return {
        "type": "object",
        "properties": {tag: {"enum": list(variants)}},
        "required": [tag],
        "allOf": branches,
    }


def earlier_config_schema() -> dict:
    """``vanhove.config.CONFIG`` built from the same schema data with
    ``_earlier_tagged`` in place of ``_tagged``."""
    tree = ast.parse(Path(config_module.__file__).read_text())
    earlier = ast.parse(textwrap.dedent(inspect.getsource(_earlier_tagged))).body[0]
    earlier.name = "_tagged"
    tree.body = [earlier if isinstance(node, ast.FunctionDef) and node.name == "_tagged"
                 else node for node in tree.body]
    namespace = {"__name__": "vanhove.earlier_config", "__package__": "vanhove"}
    exec(compile(tree, config_module.__file__, "exec"), namespace)
    return namespace["CONFIG"]


def _places(node, at=()):
    """(path, value) for ``node`` and every value inside it."""
    yield at, node
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _places(value, (*at, key))


def _container(config, at):
    for key in at[:-1]:
        config = config[key]
    return config


_TAGS = {
    "kind": list(KIND_SCHEMAS),
    "family": POTENTIAL["properties"]["family"]["enum"],
    "type": [t for union in (DESCRIPTOR, COSMO_STATE, PHASE_FUNCTION)
             for t in union["properties"]["type"]["enum"]],
}


@st.composite
def one_field_mutations(draw, configs):
    """One of ``configs`` with one field dropped, added, replaced or given
    another tag."""
    config = copy.deepcopy(draw(st.sampled_from(configs)))
    places = list(_places(config))
    op = draw(st.sampled_from(["drop", "add", "replace", "switch"]))
    if op == "add":
        draw(st.sampled_from([v for _, v in places if isinstance(v, dict)]))["unknown"] = 1
    elif op == "switch":
        node = draw(st.sampled_from([v for _, v in places if isinstance(v, dict)
                                     and _TAGS.keys() & v.keys()]))
        [tag] = _TAGS.keys() & node.keys()
        node[tag] = draw(st.sampled_from([t for t in _TAGS[tag] if t != node[tag]]))
    else:
        at = draw(st.sampled_from([at for at, _ in places if at and (
            op == "replace" or isinstance(_container(config, at), dict))]))
        if op == "drop":
            del _container(config, at)[at[-1]]
        else:
            _container(config, at)[at[-1]] = draw(st.sampled_from([True, "table.csv", None, -1]))
    return config


@pytest.fixture(scope="module")
def gate_configs():
    return list(refactor_gate().RUNS.values())


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    """A directory holding the tables the gate configs name, as empty files:
    load_config only checks that they exist."""
    directory = tmp_path_factory.mktemp("configs")
    for name in ("table.csv", "potential.csv"):
        (directory / name).touch()
    return directory


_EARLIER = jsonschema.Draft202012Validator(earlier_config_schema())


@settings(max_examples=300)
@given(data=st.data())
def test_unions_as_a_chain_keep_every_refusal(gate_configs, table_dir, data):
    # the accept or refuse decision, and the refusal's text, of the earlier
    # rendering, on one-field mutations of every refactor-gate config
    config = data.draw(one_field_mutations(gate_configs))
    path = table_dir / "config.json"
    path.write_text(json.dumps(config))
    try:
        load_config(path)
    except ConfigError as exc:
        refusal = str(exc).removeprefix(f"{path}: ")
    else:
        refusal = None
    errors = sorted(_EARLIER.iter_errors(config), key=lambda e: list(map(str, e.path)))
    expected = None
    if errors:
        where = "/".join(map(str, errors[0].path)) or "<root>"
        expected = f"field '{where}': {errors[0].message}"
    assert refusal == expected


class TestExitCodes:
    def test_evolve_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gaussian_evolve_config())
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "decay.csv" in capsys.readouterr().out

    def test_kind_subcommand_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gaussian_evolve_config())
        rc = main(["wigner", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def test_config_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        rc = main(["evolve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_validate_failure_is_1(self, tmp_path, capsys):
        cfg = {
            "kind": "validate",
            "grid": {"omega_max": 10.0, "n": 32},
            "state": {
                "singular": {"type": "gaussian", "mu": 5.0, "sigma": 1.0, "amplitude": 2.0},
                "normalize": False,
            },
        }
        rc = main(["validate", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "normalization" in err
        report = json.loads((tmp_path / "out" / "validation.json").read_text())
        assert not report["ok"]
        names = [v["invariant"] for v in report["violations"]]
        assert "normalization" in names

    def test_validate_success_is_0(self, tmp_path):
        cfg = {
            "kind": "validate",
            "grid": {"omega_max": 10.0, "n": 32},
            "state": {"singular": {"type": "gaussian", "mu": 5.0, "sigma": 1.0}},
        }
        rc = main(["validate", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_validation_records_each_margin(self, tmp_path):
        # the refactor gate's two validate configs, and the gate's first draft
        # of the regular one (mu = 5), whose cutoff amplitude is the plain one's
        gate = refactor_gate()
        draft = copy.deepcopy(gate.RUNS["validate-regular"])
        draft["state"]["regular"]["mu"] = 5.0
        configs = {"validate": gate.RUNS["validate"],
                   "validate-regular": gate.RUNS["validate-regular"], "draft": draft}
        written = {}
        for name, cfg in configs.items():
            out = tmp_path / name
            assert main(["validate", "--config", str(write_config(tmp_path, cfg, f"{name}.json")),
                         "--out", str(out)]) == 1  # both fail normalization on purpose
            written[name] = (out / "validation.json").read_bytes()
        assert len(set(written.values())) == 3
        plain, draft = json.loads(written["validate"]), json.loads(written["draft"])
        assert plain["cutoff_amplitude"] == draft["cutoff_amplitude"]
        assert plain["hermiticity_defect"] == 0.0
        assert 0.0 < draft["hermiticity_defect"] <= draft["hermiticity_tolerance"]
        for quantity, tolerance in [("singular_imag_max", "singular_imag_tolerance"),
                                    ("singular_min", "singular_min_floor"),
                                    ("normalization_residual", "normalization_tolerance")]:
            assert plain[quantity] == draft[quantity]
            assert isinstance(plain[tolerance], float)
        assert plain["normalization_residual"] > plain["normalization_tolerance"]

    def test_kernel_table_long_row_is_2(self, tmp_path, capsys):
        (tmp_path / "kern.csv").write_text("omega,re,im\n0.0,1.0,0.0,9\n10.0,1.0,0.0\n")
        cfg = {
            "kind": "validate",
            "grid": {"omega_max": 10.0, "n": 2},
            "state": {"singular": {"type": "table", "path": "kern.csv"}},
        }
        rc = main(["validate", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "kern.csv line 2 has 4 cells, expected 3 (omega,re,im)" in err

    def test_kernel_table_nan_value_is_2(self, tmp_path, capsys):
        (tmp_path / "kern.csv").write_text("omega,re,im\n0.0,nan,0.0\n10.0,1.0,0.0\n")
        cfg = {
            "kind": "validate",
            "grid": {"omega_max": 10.0, "n": 2},
            "state": {"singular": {"type": "table", "path": "kern.csv"}},
        }
        rc = main(["validate", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "kern.csv: re/im at omega=0.0 is not finite" in capsys.readouterr().err

    def test_oracle_requires_seed(self, tmp_path, capsys):
        cfg = {"kind": "oracle", "target": "pair", "n": 8, "trials": 2}
        rc = main(["oracle", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["oracle", "cosmo"])
    def test_negative_seed_is_2(self, tmp_path, capsys, kind):
        cfg = {"kind": "oracle", "target": "pair", "n": 8, "trials": 2, "seed": 3}
        if kind == "cosmo":
            cfg = {**TestCosmoKind().config(), "state": {"type": "random", "coherence": 0.5},
                   "seed": 3}
        out = tmp_path / "out"
        rc = main([kind, "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
                   "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "seed -1 is negative" in err and "--seed" in err and "'seed'" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["oracle", "cosmo"])
    def test_missing_seed_is_2_and_leaves_no_output_directory(self, tmp_path, capsys, kind):
        cfg = {"kind": "oracle", "target": "pair", "trials": 2}
        if kind == "cosmo":
            cfg = {**TestCosmoKind().config(), "state": {"type": "random", "coherence": 0.5}}
        out = tmp_path / "out"
        rc = main([kind, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        assert "provide 'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_size_limit(self, tmp_path, capsys):
        cfg = {"kind": "oracle", "target": "pair", "n": 5000, "trials": 1, "seed": 1}
        rc = main(["oracle", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "refuses" in capsys.readouterr().err

    def test_setup_error_is_2(self, tmp_path, capsys):
        # epsilon below the window's energy resolution: wigner raises a plain
        # ValueError, which only the stage annotation turns into exit 2
        cfg = {
            "kind": "wigner",
            "grid": {"omega_max": 0.5, "n": 8},
            "phase_grid": {"q_range": [4.0, 5.0], "p_range": [4.0, 5.0], "nq": 11, "np": 11},
            "hamiltonian": {"type": "harmonic"},
            "state": {"singular": {"type": "uniform"}},
            "epsilon": 0.5,
        }
        rc = main(["wigner", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage 'state-density'" in err
        assert "widen epsilon" in err


class TestParser:
    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_no_seed_carried_between_calls(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "oracle", "target": "pair", "n": 8, "trials": 2})
        # options may come before the kind
        seeded = ["--seed", "3", "--config", str(cfg), "oracle", "--out", str(tmp_path / "a")]
        assert main(seeded) == 0
        capsys.readouterr()
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
        assert "provide 'seed'" in capsys.readouterr().err

    def test_unknown_kind_is_2_and_usage_lists_the_kinds(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explode", "--config", "c.json", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: vanhove")
        assert "{evolve,weak-limit,wigner,cosmo,validate,oracle}" in err


class TestEvolveArtifacts:
    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg = gaussian_evolve_config(threshold=0.01, expected_rate=0.125)
        rc = main(["evolve", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool_version"]
        assert manifest["config_hash"] == config_hash(load_config(write_config(tmp_path, cfg)))
        listed = {a["path"] for a in manifest["artifacts"]}
        assert listed == {"decay.csv", "summary.json"}
        for item in manifest["artifacts"]:
            digest = hashlib.sha256((out / item["path"]).read_bytes()).hexdigest()
            assert digest == item["sha256"]
        assert all(s["seconds"] >= 0 for s in manifest["stages"])

    def test_decay_csv_shape(self, tmp_path):
        out = tmp_path / "out"
        main(["evolve", "--config", str(write_config(tmp_path, gaussian_evolve_config())),
              "--out", str(out)])
        raw = (out / "decay.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")
        lines = raw.decode().splitlines()
        assert lines[0] == "t,offdiag_abs,expectation"
        assert len(lines) == 34

    def test_rate_check_failure_is_1(self, tmp_path, capsys):
        cfg = gaussian_evolve_config(expected_rate=0.5)  # wrong on purpose
        rc = main(["evolve", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "rate" in capsys.readouterr().err


class TestWeakLimitKind:
    def config(self, tolerance):
        cfg = gaussian_evolve_config()
        cfg["kind"] = "weak-limit"
        cfg["times"] = {"start": 20.0, "stop": 60.0, "count": 9}
        cfg["tolerance"] = tolerance
        return cfg

    def test_pass(self, tmp_path):
        rc = main(["weak-limit", "--config",
                   str(write_config(tmp_path, self.config(1e-6))),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["max_deviation"] < 1e-6
        limit_lines = (tmp_path / "out" / "limit_state.csv").read_text().splitlines()
        assert limit_lines[0] == "omega,rho"

    def test_fail(self, tmp_path):
        rc = main(["weak-limit", "--config",
                   str(write_config(tmp_path, self.config(1e-30))),
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_t_min_past_the_last_sample_is_2(self, tmp_path, capsys):
        # the check would cover no sample, so even a tolerance of 1e-30 passed
        cfg = self.config(1e-30)
        cfg["t_min"] = 61.0
        out = tmp_path / "out"
        rc = main(["weak-limit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        assert "t_min = 61 is past the last time sample t = 60" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["evolve", "weak-limit"])
    def test_reversed_times_are_2(self, tmp_path, capsys, kind):
        # 0 -> 20 fails the weak-limit check (max_deviation 0.785); the same
        # samples listed 20 -> 0 took t_min = 20 and passed
        cfg = gaussian_evolve_config()
        cfg["kind"] = kind
        cfg["times"] = {"start": 20.0, "stop": 0.0, "count": 81}
        out = tmp_path / "out"
        rc = main([kind, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'times/stop' = 0 is before 'times/start' = 20" in err
        assert not out.exists()


class TestDephasingReadBack:
    @pytest.mark.parametrize("kind, name", [("evolve", "decay.csv"), ("weak-limit", "agreement.csv")])
    def test_profile_reads_back_bit_for_bit(self, tmp_path, monkeypatch, kind, name):
        # the profile the run computes, caught on its way to the artifact
        profiles, decay_profile = [], harness.decay_profile

        def spy(*args, **kwargs):
            profiles.append(decay_profile(*args, **kwargs))
            return profiles[-1]

        monkeypatch.setattr(harness, "decay_profile", spy)
        cfg = gaussian_evolve_config(n=512, threshold=0.01)
        cfg["kind"] = kind
        cfg["times"] = {"start": -3.0, "stop": 20.0, "count": 47}
        if kind == "weak-limit":
            del cfg["threshold"]
            cfg["t_min"] = 15.0
        out = tmp_path / "out"
        assert run_experiment(cfg, out).ok
        (profile,) = profiles
        table = read_csv(out / name, ["t", "offdiag_abs", "expectation"])
        columns = [profile.times, profile.offdiag_abs, profile.expectations]
        assert table.tobytes() == np.column_stack(columns).tobytes()
        summary = json.loads((out / "summary.json").read_text())
        if kind == "evolve":
            assert summary["diag_value"] == profile.diag_value
            assert summary["noise_floor"] == profile.noise_floor
        else:
            assert summary["limit_value"] == profile.diag_value


class TestRecurrenceRefusal:
    @staticmethod
    def run(tmp_path, kind, grid, stop):
        cfg = gaussian_evolve_config()
        cfg["kind"] = kind
        cfg["grid"] = grid
        cfg["times"] = {"start": 0.0, "stop": stop, "count": 5}
        return main([kind, "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("kind", ["evolve", "weak-limit"])
    def test_stop_past_window_is_2(self, tmp_path, capsys, kind):
        # n=64 on [0, 10]: 0.5 * recurrence_time = 0.5 * 2 pi * 63 / 10 = 19.8
        rc = self.run(tmp_path, kind, {"omega_max": 10.0, "n": 64}, 40.0)
        assert rc == 2
        err = capsys.readouterr().err
        assert "recurrence_time" in err
        assert "n >= 129" in err
        assert not any((tmp_path / "out").glob("*.csv"))

    def test_stop_past_half_recurrence_is_2(self, tmp_path, capsys):
        # 0.6 * recurrence_time of the n=64 grid: the sample at t equals the
        # one at t - recurrence_time, which lies nearer the origin
        stop = 0.6 * 2.0 * np.pi * 63 / 10.0
        assert self.run(tmp_path, "evolve", {"omega_max": 10.0, "n": 64}, stop) == 2
        assert "0.5 * recurrence_time" in capsys.readouterr().err

    def test_time_beyond_any_grid_is_2(self, tmp_path, capsys):
        rc = self.run(tmp_path, "evolve", {"omega_max": 10.0, "n": 64}, 1e308)
        assert rc == 2
        assert "no grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scheme, stop, needed",
        [("uniform", 40.0, 129), ("chebyshev", 100.0, 30)],
    )
    def test_named_n_is_the_smallest_accepted(self, tmp_path, capsys, scheme, stop, needed):
        grid = {"omega_max": 10.0, "n": needed - 1, "scheme": scheme}
        assert self.run(tmp_path, "evolve", grid, stop) == 2
        assert f"n >= {needed}" in capsys.readouterr().err
        grid["n"] = needed
        assert self.run(tmp_path, "evolve", grid, stop) == 0


class TestWignerKind:
    def test_run_and_binary(self, tmp_path):
        from vanhove import read_phase_field

        cfg = {
            "kind": "wigner",
            "grid": {"omega_max": 3.0, "n": 128},
            "phase_grid": {"q_range": [-2.8, 2.8], "p_range": [-2.8, 2.8],
                           "nq": 201, "np": 201},
            "hamiltonian": {"type": "harmonic"},
            "state": {"singular": {"type": "gaussian", "mu": 1.0, "sigma": 0.3}},
            "observable": {"singular": {"type": "gaussian", "mu": 1.2, "sigma": 0.5}},
            "epsilon": 0.15,
            "tolerance": 0.5,
        }
        out = tmp_path / "out"
        rc = main(["wigner", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["h_mass"] == pytest.approx(1.0, abs=1e-6)
        assert summary["difference"] < 0.5
        field = read_phase_field(out / "density.wpf")
        assert field.values.shape == (201, 201)
        assert field.values.min() >= 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {a["path"]: a for a in manifest["artifacts"]}
        assert set(listed) == {"density.wpf", "summary.json"}
        data = (out / "density.wpf").read_bytes()
        assert listed["density.wpf"]["bytes"] == len(data) == 48 + 201 * 201 * 8
        assert listed["density.wpf"]["sha256"] == hashlib.sha256(data).hexdigest()


def test_record_hashes_an_artifact_a_mib_at_a_time(tmp_path):
    # a writer of more than 2 MiB: the hash reads it back in three chunks
    data = np.random.default_rng(0).bytes(2 * 2**20 + 12345)
    run = _Run(out_dir=tmp_path)
    run.record("blob.bin", lambda path: path.write_bytes(data))
    run.write()
    assert run.artifacts == [{"path": "blob.bin", "sha256": hashlib.sha256(data).hexdigest(),
                              "bytes": len(data)}]


class TestCosmoKind:
    def config(self):
        return {
            "kind": "cosmo",
            "potential": {"family": "constant", "lambda": 2.0, "a1": 1.0},
            "a0": 0.2,
            "branch": 1,
            "eta_max": 1.0,
            "modes": {"k_values": [0.5, 0.5000000000001], "m": 0.0, "a_out": 20.0},
            "n_max": 1,
            "state": {
                "type": "explicit",
                "re": [
                    [0.05, 0, 0, 0],
                    [0, 0.45, 0.18, 0],
                    [0, 0.18, 0.45, 0],
                    [0, 0, 0, 0.05],
                ],
            },
            "trajectory": {
                "phase_grid": {"q_range": [-2.5, 2.5], "p_range": [-2.5, 2.5],
                               "nq": 121, "np": 121},
                "epsilon": 0.12,
                "invariants": [{"type": "momentum"}],
                "a0_points": [0.0],
                "l_values": [[[0.3]], [[1.0], [-1.0]], [[0.6]]],
            },
        }

    def test_full_pipeline(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["cosmo", "--config", str(write_config(tmp_path, self.config())),
                   "--out", str(out)])
        assert rc == 0
        spectrum = (out / "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "omega,label,eigenvalue"
        assert len(spectrum) == 5
        ensemble = (out / "ensemble.csv").read_text().splitlines()
        assert ensemble[0] == "component,l0,a0,probability"
        probs = [float(line.split(",")[-1]) for line in ensemble[1:]]
        assert sum(probs) == pytest.approx(1.0)
        scale = (out / "scale_factor.csv").read_text().splitlines()
        assert scale[0] == "eta,a,S"
        assert len(scale) == 1 + 513
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {a["path"]: a for a in manifest["artifacts"]}
        assert set(listed) == {"scale_factor.csv", "spectrum.csv", "ensemble.csv",
                               "density.wpf", "summary.json"}
        data = (out / "density.wpf").read_bytes()
        assert listed["density.wpf"]["bytes"] == len(data) == 48 + 121 * 121 * 8
        assert listed["density.wpf"]["sha256"] == hashlib.sha256(data).hexdigest()

    def test_csv_artifacts_read_back_bit_exact(self, tmp_path):
        # two invariant fields, so the ensemble has two l columns; every CSV
        # reads back to the objects the run computes, bit for bit
        cfg = self.config()
        cfg["trajectory"]["invariants"] = [{"type": "momentum"}, {"type": "coordinate"}]
        cfg["trajectory"]["l_values"] = [[[0.3, 0.0]], [[1.0, 0.0], [-1.0, 0.0]], [[0.6, 0.0]]]
        out = tmp_path / "out"
        assert main(["cosmo", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0

        solution = solve_scale_factor(constant_potential(2.0, 1.0), 0.2, 1, 1.0)
        modes = ModeSet(cfg["modes"]["k_values"], m=0.0, a_out=20.0)
        matrix = np.array(cfg["state"]["re"], dtype=complex)
        state = CosmoState(enumerate_fock(modes, n_max=1), matrix, DEFAULT_EPS_SHELL)
        pointers = diagonalize_remaining(cosmo_weak_limit(state))
        grid = PhaseGrid(**cfg["trajectory"]["phase_grid"])
        ensemble, _ = trajectory_ensemble(
            pointers, [momentum_field(grid), coordinate_field(grid)],
            MollifierPolicy(cfg["trajectory"]["epsilon"]), [0.0],
            l_values=cfg["trajectory"]["l_values"])

        expected = {
            "scale_factor.csv": (["eta", "a", "S"], np.column_stack(
                [solution.eta_samples, solution.a_samples, solution.s_samples])),
            "spectrum.csv": (["omega", "label", "eigenvalue"], np.array(
                [(pb.omega, i, v) for pb in pointers for i, v in enumerate(pb.eigenvalues)])),
            "ensemble.csv": (["component", "l0", "l1", "a0", "probability"], np.array(
                [(i, *e.l_values, e.a0, e.probability)
                 for i, e in enumerate(ensemble.entries)])),
        }
        assert len(ensemble.entries) == 4
        for name, (header, table) in expected.items():
            assert read_csv(out / name, header).tobytes() == table.tobytes(), name

    def run_table_potential(self, tmp_path, table: str) -> int:
        (tmp_path / "pot.csv").write_text(table)
        cfg = self.config()
        cfg["potential"] = {"family": "table", "path": "pot.csv", "a1": 1.0}
        del cfg["trajectory"]
        return main(["cosmo", "--config", str(write_config(tmp_path, cfg, "table.json")),
                     "--out", str(tmp_path / "table")])

    def test_table_potential(self, tmp_path):
        # a flat table is the constant family sampled: same scale factor bytes
        assert self.run_table_potential(tmp_path, "a,V\n0.0,2.0\n0.5,2.0\n1.0,2.0\n") == 0
        cfg = self.config()
        del cfg["trajectory"]
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "constant")])
        assert rc == 0
        table = (tmp_path / "table" / "scale_factor.csv").read_bytes()
        assert table == (tmp_path / "constant" / "scale_factor.csv").read_bytes()

    def test_table_potential_wrong_header_is_2(self, tmp_path, capsys):
        assert self.run_table_potential(tmp_path, "a,W\n0.0,2.0\n1.0,1.0\n") == 2
        assert "header" in capsys.readouterr().err

    def test_table_potential_non_numeric_cell_is_2(self, tmp_path, capsys):
        assert self.run_table_potential(tmp_path, "a,V\n0.0,two\n1.0,1.0\n") == 2
        assert "'two'" in capsys.readouterr().err

    def test_table_potential_short_row_is_2(self, tmp_path, capsys):
        assert self.run_table_potential(tmp_path, "a,V\n0.0\n1.0,1.0\n") == 2
        err = capsys.readouterr().err
        assert "pot.csv line 2 has 1 cells, expected 2 (a,V)" in err

    def test_table_potential_extra_column_is_2(self, tmp_path, capsys):
        assert self.run_table_potential(tmp_path, "a,V\n0.0,2.0\n1.0,2.0,7.0\n") == 2
        err = capsys.readouterr().err
        assert "pot.csv line 3 has 3 cells, expected 2 (a,V)" in err

    def test_table_potential_zero_inside_support_is_2(self, tmp_path, capsys):
        # the scale factor through an interior zero of V is not unique
        assert self.run_table_potential(tmp_path, "a,V\n0.0,2.0\n0.5,0.0\n1.0,2.0\n") == 2
        err = capsys.readouterr().err
        assert "sample 1 (a = 0.5)" in err
        assert not (tmp_path / "table").exists()

    def test_tol_is_refused(self, tmp_path, capsys):
        # the scale factor is solved in closed form: no tolerance to set
        cfg = self.config()
        cfg["tol"] = 1e-10
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "'tol'" in capsys.readouterr().err

    def test_a_out_must_clear_support(self, tmp_path, capsys):
        cfg = self.config()
        cfg["modes"]["a_out"] = 0.5
        out = tmp_path / "out"
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: stage 'inputs': a_out")
        assert not out.exists()

    def test_sqrt_prime_generator(self, tmp_path):
        cfg = self.config()
        cfg["modes"] = {"generator": "sqrt-primes", "count": 2, "scale": 0.5,
                        "m": 0.0, "a_out": 20.0}
        cfg["state"] = {"type": "uniform"}
        del cfg["trajectory"]
        out = tmp_path / "out"
        assert main(["cosmo", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        rows = (out / "spectrum.csv").read_text().splitlines()[1:]
        omega = np.array([float(row.split(",")[0]) for row in rows])
        modes = ModeSet(sqrt_prime_modes(2, 0.5), 0.0, 20.0)
        assert np.array_equal(omega, enumerate_fock(modes, 1).energies)

    @pytest.mark.parametrize("modes, message", [
        ({"generator": "sqrt-primes"}, "field 'modes': 'count' is a required property"),
        ({"k_values": [0.5], "generator": "sqrt-primes", "count": 1},
         "field 'modes/count': 1 should not be valid"),
        ({"k_values": [0.5], "scale": 2.0}, "field 'modes/scale': 2.0 should not be valid"),
        ({}, "field 'modes': 'generator' is a required property"),
    ])
    def test_modes_need_k_values_or_the_generator(self, tmp_path, capsys, modes, message):
        cfg = self.config()
        cfg["modes"] = {**modes, "m": 0.0, "a_out": 20.0}
        out = tmp_path / "out"
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_state_requires_re(self, tmp_path, capsys):
        cfg = self.config()
        cfg["state"] = {"type": "explicit"}
        out = tmp_path / "out"
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        assert "field 'state': 're' is a required property" in capsys.readouterr().err
        assert not out.exists()

    def test_l_values_must_cover_components(self, tmp_path, capsys):
        cfg = self.config()
        cfg["trajectory"]["l_values"] = [[[0.3]]]
        out = tmp_path / "out"
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage 'trajectories'" in err
        assert "missing components: of the 3 energy shells, shell 1 has 2" in err
        assert not out.exists()

    def test_several_invariants_require_l_values(self, tmp_path, capsys):
        cfg = self.config()
        cfg["trajectory"]["invariants"] = [{"type": "momentum"}, {"type": "coordinate"}]
        del cfg["trajectory"]["l_values"]
        out = tmp_path / "out"
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "field 'trajectory': 'l_values' is a required property" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extend",
        [
            pytest.param(lambda lv: lv.append([[9.0]]), id="fourth-shell"),
            pytest.param(lambda lv: lv[0].append([7.0]), id="second-label-in-shell-0"),
        ],
    )
    def test_extra_l_values_refused(self, tmp_path, capsys, extend):
        cfg = self.config()
        extend(cfg["trajectory"]["l_values"])
        out = tmp_path / "out"
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage 'trajectories'" in err
        assert "l values extra components" in err
        assert not out.exists()

    @pytest.mark.parametrize("im", [[[0.0]], [[0.0, 0.0, 0.0, 0.0]]])
    def test_explicit_im_of_another_shape_is_2(self, tmp_path, capsys, im):
        # numpy would broadcast either against the 4 x 4 re
        cfg = self.config()
        cfg["state"]["im"] = im
        out = tmp_path / "out"
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        assert "field 'state/im' has shape" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "state",
        [
            pytest.param({"re": [[1, 0], [0]]}, id="re"),
            pytest.param({"re": [[1, 0], [0, 0]], "im": [[0, 0], [0]]}, id="im"),
        ],
    )
    def test_explicit_ragged_matrix_is_2(self, tmp_path, capsys, state):
        cfg = self.config()
        cfg["modes"]["k_values"] = [0.5]
        del cfg["trajectory"]
        cfg["state"] = {"type": "explicit", **state}
        field = "state/im" if "im" in state else "state/re"
        out = tmp_path / "out"
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        assert f"field '{field}' has rows of lengths [1, 2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trajectory", [True, False], ids=["trajectory", "no-trajectory"])
    def test_explicit_state_with_a_negative_eigenvalue_is_2(self, tmp_path, capsys, trajectory):
        # Hermitian, trace one and a positive diagonal, but the middle shell
        # block [[0.45, 0.65], [0.65, 0.45]] has eigenvalue -0.2: no state
        cfg = self.config()
        cfg["state"]["re"][1][2] = cfg["state"]["re"][2][1] = 0.65
        if not trajectory:
            del cfg["trajectory"]
        out = tmp_path / "out"
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: stage 'fock-basis': field 'state/re'")
        assert "smallest eigenvalue is -0.2" in err
        assert not out.exists()

    def test_pure_explicit_state_runs(self, tmp_path):
        # |psi><psi| has eigenvalue 1 and three zeros, which eigvalsh may
        # return as rounding-sized negatives
        psi = np.array([1.0, 2.0, 0.0, 3.0]) / np.sqrt(14.0)
        cfg = self.config()
        cfg["state"]["re"] = np.outer(psi, psi).tolist()
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_random_state_requires_seed(self, tmp_path):
        cfg = self.config()
        cfg["state"] = {"type": "random", "coherence": 0.5}
        del cfg["trajectory"]
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out"), "--seed", "11"])
        assert rc == 0


class TestOracleKind:
    def test_pair_oracle_passes(self, tmp_path):
        cfg = {"kind": "oracle", "target": "pair", "n": 16, "trials": 5, "seed": 3}
        out = tmp_path / "out"
        rc = main(["oracle", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "oracle.json").read_text())
        assert report["pass"] and report["max_abs_deviation"] < 1e-10

    def test_compare_oracle_returns_report(self, tmp_path):
        cfg = {"kind": "oracle", "target": "pair", "n": 8, "trials": 3, "seed": 5}
        run_experiment(cfg, tmp_path / "out")
        report = json.loads((tmp_path / "out" / "oracle.json").read_text())
        assert report["pass"] and report["trials"] == 3

    def test_cosmo_oracle_passes(self, tmp_path):
        cfg = {
            "kind": "oracle",
            "target": "cosmo-expectation",
            "modes": {"k_values": [1.0], "m": 0.0, "a_out": 5.0},
            "n_max": 5,
            "trials": 5,
            "t_max": 5.0,
            "seed": 3,
        }
        rc = main(["oracle", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_cosmo_oracle_requires_modes(self, tmp_path, capsys):
        cfg = {"kind": "oracle", "target": "cosmo-expectation", "trials": 2, "seed": 3}
        rc = main(["oracle", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "'modes' is a required property" in capsys.readouterr().err


def _evolve_with_singular(descriptor):
    cfg = gaussian_evolve_config()
    cfg["state"]["singular"] = descriptor
    return cfg


def _cosmo_with(**fields):
    cfg = TestCosmoKind().config()
    cfg.update(fields)
    return cfg


def _explicit_state(**fields):
    return _cosmo_with(state={"type": "explicit", **fields})


_ORACLE_MODES = {"k_values": [1.0], "m": 0.0, "a_out": 5.0}


@pytest.mark.parametrize(
    "make_config, named",
    [
        pytest.param(
            lambda: _evolve_with_singular({"type": "gaussian", "mu": 5.0}),
            "field 'state/singular': 'sigma' is a required property",
            id="gaussian-without-sigma",
        ),
        pytest.param(
            lambda: _evolve_with_singular({"type": "gaussian", "mu": 5.0, "sigma": -1}),
            "field 'state/singular/sigma': -1 is less than or equal to the minimum of 0",
            id="negative-sigma",
        ),
        pytest.param(
            lambda: _evolve_with_singular({"type": "gausian", "mu": 5.0, "sigma": 0.5}),
            "field 'state/singular/type': 'gausian' is not one of",
            id="unknown-descriptor-type",
        ),
        pytest.param(
            lambda: _evolve_with_singular(
                {"type": "gaussian", "mu": 5.0, "sigma": 0.5, "width": 1.0}
            ),
            "field 'state/singular': Additional properties are not allowed "
            "('width' was unexpected)",
            id="extra-descriptor-key",
        ),
        pytest.param(
            lambda: _cosmo_with(state={"type": "uniform", "coherence": 0.3}),
            "field 'state': Additional properties are not allowed "
            "('coherence' was unexpected)",
            id="uniform-state-with-coherence",
        ),
        pytest.param(
            lambda: _cosmo_with(potential={"family": "table", "a1": 1.0}),
            "field 'potential': 'path' is a required property",
            id="table-potential-without-path",
        ),
        pytest.param(
            lambda: {"kind": "oracle", "target": "cosmo-expectation", "seed": 3},
            "field '<root>': 'modes' is a required property",
            id="cosmo-oracle-without-modes",
        ),
        pytest.param(
            lambda: gaussian_evolve_config(rate_rtol=0.1),
            "field '<root>': 'expected_rate' is a dependency of 'rate_rtol'",
            id="rate-rtol-without-expected-rate",
        ),
        pytest.param(
            lambda: {
                "kind": "wigner",
                "grid": {"omega_max": 3.0, "n": 16},
                "phase_grid": {"q_range": [-1, 1], "p_range": [-1, 1], "nq": 3, "np": 3},
                "hamiltonian": {"type": "harmonic"},
                "state": {"singular": {"type": "uniform"}},
                "tolerance": 1e-30,
            },
            "field '<root>': 'observable' is a dependency of 'tolerance'",
            id="wigner-tolerance-without-observable",
        ),
        pytest.param(
            lambda: {"kind": "oracle", "target": "pair", "seed": 3, "t_max": 5.0,
                     "n_max": 3, "modes": _ORACLE_MODES},
            "field 'modes': {'k_values': [1.0], 'm': 0.0, 'a_out': 5.0} should not be valid",
            id="pair-oracle-with-cosmo-sizes",
        ),
        pytest.param(
            lambda: {"kind": "oracle", "target": "cosmo-expectation", "seed": 3, "n": 8,
                     "modes": _ORACLE_MODES},
            "field 'n': 8 should not be valid",
            id="cosmo-oracle-with-n",
        ),
        pytest.param(
            lambda: gaussian_evolve_config(
                observable={"singular": {"type": "uniform"}, "self_adjoint": False}),
            "field 'observable': Additional properties are not allowed "
            "('self_adjoint' was unexpected)",
            id="observable-self-adjoint",
        ),
        pytest.param(
            lambda: _explicit_state(re=[[True, False], [False, True]]),
            "field 'state/re/0/0': True is not of type 'number'",
            id="explicit-state-of-booleans",
        ),
        pytest.param(
            lambda: _explicit_state(re=[[1.0, 0.0], [0.0, 0.0]], im=[0.0, 1.0]),
            "field 'state/im/0': 0.0 is not of type 'array'",
            id="explicit-state-with-1d-im",
        ),
    ],
)
def test_malformed_config_names_field(tmp_path, capsys, make_config, named):
    cfg = make_config()
    out = tmp_path / "out"
    rc = main([cfg["kind"], "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_readme_configs_load_and_evolve_example_runs(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    kinds = []
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.json"
        path.write_text(block)
        kinds.append(load_config(path)["kind"])
        if kinds[-1] == "evolve":
            rc = main(["evolve", "--config", str(path), "--out", str(tmp_path / f"out_{i}")])
            assert rc == 0
    assert "evolve" in kinds

    # the library example runs as printed, and its last two lines show the
    # mean value (rho(t)|O) at the end of the window dephased to the weak limit
    [example] = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    capsys.readouterr()
    exec(compile(example, "README.md", "exec"), {})
    *_, evolved, limit = capsys.readouterr().out.split()
    assert complex(evolved) == pytest.approx(complex(limit), abs=1e-12)


class TestReproducibility:
    def test_identical_runs_identical_checksums(self, tmp_path):
        cfg = {
            "kind": "oracle", "target": "pair", "n": 12, "trials": 4, "seed": 99,
        }
        path = write_config(tmp_path, cfg)
        r1 = run_experiment(load_config(path), tmp_path / "a", seed=None)
        r2 = run_experiment(load_config(path), tmp_path / "b", seed=None)
        sums1 = {a["path"]: a["sha256"] for a in r1.manifest["artifacts"]}
        sums2 = {a["path"]: a["sha256"] for a in r2.manifest["artifacts"]}
        assert sums1 == sums2

    def test_seed_changes_output(self, tmp_path):
        cfg = {"kind": "oracle", "target": "pair", "n": 12, "trials": 4, "seed": 99}
        path = write_config(tmp_path, cfg)
        r1 = run_experiment(load_config(path), tmp_path / "a")
        r2 = run_experiment(load_config(path), tmp_path / "b", seed=100)
        a = {x["path"]: x["sha256"] for x in r1.manifest["artifacts"]}
        b = {x["path"]: x["sha256"] for x in r2.manifest["artifacts"]}
        assert a != b


class TestOutputDirectory:
    @staticmethod
    def wigner_config(observable_path=None):
        cfg = {
            "kind": "wigner",
            "grid": {"omega_max": 3.0, "n": 128},
            "phase_grid": {"q_range": [-2.8, 2.8], "p_range": [-2.8, 2.8],
                           "nq": 201, "np": 201},
            "hamiltonian": {"type": "harmonic"},
            "state": {"singular": {"type": "gaussian", "mu": 1.0, "sigma": 0.3}},
            "epsilon": 0.15,
        }
        if observable_path is not None:
            cfg["observable"] = {"singular": {"type": "table", "path": observable_path}}
        return cfg

    @pytest.mark.parametrize("kind", ["cosmo", "wigner"])
    def test_refused_rerun_leaves_the_previous_run_as_it_was(self, tmp_path, capsys, kind):
        # the cosmo rerun is refused in stage 'trajectories' (l_values of the
        # wrong shape), the wigner rerun in stage 'summary' (an observable
        # table with the wrong header), each after stages that had artifacts
        if kind == "cosmo":
            good = TestCosmoKind().config()
            bad = copy.deepcopy(good)
            bad["trajectory"]["l_values"] = [[[0.3]]]
        else:
            good, bad = self.wigner_config(), self.wigner_bad_observable_table(tmp_path)
        out = tmp_path / "out"
        assert main([kind, "--config", str(write_config(tmp_path, good)), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        rc = main([kind, "--config", str(write_config(tmp_path, bad, "bad.json")),
                   "--out", str(out)])
        assert rc == 2
        assert "stage" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        # exactly the listed artifacts and the manifest, each with its sha256
        refactor_gate().vouched(out)

    @staticmethod
    def complex_singular_weak_limit(tmp_path):
        # a state whose singular table has an imaginary part: decay_profile
        # refuses its diagonal term in stage 'agreement', after the weak limit
        rows = ["omega,re,im\n"]
        for w in make_grid(10.0, 64).points.tolist():
            rho = float(np.exp(-(w - 5.0) ** 2))
            rows.append(f"{w!r},{rho!r},{0.5 * rho!r}\n")
        (tmp_path / "state.csv").write_text("".join(rows))
        cfg = gaussian_evolve_config(n=64)
        cfg.update(kind="weak-limit", times={"start": 0.0, "stop": 10.0, "count": 5})
        cfg["state"] = {"singular": {"type": "table", "path": "state.csv"}, "normalize": False}
        return cfg

    @staticmethod
    def wigner_bad_observable_table(tmp_path):
        (tmp_path / "obs.csv").write_text("omega,bad\n0.0,1.0\n")
        return TestOutputDirectory.wigner_config("obs.csv")

    @staticmethod
    def cosmo_trajectory(**trajectory):
        cfg = TestCosmoKind().config()
        cfg["trajectory"].update(trajectory)
        return cfg

    @pytest.mark.parametrize(
        "make_config, message",
        [
            pytest.param(complex_singular_weak_limit,
                         "setup error: stage 'agreement': diagonal term of a self-adjoint",
                         id="weak-limit-complex-table"),
            pytest.param(wigner_bad_observable_table,
                         "config error: stage 'summary': table", id="wigner-table-header"),
            pytest.param(lambda tmp_path: TestOutputDirectory.cosmo_trajectory(epsilon=0.001),
                         "setup error: stage 'trajectories': mollifier width",
                         id="cosmo-epsilon"),
            pytest.param(lambda tmp_path: TestOutputDirectory.cosmo_trajectory(
                             phase_grid={"q_range": [1.0, 1.0], "p_range": [-2.5, 2.5],
                                         "nq": 121, "np": 121}),
                         "setup error: stage 'trajectories': phase grid ranges",
                         id="cosmo-q-range"),
        ],
    )
    def test_late_refusal_writes_nothing(self, tmp_path, capsys, make_config, message):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        rc = main([cfg["kind"], "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "make_config, module, name, stage",
        [
            (gaussian_evolve_config, harness, "validate_state", "summary"),
            (lambda: TestWeakLimitKind().config(1e-6), harness, "decay_profile", "agreement"),
            (lambda: {**TestOutputDirectory.wigner_config(),
                      "observable": {"singular": {"type": "gaussian", "mu": 1.2, "sigma": 0.5}}},
             harness, "pair", "summary"),
            (lambda: TestCosmoKind().config(), harness.cosmo, "trajectory_ensemble",
             "trajectories"),
            (lambda: {"kind": "validate", "grid": {"omega_max": 10.0, "n": 32},
                      "state": {"singular": {"type": "gaussian", "mu": 5.0, "sigma": 1.0}}},
             harness, "validate_state", "validate"),
            (lambda: {"kind": "oracle", "target": "pair", "n": 8, "trials": 2, "seed": 3},
             harness, "dense_pair_oracle", "pair-trials"),
        ],
        ids=["evolve", "weak-limit", "wigner", "cosmo", "validate", "oracle"],
    )
    def test_value_error_in_the_last_library_call_writes_nothing(
        self, tmp_path, capsys, monkeypatch, make_config, module, name, stage
    ):
        def refuse(*args, **kwargs):
            raise ValueError("refused on purpose")

        monkeypatch.setattr(module, name, refuse)
        cfg = make_config()
        out = tmp_path / "out"
        rc = main([cfg["kind"], "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"setup error: stage '{stage}': refused on purpose\n"
        assert not out.exists()

    def test_failure_in_the_write_stage_leaves_no_manifest(self, tmp_path, capsys, monkeypatch):
        # density.wpf is written after the three cosmo CSVs: no manifest may
        # vouch for the mix of new CSVs and the old density
        path = write_config(tmp_path, TestCosmoKind().config())
        out = tmp_path / "out"
        assert main(["cosmo", "--config", str(path), "--out", str(out)]) == 0

        def refuse(field, path):
            raise ValueError("disk refused the density")

        monkeypatch.setattr(harness, "write_phase_field", refuse)
        assert main(["cosmo", "--config", str(path), "--out", str(out)]) == 2
        assert "setup error: stage 'write': disk refused the density" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_naming_a_file_is_2(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory\n")
        out = taken / "out" if below else taken
        path = write_config(tmp_path, gaussian_evolve_config())
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out}: {taken} exists and is not a directory")
        assert taken.read_bytes() == b"not a directory\n"

    @pytest.mark.parametrize("name", ["decay.csv", "summary.json", "manifest.json"])
    def test_symlinked_artifact_is_replaced_not_written_through(self, tmp_path, name):
        # the output directory is the only write target: a link in it that
        # points outside becomes a regular file, and its target keeps its bytes
        outside = tmp_path / "outside.txt"
        outside.write_bytes(b"not an artifact\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / name).symlink_to(outside)
        cfg = gaussian_evolve_config()
        assert main(["evolve", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        assert outside.read_bytes() == b"not an artifact\n"
        assert not (out / name).is_symlink()
        manifest = json.loads((out / "manifest.json").read_text())
        for item in manifest["artifacts"]:
            digest = hashlib.sha256((out / item["path"]).read_bytes()).hexdigest()
            assert digest == item["sha256"]


class TestThreads:
    def test_threaded_cosmo_matches_serial(self, tmp_path, monkeypatch):
        # --threads is parsed and ignored, and no environment variable is
        # read in its place: any count writes the same artifacts
        monkeypatch.setenv("VANHOVE_THREADS", "lots")
        path = write_config(tmp_path, TestCosmoKind().config())
        digests = []
        for threads in ("1", "4"):
            out = tmp_path / f"threads-{threads}"
            argv = ["cosmo", "--config", str(path), "--out", str(out), "--threads", threads]
            assert main(argv) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert "threads" not in manifest
            digests.append({a["path"]: a["sha256"] for a in manifest["artifacts"]})
        assert digests[0] == digests[1]


DENSITY_SCRIPT = textwrap.dedent(
    """
    import sys
    from pathlib import Path
    from vanhove import MollifierPolicy, PhaseGrid, ShellState, pointer_state, trajectory_ensemble
    from vanhove.cli import main
    from vanhove.wigner import momentum_field, write_phase_field

    out = Path(sys.argv[1])
    assert main(["wigner", "--config", sys.argv[2], "--out", str(out / "wigner")]) == 0
    pgrid = PhaseGrid((-1.0, 1.0), (-1.0, 13.0), 32, 40)
    pointer = pointer_state([
        ShellState(1.0, (0, 1), [[0.5, 0.1], [0.1, 0.3]]),
        ShellState(2.0, (0,), [[0.2]]),
    ])
    _, density = trajectory_ensemble(
        pointer, [momentum_field(pgrid)], MollifierPolicy(0.8), [-0.3, 0.3],
        [[(1.0,), (3.0,)], [(6.0,)]],
    )
    write_phase_field(density.field, out / "ensemble.wpf")
    """
)


def test_densities_do_not_depend_on_blas_threads(tmp_path):
    # the summed densities contract without BLAS, so its thread count
    # cannot reorder their sums
    cfg = write_config(tmp_path, {
        "kind": "wigner",
        "grid": {"omega_max": 10.0, "n": 64},
        "phase_grid": {"q_range": [-5.0, 5.0], "p_range": [-5.0, 5.0], "nq": 128, "np": 128},
        "hamiltonian": {"type": "harmonic"},
        "state": {"singular": {"type": "gaussian", "mu": 5.0, "sigma": 0.8}},
        "epsilon": 0.6,
    })
    src = Path(__file__).resolve().parents[1] / "src"
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"blas-{threads}"
        done = subprocess.run(
            [sys.executable, "-c", DENSITY_SCRIPT, str(out), str(cfg)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
        )
        assert done.returncode == 0, done.stderr
        written[threads] = [(out / p).read_bytes() for p in ("wigner/density.wpf", "ensemble.wpf")]
    assert written["1"] == written["2"]


DECAY_SCRIPT = textwrap.dedent(
    """
    import sys
    from pathlib import Path
    from vanhove.cli import main

    out = Path(sys.argv[1])
    for kind, config in (("evolve", sys.argv[2]), ("weak-limit", sys.argv[3])):
        assert main([kind, "--config", config, "--out", str(out / kind)]) == 0
    """
)


def test_decay_profiles_do_not_depend_on_blas_threads(tmp_path):
    # the split-time contraction's GEMMs must not regroup a sum with the
    # thread count: an evolve run whose state is a dense table, and a
    # factored weak-limit run on a Chebyshev grid, each large enough for
    # OpenBLAS to split its products over two threads
    omega = np.linspace(0.0, 10.0, 64)
    w, v = np.meshgrid(omega, omega, indexing="ij")
    values = np.exp(-((w - 5.0) ** 2 + (v - 5.0) ** 2) / 2.0 - (w - v) ** 2)
    cells = zip(w.ravel().tolist(), v.ravel().tolist(), values.ravel().tolist())
    rows = "".join(f"{a!r},{b!r},{c!r},0.0\n" for a, b, c in cells)
    (tmp_path / "table.csv").write_text("omega,omega_prime,re,im\n" + rows)
    gauss = {"type": "gaussian", "mu": 5.0, "sigma": 0.5}
    evolve = write_config(tmp_path, {
        "kind": "evolve",
        "grid": {"omega_max": 10.0, "n": 64},
        "state": {"singular": gauss, "regular": {"type": "table", "path": "table.csv"}},
        "observable": {"singular": gauss, "regular": gauss},
        "times": {"start": -15.0, "stop": 15.0, "count": 257},
    }, "evolve.json")
    weak = write_config(tmp_path, {
        "kind": "weak-limit",
        "grid": {"omega_max": 10.0, "n": 1024, "scheme": "chebyshev"},
        "state": {"singular": gauss,
                  "regular": {"type": "lorentzian", "center": 5.0, "gamma": 0.6}},
        "observable": {"singular": gauss, "regular": gauss},
        "times": {"start": 0.0, "stop": 60.0, "count": 2001},
        "t_min": 20.0,
    }, "weak.json")
    src = Path(__file__).resolve().parents[1] / "src"
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"blas-{threads}"
        done = subprocess.run(
            [sys.executable, "-c", DECAY_SCRIPT, str(out), str(evolve), str(weak)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
        )
        assert done.returncode == 0, done.stderr
        written[threads] = [(out / p).read_bytes()
                            for p in ("evolve/decay.csv", "weak-limit/agreement.csv")]
    assert written["1"] == written["2"]
