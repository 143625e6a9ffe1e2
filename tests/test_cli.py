import copy
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from vanhove import (
    CosmoState,
    MollifierPolicy,
    ModeSet,
    PhaseGrid,
    constant_potential,
    cosmo_weak_limit,
    diagonalize_remaining,
    enumerate_fock,
    solve_scale_factor,
    sqrt_prime_modes,
    trajectory_ensemble,
)
from vanhove._csv import read_csv
from vanhove.cli import main
from vanhove.config import ConfigError, config_hash, load_config
from vanhove.cosmology import DEFAULT_EPS_SHELL
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

    def test_hash_stable_under_key_order(self):
        a = {"kind": "evolve", "x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1, "kind": "evolve"}
        assert config_hash(a) == config_hash(b)


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
        assert list(out.iterdir()) == []


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
        assert list((tmp_path / "table").iterdir()) == []

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
        assert "a_out" in capsys.readouterr().err
        assert list(out.iterdir()) == []

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
        assert "stage 'fock-basis'" in err
        assert "missing components: of the 3 energy shells, shell 1 has 2" in err
        assert list(out.iterdir()) == []

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
        assert "stage 'fock-basis'" in err
        assert "l values extra components" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("im", [[[0.0]], [[0.0, 0.0, 0.0, 0.0]]])
    def test_explicit_im_of_another_shape_is_2(self, tmp_path, capsys, im):
        # numpy would broadcast either against the 4 x 4 re
        cfg = self.config()
        cfg["state"]["im"] = im
        out = tmp_path / "out"
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        assert "field 'state/im' has shape" in capsys.readouterr().err
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

    def test_random_state_requires_seed(self, tmp_path):
        cfg = self.config()
        cfg["state"] = {"type": "random", "coherence": 0.5}
        del cfg["trajectory"]
        rc = main(["cosmo", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert list((tmp_path / "out").iterdir()) == []
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


def test_readme_configs_load_and_evolve_example_runs(tmp_path):
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
