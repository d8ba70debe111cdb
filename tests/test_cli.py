"""End-to-end checks for the JSON-config command line front end."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import potkernels
from potkernels.cli import _RUNNERS, main


def run_cli(tmp_path, cfg, *extra, name="config.json", outname="out"):
    """Write cfg to a JSON file, run main quietly, return (code, outdir)."""
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    outdir = tmp_path / outname
    argv = ["--config", str(path), "--out", str(outdir), "--quiet", *extra]
    return main(argv), outdir


def read_json(outdir, name):
    with open(outdir / name) as fh:
        return json.load(fh)


def cstar_config():
    return {"command": "cstar", "p": [0.5, 0.25]}


def min_spec(size):
    return {"family": "min", "s": [float(j) for j in range(1, size + 1)]}


def exp_spec(size, gap=0.5):
    return {"family": "exp", "v": [gap * j for j in range(1, size + 1)]}


class TestCStar:
    def test_constants_are_quoted(self, tmp_path):
        code, outdir = run_cli(tmp_path, cstar_config())
        assert code == 0
        doc = read_json(outdir, "cstar.json")
        assert doc["value"]["value"] == pytest.approx(48.0 / 25.0, abs=1e-12)
        assert doc["value"]["citation"] == "cstar-two-routes"
        assert doc["direct_route"]["value"] == pytest.approx(48.0 / 25.0, abs=1e-9)
        assert doc["phi_l1"]["value"] == pytest.approx(4.0, abs=1e-9)
        assert doc["phi_l1_expected"]["value"] == pytest.approx(4.0, abs=1e-12)
        assert doc["lower_bound"]["value"] == pytest.approx(1.25)
        assert doc["upper_bound"]["value"] == pytest.approx(16.0 / 7.0)

    def test_progress_lines_without_quiet(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cstar_config()))
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert out.rstrip().endswith("ok")


class TestPhi:
    def test_simple_family_routes_agree(self, tmp_path):
        cfg = {"command": "phi", "p": [0.5, 0.25], "n_terms": 50}
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "phi.json")
        assert doc["route_gap"]["value"] < 1e-10
        assert doc["phi_max"]["value"] == pytest.approx(1.0)
        assert "c1" not in doc
        lines = (outdir / "phi.csv").read_text().splitlines()
        assert lines[0].startswith("index,phi")
        assert len(lines) == 51
        first_index, first_phi = lines[1].split(",")[:2]
        assert first_index == "1"
        assert float(first_phi) == pytest.approx(1.0)

    def test_drift_family_reports_c1(self, tmp_path):
        cfg = {"command": "phi", "p": [1 / 3, 5 / 9, 1 / 9], "n_terms": 40}
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "phi.json")
        assert doc["c1"]["value"] == pytest.approx(9.0 / 16.0, abs=1e-12)
        assert doc["route_gap"]["value"] < 1e-10


class TestValidate:
    def test_min_window_runs_all_checks(self, tmp_path):
        cfg = {
            "command": "validate",
            "spec": min_spec(10),
            "window": {"l": 1, "n": 6},
            "f": {"values": [1.0] * 6},
        }
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "validate.json")
        assert doc["result"] == "ok"
        citations = {c["citation"] for c in doc["checks"]}
        assert citations == {
            "window-inverse-identity",
            "generator-duality",
            "q-matrix-signs",
            "inverse-m-matrix",
            "rho-quadratic-form",
        }

    def test_zero_start_min_window_classifies_f(self, tmp_path):
        cfg = {
            "command": "validate",
            "spec": min_spec(8),
            "window": {"l": 0, "n": 5},
            "f": {"values": [1.0] * 5},
        }
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "validate.json")
        ratio = next(
            c for c in doc["checks"] if c["citation"] == "excessive-ratio-test"
        )
        assert ratio["is_excessive"] is True
        assert ratio["is_potential"] is True
        assert ratio["delta"]["value"] == pytest.approx(0.0, abs=1e-12)

    def test_non_excessive_f_exits_one(self, tmp_path, capsys):
        cfg = {
            "command": "validate",
            "spec": min_spec(8),
            "window": {"l": 0, "n": 5},
            "f": {"values": [1.0, 4.0, 9.0, 16.0, 25.0]},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 1
        assert "excessive-ratio-test" in capsys.readouterr().err

    def test_killed_walk_branch(self, tmp_path):
        cfg = {
            "command": "validate",
            "spec": {
                "family": "killed_walk",
                "step_rates": {"-1": 0.5, "1": 0.5},
                "beta": 1.0,
                "radius": 40,
            },
            "window": {"l": 0, "n": 5},
        }
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "validate.json")
        citations = {c["citation"] for c in doc["checks"]}
        assert citations == {"killed-walk-row-sums", "killed-walk-flat-diagonal"}


class TestInvert:
    def test_structured_inverse_artifact(self, tmp_path):
        cfg = {"command": "invert", "spec": min_spec(7), "window": {"l": 0, "n": 6}}
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "invert.json")
        assert doc["residual"]["value"] < 1e-10
        assert doc["residual"]["citation"] == "window-inverse-identity"
        assert doc["artifacts"] == {"inverse.csv": "window-inverse-identity"}
        lines = (outdir / "inverse.csv").read_text().splitlines()
        assert lines[0] == "i,j,value"
        assert len(lines) == 1 + 36


class TestPredict:
    def test_exp_separated_gaps(self, tmp_path):
        cfg = {
            "command": "predict",
            "spec": exp_spec(30),
            "hypotheses": {"f_class": "zero", "alpha": 0.5, "gaps": "separated"},
        }
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "predict.json")
        assert doc["prediction"]["outcome"] == "prediction"
        assert doc["prediction"]["theorem"] == "exp-separated-gaps"
        assert doc["prediction"]["constant"] == pytest.approx(1.0)
        assert doc["prediction"]["normalizer"] == "log(j)"

    def test_no_theorem_is_a_report_not_an_error(self, tmp_path):
        cfg = {
            "command": "predict",
            "spec": exp_spec(30),
            "hypotheses": {
                "f_class": "potential-l1",
                "alpha": 0.5,
                "gaps": "separated",
            },
        }
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "predict.json")
        assert doc["prediction"]["outcome"] == "no-theorem"
        assert doc["prediction"]["reason"]

    def test_unread_hypothesis_exits_two(self, tmp_path, capsys):
        cfg = {
            "command": "predict",
            "spec": min_spec(30),
            "hypotheses": {"f_class": "zero", "alpha": 0.5, "gaps": "bounded"},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "gaps" in capsys.readouterr().err

    def test_unknown_hypothesis_field_exits_two(self, tmp_path, capsys):
        cfg = {
            "command": "predict",
            "spec": exp_spec(30),
            "hypotheses": {"f_class": "zero", "alpha": 0.5, "bogus": 1},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "bogus" in capsys.readouterr().err


class TestSimulate:
    def simulate_config(self, seed=7):
        cfg = {
            "command": "simulate",
            "spec": exp_spec(12, gap=0.3),
            "n": 8,
            "k_half": 1,
            "trials": 5,
            "f": {"values": [0.5] * 8},
        }
        if seed is not None:
            cfg["seed"] = seed
        return cfg

    def test_seed_is_required(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, self.simulate_config(seed=None))
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_artifacts_and_ledger(self, tmp_path):
        code, outdir = run_cli(tmp_path, self.simulate_config())
        assert code == 0
        doc = read_json(outdir, "simulate.json")
        assert doc["alpha"]["value"] == pytest.approx(0.5)
        assert doc["seed"] == 7
        assert doc["rho"]["value"] > 0.0
        assert 0.0 < doc["sandwich"]["lower"]["value"] <= 1.0
        assert set(doc["artifacts"]) == {"samples.csv", "marginals.csv"}
        samples = (outdir / "samples.csv").read_text().splitlines()
        assert samples[0] == "trial,index,value"
        assert len(samples) == 1 + 5 * 8
        marginals = (outdir / "marginals.csv").read_text().splitlines()
        assert marginals[0] == "index,observed_mean,expected_mean"
        assert len(marginals) == 1 + 8

    def test_seed_pins_samples_and_override_changes_them(self, tmp_path):
        _, out1 = run_cli(tmp_path, self.simulate_config(), outname="out1")
        _, out2 = run_cli(tmp_path, self.simulate_config(), outname="out2")
        _, out3 = run_cli(
            tmp_path, self.simulate_config(), "--seed", "8", outname="out3"
        )
        first = (out1 / "samples.csv").read_bytes()
        assert first == (out2 / "samples.csv").read_bytes()
        assert first != (out3 / "samples.csv").read_bytes()


BAND_FAMILIES = {
    "exp": (
        exp_spec(120, gap=0.4),
        {"f_class": "zero", "alpha": 0.5, "gaps": "separated"},
        "exp-separated-gaps",
    ),
    "ar1": (
        {"family": "ar1", "x": [0.5] * 120},
        {"f_class": "zero", "alpha": 0.5, "x_limit": 0.5},
        "ar1-subcritical",
    ),
    "ar1_shifted": (
        {"family": "ar1_shifted", "x": [0.5] * 120, "delta_tilde": 1.5},
        {"f_class": "zero", "alpha": 0.5, "x_limit": 0.5},
        "ar1-subcritical",
    ),
    "ark_gen": (
        {"family": "ark_gen", "p": [0.5, 0.25], "a_sq": 0.4},
        {"f_class": "zero", "alpha": 0.5},
        "ark-transient",
    ),
}


class TestLimsup:
    def limsup_config(self, trials, family="exp"):
        spec, hypotheses, _ = BAND_FAMILIES[family]
        return {
            "command": "limsup",
            "spec": spec,
            "alpha": 0.5,
            "hypotheses": hypotheses,
            "checkpoints": [40, 120],
            "trials": trials,
            "seed": 3,
        }

    @pytest.mark.parametrize("family", sorted(BAND_FAMILIES))
    def test_permanental_trend_with_band(self, tmp_path, family):
        code, outdir = run_cli(tmp_path, self.limsup_config(trials=5, family=family))
        assert code == 0
        doc = read_json(outdir, "limsup.json")
        assert doc["prediction"]["theorem"] == BAND_FAMILIES[family][2]
        assert len(doc["report"]["median"]) == 2
        assert doc["band"]["low"]["citation"] == "trend-band"
        assert 0.0 < doc["band"]["low"]["value"] < doc["band"]["high"]["value"]
        assert doc["artifacts"] == {"trend.csv": "trend-direction"}
        lines = (outdir / "trend.csv").read_text().splitlines()
        assert lines[0] == "checkpoint,median,q25,q75"
        assert len(lines) == 3

    def test_even_trials_omit_band(self, tmp_path):
        code, outdir = run_cli(tmp_path, self.limsup_config(trials=4))
        assert code == 0
        assert "band" not in read_json(outdir, "limsup.json")

    def test_gaussian_lil_mode(self, tmp_path):
        cfg = {
            "command": "limsup",
            "mode": "gaussian-lil",
            "checkpoints": [50, 100],
            "trials": 3,
            "seed": 1,
            "log_s": [float(np.log(j + 1.0)) for j in range(1, 101)],
        }
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "limsup.json")
        assert doc["report"]["theorem"] == "gaussian-lil"
        assert "family" not in doc

    def test_no_theorem_exits_two(self, tmp_path, capsys):
        cfg = self.limsup_config(trials=3)
        cfg["hypotheses"]["f_class"] = "potential-l1"
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "no matching limit theorem" in capsys.readouterr().err


class TestSymmetrize:
    def symmetrize_config(self, f_values):
        return {
            "command": "symmetrize",
            "spec": min_spec(5),
            "window": {"l": 1, "n": 3},
            "f": {"values": f_values},
            "alpha": 0.5,
        }

    def test_known_window_ledger(self, tmp_path):
        code, outdir = run_cli(tmp_path, self.symmetrize_config([1.0, 1.0, 1.0]))
        assert code == 0
        doc = read_json(outdir, "symmetrize.json")
        assert doc["rho"]["value"] == pytest.approx(0.5, abs=1e-12)
        assert doc["nu"]["value"] == pytest.approx(1.0, abs=1e-10)
        assert doc["nu_upper"]["value"] == pytest.approx(1.5, abs=1e-12)
        assert doc["sandwich"]["lower"]["value"] == pytest.approx(
            (1.0 / 1.5) ** 0.5, rel=1e-12
        )
        lines = (outdir / "a_vector.csv").read_text().splitlines()
        assert lines[0] == "index,a"
        assert [row.split(",")[0] for row in lines[1:]] == ["2", "3", "4"]
        for row in lines[1:]:
            assert float(row.split(",")[1]) == pytest.approx(1.0, abs=1e-10)

    def test_inadmissible_f_exits_one(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, self.symmetrize_config([0.0, 0.0, 10.0]))
        assert code == 1
        assert "inverse-m-matrix" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_config_flag_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_unreadable_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("not json {")
        assert main(["--config", str(path), "--quiet"]) == 2
        capsys.readouterr()

    def test_missing_command_exits_two(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, {"p": [0.5, 0.25]})
        assert code == 2
        assert "command" in capsys.readouterr().err

    def test_unknown_command_exits_two(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, {"command": "frobnicate"})
        assert code == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_unexpected_field_exits_two(self, tmp_path, capsys):
        cfg = cstar_config()
        cfg["window"] = {"l": 0, "n": 3}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", None),
            ("checkpoints", 5),
            ("checkpoints", [100.5]),
            ("alpha", "half"),
            ("spec", [1, 2]),
            ("hypotheses", {"f_class": "zero", "alpha": None}),
            ("seed", "7"),
        ],
    )
    def test_wrongly_typed_field_exits_two(self, tmp_path, capsys, field, value):
        cfg = {
            "command": "limsup",
            "spec": exp_spec(200),
            "alpha": 0.5,
            "hypotheses": {"f_class": "zero", "alpha": 0.5, "gaps": "separated"},
            "checkpoints": [100, 200],
            "trials": 3,
            "seed": 7,
        }
        cfg[field] = value
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error" in err and field in err

    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "invert", "spec": {"family": "min"}, "window": {"l": 0, "n": 3}},
            {"command": "invert", "spec": min_spec(5), "window": {"l": 0}},
            {"command": "limsup", "mode": "gaussian-lil", "checkpoints": [3],
             "trials": 3, "seed": 1},
            {"command": "predict", "hypotheses": {"f_class": "zero", "alpha": 0.5},
             "spec": {"family": "killed_walk", "step_rates": [0.5, 0.5],
                      "beta": 0.5, "radius": 5}},
        ],
        ids=["spec-field", "window-field", "log_s", "step-rates-type"],
    )
    def test_missing_or_malformed_nested_field_exits_two(self, tmp_path, capsys, cfg):
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["invert", "symmetrize", "limsup"])
    def test_killed_walk_on_sequence_command_exits_two(self, tmp_path, capsys, command):
        walk = {"family": "killed_walk", "step_rates": {"-1": 0.5, "1": 0.5},
                "beta": 0.5, "radius": 5}
        cfg = {
            "invert": {"window": {"l": 0, "n": 3}},
            "symmetrize": {"window": {"l": 0, "n": 3}, "f": {"values": [1, 1, 1]}},
            "limsup": {"alpha": 0.5, "checkpoints": [3], "trials": 3, "seed": 1,
                       "hypotheses": {"f_class": "zero", "alpha": 0.5}},
        }[command]
        code, _ = run_cli(tmp_path, {"command": command, "spec": walk, **cfg})
        assert code == 2
        assert "killed_walk" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [TypeError, KeyError])
    def test_internal_error_propagates(self, tmp_path, monkeypatch, error):
        # a bug inside a runner is not a usage error: it must surface
        def broken(*args):
            raise error("internal")

        monkeypatch.setitem(_RUNNERS, "cstar", broken)
        with pytest.raises(error):
            run_cli(tmp_path, cstar_config())

    def test_identity_failure_exits_one(self, tmp_path, capsys):
        cfg = {
            "command": "validate",
            "spec": {"family": "ark", "p": [0.2, 0.7]},
            "window": {"l": 0, "n": 6},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 1
        assert "q-matrix-signs" in capsys.readouterr().err


class TestOutDirResolution:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        envdir = tmp_path / "envout"
        monkeypatch.setenv("POTKERNELS_OUT", str(envdir))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cstar_config()))
        assert main(["--config", str(path), "--quiet"]) == 0
        assert (envdir / "cstar.json").exists()

    def test_config_out_field(self, tmp_path):
        cfgdir = tmp_path / "cfgout"
        cfg = cstar_config()
        cfg["out"] = str(cfgdir)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--quiet"]) == 0
        assert (cfgdir / "cstar.json").exists()

    def test_out_flag_beats_config_field(self, tmp_path):
        cfg = cstar_config()
        cfg["out"] = str(tmp_path / "ignored")
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        assert (outdir / "cstar.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestConsoleScript:
    """Run the command in a fresh interpreter, the way a user starts it."""

    def run_command(self, command, tmp_path, env=None):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cstar_config()))
        outdir = tmp_path / "out"
        proc = subprocess.run(
            [*command, "--config", str(path), "--out", str(outdir)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.rstrip().endswith("ok")
        assert (outdir / "cstar.json").exists()

    def test_entry_point_runs(self, tmp_path):
        # The child must import the package under test, not whatever
        # potkernels happens to be installed.
        src = str(Path(potkernels.__file__).resolve().parent.parent)
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        self.run_command([sys.executable, "-m", "potkernels"], tmp_path, env=env)

    def test_module_entry_matches_declared_script(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["potkernels"] == "potkernels.cli:main"

    @pytest.mark.skipif(
        shutil.which("potkernels") is None,
        reason="potkernels console script is not installed on PATH",
    )
    def test_installed_script_runs(self, tmp_path):
        self.run_command(["potkernels"], tmp_path)
