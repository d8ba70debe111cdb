"""End-to-end checks for the JSON-config command line front end."""

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import potkernels
from potkernels import kernels
from potkernels.cli import _RUNNERS, main

from test_kernels import ROUND_TRIP_SPECS


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


def window_analytic_rank_one(seed, size):
    """A rank-one update of a min kernel, drawn as the window-analytic
    benchmark draws it: a bump at (1, 3) with b < 1/U[3,1] = 1/s1."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.2, 1.0) + np.cumsum(rng.uniform(0.2, 2.0, size))
    return {"family": "rank_one_update", "base": {"family": "min", "s": s.tolist()},
            "k": 1, "l": 3, "b": float(rng.uniform(0.2, 0.6) / s[0])}


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

    # the overflow warnings are the input's doing
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_rho_is_refused(self, tmp_path, capsys):
        # rho and f[l+1]/s[l+1] both overflow to inf; their gap is NaN
        cfg = {
            "command": "validate",
            "spec": {"family": "min", "s": [0.5, 1, 2, 3, 4, 5, 6, 7]},
            "window": {"l": 0, "n": 6},
            "f": {"values": [1e308] * 6},
        }
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 1
        assert "rho-min-closed-form" in capsys.readouterr().err
        assert not (outdir / "validate.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_rho_is_refused(self, tmp_path, capsys):
        # rho overflows to inf, which passes rho >= 0; exp has no closed form of rho
        cfg = {
            "command": "validate",
            "spec": {"family": "exp", "v": [0, 1, 2, 3, 4, 5, 6, 7]},
            "window": {"l": 0, "n": 6},
            "f": {"values": [1e308] * 6},
        }
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 1
        assert "[rho-quadratic-form] |rho| inf" in capsys.readouterr().err
        assert not (outdir / "validate.json").exists()

    def test_nan_in_a_later_duality_part_is_refused(self, tmp_path, monkeypatch, capsys):
        # U Q gets a NaN in its first interior column, Q U stays finite; the
        # first part is then the largest finite one, and the NaN must still win
        class NanOnTheRight(np.ndarray):
            def __rmatmul__(self, other):
                out = other @ self.view(np.ndarray)
                out[0, 0] = np.nan
                return out

        build_generator = kernels.build_generator

        def poisoned(spec, size):
            G = build_generator(spec, size)
            return dataclasses.replace(G, entries=G.entries.view(NanOnTheRight))

        monkeypatch.setattr(kernels, "build_generator", poisoned)
        cfg = {"command": "validate", "spec": min_spec(10), "window": {"l": 1, "n": 6}}
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 1
        assert ("[generator-duality] kernel-times-generator residual at row 1 nan"
                in capsys.readouterr().err)
        assert not (outdir / "validate.json").exists()

    @pytest.mark.parametrize(
        "spec, l, f",
        [
            (min_spec(12), 2, None),
            ({"family": "ark", "p": [0.5, 0.25]}, 2, None),
            (min_spec(12), 2, {"density": [0.5, 0.25, 0.25], "start": 3}),
            (window_analytic_rank_one(seed=5, size=38), 0,
             {"density": [0.4, 0.35, 0.25], "start": 1}),
        ],
        ids=["spec0", "spec1", "min-f", "rank_one_update-f"],
    )
    def test_window_is_inverted_once(self, tmp_path, monkeypatch, spec, l, f):
        # one checked inversion of a matrix, the window's closed precision,
        # and one generator serve every check of the command, the rho of f
        # included; nothing is solved
        calls = {"inversions": 0, "solve": 0, "generators": 0}
        checked, solve = kernels._checked_inverse, np.linalg.solve
        generator = kernels.GeneratorMatrix

        def counted_inverse(U, inv=None):
            calls["inversions"] += not isinstance(U, kernels.DenseKernelWindow)
            return checked(U, inv)

        def counted_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        def counted_generator(*args, **kwargs):
            calls["generators"] += 1
            return generator(*args, **kwargs)

        monkeypatch.setattr(kernels, "_checked_inverse", counted_inverse)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(kernels, "GeneratorMatrix", counted_generator)
        cfg = {"command": "validate", "spec": spec, "window": {"l": l, "n": 8}}
        if f is not None:
            cfg["f"] = f
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        assert calls == {"inversions": 1, "solve": 0, "generators": 1}

    def test_killed_walk_branch(self, tmp_path):
        cfg = {
            "command": "validate",
            "spec": {
                "family": "killed_walk",
                "step_rates": {"-1": 0.5, "1": 0.5},
                "beta": 1.0,
                "radius": 40,
            },
            "window": {"l": 0, "n": 81},
        }
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "validate.json")
        citations = {c["citation"] for c in doc["checks"]}
        assert citations == {"killed-walk-row-sums", "killed-walk-flat-diagonal"}

    WALK = {"family": "killed_walk", "step_rates": {"-1": 0.5, "1": 0.5},
            "beta": 1.0, "radius": 4}

    @pytest.mark.parametrize("l, n", [(3, 2), (0, 5), (1, 9)])
    def test_killed_walk_checks_its_whole_lattice_only(self, tmp_path, capsys, l, n):
        cfg = {"command": "validate", "spec": self.WALK, "window": {"l": l, "n": n}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "killed_walk needs n = 9 sites from l = 0" in capsys.readouterr().err

    def test_killed_walk_refuses_f(self, tmp_path, capsys):
        # the walk has no rho identity, so an f would go unchecked
        cfg = {"command": "validate", "spec": self.WALK, "window": {"l": 0, "n": 9},
               "f": {"values": [5] * 9}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "killed_walk" in err


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

    def test_reports_the_residual_of_the_check(self, tmp_path, monkeypatch):
        # the check's residual, offset here so a second product would differ
        seen = []
        real = kernels._checked_inverse

        def offset(*args):
            inv, residual = real(*args)
            seen.append(residual + 0.5)
            return inv, seen[-1]

        monkeypatch.setattr(kernels, "_checked_inverse", offset)
        cfg = {"command": "invert", "spec": exp_spec(9), "window": {"l": 1, "n": 6}}
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        assert read_json(outdir, "invert.json")["residual"]["value"] == seen[0]
        assert len(seen) == 1


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

    def test_window_past_the_origin_takes_f_on_the_window(self, tmp_path):
        # f is given on labels 3..10; it used to be read as from label 1
        cfg = dict(self.simulate_config(), l=2)
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "simulate.json")
        assert doc["rho"]["value"] > 0.0
        rows = (outdir / "marginals.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(j) for j in range(3, 11)]

    def test_seed_pins_samples_and_override_changes_them(self, tmp_path):
        _, out1 = run_cli(tmp_path, self.simulate_config(), outname="out1")
        _, out2 = run_cli(tmp_path, self.simulate_config(), outname="out2")
        _, out3 = run_cli(
            tmp_path, self.simulate_config(), "--seed", "8", outname="out3"
        )
        first = (out1 / "samples.csv").read_bytes()
        assert first == (out2 / "samples.csv").read_bytes()
        assert first != (out3 / "samples.csv").read_bytes()

    def test_killed_walk_samples_its_whole_lattice(self, tmp_path, capsys):
        # n = 2R + 1 sites; the expected means are alpha U[j,j] of the potential
        spec = {"family": "killed_walk", "step_rates": {"-1": 0.5, "1": 0.5},
                "beta": 1.0, "radius": 4}
        cfg = {"command": "simulate", "spec": spec, "n": 9, "k_half": 1,
               "trials": 5, "seed": 3}
        code, outdir = run_cli(tmp_path, cfg, outname="out9")
        assert code == 0
        rows = (outdir / "marginals.csv").read_text().splitlines()[1:]
        U = potkernels.killed_walk_potential(kernels.KernelSpec.from_config(spec))
        expected = [float(row.split(",")[2]) for row in rows]
        assert expected == (0.5 * np.diag(U.kernel.entries)).tolist()
        code, _ = run_cli(tmp_path, dict(cfg, n=8), outname="out8")
        assert code == 2
        assert "needs n = 9 sites" in capsys.readouterr().err

    def test_killed_walk_with_f_exits_two(self, tmp_path, capsys):
        # the ledger needs kernel windows, which the walk refuses by name
        spec = {"family": "killed_walk", "step_rates": {"-1": 0.5, "1": 0.5},
                "beta": 1.0, "radius": 4}
        cfg = {"command": "simulate", "spec": spec, "n": 9, "k_half": 1,
               "trials": 5, "seed": 3, "f": {"values": [0.1] * 9}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "killed_walk" in err


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

    def lil_config(self):
        return {
            "command": "limsup",
            "mode": "gaussian-lil",
            "checkpoints": [50, 100],
            "trials": 3,
            "seed": 1,
            "log_s": [float(np.log(j + 1.0)) for j in range(1, 101)],
        }

    def test_gaussian_lil_mode(self, tmp_path):
        code, outdir = run_cli(tmp_path, self.lil_config())
        assert code == 0
        doc = read_json(outdir, "limsup.json")
        assert doc["report"]["theorem"] == "gaussian-lil"
        assert "family" not in doc

    def test_gaussian_lil_refuses_permanental_fields(self, tmp_path, capsys):
        extra = self.limsup_config(trials=3)
        extra["f"] = {"values": [50.0] * 100}
        for field in ("spec", "alpha", "hypotheses", "f"):
            cfg = dict(self.lil_config(), **{field: extra[field]})
            code, _ = run_cli(tmp_path, cfg, outname=field)
            assert code == 2
            err = capsys.readouterr().err
            assert f"unknown fields in config: [{field!r}]" in err

    def test_permanental_refuses_log_s(self, tmp_path, capsys):
        cfg = self.limsup_config(trials=3)
        cfg["log_s"] = [float(np.log(j + 1.0)) for j in range(1, 121)]
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "unknown fields in config: ['log_s']" in capsys.readouterr().err
        code, _ = run_cli(tmp_path, dict(cfg, mode="permanental"), outname="explicit")
        assert code == 2
        assert "unknown fields in config: ['log_s']" in capsys.readouterr().err

    def test_killed_walk_over_its_whole_lattice(self, tmp_path, capsys):
        cfg = {
            "command": "limsup",
            "spec": {"family": "killed_walk", "step_rates": {"-1": 0.5, "1": 0.5},
                     "beta": 1.0, "radius": 10},
            "alpha": 0.5,
            "hypotheses": {"f_class": "zero", "alpha": 0.5},
            "checkpoints": [5, 21],
            "trials": 5,
            "seed": 3,
        }
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "limsup.json")
        assert doc["prediction"]["theorem"] == "killed-walk"
        assert 0.0 < doc["band"]["low"]["value"] < doc["band"]["high"]["value"]
        assert len((outdir / "trend.csv").read_text().splitlines()) == 3
        code, _ = run_cli(tmp_path, dict(cfg, checkpoints=[5, 20]), outname="out20")
        assert code == 2
        assert "killed_walk needs n = 21 sites" in capsys.readouterr().err

    def test_killed_walk_solves_its_potential_once(self, tmp_path, monkeypatch):
        # predict reads u00 and the band the diagonal of one potential
        solves, solve = [], np.linalg.solve

        def counted_solve(*args, **kwargs):
            solves.append(np.shape(args[0]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        cfg = {
            "command": "limsup",
            "spec": {"family": "killed_walk", "step_rates": {"-1": 0.5, "1": 0.5},
                     "beta": 1.0, "radius": 10},
            "alpha": 0.5,
            "hypotheses": {"f_class": "zero", "alpha": 0.5},
            "checkpoints": [5, 21],
            "trials": 5,
            "seed": 3,
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        assert solves == [(21, 21)]

    @pytest.mark.parametrize(
        "spec, hypotheses",
        [
            *[(spec, growth)
              for spec in (min_spec(30),
                           {"family": "scaled_min", "s": min_spec(30)["s"], "b": [2.0] * 30},
                           {"family": "shifted_scaled", "s": min_spec(30)["s"],
                            "b": [2.0] * 30, "Delta": 0.5})
              for growth in ({"growth": "geometric"}, {}, {"growth": "bounded-ratio"})],
            (exp_spec(30), {"growth": "geometric"}),
            (exp_spec(30), {}),
            (exp_spec(30), {"gaps": "bounded"}),
            ({"family": "ar1", "x": [1.0] * 29}, {"x_limit": 1.0}),
            ({"family": "ar1", "x": [0.5] * 29}, {"reg_var_index": 0.5}),
        ],
        ids=lambda case: case.get("family")
        or "-".join(f"{k}={v}" for k, v in case.items()) or "default",
    )
    def test_checkpoint_past_the_stored_terms_exits_two(
        self, tmp_path, capsys, spec, hypotheses
    ):
        # every normalizer that reads a stored term refuses an index past it
        cfg = dict(self.limsup_config(trials=3), spec=spec, checkpoints=[10, 31])
        cfg["hypotheses"] = {"f_class": "zero", "alpha": 0.5, **hypotheses}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "j beyond stored sequence length" in capsys.readouterr().err

    def test_no_theorem_exits_two(self, tmp_path, capsys):
        cfg = self.limsup_config(trials=3)
        cfg["hypotheses"]["f_class"] = "potential-l1"
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "no matching limit theorem" in capsys.readouterr().err

    @staticmethod
    def f_config(f_class, f_value):
        # exp with unit gaps and a constant f over checkpoints 100/1000/2000
        return {
            "command": "limsup",
            "spec": {"family": "exp", "v": [float(j) for j in range(2000)]},
            "alpha": 0.5,
            "hypotheses": {"f_class": f_class, "alpha": 0.5, "gaps": "separated"},
            "f": {"values": [f_value] * 2000},
            "checkpoints": [100, 1000, 2000],
            "trials": 21,
            "seed": 3,
        }

    def test_declared_zero_class_with_nonzero_f_exits_one(self, tmp_path, capsys):
        # the band reads U[j,j] alone, so f = 50 put every median far above it
        code, outdir = run_cli(tmp_path, self.f_config("zero", 50.0))
        assert code == 1
        assert ("[f-class-declared] largest |f[j]| under the declared f_class 'zero' "
                "5.000e+01 exceeds 0") in capsys.readouterr().err
        assert not outdir.exists() or not any(outdir.iterdir())

    @pytest.mark.parametrize("f_class, f_value", [("zero", 0.0), ("c0", 50.0)])
    def test_f_that_meets_its_declared_class_runs(self, tmp_path, f_class, f_value):
        code, outdir = run_cli(tmp_path, self.f_config(f_class, f_value))
        assert code == 0
        assert read_json(outdir, "limsup.json")["prediction"]["theorem"] == "exp-separated-gaps"


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

    @staticmethod
    def min_like_config(family, n, seed):
        """A min or shifted-scaled window from l = 0 with a density-built f,
        drawn as the window-analytic benchmark draws one."""
        rng = np.random.default_rng(seed)
        size = n + 30
        s = rng.uniform(0.2, 1.0) + np.cumsum(rng.uniform(0.2, 2.0, size))
        spec = {"family": family, "s": s.tolist()}
        if family == "shifted_scaled":
            spec["b"] = [float(rng.uniform(0.5, 2.0))] * size
            spec["Delta"] = float(rng.uniform(0.0, 0.5))
        h = rng.dirichlet(np.ones(int(rng.integers(3, 12)))) * rng.uniform(0.5, 2.0)
        return {"command": "symmetrize", "spec": spec, "window": {"l": 0, "n": n},
                "f": {"density": h.tolist(), "start": 1}, "alpha": 0.5}

    @pytest.mark.parametrize("n", [100, 400])
    @pytest.mark.parametrize("family", ["min", "shifted_scaled"])
    def test_min_like_ledger_takes_the_chain_precision(self, tmp_path, family, n):
        # a dense inverse of these windows puts nu-two-routes out of tolerance;
        # the chain precision keeps the two routes of nu together. Round-off in
        # P 1 and P^T f still makes some draws refuse (ROADMAP item 2)
        code, outdir = run_cli(tmp_path, self.min_like_config(family, n, seed=2))
        assert code == 0
        doc = read_json(outdir, "symmetrize.json")
        assert 1.0 <= doc["nu"]["value"] <= 1.0 + doc["rho"]["value"]


    # PCG64 (state, has_uint32, uinteger) of the window-analytic benchmark at
    # seed 1 just before it draws its scaled-min symmetrize inputs at n
    SCALED_MIN_SEED1 = {
        100: (60177728552029898033711280754753287958, 0, 798932040),
        400: (154976363469766044805001197855089685035, 1, 3272243555),
    }
    SEED1_INC = 231986847983001667667541278771414391591

    @pytest.mark.parametrize("n", [100, 400])
    def test_window_analytic_scaled_min_ledger_completes(self, tmp_path, n):
        # round-off of about 1e-13 in U^{-T} f, where h is zero, used to put
        # the two routes of nu 3e-7 apart; within its error bound it is zero
        state, has_uint32, uinteger = self.SCALED_MIN_SEED1[n]
        rng = np.random.default_rng()
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": self.SEED1_INC},
            "has_uint32": has_uint32, "uinteger": uinteger,
        }
        size = n + 30
        s = rng.uniform(0.2, 1.0) + np.cumsum(rng.uniform(0.2, 2.0, size))
        b = rng.uniform(0.5, 2.0) * np.sqrt(s)
        h = rng.dirichlet(np.ones(int(rng.integers(3, 12)))) * rng.uniform(0.5, 2.0)
        cfg = {"command": "symmetrize",
               "spec": {"family": "scaled_min", "s": s.tolist(), "b": b.tolist()},
               "window": {"l": 0, "n": n}, "f": {"density": h.tolist(), "start": 1}}
        code, outdir = run_cli(tmp_path, cfg)
        assert code == 0
        doc = read_json(outdir, "symmetrize.json")
        assert 1.0 <= doc["nu"]["value"] <= 1.0 + doc["rho"]["value"]


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

    @pytest.mark.parametrize(
        "error", [TypeError, KeyError, ValueError, np.linalg.LinAlgError]
    )
    def test_internal_error_propagates(self, tmp_path, monkeypatch, error):
        # a bug inside a runner is not a usage error: it must surface
        def broken(*args):
            raise error("internal")

        monkeypatch.setitem(_RUNNERS, "cstar", broken)
        with pytest.raises(error):
            run_cli(tmp_path, cstar_config())

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "cstar", "p": [np.nan]},
            {"command": "phi", "p": [np.nan, 0.25], "n_terms": 5},
            {"command": "predict", "hypotheses": {"f_class": "zero", "alpha": 0.5},
             "spec": {"family": "killed_walk", "step_rates": {"-1": 0.5, "1": 0.5},
                      "beta": np.inf, "radius": 5}},
            {"command": "limsup", "spec": exp_spec(20), "alpha": np.nan,
             "hypotheses": {"f_class": "zero", "alpha": 0.5, "gaps": "separated"},
             "checkpoints": [10, 20], "trials": 3, "seed": 7},
        ],
        ids=["cstar-p", "phi-p", "predict-beta", "limsup-alpha"],
    )
    def test_non_finite_number_exits_two(self, tmp_path, capsys, cfg):
        # json writes and reads NaN and Infinity tokens; the config refuses them
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "numbers must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, text",
        [("a_sq", '{"family": "ark_gen", "p": [0.5, 0.25], "a_sq": 1e999}'),
         ("b", '{"family": "rank_one_update", "base": {"family": "min", "s": [1, 2, 3]},'
               ' "k": 1, "l": 3, "b": -1e999}')],
    )
    def test_overflowing_number_exits_two(self, tmp_path, capsys, field, text):
        # json reads 1e999 as inf, which the parent inverted to NaN and exit 0
        path = tmp_path / "config.json"
        path.write_text('{"command": "invert", "window": {"l": 0, "n": 3}, "spec": %s}' % text)
        assert main(["--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
        assert f"field {field!r} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [({"trials": -1}, "trials must be >= 1"), ({"trials": 0}, "trials must be >= 1"),
         ({"seed": -1}, "seed must be >= 0")],
        ids=["trials-negative", "trials-zero", "seed-negative"],
    )
    def test_sampler_counts_are_refused_by_name(self, tmp_path, capsys, change, message):
        # numpy refuses a negative size or seed with a bare ValueError of its own
        cfg = {"command": "simulate", "spec": min_spec(5), "n": 5, "k_half": 1,
               "trials": 2, "seed": 3, **change}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert message in capsys.readouterr().err

    WALK = {"family": "killed_walk", "step_rates": {"-1": 0.5, "1": 0.5},
            "beta": 0.5, "radius": 5}

    @pytest.mark.parametrize(
        "field, spec",
        [("beta", {**WALK, "beta": 10**400}),
         ("step_rates", {**WALK, "step_rates": {"-1": 0.5, "1": 10**400}})],
        ids=["beta", "step-rate"],
    )
    def test_integer_past_the_float_range_exits_two(self, tmp_path, capsys, field, spec):
        # float() of a 401-digit integer raises OverflowError
        cfg = {"command": "predict", "spec": spec,
               "hypotheses": {"f_class": "zero", "alpha": 0.5}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert f"field {field!r} must be" in capsys.readouterr().err

    HUGE = 10**30
    SIM = {"command": "simulate", "spec": min_spec(5), "n": 5, "k_half": 1,
           "trials": 2, "seed": 3}

    @pytest.mark.parametrize(
        "field, cfg",
        [
            ("n_terms", {"command": "phi", "p": [0.5, 0.25], "n_terms": HUGE}),
            ("n", {"command": "invert", "spec": min_spec(5), "window": {"l": 0, "n": HUGE}}),
            ("radius", {"command": "predict", "spec": {**WALK, "radius": HUGE},
                        "hypotheses": {"f_class": "zero", "alpha": 0.5}}),
            ("n", {**SIM, "n": HUGE}),
            ("k_half", {**SIM, "k_half": HUGE}),
            ("trials", {**SIM, "trials": HUGE}),
            ("trials", {"command": "limsup", "spec": exp_spec(20), "alpha": 0.5,
                        "hypotheses": {"f_class": "zero", "alpha": 0.5, "gaps": "separated"},
                        "checkpoints": [10, 20], "trials": HUGE, "seed": 7}),
            ("k", {"command": "invert", "window": {"l": 0, "n": 3},
                   "spec": {"family": "rank_one_update", "base": min_spec(5),
                            "k": HUGE, "l": 3, "b": 0.1}}),
        ],
        ids=["phi-n_terms", "invert-window-n", "killed-walk-radius", "simulate-n",
             "simulate-k_half", "simulate-trials", "limsup-trials", "rank-one-k"],
    )
    def test_integer_past_int64_exits_two(self, tmp_path, capsys, field, cfg):
        # numpy refuses such a size with a bare ValueError of its own
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert f"field {field!r} must be an integer in the int64 range" in capsys.readouterr().err

    @pytest.mark.parametrize("k_half", [1, 2])
    def test_paths_past_the_largest_array_exit_two(self, tmp_path, capsys, k_half):
        # inside int64, but rows x columns of doubles is past numpy's largest array
        code, _ = run_cli(tmp_path, {**self.SIM, "k_half": k_half, "trials": 10**18})
        assert code == 2
        rows = k_half * 10**18
        assert f"{rows} rows x 5 columns of paths exceed one array" in capsys.readouterr().err

    def test_alpha_that_overflows_exits_two(self, tmp_path, capsys):
        cfg = {"command": "limsup", "spec": exp_spec(20), "alpha": 1e308,
               "hypotheses": {"f_class": "zero", "alpha": 0.5, "gaps": "separated"},
               "checkpoints": [10, 20], "trials": 3, "seed": 7}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "alpha must be a positive half-integer" in capsys.readouterr().err

    def test_singular_chain_head_exits_one(self, tmp_path, capsys):
        # a_sq = 1e308 scales the first innovation to 1e-154: the head is singular
        cfg = {"command": "invert", "window": {"l": 0, "n": 3},
               "spec": {"family": "ark_gen", "p": [0.5, 0.25], "a_sq": 1e308}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 1
        assert "[window-inverse-identity] singular window head" in capsys.readouterr().err

    WRONG_KINDS = [None, True, "a", [], ["a"], [[1.0], 2.0], {}, 1.5]
    SPEC_FIELDS = [(spec, name) for spec in ROUND_TRIP_SPECS for name in spec.to_config()]

    @settings(max_examples=150, deadline=None)
    @given(case=st.sampled_from(SPEC_FIELDS), value=st.sampled_from(WRONG_KINDS))
    @example(case=(ROUND_TRIP_SPECS[0], "s"), value=["a", "b"])
    @example(case=(ROUND_TRIP_SPECS[0], "s"), value=[[1.0], 2.0])
    def test_spec_field_of_the_wrong_kind_exits_two(self, tmp_path_factory, case, value):
        spec, name = case
        doc = spec.to_config()
        assume(not (isinstance(value, float) and isinstance(doc[name], float)))
        doc[name] = value
        cfg = {"command": "invert", "spec": doc, "window": {"l": 0, "n": 3}}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run_cli(tmp_path_factory.mktemp("wrong-kind"), cfg)
        assert code == 2
        assert re.search(rf"\b({re.escape(name)}|{spec.family})\b", err.getvalue())

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


def src_env():
    """The environment with the package under test first on PYTHONPATH, so a
    child imports it and not whatever potkernels happens to be installed."""
    src = str(Path(potkernels.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


# scipy.signal imports stats, optimize, interpolate, spatial and ndimage,
# which took most of the command line's start-up; none of them is needed
UNUSED_SCIPY = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate")

START_UP_CHILD = f"""
import json, sys
from potkernels import cli
codes = [cli.main(["--config", p, "--out", p + ".out", "--quiet"]) for p in sys.argv[1:]]
print(json.dumps([codes, [m for m in {UNUSED_SCIPY!r} if m in sys.modules]]))
"""


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
        self.run_command([sys.executable, "-m", "potkernels"], tmp_path, env=src_env())

    def test_commands_leave_unused_scipy_unimported(self, tmp_path):
        # an order-2 limsup with its band, and phi: the recurrences and
        # the band's special functions all come from scipy.linalg and special
        paths = []
        for name, cfg in [
            ("limsup", TestLimsup().limsup_config(trials=5, family="ark_gen")),
            ("phi", {"command": "phi", "p": [0.5, 0.25], "n_terms": 50}),
        ]:
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-c", START_UP_CHILD, *map(str, paths)],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0], []]

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
