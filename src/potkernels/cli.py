"""Batch front door: one JSON config in, JSON/CSV artifacts out.

One config runs one command; batch orchestration belongs to the shell.
Every number in a report carries the citation key of the identity that
produced it, or the marker "derived" for plain arithmetic on inputs. Exit
codes: 0 success, 1 a named identity check failed (the message starts with
its key), 2 usage or configuration error: an `InputError`, from the field
checker that the config and `KernelSpec.from_config` share or from the
library's own guards, or a config that cannot be read or decoded. Any other
exception is a bug and propagates.
"""

import argparse
import json
import os
import sys

import numpy as np

from .argen import c_star, phi_closed, phi_recursive
from .excessive import (
    DensitySequence,
    PotentialFunction,
    _window_rho,
    apply_potential,
    classify_excessive,
)
from .identities import IdentityError, InputError
from .kernels import (
    KernelSpec,
    KilledWalk,
    Window,
    _check_fields,
    build_kernel,
    check_inverse_m_matrix,
    check_q_matrix,
    killed_walk_potential,
    verify_duality,
)
from .mcsim import (
    ExperimentConfig,
    calibration_band,
    kernel_diagonal,
    limsup_experiment,
    sample_permanental,
)
from .normalizers import HYPOTHESES, NoTheorem, predict
from .serialize import write_json, write_matrix_csv, write_sequence_csv, write_table_csv
from .symmetrize import analyze, extend, sandwich_factor

OUT_ENV = "POTKERNELS_OUT"

# JSON kind of each config field (`kernels._KINDS`), checked at parse time
_HYPOTHESES = dict(f_class="string", alpha="number", **HYPOTHESES)
_WINDOW = {"l": "int", "n": "int"}
_F = {"values": "numbers", "density": "numbers", "start": "int", "tail": "number"}
_COMMON = {"command": "string", "seed": "int", "out": "string"}

# per command: (required fields, optional fields)
_SCHEMAS = {
    "validate": ({"spec": "spec", "window": "object"}, {"f": "object"}),
    "invert": ({"spec": "spec", "window": "object"}, {}),
    "phi": ({"p": "numbers", "n_terms": "int"}, {}),
    "cstar": ({"p": "numbers"}, {}),
    "predict": ({"spec": "spec", "hypotheses": "object"}, {}),
    "simulate": (
        {"spec": "spec", "n": "int", "k_half": "int"},
        {"f": "object", "trials": "int", "l": "int"},
    ),
    "limsup": (
        {"checkpoints": "ints", "trials": "int", "spec": "spec", "alpha": "number",
         "hypotheses": "object"},
        {"f": "object", "mode": "string"},
    ),
    "symmetrize": (
        {"spec": "spec", "window": "object", "f": "object"},
        {"alpha": "number"},
    ),
}
_NEEDS_SEED = {"simulate", "limsup"}
_LIMSUP_MODES = ("permanental", "gaussian-lil")
# limsup in gaussian-lil mode: it reads no field of the permanental mode,
# and refuses each, as that mode refuses log_s
_GAUSSIAN_LIL = ({"checkpoints": "ints", "trials": "int", "mode": "string",
                  "log_s": "numbers"}, {})


def _q(value, citation):
    return {"value": value, "citation": citation}


def _window(doc):
    _check_fields(doc, _WINDOW, _WINDOW, "window")
    return Window(l=doc["l"], n=doc["n"])


def _parse_f(doc, spec, window):
    """Potential values on the window, from literal values or a density."""
    _check_fields(doc, _F, (), "f")
    if ("values" in doc) == ("density" in doc):
        raise InputError("f needs exactly one of 'values' or 'density'")
    if "values" in doc:
        start = doc.get("start", window.l + 1)
        pf = PotentialFunction(values=np.asarray(doc["values"], float), start=start)
        return pf.on_window(window)
    h = DensitySequence(
        values=np.asarray(doc["density"], float),
        start=doc.get("start", 1),
        tail=float(doc.get("tail", 0.0)),
    )
    return apply_potential(spec, h, window).values


def _emit(outdir, name, writer, quiet):
    path = os.path.join(outdir, name)
    writer(path)
    if not quiet:
        print(f"wrote {path}")


def _run_validate(cfg, seed, outdir, quiet):
    spec = KernelSpec.from_config(cfg["spec"])
    window = _window(cfg["window"])
    checks = []
    if isinstance(spec, KilledWalk):
        # the potential is checked on the whole lattice; no rho identity yet
        spec._require_sites(window.n, window.l)
        if "f" in cfg:
            raise InputError("validate takes no f for a killed_walk spec")
        result = killed_walk_potential(spec)
        checks.append(
            {
                "citation": "killed-walk-row-sums",
                "status": "ok",
                "max_gap": _q(result.max_row_sum_gap, "derived"),
            }
        )
        checks.append(
            {
                "citation": "killed-walk-flat-diagonal",
                "status": "ok",
                "max_gap": _q(result.max_diag_gap, "derived"),
            }
        )
    else:
        U = build_kernel(spec, window)
        resid = U.inverse[1]
        checks.append(
            {
                "citation": "window-inverse-identity",
                "status": "ok",
                "residual": _q(resid, "derived"),
            }
        )

        dual = verify_duality(spec, window)
        name, row, worst = dual.worst
        if worst > dual.tol:
            raise IdentityError(
                "generator-duality", f"{name} residual {worst:.3e} at row {row}"
            )
        checks.append(
            {
                "citation": "generator-duality",
                "status": "ok",
                "residuals": {k: _q(v, "derived") for k, v in sorted(dual.checks.items())},
                "excluded_boundary_rows": _q(dual.excluded_rows, "derived"),
            }
        )

        qrep = check_q_matrix(dual.generator)
        if not qrep.ok:
            raise IdentityError("q-matrix-signs", f"violations: {list(qrep.violations)}")
        checks.append(
            {
                "citation": "q-matrix-signs",
                "status": "ok",
                "norm": _q(qrep.norm, "derived"),
            }
        )

        mrep = check_inverse_m_matrix(U)
        if not mrep.ok:
            raise IdentityError(
                "inverse-m-matrix", "window inverse violates the M-matrix sign pattern"
            )
        checks.append({"citation": "inverse-m-matrix", "status": "ok"})

        if "f" in cfg:
            fw = _parse_f(cfg["f"], spec, window)
            r = _window_rho(U, fw)
            checks.append(
                {
                    "citation": "rho-quadratic-form",
                    "status": "ok",
                    "rho": _q(r, "rho-quadratic-form"),
                }
            )
            if spec.family == "min" and window.l == 0:
                cls = classify_excessive(spec.s[: window.n], fw)
                checks.append(
                    {
                        "citation": "excessive-ratio-test",
                        "status": "ok" if cls.is_excessive else "failed",
                        "is_excessive": cls.is_excessive,
                        "is_potential": cls.is_potential,
                        "delta": _q(cls.delta, "riesz-decomposition"),
                    }
                )
                if not cls.is_excessive:
                    raise IdentityError(
                        "excessive-ratio-test",
                        "difference ratios of f against s are not non-increasing",
                    )

    doc = {
        "command": "validate",
        "family": spec.family,
        "window": {"l": window.l, "n": window.n},
        "checks": checks,
        "result": "ok",
    }
    _emit(outdir, "validate.json", lambda p: write_json(p, doc), quiet)
    return doc


def _run_invert(cfg, seed, outdir, quiet):
    spec = KernelSpec.from_config(cfg["spec"])
    window = _window(cfg["window"])
    inv, resid = build_kernel(spec, window).inverse
    labels = window.labels
    _emit(
        outdir,
        "inverse.csv",
        lambda p: write_matrix_csv(p, inv, labels, labels, ("i", "j", "value")),
        quiet,
    )
    doc = {
        "command": "invert",
        "family": spec.family,
        "window": {"l": window.l, "n": window.n},
        "residual": _q(resid, "window-inverse-identity"),
        "artifacts": {"inverse.csv": "window-inverse-identity"},
    }
    _emit(outdir, "invert.json", lambda p: write_json(p, doc), quiet)
    return doc


def _run_phi(cfg, seed, outdir, quiet):
    p = np.asarray(cfg["p"], dtype=float)
    n_terms = cfg["n_terms"]
    seq = phi_recursive(p, n_terms)
    closed = phi_closed(p, n_terms)
    gap = float(np.abs(seq.values - closed.values).max())
    header, columns = ("index", "phi"), [np.arange(1, n_terms + 1), seq.values]
    if seq.psi is not None:
        header, columns = header + ("psi",), columns + [seq.psi]
    _emit(
        outdir,
        "phi.csv",
        lambda p_: write_table_csv(p_, header, columns),
        quiet,
    )
    doc = {
        "command": "phi",
        "n_terms": n_terms,
        "route_gap": _q(gap, "phi-closed-form"),
        "phi_max": _q(float(seq.values.max()), "phi-range"),
        "artifacts": {"phi.csv": "phi-recursion"},
    }
    if seq.c1 is not None:
        doc["c1"] = _q(seq.c1, "derived")
    _emit(outdir, "phi.json", lambda p_: write_json(p_, doc), quiet)
    return doc


def _run_cstar(cfg, seed, outdir, quiet):
    p = np.asarray(cfg["p"], dtype=float)
    res = c_star(p)
    doc = {
        "command": "cstar",
        "value": _q(res.value, "cstar-two-routes"),
        "direct_route": _q(res.direct, "cstar-two-routes"),
        "phi_l1": _q(res.l1, "phi-l1-identity"),
        "phi_l1_expected": _q(res.l1_expected, "phi-l1-identity"),
        "lower_bound": _q(res.lower, "cstar-bounds"),
        "upper_bound": _q(res.upper, "cstar-bounds"),
    }
    _emit(outdir, "cstar.json", lambda p_: write_json(p_, doc), quiet)
    return doc


def _hypothesis_kwargs(doc):
    _check_fields(doc, _HYPOTHESES, {"f_class", "alpha"}, "hypotheses")
    kwargs = dict(doc)
    f_class = kwargs.pop("f_class")
    alpha = float(kwargs.pop("alpha"))
    return f_class, alpha, kwargs


def _run_predict(cfg, seed, outdir, quiet):
    spec = KernelSpec.from_config(cfg["spec"])
    f_class, alpha, kwargs = _hypothesis_kwargs(cfg["hypotheses"])
    outcome = predict(spec, f_class, alpha, **kwargs)
    doc = {
        "command": "predict",
        "family": spec.family,
        "prediction": outcome.to_json(),
    }
    _emit(outdir, "predict.json", lambda p_: write_json(p_, doc), quiet)
    return doc


def _run_simulate(cfg, seed, outdir, quiet):
    spec = KernelSpec.from_config(cfg["spec"])
    n = cfg["n"]
    l = cfg.get("l", 0)
    trials = cfg.get("trials", 1)
    k_half = cfg["k_half"]
    window = Window(l, n)
    fw = None
    if "f" in cfg:      # f on the window, so its first value sits at label l + 1
        fw = PotentialFunction(_parse_f(cfg["f"], spec, window), start=l + 1)
    batch = sample_permanental(spec, fw, k_half, n, seed, trials=trials, l=l)

    labels = window.labels
    _emit(
        outdir,
        "samples.csv",
        lambda p_: write_matrix_csv(
            p_, batch.values, range(1, trials + 1), labels, ("trial", "index", "value")
        ),
        quiet,
    )
    expected = batch.alpha * (kernel_diagonal(spec, l + n)[l:] + batch.a_vec**2)
    observed = batch.values.mean(axis=0)
    _emit(
        outdir,
        "marginals.csv",
        lambda p_: write_table_csv(
            p_,
            ("index", "observed_mean", "expected_mean"),
            (labels, observed, expected),
        ),
        quiet,
    )
    doc = {
        "command": "simulate",
        "family": spec.family,
        "alpha": _q(batch.alpha, "derived"),
        "trials": trials,
        "seed": seed,
        "rho": _q(batch.rho, "coupling-sum-identities"),
        "sandwich": {
            "lower": _q(batch.sandwich.lower, "sandwich-weights"),
            "slack": _q(batch.sandwich.slack, "sandwich-weights"),
        },
        "artifacts": {
            "samples.csv": "derived",
            "marginals.csv": "permanental-marginal-mean",
        },
    }
    _emit(outdir, "simulate.json", lambda p_: write_json(p_, doc), quiet)
    return doc


def _run_limsup(cfg, seed, outdir, quiet):
    mode = cfg.get("mode", "permanental")
    if mode not in _LIMSUP_MODES:
        raise InputError(f"mode must be one of {_LIMSUP_MODES}")
    checkpoints = tuple(cfg["checkpoints"])
    trials = cfg["trials"]
    if mode == "gaussian-lil":
        config = ExperimentConfig(
            spec=None,
            alpha=None,
            checkpoints=checkpoints,
            trials=trials,
            seed=seed,
            mode=mode,
            log_s=np.asarray(cfg["log_s"], dtype=float),
        )
        report = limsup_experiment(config)
        doc = {"command": "limsup", "report": report.to_json()}
    else:
        spec = KernelSpec.from_config(cfg["spec"])
        f_class, hyp_alpha, kwargs = _hypothesis_kwargs(cfg["hypotheses"])
        outcome = predict(spec, f_class, hyp_alpha, **kwargs)
        if isinstance(outcome, NoTheorem):
            raise InputError(f"no matching limit theorem: {outcome.reason}")
        alpha = float(cfg["alpha"])
        fw = None
        if "f" in cfg:
            fw = _parse_f(cfg["f"], spec, Window(0, checkpoints[-1]))
        config = ExperimentConfig(
            spec=spec,
            alpha=alpha,
            checkpoints=checkpoints,
            trials=trials,
            seed=seed,
            f=fw,
        )
        report = limsup_experiment(config, outcome)
        doc = {
            "command": "limsup",
            "family": spec.family,
            "prediction": outcome.to_json(),
            "report": report.to_json(),
        }
        if trials % 2 == 1:
            lo, hi = calibration_band(spec, outcome, alpha, checkpoints[-1], trials)
            doc["band"] = {
                "low": _q(lo, "trend-band"),
                "high": _q(hi, "trend-band"),
            }
    columns = (report.checkpoints, report.median, report.q25, report.q75)
    _emit(
        outdir,
        "trend.csv",
        lambda p_: write_table_csv(p_, ("checkpoint", "median", "q25", "q75"), columns),
        quiet,
    )
    doc["artifacts"] = {"trend.csv": "trend-direction"}
    _emit(outdir, "limsup.json", lambda p_: write_json(p_, doc), quiet)
    return doc


def _run_symmetrize(cfg, seed, outdir, quiet):
    spec = KernelSpec.from_config(cfg["spec"])
    window = _window(cfg["window"])
    fw = _parse_f(cfg["f"], spec, window)
    U = build_kernel(spec, window)
    K_ext = extend(U, fw)
    ledger = analyze(K_ext, U, fw)
    labels = window.labels
    _emit(
        outdir,
        "a_vector.csv",
        lambda p_: write_sequence_csv(p_, labels, ledger.a_vec, "a"),
        quiet,
    )
    doc = {
        "command": "symmetrize",
        "family": spec.family,
        "window": {"l": window.l, "n": window.n},
        "rho": _q(ledger.rho, "coupling-sum-identities"),
        "nu": _q(ledger.nu, "nu-two-routes"),
        "nu_upper": _q(1.0 + ledger.rho, "nu-bounds"),
        "artifacts": {"a_vector.csv": "a-vector-bound"},
    }
    if "alpha" in cfg:
        weights = sandwich_factor(float(cfg["alpha"]), ledger.rho)
        doc["sandwich"] = {
            "lower": _q(weights.lower, "sandwich-weights"),
            "slack": _q(weights.slack, "sandwich-weights"),
        }
    _emit(outdir, "symmetrize.json", lambda p_: write_json(p_, doc), quiet)
    return doc


_RUNNERS = {
    "validate": _run_validate,
    "invert": _run_invert,
    "phi": _run_phi,
    "cstar": _run_cstar,
    "predict": _run_predict,
    "simulate": _run_simulate,
    "limsup": _run_limsup,
    "symmetrize": _run_symmetrize,
}


def _non_finite(token):
    raise InputError(f"config numbers must be finite, got {token}")


def _load_config(path):
    with open(path) as fh:
        doc = json.load(fh, parse_constant=_non_finite)
    if not isinstance(doc, dict) or "command" not in doc:
        raise InputError("config must be a JSON object with a 'command' field")
    command = doc["command"]
    if not isinstance(command, str) or command not in _RUNNERS:
        raise InputError(f"unknown command: {command!r}")
    required, optional = _SCHEMAS[command]
    if command == "limsup" and doc.get("mode") == "gaussian-lil":
        required, optional = _GAUSSIAN_LIL
    _check_fields(doc, {**_COMMON, **required, **optional}, required, "config")
    return command, doc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="potkernels",
        description="Run one potential-kernel command from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        command, cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.get("seed")
        if seed is None and command in _NEEDS_SEED:
            raise InputError(f"{command} needs a seed (config field or --seed)")
        outdir = args.out or cfg.get("out") or os.environ.get(OUT_ENV) or os.getcwd()
        os.makedirs(outdir, exist_ok=True)
        _RUNNERS[command](cfg, seed, outdir, args.quiet)
    except IdentityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print("ok")
    return 0

