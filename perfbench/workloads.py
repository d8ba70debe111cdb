"""Seeded command batches for the four benchmark workloads.

`build(name, seed, scale)` returns a list of command records. Each record
is a plain dict that survives a JSON round trip:

    {"label": str, "kind": "cli" | "gamma", "config": dict | None,
     "call": dict | None, "check": dict}

`kind == "cli"` runs `potkernels.cli.main` on `config`; `kind == "gamma"`
calls `potkernels.mcsim.gamma_marginal_test` with the arguments in `call`
(the criterion-8 grid has no CLI command). `check` carries what the output
checks in `checks.py` need to know about the inputs.

Sizes are fixed per workload and scale, so every seed costs about the same;
the seed only changes coefficients, densities, window offsets and the Monte
Carlo seeds the program receives.
"""

import numpy as np

WORKLOADS = ("trend-band", "trend-stream", "window-analytic", "sample-ks")

SIMPLE_P = (0.5, 0.25)
DRIFT_P = (1.0 / 3.0, 5.0 / 9.0, 1.0 / 9.0)
COMPLEX_P = (0.25, 0.125, 0.5)

# per scale: the sizes that set each workload's cost
SIZES = {
    "full": {
        "band_n": 100_000,
        "stream_n": 100_000,
        "stream_big_n": 1_000_000,
        "stream_trials": 2,
        "invert_n": (50, 70, 90, 110, 140, 170, 200, 250, 300),
        "validate_n": (60, 120, 240),
        "symmetrize_n": (100, 400),
        "phi_terms": (100_000, 20_000, 2_000),
        "walk_radius": 100,
        "sim_n": 40,
        "sim_trials": 10_000,
        "ks_samples": 100_000,
        "ks_n": 40,
    },
    "toy": {
        "band_n": 2_000,
        "stream_n": 2_000,
        "stream_big_n": 10_000,
        "stream_trials": 2,
        "invert_n": (6, 8, 10, 12, 14, 16, 18, 20, 22),
        "validate_n": (8, 12, 16),
        "symmetrize_n": (8, 16),
        "phi_terms": (200, 100, 50),
        "walk_radius": 10,
        "sim_n": 12,
        "sim_trials": 200,
        "ks_samples": 4_000,
        "ks_n": 40,
    },
}


def _rng(seed, name):
    return np.random.default_rng([int(seed), WORKLOADS.index(name)])


def _mc_seed(rng):
    return int(rng.integers(1, 2**31 - 1))


def _cli(label, config, **check):
    return {"label": label, "kind": "cli", "config": config, "call": None,
            "check": check}


def _floats(values):
    return [float(v) for v in np.asarray(values, dtype=float)]


# ---------------------------------------------------------------------------
# trend-band: odd trials, so calibration_band runs after every stream
# ---------------------------------------------------------------------------

def _trend_band(rng, sz):
    n = sz["band_n"]
    cps = [n // 100, n // 10, n]
    common = {"command": "limsup", "alpha": 0.5, "checkpoints": cps,
              "trials": 21}
    # integer offsets keep the gaps exactly 1; a fractional offset rounds
    # them unevenly and sends the exp stream down its time-varying loop
    v0 = float(rng.integers(1, 10))
    families = [
        ("exp-unit-gaps", {"family": "exp", "v": _floats(v0 + np.arange(n))},
         {"f_class": "zero", "alpha": 0.5, "gaps": "separated"}, True),
        ("ar1-constant", {"family": "ar1", "x": [0.5] * n},
         {"f_class": "zero", "alpha": 0.5, "x_limit": 0.5}, True),
        # the unit-drift ARk band is reported but the program documents no
        # in-band claim at desk scale (README, criterion 10)
        ("ark-unit-drift", {"family": "ark", "p": list(DRIFT_P)},
         {"f_class": "zero", "alpha": 0.5}, False),
    ]
    out = []
    for label, spec, hyp, in_band in families:
        cfg = dict(common, spec=spec, hypotheses=hyp, seed=_mc_seed(rng))
        out.append(_cli(label, cfg, type="limsup", band=True, in_band=in_band))
    return out


# ---------------------------------------------------------------------------
# trend-stream: even trials (no band), time-varying coefficients
# ---------------------------------------------------------------------------

def _trend_stream(rng, sz):
    n, big, trials = sz["stream_n"], sz["stream_big_n"], sz["stream_trials"]
    cps = [n // 100, n // 10, n]
    j = np.arange(1, n + 1, dtype=float)
    out = []

    c = float(rng.uniform(0.4, 0.6))
    out.append(_cli("ar1-critical-varying", {
        "command": "limsup", "alpha": 0.5, "checkpoints": cps, "trials": trials,
        "spec": {"family": "ar1", "x": _floats(1.0 - c / np.sqrt(j))},
        "hypotheses": {"f_class": "zero", "alpha": 0.5, "x_limit": 1},
        "seed": _mc_seed(rng)}, type="limsup", band=False))

    v = np.cumsum(rng.uniform(0.5, 1.5, n))
    out.append(_cli("exp-uneven-gaps", {
        "command": "limsup", "alpha": 0.5, "checkpoints": cps, "trials": trials,
        "spec": {"family": "exp", "v": _floats(v)},
        "hypotheses": {"f_class": "zero", "alpha": 0.5, "gaps": "separated"},
        "seed": _mc_seed(rng)}, type="limsup", band=False))

    gamma = float(rng.uniform(0.8, 1.2))
    out.append(_cli("gaussian-lil", {
        "command": "limsup", "mode": "gaussian-lil", "checkpoints": cps,
        "trials": trials, "log_s": _floats(gamma * np.log(j + 1.0)),
        "seed": _mc_seed(rng)}, type="limsup", band=False))

    # alpha = 3/2 with a nonzero f exercises the rank-one shift of the paths
    v2 = np.cumsum(rng.uniform(0.5, 1.5, n))
    f0 = float(rng.uniform(0.3, 0.7))
    out.append(_cli("exp-alpha-3half-f", {
        "command": "limsup", "alpha": 1.5, "checkpoints": cps, "trials": trials,
        "spec": {"family": "exp", "v": _floats(v2)},
        "hypotheses": {"f_class": "c0", "alpha": 1.5, "gaps": "separated"},
        "f": {"values": _floats(f0 / np.sqrt(j))},
        "seed": _mc_seed(rng)}, type="limsup", band=False))

    x = round(float(rng.uniform(0.3, 0.7)), 3)
    out.append(_cli("ar1-constant-1e6", {
        "command": "limsup", "alpha": 0.5,
        "checkpoints": [big // 1000, big // 10, big], "trials": trials,
        "spec": {"family": "ar1", "x": [x] * big},
        "hypotheses": {"f_class": "zero", "alpha": 0.5, "x_limit": x},
        "seed": _mc_seed(rng)}, type="limsup", band=False))
    return out


# ---------------------------------------------------------------------------
# window-analytic: dense window algebra, ledgers, CSV writers; no sampling
# ---------------------------------------------------------------------------

def _increasing(rng, size):
    # increments bounded away from zero, as in the acceptance suite
    return rng.uniform(0.2, 1.0) + np.cumsum(rng.uniform(0.2, 2.0, size))


def _window_spec(rng, family, size):
    """A config for `family` whose windows up to `size` are admissible."""
    if family == "min":
        return {"family": "min", "s": _floats(_increasing(rng, size))}
    if family == "scaled_min":
        # b = c sqrt(s) keeps the generator row sums <= 0
        s = _increasing(rng, size)
        return {"family": "scaled_min", "s": _floats(s),
                "b": _floats(rng.uniform(0.5, 2.0) * np.sqrt(s))}
    if family == "shifted_scaled":
        return {"family": "shifted_scaled", "s": _floats(_increasing(rng, size)),
                "b": [float(rng.uniform(0.5, 2.0))] * size,
                "Delta": float(rng.uniform(0.0, 0.5))}
    if family == "exp":
        return {"family": "exp", "v": _floats(np.cumsum(rng.uniform(0.3, 1.0, size)))}
    if family == "ar1":
        return {"family": "ar1", "x": _floats(np.sort(rng.uniform(0.3, 0.9, size)))}
    if family == "ar1_shifted":
        x1 = float(rng.uniform(0.3, 0.7))
        return {"family": "ar1_shifted", "x": [x1] * size,
                "delta_tilde": float(rng.uniform(0.5, 1.0) / np.sqrt(x1 * (1 - x1)))}
    if family == "ark":
        return {"family": "ark", "p": _floats(_ark_p(rng))}
    if family == "ark_gen":
        p = _ark_p(rng)
        ps = p.sum()
        lower = 0.5 * (ps * (2.0 - ps) - np.sum(p**2))
        return {"family": "ark_gen", "p": _floats(p),
                "a_sq": float(lower + rng.uniform(0.1, 0.5))}
    if family == "rank_one_update":
        # a bump on the first row keeps the row sums <= 0; b < 1/U[3,1] = 1/s1
        s = _increasing(rng, size)
        return {"family": "rank_one_update", "base": {"family": "min", "s": _floats(s)},
                "k": 1, "l": 3, "b": float(rng.uniform(0.2, 0.6) / s[0])}
    raise ValueError(family)


def _ark_p(rng):
    # positive, non-increasing (generator available), sum < 1
    k = int(rng.integers(2, 4))
    p = np.sort(rng.uniform(0.1, 1.0, k))[::-1]
    return p / p.sum() * rng.uniform(0.6, 0.95)


def _density(rng, l, support):
    h = rng.dirichlet(np.ones(support)) * rng.uniform(0.5, 2.0)
    return {"density": _floats(h), "start": l + 1}


INVERT_FAMILIES = ("min", "scaled_min", "shifted_scaled", "exp", "ar1",
                   "ar1_shifted", "ark", "ark_gen", "rank_one_update")
# the ledger needs a symmetric window
SYMMETRIC_FAMILIES = INVERT_FAMILIES[:-1]
MIN_LIKE = ("min", "scaled_min", "shifted_scaled")
# identity refusals of the symmetrization ledger caused by round-off in the
# window inverse (nu-two-routes at about 2e-8 against NU_TOL = 1e-8, and
# round-off signs in A); known at the commit the benchmark was defined on.
# A `symmetrize` command that refuses with one of these keys is counted as a
# known defect, not as a failure; see checks.py
LEDGER_ROUNDOFF = ("nu-two-routes", "inverse-m-matrix", "isymi-block-identity")


def _window_analytic(rng, sz):
    out = []
    # invert: every family twice, at fixed sizes whose sum is the same for
    # each family, so a seed changes coefficients and not the cost
    sizes = sz["invert_n"] + sz["invert_n"][::-1]
    for family, n in zip(INVERT_FAMILIES * 2, sizes):
        n = int(n)
        l = 0 if family in MIN_LIKE + ("rank_one_update",) else int(rng.integers(0, 20))
        spec = _window_spec(rng, family, l + n + 30)
        out.append(_cli(f"invert-{family}-n{n}", {
            "command": "invert", "spec": spec, "window": {"l": l, "n": n}},
            type="invert", family=family, n=n))

    for n in sz["validate_n"]:
        for family in INVERT_FAMILIES:
            # min-kernel windows from l = 0 run the excessive-function test
            l = 0 if family in MIN_LIKE + ("rank_one_update",) else int(rng.integers(0, 20))
            spec = _window_spec(rng, family, l + n + 30)
            out.append(_cli(f"validate-{family}-n{n}", {
                "command": "validate", "spec": spec, "window": {"l": l, "n": n},
                "f": _density(rng, l, int(rng.integers(3, 12)))},
                type="validate", family=family, n=n))
        radius = sz["walk_radius"]
        out.append(_cli(f"validate-killed_walk-r{radius}", {
            "command": "validate",
            "spec": {"family": "killed_walk",
                     "step_rates": {"-1": float(rng.uniform(0.3, 0.7)),
                                    "1": float(rng.uniform(0.3, 0.7))},
                     "beta": float(rng.uniform(0.05, 1.0)), "radius": radius},
            "window": {"l": 0, "n": 2 * radius + 1}},
            type="validate", family="killed_walk", n=2 * radius + 1))

    # symmetrize: min-like windows start at l = 0 with a density-built f,
    # the inputs on which nu-two-routes is known to fail; they stay in the
    # batch and their refusals are counted as known defects
    for n in sz["symmetrize_n"]:
        for family in SYMMETRIC_FAMILIES:
            l = 0 if family in MIN_LIKE else int(rng.integers(0, 20))
            spec = _window_spec(rng, family, l + n + 30)
            out.append(_cli(f"symmetrize-{family}-n{n}", {
                "command": "symmetrize", "spec": spec, "window": {"l": l, "n": n},
                "f": _density(rng, l, int(rng.integers(3, 12))),
                "alpha": float(rng.choice([0.5, 1.0, 1.5]))},
                type="symmetrize", family=family, n=n,
                known=list(LEDGER_ROUNDOFF)))

    # phi: the acceptance suite's three p at fixed term counts
    for name, p, t in zip(("simple", "drift", "complex"),
                          (SIMPLE_P, DRIFT_P, COMPLEX_P), sz["phi_terms"]):
        out.append(_cli(f"phi-{name}-{int(t)}", {
            "command": "phi", "p": list(p), "n_terms": int(t)},
            type="phi", n=int(t)))
    for i in range(6):
        p = _ark_p(rng)
        if i % 2:
            p = p / p.sum()          # unit drift: phi tends to c1
        out.append(_cli(f"phi-random-{i}", {
            "command": "phi", "p": _floats(p), "n_terms": 500},
            type="phi", n=500))

    for name, p in (("simple", SIMPLE_P), ("complex", COMPLEX_P)):
        out.append(_cli(f"cstar-{name}", {"command": "cstar", "p": list(p)},
                        type="cstar"))
    for i in range(10):
        out.append(_cli(f"cstar-random-{i}", {"command": "cstar",
                                              "p": _floats(_ark_p(rng))},
                        type="cstar"))

    for i, (family, hyp) in enumerate(_predict_cases(rng)):
        spec = _window_spec(rng, family, 400) if family != "killed_walk" else {
            "family": "killed_walk", "step_rates": {"-1": 0.5, "1": 0.5},
            "beta": float(rng.uniform(0.05, 1.0)), "radius": 20}
        out.append(_cli(f"predict-{family}-{i}", {
            "command": "predict", "spec": spec, "hypotheses": hyp},
            type="predict", family=family))
    return out


def _predict_cases(rng):
    a = float(rng.choice([0.5, 1.0, 1.5]))
    cases = []
    for growth in (None, "geometric", "bounded-ratio"):
        for family in MIN_LIKE:
            hyp = {"f_class": "zero", "alpha": a}
            if growth:
                hyp["growth"] = growth
            cases.append((family, hyp))
    for gaps in (None, "bounded", "separated"):
        hyp = {"f_class": "zero", "alpha": a}
        if gaps:
            hyp["gaps"] = gaps
        cases.append(("exp", hyp))
    for key, val in (("x_limit", float(rng.uniform(0.3, 0.9))), ("x_limit", 1),
                     ("reg_var_index", 0.5), ("rate_limit", 0.5),
                     ("rate_index", 0.5)):
        cases.append(("ar1", {"f_class": "zero", "alpha": a, key: val}))
        cases.append(("ar1_shifted", {"f_class": "potential-l1", "alpha": a, key: val}))
    cases.append(("ark", {"f_class": "zero", "alpha": a}))
    cases.append(("ark", {"f_class": "c0", "alpha": a}))
    cases.append(("ark_gen", {"f_class": "zero", "alpha": a}))
    cases.append(("rank_one_update", {"f_class": "zero", "alpha": a}))
    cases.append(("killed_walk", {"f_class": "zero", "alpha": a}))
    cases.append(("killed_walk", {"f_class": "c0", "alpha": a}))
    return cases


# ---------------------------------------------------------------------------
# sample-ks: many short paths; permanental samples and the KS grid
# ---------------------------------------------------------------------------

def _sample_ks(rng, sz):
    n, trials = sz["sim_n"], sz["sim_trials"]
    out = []
    v = np.cumsum(rng.uniform(0.3, 1.0, n + 10))
    out.append(_cli(f"simulate-exp-{trials}x{n}", {
        "command": "simulate", "spec": {"family": "exp", "v": _floats(v)},
        "n": n, "k_half": 1, "trials": trials, "seed": _mc_seed(rng)},
        type="simulate", n=n, trials=trials, k_half=1))
    x = float(rng.uniform(0.3, 0.7))
    out.append(_cli(f"simulate-ar1-f-{trials}x{n}", {
        "command": "simulate", "spec": {"family": "ar1", "x": [x] * (n + 10)},
        "n": n, "k_half": 2, "trials": trials, "seed": _mc_seed(rng),
        "f": _density(rng, 0, int(rng.integers(3, 12)))},
        type="simulate", n=n, trials=trials, k_half=2))

    # criterion-8 grid: exp and AR1 at n = 40, alpha in {1/2, 1, 3/2},
    # with and without a potential part
    kn = sz["ks_n"]
    for family in ("exp", "ar1"):
        for with_f in (False, True):
            for alpha in (0.5, 1.0, 1.5):
                out.append({
                    "label": f"ks-{family}-{'f' if with_f else 'nof'}-a{alpha}",
                    "kind": "gamma", "config": None,
                    "call": {"family": family, "n": kn, "with_f": with_f,
                             "alpha": alpha, "indices": [2, 10, 30],
                             "m_samples": sz["ks_samples"], "seed": _mc_seed(rng)},
                    "check": {"type": "gamma", "cells": 36},
                })
    return out


_BUILDERS = {
    "trend-band": _trend_band,
    "trend-stream": _trend_stream,
    "window-analytic": _window_analytic,
    "sample-ks": _sample_ks,
}


def build(name, seed, scale="full"):
    """The command batch of workload `name` for `seed` at `scale`."""
    return _BUILDERS[name](_rng(seed, name), SIZES[scale])
