"""Output checks for one executed benchmark command.

A check reads the artifacts a command wrote and either returns a dict of
notes or raises `CheckFailed` with a short key. The tolerances are the ones
the package documents in its acceptance criteria (README), hard-coded here
so that a change to the program cannot loosen the benchmark's checks.

Two checks are statistical and are written so that chance alone does not
fail a run:

* the calibration band is a central 95% interval for the median, so about
  one seed in twenty lands outside it (1 of 30 seeds for the exp family at
  N = 10^5). A median outside the band but within one band width of it is
  a noted `band_miss`; a median farther out fails as `trend-band`.
* the criterion-8 grid runs 36 KS cells at the 5% level, so about two
  reject by chance. The program's own 5% verdicts are noted as
  `ks_rejections`; a cell fails only beyond the Bonferroni bound for a
  family-wise level of 1e-5 over the grid, or when its sample mean is more
  than six standard errors from alpha. The grid runs in every round of
  every run, and a benchmark is run hundreds of times, so a per-run level
  of 1% would fail about one run in a hundred on a correct program.
"""

import json
import math
import os

MIN_INVERSE_TOL = 1e-12      # criterion 3: min closed-form product identity
DENSE_INVERSE_TOL = 1e-8     # criterion 4: window and duality residuals
DUALITY_TOL = 1e-8           # criterion 4
PHI_GAP_TOL = 1e-10          # criterion 2
CSTAR_TOL = 1e-9             # criterion 1
NU_SLACK = 1e-8              # symmetrize.NU_TOL, the ledger's own bound
MEAN_SIGMAS = 6.0
KS_FAMILY_LEVEL = 1e-5


class CheckFailed(Exception):
    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key


def _fail(key, message):
    raise CheckFailed(key, message)


def _doc(outdir, name):
    path = os.path.join(outdir, name)
    if not os.path.exists(path):
        _fail("artifact-missing", name)
    with open(path) as fh:
        return json.load(fh)


def _lines(outdir, name):
    path = os.path.join(outdir, name)
    if not os.path.exists(path):
        _fail("artifact-missing", name)
    count = 0
    with open(path, "rb") as fh:
        for buf in iter(lambda: fh.read(1 << 20), b""):
            count += buf.count(b"\n")
    return count


def _rows(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        next(fh)
        return [line.rstrip("\n").split(",") for line in fh]


def _value(q):
    return float(q["value"])


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _expect_lines(outdir, name, rows):
    got = _lines(outdir, name)
    if got != rows + 1:
        _fail("artifact-shape", f"{name} has {got} lines, expected {rows + 1}")


def _limsup(check, outdir):
    doc = _doc(outdir, "limsup.json")
    report = doc["report"]
    median = [float(v) for v in report["median"]]
    if not (_finite(*median) and min(median) > 0):
        _fail("trend-median", f"median {median}")
    _expect_lines(outdir, "trend.csv", len(report["checkpoints"]))
    notes = {}
    if check["band"]:
        band = doc.get("band")
        if not band or "low" not in band or "high" not in band:
            _fail("band-missing", "odd-trial limsup report carries no band")
        lo, hi = _value(band["low"]), _value(band["high"])
        if not (_finite(lo, hi) and 0 < lo < hi):
            _fail("band-invalid", f"band ({lo}, {hi})")
        if check["in_band"] and not lo <= median[-1] <= hi:
            width = hi - lo
            if not lo - width <= median[-1] <= hi + width:
                _fail("trend-band", f"median {median[-1]} far outside ({lo}, {hi})")
            notes["band_miss"] = 1
    return notes


def _inverse_tol(family):
    return MIN_INVERSE_TOL if family == "min" else DENSE_INVERSE_TOL


def _validate(check, outdir):
    doc = _doc(outdir, "validate.json")
    if doc.get("result") != "ok":
        _fail("validate-result", str(doc.get("result")))
    for item in doc["checks"]:
        if item.get("status") != "ok":
            _fail(item["citation"], f"status {item.get('status')}")
        if item["citation"] == "window-inverse-identity":
            resid = _value(item["residual"])
            if not resid <= _inverse_tol(check["family"]):
                _fail("window-inverse-identity", f"residual {resid:.3e}")
        if item["citation"] == "generator-duality":
            for name, q in item["residuals"].items():
                if not _value(q) <= DUALITY_TOL:
                    _fail("generator-duality", f"{name} residual {_value(q):.3e}")
    return {}


def _invert(check, outdir):
    doc = _doc(outdir, "invert.json")
    resid = _value(doc["residual"])
    if not resid <= _inverse_tol(check["family"]):
        _fail("window-inverse-identity", f"residual {resid:.3e}")
    _expect_lines(outdir, "inverse.csv", check["n"] ** 2)
    return {}


def _symmetrize(check, outdir):
    doc = _doc(outdir, "symmetrize.json")
    nu, upper = _value(doc["nu"]), _value(doc["nu_upper"])
    if not 1.0 - NU_SLACK <= nu <= upper * (1.0 + NU_SLACK):
        _fail("nu-bounds", f"nu {nu} outside [1, {upper}]")
    lower = _value(doc["sandwich"]["lower"])
    if not 0.0 < lower <= 1.0:
        _fail("sandwich-weights", f"lower weight {lower}")
    _expect_lines(outdir, "a_vector.csv", check["n"])
    return {}


def _phi(check, outdir):
    doc = _doc(outdir, "phi.json")
    gap = _value(doc["route_gap"])
    if not gap <= PHI_GAP_TOL:
        _fail("phi-closed-form", f"route gap {gap:.3e}")
    _expect_lines(outdir, "phi.csv", check["n"])
    return {}


def _cstar(check, outdir):
    doc = _doc(outdir, "cstar.json")
    value, direct = _value(doc["value"]), _value(doc["direct_route"])
    if not abs(value - direct) <= CSTAR_TOL:
        _fail("cstar-two-routes", f"{value} vs {direct}")
    lo, hi = _value(doc["lower_bound"]), _value(doc["upper_bound"])
    if not lo - CSTAR_TOL <= value <= hi + CSTAR_TOL:
        _fail("cstar-bounds", f"{value} outside [{lo}, {hi}]")
    return {}


def _predict(check, outdir):
    doc = _doc(outdir, "predict.json")
    outcome = doc["prediction"].get("outcome")
    if outcome not in ("prediction", "no-theorem"):
        _fail("predict-outcome", str(outcome))
    if outcome == "prediction" and not (
        math.isfinite(doc["prediction"]["constant"]) and doc["prediction"]["constant"] > 0
    ):
        _fail("predicted-limsup", f"constant {doc['prediction']['constant']}")
    return {}


def _simulate(check, outdir):
    _doc(outdir, "simulate.json")
    n, trials = check["n"], check["trials"]
    _expect_lines(outdir, "samples.csv", n * trials)
    alpha = check["k_half"] / 2.0
    # X[j] is Gamma(alpha, U[j,j] + a[j]^2): the mean has standard error
    # expected / sqrt(alpha * trials)
    for index, observed, expected in _rows(outdir, "marginals.csv"):
        observed, expected = float(observed), float(expected)
        se = expected / math.sqrt(alpha * trials)
        if not abs(observed - expected) <= MEAN_SIGMAS * se:
            _fail("permanental-marginal-mean",
                  f"index {index}: {observed} vs {expected}")
    return {}


_CLI_CHECKS = {
    "limsup": _limsup,
    "validate": _validate,
    "invert": _invert,
    "symmetrize": _symmetrize,
    "phi": _phi,
    "cstar": _cstar,
    "predict": _predict,
    "simulate": _simulate,
}


def check_cli(check, outdir):
    """Notes for a CLI command that exited 0; raises CheckFailed."""
    return _CLI_CHECKS[check["type"]](check, outdir)


def check_gamma(check, report):
    """Notes for one gamma_marginal_test call; raises CheckFailed."""
    m = report.m_samples
    cell_level = KS_FAMILY_LEVEL / check["cells"]
    critical = math.sqrt(math.log(2.0 / cell_level) / 2.0) / math.sqrt(m)
    rejections = 0
    for rec in report.records:
        rejections += not rec.passed
        if not rec.statistic <= critical:
            _fail("gamma-marginal-law",
                  f"index {rec.index}: D = {rec.statistic:.4f} > {critical:.4f}")
        se = math.sqrt(report.alpha / m)
        if not abs(rec.sample_mean - report.alpha) <= MEAN_SIGMAS * se:
            _fail("gamma-marginal-law",
                  f"index {rec.index}: mean {rec.sample_mean} vs {report.alpha}")
    return {"ks_rejections": rejections}
