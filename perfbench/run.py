"""potkernels benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload trend-band --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload
    python3 perfbench/run.py --smoke                       # toy sizes, seconds

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed. The workload's commands are generated from
--seed (see workloads.py), written as JSON configs, and run one at a time
in a single fresh process through `potkernels.cli.main` (a closed loop
with one client). BLAS threads are capped at min(nproc, 2).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (see spans.py). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. A record
of the run (environment, per-command times and statuses, SHA-256 of every
artifact) is written under .perfbench/records/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

BLAS_CAP = min(2, len(os.sched_getaffinity(0)))
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = str(BLAS_CAP)

sys.path.insert(0, HERE)
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_IMPORTS = 3            # fresh interpreters timed per run for setup_s
# the reference for setup_s: a fresh interpreter importing the third-party
# modules the package imported when the benchmark was defined, and its
# median wall time on a 2.1 GHz x86-64 core
SETUP_REFERENCE = "import numpy, scipy.signal, scipy.special"
SETUP_REFERENCE_NOMINAL_S = 1.6
RUN_TIMEOUT_S = 170.0        # the whole run, setup and worker included

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd_p50_s", "s"),
    ("cmd_p90_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_ratio", "1"),
)

# identity keys registered at the commit the benchmark was defined on; a
# key added later is counted under identities.errors.other
IDENTITY_KEYS = (
    "min-kernel-definition", "min-window-inverse", "min-inverse-column-sums",
    "window-inverse-identity", "generator-duality", "ark-cholesky-factor",
    "ark-interior-row-sums", "ark-window-row-sums", "ark-diagonal-monotone",
    "q-matrix-signs", "inverse-m-matrix", "kernel-domination",
    "diagonal-generator-bound", "banded-kernel-decay", "shift-admissible-scaled",
    "shift-admissible-ar1", "shift-admissible-arkgen", "rank-one-admissible",
    "rank-one-update", "killed-walk-row-sums", "killed-walk-flat-diagonal",
    "potential-application", "potential-upper-bound", "excessive-ratio-test",
    "riesz-decomposition", "density-recovery", "density-l1-identity",
    "potential-ratio-decreasing", "rho-quadratic-form", "rho-min-closed-form",
    "rho-nonnegative", "phi-recursion", "phi-range", "phi-closed-form",
    "char-roots-location", "partial-fraction-reconstruction", "b1-at-unit-root",
    "phi-l1-identity", "cstar-two-routes", "cstar-bounds",
    "growth-normalizer-ceiling", "growth-normalizer-cap-invariance",
    "predicted-limsup", "gaussian-lil", "extended-kernel-determinant",
    "extension-inverse-closed-form", "extension-row-sums",
    "coupling-sum-identities", "nu-two-routes", "nu-bounds", "a-vector-bound",
    "isymi-block-identity", "sandwich-weights", "sandwich-linear-bound",
    "gaussian-covariance", "gamma-marginal-law", "permanental-marginal-mean",
    "subsequence-pairwise-bound", "subsequence-growth-bound", "trend-band",
    "trend-direction",
)


def _per_layer_names():
    names = [(f"{f}_s", "s") for f in spans.TIMED]
    names += [("mcsim.band_points", "count"), ("mcsim.coords", "count"),
              ("mcsim.coords_per_s", "1/s"), ("argen.phi_terms", "count"),
              ("kernels.window_cells", "count"), ("symmetrize.ledger_cells", "count"),
              ("serialize.bytes", "B"), ("serialize.bytes_per_s", "B/s")]
    for module in spans.MODULES:
        names += [(f"{module}.self_s", "s"), (f"{module}.calls", "count"),
                  (f"{module}.errors", "count")]
    names += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
              ("trace.overhead_s", "s"), ("trace.spans", "count"),
              ("target.share", "1"), ("checks.band_misses", "count"),
              ("checks.ks_rejections", "count"), ("checks.known_defects", "count")]
    names += [(f"identities.errors.{k}", "count") for k in IDENTITY_KEYS]
    names.append(("identities.errors.other", "count"))
    return names


PER_LAYER = tuple(_per_layer_names())

# the layers each workload is built to stress, as named in its target share
TARGETS = {
    "trend-band": ("mcsim.analytic_median_band_s",),
    "trend-stream": ("mcsim.limsup_experiment_s",),
    "window-analytic": ("kernels.self_s", "symmetrize.self_s", "serialize.self_s"),
    "sample-ks": ("mcsim.sample_permanental_s", "mcsim.gamma_marginal_test_s",
                  "serialize.self_s"),
}


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise HarnessError("run exceeded its time limit")
    return left


def _fresh_import(code, deadline):
    """Wall time of `python -c code` in a fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=_remaining(deadline))
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError(f"{code} failed: "
                           + proc.stderr.decode(errors="replace")[-500:])
    return dt


def measure_setup(count, deadline):
    """(normalized, raw) wall times of `import potkernels.cli` in `count`
    fresh interpreters, run between two fresh interpreters that import
    SETUP_REFERENCE. Each is scaled by SETUP_REFERENCE_NOMINAL_S over the
    mean of the two reference timings: start-up work drifts with the machine
    the same way for both, and the reference runs nothing from the package."""
    ref_first = _fresh_import(SETUP_REFERENCE, deadline)
    raw = [_fresh_import("import potkernels.cli", deadline) for _ in range(count)]
    ref_last = _fresh_import(SETUP_REFERENCE, deadline)
    scale = SETUP_REFERENCE_NOMINAL_S / (0.5 * (ref_first + ref_last))
    return [(dt * scale, dt) for dt in raw]


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            read = lambda name: open(os.path.join(base, entry, name)).read().strip()
            sizes[f"L{read('level')}-{read('type')}"] = read("size")
    except OSError:
        pass
    return sizes


def prepare(name, seed, scale, workdir):
    """Write the batch's configs and manifest; returns the manifest path."""
    commands = workloads.build(name, seed, scale)
    os.makedirs(os.path.join(workdir, "configs"))
    for i, cmd in enumerate(commands):
        if cmd["kind"] == "cli":
            path = os.path.join(workdir, "configs", f"{i}.json")
            with open(path, "w") as fh:
                fh.write(json.dumps(cmd["config"]))
            cmd["config_path"] = path
        cmd["config"] = None
    manifest = os.path.join(workdir, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump(commands, fh)
    return manifest


def run_worker(manifest, workdir, seconds, trace, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--manifest", manifest,
           "--workdir", workdir, "--src", SRC, "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise HarnessError("workload did not finish in time") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with {proc.returncode}")
    with open(os.path.join(workdir, "result.json")) as fh:
        result = json.load(fh)
    if os.path.dirname(os.path.dirname(result["package_file"])) != SRC:
        raise HarnessError(f"imported potkernels from {result['package_file']}")
    return result


def harrell_davis(values, q):
    """The Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    all order statistics. Unlike a single order statistic, it does not jump
    when the values next to the quantile swap places or have a gap between
    them."""
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x))


def summarize(name, result, setup):
    """End-to-end and per-layer metrics plus the counts behind them."""
    timed = [r for r in result["rounds"] if not r["traced"]]
    traced = [r for r in result["rounds"] if r["traced"]]
    statuses = [s for r in result["rounds"] for s in r["statuses"]]
    attempted = len(statuses)
    # a refusal the workload lists as a known defect of the program
    # (workloads.LEDGER_ROUNDOFF) is not a failure of the run; it is counted
    # apart and lowers pass_ratio, so that a fix shows
    known_defects = sum(s.startswith("known:") for s in statuses)
    failed = sum(s != "ok" for s in statuses) - known_defects
    by_key = {}
    for s in statuses:
        if s != "ok":
            by_key[s] = by_key.get(s, 0) + 1
    # honest refusals (exit 1 with an identity key) are failures, not wrong
    # answers; anything else that fails means an output cannot be trusted
    wrong = sum(v for k, v in by_key.items()
                if not k.startswith(("identity:", "known:")))
    correct = (wrong == 0 and not result["digest_mismatches"]
               and result["repeat"]["match"])
    notes = {}
    for r in result["rounds"]:
        for k, v in r["notes"].items():
            notes[k] = notes.get(k, 0) + v

    # timings are reference-normalized (worker.py); raw ones are kept beside.
    # A command's time is its median over the rounds; the percentiles are
    # taken over the batch's commands
    executions = sum(len(r["norm_times"]) for r in timed)
    per_cmd = [statistics.median(ts) for ts in zip(*(r["norm_times"] for r in timed))]
    raw_per_cmd = [statistics.median(ts) for ts in zip(*(r["times"] for r in timed))]
    e2e = {
        "wall_s": (sum(per_cmd), len(timed)),
        "cmd_p50_s": (harrell_davis(per_cmd, 0.5), executions),
        "cmd_p90_s": (harrell_davis(per_cmd, 0.9), executions),
        "peak_rss_mb": (result["peak_rss_kib"] / 1024.0, 1),
        "pass_ratio": (1.0 - (failed + known_defects) / attempted, attempted),
    }
    raw = {
        "wall_s": sum(raw_per_cmd),
        "cmd_p50_s": harrell_davis(raw_per_cmd, 0.5),
        "cmd_p90_s": harrell_davis(raw_per_cmd, 0.9),
    }
    if setup:
        e2e["setup_s"] = (statistics.median(n for n, _ in setup), len(setup))
        raw["setup_s"] = statistics.median(r for _, r in setup)

    layers = None
    if traced:
        tot = dict(result["trace"]["totals_per_round"])
        # layer times are raw span times, so the share divides by the raw
        # traced wall; the overhead compares normalized walls
        raw_traced = statistics.mean(r["wall_s"] for r in traced)
        t_wall = statistics.median(r["norm_wall_s"] for r in traced)
        u_wall = statistics.median(r["norm_wall_s"] for r in timed)
        layers = {k: tot.get(k, 0.0) for k, _ in PER_LAYER}
        le = layers["mcsim.limsup_experiment_s"]
        layers["mcsim.coords_per_s"] = layers["mcsim.coords"] / le if le else 0.0
        ser = layers["serialize.self_s"]
        layers["serialize.bytes_per_s"] = layers["serialize.bytes"] / ser if ser else 0.0
        layers["trace.wall_s"] = t_wall
        layers["trace.untraced_wall_s"] = u_wall
        layers["trace.overhead_s"] = t_wall - u_wall
        layers["trace.spans"] = result["trace"]["spans_per_round"]
        layers["target.share"] = sum(layers[k] for k in TARGETS[name]) / raw_traced
        n_rounds = len(result["rounds"])
        layers["checks.band_misses"] = notes.get("band_miss", 0) / n_rounds
        layers["checks.ks_rejections"] = notes.get("ks_rejections", 0) / n_rounds
        layers["checks.known_defects"] = known_defects / n_rounds
        known = {f"identities.errors.{k}" for k in IDENTITY_KEYS}
        layers["identities.errors.other"] = sum(
            v for k, v in tot.items()
            if k.startswith("identities.errors.") and k not in known)
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "known_defects": known_defects,
        "failures_by_key": dict(sorted(by_key.items())), "notes": notes,
        "end_to_end": e2e, "raw_s": raw, "per_layer": layers,
        "totals": result.get("trace", {}).get("totals_per_round"),
        "raw_traced_wall_s": raw_traced if traced else None,
    }


def _print_report(name, seed, summary, result, trace):
    print(f"== {name} (seed {seed}, trace {trace}) ==")
    rounds = result["rounds"]
    print(f"rounds: {len(rounds)} ({sum(r['traced'] for r in rounds)} traced), "
          f"commands per round: {len(rounds[0]['times'])}")
    if not trace:
        for metric, unit in END_TO_END:
            value, n = summary["end_to_end"][metric]
            raw = summary["raw_s"].get(metric)
            extra = f", unnormalized {raw:.6g} s" if raw is not None else ""
            print(f"  {metric:<14} {value:>14.6g} {unit:<4} (samples: {n}{extra})")
    else:
        layers, tot = summary["per_layer"], summary["totals"]
        base = summary["raw_traced_wall_s"]
        print(f"  traced wall {layers['trace.wall_s']:.4f} s, untraced "
              f"{layers['trace.untraced_wall_s']:.4f} s, overhead "
              f"{layers['trace.overhead_s']:+.4f} s")
        print(f"  target {' + '.join(TARGETS[name])}: share "
              f"{layers['target.share']:.3f} of traced wall")
        self_times = sorted(((v, k) for k, v in tot.items() if k.endswith(".self_s")),
                            reverse=True)
        print("  self time by layer: " + ", ".join(
            f"{k[:-7]} {v / base:.3f}" for v, k in self_times))
        fn_times = sorted(((v, k) for k, v in tot.items()
                           if k.endswith("_s") and not k.endswith(".self_s")),
                          reverse=True)[:6]
        print("  largest functions (inclusive share): " + ", ".join(
            f"{k[:-2]} {v / base:.3f}" for v, k in fn_times))
    print(f"  attempted {summary['attempted']}, failed {summary['failed']}, "
          f"known defects {summary['known_defects']}, correct {summary['correct']}")
    for key, count in summary["failures_by_key"].items():
        kind = "known defect" if key.startswith("known:") else "failure"
        print(f"    {kind} {key}: {count}")
    for key, count in sorted(summary["notes"].items()):
        print(f"    note {key}: {count}")
    print(f"  repeat of {result['repeat']['label']!r} byte-identical: "
          f"{result['repeat']['match']}; digest mismatches across rounds: "
          f"{len(result['digest_mismatches'])}")


def _workload_digest(digests):
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def run_one(name, seed, seconds, trace, scale, setup_count, deadline):
    tag = f"{name}-s{seed}-t{trace}-{scale}"
    workdir = os.path.join(STATE, "work", f"{tag}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        manifest = prepare(name, seed, scale, workdir)
        setup = [] if trace else measure_setup(setup_count, deadline)
        result = run_worker(manifest, workdir, seconds, trace, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = summarize(name, result, setup)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale,
        "environment": {"nproc": len(os.sched_getaffinity(0)),
                        "blas_thread_cap": BLAS_CAP, "caches": _cache_sizes(),
                        **result["versions"]},
        "setup_samples_s": setup,
        "summary": summary,
        "workload_sha256": _workload_digest(result["digests"]),
        "artifact_sha256": result["digests"],
        "repeat": result["repeat"],
        "digest_mismatches": result["digest_mismatches"],
        "rounds": result["rounds"],
    }
    os.makedirs(os.path.join(STATE, "records"), exist_ok=True)
    path = os.path.join(STATE, "records", f"{tag}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    _print_report(name, seed, summary, result, trace)
    env = record["environment"]
    print(f"  environment: nproc {env['nproc']}, BLAS cap {BLAS_CAP}, python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"caches {env['caches']}")
    print(f"  workload sha256 {record['workload_sha256'][:16]}..., record "
          f"{os.path.relpath(path, ROOT)}")
    return summary


def _metrics(summary, trace):
    if trace:
        return {k: {"value": summary["per_layer"][k], "unit": u} for k, u in PER_LAYER}
    return {k: {"value": summary["end_to_end"][k][0], "unit": u} for k, u in END_TO_END}


def smoke(seed):
    """Every workload at toy sizes, both modes; checks every metric appears."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    problems = []
    expected = {0: [k for k, _ in END_TO_END], 1: [k for k, _ in PER_LAYER]}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as fh:
            doc = json.load(fh)
        if [m["name"] for m in doc["end_to_end"]] != expected[0]:
            problems.append("BENCHMARK.json end_to_end differs from the harness")
        if [m["name"] for m in doc["per_layer"]] != expected[1]:
            problems.append("BENCHMARK.json per_layer differs from the harness")
        if [w["name"] for w in doc["workloads"]] != list(workloads.WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from the harness")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            summary = run_one(name, seed, 0, trace, "toy", 1, deadline)
            metrics = _metrics(summary, trace)
            missing = [k for k in expected[trace] if k not in metrics]
            if missing:
                problems.append(f"{name} trace {trace}: missing {missing}")
            if not summary["correct"]:
                problems.append(f"{name} trace {trace}: outputs not correct")
    print("smoke: " + ("ok" if not problems else "; ".join(problems)))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="potkernels benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy sizes and check the metrics")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "potkernels", "__init__.py")):
        print(f"error: no package source at {os.path.relpath(SRC)}/potkernels; "
              "run from the root of a potkernels checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        summaries = {}
        for name in names:
            summaries[name] = run_one(name, args.seed, args.seconds, args.trace,
                                      "full", SETUP_IMPORTS,
                                      time.monotonic() + RUN_TIMEOUT_S)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        s = summaries[names[0]]
        metrics = _metrics(s, args.trace)
    else:
        metrics = {f"{n}.{k}": v for n, s in summaries.items()
                   for k, v in _metrics(s, args.trace).items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
