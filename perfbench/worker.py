"""Runs one workload's command batch in rounds and writes the raw results.

Started by run.py in a fresh interpreter, so the process that runs the
workload holds nothing but the package, this harness and the batch. It
reads the manifest (commands plus their config files), runs the batch
back to back in rounds until --seconds of measured time have passed,
checks every output after its round, and writes result.json.

With --trace 1 the rounds alternate untraced and traced, starting
untraced; the traced rounds give the per-layer totals and the difference
of the two medians gives the tracing overhead.

A shared machine's speed drifts by tens of percent over seconds, so a
fixed reference kernel is timed between commands (after every REF_EVERY_S
of command time; the median of REF_REPEATS timings, since one timing of
the kernel is itself noisy), and each command also gets a normalized
time: its wall time scaled by REF_NOMINAL_S over the mean of the
reference timings just before and after it. A change to the
program moves the normalized time as it moves the wall time; a slow
stretch of the machine moves both the command and its references.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time

# no new round starts once this many seconds have passed since start-up
HARD_LIMIT_S = 100.0
_ERROR_KEY = re.compile(r"^error: \[([^\]]+)\]")
REF_EVERY_S = 0.5
REF_REPEATS = 3
REF_NOMINAL_S = 0.035        # the reference kernel's median time on a 2.1 GHz x86-64 core


def _reference_body(data):
    import numpy as np

    acc = 0.0
    for i in range(120_000):
        acc += i * 0.5
    a = data["vec"]
    for _ in range(12):
        a = np.sqrt(a * a + 1.0) - 0.5
    x, one = data["pair"], data["pair"]
    for _ in range(6000):
        x = x * 0.5 + one
    "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(data["row"]))


def reference_timings(_data={}):
    """REF_REPEATS timings, in seconds, of about 35 ms of work shaped like
    the package's: an interpreted float loop, whole-array passes, numpy
    calls on tiny arrays and float formatting. It calls nothing in the
    package."""
    if not _data:
        import numpy as np

        _data.update(vec=np.linspace(1.0, 2.0, 1 << 17), pair=np.ones(2),
                     row=np.linspace(0.0, 1.0, 6000))
        _reference_body(_data)          # first calls pay one-off costs
    timings = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_body(_data)
        timings.append(time.perf_counter() - t0)
    return timings


def _digest_dir(outdir, extra=b""):
    digests = {}
    for name in sorted(os.listdir(outdir)):
        h = hashlib.sha256()
        with open(os.path.join(outdir, name), "rb") as fh:
            for buf in iter(lambda: fh.read(1 << 20), b""):
                h.update(buf)
        digests[name] = h.hexdigest()
    if extra:
        digests["<stderr>"] = hashlib.sha256(extra).hexdigest()
    return digests


class Runner:
    def __init__(self):
        import numpy as np
        import potkernels.cli
        import potkernels.kernels
        import potkernels.mcsim

        self.np = np
        self.cli = potkernels.cli
        self.kernels = potkernels.kernels
        self.mcsim = potkernels.mcsim

    def _gamma_args(self, call):
        np, k = self.np, self.kernels
        n = call["n"]
        spec = (k.ExpKernel(v=np.arange(float(n))) if call["family"] == "exp"
                else k.AR1(x=np.full(n - 1, 0.5)))
        f = np.ones(n) if call["with_f"] else None
        return (spec, f, call["alpha"], call["indices"], call["m_samples"],
                call["seed"])

    def execute(self, cmd, outdir):
        """Run one command; returns (seconds, outcome) with no checks."""
        err = io.StringIO()
        rc, report, exc = None, None, None
        if cmd["kind"] == "cli":
            argv = ["--config", cmd["config_path"], "--out", outdir, "--quiet"]
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    rc = self.cli.main(argv)
            except Exception as e:          # a crash is a result to report
                exc = e
            dt = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            try:
                report = self.mcsim.gamma_marginal_test(*self._gamma_args(cmd["call"]))
                rc = 0
            except Exception as e:
                exc = e
            dt = time.perf_counter() - t0
        return dt, (rc, report, exc, err.getvalue())

    def classify(self, cmd, outdir, outcome):
        """(status, notes, digests); status 'ok' or '<class>:<key>'. A refusal
        with a key the command lists as `known` has class 'known'."""
        from checks import CheckFailed, check_cli, check_gamma

        rc, report, exc, stderr = outcome
        notes = {}
        if exc is not None:
            key = getattr(exc, "key", None)
            status = (f"identity:{key}" if isinstance(key, str)
                      else f"exception:{type(exc).__name__}")
            return status, notes, {"<error>": hashlib.sha256(str(exc).encode()).hexdigest()}
        if rc == 0:
            try:
                if cmd["kind"] == "cli":
                    notes = check_cli(cmd["check"], outdir)
                else:
                    notes = check_gamma(cmd["check"], report)
                status = "ok"
            except CheckFailed as failed:
                status = f"check:{failed.key}"
            if cmd["kind"] == "cli":
                digests = _digest_dir(outdir)
            else:
                blob = json.dumps([[r.index, r.statistic, r.sample_mean]
                                   for r in report.records]).encode()
                digests = {"<records>": hashlib.sha256(blob).hexdigest()}
            return status, notes, digests
        match = _ERROR_KEY.match(stderr.strip())
        if rc == 1 and match and match.group(1) in cmd["check"].get("known", ()):
            status = f"known:{match.group(1)}"
        elif rc == 1 and match:
            status = f"identity:{match.group(1)}"
        elif rc == 2:
            status = "usage:exit-2"
        else:
            status = f"exit:{rc}"
        return status, notes, _digest_dir(outdir, stderr.encode())


def run(args):
    started = time.perf_counter()
    with open(args.manifest) as fh:
        commands = json.load(fh)
    runner = Runner()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    rounds = []
    first_digests = [None] * len(commands)
    mismatches = []
    measured = 0.0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        base = os.path.join(args.workdir, "out", f"r{len(rounds)}")
        dirs = [os.path.join(base, str(i)) for i in range(len(commands))]
        for d in dirs:
            os.makedirs(d)
        if traced:
            tracer.install()
        times, norm, outcomes, pending = [], [], [], []
        ref_samples = [reference_timings()]
        ref_prev, since_ref = statistics.median(ref_samples[0]), 0.0
        refs = [ref_prev]
        for k, (cmd, outdir) in enumerate(zip(commands, dirs)):
            dt, outcome = runner.execute(cmd, outdir)
            times.append(dt)
            outcomes.append(outcome)
            if traced:
                tracer.end_command()
            pending.append(dt)
            since_ref += dt
            if since_ref >= REF_EVERY_S or k == len(commands) - 1:
                ref_samples.append(reference_timings())
                ref_next = statistics.median(ref_samples[-1])
                refs.append(ref_next)
                scale = REF_NOMINAL_S / (0.5 * (ref_prev + ref_next))
                norm.extend(t * scale for t in pending)
                ref_prev, since_ref, pending = ref_next, 0.0, []
        wall = sum(times)
        if traced:
            tracer.uninstall()
        measured += wall

        statuses, notes = [], {}
        for i, (cmd, outdir, outcome) in enumerate(zip(commands, dirs, outcomes)):
            status, cmd_notes, digests = runner.classify(cmd, outdir, outcome)
            statuses.append(status)
            for key, value in cmd_notes.items():
                notes[key] = notes.get(key, 0) + value
            if first_digests[i] is None:
                first_digests[i] = digests
            elif digests != first_digests[i]:
                mismatches.append({"label": cmd["label"], "round": len(rounds)})
        shutil.rmtree(base)
        rounds.append({"traced": traced, "wall_s": wall, "times": times,
                       "norm_wall_s": sum(norm), "norm_times": norm,
                       "reference_s": refs, "reference_samples_s": ref_samples,
                       "statuses": statuses, "notes": notes})

        since_start = time.perf_counter() - started
        need_pair = tracer is not None and len(rounds) < 2
        if (measured >= args.seconds and not need_pair) or since_start > HARD_LIMIT_S:
            break

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # same config and seed must give the same bytes: the batch's cheapest
    # command runs once more after the rounds (every command is also
    # compared across rounds)
    pick = min(range(len(commands)), key=lambda i: rounds[0]["times"][i])
    outdir = os.path.join(args.workdir, "out", "repeat")
    os.makedirs(outdir)
    _, outcome = runner.execute(commands[pick], outdir)
    _, _, repeat_digests = runner.classify(commands[pick], outdir, outcome)
    shutil.rmtree(outdir)
    repeat_match = repeat_digests == first_digests[pick]

    import numpy
    import scipy

    result = {
        "rounds": rounds,
        "peak_rss_kib": peak_kib,
        "digests": {cmd["label"]: d for cmd, d in zip(commands, first_digests)},
        "digest_mismatches": mismatches,
        "repeat": {"label": commands[pick]["label"], "match": repeat_match},
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "package_file": runner.cli.__file__,
    }
    if tracer is not None:
        n_traced = sum(r["traced"] for r in rounds)
        totals = tracer.layer_totals()
        result["trace"] = {
            "totals_per_round": {k: v / n_traced for k, v in totals.items()},
            "spans_per_round": len(tracer.spans) / n_traced,
        }
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(result, fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    run(args)


if __name__ == "__main__":
    main()
