"""In-memory spans around the public functions of every potkernels layer.

`Tracer.install()` wraps each public function of the traced modules and
rebinds the wrapper in every `potkernels` namespace that holds the
original, so calls made through `from .x import y` bindings and through the
package re-exports are traced too; calls between functions of one module
go through the module globals and nest as child spans. `uninstall()`
restores the originals. Nothing in the package is edited.

A span is (name, module, start, end, parent, error, work). The per-layer
metrics are computed from the spans when a run ends.
"""

import functools
import inspect
import os
import sys
import time

MODULES = ("cli", "kernels", "excessive", "argen", "normalizers",
           "symmetrize", "mcsim", "serialize", "identities")

# the function metrics `<module>.<function>_s` (outermost calls, inclusive)
TIMED = (
    "mcsim.analytic_median_band", "mcsim.calibration_band",
    "mcsim.limsup_experiment", "mcsim.sample_permanental",
    "mcsim.gamma_marginal_test", "mcsim.kernel_diagonal",
    "argen.phi_recursive", "argen.phi_closed", "argen.c_star",
    "kernels.build_kernel", "kernels.window_inverse", "kernels.verify_duality",
    "kernels.build_generator", "kernels.from_config",
    "symmetrize.extend", "symmetrize.analyze",
    "excessive.rho", "excessive.apply_potential",
    "normalizers.predict", "normalizers.koval",
)


# extractors take arg(name), the call's argument by parameter name, and the
# result


def _band_points(arg, result):
    return len(arg("diag"))


def _coords(arg, result):
    cfg = arg("config")
    rows = 1 if cfg.mode == "gaussian-lil" else int(round(2 * cfg.alpha))
    return int(cfg.checkpoints[-1]) * int(cfg.trials) * rows


def _phi_terms(arg, result):
    return int(arg("N"))


def _window_cells(arg, result):
    return int(arg("window").n) ** 2


def _ledger_cells(arg, result):
    return int(result.K_ext.shape[0]) ** 2


def _bytes_written(arg, result):
    return os.path.getsize(arg("path"))


# work counters: function -> (counter name, extractor); outermost calls only
WORK = {
    "mcsim.analytic_median_band": ("mcsim.band_points", _band_points),
    "mcsim.limsup_experiment": ("mcsim.coords", _coords),
    "argen.phi_recursive": ("argen.phi_terms", _phi_terms),
    "argen.phi_closed": ("argen.phi_terms", _phi_terms),
    "kernels.build_kernel": ("kernels.window_cells", _window_cells),
    "symmetrize.analyze": ("symmetrize.ledger_cells", _ledger_cells),
    "serialize.write_json": ("serialize.bytes", _bytes_written),
    "serialize.write_table_csv": ("serialize.bytes", _bytes_written),
    "serialize.write_matrix_csv": ("serialize.bytes", _bytes_written),
    "serialize.write_sequence_csv": ("serialize.bytes", _bytes_written),
}


def public_functions(module):
    """Functions defined in `module` whose names do not start with '_'."""
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._errors = []          # exceptions already counted by key

    # -- patching ----------------------------------------------------------

    def install(self):
        from potkernels.kernels import KernelSpec

        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"potkernels.{short}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", short, fn)
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == "potkernels" or key.startswith("potkernels.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        # the spec parser is a static method, not a module-level function
        raw = KernelSpec.__dict__["from_config"]
        self._patches.append((KernelSpec, "from_config", raw))
        KernelSpec.from_config = staticmethod(
            self._wrap("kernels.from_config", "kernels", raw.__func__))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def _wrap(self, full, module, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(full)
        params = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [full, module, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, None, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = self._error_key(exc)
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[6] = work[1](
                    lambda name: kwargs[name] if name in kwargs
                    else args[params.index(name)], result)
            return result

        return wrapper

    def _error_key(self, exc):
        """The identity key the first time an IdentityError leaves a span,
        '' for any other exception and for one already counted."""
        key = getattr(exc, "key", None)
        if not isinstance(key, str) or any(seen is exc for seen in self._errors):
            return ""
        self._errors.append(exc)
        return key

    def end_command(self):
        self._errors.clear()

    # -- aggregation -------------------------------------------------------

    def layer_totals(self):
        """Per-layer sums over every span recorded so far."""
        totals = {}

        def add(key, value):
            totals[key] = totals.get(key, 0.0) + value

        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
        for i, (full, module, t0, t1, parent, error, work) in enumerate(self.spans):
            dur = t1 - t0
            add(f"{module}.self_s", dur - child_time[i])
            add(f"{module}.calls", 1)
            if error is not None:
                add(f"{module}.errors", 1)
                if error:
                    add(f"identities.errors.{error}", 1)
            if full in TIMED or full in WORK:
                outermost = True
                p = parent
                while p >= 0:
                    if self.spans[p][0] == full or (
                        full.startswith("serialize.") and self.spans[p][1] == "serialize"
                    ):
                        outermost = False
                        break
                    p = self.spans[p][4]
                if outermost:
                    if full in TIMED:
                        add(f"{full}_s", dur)
                    if full in WORK:
                        add(WORK[full][0], work)
        return totals
