"""Call-boundary probes for the campaign benchmark.

A `Probe` patches public functions of pilothop's modules for the duration
of a ``with`` block and restores them on exit; nothing under ``src/`` is
changed. Every wrapper records a span (inclusive and self seconds, call
count) on a stack, so a layer's self time excludes the spans it caused.

The untraced probe wraps only what the end-to-end metrics need: the wall
time of each ``harness.run_trial`` and the outcome of each solve. The traced probe
wraps every layer boundary listed in ``LAYERS``.
"""
from __future__ import annotations

import functools
import inspect
import time
import weakref
from collections import Counter, defaultdict

from pilothop import detection, harness, serialize, simulator, solvers, sysmodel


class SignatureChanged(RuntimeError):
    """A wrapped public function no longer has the parameters the probes read."""


# (owner, attribute) -> the parameter names the probes were written against.
# The wrappers read arguments by position and name, so a changed signature
# must stop the run instead of silently timing the wrong thing.
SIGNATURES = {
    (harness, "build_context"): ("config",),
    (harness, "run_trial"): ("ctx", "trial_index", "workspaces", "keep_dump", "localize"),
    (harness, "aggregate"): ("config", "results"),
    (harness, "emit_results"): ("config", "roc_rows", "rmsd_rows", "out_dir", "dumps"),
    (serialize, "dump"): ("obj", "path", "indent"),
    (sysmodel, "build_system"): ("config", "rng", "bs_positions"),
    (sysmodel, "neighbor_sets"): ("topology", "r"),
    (solvers, "nnls_solve"): ("A", "y", "options"),
    (solvers, "regularized_solve"): ("A", "y", "reg", "options", "workspace"),
    (solvers.RegularizedWorkspace, "__init__"): ("self", "A", "reg", "options"),
    (solvers.RegularizedWorkspace, "factor"): ("self", "rho"),
    (simulator, "sample_events"): ("config", "rng"),
    (simulator, "sample_activity"): ("topology", "events", "config", "rng"),
    (simulator, "monte_carlo_energy"):
        ("code", "activity", "fading", "config", "rng", "noise_rng"),
    (detection, "threshold_detect"): ("alpha_hat", "threshold"),
    (detection, "confusion_metrics"): ("detected", "truth"),
    (detection, "localize_events"):
        ("user_positions", "detected", "true_events", "rng", "n_restarts"),
    (detection, "kmeans_cluster"):
        ("points", "n_clusters", "rng", "n_restarts", "max_iter", "tol"),
    (detection, "match_events"): ("true_events", "centroids"),
}

UNTRACED = (
    (harness, "run_trial"),
    (solvers, "nnls_solve"),
    (solvers, "regularized_solve"),
)
LAYERS = tuple(SIGNATURES)


def _label(owner, name) -> str:
    return f"{getattr(owner, '__name__', owner)}.{name}".replace("pilothop.", "")


def signature_mismatches(targets=LAYERS) -> list[str]:
    """One line per wrapped function whose parameters differ from SIGNATURES."""
    problems = []
    for owner, name in targets:
        fn = getattr(owner, name, None)
        if fn is None:
            problems.append(f"{_label(owner, name)} is missing")
            continue
        found = tuple(inspect.signature(fn).parameters)
        if found != SIGNATURES[(owner, name)]:
            problems.append(
                f"{_label(owner, name)}{found} != expected {SIGNATURES[(owner, name)]}"
            )
    return problems


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Probe:
    """Patch pilothop's public functions and record spans while active.

    Attributes after use:
      seconds / self_seconds / calls: per span name, summed over calls.
      iterations: solver iterations per solver span name.
      trial_seconds: wall time of each run_trial call, in call order.
      solves / unconverged: solve attempts and those with converged=False.
      samples: (A, y, reg or None, alpha_hat) for the first solve of each
        (kind, lambda) pair, kept for the KKT check.
    """

    def __init__(self, trace: bool):
        self.targets = LAYERS if trace else UNTRACED
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = Counter()
        self.iterations = Counter()
        self.trial_seconds: list[float] = []
        self.solves = 0
        self.unconverged = 0
        self.samples: dict = {}
        self._stack: list[float] = []
        self._factored = weakref.WeakKeyDictionary()
        self._saved: list = []

    # --- span bookkeeping -------------------------------------------------

    def _timed(self, fn, name_of, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs) if callable(name_of) else name_of
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                self.seconds[name] += dt
                self.self_seconds[name] += dt - child
                self.calls[name] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(result, args, kwargs, dt)
            return result

        return wrapper

    def _factor(self, fn):
        """Span only the first factor() call per (workspace, rho): the others
        are cache hits that belong to the caller's x-update."""
        timed = self._timed(fn, "solvers.factor")

        @functools.wraps(fn)
        def wrapper(ws, rho):
            seen = self._factored.setdefault(ws, set())
            if rho in seen:
                return fn(ws, rho)
            seen.add(rho)
            return timed(ws, rho)

        return wrapper

    # --- per-function hooks -----------------------------------------------

    def _after_solve(self, name, result, key, A, y, reg):
        self.iterations[name] += result.iterations
        self.solves += 1
        self.unconverged += not result.converged
        if key not in self.samples:
            self.samples[key] = (A, y, reg, result.alpha_hat)

    def _wrapper_for(self, owner, name, fn):
        if (owner, name) == (harness, "run_trial"):
            return self._timed(fn, "harness.run_trial",
                               lambda r, a, k, dt: self.trial_seconds.append(dt))
        if (owner, name) == (solvers, "nnls_solve"):
            return self._timed(fn, "solvers.nnls", lambda r, a, k, dt: self._after_solve(
                "solvers.nnls", r, ("nnls", 0.0), _arg(a, k, 0, "A"), _arg(a, k, 1, "y"), None))
        if (owner, name) == (solvers, "regularized_solve"):
            def span(a, k):
                return "solvers." + _arg(a, k, 2, "reg").kind

            def after(r, a, k, dt):
                reg = _arg(a, k, 2, "reg")
                self._after_solve(span(a, k), r, (reg.kind, reg.lam),
                                  _arg(a, k, 0, "A"), _arg(a, k, 1, "y"), reg)

            return self._timed(fn, span, after)
        if (owner, name) == (solvers.RegularizedWorkspace, "factor"):
            return self._factor(fn)
        span = {
            "emit_results": "harness.emit",
            "__init__": "solvers.workspace",
        }.get(name, _label(owner, name))
        return self._timed(fn, span)

    # --- install / restore ------------------------------------------------

    def __enter__(self):
        problems = signature_mismatches(self.targets)
        if problems:
            raise SignatureChanged("; ".join(problems))
        for owner, name in self.targets:
            fn = getattr(owner, name)
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._wrapper_for(owner, name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)
        return False

    # --- traced metrics ---------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass: (value, unit). A layer that never ran
        on the workload reads 0."""
        s, c, it = self.seconds, self.calls, self.iterations
        admm_iters = it["solvers.tv"] + it["solvers.glasso"]
        admm_s = s["solvers.tv"] + s["solvers.glasso"]
        trial_s = s["harness.run_trial"]
        trial_self = self.self_seconds["harness.run_trial"]
        energy = ("simulator.sample_events", "simulator.sample_activity",
                  "simulator.monte_carlo_energy")
        seconds = {
            "sysmodel.build_system_s": s["sysmodel.build_system"],
            "sysmodel.neighbor_sets_s": s["sysmodel.neighbor_sets"],
            "solvers.workspace_s": s["solvers.workspace"],
            "solvers.factor_s": s["solvers.factor"],
            "solvers.nnls_s": s["solvers.nnls"],
            "solvers.tv_s": s["solvers.tv"],
            "solvers.glasso_s": s["solvers.glasso"],
            "simulator.energy_s": sum(s[n] for n in energy),
            "detection.threshold_s":
                s["detection.threshold_detect"] + s["detection.confusion_metrics"],
            "detection.localize_s": s["detection.localize_events"],
            "detection.kmeans_s": s["detection.kmeans_cluster"],
            "detection.match_s": s["detection.match_events"],
            "harness.run_trial_self_s": trial_self,
            "harness.aggregate_s": s["harness.aggregate"],
            "harness.emit_s": s["harness.emit"],
            "serialize.dump_s": s["serialize.dump"],
        }
        counts = {
            "solvers.factor_count": c["solvers.factor"],
            "solvers.nnls_calls": c["solvers.nnls"],
            "solvers.nnls_iters": it["solvers.nnls"],
            "solvers.tv_calls": c["solvers.tv"],
            "solvers.tv_iters": it["solvers.tv"],
            "solvers.glasso_calls": c["solvers.glasso"],
            "solvers.glasso_iters": it["solvers.glasso"],
            "detection.threshold_calls": c["detection.threshold_detect"],
            "detection.localize_calls": c["detection.localize_events"],
            "solvers.unconverged": self.unconverged,
        }
        metrics = {k: (v / passes, "s") for k, v in seconds.items()}
        # counts repeat exactly pass to pass, so the division is exact
        metrics.update({k: (v // passes, "count") for k, v in counts.items()})
        metrics["solvers.admm_us_per_iter"] = (
            1e6 * admm_s / admm_iters if admm_iters else 0.0, "us")
        metrics["trace.uncovered_share"] = (
            trial_self / trial_s if trial_s else 0.0, "ratio")
        return metrics
