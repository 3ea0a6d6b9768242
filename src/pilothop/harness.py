"""Experiment orchestration.

Seeded Monte Carlo campaigns over (method, lambda, threshold), paired so
every method sees the identical realization, with deterministic
aggregation regardless of worker count.

RNG splitting rule: the stream for purpose P of trial t is
``default_rng(SeedSequence(master_seed, spawn_key=(t, P)))`` with purposes
EVENTS=0, ACTIVITY=1, CHANNELS=2, NOISE=3 and, for K-means,
``spawn_key=(t, 4, method_index, threshold_index)``. System construction
(the pilot-hopping code) uses ``spawn_key=(2**32, 0)``. Adding a method or
threshold therefore never perturbs the realizations.

Solvers operate on the normalized system A' = A/(tau_p*p*beta_min),
y' = y/(tau_p*p*beta_min), whose nonzero entries are exactly 1, so the
activity estimates, thresholds and regularization strengths live on the
same O(1) scale regardless of the physical power and noise levels.
"""
from __future__ import annotations

import csv
import datetime
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import detection, serialize, simulator, solvers, sysmodel
from .errors import ConfigurationError

SCHEMA_VERSION = 1

EVENTS, ACTIVITY, CHANNELS, NOISE, KMEANS = range(5)
SYSTEM_SPAWN = 2**32

DEFAULT_LAMBDAS = (0.0, 0.01, 0.03, 0.06, 0.1, 0.2)
PAPER_TV_LAMBDA = 0.06


def stream(master_seed: int, *spawn_key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=spawn_key))


@dataclass(frozen=True)
class MethodSpec:
    kind: str  # "nnls", "tv" or "glasso"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("nnls", "tv", "glasso"):
            raise ConfigurationError(f"unknown method kind {self.kind!r}")
        if self.kind == "nnls" and self.lam != 0.0:
            raise ConfigurationError("nnls takes no lambda")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigurationError(f"lambda must be finite and >= 0, got {self.lam}")

    @property
    def label(self) -> str:
        return self.kind


def default_thresholds() -> np.ndarray:
    # normalized activity scale; 1.0 is a perfectly recovered active user
    return np.linspace(0.0, 1.2, 50)


def default_methods() -> tuple:
    return (
        MethodSpec("nnls"),
        MethodSpec("tv", PAPER_TV_LAMBDA),
        MethodSpec("glasso", PAPER_TV_LAMBDA),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    system: sysmodel.SystemConfig = field(default_factory=sysmodel.SystemConfig)
    methods: tuple = field(default_factory=default_methods)
    thresholds: tuple = field(default_factory=lambda: tuple(default_thresholds()))
    lambdas: tuple = DEFAULT_LAMBDAS
    n_trials: int = 200
    master_seed: int = 1
    antennas_mode: str = simulator.MONTE_CARLO
    output_dir: str = "results"
    solver_rel_tol: float = 1e-6
    solver_max_iters: int = 50_000

    def __post_init__(self):
        if self.n_trials < 1:
            raise ConfigurationError("n_trials must be >= 1")
        if not self.methods:
            raise ConfigurationError("methods must be nonempty")
        if not self.thresholds or not self.lambdas:
            raise ConfigurationError("thresholds and lambdas grids must be nonempty")
        thresholds = np.asarray(self.thresholds, dtype=float)
        if not np.all(np.isfinite(thresholds)):
            raise ConfigurationError("thresholds must be finite")
        if np.any(np.diff(thresholds) < 0):
            raise ConfigurationError("thresholds must be sorted ascending")
        if not all(math.isfinite(lam) and lam >= 0 for lam in self.lambdas):
            raise ConfigurationError(f"lambdas must be finite and >= 0, got {list(self.lambdas)}")
        if self.antennas_mode not in (simulator.MONTE_CARLO, simulator.ASYMPTOTIC):
            raise ConfigurationError(f"unknown antennas_mode {self.antennas_mode!r}")
        self.solver_options()  # validates the solver settings

    def solver_options(self) -> solvers.SolverOptions:
        return solvers.SolverOptions(
            max_iters=self.solver_max_iters, rel_tol=self.solver_rel_tol
        )


def quick_preset(config: ExperimentConfig) -> ExperimentConfig:
    """Reduced-scale preset for CI-speed runs.

    Halves the grid resolution; the neighbor radius and event variance are
    scaled with the grid spacing (r x2, sigma_e2 x4) so neighbor sets keep
    9 members and an event still activates roughly 7.5 users.
    """
    system = replace(
        config.system,
        K=324, grid_side=18, tau_p=6, T=6, r=0.1, sigma_e2=0.004,
    )
    return replace(config, system=system, n_trials=min(config.n_trials, 50))


# --- config file parsing ---------------------------------------------------

_SYSTEM_KEYS = {
    "K", "L", "M", "tau_p", "T", "snr_db", "sigma2", "p", "eta",
    "sigma_e2", "E", "r", "grid_side",
}
_TOP_KEYS = {
    "schema_version", "system", "methods", "thresholds", "lambdas",
    "n_trials", "master_seed", "antennas_mode", "output_dir",
    "solver_rel_tol", "solver_max_iters",
}


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a JSON object")
    if "schema_version" not in doc:
        raise ConfigurationError("missing required field: schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported schema_version {doc['schema_version']!r}, expected {SCHEMA_VERSION}"
        )
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    if "system" in doc:
        sysdoc = doc["system"]
        unknown = set(sysdoc) - _SYSTEM_KEYS
        if unknown:
            raise ConfigurationError(f"unknown system keys: {sorted(unknown)}")
        kwargs["system"] = sysmodel.SystemConfig(**sysdoc)
    if "methods" in doc:
        methods = []
        for i, m in enumerate(doc["methods"]):
            unknown = set(m) - {"kind", "lambda"}
            if unknown:
                raise ConfigurationError(f"methods[{i}]: unknown keys {sorted(unknown)}")
            if "kind" not in m:
                raise ConfigurationError(f"methods[{i}]: missing required field: kind")
            methods.append(MethodSpec(m["kind"], float(m.get("lambda", 0.0))))
        kwargs["methods"] = tuple(methods)
    for key in ("thresholds", "lambdas"):
        if key in doc:
            kwargs[key] = tuple(float(v) for v in doc[key])
    for key in ("n_trials", "master_seed", "solver_max_iters"):
        if key in doc:
            kwargs[key] = int(doc[key])
    for key in ("antennas_mode", "output_dir"):
        if key in doc:
            kwargs[key] = str(doc[key])
    if "solver_rel_tol" in doc:
        kwargs["solver_rel_tol"] = float(doc["solver_rel_tol"])
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "system": config.system.to_dict(),
        "methods": [
            {"kind": m.kind, "lambda": m.lam} for m in config.methods
        ],
        "thresholds": list(config.thresholds),
        "lambdas": list(config.lambdas),
        "n_trials": config.n_trials,
        "master_seed": config.master_seed,
        "antennas_mode": config.antennas_mode,
        "output_dir": config.output_dir,
        "solver_rel_tol": config.solver_rel_tol,
        "solver_max_iters": config.solver_max_iters,
    }


def parse_config(path) -> ExperimentConfig:
    try:
        doc = serialize.load(path)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except ValueError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(doc)


# --- trial execution -------------------------------------------------------


@dataclass
class SystemContext:
    """Trial-invariant state shared by all workers."""

    config: ExperimentConfig
    topology: sysmodel.Topology
    fading: sysmodel.FadingProfile
    code: sysmodel.PilotHopCode
    a_norm: np.ndarray  # measurement matrix on the unit-nonzero scale
    scale: float        # tau_p * p * beta_min
    reg_specs: list     # per-method RegularizerSpec or None (nnls path)


@dataclass
class TrialResult:
    trial_index: int
    n_active: int
    n_inactive: int
    # per method: arrays over thresholds
    p_m: np.ndarray        # (n_methods, n_thr), NaN when undefined
    p_fa: np.ndarray       # (n_methods, n_thr), NaN when undefined
    rmsd: np.ndarray       # (n_methods, n_thr)
    zero_detected: np.ndarray  # (n_methods, n_thr) bool
    converged: np.ndarray  # (n_methods,) bool
    dump: dict | None = None


def build_context(config: ExperimentConfig) -> SystemContext:
    sys_cfg = config.system
    rng = stream(config.master_seed, SYSTEM_SPAWN, 0)
    topology, fading, code, a = sysmodel.build_system(sys_cfg, rng)
    scale = sys_cfg.tau_p * sys_cfg.p * fading.beta_min
    a_norm = a.a / scale
    neighbors = None
    reg_specs = []
    for m in config.methods:
        if m.kind == "nnls" or m.lam == 0.0:
            reg_specs.append(None)
            continue
        if neighbors is None:
            neighbors = sysmodel.neighbor_sets(topology, sys_cfg.r)
        if m.kind == "tv":
            reg_specs.append(solvers.tv_spec(neighbors, m.lam))
        else:
            reg_specs.append(solvers.glasso_spec(neighbors, m.lam))
    return SystemContext(config, topology, fading, code, a_norm, scale, reg_specs)


_WORKER_CTX: SystemContext | None = None
_WORKER_WORKSPACES: dict = {}


def _init_worker(ctx: SystemContext):
    global _WORKER_CTX, _WORKER_WORKSPACES
    _WORKER_CTX = ctx
    _WORKER_WORKSPACES = {}


def _workspace_for(ctx: SystemContext, method_index: int, workspaces: dict):
    ws = workspaces.get(method_index)
    if ws is None:
        reg = ctx.reg_specs[method_index]
        ws = solvers.RegularizedWorkspace(ctx.a_norm, reg, ctx.config.solver_options())
        workspaces[method_index] = ws
    return ws


def run_trial(
    ctx: SystemContext,
    trial_index: int,
    workspaces: dict | None = None,
    keep_dump: bool = False,
    localize: bool = True,
) -> TrialResult:
    """One paired Monte Carlo trial; deterministic in (master_seed, trial_index).

    With localize=False the K-means localization is skipped and the RMSD
    entries are NaN; detection metrics are unaffected. Useful for ROC-only
    campaigns where clustering at every threshold dominates the cost.
    """
    if workspaces is None:
        workspaces = {}
    config = ctx.config
    sys_cfg = config.system
    seed = config.master_seed

    events = simulator.sample_events(sys_cfg, stream(seed, trial_index, EVENTS))
    activity = simulator.sample_activity(
        ctx.topology, events, sys_cfg, stream(seed, trial_index, ACTIVITY)
    )
    if config.antennas_mode == simulator.ASYMPTOTIC:
        y_norm = ctx.a_norm @ activity.alpha.astype(float)
        source = simulator.ASYMPTOTIC
    else:
        energy = simulator.monte_carlo_energy(
            ctx.code, activity, ctx.fading, sys_cfg,
            stream(seed, trial_index, CHANNELS),
            noise_rng=stream(seed, trial_index, NOISE),
        )
        y_norm = energy.y / ctx.scale
        source = simulator.MONTE_CARLO

    thresholds = np.asarray(config.thresholds)
    n_methods = len(config.methods)
    n_thr = thresholds.shape[0]
    p_m = np.empty((n_methods, n_thr))
    p_fa = np.empty((n_methods, n_thr))
    rmsd = np.full((n_methods, n_thr), np.nan)
    zero_detected = np.zeros((n_methods, n_thr), dtype=bool)
    converged = np.zeros(n_methods, dtype=bool)

    options = config.solver_options()
    for mi, method in enumerate(config.methods):
        reg = ctx.reg_specs[mi]
        if reg is None:
            result = solvers.nnls_solve(ctx.a_norm, y_norm, options)
        else:
            ws = _workspace_for(ctx, mi, workspaces)
            result = solvers.regularized_solve(ctx.a_norm, y_norm, reg, options, workspace=ws)
        converged[mi] = result.converged
        for ti, thr in enumerate(thresholds):
            det = detection.threshold_detect(result.alpha_hat, thr)
            cm = detection.confusion_metrics(det.detected, activity.alpha)
            p_m[mi, ti] = cm.p_m
            p_fa[mi, ti] = cm.p_fa
            zero_detected[mi, ti] = not det.detected.any()
            if localize:
                est = detection.localize_events(
                    ctx.topology.user_positions, det.detected, events.positions,
                    stream(seed, trial_index, KMEANS, mi, ti),
                )
                rmsd[mi, ti] = est.rmsd

    dump = None
    if keep_dump:
        dump = {
            "seed": {"master_seed": seed, "trial_index": trial_index},
            "events": events.positions,
            "alpha": activity.alpha,
            "y": y_norm * ctx.scale,
            "source": source,
        }
    n_active = int(activity.alpha.sum())
    return TrialResult(
        trial_index, n_active, sys_cfg.K - n_active,
        p_m, p_fa, rmsd, zero_detected, converged, dump,
    )


def _run_trial_in_worker(args):
    trial_index, keep_dump = args
    return run_trial(_WORKER_CTX, trial_index, _WORKER_WORKSPACES, keep_dump)


def run_trials(
    ctx: SystemContext,
    workers: int = 1,
    dump_trials: bool = False,
) -> list[TrialResult]:
    """All trials, folded in trial-index order regardless of completion order."""
    indices = list(range(ctx.config.n_trials))
    if workers <= 1:
        workspaces: dict = {}
        return [run_trial(ctx, i, workspaces, dump_trials) for i in indices]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(ctx,)
    ) as pool:
        results = list(pool.map(_run_trial_in_worker, [(i, dump_trials) for i in indices]))
    return sorted(results, key=lambda r: r.trial_index)


def aggregate(config: ExperimentConfig, results: list[TrialResult]):
    """Threshold-indexed averages across trials.

    ROC rows: (method, lambda, threshold, p_fa_mean, p_m_mean, n_trials);
    undefined per-trial entries (empty active or inactive set) are skipped.
    RMSD rows add the zero-detection rate; zero-detection trials stay in
    the mean, with their events placed at the plane center.
    """
    thresholds = np.asarray(config.thresholds)
    p_m = np.stack([r.p_m for r in results])          # (n_trials, n_methods, n_thr)
    p_fa = np.stack([r.p_fa for r in results])
    rmsd = np.stack([r.rmsd for r in results])
    zero = np.stack([r.zero_detected for r in results])
    n_trials = len(results)
    roc_rows = []
    rmsd_rows = []
    with np.errstate(invalid="ignore"):
        p_m_mean = np.nanmean(p_m, axis=0)
        p_fa_mean = np.nanmean(p_fa, axis=0)
    rmsd_mean = rmsd.mean(axis=0)
    rmsd_stderr = rmsd.std(axis=0, ddof=1) / math.sqrt(n_trials) if n_trials > 1 else np.zeros_like(rmsd_mean)
    zero_rate = zero.mean(axis=0)
    for mi, method in enumerate(config.methods):
        for ti, thr in enumerate(thresholds):
            roc_rows.append(
                (method.label, method.lam, float(thr),
                 float(p_fa_mean[mi, ti]), float(p_m_mean[mi, ti]), n_trials)
            )
            rmsd_rows.append(
                (method.label, method.lam, float(thr),
                 float(rmsd_mean[mi, ti]), float(rmsd_stderr[mi, ti]),
                 float(zero_rate[mi, ti]), n_trials)
            )
    return roc_rows, rmsd_rows


ROC_HEADER = ("method", "lambda", "threshold", "p_fa_mean", "p_m_mean", "n_trials")
RMSD_HEADER = (
    "method", "lambda", "threshold", "rmsd_mean", "rmsd_stderr",
    "zero_detection_rate", "n_trials",
)


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def emit_results(
    config: ExperimentConfig,
    roc_rows,
    rmsd_rows,
    out_dir,
    dumps: list | None = None,
):
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "roc.csv"), ROC_HEADER, roc_rows)
    write_csv(os.path.join(out_dir, "rmsd.csv"), RMSD_HEADER, rmsd_rows)
    from . import __version__

    manifest = {
        "config": config_to_dict(config),
        "version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    serialize.dump(manifest, os.path.join(out_dir, "manifest.json"))
    if dumps:
        trial_dir = os.path.join(out_dir, "trials")
        os.makedirs(trial_dir, exist_ok=True)
        for d in dumps:
            idx = d["seed"]["trial_index"]
            serialize.dump(d, os.path.join(trial_dir, f"trial_{idx:05d}.json"))


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    dump_trials: bool = False,
    out_dir: str | None = None,
):
    """Full campaign: build system, run trials, aggregate, optionally emit."""
    ctx = build_context(config)
    results = run_trials(ctx, workers=workers, dump_trials=dump_trials)
    roc_rows, rmsd_rows = aggregate(config, results)
    if out_dir is not None:
        dumps = [r.dump for r in results if r.dump is not None]
        emit_results(config, roc_rows, rmsd_rows, out_dir, dumps)
    return roc_rows, rmsd_rows


def sweep_lambda(config: ExperimentConfig, workers: int = 1, out_dir: str | None = None):
    """ROC family over the lambda grid for both regularizer kinds.

    lambda=0 entries are solved on the plain NNLS path and are labeled by
    their kind; they coincide with NNLS up to solver tolerance.
    """
    methods = []
    for kind in ("tv", "glasso"):
        for lam in config.lambdas:
            methods.append(MethodSpec(kind, lam))
    swept = replace(config, methods=tuple(methods))
    return run_experiment(swept, workers=workers, out_dir=out_dir)
