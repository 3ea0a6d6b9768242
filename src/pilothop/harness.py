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
y' = y/(tau_p*p*beta_min). A' is the CSC matrix that ``sysmodel`` builds
with its stored entries divided by the scale. Its nonzero entries are 1 to
within rounding, so the activity estimates, thresholds and regularization
strengths live on the same O(1) scale regardless of the physical power
and noise levels.
"""
from __future__ import annotations

import csv
import datetime
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from . import detection, serialize, simulator, solvers, sysmodel
from .errors import ConfigurationError

if TYPE_CHECKING:
    import scipy.sparse as sp

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
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")
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


# system settings of the quick preset: half the grid resolution, with the
# neighbor radius and event variance scaled with the grid spacing (r x2,
# sigma_e2 x4) so neighbor sets keep 9 members and an event still
# activates roughly 7.5 users
QUICK_SYSTEM = dict(K=324, grid_side=18, tau_p=6, T=6, r=0.1, sigma_e2=0.004)
QUICK_MAX_TRIALS = 50


def quick_preset(config: ExperimentConfig) -> ExperimentConfig:
    """Reduced-scale preset: QUICK_SYSTEM, at most QUICK_MAX_TRIALS trials."""
    system = replace(config.system, **QUICK_SYSTEM)
    return replace(config, system=system, n_trials=min(config.n_trials, QUICK_MAX_TRIALS))


# --- config file parsing ---------------------------------------------------

_SYSTEM_KEYS = {f.name for f in fields(sysmodel.SystemConfig)}
_TOP_KEYS = {"schema_version"} | {f.name for f in fields(ExperimentConfig)}


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
    for key in ("methods", "thresholds", "lambdas"):
        if key in doc and not isinstance(doc[key], list):
            raise ConfigurationError(f"{key} must be a list, got {doc[key]!r}")
    kwargs = {}
    if "system" in doc:
        sysdoc = doc["system"]
        if not isinstance(sysdoc, dict):
            raise ConfigurationError(f"system must be an object, got {sysdoc!r}")
        unknown = set(sysdoc) - _SYSTEM_KEYS
        if unknown:
            raise ConfigurationError(f"unknown system keys: {sorted(unknown)}")
        kwargs["system"] = sysmodel.SystemConfig(**sysdoc)
    if "methods" in doc:
        methods = []
        for i, m in enumerate(doc["methods"]):
            if not isinstance(m, dict):
                raise ConfigurationError(f"methods[{i}] must be an object, got {m!r}")
            unknown = set(m) - {"kind", "lambda"}
            if unknown:
                raise ConfigurationError(f"methods[{i}]: unknown keys {sorted(unknown)}")
            if "kind" not in m:
                raise ConfigurationError(f"methods[{i}]: missing required field: kind")
            lam = sysmodel.require_number(f"methods[{i}].lambda", m.get("lambda", 0.0))
            methods.append(MethodSpec(m["kind"], float(lam)))
        kwargs["methods"] = tuple(methods)
    for key in ("thresholds", "lambdas"):
        if key in doc:
            kwargs[key] = tuple(float(sysmodel.require_number(key, v)) for v in doc[key])
    for key in ("n_trials", "master_seed", "solver_max_iters"):
        if key in doc:
            kwargs[key] = int(sysmodel.require_number(key, doc[key], integer=True))
    for key in ("antennas_mode", "output_dir"):
        if key in doc:
            if not isinstance(doc[key], str):
                raise ConfigurationError(f"{key} must be a string, got {doc[key]!r}")
            kwargs[key] = doc[key]
    if "solver_rel_tol" in doc:
        kwargs["solver_rel_tol"] = float(
            sysmodel.require_number("solver_rel_tol", doc["solver_rel_tol"])
        )
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "system": asdict(config.system),
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


def parse_config(path, quick: bool = False) -> ExperimentConfig:
    """The config file at path.

    quick=True means the quick preset will be applied. It overrides the
    system keys of QUICK_SYSTEM and caps n_trials at QUICK_MAX_TRIALS, so a
    file that sets any of those keys, or more trials than the cap, is
    rejected rather than silently overridden.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigurationError(
            f"config file not found or unreadable: {path} ({exc.strerror or exc})"
        ) from exc
    except ValueError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    config = config_from_dict(doc)
    fixed = sorted(QUICK_SYSTEM.keys() & doc.get("system", {}).keys()) if quick else []
    if fixed:
        raise ConfigurationError(
            f"{path} sets system keys {fixed}, which --quick replaces; "
            "remove them or drop --quick"
        )
    if quick and "n_trials" in doc and config.n_trials > QUICK_MAX_TRIALS:
        raise ConfigurationError(
            f"{path} sets n_trials={config.n_trials}, but --quick runs at most "
            f"{QUICK_MAX_TRIALS}; lower it or drop --quick"
        )
    return config


# --- trial execution -------------------------------------------------------


@dataclass
class SystemContext:
    """Trial-invariant state shared by all workers."""

    config: ExperimentConfig
    topology: sysmodel.Topology
    fading: sysmodel.FadingProfile
    code: np.ndarray    # (K, T) hop table
    a_norm: sp.csc_matrix  # measurement matrix on the unit-nonzero scale
    scale: float        # tau_p * p * beta_min
    reg_specs: list     # per-method RegularizerSpec or None (nnls path)


@dataclass
class TrialResult:
    # per method: arrays over thresholds
    p_m: np.ndarray        # (n_methods, n_thr), NaN when undefined
    p_fa: np.ndarray       # (n_methods, n_thr), NaN when undefined
    rmsd: np.ndarray       # (n_methods, n_thr)
    zero_detected: np.ndarray  # (n_methods, n_thr) bool
    converged: np.ndarray  # (n_methods,) bool
    iterations: np.ndarray     # (n_methods,) solver iterations
    rejected_steps: np.ndarray  # (n_methods,) accelerated ADMM steps undone
    rho_changes: np.ndarray     # (n_methods,) ADMM penalty updates
    dump: dict | None = None


def build_context(config: ExperimentConfig) -> SystemContext:
    sys_cfg = config.system
    rng = stream(config.master_seed, SYSTEM_SPAWN, 0)
    topology, fading, code, a = sysmodel.build_system(sys_cfg, rng)
    scale = sys_cfg.tau_p * sys_cfg.p * fading.beta_min
    # in place: scipy's a / scale multiplies by 1 / scale, an ulp off at times
    a_norm = a.copy()
    a_norm.data /= scale
    neighbors = None
    reg_specs = []
    for m in config.methods:
        if m.kind == "nnls" or m.lam == 0.0:
            reg_specs.append(None)
            continue
        if neighbors is None:
            neighbors = sysmodel.neighbor_sets(topology, sys_cfg.r)
        reg_specs.append(solvers.RegularizerSpec(m.kind, *neighbors, m.lam))
    return SystemContext(config, topology, fading, code, a_norm, scale, reg_specs)


_WORKER_CTX: SystemContext | None = None
_WORKER_WORKSPACES: dict = {}


def _init_worker(ctx: SystemContext):
    global _WORKER_CTX, _WORKER_WORKSPACES
    _WORKER_CTX = ctx
    _WORKER_WORKSPACES = {}


def simulate_trial(ctx: SystemContext, trial_index: int):
    """Events, activity and normalized energies y' of one trial.

    Deterministic in (master_seed, trial_index); solves nothing.
    """
    config = ctx.config
    sys_cfg = config.system
    seed = config.master_seed
    events = simulator.sample_events(sys_cfg, stream(seed, trial_index, EVENTS))
    activity = simulator.sample_activity(
        ctx.topology, events, sys_cfg, stream(seed, trial_index, ACTIVITY)
    )
    if config.antennas_mode == simulator.ASYMPTOTIC:
        y_norm = ctx.a_norm @ activity.astype(float)
    else:
        y = simulator.monte_carlo_energy(
            ctx.code, activity, ctx.fading, sys_cfg,
            stream(seed, trial_index, CHANNELS),
            noise_rng=stream(seed, trial_index, NOISE),
        )
        y_norm = y / ctx.scale
    return events, activity, y_norm


def trial_dump(ctx: SystemContext, trial_index: int, events, activity, y_norm) -> dict:
    """The JSON record of one realization, as `simulate` and --dump-trials write it."""
    return {
        "seed": {"master_seed": ctx.config.master_seed, "trial_index": trial_index},
        "events": events,
        "alpha": activity,
        "y": y_norm * ctx.scale,
        "source": ctx.config.antennas_mode,
    }


def write_trial_dumps(out_dir, dumps) -> str:
    """Each trial_dump as trials/trial_{trial_index:05d}.json under out_dir,
    the layout of `simulate` and --dump-trials; returns the trials directory."""
    trial_dir = os.path.join(out_dir, "trials")
    os.makedirs(trial_dir, exist_ok=True)
    for d in dumps:
        idx = d["seed"]["trial_index"]
        serialize.dump(d, os.path.join(trial_dir, f"trial_{idx:05d}.json"))
    return trial_dir


def solve_method(
    ctx: SystemContext, method_index: int, y_norm: np.ndarray, workspaces: dict
) -> solvers.SolverResult:
    """Activity estimate of one configured method: NNLS when it has no
    regularizer, else ADMM on a workspace built on first use and kept in
    ``workspaces`` under the regularizer kind. A workspace does not depend
    on lambda, and all specs hold the same (indptr, members) pair, so
    methods that differ only in lambda share one."""
    options = ctx.config.solver_options()
    reg = ctx.reg_specs[method_index]
    if reg is None:
        return solvers.nnls_solve(ctx.a_norm, y_norm, options)
    ws = workspaces.get(reg.kind)
    if ws is None:
        ws = workspaces[reg.kind] = solvers.RegularizedWorkspace(ctx.a_norm, reg, options)
    return solvers.regularized_solve(ctx.a_norm, y_norm, reg, options, workspace=ws)


def run_trial(
    ctx: SystemContext,
    trial_index: int,
    workspaces: dict | None = None,
    keep_dump: bool = False,
    localize: bool = True,
) -> TrialResult:
    """One paired Monte Carlo trial; deterministic in (master_seed, trial_index).

    Methods without a regularizer (NNLS, and TV or group-LASSO at lambda =
    0) share one NNLS solve; each keeps its own K-means streams.
    With localize=False the K-means localization is skipped and the RMSD
    entries are NaN; detection metrics are unaffected. Useful for ROC-only
    campaigns where clustering at every threshold dominates the cost.
    """
    if workspaces is None:
        workspaces = {}
    config = ctx.config
    seed = config.master_seed
    events, activity, y_norm = simulate_trial(ctx, trial_index)

    shape = (len(config.methods), len(config.thresholds))
    p_m = np.empty(shape)
    p_fa = np.empty(shape)
    rmsd = np.full(shape, np.nan)
    zero_detected = np.empty(shape, dtype=bool)
    converged = np.zeros(shape[0], dtype=bool)
    iterations = np.zeros(shape[0], dtype=np.int64)
    rejected_steps = np.zeros(shape[0], dtype=np.int64)
    rho_changes = np.zeros(shape[0], dtype=np.int64)
    nnls = None  # every method without a regularizer solves the same NNLS
    for mi in range(shape[0]):
        if ctx.reg_specs[mi] is None:
            if nnls is None:
                nnls = solve_method(ctx, mi, y_norm, workspaces)
            result = nnls
        else:
            result = solve_method(ctx, mi, y_norm, workspaces)
        converged[mi] = result.converged
        iterations[mi] = result.iterations
        rejected_steps[mi] = result.rejected_steps
        rho_changes[mi] = result.rho_changes
        masks, p_m[mi], p_fa[mi] = detection.roc_sweep(
            result.alpha_hat, activity, config.thresholds)
        zero_detected[mi] = ~masks.any(axis=1)
        if localize:
            for ti, mask in enumerate(masks):
                rmsd[mi, ti] = detection.localize_events(
                    ctx.topology.user_positions, mask, events,
                    stream(seed, trial_index, KMEANS, mi, ti),
                )

    dump = trial_dump(ctx, trial_index, events, activity, y_norm) if keep_dump else None
    return TrialResult(p_m, p_fa, rmsd, zero_detected, converged, iterations,
                       rejected_steps, rho_changes, dump)


def _run_trial_in_worker(args):
    trial_index, keep_dump = args
    return run_trial(_WORKER_CTX, trial_index, _WORKER_WORKSPACES, keep_dump)


def run_trials(
    ctx: SystemContext,
    workers: int = 1,
    dump_trials: bool = False,
) -> list[TrialResult]:
    """All trials, folded in trial-index order regardless of completion
    order, on at most one worker process per trial."""
    indices = list(range(ctx.config.n_trials))
    workers = min(workers, len(indices))
    if workers <= 1:
        workspaces: dict = {}
        return [run_trial(ctx, i, workspaces, dump_trials) for i in indices]
    # imported here: a serial run never loads the pool or multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(ctx,)
    ) as pool:
        # map returns results in submission order, whatever order they finish in
        return list(pool.map(_run_trial_in_worker, [(i, dump_trials) for i in indices]))


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
    with warnings.catch_warnings():
        # a column with no defined entry (no trial had an active user) averages to NaN
        warnings.filterwarnings("ignore", "Mean of empty slice", RuntimeWarning)
        p_m_mean = np.nanmean(p_m, axis=0)
        p_fa_mean = np.nanmean(p_fa, axis=0)
    rmsd_mean = rmsd.mean(axis=0)
    rmsd_stderr = rmsd.std(axis=0, ddof=1) / math.sqrt(n_trials) if n_trials > 1 else np.zeros_like(rmsd_mean)
    zero_rate = zero.mean(axis=0)
    for mi, method in enumerate(config.methods):
        for ti, thr in enumerate(thresholds):
            roc_rows.append(
                (method.kind, method.lam, float(thr),
                 float(p_fa_mean[mi, ti]), float(p_m_mean[mi, ti]), n_trials)
            )
            rmsd_rows.append(
                (method.kind, method.lam, float(thr),
                 float(rmsd_mean[mi, ti]), float(rmsd_stderr[mi, ti]),
                 float(zero_rate[mi, ti]), n_trials)
            )
    return roc_rows, rmsd_rows


ROC_HEADER = ("method", "lambda", "threshold", "p_fa_mean", "p_m_mean", "n_trials")
RMSD_HEADER = (
    "method", "lambda", "threshold", "rmsd_mean", "rmsd_stderr",
    "zero_detection_rate", "n_trials",
)


def write_csv(path, header, rows):
    """header and rows as CSV lines ending in "\n".

    A string cell that holds a carriage return raises ValueError before the
    file is opened: csv.writer leaves it unquoted under the "\n" line
    terminator, and it would read back as a row break.
    """
    rows = [header, *rows]
    for row in rows:
        for cell in row:
            if isinstance(cell, str) and "\r" in cell:
                raise ValueError(f"CSV cell {cell!r} holds a carriage return")
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def emit_results(
    config: ExperimentConfig,
    roc_rows,
    rmsd_rows,
    out_dir,
    dumps: list | None = None,
):
    """The CSVs and trial dumps of a campaign.

    run_experiment writes the manifest, which needs the solve counts too;
    config stays in the parameter list that perfbench/spans.py pins.
    """
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "roc.csv"), ROC_HEADER, roc_rows)
    write_csv(os.path.join(out_dir, "rmsd.csv"), RMSD_HEADER, rmsd_rows)
    if dumps:
        write_trial_dumps(out_dir, dumps)


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    dump_trials: bool = False,
    out_dir: str | None = None,
):
    """Full campaign: build system, run trials, aggregate, optionally emit.

    Solves that stop at solver_max_iters stay in the averages; their count
    per method goes to the manifest and, when nonzero, to a stderr warning.
    The manifest also sums, per method over all trials, the solver
    iterations, the accelerated ADMM steps the safeguard undid and the
    ADMM penalty (rho) updates (both 0 for NNLS). None of these counts
    enters the CSVs.
    """
    ctx = build_context(config)
    results = run_trials(ctx, workers=workers, dump_trials=dump_trials)
    roc_rows, rmsd_rows = aggregate(config, results)
    unconverged = [int(n) for n in np.sum([~r.converged for r in results], axis=0)]
    iterations = [int(n) for n in np.sum([r.iterations for r in results], axis=0)]
    rejected_steps = [int(n) for n in np.sum([r.rejected_steps for r in results], axis=0)]
    rho_changes = [int(n) for n in np.sum([r.rho_changes for r in results], axis=0)]
    if any(unconverged):
        counts = ", ".join(
            f"{m.kind} lambda={m.lam}: {n} of {len(results)}"
            for m, n in zip(config.methods, unconverged) if n
        )
        print(f"warning: solves stopped at solver_max_iters={config.solver_max_iters} "
              f"without converging and are averaged in ({counts})", file=sys.stderr)
    if out_dir is not None:
        dumps = [r.dump for r in results if r.dump is not None]
        emit_results(config, roc_rows, rmsd_rows, out_dir, dumps)
        from . import __version__

        manifest = {
            "config": config_to_dict(config),
            "version": __version__,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "unconverged_solves": unconverged,
            "solver_iterations": iterations,
            "rejected_steps": rejected_steps,
            "rho_changes": rho_changes,
        }
        serialize.dump(manifest, os.path.join(out_dir, "manifest.json"))
    return roc_rows, rmsd_rows


def sweep_lambda_config(config: ExperimentConfig) -> ExperimentConfig:
    """The campaign config of ``sweep-lambda``: TV and group-LASSO at every
    lambda of the grid in place of the configured methods.

    lambda=0 entries are labeled by their kind and are the plain NNLS
    solution; run_trial solves it once for both kinds.
    """
    methods = tuple(MethodSpec(kind, lam) for kind in ("tv", "glasso") for lam in config.lambdas)
    return replace(config, methods=methods)
