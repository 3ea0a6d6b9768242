"""Campaign benchmark for pilothop: workloads, timed passes and output checks.

A run drives one workload through the public entry point
``pilothop.cli.main`` in this process. One pass is a fixed list of CLI
campaign calls, each with its own master seed derived from the
benchmark's ``--seed``; passes repeat on the same inputs while another
pass still fits in the run's seconds. The number of calls per pass
follows from the workload's nominal trial cost, fixed when the benchmark
was written, so solver counts repeat exactly for a seed and two commits
run the same trials.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from pilothop import cli, harness, solvers

import spans

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference"

# Master seed of the reference campaigns; the timed inputs come from --seed.
CHECK_SEED = 1
# set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS
# have passed, so a cheap set-up still reports a steady median
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0

# Optimality certificate: solvers.kkt_residual / ||2 A^T y|| on the first
# solve of each (kind, lambda). Converged solves read <= 4e-4 at this
# commit; scaling a solution by 1.01 reads >= 3e-3.
KKT_REL_BOUND = 2e-3
# Reference comparison per value column: mean |delta| over all rows, and
# the largest |delta| in any row. One flipped user near a threshold moves
# a one-trial p_m cell by ~0.05, well inside both.
REF_MEAN_TOL = 0.005
REF_MAX_TOL = 0.25
REF_COLUMNS = {
    "roc.csv": ("p_fa_mean", "p_m_mean"),
    "rmsd.csv": ("rmsd_mean", "zero_detection_rate"),
}


class BenchError(RuntimeError):
    """The benchmark could not measure the workload."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple            # CLI arguments besides --seed/--trials/--workers/--out
    trials_per_call: int
    trial_s: float         # nominal seconds per trial; sets the calls per pass
    check_argv: tuple      # reference campaign, run with CHECK_SEED


WORKLOADS = {
    w.name: w
    for w in (
        # roc at full scale with NNLS only: FISTA and K-means share the
        # trial, ADMM never runs.
        Workload("full_nnls", ("roc", "--config", CONFIGS / "full_nnls.json"), 8, 0.28,
                 ("roc", "--config", CONFIGS / "full_nnls.json", "--trials", "4")),
        # roc on the paper's default config: the dense ADMM x-update of TV
        # and group-LASSO is ~90% of a trial.
        Workload("full_paper", ("roc",), 1, 12.4, ("roc", "--quick", "--trials", "1")),
        # sweep-lambda --quick: 12 methods over the lambda grid, 10 ADMM
        # workspaces and 600 localizations per trial at K=324. Not in
        # BENCHMARK.json: its trial time varies 2x from seed to seed, so a
        # steady figure needs ~25 trials (~150 s) per run.
        Workload("quick_sweep", ("sweep-lambda", "--quick"), 1, 6.5,
                 ("sweep-lambda", "--quick", "--trials", "1")),
    )
}

# Call i of a pass runs master seed SEED_STRIDE * seed + i. The master seed
# also draws the pilot-hopping code, so a pass samples several systems, and
# two benchmark seeds never share one.
SEED_STRIDE = 1000


def pass_plan(workload: Workload, seed: int, seconds: float) -> list[tuple[int, int]]:
    """(master seed, trials) of each CLI call of one pass."""
    calls = max(1, math.ceil(seconds / (workload.trials_per_call * workload.trial_s)))
    if calls >= SEED_STRIDE:
        raise BenchError(f"{calls} calls per pass exceed the seed stride {SEED_STRIDE}")
    return [(SEED_STRIDE * seed + i, workload.trials_per_call) for i in range(calls)]


def cli_call(argv) -> None:
    # the CLI reports on stdout; keep stdout for the benchmark's own lines
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise BenchError(f"pilothop {' '.join(map(str, argv))} exited with {code}")


def run_pass(workload: Workload, plan, out_dir: Path) -> list[float]:
    """The CLI calls of one pass, call i writing to out_dir/call_i; returns
    the wall time of each call."""
    walls = []
    for i, (master_seed, trials) in enumerate(plan):
        argv = [*workload.argv, "--seed", master_seed, "--trials", trials, "--workers", 1,
                "--out", out_dir / f"call_{i}"]
        t0 = time.perf_counter()
        cli_call(argv)
        walls.append(time.perf_counter() - t0)
    return walls


def run_passes(workload: Workload, plan, seconds, work_dir: Path, passes=None) -> list[list]:
    """Passes over the same inputs: `passes` of them, or while another fits
    in `seconds`. Pass p writes to work_dir/pass_p; returns the call wall
    times of each pass."""
    done = []
    while passes is None or len(done) < passes:
        spent = sum(map(sum, done))
        if passes is None and done and spent + spent / len(done) > seconds:
            break
        done.append(run_pass(workload, plan, work_dir / f"pass_{len(done)}"))
    return done


def trials_per_s(plan, passes) -> float:
    """Median over calls of trials / call wall time. The median keeps a
    burst of host contention in one call from moving the run's figure."""
    return statistics.median(t / wall for walls in passes for (_, t), wall in zip(plan, walls))


def measure_setup(config) -> float:
    """Median of build_context plus every RegularizedWorkspace and its first
    factorization."""
    options = config.solver_options()
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS and len(times) < 100):
        t0 = time.perf_counter()
        ctx = harness.build_context(config)
        for reg in ctx.reg_specs:
            if reg is not None:
                solvers.RegularizedWorkspace(ctx.a_norm, reg, options).factor(options.rho)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# --- output checks -----------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def read_csv(path, header) -> list[dict]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or tuple(rows[0]) != tuple(header):
        raise ValueError(f"{path.name}: header {rows[:1]} != {list(header)}")
    out = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path.name}:{line}: {len(row)} fields")
        rec = dict(zip(header, row))
        for key in header[1:]:
            rec[key] = int(rec[key]) if key == "n_trials" else float(rec[key])
        out.append(rec)
    return out


def campaign_config(out_dir: Path):
    """The config a campaign ran with, from its manifest parsed as strict JSON."""
    text = (out_dir / "manifest.json").read_text()
    doc = json.loads(text, parse_constant=_reject_constant)
    return harness.config_from_dict(doc["config"])


def check_campaign(out_dir: Path, config) -> list[str]:
    """Artifacts of one campaign parse and agree with its config."""
    try:
        roc = read_csv(out_dir / "roc.csv", harness.ROC_HEADER)
        rmsd = read_csv(out_dir / "rmsd.csv", harness.RMSD_HEADER)
    except (OSError, ValueError) as exc:
        return [f"{out_dir.name}: {exc}"]
    keys = [(m.kind, m.lam, float(t)) for m in config.methods for t in config.thresholds]
    problems = []
    for name, rows in (("roc.csv", roc), ("rmsd.csv", rmsd)):
        if [(r["method"], r["lambda"], r["threshold"]) for r in rows] != keys:
            problems.append(f"{name}: rows do not match the (method, lambda, threshold) grid")
        if any(r["n_trials"] != config.n_trials for r in rows):
            problems.append(f"{name}: n_trials != {config.n_trials}")
    upper = {"p_fa_mean": 1.0, "p_m_mean": 1.0, "zero_detection_rate": 1.0,
             "rmsd_mean": math.inf, "rmsd_stderr": math.inf}
    for rows in (roc, rmsd):
        for r in rows:
            for key in upper.keys() & r.keys():
                v = r[key]
                if not (math.isfinite(v) and 0.0 <= v <= upper[key]):
                    problems.append(f"{key}={v} out of range at {r['method']} {r['threshold']}")
    # a higher threshold detects a subset: false alarms never rise, misses never fall
    n_thr = len(config.thresholds)
    for mi in range(len(config.methods)):
        block = roc[mi * n_thr:(mi + 1) * n_thr]
        p_fa = [r["p_fa_mean"] for r in block]
        p_m = [r["p_m_mean"] for r in block]
        if any(b > a for a, b in zip(p_fa, p_fa[1:])) or any(b < a for a, b in zip(p_m, p_m[1:])):
            problems.append(f"roc.csv: ROC of method {mi} is not monotone in the threshold")
    return problems[:20]


def _row_key(row):
    return row["method"], row["lambda"], row["threshold"], row["n_trials"]


def compare_reference(out_dir: Path, ref_dir: Path) -> list[str]:
    problems = []
    for name, columns in REF_COLUMNS.items():
        header = harness.ROC_HEADER if name == "roc.csv" else harness.RMSD_HEADER
        try:
            got = read_csv(out_dir / name, header)
            ref = read_csv(ref_dir / name, header)
        except (OSError, ValueError) as exc:
            problems.append(f"reference {name}: {exc}")
            continue
        if [_row_key(r) for r in got] != [_row_key(r) for r in ref]:
            problems.append(f"reference {name}: rows differ")
            continue
        for col in columns:
            delta = [abs(a[col] - b[col]) for a, b in zip(got, ref)]
            mean, worst = statistics.fmean(delta), max(delta)
            if not (mean <= REF_MEAN_TOL and worst <= REF_MAX_TOL):
                problems.append(
                    f"reference {name}:{col} mean |delta| {mean:.3g} (<= {REF_MEAN_TOL}), "
                    f"max {worst:.3g} (<= {REF_MAX_TOL})"
                )
    return problems


def kkt_check(samples) -> tuple[float, list[str]]:
    worst, problems = 0.0, []
    for (kind, lam), (A, y, reg, alpha) in samples.items():
        scale = max(float(np.linalg.norm(2.0 * (A.T @ y))), 1e-300)
        rel = solvers.kkt_residual(A, y, reg, alpha) / scale
        worst = max(worst, rel)
        if not rel <= KKT_REL_BOUND:
            problems.append(f"KKT residual {rel:.3g} > {KKT_REL_BOUND} for {kind} lambda={lam}")
    return worst, problems


def reference_campaign(workload: Workload, out_dir: Path) -> None:
    cli_call([*workload.check_argv, "--seed", CHECK_SEED, "--workers", 1, "--out", out_dir])


def write_reference(workload: Workload, ref_dir: Path) -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as tmp:
        reference_campaign(workload, Path(tmp))
        ref_dir.mkdir(parents=True, exist_ok=True)
        for name in REF_COLUMNS:
            (ref_dir / name).write_bytes((Path(tmp) / name).read_bytes())


def check_outputs(workload, first: Path, repeats, samples, ref_dir) -> dict:
    """Every check of a run; problems non-empty means the run is not correct.

    `first` is the first timed pass; each pass in `repeats` ran the same
    calls and must hold byte-identical CSVs.
    """
    problems = []
    for call in sorted(first.iterdir()):
        try:
            problems += check_campaign(call, campaign_config(call))
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"{call.name}/manifest.json: {exc!r}")
        for other in repeats:
            for name in REF_COLUMNS:
                if (other / call.name / name).read_bytes() != (call / name).read_bytes():
                    problems.append(f"{other.parent.name}/{other.name}/{call.name}/{name} "
                                    "differs from the first pass")
    kkt_worst, kkt_problems = kkt_check(samples)
    problems += kkt_problems
    check_dir = first.parent / "reference_campaign"
    reference_campaign(workload, check_dir)
    try:
        problems += check_campaign(check_dir, campaign_config(check_dir))
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"reference campaign manifest.json: {exc!r}")
    problems += compare_reference(check_dir, ref_dir)
    return {
        "problems": problems,
        "kkt_max_rel": kkt_worst,
        "kkt_bound": KKT_REL_BOUND,
        "kkt_samples": len(samples),
        "reference_tolerance": {"mean_abs": REF_MEAN_TOL, "max_abs": REF_MAX_TOL},
    }


# --- environment ---------------------------------------------------------------


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# --- one run -----------------------------------------------------------------


def _percentile(values, q):
    """Nearest-rank percentile; reported only with >= 10 samples beyond it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def run(workload: Workload, seed: int, seconds: float, trace: bool, ref_dir=None,
        work_root=None) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, report)."""
    ref_dir = Path(ref_dir) if ref_dir is not None else REFERENCE / workload.name
    plan = pass_plan(workload, seed, seconds)
    trials = sum(t for _, t in plan)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=work_root) as tmp:
        work_dir = Path(tmp)
        first = work_dir / "untraced" / "pass_0"
        with spans.Probe(trace=False) as probe:
            untraced = run_passes(workload, plan, seconds, work_dir / "untraced")
        passes = len(untraced)
        rate = trials_per_s(plan, untraced)
        report = {
            "workload": workload.name,
            "seed": seed,
            "master_seeds": [s for s, _ in plan],
            "trials_per_call": workload.trials_per_call,
            "trials_per_pass": trials,
            "passes": passes,
            "trial_samples": len(probe.trial_seconds),
            "solves": probe.solves,
            "unconverged_ratio": probe.unconverged / probe.solves,
        }
        if trace:
            with spans.Probe(trace=True) as traced:
                traced_passes = run_passes(workload, plan, seconds, work_dir / "traced", passes)
            metrics = traced.layer_metrics(passes)
            metrics["trace.overhead_trials_per_s"] = (
                trials_per_s(plan, traced_passes) - rate, "1/s")
        else:
            try:
                config = campaign_config(first / "call_0")
            except (OSError, KeyError, ValueError) as exc:
                raise BenchError(f"manifest of the timed campaign: {exc!r}") from exc
            setup_s = measure_setup(config)
            trial_s = probe.trial_seconds
            metrics = {
                "trials_per_s": (rate, "1/s"),
                "trial_s_p50": (statistics.median(trial_s), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            if len(trial_s) >= 100:
                report["trial_s_p90"] = _percentile(trial_s, 0.9)
        repeats = [d for d in sorted(work_dir.glob("*/pass_*")) if d != first]
        check = check_outputs(workload, first, repeats, probe.samples, ref_dir)
    report["check"] = check
    report["env"] = environment()
    result = {
        "correct": not check["problems"],
        "attempted": probe.solves,
        "failed": probe.unconverged,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report
