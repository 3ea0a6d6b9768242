import concurrent.futures
import csv
import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import load_system
from pilothop import cli, detection, harness, serialize, solvers, sysmodel
from pilothop.errors import ConfigurationError


def tiny_experiment(**kw):
    system = sysmodel.SystemConfig(
        K=36, grid_side=6, L=4, M=8, tau_p=4, T=4, sigma_e2=0.01, r=0.2, E=2
    )
    defaults = dict(
        system=system,
        thresholds=tuple(np.linspace(0.0, 1.2, 9)),
        n_trials=4,
        master_seed=7,
        solver_rel_tol=1e-5,
    )
    defaults.update(kw)
    return harness.ExperimentConfig(**defaults)


class TestConfigSchema:
    def test_round_trip(self):
        config = tiny_experiment()
        doc = harness.config_to_dict(config)
        back = harness.config_from_dict(doc)
        assert back == replace(config)

    def test_paper_scale_defaults(self):
        config = harness.ExperimentConfig()
        assert config.system.K == 1296
        assert config.system.tau_p == 10 and config.system.T == 10
        assert config.system.M * config.system.L == 128
        assert config.n_trials == 200
        assert ("tv", 0.06) in [(m.kind, m.lam) for m in config.methods]

    def test_missing_schema_version_is_named(self):
        with pytest.raises(ConfigurationError, match="schema_version"):
            harness.config_from_dict({"n_trials": 3})

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            harness.config_from_dict({"schema_version": 1, "bogus": 1})

    def test_unknown_system_key_rejected(self):
        with pytest.raises(ConfigurationError, match="coffee"):
            harness.config_from_dict({"schema_version": 1, "system": {"coffee": 2}})

    def test_unknown_method_key_rejected(self):
        doc = {"schema_version": 1, "methods": [{"kind": "tv", "mu": 3}]}
        with pytest.raises(ConfigurationError, match="mu"):
            harness.config_from_dict(doc)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_method_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ConfigurationError, match="lambda"):
            harness.MethodSpec("tv", lam)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            harness.parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            harness.parse_config(path)

    def test_quick_preset_shape(self):
        q = harness.quick_preset(harness.ExperimentConfig())
        assert q.system.grid_side == 18 and q.system.K == 324
        assert q.n_trials == 50
        # neighbor radius and event spread scale with the doubled spacing
        assert q.system.r == pytest.approx(0.1)
        assert q.system.sigma_e2 == pytest.approx(0.004)


class TestTrialExecution:
    def test_trial_is_deterministic(self):
        config = tiny_experiment(n_trials=1)
        ctx = harness.build_context(config)
        r1 = harness.run_trial(ctx, 0)
        r2 = harness.run_trial(ctx, 0)
        assert np.array_equal(r1.p_m, r2.p_m, equal_nan=True)
        assert np.array_equal(r1.rmsd, r2.rmsd)

    def test_trials_differ_from_each_other(self):
        config = tiny_experiment(n_trials=2)
        ctx = harness.build_context(config)
        r0 = harness.run_trial(ctx, 0)
        r1 = harness.run_trial(ctx, 1)
        assert not np.array_equal(r0.rmsd, r1.rmsd)

    def test_tv_lambda_zero_equals_nnls(self):
        config = tiny_experiment(
            methods=(harness.MethodSpec("nnls"), harness.MethodSpec("tv", 0.0)),
            n_trials=2,
        )
        ctx = harness.build_context(config)
        for i in range(2):
            r = harness.run_trial(ctx, i)
            assert np.array_equal(r.p_m[0], r.p_m[1], equal_nan=True)
            assert np.array_equal(r.p_fa[0], r.p_fa[1], equal_nan=True)
            # RMSD is excluded: localization draws a per-method K-means
            # stream, so identical detections can land in different local
            # clustering optima
            assert np.array_equal(r.zero_detected[0], r.zero_detected[1])

    def test_adding_a_method_leaves_realizations_paired(self):
        base = tiny_experiment(methods=(harness.MethodSpec("nnls"),))
        more = tiny_experiment(
            methods=(harness.MethodSpec("nnls"), harness.MethodSpec("tv", 0.06))
        )
        r_base = harness.run_trial(harness.build_context(base), 0)
        r_more = harness.run_trial(harness.build_context(more), 0)
        assert np.array_equal(r_base.p_m[0], r_more.p_m[0], equal_nan=True)
        assert np.array_equal(r_base.rmsd[0], r_more.rmsd[0])

    def test_one_worker_process_per_trial_at_most(self, monkeypatch):
        # a recording stand-in for the pool runs the trials in this process
        started = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        # run_trials imports the pool class when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_WORKER_CTX", None)
        monkeypatch.setattr(harness, "_WORKER_WORKSPACES", {})
        ctx = harness.build_context(tiny_experiment(n_trials=2))
        results = harness.run_trials(ctx, workers=8)
        assert started == [2] and len(results) == 2
        harness.run_trials(replace(ctx, config=replace(ctx.config, n_trials=1)), workers=8)
        assert started == [2]  # one trial runs in this process, without a pool

    def test_worker_count_invariance(self):
        config = tiny_experiment(n_trials=4)
        ctx = harness.build_context(config)
        serial = harness.run_trials(ctx, workers=1)
        parallel = harness.run_trials(ctx, workers=2)
        roc_s, rmsd_s = harness.aggregate(config, serial)
        roc_p, rmsd_p = harness.aggregate(config, parallel)
        assert roc_s == roc_p
        assert rmsd_s == rmsd_p

    def test_sweep_lambda_shares_one_workspace_per_kind(self):
        config = harness.sweep_lambda_config(tiny_experiment(n_trials=1))
        ctx = harness.build_context(config)
        workspaces = {}
        shared = harness.run_trial(ctx, 0, workspaces, localize=False)
        # ten regularized methods (lambda = 0 is solved as NNLS), two kinds
        assert sorted(workspaces) == ["glasso", "tv"]
        _, _, y_norm = harness.simulate_trial(ctx, 0)
        for mi in range(len(config.methods)):
            own = harness.solve_method(ctx, mi, y_norm, {})
            again = harness.solve_method(ctx, mi, y_norm, workspaces)
            assert np.array_equal(own.alpha_hat, again.alpha_hat)
            assert own.iterations == again.iterations
        assert shared.converged.all()

    def test_sweep_lambda_solves_nnls_once_per_trial(self, monkeypatch):
        # methods (tv, 0), (tv, 0.06), (glasso, 0), (glasso, 0.06): TV and
        # group-LASSO at lambda = 0 are both the plain NNLS problem
        config = harness.sweep_lambda_config(tiny_experiment(n_trials=2, lambdas=(0.0, 0.06)))
        ctx = harness.build_context(config)
        nnls_solve = solvers.nnls_solve
        calls = []

        def counting(A, y, options):
            calls.append(y)
            return nnls_solve(A, y, options)

        monkeypatch.setattr(solvers, "nnls_solve", counting)
        for t in range(2):
            calls.clear()
            shared = harness.run_trial(ctx, t)
            assert len(calls) == 1
            # both methods read what a solve of their own gives, and each
            # localizes on its own K-means streams
            events, activity, y_norm = harness.simulate_trial(ctx, t)
            own = nnls_solve(ctx.a_norm, y_norm, config.solver_options())
            masks, p_m, p_fa = detection.roc_sweep(own.alpha_hat, activity, config.thresholds)
            for mi in (0, 2):
                assert np.array_equal(shared.p_m[mi], p_m, equal_nan=True)
                assert np.array_equal(shared.p_fa[mi], p_fa, equal_nan=True)
                assert shared.iterations[mi] == own.iterations
                rmsd = [
                    detection.localize_events(
                        ctx.topology.user_positions, mask, events,
                        harness.stream(config.master_seed, t, harness.KMEANS, mi, ti))
                    for ti, mask in enumerate(masks)
                ]
                assert np.array_equal(shared.rmsd[mi], rmsd)

    @pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
    def test_a_norm_divides_every_entry(self, quick):
        # each stored entry divided by the scale, as the dense a / scale did;
        # scipy's a / scale multiplies by 1 / scale, an ulp off at times
        config = harness.ExperimentConfig()
        config = harness.quick_preset(config) if quick else config
        ctx = harness.build_context(config)
        rng = harness.stream(config.master_seed, harness.SYSTEM_SPAWN, 0)
        a = sysmodel.build_system(config.system, rng)[3]
        assert ctx.a_norm.format == "csc"
        assert np.array_equal(ctx.a_norm.toarray(), a.toarray() / ctx.scale)
        # the solvers take the context's A as it is
        assert solvers._check_problem(ctx.a_norm, np.zeros(a.shape[0]))[0] is ctx.a_norm

    def test_asymptotic_mode_is_noiseless(self):
        config = tiny_experiment(antennas_mode="asymptotic", n_trials=1)
        ctx = harness.build_context(config)
        r = harness.run_trial(ctx, 0, keep_dump=True)
        y = np.asarray(r.dump["y"])
        alpha = np.asarray(r.dump["alpha"], dtype=float)
        assert np.allclose(y / ctx.scale, ctx.a_norm @ alpha, atol=1e-12)


class TestOutputs:
    def test_csv_format(self, tmp_path):
        config = tiny_experiment(n_trials=2)
        roc_rows, rmsd_rows = harness.run_experiment(config, out_dir=tmp_path)
        for name, header, want in (("roc.csv", harness.ROC_HEADER, roc_rows),
                                   ("rmsd.csv", harness.RMSD_HEADER, rmsd_rows)):
            assert b"\r" not in (tmp_path / name).read_bytes()
            with open(tmp_path / name, newline="") as f:
                rows = list(csv.reader(f))
            assert rows[0] == list(header)
            assert len(rows) - 1 == len(config.methods) * len(config.thresholds)
            assert len(want) == len(rows) - 1
            for got, row in zip(rows[1:], want):
                assert len(got) == len(row)
                for cell, value in zip(got, row):
                    if isinstance(value, float):
                        back = float(cell)
                        assert (np.float64(back).view(np.uint64) == np.float64(value).view(np.uint64)
                                or (np.isnan(back) and np.isnan(value))), (name, cell, value)
                    else:
                        assert cell == str(value), (name, cell, value)

    def test_manifest_reproduces_config(self, tmp_path):
        config = tiny_experiment(n_trials=2)
        harness.run_experiment(config, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        back = harness.config_from_dict(manifest["config"])
        assert back.system == config.system
        assert back.master_seed == config.master_seed

    def test_trial_dumps_written(self, tmp_path):
        config = tiny_experiment(n_trials=2)
        harness.run_experiment(config, dump_trials=True, out_dir=tmp_path)
        files = sorted(os.listdir(tmp_path / "trials"))
        assert files == ["trial_00000.json", "trial_00001.json"]
        dump = json.loads((tmp_path / "trials" / files[0]).read_text())
        assert len(dump["alpha"]) == config.system.K

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), np.array([1.0, -np.inf])])
    def test_dumps_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            serialize.dumps({"x": value})

    def test_dump_refusal_leaves_no_artifact(self, tmp_path):
        existing = tmp_path / "existing.json"
        serialize.dump({"x": 1.0}, existing)
        before = existing.read_bytes()
        with pytest.raises(ValueError, match="non-finite"):
            serialize.dump({"x": float("nan")}, existing)
        assert existing.read_bytes() == before
        with pytest.raises(ValueError, match="non-finite"):
            serialize.dump({"x": float("nan")}, tmp_path / "new.json")
        assert not (tmp_path / "new.json").exists()

    def test_sweep_covers_lambda_grid(self, tmp_path):
        config = tiny_experiment(n_trials=1, lambdas=(0.0, 0.06))
        roc_rows, _ = harness.run_experiment(harness.sweep_lambda_config(config))
        seen = {(r[0], r[1]) for r in roc_rows}
        assert seen == {("tv", 0.0), ("tv", 0.06), ("glasso", 0.0), ("glasso", 0.06)}


class TestCli:
    def write_config(self, tmp_path, **kw):
        config = tiny_experiment(**kw)
        path = tmp_path / "config.json"
        serialize.dump(harness.config_to_dict(config), path)
        return str(path)

    def test_roc_command(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        rc = cli.main(["roc", "--config", cfg, "--trials", "2",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "roc.csv").exists()
        assert (tmp_path / "out" / "rmsd.csv").exists()

    def test_nnls_only_campaign_csvs_equal_across_worker_counts(self, tmp_path):
        # --workers 2 runs the trials in a process pool imported by run_trials
        config = tmp_path / "nnls.json"
        config.write_text(json.dumps({"schema_version": 1, "methods": [{"kind": "nnls"}]}))
        for workers in ("1", "2"):
            rc = cli.main(["roc", "--quick", "--config", str(config), "--trials", "4",
                           "--workers", workers, "--out", str(tmp_path / workers)])
            assert rc == 0
        for name in ("roc.csv", "rmsd.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_topology_command(self, tmp_path):
        cfg = self.write_config(tmp_path)
        rc = cli.main(["topology", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        loaded = load_system(tmp_path / "out" / "system.json")
        assert loaded[0].K == 36

    def test_topology_writes_the_campaign_system(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["topology", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
        _, topology, _, hops, _ = load_system(out / "system.json")
        ctx = harness.build_context(tiny_experiment(master_seed=5))
        assert np.array_equal(hops, ctx.code)
        assert np.array_equal(topology.user_positions, ctx.topology.user_positions)
        assert np.array_equal(topology.bs_positions, ctx.topology.bs_positions)

    def test_detect_solves_nnls_once(self, tmp_path, monkeypatch):
        # NNLS and TV and group-LASSO at lambda = 0 are one NNLS problem,
        # solved once as in a campaign trial
        methods = (harness.MethodSpec("nnls"), harness.MethodSpec("tv"),
                   harness.MethodSpec("glasso"), harness.MethodSpec("tv", 0.06))
        cfg = self.write_config(tmp_path, methods=methods)
        out = str(tmp_path / "out")
        assert cli.main(["simulate", "--config", cfg, "--trials", "1", "--out", out]) == 0
        nnls_solve, calls = solvers.nnls_solve, []

        def counting(A, y, options):
            calls.append(y)
            return nnls_solve(A, y, options)

        monkeypatch.setattr(solvers, "nnls_solve", counting)
        trial = os.path.join(out, "trials", "trial_00000.json")
        assert cli.main(["detect", "--config", cfg, "--trial", trial, "--out", out]) == 0
        assert len(calls) == 1

    def test_simulate_then_detect(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["simulate", "--config", cfg, "--trials", "2", "--out", out]) == 0
        trial = os.path.join(out, "trials", "trial_00001.json")
        assert cli.main(["detect", "--config", cfg, "--trial", trial, "--out", out]) == 0
        with open(os.path.join(out, "detect.csv"), newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(harness.ROC_HEADER)
        # the campaign's own rates for that trial, method by method
        config = tiny_experiment()
        result = harness.run_trial(harness.build_context(config), 1, localize=False)
        p_fa = np.array([float(row[3]) for row in rows[1:]])
        p_m = np.array([float(row[4]) for row in rows[1:]])
        assert np.array_equal(p_fa, result.p_fa.ravel(), equal_nan=True)
        assert np.array_equal(p_m, result.p_m.ravel(), equal_nan=True)
        assert [row[0] for row in rows[1:]] == [
            m.kind for m in config.methods for _ in config.thresholds]

    def test_simulate_calls_no_solver(self, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"

        def no_solve(*args, **kwargs):
            raise AssertionError("simulate must not solve")

        monkeypatch.setattr(solvers, "nnls_solve", no_solve)
        monkeypatch.setattr(solvers, "regularized_solve", no_solve)
        assert cli.main(["simulate", "--config", cfg, "--trials", "2", "--out", str(out)]) == 0
        monkeypatch.undo()
        ctx = harness.build_context(tiny_experiment())
        for i in range(2):
            ref = tmp_path / f"ref_{i}.json"
            serialize.dump(harness.run_trial(ctx, i, keep_dump=True).dump, ref)
            assert (out / "trials" / f"trial_{i:05d}.json").read_bytes() == ref.read_bytes()

    def test_sweep_lambda_dumps_trials(self, tmp_path):
        cfg = self.write_config(tmp_path, lambdas=(0.0, 0.06))
        out = tmp_path / "out"
        rc = cli.main(["sweep-lambda", "--config", cfg, "--trials", "2", "--dump-trials",
                       "--out", str(out)])
        assert rc == 0
        assert sorted(os.listdir(out / "trials")) == ["trial_00000.json", "trial_00001.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--workers", "2"],
            ["topology", "--dump-trials"],
            ["detect", "--trials", "1", "--trial", "t.json"],
        ],
        ids=["simulate-workers", "topology-dump-trials", "detect-trials"],
    )
    def test_campaign_flags_only_on_campaigns(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_seed_changes_results(self, tmp_path):
        cfg = self.write_config(tmp_path)
        for seed, name in ((1, "a"), (2, "b")):
            rc = cli.main(["roc", "--config", cfg, "--trials", "2", "--seed", str(seed),
                           "--out", str(tmp_path / name)])
            assert rc == 0
        a = (tmp_path / "a" / "roc.csv").read_text()
        b = (tmp_path / "b" / "roc.csv").read_text()
        assert a != b

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "bogus": true}')
        rc = cli.main(["roc", "--config", str(path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_nan_lambda_exit_code(self, tmp_path, capsys):
        # json.loads accepts the bare NaN token
        path = tmp_path / "nan.json"
        path.write_text('{"schema_version": 1, "methods": [{"kind": "tv", "lambda": NaN}]}')
        out = tmp_path / "out"
        rc = cli.main(["roc", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "lambda" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_more_events_than_users_exit_code(self, tmp_path, capsys):
        # 36 users on the 6x6 grid, 40 events: allowed by the E cap, not by K
        doc = harness.config_to_dict(tiny_experiment())
        doc["system"]["E"] = 40
        path = tmp_path / "config.json"
        serialize.dump(doc, path)
        out = tmp_path / "out"
        rc = cli.main(["roc", "--config", str(path), "--trials", "1", "--out", str(out)])
        assert rc == 2
        assert "E must be <= K=36" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_detect_missing_trial_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        rc = cli.main(["detect", "--config", cfg, "--trial", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "cannot read trial dump" in capsys.readouterr().err
        assert not (tmp_path / "out" / "detect.csv").exists()

    def test_detect_non_binary_alpha_exit_code(self, tmp_path, capsys):
        # an int64 cast would read 0.5 as 0 and 1.7 as 1, and count 2 as inactive
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--trials", "1", "--out", str(out)]) == 0
        trial = out / "trials" / "trial_00000.json"
        dump = json.loads(trial.read_text())
        for value in (0.5, 1.7, 2):
            dump["alpha"][3] = value
            serialize.dump(dump, trial)
            rc = cli.main(["detect", "--config", cfg, "--trial", str(trial), "--out", str(out)])
            assert rc == 2
            assert f"only 0 and 1, got {float(value)}" in capsys.readouterr().err
            assert not (out / "detect.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_workers_exit_code(self, tmp_path, capsys, workers):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["roc", "--config", cfg, "--trials", "1", "--workers", workers,
                       "--out", str(out)])
        assert rc == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_detect_dump_of_other_k_exit_code(self, tmp_path, capsys):
        # right measurement count, activity vector of another K
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--trials", "1", "--out", str(out)]) == 0
        trial = out / "trials" / "trial_00000.json"
        dump = json.loads(trial.read_text())
        dump["alpha"] = dump["alpha"] + [0] * 4
        serialize.dump(dump, trial)
        rc = cli.main(["detect", "--config", cfg, "--trial", str(trial), "--out", str(out)])
        assert rc == 2
        assert "K=36" in capsys.readouterr().err
        assert not (out / "detect.csv").exists()

    def test_more_than_eight_events(self, tmp_path):
        system = replace(tiny_experiment().system, E=9)
        cfg = self.write_config(tmp_path, system=system)
        out = tmp_path / "out"
        rc = cli.main(["roc", "--config", cfg, "--trials", "1", "--out", str(out)])
        assert rc == 0
        with open(out / "rmsd.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert rows and all(np.isfinite(float(row[3])) for row in rows)

    @pytest.mark.parametrize(
        "fragment, name",
        [
            ('"solver_rel_tol": NaN', "rel_tol"),
            ('"system": {"r": NaN}', "r must"),
            ('"system": {"sigma2": NaN}', "sigma2"),
            ('"system": {"sigma_e2": NaN}', "sigma_e2"),
            ('"system": {"p": NaN}', "p must"),
            ('"system": {"snr_db": Infinity}', "snr_db"),
            ('"system": {"eta": NaN}', "eta"),
            ('"thresholds": [0.1, NaN, 0.5]', "thresholds must be finite"),
            ('"thresholds": [0.5, 0.1]', "sorted"),
            ('"lambdas": [0.0, NaN]', "lambdas"),
            ('"system": {"r": "x"}', "r must be a number"),
            ('"system": {"K": "36"}', "K must be an integer"),
            ('"methods": [{"kind": "tv", "lambda": "x"}]', "lambda must be a number"),
            ('"n_trials": "a"', "n_trials must be an integer"),
            ('"methods": 3', "methods must be a list"),
            ('"thresholds": 0.5', "thresholds must be a list"),
            ('"master_seed": -1', "master_seed"),
            ('"system": {"E": 400}', "E must be <= 50"),
            ('"system": {"E": 51}', "E must be <= 50"),
            ('"output_dir": null', "output_dir must be a string"),
            ('"antennas_mode": {"a": 1}', "antennas_mode must be a string"),
            ('"system": {"snr_db": 4000}', "large-scale fading"),
            ('"system": {"snr_db": -4000}', "large-scale fading"),
        ],
        ids=["rel_tol", "r", "sigma2", "sigma_e2", "p", "snr_db", "eta",
             "nan-threshold", "unsorted-thresholds", "nan-lambda-grid",
             "string-r", "string-K", "string-lambda", "string-n_trials",
             "methods-not-list", "thresholds-not-list", "negative-seed",
             "E-400", "E-51", "null-output_dir", "object-antennas_mode",
             "overflowing-snr_db", "underflowing-snr_db"],
    )
    def test_non_finite_or_unsorted_input_exit_code(self, tmp_path, capsys, fragment, name):
        # json.loads accepts the bare NaN and Infinity tokens
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, ' + fragment + "}")
        out = tmp_path / "out"
        rc = cli.main(["roc", "--quick", "--trials", "1", "--config", str(path),
                       "--out", str(out)])
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["topology", "simulate"])
    def test_fading_overflow_exits_before_writing(self, tmp_path, capsys, command):
        # d^-eta overflows for the users next to a base station
        path = tmp_path / "config.json"
        path.write_text('{"schema_version": 1, "n_trials": 1, "system": {"eta": 300}}')
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="overflow"):
            rc = cli.main([command, "--quick", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "large-scale fading" in capsys.readouterr().err
        assert not [f for f in out.rglob("*") if f.is_file()]

    def test_quick_rejects_file_system_scale(self, tmp_path, capsys):
        # --quick would replace the file's K, grid_side, tau_p, T, r and sigma_e2
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["roc", "--quick", "--trials", "1", "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "['K', 'T', 'grid_side', 'r', 'sigma_e2', 'tau_p']" in err
        assert not (out / "manifest.json").exists()

    def test_quick_rejects_file_trial_count_over_cap(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"schema_version": 1, "n_trials": 200}')
        out = tmp_path / "out"
        rc = cli.main(["roc", "--quick", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "n_trials=200" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("doc, trials", [
        ('{"schema_version": 1}', 50),
        ('{"schema_version": 1, "n_trials": 50}', 50),
        ('{"schema_version": 1, "n_trials": 7}', 7),
    ], ids=["unset", "at-cap", "below-cap"])
    def test_quick_trial_count_within_cap(self, tmp_path, doc, trials):
        path = tmp_path / "config.json"
        path.write_text(doc)
        config = harness.quick_preset(harness.parse_config(path, quick=True))
        assert config.n_trials == trials

    def test_huge_coherence_count_exits_fast(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"schema_version": 1, "system": {"T": 1000000}}')
        out = tmp_path / "out"
        start = time.perf_counter()
        rc = cli.main(["roc", "--config", str(path), "--out", str(out)])
        assert time.perf_counter() - start < 0.1
        assert rc == 2
        assert "tau_p*T must be <= 4096" in capsys.readouterr().err
        assert not out.exists()

    def test_quick_combines_with_other_file_keys(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"schema_version": 1, "system": {"M": 8}, "methods": [{"kind": "nnls"}]}')
        out = tmp_path / "out"
        rc = cli.main(["roc", "--quick", "--trials", "1", "--config", str(path),
                       "--out", str(out)])
        assert rc == 0
        system = json.loads((out / "manifest.json").read_text())["config"]["system"]
        assert (system["K"], system["M"]) == (324, 8)

    def test_unconverged_solves_are_counted(self, tmp_path, capsys):
        # three iterations stop every solve at the cap, NNLS included
        cfg = self.write_config(tmp_path, solver_max_iters=3)
        out = tmp_path / "out"
        rc = cli.main(["roc", "--config", cfg, "--trials", "2", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["unconverged_solves"] == [2, 2, 2]
        err = capsys.readouterr().err
        assert err.count("warning") == 1
        assert "nnls lambda=0.0: 2 of 2" in err and "glasso lambda=0.06: 2 of 2" in err
        # the curves are written as with any other campaign
        assert (out / "roc.csv").exists() and (out / "rmsd.csv").exists()

    def test_converged_campaign_warns_nothing(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["roc", "--config", cfg, "--trials", "1", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["unconverged_solves"] == [0, 0, 0]
        assert capsys.readouterr().err == ""

    def test_manifest_sums_solver_work_per_method(self, tmp_path):
        # quick scale, seed 1: at lambda = 0.06 the safeguard undoes TV
        # steps, and at lambda = 1 residual balancing changes rho
        path = tmp_path / "config.json"
        path.write_text('{"schema_version": 1, "methods": [{"kind": "nnls"}, '
                        '{"kind": "tv", "lambda": 0.06}, {"kind": "tv", "lambda": 1.0}]}')
        out = tmp_path / "out"
        assert cli.main(["roc", "--quick", "--config", str(path), "--trials", "2",
                         "--seed", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        ctx = harness.build_context(harness.config_from_dict(manifest["config"]))
        iterations, rejected, rho_changes = [0, 0, 0], [0, 0, 0], [0, 0, 0]
        workspaces = {}
        for t in range(2):
            _, _, y = harness.simulate_trial(ctx, t)
            for mi in range(3):
                res = harness.solve_method(ctx, mi, y, workspaces)
                iterations[mi] += res.iterations
                rejected[mi] += res.rejected_steps
                rho_changes[mi] += res.rho_changes
        assert manifest["solver_iterations"] == iterations
        assert manifest["rejected_steps"] == rejected
        assert manifest["rho_changes"] == rho_changes
        assert all(iterations) and rejected[0] == 0 and rejected[1] > 0
        assert rho_changes[0] == 0 and rho_changes[2] > 0
        # the counts stay out of the curves
        for name, header in (("roc.csv", harness.ROC_HEADER), ("rmsd.csv", harness.RMSD_HEADER)):
            with open(out / name, newline="") as f:
                assert tuple(next(csv.reader(f))) == header

    @pytest.mark.filterwarnings("error")
    def test_campaign_without_active_users_is_silent(self, tmp_path, capsys):
        # every p_m entry is undefined, so its mean is NaN without a warning
        path = tmp_path / "config.json"
        path.write_text('{"schema_version": 1, "system": {"E": 0}}')
        out = tmp_path / "out"
        rc = cli.main(["roc", "--quick", "--trials", "2", "--config", str(path),
                       "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        with open(out / "roc.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert rows and all(row[4] == "nan" for row in rows)

    def test_missing_config_exit_code(self, tmp_path, capsys):
        rc = cli.main(["roc", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_config_directory_exit_code(self, tmp_path, capsys):
        rc = cli.main(["roc", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"unreadable: {tmp_path} (Is a directory)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["roc", "--trials", "1"], ["topology"],
                                      ["simulate", "--trials", "1"]])
    def test_out_that_is_a_file_exit_code(self, tmp_path, capsys, monkeypatch, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("a bad --out must fail before any solve")

        monkeypatch.setattr(solvers, "nnls_solve", no_solve)
        monkeypatch.setattr(solvers, "regularized_solve", no_solve)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        for out in (taken, taken / "sub"):
            rc = cli.main(argv + ["--quick", "--out", str(out)])
            assert rc == 2
            assert f"cannot create output directory {out}" in capsys.readouterr().err
        assert taken.read_text() == "keep"
