"""Smoke test of the benchmark itself on a 6x6 grid (K=36).

    python3 -m pytest perfbench/test_smoke.py -q

Runs the three workload shapes (roc with every method, roc with NNLS only,
sweep-lambda) untraced and traced through the same code as a real run, and
fails if a public function the probes wrap has changed its signature.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import spans  # noqa: E402
from pilothop import detection  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "schema_version": 1,
    "system": {"K": 36, "grid_side": 6, "M": 8, "tau_p": 4, "T": 4,
               "sigma_e2": 0.01, "r": 0.2, "E": 2},
    "thresholds": [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.05, 1.2],
}
SHAPES = ("full_paper", "full_nnls", "quick_sweep")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Tiny stand-ins for the three workloads, with their reference CSVs."""
    root = tmp_path_factory.mktemp("tiny")
    full, nnls = root / "tiny.json", root / "tiny_nnls.json"
    full.write_text(json.dumps(TINY))
    nnls.write_text(json.dumps({**TINY, "methods": [{"kind": "nnls"}]}))
    argv = {
        "full_paper": ("roc", "--config", full),
        "full_nnls": ("roc", "--config", nnls),
        "quick_sweep": ("sweep-lambda", "--config", full),
    }
    workloads = {}
    for name, args in argv.items():
        w = bench.Workload(name, args, 2, 0.05, (*args, "--trials", "2"))
        bench.write_reference(w, root / "reference" / name)
        workloads[name] = w
    return root, workloads


def run_tiny(tiny, name, trace, seed=5, ref_dir=None):
    root, workloads = tiny
    return bench.run(workloads[name], seed, 0.3, trace,
                     ref_dir=ref_dir or root / "reference" / name, work_root=root)


def test_wrapped_signatures_match_the_program():
    assert spans.signature_mismatches() == []


def test_changed_signature_fails_loudly(monkeypatch):
    monkeypatch.setattr(detection, "match_events", lambda true_events, centroids, limit=8: None)
    with pytest.raises(spans.SignatureChanged, match="match_events"):
        with spans.Probe(trace=True):
            pass


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", SHAPES)
def test_workload_shape(tiny, name, trace):
    result, report = run_tiny(tiny, name, trace)
    assert report["check"]["problems"] == []
    assert result["correct"] is True
    assert len(report["master_seeds"]) == 3 and report["trials_per_pass"] == 6
    assert result["attempted"] >= report["trials_per_pass"] and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    json.dumps(result, allow_nan=False)
    # every probe was removed again
    assert all(not hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in spans.LAYERS)


def test_counts_repeat_for_a_seed(tiny):
    counts = []
    for _ in range(2):
        result, _ = run_tiny(tiny, "full_paper", trace=True, seed=11)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["solvers.tv_iters"] > 0 and counts[0]["solvers.factor_count"] > 0


def test_reference_mismatch_fails_the_run(tiny, tmp_path):
    root, _ = tiny
    ref = tmp_path / "reference"
    shutil.copytree(root / "reference" / "full_nnls", ref)
    lines = (ref / "roc.csv").read_text().splitlines()
    header, rows = lines[0], [row.split(",") for row in lines[1:]]
    for row in rows:
        row[4] = str(1.0 - float(row[4]))  # p_m_mean
    (ref / "roc.csv").write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
    result, report = run_tiny(tiny, "full_nnls", trace=False, ref_dir=ref)
    assert result["correct"] is False
    assert any("p_m_mean" in p for p in report["check"]["problems"])


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "full_nnls", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
