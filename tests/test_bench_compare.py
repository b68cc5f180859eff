"""scripts/bench_compare.py keeps, for each untraced run, the unscaled figures
of the record that the run names, before the next run overwrites it."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"
RECORD = ".bench_out/record-spectra-deep-seed1-trace0.json"


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, name: str) -> Path:
    tree = root / name
    for d in ("src", "perfbench", ".bench_out"):
        (tree / d).mkdir(parents=True)
    end_to_end = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
    benchmark = {"command": ["bench"], "run_seconds": 1, "end_to_end": end_to_end}
    (tree / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return tree


def test_each_run_keeps_its_own_record(bench_compare, tmp_path, monkeypatch):
    # every untraced run overwrites the same record with its own figures: the
    # n-th run of a tree times ops_per_s 10 n and the kernel 1, 2, 3 n ms
    trees = {side: _tree(tmp_path, side) for side in ("parent", "change")}
    runs = {side: 0 for side in trees}

    def fake_run(cmd, cwd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 1, "", "")
        side = Path(cwd).name
        trace = cmd[cmd.index("--trace") + 1]
        value = 1.0
        if trace == "0":
            runs[side] += 1
            n = runs[side]
            record = {"as_timed": {"ops_per_s": 10.0 * n, "op_p50_s": 0.1},
                      "calibration_s": [1e-3 * n, 3e-3 * n, 2e-3 * n]}
            (Path(cwd) / RECORD).write_text(json.dumps(record))
            value = 5.0 * n + (side == "change")
        result = {"correct": True, "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}
        out = f"ops_per_s {value} 1/s\nrecord: {RECORD}\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(cmd, 0, out, "")

    monkeypatch.setattr(bench_compare.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_compare.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                               "--workload", "spectra-deep", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["spectra-deep"]
    pairs = bench_compare.PAIRS
    for side in trees:
        mine = [r for r in entry["runs"] if r["side"] == side]
        assert [r["as_timed"]["ops_per_s"] for r in mine] == [10.0 * n for n in range(1, pairs + 1)]
        assert [r["calibration_median_s"] for r in mine] == pytest.approx(
            [2e-3 * n for n in range(1, pairs + 1)])
    summary = entry["summary"]
    assert summary["ops_per_s"]["pairs_change_better"] == pairs
    for side in trees:
        assert summary["as_timed.ops_per_s"][side] == pytest.approx(
            {"median": 55.0, "q1": 32.5, "q3": 77.5, "runs": pairs})
        assert summary["calibration_median_s"][side]["median"] == pytest.approx(0.011)
    assert set(entry["traced"]) == set(trees)
