"""The pairs harness .github/scripts/bench_pairs.py, run on stub checkouts."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# A perfbench/run.py stand-in: it logs its side and seed, and reports a
# study_s of base + seed / 1000 and a constant solved_frac.
STUB = """
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if args["--workload"] == "broken":
    sys.exit("no such workload")
with open({log!r}, "a") as log:
    log.write("{side} " + args["--seed"] + "\\n")
print(json.dumps({{"machine": {{"nproc": 2}}, "raw": {{}}}}))
metrics = {{
    "study_s": {{"value": {base} + int(args["--seed"]) / 1000, "unit": "s"}},
    "solved_frac": {{"value": 1.0, "unit": "ratio"}},
}}
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}))
"""

SPEC = {
    "end_to_end": [
        {"name": "study_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "solved_frac", "unit": "ratio", "better": "higher", "bound": 0.001},
    ],
    "per_layer": [],
}


def _checkout(root: Path, side: str, base: float, log: Path) -> Path:
    (root / side / "perfbench").mkdir(parents=True)
    (root / side / "perfbench" / "run.py").write_text(STUB.format(log=str(log), side=side, base=base))
    (root / side / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return root / side


def test_pairs_alternate_the_first_side_and_share_each_seed(tmp_path, capsys):
    log = tmp_path / "order.log"
    parent = _checkout(tmp_path, "parent", 0.2, log)
    change = _checkout(tmp_path, "change", 0.1, log)
    bench_pairs.main([str(parent), str(change), "--workload", "fig1", "--pairs", "3",
                      "--seconds", "1", "--seed", "7"])
    assert log.read_text().split("\n")[:-1] == [
        "parent 7", "change 7", "change 8", "parent 8", "parent 9", "change 9",
    ]
    machine_line, result = capsys.readouterr().out.split("\n", 1)
    assert json.loads(machine_line)["machine"] == {"nproc": 2}
    metrics = json.loads(result)["metrics"]
    assert metrics["study_s"]["parent"]["runs"] == pytest.approx([0.207, 0.208, 0.209])
    assert metrics["study_s"]["change_better_pairs"] == "3/3"
    assert metrics["study_s"]["parent_iqr"] == pytest.approx(0.001)
    # Three pairs won of three claim nothing: a claim needs ten pairs.
    assert metrics["study_s"]["claim_met"] is False
    assert metrics["study_s"]["outside_bound"] is False
    # Equal values are ties, which count for neither side.
    assert metrics["solved_frac"]["change_better_pairs"] == "0/3"
    assert metrics["solved_frac"]["claim_met"] is False
    assert metrics["solved_frac"]["outside_bound"] is False


def test_summary_quartiles_are_numpys_linear_percentiles():
    runs = [0.3, 0.1, 0.4, 0.1, 0.5, 0.9, 0.2, 0.6, 0.5, 0.3]
    result = bench_pairs.summary(runs)
    q1, med, q3 = np.percentile(runs, [25, 50, 75])
    assert (result["q1"], result["median"], result["q3"]) == pytest.approx((q1, med, q3), abs=1e-15)


@pytest.mark.parametrize("better, wins", [("lower", "1/3"), ("higher", "1/3")])
def test_compare_counts_wins_by_the_metric_direction(better, wins):
    result = bench_pairs.compare([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], better)
    assert result["change_better_pairs"] == wins
    assert result["median_change"] == "+0.0%"


# Ten parent runs with quartiles 1.0 and 1.1 (IQR 0.1, median 1.05).
PARENT = [1.0, 1.0, 1.0, 1.0, 1.05, 1.05, 1.1, 1.1, 1.1, 1.1]


@pytest.mark.parametrize("change, met", [
    ([x - 0.2 for x in PARENT[:9]] + [2.0], True),  # 9/10 pairs, median 0.2 better
    ([x - 0.2 for x in PARENT[:8]] + [2.0, 2.0], False),  # 8/10 pairs
    ([x - 0.05 for x in PARENT], False),  # 10/10 pairs, median moved less than the IQR
    ([x - 0.2 for x in PARENT[:9]], False),  # 9/9 pairs: fewer than ten claim nothing
])
def test_claim_needs_ten_pairs_nine_tenths_of_them_and_a_move_past_the_parent_iqr(change, met):
    # The parent's first len(change) runs; its first nine have the same quartiles.
    result = bench_pairs.compare(PARENT[:len(change)], change, "lower", 0.25)
    assert result["parent_iqr"] == pytest.approx(0.1)
    assert result["claim_met"] is met


@pytest.mark.parametrize("better, bound, parent, change, outside", [
    ("lower", 0.25, [1.0, 1.0], [1.2, 1.2], False),
    ("lower", 0.25, [1.0, 1.0], [1.3, 1.3], True),
    ("lower", 0.25, [1.0, 1.0], [0.5, 0.5], False),
    ("higher", 0.01, [1.0, 1.0], [0.0, 0.0], True),
    ("higher", 0.01, [1.0, 1.0], [1.0, 1.0], False),
    ("lower", None, [1.0, 1.0], [9.0, 9.0], None),
])
def test_outside_bound_is_a_worse_median_by_more_than_the_bound(better, bound, parent, change, outside):
    assert bench_pairs.compare(parent, change, better, bound)["outside_bound"] is outside


def test_a_failed_run_stops_with_its_error(tmp_path):
    log = tmp_path / "order.log"
    parent = _checkout(tmp_path, "parent", 0.2, log)
    change = _checkout(tmp_path, "change", 0.1, log)
    with pytest.raises(SystemExit, match="no such workload"):
        bench_pairs.main([str(parent), str(change), "--workload", "broken", "--pairs", "1", "--seconds", "1"])


@pytest.mark.parametrize("cached", ["parent", "change"])
def test_a_bytecode_cache_in_one_checkout_only_stops_before_any_run(tmp_path, cached):
    log = tmp_path / "order.log"
    parent = _checkout(tmp_path, "parent", 0.2, log)
    change = _checkout(tmp_path, "change", 0.1, log)
    (tmp_path / cached / "src" / "sparsebeam" / "__pycache__").mkdir(parents=True)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main([str(parent), str(change), "--workload", "fig1", "--pairs", "1", "--seconds", "1"])
    message = str(stop.value.code)
    assert "\n" not in message
    assert str(parent) in message and str(change) in message
    assert message.index(str(tmp_path / cached)) < message.index(" does not")
    assert not log.exists()


def test_a_bytecode_cache_in_both_checkouts_runs(tmp_path):
    log = tmp_path / "order.log"
    parent = _checkout(tmp_path, "parent", 0.2, log)
    change = _checkout(tmp_path, "change", 0.1, log)
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "sparsebeam" / "__pycache__").mkdir(parents=True)
    bench_pairs.main([str(parent), str(change), "--workload", "fig1", "--pairs", "1", "--seconds", "1"])
    assert log.read_text().split("\n")[:-1] == ["parent 0", "change 0"]
