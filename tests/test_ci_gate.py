"""The tier-1 CI verdict: .github/scripts/expected_failures.py on small JUnit reports."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "expected_failures.py"
_spec = importlib.util.spec_from_file_location("expected_failures", SCRIPT)
expected_failures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(expected_failures)

# The acceptance criteria asserted as written that fail by design.
BY_DESIGN = [
    "tests.test_acceptance::test_criterion_5_baseline_null_ordering_and_sidelobes",
    "tests.test_acceptance::test_criterion_6b_wsc_shifts_by_mismatch",
    "tests.test_acceptance::test_criterion_6c_rwsc_steers_at_true_doa",
    "tests.test_acceptance::test_criterion_6d_rwsc_deepens_null_over_rmvb",
]
PASSING = [
    "tests.test_solvers::test_solver_options_validation",
    "perfbench.test_perfbench::test_spec_parses_and_names_are_valid",
]


def _junit(tmp_path, outcomes: dict[str, str]) -> str:
    """A pytest-style JUnit report: test id -> passed, failure, error or skipped."""
    cases = []
    for test_id, outcome in outcomes.items():
        classname, name = test_id.split("::")
        body = "" if outcome == "passed" else f'<{outcome} message="{outcome}"/>'
        cases.append(f'<testcase classname="{classname}" name="{name}">{body}</testcase>')
    path = tmp_path / "junit.xml"
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">'
        + "".join(cases)
        + "</testsuite></testsuites>",
        encoding="utf-8",
    )
    return str(path)


def _verdict(tmp_path, outcomes) -> int:
    return expected_failures.main(["expected_failures.py", _junit(tmp_path, outcomes)])


def test_exactly_the_by_design_failures_pass_the_gate(tmp_path):
    outcomes = {test: "failure" for test in BY_DESIGN} | {test: "passed" for test in PASSING}
    assert _verdict(tmp_path, outcomes) == 0


@pytest.mark.parametrize("outcome", ["failure", "error"])
def test_a_fifth_failure_fails_the_gate(tmp_path, outcome):
    outcomes = {test: "failure" for test in BY_DESIGN} | {PASSING[0]: outcome, PASSING[1]: "passed"}
    assert _verdict(tmp_path, outcomes) == 1


@pytest.mark.parametrize("outcome", ["passed", "skipped", "missing"])
def test_a_by_design_failure_that_does_not_fail_fails_the_gate(tmp_path, outcome):
    outcomes = {test: "failure" for test in BY_DESIGN} | {test: "passed" for test in PASSING}
    if outcome == "missing":
        del outcomes[BY_DESIGN[0]]
    else:
        outcomes[BY_DESIGN[0]] = outcome
    assert _verdict(tmp_path, outcomes) == 1
