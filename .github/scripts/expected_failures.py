"""Pass only when a pytest JUnit report fails exactly the by-design tests.

    python .github/scripts/expected_failures.py tier1-junit.xml

Acceptance criteria 5, 6b, 6c and 6d are asserted as written and fail
(see README.md), so the tier-1 suite can never exit 0. This check turns
its report into a gate: exit 0 when the failed and errored tests are
exactly those four, exit 1 when any other test fails or errors, or when
one of the four passes, is skipped or is missing.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED = frozenset(
    f"tests.test_acceptance::{name}"
    for name in (
        "test_criterion_5_baseline_null_ordering_and_sidelobes",
        "test_criterion_6b_wsc_shifts_by_mismatch",
        "test_criterion_6c_rwsc_steers_at_true_doa",
        "test_criterion_6d_rwsc_deepens_null_over_rmvb",
    )
)


def failed_tests(path: str) -> tuple[set[str], int]:
    """Ids (``classname::name``) of failed or errored test cases, and the case count."""
    cases = list(ET.parse(path).getroot().iter("testcase"))
    failed = {
        f"{case.get('classname')}::{case.get('name')}"
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    return failed, len(cases)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    failed, count = failed_tests(argv[1])
    unexpected = sorted(failed - EXPECTED)
    not_failing = sorted(EXPECTED - failed)
    for test in unexpected:
        print(f"unexpected failure: {test}")
    for test in not_failing:
        print(f"expected to fail, but passed, was skipped or is missing: {test}")
    if unexpected or not_failing:
        return 1
    print(f"{count} test cases; only the {len(EXPECTED)} by-design failures failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
