"""Gate a pytest JUnit report on the known-red acceptance criteria.

The gate passes only when the failing tests are exactly acceptance criteria
1-3, which stay asserted as stated and fail on the reference parameters (see
the README). Any other failure or error, and a known-red criterion that
passes or is missing, fails the gate.

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors \\
        --junitxml=junit.xml
    python .github/scripts/check_known_red.py junit.xml
"""

import sys
import xml.etree.ElementTree as ET

KNOWN_RED = {
    "tests.test_acceptance::test_criterion_1_frequency_doubling",
    "tests.test_acceptance::test_criterion_2_effective_model_equivalence",
    "tests.test_acceptance::test_criterion_3_bound_state_confinement",
}


def main(path: str) -> int:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        print(f"cannot read the JUnit report {path}: {exc}")
        return 1
    seen, failing = set(), set()
    for case in root.iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        seen.add(test_id)
        if case.find("failure") is not None or case.find("error") is not None:
            failing.add(test_id)
    problems = [f"unexpected failure: {t}" for t in sorted(failing - KNOWN_RED)]
    problems += [
        f"known-red test passed or did not run: {t}"
        for t in sorted(KNOWN_RED - failing)
    ]
    for line in problems:
        print(line)
    print(f"{len(seen)} tests, {len(failing)} failing, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
