import os
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# pytest puts src/ on sys.path (pyproject.toml); the CLI tests that start
# `python -m quivercalc` need it on the child's path too
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

ACCEPTANCE_PREFIX = "tests/test_acceptance.py::"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if ACCEPTANCE_PREFIX not in nodeid:
                continue
            if getattr(report, "when", "call") != "call" and outcome == "passed":
                continue
            name = nodeid.split("::")[-1]
            name = name.removeprefix("test_").replace("_", " ")
            verdict = "PASSED" if outcome == "passed" else "FAILED"
            lines.append((nodeid, f"[acceptance] {name}: {verdict}"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _nodeid, line in sorted(set(lines)):
            terminalreporter.write_line(line)
