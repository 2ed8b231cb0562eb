import numpy as np
import pytest


@pytest.fixture
def counting():
    """Wraps a curvature so that each call records the size of the node set it samples, in ``.sizes``."""
    def wrap(spec):
        def sampled(t):
            sampled.sizes.append(np.size(t))
            return spec(t)

        sampled.sizes = []
        return sampled

    return wrap


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in name or rep.when != "call":
                continue
            crit = name.split("::")[-1]
            verdict = "PASS" if status == "passed" else "FAIL"
            lines[crit] = verdict
    if lines:
        terminalreporter.section("acceptance criteria")
        for crit in sorted(lines):
            terminalreporter.write_line(f"{crit}: {lines[crit]}")
