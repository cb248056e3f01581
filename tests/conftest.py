import re

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
settings.load_profile("default")


_CRITERION = re.compile(r"test_acceptance\.py::test_c(\d{2})_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per numbered acceptance criterion."""
    results: dict[int, tuple[str, bool]] = {}
    for status, ok in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(status, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if not m or getattr(rep, "when", "call") != "call":
                continue
            num, name = int(m.group(1)), m.group(2)
            prev = results.get(num, (name, True))
            results[num] = (name, prev[1] and ok)
    if results:
        terminalreporter.write_sep("=", "acceptance criteria")
        for num in sorted(results):
            name, ok = results[num]
            terminalreporter.write_line(
                f"criterion {num:2d} {name:<40s} {'PASS' if ok else 'FAIL'}"
            )
