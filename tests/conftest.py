import os

import pytest


def pytest_runtest_logreport(report):
    """Print one pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    status = "PASS" if report.passed else "FAIL"
    name = report.nodeid.split("::")[-1]
    print(f"\n[acceptance] {status}: {name}", flush=True)


@pytest.fixture
def retarget_at_fstat(monkeypatch):
    """``retarget(link, target)``: the next ``os.fstat`` call, and only it,
    first points the symbolic link ``link`` at ``target``, as another process
    may between a writer's open of ``link`` and its look at what it opened."""

    def retarget(link, target):
        fstat = os.fstat

        def once(fd):
            monkeypatch.setattr(os, "fstat", fstat)
            os.remove(link)
            os.symlink(target, link)
            return fstat(fd)

        monkeypatch.setattr(os, "fstat", once)

    return retarget
