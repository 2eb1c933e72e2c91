"""Shared pytest plumbing: surface acceptance-criterion verdict lines, and
the fixtures that watch fit_sbpmt's worker pool.

The acceptance tests record one line per criterion; printing them from
inside a test would be swallowed by output capture, so they are replayed
in the terminal summary instead.
"""

import os

import pytest

from sbpmt import ensemble

acceptance_lines: list[str] = []


@pytest.fixture
def two_cpus(monkeypatch):
    # the pool starts whatever the host's CPU count
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 2)


@pytest.fixture
def forks(monkeypatch):
    """The pids that called os.fork (which still forks)."""
    calls, real_fork = [], os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return calls


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
