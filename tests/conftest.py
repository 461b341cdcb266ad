"""Shared test plumbing: a private table cache and acceptance criterion
verdict lines.

``build_observation_table`` keeps built tables in ``$XDG_CACHE_HOME/ionread``.
The suite never touches a user's cache: the session, and then each test, gets
an empty cache directory of its own, which child processes inherit.

Acceptance tests record one human-readable line per criterion; the lines
are printed as a block after the run so the verdicts are visible without
digging through individual test output.
"""

import pytest

_CRITERION_LINES = []


@pytest.fixture(scope="session", autouse=True)
def _session_table_cache(tmp_path_factory):
    # Session- and module-scoped fixtures build tables before any
    # function-scoped fixture runs.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(autouse=True)
def _table_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))


@pytest.fixture(scope="session")
def record_criterion():
    def _record(line: str) -> None:
        _CRITERION_LINES.append(line)
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
