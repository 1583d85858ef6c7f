"""Suite-wide checks that no single test owns."""

import multiprocessing

import pytest


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if a test left a worker process alive, and name it.

    A leftover pool worker keeps the run alive after the last test: the
    interpreter joins its live children at exit, and a worker that holds
    the inherited stdout keeps a reader of the run's output waiting.  The
    leftovers are named, then terminated, so the run ends and fails.
    """
    leftovers = multiprocessing.active_children()
    if not leftovers:
        return
    names = ", ".join(f"{process.name} (pid {process.pid})" for process in leftovers)
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    message = f"processes still running after the tests: {names}"
    if reporter is not None:
        reporter.write_sep("!", message, red=True)
    else:
        print(message)
    for process in leftovers:
        process.terminate()
        process.join(10)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
