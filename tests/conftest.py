"""Settings every tier-1 test module shares.

One hypothesis profile, loaded before any test module builds its
@settings: examples are derived from each test alone (derandomize), so two
runs of one commit draw the same examples, no example has a deadline, and
no example database is kept.  Hypothesis also caches the constants it
reads from the package's source, during collection; that cache goes to a
temporary directory removed after the session, so nothing is written to
.hypothesis/.
"""

from __future__ import annotations

import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests' modules report the missing package
    set_hypothesis_home_dir = None
else:
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
    settings.load_profile("tier1")

_home: tempfile.TemporaryDirectory | None = None


def pytest_sessionstart(session) -> None:
    global _home
    if set_hypothesis_home_dir is not None:
        _home = tempfile.TemporaryDirectory(prefix="hypothesis-")
        set_hypothesis_home_dir(_home.name)


def pytest_sessionfinish(session) -> None:
    if _home is not None:
        _home.cleanup()
