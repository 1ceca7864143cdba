"""Test-session set-up shared by tests/ and bench/tests.

Test modules import numpy before lindmet, so lindmet's one-thread BLAS
default would come too late for them. Importing lindmet here, before any
test module is collected, applies it to the whole session; a value already
set in the environment still wins.
"""
import os

import lindmet


def pytest_report_header():
    """The directory of the lindmet package under test. The ``pythonpath``
    setting puts this checkout's ``src`` ahead of ``PYTHONPATH``, so the
    header shows which checkout a session really tests."""
    return f"lindmet: {os.path.dirname(lindmet.__file__)}"
