"""Test-session set-up shared by tests/ and bench/tests.

Test modules import numpy before lindmet, so lindmet's one-thread BLAS
default would come too late for them. Importing lindmet here, before any
test module is collected, applies it to the whole session; a value already
set in the environment still wins.
"""
import lindmet  # noqa: F401
