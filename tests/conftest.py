"""Pytest setup shared by the tier-1 tests.

When a Hypothesis property fails, Hypothesis's pytest plugin imports
``hypothesis.extra._patching`` while it writes the failure report.  Where
libcst is installed, that import raises a ``DeprecationWarning`` from
``mypy_extensions``, and under ``-W error`` the warning becomes an error
inside the reporting hook: pytest stops with an INTERNALERROR, and every
later test goes unrun.  Importing the module once here, with that warning
ignored, leaves nothing to warn about later, so every failure is reported.
A ``filterwarnings`` setting cannot do this, since ``-W error`` on the
command line takes precedence over it.  Without libcst the import fails,
and there is nothing to do.
"""

import importlib
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pass
