"""Shared pytest set-up.

When a Hypothesis property fails, its pytest plugin imports
`hypothesis.extra._patching` to write a patch for the falsifying example.
With libcst installed, that import raises a `mypy_extensions` deprecation
warning, which `python -W error -m pytest` turns into an internal error
that hides the example.  Importing the module once here, with that warning
ignored, leaves the plugin's later import a lookup in `sys.modules`.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips the patch as well
        pass
