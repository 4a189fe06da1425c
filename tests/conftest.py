"""Hypothesis profiles.

``ci`` prints the ``@reproduce_failure`` blob of a failing property test, so
a failure seen in CI can be replayed locally. It is loaded when the ``CI``
environment variable is set, as it is on GitHub Actions; local runs keep the
default profile.
"""
import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
