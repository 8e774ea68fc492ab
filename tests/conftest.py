"""Shared test settings.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile: derandomized examples,
so a failure on a CI runner reproduces locally under the same profile, and
the failing example's blob printed for ``@reproduce_failure``.  Without the
variable, hypothesis keeps its default profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
