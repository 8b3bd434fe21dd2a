"""Suite-wide settings. Where the CI environment variable is set, every
hypothesis test draws the same examples on each run; each test keeps its
own max_examples."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
