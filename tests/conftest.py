"""Hypothesis profiles, chosen by $HYPOTHESIS_PROFILE: "local" (the default)
and "ci", which runs more examples.  Tests that fix max_examples themselves
keep their own count under both."""

import os

from hypothesis import settings

settings.register_profile("local", max_examples=40, deadline=None)
settings.register_profile("ci", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "local"))
