"""Test-suite settings.

Every `hypothesis` test runs without the explain phase, which re-runs a
failing example many times to annotate it: a failure in a slow property
test then reports in seconds rather than minutes.  The tests still generate
and shrink the same examples.  Per-test `@settings(...)` inherit this
profile, so it is loaded here, before the test modules are imported.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "belieffit", phases=[phase for phase in Phase if phase is not Phase.explain]
)
settings.load_profile("belieffit")
