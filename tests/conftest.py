"""Hypothesis profiles, and a guard on the cyclic garbage collector.

The default profile is Hypothesis's own; pass ``--hypothesis-profile=ci``
for more examples per property and a blob that reproduces any failure.
``parse_scenario`` pauses the collector while it runs, so every test must
leave it enabled, as the interpreter starts it."""

import gc

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=1000, print_blob=True)


@pytest.fixture(autouse=True)
def collector_left_enabled():
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
