"""Hypothesis profiles.  The default profile is Hypothesis's own; pass
``--hypothesis-profile=ci`` for more examples per property and a blob that
reproduces any failure."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, print_blob=True)
