"""Hypothesis settings shared by every property in the suite.

No deadline: a property's first examples pay for imports and cached tables,
so its run time says nothing about a defect.  ``print_blob`` prints a
reproduction blob with each failure, so a failure read from a log can be
replayed with ``@reproduce_failure``.
"""

from hypothesis import settings

settings.register_profile("qbaker", deadline=None, print_blob=True)
settings.load_profile("qbaker")
