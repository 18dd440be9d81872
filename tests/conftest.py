"""Hypothesis settings of the test suite.

The profile changes nothing but ``print_blob``: a failing property prints
the ``@reproduce_failure`` line that replays its input, which a rare failure
found once in thousands of examples cannot be found again without.
"""

from hypothesis import settings

settings.register_profile("folmod", print_blob=True)
settings.load_profile("folmod")
