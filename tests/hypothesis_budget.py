"""Hypothesis example budgets that follow the active settings profile.

``tests/conftest.py`` registers two profiles: ``ci`` (the default, with
hypothesis' own 100-example budget) and ``deep`` (ten times that).  A
test that fixes its own ``max_examples`` would ignore the profile, so
the property suites write ``max_examples=scaled(n)``: *n* examples
under ``ci``, proportionally more under ``--hypothesis-profile=deep``.
"""

from hypothesis import settings

#: the ``ci`` profile's budget, the unit *n* is measured against
CI_EXAMPLES = 100


def scaled(n: int) -> int:
    """*n* examples under the ``ci`` profile, scaled for any other."""
    return max(1, n * settings.default.max_examples // CI_EXAMPLES)
