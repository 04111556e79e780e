"""One hypothesis profile for the whole suite: derandomized, so each run draws
the same examples; no example database; and no deadline, as an example's time
depends on the machine.  Each ``@settings`` sets only ``max_examples`` and
inherits the rest from this profile."""

from hypothesis import settings

settings.register_profile("mpinv", derandomize=True, database=None, deadline=None)
settings.load_profile("mpinv")
