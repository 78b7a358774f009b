"""Suite-wide test settings.

One Hypothesis profile for every property test: derandomized, so each run
draws the same examples, with no example database and no deadline, since a
first call may import modules lazily.  A test sets only its own
``max_examples``.  Only the example database is off: Hypothesis still caches
the constants it collects and its charmap under ``.hypothesis/``, which
``.gitignore`` lists.
"""

from hypothesis import settings

settings.register_profile("tfloc", derandomize=True, database=None, deadline=None)
settings.load_profile("tfloc")
