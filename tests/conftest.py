"""Suite-wide settings.

Property tests draw their examples from `hypothesis` under one registered
profile: derandomized (the same examples on every run of the same tree), a
bounded number of examples, no deadline (the host's speed varies) and no
example database, so a failure found once is not replayed by later runs
in place of the fixed examples.
"""
from hypothesis import settings

settings.register_profile("qsdlab", derandomize=True, max_examples=40,
                          deadline=None, database=None)
settings.load_profile("qsdlab")
