"""``FileLogManager``: the log's name from when the log on a file was a
subclass of an in-memory one.  :class:`~repro.wal.log.LogManager` is the
one log, on a file or in memory alike.

``benchmarks/e2e/adapter.py`` imports the name; it goes with ROADMAP 3a's
adapter cleanup.  ``EXTENT_BYTES``, and ``os`` (whose ``pwrite`` the log
tests patch), stay reachable here for the tests that import this module.
"""

import os  # noqa: F401

from repro.wal.log import EXTENT_BYTES, LogManager  # noqa: F401

FileLogManager = LogManager
