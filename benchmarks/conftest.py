"""Session plumbing for the paper-claim tests: one persistent result cache.

Identical (config, design, seed) runs from an earlier session, or from an
earlier test of this one, are served from ``results/cache/`` instead of
being re-simulated; ``REPRO_CACHE_DIR`` overrides the location.  Delete the
directory (or change the code) to force re-simulation.  ``repro-eac figure
NAME...`` prints an artifact; these tests assert its shape.
"""

import os

from repro.experiments import cache


def pytest_sessionstart(session):
    cache.set_cache_dir(
        os.environ.get("REPRO_CACHE_DIR", os.path.join("results", "cache"))
    )
