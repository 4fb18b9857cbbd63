"""Regression: the fixed pvt/tool memo pattern stays REP013-clean.

Mirrors ``repro.model.ensemble._rebuilt`` (the per-process memo that
rebuilds an unpickled ensemble): an ``lru_cache``, not a hand-rolled
module dict.
"""

from functools import lru_cache

from repro.parallel import parallel_map


@lru_cache(maxsize=1)
def expensive(config):
    return [config] * 3


def task(config):
    return expensive(config)


def run(configs):
    return parallel_map(task, configs)
