"""The memo caches of the algebra layer and the oracle's builders, for
tests that need a cold start or check the bounds."""

from __future__ import annotations

from folmod import abgroup, cli, oracle

CACHES = (
    (abgroup._system_cached, abgroup.SYSTEM_CACHE_SIZE),
    (abgroup._normalize_full, abgroup.NORMALIZE_CACHE_SIZE),
    (abgroup._kernel_cached, abgroup.KERNEL_CACHE_SIZE),
)

# The oracle builds its small groups, homs and tables once per process; a
# cold start forgets them too, or counted work depends on the runs before.
ORACLE_BUILDERS = tuple(
    f for f in vars(oracle).values() if hasattr(f, "cache_clear") and f.__module__ == oracle.__name__
)

# The command line builds its argument parser once per process.
BUILDERS = ORACLE_BUILDERS + (cli._build_parser,)


def clear_caches() -> None:
    for cache, _ in CACHES:
        cache.cache_clear()
    for builder in BUILDERS:
        builder.cache_clear()
