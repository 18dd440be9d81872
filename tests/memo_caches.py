"""The bounded memo caches of the algebra layer, for tests that need a
cold start or check the bounds."""

from __future__ import annotations

from folmod import abgroup

CACHES = (
    (abgroup._system_cached, abgroup.SYSTEM_CACHE_SIZE),
    (abgroup._normalize_full, abgroup.NORMALIZE_CACHE_SIZE),
    (abgroup._kernel_cached, abgroup.KERNEL_CACHE_SIZE),
)


def clear_caches() -> None:
    for cache, _ in CACHES:
        cache.cache_clear()
