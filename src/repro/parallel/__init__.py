"""Process-parallel execution helpers for trace sweeps and async bursts."""

from repro.parallel.pool_exec import (
    ParallelConfig,
    notify_pool_failure,
    parallel_map,
    persistent_pool,
    register_pool_failure_hook,
    shutdown_persistent_pool,
    unregister_pool_failure_hook,
)

__all__ = [
    "parallel_map",
    "ParallelConfig",
    "persistent_pool",
    "shutdown_persistent_pool",
    "register_pool_failure_hook",
    "unregister_pool_failure_hook",
    "notify_pool_failure",
]
