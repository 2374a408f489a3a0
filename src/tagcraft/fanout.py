"""Bounded fan-out of independent calls with results kept in input order.

Every stage that issues independent backend calls (classification, per-label
bootstrap, contrast batches, the refine and adapt waves) runs them through
``ordered_map``, so one ``concurrency_cap`` bounds how many are in flight and
callers apply the results on their own thread in a fixed order.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# One long-lived pool of cap - 1 helper threads per cap, so a stage does not
# pay for starting and joining threads on every call.
_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _helpers(count: int) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(count)
        if pool is None:
            pool = _pools[count] = ThreadPoolExecutor(count, thread_name_prefix="tagcraft")
        return pool


def ordered_map(fn: Callable[[T], R], items: Iterable[T], concurrency_cap: int) -> list[R]:
    """Call ``fn`` on every item with at most ``concurrency_cap`` calls in
    flight and return the results in input order.

    The calling thread takes items in input order alongside up to
    ``concurrency_cap - 1`` helper threads from a shared pool; when the pool
    is busy (a nested call, say) the caller does the work itself, so a call
    never waits on a pool that cannot serve it. When calls raise, no further
    items are started, and the exception of the first failing item in input
    order propagates once the calls in flight have finished. A cap of 1, or a
    single item, runs inline.
    """
    items = list(items)
    if concurrency_cap <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    errors: list[BaseException | None] = [None] * len(items)
    lock = threading.Lock()
    claimed = 0
    failed = False

    def work() -> None:
        nonlocal claimed, failed
        while True:
            with lock:
                if failed or claimed == len(items):
                    return
                index = claimed
                claimed += 1
            try:
                results[index] = fn(items[index])
            except BaseException as err:
                errors[index] = err
                with lock:
                    failed = True

    pool = _helpers(concurrency_cap - 1)
    helpers = [pool.submit(work) for _ in range(min(concurrency_cap, len(items)) - 1)]
    work()
    for helper in helpers:
        if not helper.cancel():
            helper.result()
    for error in errors:
        if error is not None:
            raise error
    return results
