"""Bounded fan-out of independent calls with results kept in input order.

Every stage that issues independent backend calls (classification, per-label
bootstrap, contrast batches, the refine/adapt wave) runs them through
``ordered_map`` with the backend's ``capabilities().max_concurrency`` as the
cap, so the backend alone bounds how many are in flight, and callers apply
the results on their own thread in a fixed order.

Fan-outs on one cap, nested in one another or run side by side as the items
of an outer fan-out, stay within that cap together: every call runs on the
outermost caller's thread or on one of the cap - 1 helpers of the pool that
cap shares. The calling thread always takes the first item itself, so the
first of several side-by-side jobs runs on the caller's thread.
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

    The calling thread takes the first item before any helper starts, then
    items in input order alongside up to ``concurrency_cap - 1`` helper
    threads from a shared pool; when the pool is busy (a nested call, say)
    the caller does the work itself, so a call never waits on a pool that
    cannot serve it. When calls raise, no further items are started, and the
    exception of the first failing item in input order propagates once the
    calls in flight have finished. A cap of 1, or a single item, runs inline.
    """
    items = list(items)
    if concurrency_cap <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    errors: list[BaseException | None] = [None] * len(items)
    lock = threading.Lock()
    claimed = 1  # item 0 is the calling thread's before any helper starts
    failed = False

    def run(index: int) -> None:
        nonlocal failed
        try:
            results[index] = fn(items[index])
        except BaseException as err:
            errors[index] = err
            with lock:
                failed = True

    def work() -> None:
        nonlocal claimed
        while True:
            with lock:
                if failed or claimed == len(items):
                    return
                index = claimed
                claimed += 1
            run(index)

    pool = _helpers(concurrency_cap - 1)
    helpers = [pool.submit(work) for _ in range(min(concurrency_cap, len(items)) - 1)]
    run(0)
    work()
    for helper in helpers:
        if not helper.cancel():
            helper.result()
    for error in errors:
        if error is not None:
            raise error
    return results
