"""Per-op timing and the correctness oracle, measured from outside.

:class:`OpProbe` replaces a loaded index's op methods *on the instance*
with thin wrappers, so every call the runner (or the serving engine)
makes into the index is timed on the real clock, optionally on the
charged clock, and checked against the oracle as it returns.  Nothing in
``repro`` is modified; removing the probe restores the class methods.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from time import perf_counter_ns
from typing import Callable, List, Optional

OP_METHODS = ("lookup", "insert", "durable_insert", "scan")
KIND_OF = {"lookup": "lookup", "insert": "insert",
           "durable_insert": "insert", "scan": "scan"}


def paper_payload(key: int) -> int:
    """The payload every generated insert and bulk item carries."""
    return key + 1


class OpProbe:
    """Times and checks each op call from the runner into one index.

    ``charged`` also records each op's charged latency (the device
    clock's advance across the call) — the single-stream runner's own
    per-op latency, so the two can be compared bit for bit.  The serving
    engine reports client-perceived latency instead, which includes
    latch and commit waits outside the call, so sharded cells turn it
    off (their fan-out clock is also costly to read per op).

    ``expected`` maps a key to the payload a lookup must return; the
    benchmark's tests pass a wrong one to show the check fires.
    """

    def __init__(self, index, bulk_keys, *, scan_length: int,
                 charged: bool = True,
                 expected: Callable[[int], int] = paper_payload,
                 recorder=None) -> None:
        self.index = index
        self.scan_length = scan_length
        self.expected = expected
        self.recorder = recorder
        self.kinds: List[str] = []
        self.start_ns: List[int] = []
        self.real_ns: List[int] = []
        # the probe's own bookkeeping before and after each call
        self.pre_ns: List[int] = []
        self.post_ns: List[int] = []
        self.sim_us: Optional[List[float]] = [] if charged else None
        self.failures: List[str] = []
        self.inserted: List[int] = []
        self._present = set(bulk_keys)
        # the scan oracle; scan_length 0 means the stream has no scans
        self._sorted = sorted(self._present) if scan_length else None
        self._device = index.pager.device if charged else None
        self._depth = 0
        for method in OP_METHODS:
            setattr(index, method, self._wrap(method, getattr(index, method)))

    def remove(self) -> None:
        """Restore the index's class methods."""
        for method in OP_METHODS:
            self.index.__dict__.pop(method, None)

    @property
    def ops(self) -> int:
        return len(self.kinds)

    def _wrap(self, method: str, fn):
        kind = KIND_OF[method]

        def timed(*args):
            if self._depth:
                # durable_insert calls insert: only the outermost call is
                # the runner's op
                return fn(*args)
            entered = perf_counter_ns()
            if self.recorder is not None:
                self.recorder.op_id = len(self.kinds)
            device = self._device
            sim_before = device.stats.elapsed_us if device is not None else 0.0
            self._depth = 1
            start = perf_counter_ns()
            try:
                result = fn(*args)
            finally:
                end = perf_counter_ns()
                self._depth = 0
            self.kinds.append(kind)
            self.start_ns.append(start)
            self.real_ns.append(end - start)
            if device is not None:
                self.sim_us.append(device.stats.elapsed_us - sim_before)
            self._check(kind, args, result)
            self.pre_ns.append(start - entered)
            self.post_ns.append(perf_counter_ns() - end)
            return result

        return timed

    def _check(self, kind: str, args, result) -> None:
        key = args[0]
        if kind == "insert":
            self._present.add(key)
            self.inserted.append(key)
            if self._sorted is not None:
                insort(self._sorted, key)
        elif kind == "lookup":
            # A key whose insert has not run yet (another virtual
            # client's, on the serving path) is correctly absent.
            want = self.expected(key) if key in self._present else None
            if result != want:
                self.failures.append(
                    f"lookup({key}) returned {result}, expected {want}")
        else:
            error = check_scan(key, result, self.scan_length, self.expected,
                               self._sorted)
            if error:
                self.failures.append(error)


def check_scan(key: int, pairs, scan_length: int,
               expected: Callable[[int], int], present) -> Optional[str]:
    """Why a scan result is wrong, or None: it must return exactly the
    ``scan_length`` smallest ``present`` keys (a sorted list) from
    ``key`` on, ascending, with their expected payloads."""
    if not pairs or pairs[0][0] != key:
        return f"scan({key}) does not start at its key"
    keys = [k for k, _ in pairs]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return f"scan({key}) is not strictly ascending"
    if any(p != expected(k) for k, p in pairs):
        return f"scan({key}) returned a wrong payload"
    start = bisect_left(present, key)
    if keys != present[start:start + scan_length]:
        return f"scan({key}) skipped or invented keys"
    return None


def check_contents(index, expected_keys, expected: Callable[[int], int]
                   = paper_payload) -> int:
    """Post-run oracle: the index holds exactly ``expected_keys`` with
    their payloads.  Returns the number of keys that are missing, extra
    or carry a wrong payload."""
    want = set(expected_keys)
    pairs = index.scan_range(min(want), max(want))
    got = [k for k, _ in pairs]
    missing = len(want.difference(got))
    extra = len(got) - len(want.intersection(got))
    wrong = sum(1 for k, p in pairs if p != expected(k))
    return missing + extra + wrong


def check_acknowledged(index, keys, expected: Callable[[int], int]
                       = paper_payload) -> int:
    """Every acknowledged write is readable afterwards: the number of
    ``keys`` whose lookup does not return the expected payload."""
    return sum(1 for key in keys if index.lookup(key) != expected(key))
