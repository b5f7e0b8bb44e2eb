"""Per-layer CPU attribution of a traced run: the fold rule.

A traced run profiles the workload with :mod:`cProfile`, timed by
per-thread CPU (``time.thread_time``) so that a thread blocked in
``recv`` costs nothing, on the calling thread and on every thread
started while the trace is on (the in-process queue server's accept,
sweeper and connection threads).  :func:`fold` then maps every profiled
function to one layer:

* A function defined under ``repro/<package>/`` belongs to layer
  ``<package>``, with three splits: ``repro/sim/randomness.py`` is
  ``sim.randomness`` and every other ``repro/sim`` module is
  ``sim.kernel`` (engine, resources, bus, heaps, and the rarely hit
  trace/fast-forward modules); ``repro/experiments/<m>.py`` is
  ``experiments.<m>`` for ``m`` in protocol, socket_queue, server,
  queue, store and jobs, and ``experiments.other`` for the rest
  (executor, worker, cost, ...).  Other ``repro`` code (fleet,
  optimizations, the package root) is ``other``.
* A function defined in numpy, or a builtin whose name names numpy
  (``<method 'normal' of 'numpy.random._generator.Generator' objects>``),
  is ``numpy``.  Calling a ufunc is not a profiled call, so ufunc time
  stays with its caller.
* Any other function (the standard library, C builtins such as
  ``sqlite3`` or ``socket`` methods, ``pickle``) has no layer of its
  own: its self time is split over its callers in proportion to the
  self time each caller's calls accrued, recursively until a caller
  with a layer is reached.  Time with no such caller (the benchmark's
  own code, thread bootstrap) is ``other``.

``<layer>.calls`` counts calls to functions defined in the layer's own
modules only; folded library calls add time, not calls.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import threading
import time
from collections import defaultdict

#: Every layer a traced run reports, in report order.
LAYERS = (
    "sim.kernel", "sim.randomness", "hardware", "graphics", "server",
    "client", "network", "apps", "core", "agents", "scenarios", "numpy",
    "experiments.protocol", "experiments.socket_queue", "experiments.server",
    "experiments.queue", "experiments.store", "experiments.jobs",
    "experiments.other", "other",
)

_PACKAGES = frozenset({"hardware", "graphics", "server", "client", "network",
                       "apps", "core", "agents", "scenarios"})
_EXPERIMENTS_SPLIT = frozenset({"protocol", "socket_queue", "server", "queue",
                                "store", "jobs"})
_EXCLUDED = "excluded"


def module_layer(filename: str, funcname: str, repro_dir: str, numpy_dir: str):
    """The layer owning a profiled function, or None when it folds into its
    callers.  ``repro_dir`` / ``numpy_dir`` are the package directories
    with a trailing separator."""
    if filename.startswith(repro_dir):
        parts = filename[len(repro_dir):].split(os.sep)
        package = parts[0]
        module = parts[-1].removesuffix(".py")
        if package == "sim":
            return "sim.randomness" if module == "randomness" else "sim.kernel"
        if package == "experiments":
            if len(parts) == 2 and module in _EXPERIMENTS_SPLIT:
                return f"experiments.{module}"
            return "experiments.other"
        return package if package in _PACKAGES else "other"
    if filename.startswith(numpy_dir) or (filename == "~" and "numpy" in funcname):
        return "numpy"
    return None


def fold(stats: dict, repro_dir: str, numpy_dir: str, exclude=frozenset()):
    """``(self seconds, calls)`` per layer from pstats-style ``stats``
    (``{func: (cc, nc, tt, ct, callers)}``, ``callers[c] = (nc, cc, tt, ct)``).

    Functions in ``exclude`` are the measurement's own instruments: their
    time, and library time folded into them, is left out of every layer.
    """
    owner = {func: _EXCLUDED if func in exclude
             else module_layer(func[0], func[2], repro_dir, numpy_dir)
             for func in stats}
    memo: dict = {}

    def shares(func, path: frozenset) -> tuple[dict, bool]:
        """(layer -> fraction, whether a call cycle cut the search short).
        An empty mapping means no caller outside ``path`` leads to a layer."""
        if owner.get(func) is not None:
            return {owner[func]: 1.0}, False
        if func in memo:
            return memo[func], False
        inner = path | {func}
        callers = stats[func][4] if func in stats else {}
        edges = [(caller, edge) for caller, edge in callers.items() if caller not in inner]
        # Self-recursion changes no split; only a cycle through ``path`` does.
        cut = any(caller in path for caller in callers)
        # Split by the self time each caller's calls took; by call count
        # when the timer saw none.
        by_time = any(edge[2] > 0 for _, edge in edges)
        result: dict[str, float] = defaultdict(float)
        total = 0.0
        for caller, edge in edges:
            weight = edge[2] if by_time else float(edge[0])
            part, caller_cut = shares(caller, inner)
            cut = cut or caller_cut
            if part and weight > 0:
                total += weight
                for layer, fraction in part.items():
                    result[layer] += fraction * weight
        result = {layer: value / total for layer, value in result.items()} if total else {}
        if not cut:
            memo[func] = result
        return result, cut

    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for layer, part in (shares(func, frozenset())[0] or {"other": 1.0}).items():
            seconds[layer] += tt * part
        if owner[func] is not None:
            calls[owner[func]] += nc
    seconds.pop(_EXCLUDED, None)
    calls.pop(_EXCLUDED, None)
    return dict(seconds), dict(calls)


def package_dir(module) -> str:
    return os.path.dirname(os.path.abspath(module.__file__)) + os.sep


def label(function) -> tuple:
    """The key cProfile files a Python function under."""
    code = function.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


class TracedRegion:
    """cProfile the calling thread, and every thread started inside the
    region, by per-thread CPU time.

    ``threading.setprofile`` installs :meth:`_adopt` in each new thread;
    its first profile event replaces it with a fresh profiler of that
    thread's own.  :meth:`stats` merges them all once the threads ended.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._adopted: list[tuple[threading.Thread, cProfile.Profile]] = []
        self._main = cProfile.Profile(time.thread_time)

    def _adopt(self, frame, event, arg) -> None:
        profile = cProfile.Profile(time.thread_time)
        with self._lock:
            self._adopted.append((threading.current_thread(), profile))
        profile.enable()

    def __enter__(self) -> "TracedRegion":
        threading.setprofile(self._adopt)
        self._main.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self._main.disable()
        threading.setprofile(None)

    def stats(self, join_timeout_s: float = 10.0) -> dict:
        """The merged pstats-style stats of every profiled thread."""
        merged: dict = {}
        profiles = [self._main]
        for thread, profile in self._adopted:
            thread.join(join_timeout_s)
            if thread.is_alive():
                raise RuntimeError(f"traced thread {thread.name} did not end")
            profiles.append(profile)
        for profile in profiles:
            profile.create_stats()
            for func, stat in profile.stats.items():
                merged[func] = pstats.add_func_stats(
                    merged.get(func, (0, 0, 0, 0, {})), stat)
        return merged
