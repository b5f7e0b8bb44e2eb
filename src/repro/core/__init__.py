"""Pictor's core: the performance-analysis framework and top-level API.

This package implements the paper's primary contribution on the
measurement side (Section 3.2):

* :mod:`repro.core.hooks` — the ten API hook points that intercept
  GL/X/proxy calls without modifying applications (Figure 4, Table 1),
  and the registry that counts their fires and prices each one in CPU
  time;
* :mod:`repro.core.tags` / :mod:`repro.core.tracker` — tag-based input
  tracking that associates every user input with its response frame and
  measures every pipeline stage along the way;
* :mod:`repro.core.gpu_timer` — GPU time queries with the double-buffer
  scheme that keeps measurement overhead low;
* :mod:`repro.core.pmu` — CPU Top-Down and GPU cache-counter readers
  (the PAPI / GPA / NSight analogues);
* :mod:`repro.core.monitors` — FPS counters and system-level resource
  monitors;
* :mod:`repro.core.measurements` / :mod:`repro.core.reporting` —
  distribution statistics and report formatting;
* :mod:`repro.core.pictor` — the top-level :class:`Pictor` facade that
  assembles all of the above for a testbed run.
"""

from repro.core.hooks import HookPoint, HookRegistry
from repro.core.tags import InputRecord, TagGenerator
from repro.core.tracker import InputTracker
from repro.core.gpu_timer import GpuTimeQueryManager
from repro.core.pmu import CpuPmuReader, GpuPmuReader
from repro.core.monitors import FpsCounter, ResourceMonitor
from repro.core.measurements import LatencyStats, percentage_error, summarize
from repro.core.pictor import PerformanceReport, Pictor, PictorConfig

__all__ = [
    "CpuPmuReader",
    "FpsCounter",
    "GpuPmuReader",
    "GpuTimeQueryManager",
    "HookPoint",
    "HookRegistry",
    "InputRecord",
    "InputTracker",
    "LatencyStats",
    "PerformanceReport",
    "Pictor",
    "PictorConfig",
    "ResourceMonitor",
    "TagGenerator",
    "percentage_error",
    "summarize",
]
