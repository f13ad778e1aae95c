"""Structured telemetry (qlog-style) for the whole transport stack.

* :mod:`repro.obs.events` — event taxonomy and the :class:`Tracer`
  (the one trace handle every stack emits into);
* :mod:`repro.obs.export` — qlog JSON / JSONL / CSV exporters;
* :mod:`repro.obs.summary` — per-path counters, scheduler histogram
  and handover timeline, plus the plain-text report renderer.

``python -m repro.obs report trace.jsonl`` prints the per-path summary
of an exported trace.
"""

from repro.obs.events import (
    CAT_CC,
    CAT_FLOWCONTROL,
    CAT_METRICS,
    CAT_PATH,
    CAT_RECOVERY,
    CAT_SCHEDULER,
    CAT_TRANSPORT,
    Event,
    Tracer,
)
from repro.obs.export import (
    read_jsonl,
    to_qlog,
    write_csv_series,
    write_jsonl,
    write_qlog_json,
)
from repro.obs.summary import TraceSummary, format_report, summarize

__all__ = [
    "CAT_CC",
    "CAT_FLOWCONTROL",
    "CAT_METRICS",
    "CAT_PATH",
    "CAT_RECOVERY",
    "CAT_SCHEDULER",
    "CAT_TRANSPORT",
    "Event",
    "Tracer",
    "TraceSummary",
    "format_report",
    "read_jsonl",
    "summarize",
    "to_qlog",
    "write_csv_series",
    "write_jsonl",
    "write_qlog_json",
]
