"""Prometheus text exposition of :class:`ServiceMetrics` snapshots.

:func:`to_prometheus` flattens the nested snapshot dict into the
Prometheus text format (version 0.0.4): one ``# HELP``/``# TYPE`` pair
per metric family, label sets for per-tenant / per-worker / quantile
series, and plain ``name{labels} value`` sample lines.  External
scrapers reach it through the gateway's ``stats`` wire verb
(:mod:`repro.net.protocol`) or ``ServiceMetrics.to_prometheus()``
directly.

:func:`parse_prometheus` is the matching line-format parser — used by
the test suite to assert the exposition is well-formed, and by
:class:`~repro.net.client.StreamClient` consumers that want samples as
a dict instead of text.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Tuple

#: Prometheus metric/label name rule.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: One sample line: name, optional {labels}, value.  A quoted label
#: value may hold ``}``: the set ends at the first one outside quotes.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^"}]|"(?:[^"\\]|\\.)*")*)\})?'
    r"\s+(?P<value>[^\s]+)\s*$")

_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _unescape_label(value: str) -> str:
    """Inverse of :func:`_escape_label`, in one pass: chained ``replace``
    calls would read an escaped backslash's tail as a newline's head."""
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], value)


class _Exposition:
    """Accumulates families and samples in exposition order."""

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self.lines: List[str] = []
        self._seen: set = set()

    def family(self, name: str, help_text: str, kind: str) -> str:
        full = f"{self.prefix}_{name}"
        if not _NAME_RE.match(full):
            raise ValueError(f"bad metric name {full!r}")
        if full not in self._seen:
            self._seen.add(full)
            self.lines.append(f"# HELP {full} {help_text}")
            self.lines.append(f"# TYPE {full} {kind}")
        return full

    def sample(self, name: str, help_text: str, kind: str, value: Any,
               labels: Dict[str, Any] = None) -> None:
        full = self.family(name, help_text, kind)
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label(val)}"'
                for key, val in labels.items())
            self.lines.append(f"{full}{{{rendered}}} {_format(value)}")
        else:
            self.lines.append(f"{full} {_format(value)}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _format(value: Any) -> str:
    number = float(value)
    if number.is_integer() and abs(number) < 2 ** 53:
        return str(int(number))
    return repr(number)


def _quantiles(exp: _Exposition, name: str, help_text: str,
               section: Dict[str, Any],
               labels: Dict[str, Any] = None) -> None:
    """A p50/p95 summary section as quantile-labelled samples."""
    for quantile, key in (("0.5", "p50"), ("0.95", "p95")):
        exp.sample(name, help_text, "summary", section.get(key, 0.0),
                   {**(labels or {}), "quantile": quantile})
    exp.sample(f"{name}_peak", f"Peak of {help_text}", "gauge",
               section.get("peak", 0), labels)
    exp.sample(f"{name}_samples", f"Retained samples of {help_text}",
               "gauge", section.get("samples", 0), labels)


def _figures(exp: _Exposition, figures: Dict[str, Tuple[str, str, str]],
             values: Dict[str, Any], labels: Dict[str, Any] = None) -> None:
    """One sample per declared ``key -> (family, type, help)``, in order."""
    for key, (family, kind, help_text) in figures.items():
        exp.sample(family, help_text, kind, values.get(key, 0), labels)


def _counters(exp: _Exposition, prefix: str, counters: Dict[str, str],
              values: Dict[str, Any], labels: Dict[str, Any] = None) -> None:
    """One ``<prefix>_<name>_total`` counter per declared ``name -> help``."""
    for name, help_text in counters.items():
        exp.sample(f"{prefix}_{name}_total", help_text, "counter",
                   values.get(name, 0), labels)


def to_prometheus(snapshot: Dict[str, Any], prefix: str = "repro") -> str:
    """Render one :meth:`ServiceMetrics.snapshot` dict as Prometheus text.

    Every figure declared in :mod:`repro.service.metrics`' tables
    appears as a sample; dict sections keyed by tenant / worker become
    label dimensions, and p50/p95 ring-buffer sections become
    ``quantile``-labelled summary samples.
    """
    # Function-level (service imports obs, not the reverse): at module
    # level this closes the cycle control.controller -> obs ->
    # exposition -> service -> server -> control.controller.
    from repro.service.metrics import (
        COUNTERS,
        FLEET_FIGURES,
        JOB_STATES,
        TENANT_FIGURES,
        TENANT_JOB_STATES,
        WORKER_COUNTERS,
    )

    exp = _Exposition(prefix)
    jobs = snapshot.get("jobs", {})
    for state in JOB_STATES:
        exp.sample("jobs_total", "Jobs by terminal/ingress state",
                   "counter", jobs.get(state, 0), {"state": state})
    _figures(exp, FLEET_FIGURES, snapshot)
    _quantiles(exp, "queue_depth", "Job-queue depth",
               snapshot.get("queue_depth", {}))
    for worker_id, stats in sorted(snapshot.get("workers", {}).items()):
        _counters(exp, "worker", WORKER_COUNTERS, stats,
                  {"worker": worker_id})
    gateway = snapshot.get("gateway", {})
    _counters(exp, "gateway", COUNTERS["gateway"], gateway)
    _quantiles(exp, "gateway_ingest_depth",
               "Per-tenant buffered-batch depth",
               gateway.get("ingest_depth", {}))
    _counters(exp, "transport", COUNTERS["transport"],
              snapshot.get("transport", {}))
    control = snapshot.get("control", {})
    _counters(exp, "control", COUNTERS["control"], control)
    exp.sample("control_plan_age_windows",
               "Median windows a retired plan served", "gauge",
               control.get("plan_age_p50", 0.0))

    for tenant_id, stats in sorted(snapshot.get("tenants", {}).items()):
        labels = {"tenant": tenant_id}
        for state in TENANT_JOB_STATES:
            exp.sample("tenant_jobs_total", "Per-tenant jobs by state",
                       "counter", stats.get("jobs", {}).get(state, 0),
                       {**labels, "state": state})
        _figures(exp, TENANT_FIGURES, stats, labels)
        _quantiles(exp, "tenant_queue_delay",
                   "Queue delay in dispatch-clock tuples",
                   stats.get("queue_delay", {}), labels)
    return exp.render()


def parse_prometheus(text: str) -> Dict[Tuple[str, frozenset], float]:
    """Parse exposition text into ``{(name, labels): value}``.

    ``labels`` is a frozenset of ``(key, value)`` pairs.  Raises
    ``ValueError`` on any line that is neither a comment, blank, nor a
    well-formed sample — which is exactly the acceptance check the
    tests run against :func:`to_prometheus` output.
    """
    samples: Dict[Tuple[str, frozenset], float] = {}
    # Lines end at "\n" only: str.splitlines would also cut at "\r",
    # U+2028 and friends, which a quoted label value may contain.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno} is not a valid sample: "
                             f"{line!r}")
        labels = frozenset(
            (m["key"], _unescape_label(m["value"]))
            for m in _LABEL_RE.finditer(match["labels"] or ""))
        samples[(match["name"], labels)] = float(match["value"])
    return samples
