"""Exporters for :class:`~repro.pipeline.metrics.PipelineMetrics` snapshots.

Two surfaces, both stdlib-only:

- :func:`prometheus_text` renders a snapshot dict (the shape returned
  by ``PipelineMetrics.snapshot()`` / ``Kepler.metrics_live()``) in
  the Prometheus text exposition format.  Histograms are rendered as
  Prometheus *summaries* (``quantile`` labels + ``_count``/``_sum``),
  which is the honest encoding for client-side quantiles.
- :class:`MetricsEndpoint` serves live snapshots over HTTP from a
  daemon thread (``/metrics`` Prometheus text, ``/metrics.json`` raw
  snapshot, ``/trace`` Chrome trace-event JSON when a journal source
  is provided).
"""

from __future__ import annotations

import io
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(*parts: str) -> str:
    return "_".join(_NAME_RE.sub("_", part) for part in parts if part)


def _fmt(value: float | int | bool) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def prometheus_text(snapshot: dict, prefix: str = "repro") -> str:
    """Render a metrics snapshot in Prometheus text exposition format."""
    out = io.StringIO()

    def emit(name: str, value, labels: dict | None = None) -> None:
        if labels:
            rendered = ",".join(
                f'{_NAME_RE.sub("_", k)}="{v}"' for k, v in labels.items()
            )
            out.write(f"{name}{{{rendered}}} {_fmt(value)}\n")
        else:
            out.write(f"{name} {_fmt(value)}\n")

    for stage in snapshot.get("stages", []):
        labels = {"stage": stage.get("name", "")}
        for key in ("fed", "emitted", "batches"):
            if key in stage:
                emit(
                    _metric_name(prefix, "stage", key, "total"),
                    stage[key],
                    labels,
                )
        if "seconds" in stage:
            emit(
                _metric_name(prefix, "stage", "seconds", "total"),
                stage["seconds"],
                labels,
            )

    bins = snapshot.get("bins", {})
    if bins:
        emit(_metric_name(prefix, "bins_closed_total"), bins.get("bins_closed", 0))
        for key in ("mean_latency_s", "max_latency_s"):
            if key in bins:
                emit(_metric_name(prefix, "bin", key), bins[key])
        for key in ("baseline_entries", "pending_entries"):
            if key in bins:
                emit(_metric_name(prefix, "bin", key), bins[key])

    for name, value in snapshot.get("gauges", {}).items():
        emit(_metric_name(prefix, "gauge"), value, {"name": name})

    for name, doc in snapshot.get("hists", {}).items():
        base = _metric_name(prefix, "hist", name)
        count = doc.get("count", 0)
        emit(f"{base}_count", count)
        if count:
            emit(f"{base}_sum", doc.get("mean", 0.0) * count)
            for q_key, q_label in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
                if q_key in doc:
                    emit(base, doc[q_key], {"quantile": q_label})

    for name, depth in snapshot.get("depths", {}).items():
        emit(_metric_name(prefix, "depth"), depth, {"edge": name})

    return out.getvalue()


class MetricsEndpoint:
    """Optional HTTP endpoint serving live metrics from a daemon thread.

    ``source`` is any zero-arg callable returning a snapshot dict —
    typically ``kepler.metrics_live`` — sampled per request, so the
    endpoint observes a *running* pipeline without a drain barrier.
    ``trace_source`` (optional) returns a ``TraceJournal`` for
    ``/trace``.
    """

    def __init__(
        self,
        source: Callable[[], dict],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        trace_source: Callable[[], object] | None = None,
        prefix: str = "repro",
    ) -> None:
        endpoint = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib API
                try:
                    if self.path.startswith("/metrics.json"):
                        body = json.dumps(endpoint.source(), sort_keys=True)
                        ctype = "application/json"
                    elif self.path.startswith("/metrics"):
                        body = prometheus_text(
                            endpoint.source(), prefix=endpoint.prefix
                        )
                        ctype = "text/plain; version=0.0.4"
                    elif self.path.startswith("/trace") and endpoint.trace_source:
                        body = endpoint.trace_source().to_chrome_trace()
                        ctype = "application/json"
                    else:
                        self.send_error(404)
                        return
                except Exception as exc:  # surface, don't kill the server
                    self.send_error(500, str(exc))
                    return
                payload = body.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args) -> None:  # silence stderr spam
                pass

        self.source = source
        self.trace_source = trace_source
        self.prefix = prefix
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-endpoint",
            daemon=True,
        )

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "MetricsEndpoint":
        self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsEndpoint":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
