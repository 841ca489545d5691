"""The Prometheus text exposition and its matching parser."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.obs.exposition import parse_prometheus, to_prometheus
from repro.service.metrics import (
    COUNTERS,
    FLEET_FIGURES,
    TENANT_FIGURES,
    WORKER_COUNTERS,
    ServiceMetrics,
)

#: ``_golden_metrics().to_prometheus()`` as the commit before the
#: counter table rendered it (hand-written per-section tuples).
GOLDEN = Path(__file__).with_name("golden_exposition.prom")

#: ``json.dumps(_golden_metrics().snapshot(), sort_keys=True, indent=2)``
#: as the commit before the figure tables built the records: the shape
#: the ``stats`` verb serves and the benchmark reads.
GOLDEN_SNAPSHOT = Path(__file__).with_name("golden_snapshot.json")


def _exercised_metrics() -> ServiceMetrics:
    metrics = ServiceMetrics()
    metrics.record_job("submitted", "alice")
    metrics.record_job("submitted", "bob")
    metrics.sample_queue_depth(2)
    metrics.record_window(4_000)
    metrics.record_segment(0, 3_000, 900, tenant="alice")
    metrics.record_segment(1, 1_000, 400, tenant="bob")
    metrics.record_job("completed", "alice")
    metrics.record_job("completed", "bob")
    metrics.record_gateway(batches_ingested=3, tuples_ingested=4_000)
    metrics.record_control(drift_events=1, replans_suppressed=1)
    return metrics


def _golden_metrics() -> ServiceMetrics:
    """A fixed, clock-free scenario: every section non-zero, two
    tenants, two workers."""
    metrics = ServiceMetrics()
    metrics.register_tenant("alice", weight=3.0, slo_delay_tuples=5_000)
    metrics.register_tenant("bob", weight=0.5)
    for tenant in ("alice", "alice", "alice", "bob", "bob", "bob", "bob"):
        metrics.record_job("submitted", tenant)
    metrics.record_job("rejected", "bob")
    metrics.record_job("cancelled", "bob")
    metrics.record_job("failed", "bob")
    for tenant in ("alice", "alice", "alice", "bob", "bob"):
        metrics.record_job("completed", tenant)
    for delay in (0, 4_000, 9_000):
        metrics.record_queue_delay("alice", delay)
    metrics.record_queue_delay("bob", 12_500)
    for depth in (3, 2, 2, 1, 0):
        metrics.sample_queue_depth(depth)
    metrics.record_window(4_000)
    metrics.record_window(2_500)
    metrics.record_late(17)
    metrics.record_segment(0, 3_000, 900, tenant="alice")
    metrics.record_segment(1, 1_000, 400, tenant="bob")
    metrics.record_segment(0, 2_500, 700, tenant="alice")
    metrics.set_rebalances(2)
    metrics.record_gateway(
        connections_opened=5, connections_closed=4, bytes_received=123_456,
        bytes_sent=7_890, batches_ingested=31, tuples_ingested=6_517,
        batches_shed=3, credit_stalls=2, protocol_errors=1)
    for depth in (1, 2, 5):
        metrics.sample_ingest_depth(depth)
    metrics.record_transport(
        shards_shm=13, shard_bytes_shared=104_000, slabs_allocated=2,
        slab_blocks_reused=9, slabs_released=1, shard_retries=6)
    metrics.record_control(
        drift_events=7, replans_applied=3, replans_suppressed=4,
        scale_up_events=1, scale_down_events=2,
        reschedule_stall_cycles=600, plan_age=7,
        tenant="alice")
    metrics.record_control(plan_age=3)
    return metrics


class TestToPrometheus:
    def test_golden_text_is_byte_identical(self):
        """Pins what no sample-level test does: sample order and every
        HELP/TYPE line, across the table-driven and hand-written
        sections alike."""
        text = _golden_metrics().to_prometheus()
        assert text == GOLDEN.read_text(encoding="utf-8")
        # The scenario leaves no fleet-level or flat counter at zero.
        assert " 0\n" not in text.split("repro_tenant_", 1)[0]

    def test_golden_snapshot_is_unchanged(self):
        snapshot = _golden_metrics().snapshot()
        assert json.dumps(snapshot, sort_keys=True, indent=2) + "\n" == \
            GOLDEN_SNAPSHOT.read_text(encoding="utf-8")

    def test_families_are_the_tables_plus_the_hand_written_ones(self):
        text = _golden_metrics().to_prometheus()
        families = {line.split()[2] for line in text.splitlines()
                    if line.startswith("# HELP")}
        declared = (
            {family for family, _, _ in FLEET_FIGURES.values()}
            | {family for family, _, _ in TENANT_FIGURES.values()}
            | {f"worker_{name}_total" for name in WORKER_COUNTERS}
            | {f"{section}_{name}_total"
               for section, names in COUNTERS.items() for name in names})
        summaries = {f"{ring}{suffix}"
                     for ring in ("queue_depth", "gateway_ingest_depth",
                                  "tenant_queue_delay")
                     for suffix in ("", "_peak", "_samples")}
        hand_written = summaries | {
            "jobs_total", "tenant_jobs_total",
            "control_plan_age_windows"}
        assert not declared & hand_written
        assert families == {f"repro_{family}"
                            for family in declared | hand_written}

    def test_parser_accepts_every_line(self):
        samples = parse_prometheus(
            _exercised_metrics().to_prometheus())
        assert samples  # well-formed and non-trivial

    def test_core_counters_surface(self):
        samples = parse_prometheus(
            _exercised_metrics().to_prometheus())
        assert samples[("repro_tuples_windowed_total",
                        frozenset())] == 4_000
        assert samples[("repro_jobs_total",
                        frozenset({("state", "completed")}))] == 2
        assert samples[("repro_gateway_batches_ingested_total",
                        frozenset())] == 3
        assert samples[("repro_control_replans_suppressed_total",
                        frozenset())] == 1

    def test_per_tenant_and_per_worker_labels(self):
        samples = parse_prometheus(
            _exercised_metrics().to_prometheus())
        assert samples[("repro_tenant_tuples_total",
                        frozenset({("tenant", "alice")}))] == 3_000
        assert samples[("repro_worker_cycles_total",
                        frozenset({("worker", "1")}))] == 400

    def test_quantile_summaries(self):
        samples = parse_prometheus(
            _exercised_metrics().to_prometheus())
        key = ("repro_queue_depth", frozenset({("quantile", "0.5")}))
        assert key in samples

    def test_help_and_type_precede_each_family_once(self):
        text = _exercised_metrics().to_prometheus()
        lines = text.splitlines()
        helps = [line.split()[2] for line in lines
                 if line.startswith("# HELP")]
        assert len(helps) == len(set(helps))
        for name in helps:
            assert any(line.startswith(f"# TYPE {name} ")
                       for line in lines)

    def test_label_values_are_escaped(self):
        snapshot = {"tenants": {'we"ird\\tenant': {
            "jobs": {}, "tuples": 1, "cycles": 1, "stall_cycles": 0,
            "weight": 1.0, "slo_attainment": 1.0, "queue_delay": {}}}}
        text = to_prometheus(snapshot)
        assert 'tenant="we\\"ird\\\\tenant"' in text
        samples = parse_prometheus(text)
        tenants = {dict(labels).get("tenant")
                   for (name, labels) in samples
                   if name == "repro_tenant_tuples_total"}
        assert tenants == {'we"ird\\tenant'}

    def test_custom_prefix(self):
        text = to_prometheus(ServiceMetrics().snapshot(),
                             prefix="ditto")
        assert text.startswith("# HELP ditto_")


class TestParsePrometheus:
    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not a sample\n")

    def test_skips_comments_and_blanks(self):
        assert parse_prometheus("# HELP x y\n\n# TYPE x gauge\n") == {}

    def test_parses_unlabelled_and_labelled(self):
        samples = parse_prometheus(
            'a_total 5\nb{x="1",y="two"} 2.5\n')
        assert samples[("a_total", frozenset())] == 5.0
        assert samples[("b", frozenset({("x", "1"),
                                        ("y", "two")}))] == 2.5

    @pytest.mark.parametrize("tenant", [
        "x}y",              # ended the label set at the first "}"
        'a"b\\c',            # came back still escaped
        "line\nbreak",      # the third escape
        "back\\nslash",     # an escaped backslash followed by "n"
        "cr\rlf\u2028sep",   # str.splitlines cut the sample here
        '{k="v",q="w"} 7',  # looks like a label set and a value
    ])
    def test_quoted_label_values_round_trip(self, tenant):
        metrics = ServiceMetrics()
        metrics.record_segment(0, 10, 5, tenant=tenant)
        samples = parse_prometheus(metrics.to_prometheus())
        assert samples[("repro_tenant_tuples_total",
                        frozenset({("tenant", tenant)}))] == 10

    @given(tenants=st.lists(st.text(), min_size=1, max_size=4,
                            unique=True))
    def test_any_text_tenant_id_round_trips(self, tenants):
        """Tenant ids arrive unvalidated from ``hello`` messages: for
        arbitrary text, the parser returns the tenant label equal to
        the id."""
        metrics = ServiceMetrics()
        for index, tenant in enumerate(tenants, start=1):
            metrics.record_segment(0, index, 1, tenant=tenant)
        samples = parse_prometheus(to_prometheus(metrics.snapshot()))
        parsed = {dict(labels)["tenant"]: value
                  for (name, labels), value in samples.items()
                  if name == "repro_tenant_tuples_total"}
        assert parsed == {tenant: index for index, tenant
                          in enumerate(tenants, start=1)}


class TestImportOrder:
    """The counter table lives in ``repro.service.metrics`` and
    ``to_prometheus`` reads it: a module-level import there closes
    ``control.controller -> obs -> exposition -> service -> server ->
    control.controller``, which only shows in a fresh interpreter."""

    @pytest.mark.parametrize("module", [
        "repro.control", "repro.obs", "repro.obs.exposition",
        "repro.service", "repro.service.metrics", "repro.net",
        "repro.cli",
    ])
    def test_module_imports_first_in_a_fresh_interpreter(self, module):
        # The tree under test, wherever pytest was started from.
        source = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env={**os.environ, "PYTHONPATH": source},
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
