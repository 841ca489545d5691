"""Self-tests of the benchmark: run by path, outside tier-1.

    python -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from collections import defaultdict

import pytest

from bench import RESULTS, ROOT, compare, harness, load_spec
from bench.workloads import QUICK_FACTOR, WORKLOADS

SPEC = load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "bench", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One ``--quick`` pass over all seven workloads, both passes."""
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    before = harness.host_kernel()
    start = time.perf_counter()
    done = bench("--quick", "--json", str(out))
    elapsed = time.perf_counter() - start
    # In quiet-reference-host seconds, like every timing of the package.
    elapsed /= harness.slowdown(before, harness.host_kernel())
    assert done.returncode == 0, done.stdout + done.stderr
    return {"elapsed": elapsed, "stdout": done.stdout, "path": out,
            "results": json.loads(out.read_text())}


# ----------------------------------------------------------------------
# BENCHMARK.json against the driver's contract
# ----------------------------------------------------------------------
def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 8) < 3420


def test_workloads_match_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


# ----------------------------------------------------------------------
# The quick pass
# ----------------------------------------------------------------------
def test_quick_is_quick(quick):
    assert quick["elapsed"] < 25, quick["elapsed"]


def test_every_metric_is_reported_with_a_unit(quick):
    printed = defaultdict(dict)
    for line in quick["stdout"].splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in WORKLOADS:
            float(parts[2])
            assert UNIT.match(parts[3]), line
            printed[parts[0]][parts[1]] = parts[3]
    wanted = {m["name"]: m["unit"]
              for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for workload in WORKLOADS:
        for name, unit in wanted.items():
            assert printed[workload].get(name) == unit, (workload, name)
        assert "failed_share" in printed[workload]


def test_results_are_correct_and_leak_free(quick):
    for name, result in quick["results"]["workloads"].items():
        assert result["correct"], name
        assert result["end_to_end"]["failed_share"]["value"] == 0, name
        for kind in ("threads", "children", "shm"):
            assert result["per_layer"][f"harness.leaked_{kind}"] == 0, name
        assert all(stats["value"] > 0
                   for metric, stats in result["end_to_end"].items()
                   if metric != "failed_share"), name
    results = quick["results"]["workloads"]
    assert results["procshm_histo"]["result_digest"] == \
        results["histo_zipf_inline"]["result_digest"]


def test_layers_only_show_where_they_run(quick):
    layers = {name: result["per_layer"]
              for name, result in quick["results"]["workloads"].items()}
    assert layers["wire_histo"]["batch_send_ms_p50"] > 0
    assert layers["wire_histo"]["net.gateway.batches"] > 0
    assert layers["histo_zipf_inline"]["net.gateway.batches"] == 0
    assert layers["procshm_histo"]["service.shm.bytes_shared"] > 0
    assert layers["histo_zipf_inline"]["service.shm.bytes_shared"] == 0
    assert layers["tenant_mix_small_jobs"]["control.on_window_s"] > 0
    assert layers["hhd_bykey"]["control.on_window_s"] == 0
    assert layers["cycle_sim_paper"]["sim.cycles"] > 0
    assert layers["cycle_sim_paper"]["service.server.serial_sum_s"] == 0
    for name in ("histo_zipf_inline", "histo_uniform_bigwin", "hhd_bykey",
                 "wire_histo", "procshm_histo", "tenant_mix_small_jobs"):
        assert layers[name]["harness.replay_attributed_share"] >= 0.9, name
        assert layers[name]["service.windows.late_tuples"] == 0, name


def test_span_trees_are_well_formed(quick):
    for name, workload in WORKLOADS.items():
        spans = [json.loads(line) for line in
                 (RESULTS / f"trace_{name}.jsonl").read_text().splitlines()]
        by_id = {(span["view"], span["id"]): span for span in spans}
        jobs = {job.job_id
                for job in workload.generate(11, QUICK_FACTOR).jobs}
        seen = set()
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["self_s"] >= -1e-9, span
            if span["job"] is not None:
                # The gateway suffixes the repetition: <job>-r<n>.
                job = re.sub(r"-r\d+$", "", span["job"])
                assert job in jobs, span
                seen.add(job)
            if span["parent"] >= 0:
                parent = by_id[span["view"], span["parent"]]
                assert parent["thread"] == span["thread"]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
                if parent["job"] is not None:
                    assert span["job"] == parent["job"], span
        if workload.replayable:
            assert seen == jobs, name


def test_wrappers_are_removed():
    from bench.tracing import SpanRecorder

    recorder = SpanRecorder("test")
    targets = [(owner, attr) for owner, attr, _, _ in recorder._targets()]
    before = [vars(owner)[attr] for owner, attr in targets]
    with recorder.installed():
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(targets, before))
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(targets, before))
    assert not recorder._saved


# ----------------------------------------------------------------------
# Seeds, the contract line, the bare directory
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["histo_zipf_inline", "hhd_bykey",
                                  "tenant_mix_small_jobs"])
def test_another_seed_gives_other_inputs_and_still_checks(name):
    first = WORKLOADS[name].generate(11, QUICK_FACTOR).jobs[0].batch.keys
    other = WORKLOADS[name].generate(12, QUICK_FACTOR).jobs[0].batch.keys
    assert (first != other).any()
    done = bench("--workload", name, "--trace", "0", "--quick",
                 "--seed", "12")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"} and metric["value"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = bench("--workload", "histo_zipf_inline", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_compare_accepts_equal_sets_and_flags_regressions(quick, tmp_path,
                                                          capsys):
    same = str(quick["path"])
    assert compare.main([same, same]) == 0
    assert "MISMATCH" not in capsys.readouterr().out

    worse = json.loads(quick["path"].read_text())
    inline = worse["workloads"]["histo_zipf_inline"]
    for key in ("value", "q1", "q3"):
        inline["end_to_end"]["tuples_per_s"][key] *= 0.5
    inline["end_to_end"]["sim_tuples_per_cycle"]["value"] *= 1.01
    worse["workloads"]["hhd_bykey"]["end_to_end"]["failed_share"][
        "value"] = 0.5
    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worse))
    assert compare.main([same, str(path)]) == 1
    out = capsys.readouterr().out
    verdicts = {tuple(line.split()[:2]): line.split()[-1]
                for line in out.splitlines()}
    assert verdicts["histo_zipf_inline", "tuples_per_s"] == "REGRESSION"
    assert verdicts["histo_zipf_inline", "sim_tuples_per_cycle"] == "MISMATCH"
    assert verdicts["hhd_bykey", "failed_share"] == "REGRESSION"
    assert verdicts["wire_histo", "tuples_per_s"] == "ok"
    assert compare.main([same, str(path), "--report-only"]) == 0
