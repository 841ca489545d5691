"""Model-validation bench: cycle engine vs epoch model, as an artifact.

EXPERIMENTS.md cites the model-vs-cycle agreement as the licence for
running the paper-scale sweeps on the models; this bench materialises
the comparison table (and the windowed rates of one skewed run)
into ``benchmarks/results/``.
"""


from repro.analysis.figures import render_series
from repro.analysis.tables import Table
from repro.apps.histo import HistogramKernel
from repro.core.config import ArchitectureConfig
from repro.perf.epoch import EpochModel
from repro.perf.validate import compare_cycle_vs_model
from repro.workloads.zipf import ZipfGenerator

POINTS = [
    (0.0, 0), (1.0, 0), (1.5, 0), (2.0, 0), (3.0, 0),
    (2.0, 4), (3.0, 4), (2.0, 8), (3.0, 8), (3.0, 15),
]


def _validate_all():
    rows = []
    for alpha, secpes in POINTS:
        kernel = HistogramKernel(bins=512, pripes=16)
        config = ArchitectureConfig(secpes=secpes,
                                    reschedule_threshold=0.0)
        batch = ZipfGenerator(alpha=alpha, seed=5).generate(30_000)
        point = compare_cycle_vs_model(kernel, batch, config)
        rows.append((alpha, point))
    return rows


def test_validation_table(benchmark, emit):
    rows = benchmark.pedantic(_validate_all, rounds=1, iterations=1)

    table = Table(
        ["alpha", "impl", "cycle t/c", "model t/c", "rel err"],
        title="Model validation: cycle-level engine vs epoch model "
              "(HISTO, 30k tuples)",
    )
    for alpha, point in rows:
        table.add_row([
            alpha, point.label,
            f"{point.cycle_tpc:.3f}", f"{point.model_tpc:.3f}",
            f"{point.relative_error:.1%}",
        ])
    worst = max(point.relative_error for _, point in rows)
    emit("validation_cycle_vs_model",
         table.render() + f"\nworst relative error: {worst:.1%}")

    for alpha, point in rows:
        bound = 0.10 if point.label == "16P" else 0.25
        assert point.relative_error < bound, (alpha, point.label)


def test_validation_rate_trace(benchmark, emit):
    """The epoch model's windowed rates show the plan kicking in: low
    unaided rate during profiling, then the planned rate."""
    def measure():
        kernel = HistogramKernel(bins=512, pripes=16)
        config = ArchitectureConfig(secpes=15, reschedule_threshold=0.0)
        batch = ZipfGenerator(alpha=3.0, seed=5).generate(60_000)
        model = EpochModel(config, window_tuples=2_048)
        return model.run(kernel.route_array(batch.keys))

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    rates = result.window_rates
    text = render_series([str(i) for i in range(len(rates))],
                         {"t/c": rates},
                         title="Windowed throughput per 2048-tuple window",
                         value_format="{:.2f}")
    emit("validation_rate_trace", text)
    # The trace must show the transition: channels absorb the first
    # burst at full bandwidth, then a throttled window while the hot
    # channel is full and the profiler still owns the pipeline, then
    # the planned rate.  The dip is the observable.
    early_dip = min(result.window_rates[:5])
    assert early_dip < 0.25 * result.window_rates[-1]
