"""The benchmark's hooks and checks still fit the package.

`perfbench/spans.py` wraps public functions and the `SampledCurve`
constructors from outside, by name and by argument position.  This test
loads that file as it is, installs its tracer, runs a small density and
index check through the wrapped functions and checks that the curve spans
and counts were recorded and that uninstalling puts the originals back.

`perfbench/workloads.py` checks every benchmark output, and a report whose
shape it no longer reads would show up only as a failed benchmark run.  So
its own checks run here, as the file is, on the reports of the trace
formula and the r -> 1 probe and on the total-variation anchors of the
density sweep: every ratio of an error to its tolerance must stay below 1,
and no check may raise.  The anchors call `hh_density(..., refine=True)`, so
this also fails if that keyword goes before the benchmark stops passing it.
"""

from hhmeasure import FourierSymbol, measure
from hhmeasure.cli import main
from hhmeasure.degree import GridSpec, SampledCurve

from conftest import load_perfbench


def test_tracer_records_curve_spans():
    spans = load_perfbench("spans")
    from_symbol = SampledCurve.__dict__["from_symbol"]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        sym = FourierSymbol({1: 1.0})
        density = measure.hh_density(sym, 1.0, GridSpec(-1.5, 1.5, -1.5, 1.5, 40, 40))
        wind, _, ok = measure.index_check(sym, 0.1 + 0.2j, 1.0, density=density)
    finally:
        uninstall()
    assert wind == 1 and ok
    names = [span[0] for span in tracer.spans]
    assert "degree.curve" in names and "measure.index_check" in names
    assert tracer.counts["degree.curve_points"] > 0
    assert "degree.curve_capped" not in tracer.counts
    assert SampledCurve.__dict__["from_symbol"] is from_symbol


def test_trace_formula_job_passes_its_check(tmp_path):
    workloads = load_perfbench("workloads")
    job, = [j for j in workloads.operator_jobs(3, tmp_path) if j.name == "trace-formula-shift"]
    ratios = job.check(job.run())
    assert len(ratios) == 3 and max(ratios) < 1


def test_cli_reports_pass_their_checks(tmp_path):
    workloads = load_perfbench("workloads")
    shift = workloads.write_symbol(tmp_path / "shift.json", workloads.SHIFT)
    box = "--grid=-1.5,1.5,-1.5,1.5,100,100"
    runs = [(["trace-check", "--p", "x", "--q", "y", box], workloads._check_trace(-0.5j), 3),
            (["smooth-limit", box], workloads._check_smooth_limit, 0)]
    for argv, check, count in runs:
        out = tmp_path / f"{argv[0]}.json"
        assert main(argv + ["--symbol", shift, "--out", str(out)]) == 0
        ratios = check(out.read_bytes())
        assert len(ratios) == count and all(ratio < 1 for ratio in ratios)


def test_density_anchor_jobs_pass_their_checks(tmp_path):
    workloads = load_perfbench("workloads")
    names = [f"density-anchor{i}-400" for i in range(3)]
    jobs = [j for j in workloads.density_jobs(3, tmp_path) if j.name in names]
    assert [j.name for j in jobs] == names
    for job in jobs:
        ratios = job.check(job.run())
        assert len(ratios) == 1 and ratios[0] < 1
