"""Tests of the benchmark itself: tracing, output checks, workload shape, names.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""
import dataclasses
import json
import re
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from dqubit import cli, dynamics, ramsey, scatter, serialize, tomography  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACED_MODULES = (cli, dynamics, ramsey, scatter, serialize, tomography)


def module_functions():
    return {(m.__name__, k): v for m in TRACED_MODULES for k, v in vars(m).items() if callable(v)}


def run_worker(tmp_path, monkeypatch, workload, trace):
    """One in-process worker round; returns its result record."""
    monkeypatch.chdir(tmp_path)  # the worker changes directory; restore it afterwards
    out = tmp_path / "result.json"
    work = tmp_path / "work"
    work.mkdir()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    paths = ["--workdir", str(work), "--result", str(out), "--spans", str(tmp_path / "spans.jsonl")]
    assert worker.main(argv + paths) == 0
    return json.loads(out.read_text())


def test_wrappers_restore_the_original_functions():
    before = module_functions()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert scatter.uniform_table is not before[("dqubit.scatter", "uniform_table")]
        assert dynamics.expm is not before[("dqubit.dynamics", "expm")]
        assert cli.load_config is not before[("dqubit.cli", "load_config")]
    finally:
        tracer.restore()
    after = module_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_call_records_spans_and_self_time():
    model = scatter.build_model(2.2, scatter.s_detection_beams(scatter.Polarization.SIGMA_PLUS, 2.2, 0.05))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        scatter.simulate_pumping(model, scatter.GROUND_STATES[0], 50, seed=1, method="chain")
    finally:
        tracer.restore()
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["scatter.simulate_pumping.chain", "rng.uniform_table"]
    assert tracer.spans[1][tracing.PARENT] == 0
    own = tracer.self_times()
    outer = tracer.spans[0][tracing.END] - tracer.spans[0][tracing.START]
    assert 0 <= own[0] < outer
    m = tracing.layer_metrics(tracer, tracing.span_metric_names(MANIFEST))
    assert m["rng.uniform_table.rows"] == 50
    assert m["scatter.simulate_pumping.chain.self_s"] == pytest.approx(own[0])


def test_tampered_detection_matrix_makes_fail_frac_positive(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CHAIN_TRIALS", 400)
    (tmp_path / "clean").mkdir()
    clean = run_worker(tmp_path / "clean", monkeypatch, "detect-chain", 0)
    assert clean["failed"] == 0 and clean["attempted"] == 5

    write = serialize.write_detection_matrix

    def tampered(m, config_hash=None):
        return write(dataclasses.replace(m, means=m.means * 1.5), config_hash)

    monkeypatch.setattr(serialize, "write_detection_matrix", tampered)
    (tmp_path / "bad").mkdir()
    bad = run_worker(tmp_path / "bad", monkeypatch, "detect-chain", 0)
    assert run.metric_values(dict(bad, per_layer={}), [], traced=1)["fail_frac"] > 0
    assert {f["op"] for f in bad["failures"]} >= {"detmatrix_d", "detmatrix_s"}


def test_nonzero_dark_cell_fails_its_check(tmp_path):
    op = workloads.build_pass("detect-chain", 5, tmp_path / "pass")[0]
    op = dataclasses.replace(op, params=tuple((k, 300 if k == "trials" else v) for k, v in op.params))
    _, records = worker.run_pass(cli, [op], tmp_path / "pass")
    out = tmp_path / "pass" / op.label
    checker = checks.Checker(ROOT)
    assert records[0]["rc"] == 0 and checker.check(op.experiment, out)[0] == []
    path = out / "detmatrix_d.txt"
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("mean sigma+ "))
    lines[i] = lines[i].rsplit(" ", 1)[0] + " 0.01"  # d+3/2 is dark under sigma+
    path.write_text("\n".join(lines) + "\n")
    assert any("not exactly 0" in p for p in checker.check(op.experiment, out)[0])


def test_unconverged_calibration_fails_its_check(tmp_path):
    op = workloads.build_pass("coherence", 5, tmp_path / "pass")[-1]
    assert op.experiment == "benchmark"
    _, records = worker.run_pass(cli, [op], tmp_path / "pass")
    out = tmp_path / "pass" / op.label
    checker = checks.Checker(ROOT)
    assert records[0]["rc"] == 0 and checker.check(op.experiment, out)[0] == []
    path = out / "benchmark.csv"
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("synthetic-d1d2,"))
    cells = lines[i].split(",")
    cells[2] = repr(345.1e-6)  # 1.4% short of the 350 us target, inside Tier-1's 5%
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any("synthetic-d1d2" in p for p in checker.check(op.experiment, out)[0])


def test_end_to_end_times_are_scaled_by_the_adjacent_probes(tmp_path, monkeypatch):
    result = run_worker(tmp_path, monkeypatch, "coherence", 0)
    probes, passes = result["probe_s"], result["pass_records"]
    assert len(probes) == len(passes) + 1
    for k, p in enumerate(passes):
        assert p["scale"] == pytest.approx(hostspeed.PROBE_REF_S / (0.5 * (probes[k] + probes[k + 1])))
    assert result["wall_s"] == pytest.approx(statistics.median(p["wall_s"] * p["scale"] for p in passes))
    setup = [{"import_s": 0.6, "probe_s": 0.2}, {"import_s": 0.3, "probe_s": 0.05}, {"import_s": 0.5, "probe_s": 0.1}]
    assert run.metric_values(result, setup, traced=0)["setup_s"] == pytest.approx(0.5 * hostspeed.PROBE_REF_S / 0.1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_shape(tmp_path, workload):
    def shape(ops):
        return [(op.label, op.experiment, op.params) for op in ops]

    s1, s2 = workloads.pass_seed(1, 0), workloads.pass_seed(2, 0)
    a = workloads.build_pass(workload, s1, tmp_path)
    b = workloads.build_pass(workload, s2, tmp_path)
    assert s1 != s2 and workloads.pass_seed(1, 0) == s1 != workloads.pass_seed(1, 1)
    assert shape(a) == shape(b)
    assert [op.config_text() for op in a] != [op.config_text() for op in b]
    assert [op.config_text() for op in a] == [op.config_text() for op in workloads.build_pass(workload, s1, tmp_path)]


def test_manifest_names_and_units_are_well_formed():
    entries = MANIFEST["workloads"] + MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", e["unit"]) for e in MANIFEST["end_to_end"] + MANIFEST["per_layer"])
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in MANIFEST["end_to_end"]}


def test_every_emitted_name_is_in_the_manifest(tmp_path, monkeypatch):
    result = run_worker(tmp_path, monkeypatch, "coherence", 1)
    assert result["failed"] == 0
    per_layer = run.metric_values(result, [], traced=1)
    end_to_end = run.metric_values(result, [{"import_s": 0.5, "probe_s": 0.1}], traced=0)
    assert set(per_layer) == {m["name"] for m in MANIFEST["per_layer"]}
    assert set(end_to_end) == {m["name"] for m in MANIFEST["end_to_end"]}
    assert all(NAME.match(n) for n in [*per_layer, *end_to_end])
    assert per_layer["dynamics.evolve.calls"] > 0 and per_layer["scipy.expm.calls"] > 0
    assert per_layer["scatter.simulate_pumping.jump.calls"] == 0
