"""Tests of the benchmark's own code: output checks, span arithmetic, records.

    python3 -m pytest -q bench/tests
"""
import json
import math

import pytest

import compare
import run
from checks import check_call
from tracing import Tracer, aggregate, self_times
from workloads import Call

CALL = Call("small", "parallel-dephasing-1q", ("standard", "control_enhanced"),
            (("gamma", 10.0),), (0.1, 0.3, 3, "linear"), K=4, restarts=1,
            max_evals=30, plot_data=True)
SEED = 7


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    import lindmet

    return run.Workload((CALL,), SEED, tmp_path_factory.mktemp("work"),
                        lindmet.KERNEL_BACKEND)


@pytest.fixture(scope="module")
def output(workload):
    result = workload.run_pass()
    out, dats = workload._outputs(CALL)
    return result, out.read_text(), {k: p.read_text() for k, p in dats.items()}


def _check(workload, text, dats, exit_code=0):
    return check_call(CALL, SEED, exit_code, text, dats, workload.backend)


def _replace_cell(text, row, column, value):
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("scheme,")) + 1
    cells = lines[first + row].split(",")
    cells[column] = value
    lines[first + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_clean_output_passes(output):
    result, _, _ = output
    assert run.pass_counts(result)[:2] == (6, 0)


def test_corrupted_row_is_flagged_and_counted_in_failed_frac(workload, output):
    """A self-consistent but wrong QFI (CSV and plot files agree) misses the oracle."""
    _, text, dats = output
    T, qfi, sens = text.splitlines()[-6].split(",")[1:4]  # first standard row
    bad_qfi, bad_sens = repr(float(qfi) * 1.001), repr(float(sens) / 1.001 ** 0.5)
    corrupted = _replace_cell(_replace_cell(text, 0, 2, bad_qfi), 0, 3, bad_sens)
    dats = dict(dats, **{"standard.qfi": dats["standard.qfi"].replace(qfi, bad_qfi),
                         "standard.sensitivity":
                             dats["standard.sensitivity"].replace(sens, bad_sens)})
    check = _check(workload, corrupted, dats)
    expected, failed, passed, _ = run.pass_counts({"checks": [check]})
    assert (expected, failed, passed) == (6, 1, 5)
    assert check.problems == [f"small row 1: QFI {float(bad_qfi)!r} misses the analytic "
                              f"{float(T) ** 2 * math.exp(-20.0 * float(T))!r}"]


@pytest.mark.parametrize("row, column, value", [
    (1, 2, "nan"),  # non-finite QFI
    (2, 5, "8"),  # seed that is not the config's
    (3, 2, "0.0"),  # control-enhanced below standard
    (4, 4, "0"),  # a search row with no evaluations
])
def test_each_bad_row_fails_once(workload, output, row, column, value):
    _, text, dats = output
    check = _check(workload, _replace_cell(text, row, column, value), dats)
    assert check.failed == 1


def test_plot_file_mismatch_fails_its_row(workload, output):
    _, text, dats = output
    dats = dict(dats)
    dats["standard.qfi"] = dats["standard.qfi"].replace("\n", "\n0 0\n", 1)
    assert _check(workload, text, dats).failed == 2  # rows 2 and 3 shift


def test_missing_rows_and_failed_exit(workload, output):
    _, text, dats = output
    truncated = "\n".join(text.splitlines()[:-2]) + "\n"
    assert _check(workload, truncated, dats).failed == 2
    assert _check(workload, text, dats, exit_code=3).failed == 6
    assert _check(workload, None, {}, exit_code=None).failed == 6


def test_rerun_must_reproduce_the_first_pass(workload, output):
    _, text, dats = output
    reference = list(workload.references[CALL.name])
    reference[5] = reference[5].replace("true", "false") + "x"
    check = check_call(CALL, SEED, 0, text, dats, workload.backend, reference)
    assert check.failed == 1


def test_self_times_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["leaf", 5.0, 6.0, 3],
        ["leaf", 7.0, 8.5, 3],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    calls, selfs = aggregate(spans)
    assert calls["leaf"] == 3 and selfs["leaf"] == pytest.approx(3.5)
    assert sum(selfs.values()) == pytest.approx(10.0)  # self times tile the root


def test_tracer_records_parents_and_restores_names():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    assert tracer.call("outer", lambda: inner(1) + inner(2)) == 5
    assert [(n, p) for n, _, _, p in tracer.spans] == [("outer", -1), ("inner", 0),
                                                       ("inner", 0)]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]  # outer spans ticks 0..5

    from lindmet import _kern, schemes

    before = (_kern.propagate_schedule, schemes.qfi_eigen, schemes.multi_start)
    with Tracer().installed():
        assert _kern.propagate_schedule is not before[0]
    assert (_kern.propagate_schedule, schemes.qfi_eigen, schemes.multi_start) == before


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    def record(name, backend):
        path = tmp_path / name
        path.write_text(json.dumps({"workload": "sweep", "label": {"backend": backend},
                                    "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
        return str(path)

    assert compare.main([record("a.json", "python"), record("b.json", "compiled")]) == 2
    assert "different kernel backends" in capsys.readouterr().err
    assert compare.main([record("c.json", "python"), record("d.json", "python")]) == 0
