import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lindmet
from lindmet import harness, schemes
from lindmet.cli import main
from lindmet.config import (NMR_FIELDS, RUN_FIELDS, ConfigError, dump_nmr_config,
                            dump_run_config, load_nmr_config, load_run_config)
from lindmet.harness import (read_result_file, run_experiment, run_nmr_protocol,
                             t2_from_linewidth)
from lindmet.schemes import SchemeConfig, run_scheme

TINY_RUN = """
[run]
scenario = parallel-dephasing-1q
schemes = standard, ancilla
seed = 3

[time_grid]
start = 0.05
stop = 0.2
points = 4
spacing = linear
"""


# Written before [run] delta_omega and seven [optimizer] keys were retired: its
# echo carries each at the value the loader still accepts (delta_omega at
# 1e-4 * max(|omega0|, 1), x_tol and initial_step at 1e-6 and 0.05 * u_max,
# the other five at the simplex's constants).
OLD_RESULT_FILE = """\
# [run]
# scenario = parallel-dephasing-1q
# schemes = standard, control_enhanced
# probe = default
# omega0 = 6.2831853071795862
# gamma_c = 1
# delta_omega = 0.00062831853071795862
# seed = 7
# out = old.csv
#
# [channel]
# gamma = 10
#
# [time_grid]
# start = 0.10000000000000001
# stop = 0.29999999999999999
# points = 2
# spacing = linear
#
# [control]
# K = 4
# u_max = 125.66370614359172
# warm_start = false
#
# [optimizer]
# restarts = 2
# max_evals = 60
# x_tol = 0.00012566370614359171
# f_tol = 1e-08
# reflection = 1
# expansion = 2
# contraction = 0.5
# shrink = 0.5
# initial_step = 6.2831853071795862
## kernel = python
scheme,T_s,qfi_s2,sensitivity,evals,seed,converged
standard,0.10000000000000001,0.0013533528305869262,8.5959619058280818,0,7,true
standard,0.29999999999999999,0.00022308769325801991,36.671005725250488,0,7,true
control_enhanced,0.10000000000000001,0.0014694287907912795,8.2494639229843774,121,7,false
control_enhanced,0.29999999999999999,0.00161676892726851,13.621867463737917,121,7,false
"""


class TestT2FromLinewidth:
    def test_reference_linewidth(self):
        t2 = t2_from_linewidth(2.13)
        assert t2 == 1.0 / (math.pi * 2.13)
        assert abs(t2 - 0.149) <= 1e-3

    def test_unit_case(self):
        assert abs(t2_from_linewidth(1.0 / math.pi) - 1.0) <= 1e-15

    def test_scaling(self):
        assert abs(t2_from_linewidth(4.0) - t2_from_linewidth(2.0) / 2) <= 1e-15

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            t2_from_linewidth(0.0)


class TestRunConfig:
    def test_minimal_config_resolves_defaults(self):
        cfg = load_run_config(TINY_RUN, is_path=False)
        assert cfg.scenario == "parallel-dephasing-1q"
        assert cfg.schemes == ("standard", "ancilla")
        assert cfg.rates == (("gamma", 10.0),)
        assert cfg.omega0 == 2 * np.pi
        assert cfg.u_max == 40 * np.pi
        assert cfg.optimizer.max_evals == 200 * 20 * 2
        assert cfg.optimizer.seed == 3

    def test_dump_load_round_trip(self):
        cfg = load_run_config(TINY_RUN, is_path=False)
        again = load_run_config(dump_run_config(cfg), is_path=False)
        assert again == cfg

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="valid scenarios"):
            load_run_config("[run]\nscenario = foo\n", is_path=False)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="valid schemes"):
            load_run_config("[run]\nscenario = amplitude-damping\nschemes = grape\n",
                            is_path=False)

    def test_unknown_key_rejected(self):
        bad = "[run]\nscenario = amplitude-damping\nbanana = 1\n"
        with pytest.raises(ConfigError, match="banana"):
            load_run_config(bad, is_path=False)

    def test_wrong_rate_for_scenario(self):
        bad = "[run]\nscenario = amplitude-damping\n[channel]\ngamma = 1\n"
        with pytest.raises(ConfigError, match="does not accept"):
            load_run_config(bad, is_path=False)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_run_config("/nonexistent/path.cfg")

    def test_channel_override(self):
        text = TINY_RUN + "\n[channel]\ngamma = 2.5\n"
        cfg = load_run_config(text, is_path=False)
        assert cfg.rates == (("gamma", 2.5),)


PRESETS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", PRESETS, ids=lambda p: p.name)
def test_preset_round_trip(path):
    # load -> dump -> load gives an equal config and a byte-identical echo
    nmr = "[nmr]" in path.read_text()
    load, dump = ((load_nmr_config, dump_nmr_config) if nmr
                  else (load_run_config, dump_run_config))
    cfg = load(str(path))
    text = dump(cfg)
    again = load(text, is_path=False)
    assert again == cfg
    assert dump(again) == text


def test_presets_found():
    assert len(PRESETS) == 6


class TestRunExperiment:
    def test_csv_shape_and_values(self, tmp_path):
        cfg = load_run_config(TINY_RUN, is_path=False)
        path = run_experiment(cfg, out=tmp_path / "res.csv")
        config_text, data = read_result_file(path)
        assert data[0] == "scheme,T_s,qfi_s2,sensitivity,evals,seed,converged"
        rows = data[1:]
        assert len(rows) == 4 * 2  # |grid| x |schemes|
        first = rows[0].split(",")
        assert first[0] == "standard"
        gamma, T = 10.0, float(first[1])
        assert abs(float(first[2]) - T**2 * np.exp(-2 * gamma * T)) <= 1e-6
        assert first[6] == "true"

    def test_bitwise_reproduction_from_echo(self, tmp_path):
        cfg = load_run_config(TINY_RUN, is_path=False)
        p1 = run_experiment(cfg, out=tmp_path / "a.csv")
        echo, _ = read_result_file(p1)
        p2 = run_experiment(load_run_config(echo, is_path=False), out=tmp_path / "b.csv")
        _, d1 = read_result_file(p1)
        _, d2 = read_result_file(p2)
        assert d1 == d2
        # older result files and their readers expect exactly this metadata line
        assert lindmet.KERNEL_BACKEND == "python"
        assert "## kernel = python" in p1.read_text().splitlines()

    def test_rerun_of_file_echoing_retired_key(self, tmp_path):
        old = tmp_path / "old.csv"
        old.write_text(OLD_RESULT_FILE)
        echo, _ = read_result_file(old)
        new = run_experiment(load_run_config(echo, is_path=False), out=tmp_path / "new.csv")
        # the old file's QFI and sensitivity came from a central difference,
        # whose truncation error (up to 1.2e-8 relative here) the exact
        # derivative no longer makes; every other cell is as written
        old_rows, new_rows = ([row.split(",") for row in read_result_file(path)[1]]
                              for path in (old, new))
        assert len(new_rows) == len(old_rows) and new_rows[0] == old_rows[0]
        for a, b in zip(old_rows[1:], new_rows[1:]):
            assert a[:2] + a[4:] == b[:2] + b[4:]
            for x, y in zip(a[2:4], b[2:4]):
                assert abs(float(y) - float(x)) <= 1e-7 * abs(float(x))
        echo = read_result_file(new)[0]
        for key in ("delta_omega", "x_tol", "f_tol", "reflection", "expansion",
                    "contraction", "shrink", "initial_step"):
            assert key not in echo

    def test_plot_data_files(self, tmp_path):
        cfg = load_run_config(TINY_RUN, is_path=False)
        run_experiment(cfg, out=tmp_path / "res.csv", plot_data=True)
        for scheme in ("standard", "ancilla"):
            for kind in ("qfi", "sensitivity"):
                f = tmp_path / f"res.{scheme}.{kind}.dat"
                assert f.exists()
                lines = f.read_text().splitlines()
                assert len(lines) == 4
                assert len(lines[0].split()) == 2

    def test_float_format_17_digits(self, tmp_path):
        cfg = load_run_config(TINY_RUN, is_path=False)
        path = run_experiment(cfg, out=tmp_path / "res.csv")
        _, data = read_result_file(path)
        qfi_str = data[1].split(",")[2]
        assert float(qfi_str) == float(repr(float(qfi_str)))  # round-trip exact


NMR_TEXT = "[nmr]\npoints = 3\nseed = 5\n\n[optimizer]\nrestarts = 2\nmax_evals = 400\n"


class TestNmrProtocol:
    def _config(self):
        return load_nmr_config(NMR_TEXT, is_path=False)

    def test_file_schema_and_grid(self, tmp_path, monkeypatch):
        from lindmet import _kern, schemes
        from lindmet.propagation import SlicedDynamics

        depths, evolve_depths, searching = [], [], []
        real, real_evolve = _kern.propagate_schedule, SlicedDynamics.evolve
        real_search = schemes.multi_start

        def spy(L0, ctrls, amps, dt, v0):
            # every call is a stack of grids, one slice length per grid; a
            # search round's are counted apart
            assert np.ndim(amps[0]) == 3 and np.shape(dt) == np.shape(amps[0])[:1]
            depths.append("round" if searching else np.size(dt))
            return real(L0, ctrls, amps, dt, v0)

        def search(objective, *args, **kwargs):
            def inside(*a, **k):
                searching.append(True)
                try:
                    return objective(*a, **k)
                finally:
                    searching.pop()
            return real_search(inside, *args, **kwargs)

        def evolve_spy(*args, **kwargs):
            start = len(depths)
            out = real_evolve(*args, **kwargs)
            evolve_depths.append(depths[start:])
            return out

        monkeypatch.setattr(_kern, "propagate_schedule", spy)
        monkeypatch.setattr(SlicedDynamics, "evolve", evolve_spy)
        monkeypatch.setattr(schemes, "multi_start", search)
        cfg = self._config()
        path = run_nmr_protocol(cfg, out=tmp_path / "nmr.csv")
        # each scheme's fixed schedule propagates one Van Loan block per
        # encoding time, all 3 in one call, the search propagates rounds of
        # grids, the checked searched QFIs one block per time, all 3 in one
        # call, and each row's fidelity pair omega0 and omega0 + delta one
        # block each, in a call of its own
        assert set(depths) == {3, 1, "round"}
        assert depths.count(3) == 3
        assert depths.count(1) == 2 * 2 * 3
        assert evolve_depths == [[1]] * (2 * 2 * 3)
        _, data = read_result_file(path)
        header = data[0].split(",")
        assert header == ["scheme", "T_s", "qfi_s2", "qfi_fidelity_s2",
                          "sensitivity", "evals", "seed", "converged"]
        rows = [r.split(",") for r in data[1:]]
        assert len(rows) == 2 * 3
        t2 = t2_from_linewidth(cfg.linewidth_hz)
        assert abs(float(rows[-1][1]) - 2.5 * t2) <= 1e-12
        schemes = {r[0] for r in rows}
        assert schemes == {"standard", "control_enhanced"}

    def test_search_dimension_is_k_times_fields(self):
        # K = 5 slices of (u_x, u_y) give a 10-dimensional search space
        from lindmet.channels import build_scenario

        cfg = self._config()
        scheme_cfg = cfg.scheme_config("control_enhanced")
        n_controls = build_scenario(scheme_cfg.scenario, scheme_cfg.omega0).n_controls
        assert scheme_cfg.K * n_controls == 10

    def test_estimators_agree_well_inside_coherence_time(self, tmp_path):
        # with the experimental perturbation of one full angular unit the
        # fidelity estimator's truncation stays below 2% only for T <~ T2/2
        cfg = self._config()
        path = run_nmr_protocol(cfg, out=tmp_path / "nmr.csv")
        _, data = read_result_file(path)
        t2 = t2_from_linewidth(cfg.linewidth_hz)
        for row in (r.split(",") for r in data[1:]):
            T, eig, fid = float(row[1]), float(row[2]), float(row[3])
            if T <= 0.5 * t2 and eig > 0:
                assert abs(fid - eig) / eig <= 0.02

    def test_config_round_trip(self):
        cfg = load_nmr_config(NMR_TEXT, is_path=False)
        again = load_nmr_config(dump_nmr_config(cfg), is_path=False)
        assert again == cfg

    @pytest.mark.parametrize("field, value", [
        ("points", 0), ("delta_omega_fidelity", 0.0), ("delta_omega_fidelity", float("nan")),
    ])
    def test_constructor_rejects(self, field, value):
        from dataclasses import replace as dc_replace

        with pytest.raises(ConfigError, match=field):
            dc_replace(self._config(), **{field: value})

    def test_both_estimates_vanish_at_zero_time(self):
        # T -> 0 limit: no encoding, no information
        from dataclasses import replace as dc_replace

        scheme_cfg = self._config().scheme_config("standard")
        tiny = dc_replace(scheme_cfg, time_grid=(1e-7,))
        res = run_scheme(tiny)
        assert res[0].qfi <= 1e-10


class TestCli:
    def test_t2_command(self, capsys):
        assert main(["t2", "--linewidth-hz", "2.13"]) == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - 1 / (math.pi * 2.13)) <= 1e-15

    def test_t2_rejects_non_positive(self, capsys):
        assert main(["t2", "--linewidth-hz", "-1"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_t2_rejects_non_finite(self, value, capsys):
        assert main(["t2", "--linewidth-hz", value]) == 2
        assert capsys.readouterr().err.startswith("config error: linewidth")

    @pytest.mark.parametrize("value", ["1e-310", "1e308"])
    def test_t2_rejects_linewidth_whose_t2_overflows(self, value, capsys):
        # T2 would print as inf or 0
        assert main(["t2", "--linewidth-hz", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: linewidth ") and captured.err.count("\n") == 1

    def test_run_command(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(TINY_RUN)
        out_file = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg_file), "--out", str(out_file)]) == 0
        assert out_file.exists()

    def test_run_bad_config_exit_code(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[run]\nscenario = nonsense\n")
        assert main(["run", "--config", str(cfg_file)]) == 2

    def test_run_missing_config_exit_code(self):
        assert main(["run", "--config", "/no/such/file.cfg"]) == 2

    def test_seed_override_changes_echo(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(TINY_RUN)
        out_file = tmp_path / "out.csv"
        main(["run", "--config", str(cfg_file), "--out", str(out_file),
              "--seed", "99"])
        config_text, _ = read_result_file(out_file)
        assert "seed = 99" in config_text

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # at the grid's end, T = 1e308 s, a slice's generator times its length
        # overflows, and the state is NaN
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[run]\nscenario = parallel-dephasing-1q\n\n[time_grid]\n"
                            "start = 0.05\nstop = 1e308\npoints = 2\nspacing = linear\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: at T=1e+308 s: propagated state trace "
                       "deviates from 1 by nan\n")
        assert not out.exists()

    def test_overflowing_slice_generators_exit_3(self, tmp_path, capsys):
        # the rate times the slice length overflows at both times: the run ends
        # at the first, with one line, no file and no overflow warning
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[run]\nscenario = parallel-dephasing-1q\n\n[channel]\n"
                            "gamma = 1e308\n\n[time_grid]\nstart = 10\nstop = 20\n"
                            "points = 2\n\n[control]\nK = 2\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: at T=10 s: ") and err.count("\n") == 1
        assert not out.exists()

    def test_exact_at_two_pi_gigahertz(self, tmp_path, capsys):
        # omega0 T = 1.9e9 rad: a central difference lost the QFI here, the
        # exact derivative keeps it to about 1e-5 relative
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[run]\nscenario = parallel-dephasing-1q\n"
                            "omega0 = 6283185307.179586\n\n[channel]\ngamma = 10\n\n"
                            "[time_grid]\nstart = 0.3\nstop = 0.4\npoints = 1\n")
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        row = read_result_file(out)[1][1].split(",")
        T, qfi = float(row[1]), float(row[2])
        oracle = T ** 2 * np.exp(-2 * 10.0 * T)
        assert T == 0.3 and abs(qfi - oracle) <= 1e-4 * oracle

    def test_control_search_fails_before_it_starts(self, tmp_path, capsys, monkeypatch):
        # the overflow, met by the checked zero schedule before any search
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran before the checks")

        monkeypatch.setattr(schemes, "multi_start", no_search)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[run]\nscenario = parallel-dephasing-1q\n"
                            "schemes = control_enhanced\n\n[channel]\ngamma = 1e308\n\n"
                            "[time_grid]\nstart = 10\nstop = 20\npoints = 2\n"
                            "spacing = linear\n\n[control]\nK = 4\n\n"
                            "[optimizer]\nrestarts = 1\nmax_evals = 300\n")
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: at T=10 s: ") and err.count("\n") == 1
        assert "propagated state" in err
        assert not out.exists()

    def test_no_search_starts_while_a_later_time_must_fail(self, tmp_path, capsys,
                                                            monkeypatch):
        # T = 0.1 s passes its checks and at T = 1e308 s the slice generators
        # overflow; every T is checked before the search at the first one starts
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran before every time was checked")

        monkeypatch.setattr(schemes, "multi_start", no_search)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[run]\nscenario = parallel-dephasing-1q\n"
                            "schemes = control_enhanced\n\n"
                            "[time_grid]\nstart = 0.1\nstop = 1e308\npoints = 2\n"
                            "spacing = linear\n\n[control]\nK = 4\n")
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: at T=1e+308 s: ") and err.count("\n") == 1
        assert "propagated state" in err
        assert not out.exists()

    def test_non_finite_state_exit_code(self, tmp_path, capsys):
        # the kernel returns NaN for this slice without raising, as its 1-norm
        # needs more squarings than it takes; the all-NaN state must fail the
        # propagated-state check, not be written as QFI 0
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[run]\nscenario = amplitude-damping\n\n"
                            "[channel]\ngamma_minus = 1e40\n\n"
                            "[time_grid]\nstart = 0.3\nstop = 0.4\npoints = 1\n\n"
                            "[control]\nK = 4\n")
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: at T=0.3 s: ") and err.count("\n") == 1
        assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_loads():
    text = README.read_text()
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = load_run_config(block, is_path=False)
    assert cfg.schemes == ("standard", "control_enhanced")
    assert cfg.optimizer.max_evals == 8000


def test_run_defaults_are_scheme_config_defaults():
    # a [run] section that sets only the scenario resolves to SchemeConfig's defaults
    cfg = load_run_config("[run]\nscenario = parallel-dephasing-1q\n", is_path=False)
    ref = SchemeConfig("standard", "parallel-dephasing-1q", cfg.grid.times())
    for name in ("omega0", "K", "probe", "gamma_c", "warm_start"):
        assert getattr(cfg, name) == getattr(ref, name), name
    for omega0 in (0.5, -300.0, 2 * np.pi):
        cfg = load_run_config(f"[run]\nscenario = parallel-dephasing-1q\nomega0 = {omega0!r}\n",
                              is_path=False)
        ref = SchemeConfig("standard", "parallel-dephasing-1q", (0.1,), omega0=omega0)
        assert cfg.u_max == ref.resolved_u_max


_RUN_1Q = "[run]\nscenario = parallel-dephasing-1q\nschemes = standard, control_enhanced\n"
_RUN_STD = "[run]\nscenario = parallel-dephasing-1q\n"
_NMR_SMALL = "[nmr]\npoints = 1\nK = 1\n\n[optimizer]\nrestarts = 1\nmax_evals = 20\n"

# (command line before --config, config text, a fragment of the expected message)
INVALID_CONFIGS = {
    "run-K=0": ("run", _RUN_1Q + "[control]\nK = 0\n", "K must be positive"),
    "run-restarts=0": ("run", _RUN_1Q + "[optimizer]\nrestarts = 0\n", "one start"),
    "run-gamma=-1": ("run", _RUN_1Q + "[channel]\ngamma = -1\n", "gamma must be"),
    "run-gamma_c=0": ("run", _RUN_1Q + "gamma_c = 0\n", "gamma_c must be"),
    "run-u_max=-5": ("run", _RUN_1Q + "[control]\nu_max = -5\n", "u_max must be"),
    "run-ancilla-2q": ("run", "[run]\nscenario = parallel-dephasing-2q\nschemes = ancilla\n",
                       "1-qubit"),
    "run-theoretical_optimal-ad": (
        "run", "[run]\nscenario = amplitude-damping\nschemes = theoretical_optimal\n",
        "transverse-dephasing scenario only"),
    "run-gamma=nan": ("run", _RUN_1Q + "[channel]\ngamma = nan\n", "gamma in [channel]"),
    "run-omega0=inf": ("run", _RUN_1Q + "omega0 = inf\n", "omega0 in [run]"),
    "run-omega0=-inf": ("run", _RUN_1Q + "omega0 = -inf\n", "omega0 in [run]"),
    "run-start=nan": ("run", _RUN_1Q + "[time_grid]\nstart = nan\n", "start in [time_grid]"),
    "run-warm_start=ture": ("run", _RUN_1Q + "[control]\nwarm_start = ture\n", "'ture'"),
    "run-max_evals=-3": ("run", _RUN_1Q + "[optimizer]\nmax_evals = -3\n", "max_evals"),
    "run-delta_omega=1e-3": ("run", _RUN_1Q + "delta_omega = 1e-3\n",
                             "delta_omega in [run] is retired"),
    "run-reflection=1.5": ("run", _RUN_1Q + "[optimizer]\nreflection = 1.5\n",
                           "reflection in [optimizer] is retired"),
    "run-x_tol=1e-3": ("run", _RUN_1Q + "[optimizer]\nx_tol = 1e-3\n",
                       "x_tol in [optimizer] is retired"),
    "run-probe=ghz-1q": ("run", _RUN_1Q + "probe = ghz\n", "GHZ probe requires"),
    "run-probe=bell-1q": ("run", _RUN_1Q + "probe = bell_with_ancilla\n",
                          "Bell probe applies"),
    "nmr-K=0": ("nmr", "[nmr]\nK = 0\n", "K must be positive"),
    "nmr-omega0=nan": ("nmr", "[nmr]\nomega0 = nan\n", "omega0 in [nmr]"),
    "nmr-points=0": ("nmr", "[nmr]\npoints = 0\n", "points must be"),
    "nmr-restarts=0": ("nmr", "[optimizer]\nrestarts = 0\n", "one start"),
    "nmr-max_evals=-3": ("nmr", "[optimizer]\nmax_evals = -3\n", "max_evals"),
    "nmr-u_max=-5": ("nmr", "[nmr]\nu_max = -5\n", "u_max must be"),
    "nmr-linewidth_hz=0": ("nmr", "[nmr]\nlinewidth_hz = 0\n", "linewidth"),
    # T2 = 1/(pi linewidth) overflows to inf, or underflows to 0
    "nmr-linewidth_hz=1e-310": ("nmr", "[nmr]\nlinewidth_hz = 1e-310\n", "linewidth 1e-310 Hz"),
    "nmr-linewidth_hz=1e308": ("nmr", "[nmr]\nlinewidth_hz = 1e308\n", "linewidth 1e+308 Hz"),
    "nmr-f_tol=1e-6": ("nmr", "[optimizer]\nf_tol = 1e-6\n", "f_tol in [optimizer] is retired"),
    # the fidelity estimator divides by delta^2: underflow and overflow
    "nmr-delta_omega_fidelity=1e-300": ("nmr", "[nmr]\ndelta_omega_fidelity = 1e-300\n",
                                        "delta_omega_fidelity must be"),
    "nmr-delta_omega_fidelity=1e300": ("nmr", "[nmr]\ndelta_omega_fidelity = 1e300\n",
                                       "delta_omega_fidelity must be"),
    "run-seed=-1": ("run", "[run]\nscenario = parallel-dephasing-1q\nschemes = control_enhanced\n"
                    "seed = -1\n", "seed must be non-negative"),
    "nmr-seed=-2": ("nmr", "[nmr]\nseed = -2\n", "seed must be non-negative"),
    "run--seed=-5": ("run --seed -5", "[run]\nscenario = parallel-dephasing-1q\n",
                     "seed must be non-negative"),
    "nmr--seed=-5": ("nmr --seed -5", "[nmr]\n", "seed must be non-negative"),
    "run-schemes=standard,standard": (
        "run", "[run]\nscenario = parallel-dephasing-1q\nschemes = standard, standard\n",
        "scheme 'standard' is named twice"),
    "run-u_max=1e308": ("run", _RUN_1Q + "[control]\nK = 2\nu_max = 1e308\n\n"
                        "[optimizer]\nrestarts = 2\n", "u_max must be below half"),
    "nmr-u_max=1e308": ("nmr", "[nmr]\nu_max = 1e308\n", "u_max must be below half"),
    "run--out=missing/x.csv": ("run --out missing/x.csv", _RUN_STD,
                               "output directory missing does not exist"),
    "run-out=.": ("run", _RUN_STD + "out = .\n", "output path . is a directory"),
    "nmr--out=missing/y.csv": ("nmr --out missing/y.csv", _NMR_SMALL,
                               "output directory missing does not exist"),
    "nmr-out=.": ("nmr", _NMR_SMALL.replace("[nmr]\n", "[nmr]\nout = .\n"),
                  "output path . is a directory"),
}


@pytest.mark.parametrize("command, text, message", INVALID_CONFIGS.values(),
                         ids=INVALID_CONFIGS.keys())
def test_invalid_config_exits_2_without_output(command, text, message, tmp_path,
                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text(text)
    assert main([*command.split(), "--config", "bad.cfg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


def _numeric_keys(fields):
    """(section, key, kind) of every numeric key a config sets: kind is
    "float" or "int". A retired key sets nothing (see the retired cases
    above), and the [channel] section's one key here is gamma."""
    def parsed_type(parse, raw):
        try:
            return type(parse(raw))
        except ValueError:
            return None

    keys = []
    for f in fields:
        kind = ("float" if parsed_type(f.parse, "0.5") is float
                else "int" if parsed_type(f.parse, "2") is int else None)
        if kind and not f.retired:
            keys.append((f.section, f.key or "gamma", kind))
    return keys


# the smallest configs that reach every key's use: K <= 4, points <= 2, one
# restart, a budget of at most 10 evaluations
_EDGE_BASE = {
    "run": {"run": {"scenario": "parallel-dephasing-1q",
                    "schemes": "standard, control_enhanced"},
            "time_grid": {"start": "0.1", "stop": "0.2", "points": "2"},
            "control": {"K": "2"}, "optimizer": {"restarts": "1", "max_evals": "10"}},
    "nmr": {"nmr": {"points": "2", "K": "2"},
            "optimizer": {"restarts": "1", "max_evals": "10"}},
}
# never a huge count: K or points of 1e9 would allocate gigabytes
_EDGE_VALUES = {"float": ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-310", "1e-300",
                          "1e300", "1e308"],
                "int": ["0", "-1"]}
EDGE_CASES = [(command, section, key, value)
              for command, fields in (("run", RUN_FIELDS), ("nmr", NMR_FIELDS))
              for section, key, kind in _numeric_keys(fields)
              for value in _EDGE_VALUES[kind]]


def _run_at_edges(command, settings, tmp_path, monkeypatch, capsys) -> tuple[int, str]:
    """Run ``command`` on its edge base config with ``settings``, (section,
    key) -> value, and return its exit code and stderr. Either the run succeeds with
    finite rows, a sensitivity of inf only where the QFI is 0, or it ends as
    documented: exit 2 or 3, one line on stderr and no file; never a
    traceback or a warning."""
    config = {name: dict(entries) for name, entries in _EDGE_BASE[command].items()}
    for (section, key), value in settings.items():
        config.setdefault(section, {})[key] = value
    monkeypatch.chdir(tmp_path)
    (tmp_path / "edge.cfg").write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
        for name, entries in config.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", "edge.cfg", "--out", "out.csv"])
    err = capsys.readouterr().err
    if code != 0:
        assert code in (2, 3) and err.count("\n") == 1, err
        assert [p.name for p in tmp_path.iterdir()] == ["edge.cfg"]
        return code, err
    assert err == ""
    _, data = read_result_file(tmp_path / "out.csv")
    header = data[0].split(",")
    for row in data[1:]:
        cells = dict(zip(header, row.split(",")))
        numbers = [float(cells[c]) for c in ("T_s", "qfi_s2", "qfi_fidelity_s2") if c in cells]
        assert all(math.isfinite(x) for x in numbers), row
        sens = float(cells["sensitivity"])
        assert math.isfinite(sens) or (sens == math.inf and float(cells["qfi_s2"]) == 0), row
    return code, err


@pytest.mark.parametrize("command, section, key, value", EDGE_CASES,
                         ids=[f"{c}-{k}={v}" for c, _, k, v in EDGE_CASES])
def test_every_numeric_key_at_its_edges(command, section, key, value, tmp_path,
                                        monkeypatch, capsys):
    _run_at_edges(command, {(section, key): value}, tmp_path, monkeypatch, capsys)


# keys that meet at their edges: (command, settings, and the stderr line of
# an exit 3 where it is pinned). The first two would overflow the QFI itself,
# a frequency derivative that grows with T on a noiseless qubit, or with T2
# at a tiny linewidth; they once wrote a QFI of inf and a sensitivity of 0,
# or failed later without naming T. Their slices need more squarings than
# the kernel takes, so their first T's state is NaN
EDGE_PAIRS = {
    "run-omega0=5e-324,gamma=0,grid=1e100..1e300": (
        "run", {("run", "schemes"): "standard", ("run", "omega0"): "5e-324",
                ("channel", "gamma"): "0", ("time_grid", "start"): "1e100",
                ("time_grid", "stop"): "1e300"},
        "numerical failure: at T=1e+100 s: propagated state trace deviates from 1 by nan\n"),
    "nmr-linewidth_hz=1e-300,omega0=5e-324": (
        "nmr", {("nmr", "linewidth_hz"): "1e-300", ("nmr", "omega0"): "5e-324"},
        "numerical failure: at T=3.97887e+299 s: propagated state trace deviates from 1 by "
        "nan\n"),
    # a huge rate, or a tiny one, on a long grid
    "run-gamma=1e300,stop=1e300": (
        "run", {("channel", "gamma"): "1e300", ("time_grid", "stop"): "1e300"}, None),
    "run-gamma=1e-300,stop=1e300": (
        "run", {("channel", "gamma"): "1e-300", ("time_grid", "stop"): "1e300"}, None),
    "run-omega0=1e300,u_max=1e300": (
        "run", {("run", "omega0"): "1e300", ("control", "u_max"): "1e300"}, None),
    "run-gamma_c=1e-300,omega0=1e-300": (
        "run", {("run", "gamma_c"): "1e-300", ("run", "omega0"): "1e-300"}, None),
    "run-start=5e-324,stop=1e-300": (
        "run", {("time_grid", "start"): "5e-324", ("time_grid", "stop"): "1e-300"}, None),
    "nmr-linewidth_hz=1e300,t2_factor_max=1e300": (
        "nmr", {("nmr", "linewidth_hz"): "1e300", ("nmr", "t2_factor_max"): "1e300"}, None),
    # gamma_c sqrt(F) overflows for a noiseless qubit's QFI T^2 at 10 s, which
    # once wrote a sensitivity of 0
    "run-gamma_c=1e308,gamma=0,grid=10..100": (
        "run", {("run", "schemes"): "standard", ("run", "gamma_c"): "1e308",
                ("channel", "gamma"): "0", ("time_grid", "start"): "10",
                ("time_grid", "stop"): "100"},
        "numerical failure: at T=10 s: the sensitivity of QFI 1.000e+02 with "
        "gamma_c=1.000e+308 is not a positive finite float\n"),
    "nmr-gamma_c=1e300,linewidth_hz=1e-300": (
        "nmr", {("nmr", "gamma_c"): "1e300", ("nmr", "linewidth_hz"): "1e-300"}, None),
    # the fidelity pair's state at omega0 + delta fails its checks after every
    # search has run; it once failed without naming T
    "nmr-linewidth_hz=1e-150,omega0=1e-300,delta_omega_fidelity=1e150": (
        "nmr", {("nmr", "linewidth_hz"): "1e-150", ("nmr", "omega0"): "1e-300",
                ("nmr", "delta_omega_fidelity"): "1e150"},
        "numerical failure: at T=3.97887e+149 s: propagated state trace deviates from 1 by nan\n"),
}


@pytest.mark.parametrize("command, settings, pinned", EDGE_PAIRS.values(),
                         ids=EDGE_PAIRS.keys())
def test_pairs_of_keys_at_their_edges(command, settings, pinned, tmp_path, monkeypatch,
                                      capsys):
    code, err = _run_at_edges(command, settings, tmp_path, monkeypatch, capsys)
    assert pinned is None or (code, err) == (3, pinned)


@pytest.mark.parametrize("schemes_line", ["standard", "standard, control_enhanced"])
def test_sensitivity_overflow_exits_3_without_output(schemes_line, tmp_path, monkeypatch,
                                                     capsys):
    # a tiny gamma_c makes sqrt(T) / (gamma_c sqrt(F)) overflow for a positive
    # QFI: the run stops at the first T, before any search, with no warning
    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(schemes, "multi_start", no_search)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text(
        f"[run]\nscenario = parallel-dephasing-1q\nschemes = {schemes_line}\n"
        "gamma_c = 1e-320\n\n[time_grid]\nstart = 0.05\nstop = 0.2\npoints = 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", "tiny.cfg", "--plot-data"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: at T=0.05 s: the sensitivity of QFI ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["tiny.cfg"]


@pytest.mark.parametrize("command, text", [("run", _RUN_1Q), ("nmr", _NMR_SMALL)],
                         ids=["run", "nmr"])
def test_bad_output_path_fails_before_any_scheme_runs(command, text, tmp_path,
                                                      monkeypatch, capsys):
    def no_run(config):
        raise AssertionError("a scheme ran before the output path was checked")

    monkeypatch.setattr(harness, "run_scheme", no_run)
    (tmp_path / "bad.cfg").write_text(text)
    out = str(tmp_path / "missing" / "x.csv")
    assert main([command, "--config", str(tmp_path / "bad.cfg"), "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error: output directory ")


def test_unwritable_plot_path_fails_before_any_scheme_runs(tmp_path, monkeypatch, capsys):
    def no_run(config):
        raise AssertionError("a scheme ran before the plot paths were checked")

    monkeypatch.setattr(harness, "run_scheme", no_run)
    (tmp_path / "run.cfg").write_text(TINY_RUN)
    # a directory where the last plot file goes
    (tmp_path / "res.ancilla.sensitivity.dat").mkdir()
    assert main(["run", "--config", str(tmp_path / "run.cfg"),
                 "--out", str(tmp_path / "res.csv"), "--plot-data"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output path ") and err.count("\n") == 1
    assert "res.ancilla.sensitivity.dat is a directory" in err
    assert not (tmp_path / "res.csv").exists()


def test_write_failure_exits_2(tmp_path, monkeypatch, capsys):
    # every path passes its check, then the write itself fails
    def refuse(self, text):
        raise OSError(28, "No space left on device")

    (tmp_path / "run.cfg").write_text(TINY_RUN)
    monkeypatch.setattr(Path, "write_text", refuse)
    assert main(["run", "--config", str(tmp_path / "run.cfg"),
                 "--out", str(tmp_path / "res.csv"), "--plot-data"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write ") and err.count("\n") == 1
    assert "No space left on device" in err


ABSURD_K = "[control]\nK = 1000000000000000\n"


@pytest.mark.parametrize("command, text", [("run", _RUN_1Q + ABSURD_K),
                                           ("nmr", "[nmr]\nK = 1000000000000000\n")],
                         ids=["run", "nmr"])
def test_absurd_slice_count_exits_3_without_output(command, text, tmp_path, monkeypatch,
                                                   capsys):
    # the first K x L schedule cannot be allocated, so the run stops before any
    # propagation
    from lindmet import _kern

    def no_kernel(*args):
        raise AssertionError("a propagation ran")

    monkeypatch.setattr(_kern, "propagate_schedule", no_kernel)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.cfg").write_text(text)
    assert main([command, "--config", "big.cfg"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "Unable to allocate" in err
    assert [p.name for p in tmp_path.iterdir()] == ["big.cfg"]


def test_run_reaches_every_layer_the_benchmark_traces(tmp_path, monkeypatch):
    # bench/tracing.py wraps these names where their callers look them up and
    # skips a name that no longer exists, so a layer renamed away goes
    # untraced without an error; bench/micro.py takes the search objective
    # from schemes.multi_start. optimizer.nelder_mead is traced too, but a
    # run's starts advance in lockstep inside multi_start and never call it
    from lindmet import _kern, cli, optimizer
    from lindmet.propagation import SlicedDynamics

    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)
        key = f"{getattr(owner, '__name__', owner)}.{name}"
        calls[key] = 0

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((schemes, "drho_domega"), (schemes, "qfi_eigen"),
                        (schemes, "multi_start"), (schemes, "build_scenario"),
                        (harness, "run_scheme"), (_kern, "propagate_schedule"),
                        (optimizer, "nelder_mead"), (cli, "run_experiment"),
                        (cli, "load_run_config"), (SlicedDynamics, "evolve_vectorized")):
        count(owner, name)
    (tmp_path / "run.cfg").write_text(
        _RUN_1Q + "[time_grid]\nstart = 0.1\nstop = 0.2\npoints = 2\n\n"
        "[control]\nK = 2\n\n[optimizer]\nrestarts = 1\nmax_evals = 20\n")
    assert main(["run", "--config", str(tmp_path / "run.cfg"),
                 "--out", str(tmp_path / "res.csv")]) == 0
    assert calls["lindmet.harness.run_scheme"] == 2
    # both T's of the search in one lockstep call
    assert calls["lindmet.schemes.multi_start"] == 1
    assert calls.pop("lindmet.optimizer.nelder_mead") == 0
    assert all(calls.values()), calls


@pytest.mark.parametrize("scenario", ["parallel-dephasing-1q", "parallel-dephasing-2q"])
def test_each_search_evaluation_enters_the_traced_kernel_and_qfi_once(scenario, tmp_path,
                                                                      monkeypatch):
    # bench/tracing.py times the kernel and the QFI at these two names, so an
    # objective call that reached either another way, or twice, would go
    # untraced or be counted wrong
    from lindmet import _kern

    entered = {"kernel": 0, "qfi": 0}

    def count(owner, name, key):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            entered[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(_kern, "propagate_schedule", "kernel")
    count(schemes, "qfi_eigen", "qfi")
    per_call = []
    search = schemes.multi_start

    def counted_search(objective, *args, **kwargs):
        def evaluation(points, *problem):
            before = dict(entered)
            values = objective(points, *problem)
            per_call.append((len(points), entered["kernel"] - before["kernel"],
                             entered["qfi"] - before["qfi"]))
            return values

        return search(evaluation, *args, **kwargs)

    monkeypatch.setattr(schemes, "multi_start", counted_search)
    (tmp_path / "run.cfg").write_text(
        f"[run]\nscenario = {scenario}\nschemes = control_enhanced\n\n"
        "[time_grid]\nstart = 0.1\nstop = 0.2\npoints = 2\n\n"
        "[control]\nK = 3\n\n[optimizer]\nrestarts = 2\nmax_evals = 15\n")
    assert main(["run", "--config", str(tmp_path / "run.cfg"),
                 "--out", str(tmp_path / "res.csv")]) == 0
    _, data = read_result_file(tmp_path / "res.csv")
    evaluations = sum(int(row.split(",")[4]) for row in data[1:])
    assert evaluations >= 2 * 2 * 15  # two times, each with two starts of 15
    # each call, a batch of points or one, enters each once, and the points
    # of all calls are the evaluations the file reports
    assert [(kernel, qfi) for _, kernel, qfi in per_call] == [(1, 1)] * len(per_call)
    assert sum(points for points, _, _ in per_call) == evaluations
    # every start's initial simplex, K x L + 1 points, at every T is the
    # first call
    simplex = 3 * {"parallel-dephasing-1q": 2, "parallel-dephasing-2q": 4}[scenario] + 1
    assert per_call[0][0] == 2 * 2 * simplex


class TestBlasThreads:
    """Importing lindmet first defaults BLAS and OpenMP to one thread."""

    def _import_lindmet(self, **env):
        base = {k: v for k, v in os.environ.items()
                if k not in lindmet.BLAS_THREAD_VARIABLES}
        code = ("import json, os, lindmet; "
                "print(json.dumps({v: os.environ[v] for v in lindmet.BLAS_THREAD_VARIABLES}))")
        src = str(Path(lindmet.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], env={**base, "PYTHONPATH": src, **env},
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    def test_unset_variables_default_to_one(self):
        seen = self._import_lindmet()
        assert len(seen) == 6 and set(seen.values()) == {"1"}

    def test_explicit_value_wins(self):
        seen = self._import_lindmet(OPENBLAS_NUM_THREADS="2")
        assert seen.pop("OPENBLAS_NUM_THREADS") == "2"
        assert set(seen.values()) == {"1"}


def test_run_path_loads_no_scipy(tmp_path):
    # the package and a run, a control search's included, import numpy only;
    # scipy is a test dependency
    package = Path(lindmet.__file__).parent
    for module in package.glob("*.py"):
        assert not re.search(r"^\s*(import|from)\s+scipy", module.read_text(), re.M), module
    (tmp_path / "run.cfg").write_text(
        TINY_RUN.replace("standard, ancilla", "standard, ancilla, control_enhanced")
        + "\n[control]\nK = 2\n\n[optimizer]\nrestarts = 2\nmax_evals = 20\n")
    code = ("import sys, lindmet; from lindmet.cli import main; "
            "code = main(['run', '--config', 'run.cfg', '--out', 'x.csv']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "sys.exit(code)")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(package.parent)},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "x.csv").is_file()


class TestPackageExports:
    """Every public name resolves, so a function deleted but left in
    ``__all__`` fails here."""

    def test_every_exported_name_resolves(self):
        assert len(set(lindmet.__all__)) == len(lindmet.__all__)
        missing = [name for name in lindmet.__all__ if not hasattr(lindmet, name)]
        assert missing == []

    def test_star_import(self):
        namespace = {}
        exec("from lindmet import *", namespace)
        assert set(lindmet.__all__) <= set(namespace)
