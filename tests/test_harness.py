import math
from pathlib import Path

import numpy as np
import pytest

from lindmet import KERNEL_BACKEND, schemes
from lindmet.cli import main
from lindmet.config import (ConfigError, dump_nmr_config, dump_run_config,
                            load_nmr_config, load_run_config)
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

    @pytest.mark.skipif(KERNEL_BACKEND != "python",
                        reason="the file was written with the python kernel")
    def test_rerun_of_file_echoing_retired_key(self, tmp_path):
        old = tmp_path / "old.csv"
        old.write_text(OLD_RESULT_FILE)
        echo, _ = read_result_file(old)
        new = run_experiment(load_run_config(echo, is_path=False), out=tmp_path / "new.csv")
        assert read_result_file(new)[1] == read_result_file(old)[1]
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

    def test_file_schema_and_grid(self, tmp_path):
        cfg = self._config()
        path = run_nmr_protocol(cfg, out=tmp_path / "nmr.csv")
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
        # at omega0 = 2 pi GHz the derivative step that keeps delta*T <= 1e-3
        # falls below the cancellation floor from T = 0.275 s on
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[run]\nscenario = parallel-dephasing-1q\n"
                            "omega0 = 6283185307.179586\n\n[time_grid]\n"
                            "start = 0.05\nstop = 0.5\npoints = 3\nspacing = linear\n")
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "cancellation floor" in err
        assert not out.exists()

    def test_control_search_fails_before_it_starts(self, tmp_path, capsys, monkeypatch):
        # the same floor, met by the checked zero schedule before any search
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran before the checks")

        monkeypatch.setattr(schemes, "multi_start", no_search)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[run]\nscenario = parallel-dephasing-1q\n"
                            "schemes = control_enhanced\nomega0 = 6283185307.179586\n\n"
                            "[channel]\ngamma = 10\n\n"
                            "[time_grid]\nstart = 0.3\nstop = 0.4\npoints = 2\n"
                            "spacing = linear\n\n[control]\nK = 4\n\n"
                            "[optimizer]\nrestarts = 1\nmax_evals = 300\n")
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: at T=0.3 s: ") and err.count("\n") == 1
        assert "cancellation floor" in err
        assert not out.exists()

    def test_non_finite_state_exit_code(self, tmp_path, capsys):
        # scipy's expm returns NaN for this slice without raising; the all-NaN
        # state must fail the propagated-state check, not be written as QFI 0
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
    "nmr-f_tol=1e-6": ("nmr", "[optimizer]\nf_tol = 1e-6\n", "f_tol in [optimizer] is retired"),
    "run-seed=-1": ("run", "[run]\nscenario = parallel-dephasing-1q\nschemes = control_enhanced\n"
                    "seed = -1\n", "seed must be non-negative"),
    "nmr-seed=-2": ("nmr", "[nmr]\nseed = -2\n", "seed must be non-negative"),
    "run--seed=-5": ("run --seed -5", "[run]\nscenario = parallel-dephasing-1q\n",
                     "seed must be non-negative"),
    "nmr--seed=-5": ("nmr --seed -5", "[nmr]\n", "seed must be non-negative"),
    "run-schemes=standard,standard": (
        "run", "[run]\nscenario = parallel-dephasing-1q\nschemes = standard, standard\n",
        "scheme 'standard' is named twice"),
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
