"""Experiment orchestration and result persistence.

Result files start with the fully resolved configuration as `# `-prefixed
lines, followed by a CSV table. Stripping the prefix recovers a config that
reproduces the data exactly (same seed).
"""
from __future__ import annotations

import os
from pathlib import Path

from . import _kern
from .channels import t2_from_linewidth
from .config import (ConfigError, NmrConfig, RunConfig, dump_nmr_config, dump_run_config,
                     format_float)
from .metrology import qfi_fidelity
from .propagation import PropagationError
from .schemes import MetrologyResult, prepare, run_scheme

CSV_HEADER = "scheme,T_s,qfi_s2,sensitivity,evals,seed,converged"
NMR_CSV_HEADER = "scheme,T_s,qfi_s2,qfi_fidelity_s2,sensitivity,evals,seed,converged"


def _result_row(scheme: str, r: MetrologyResult, fidelity_qfi: float | None = None) -> str:
    cells = [scheme, format_float(r.T), format_float(r.qfi)]
    if fidelity_qfi is not None:
        cells.append(format_float(fidelity_qfi))
    cells += [format_float(r.sensitivity), str(r.evaluations), str(r.seed),
              "true" if r.converged else "false"]
    return ",".join(cells)


def _output_path(out: str) -> Path:
    """``out`` as a result file path, checked before anything is computed."""
    path = Path(out)
    if path.is_dir():
        raise ConfigError(f"output path {out} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"output directory {path.parent} does not exist")
    if not os.access(path.parent, os.W_OK):
        raise ConfigError(f"output directory {path.parent} is not writable")
    return path


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_result_file(path: Path, config_text: str, header: str,
                       rows: list[str], metadata: list[str] = ()) -> None:
    # "# " lines echo the reloadable config; "## " lines are free-form metadata
    lines = [f"# {line}" if line else "#" for line in config_text.rstrip("\n").split("\n")]
    lines.append(f"## kernel = {_kern.BACKEND}")
    lines.extend(f"## {m}" for m in metadata)
    lines.append(header)
    lines.extend(rows)
    _write(path, "\n".join(lines) + "\n")


def read_result_file(path) -> tuple[str, list[str]]:
    """Split a result file into its embedded config text and data lines."""
    config_lines, data_lines = [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("##"):
            continue
        if line.startswith("#"):
            config_lines.append(line[2:] if line.startswith("# ") else line[1:])
        else:
            data_lines.append(line)
    return "\n".join(config_lines) + "\n", data_lines


def run_experiment(config: RunConfig, out: str | None = None,
                   plot_data: bool = False) -> Path:
    """Run every requested scheme over the time grid and write the CSV.

    ``plot_data`` additionally writes two-column (T, value) gnuplot files per
    scheme next to the CSV, one for QFI and one for sensitivity. Every output
    path is checked before any scheme runs.
    """
    path = _output_path(out if out is not None else config.out)
    plots = []
    if plot_data:
        stem = path.with_suffix("") if path.suffix else path
        plots = [(scheme, kind, _output_path(f"{stem}.{scheme}.{kind}.dat"))
                 for scheme in config.schemes for kind in ("qfi", "sensitivity")]
    results = {scheme: run_scheme(config.scheme_config(scheme)) for scheme in config.schemes}
    rows = [_result_row(scheme, r) for scheme in config.schemes for r in results[scheme]]
    _write_result_file(path, dump_run_config(config), CSV_HEADER, rows)
    for scheme, kind, plot_path in plots:
        _write(plot_path, "".join(f"{format_float(r.T)} {format_float(getattr(r, kind))}\n"
                                  for r in results[scheme]))
    return path


def run_nmr_protocol(config: NmrConfig, out: str | None = None) -> Path:
    """Standard vs control-enhanced comparison at the NMR operating point.

    Per encoding time (up to t2_factor_max * T2) both QFI estimators are
    reported: the eigendecomposition value driving the optimization, and the
    fidelity-based value evaluated with the experiment's perturbation step.
    """
    path = _output_path(out if out is not None else config.out)
    t2 = t2_from_linewidth(config.linewidth_hz)
    gamma = 1.0 / t2
    delta = config.delta_omega_fidelity
    rows = []
    metadata = [f"T2_s = {format_float(t2)}", f"gamma_per_s = {format_float(gamma)}"]
    for scheme in config.schemes:
        scheme_cfg = config.scheme_config(scheme)
        dyn, probe = prepare(scheme_cfg)
        metadata.append(
            f"probe_{scheme} = " + " ".join(format(z, ".17g")
                                            for z in probe.reshape(-1)))
        for r in run_scheme(scheme_cfg):
            try:
                rho = dyn.evolve(r.schedule, probe)
                rho_pert = dyn.evolve(r.schedule, probe, scheme_cfg.omega0 + delta)
            except PropagationError as exc:
                # named by its encoding time, as drho_domega names a failure
                raise PropagationError(f"at T={r.T:g} s: {exc}") from exc
            rows.append(_result_row(scheme, r, qfi_fidelity(rho, rho_pert, delta)))
    _write_result_file(path, dump_nmr_config(config), NMR_CSV_HEADER, rows,
                       metadata=metadata)
    return path
