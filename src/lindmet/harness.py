"""Experiment orchestration and result persistence.

Result files start with the fully resolved configuration as `# `-prefixed
lines, followed by a CSV table. Stripping the prefix recovers a config that
reproduces the data exactly (same seed, same backend).
"""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from . import _kern
from .channels import t2_from_linewidth
from .config import NmrConfig, RunConfig, dump_nmr_config, dump_run_config, format_float
from .metrology import qfi_fidelity
from .propagation import SlicedDynamics
from .schemes import MetrologyResult, SchemeConfig, resolve_probe, run_scheme

CSV_HEADER = "scheme,T_s,qfi_s2,sensitivity,evals,seed,converged"
NMR_CSV_HEADER = "scheme,T_s,qfi_s2,qfi_fidelity_s2,sensitivity,evals,seed,converged"


def _result_row(scheme: str, r: MetrologyResult, with_fidelity: bool) -> str:
    cells = [scheme, format_float(r.T), format_float(r.qfi)]
    if with_fidelity:
        cells.append(format_float(r.qfi_fidelity if r.qfi_fidelity is not None
                                  else float("nan")))
    cells += [format_float(r.sensitivity), str(r.evaluations), str(r.seed),
              "true" if r.converged else "false"]
    return ",".join(cells)


def _write_result_file(path: Path, config_text: str, header: str,
                       rows: list[str], metadata: list[str] = ()) -> None:
    # "# " lines echo the reloadable config; "## " lines are free-form metadata
    lines = [f"# {line}" if line else "#" for line in config_text.rstrip("\n").split("\n")]
    lines.append(f"## kernel = {_kern.BACKEND}")
    lines.extend(f"## {m}" for m in metadata)
    lines.append(header)
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")


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
    scheme next to the CSV, one for QFI and one for sensitivity.
    """
    all_results = [(scheme, run_scheme(config.scheme_config(scheme)))
                   for scheme in config.schemes]
    rows = [_result_row(scheme, r, with_fidelity=False)
            for scheme, results in all_results for r in results]
    path = Path(out if out is not None else config.out)
    _write_result_file(path, dump_run_config(config), CSV_HEADER, rows)
    if plot_data:
        stem = path.with_suffix("") if path.suffix else path
        for scheme, results in all_results:
            for kind, getter in (("qfi", lambda r: r.qfi),
                                 ("sensitivity", lambda r: r.sensitivity)):
                Path(f"{stem}.{scheme}.{kind}.dat").write_text(
                    "".join(f"{format_float(r.T)} {format_float(getter(r))}\n"
                            for r in results))
    return path


def _attach_fidelity_estimates(config: SchemeConfig,
                               results: list[MetrologyResult],
                               delta: float) -> list[MetrologyResult]:
    model = config.build_model()
    dyn = SlicedDynamics(model)
    rho0 = resolve_probe(config, model.dim)
    out = []
    for r in results:
        rho = dyn.evolve(r.schedule, rho0)
        rho_pert = dyn.evolve(r.schedule, rho0, config.omega0 + delta)
        out.append(replace(r, qfi_fidelity=qfi_fidelity(rho, rho_pert, delta)))
    return out


def run_nmr_protocol(config: NmrConfig, out: str | None = None) -> Path:
    """Standard vs control-enhanced comparison at the NMR operating point.

    Per encoding time (up to t2_factor_max * T2) both QFI estimators are
    reported: the eigendecomposition value driving the optimization, and the
    fidelity-based value evaluated with the experiment's perturbation step.
    """
    t2 = t2_from_linewidth(config.linewidth_hz)
    gamma = 1.0 / t2
    rows = []
    metadata = [f"T2_s = {format_float(t2)}", f"gamma_per_s = {format_float(gamma)}"]
    for scheme in config.schemes:
        scheme_cfg = config.scheme_config(scheme)
        probe = resolve_probe(scheme_cfg, 2)
        metadata.append(
            f"probe_{scheme} = " + " ".join(format(z, ".17g")
                                            for z in probe.reshape(-1)))
        results = run_scheme(scheme_cfg)
        results = _attach_fidelity_estimates(scheme_cfg, results,
                                             config.delta_omega_fidelity)
        rows.extend(_result_row(scheme, r, with_fidelity=True) for r in results)
    path = Path(out if out is not None else config.out)
    _write_result_file(path, dump_nmr_config(config), NMR_CSV_HEADER, rows,
                       metadata=metadata)
    return path
