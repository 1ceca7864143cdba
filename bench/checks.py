"""Output checks on every `lindmet run` result the benchmark produces.

Each expected row is checked once; a row that fails any check counts once in
``failed``. Missing rows fail, and a call that exits non-zero (or writes a file
that cannot be parsed) fails all of its rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from workloads import FIXED_SCHEMES, Call

CSV_HEADER = "scheme,T_s,qfi_s2,sensitivity,evals,seed,converged"
ORACLE_RTOL = 1e-6  # criterion 1: standard 1q parallel dephasing vs T^2 exp(-2 gamma T)
DOMINANCE_RTOL = 1e-6  # criterion 4: control-enhanced QFI >= standard QFI
GRID_RTOL = 1e-12
SENSITIVITY_RTOL = 1e-9


@dataclass
class Row:
    scheme: str
    T: float
    qfi: float
    sensitivity: float
    evals: int
    seed: int
    converged: bool


@dataclass
class CallCheck:
    """Outcome of checking one call's output."""

    expected: int
    failed: int = 0
    evals: int = 0
    rows: list = field(default_factory=list)  # parsed Row per expected index, or None
    problems: list = field(default_factory=list)

    def fail_all(self, reason: str) -> "CallCheck":
        self.failed = self.expected
        self.problems.append(reason)
        return self


def parse_row(line: str) -> Row:
    cells = line.split(",")
    if len(cells) != 7 or cells[6] not in ("true", "false"):
        raise ValueError(f"malformed row {line!r}")
    return Row(cells[0], float(cells[1]), float(cells[2]), float(cells[3]),
               int(cells[4]), int(cells[5]), cells[6] == "true")


def split_result(text: str) -> tuple[dict, list[str]]:
    """Metadata (``## key = value`` lines) and the table lines of a result file."""
    meta, table = {}, []
    for line in text.splitlines():
        if line.startswith("##"):
            key, _, value = line[2:].partition("=")
            meta[key.strip()] = value.strip()
        elif not line.startswith("#"):
            table.append(line)
    return meta, table


def _row_problem(call: Call, seed: int, row: Row, scheme: str, T: float) -> str | None:
    if row.scheme != scheme:
        return f"scheme {row.scheme!r}, expected {scheme!r}"
    if not abs(row.T - T) <= GRID_RTOL * T:
        return f"T={row.T!r}, expected {T!r}"
    if not (math.isfinite(row.qfi) and row.qfi >= 0.0):
        return f"QFI {row.qfi!r} is not finite and non-negative"
    if row.qfi > 0.0:
        want = math.sqrt(row.T / row.qfi)  # gamma_c = 1
        if not abs(row.sensitivity - want) <= SENSITIVITY_RTOL * want:
            return f"sensitivity {row.sensitivity!r}, expected {want!r}"
    elif row.sensitivity != math.inf:
        return f"zero QFI with finite sensitivity {row.sensitivity!r}"
    if row.seed != seed:
        return f"seed {row.seed}, expected {seed}"
    if (row.evals == 0) != (scheme in FIXED_SCHEMES) or row.evals < 0:
        return f"{row.evals} evaluations for scheme {scheme}"
    if call.scenario == "parallel-dephasing-1q" and scheme == "standard":
        gamma = dict(call.rates)["gamma"]
        oracle = row.T ** 2 * math.exp(-2.0 * gamma * row.T)
        if not abs(row.qfi - oracle) <= ORACLE_RTOL * oracle:
            return f"QFI {row.qfi!r} misses the analytic {oracle!r}"
    return None


def check_call(call: Call, seed: int, exit_code: int, text: str | None,
               dat_texts: dict, backend: str,
               reference: list[str] | None = None) -> CallCheck:
    """Check one call's result file (and its gnuplot files when plotted).

    ``dat_texts`` maps ``"<scheme>.<qfi|sensitivity>"`` to file contents;
    ``reference`` holds the data lines of an earlier run of the same config,
    which this one must reproduce exactly.
    """
    expected = call.expected_rows()
    check = CallCheck(len(expected), rows=[None] * len(expected))
    if exit_code != 0 or text is None:
        return check.fail_all(f"{call.name}: exit code {exit_code}")
    meta, table = split_result(text)
    if meta.get("kernel") != backend:
        return check.fail_all(f"{call.name}: kernel {meta.get('kernel')!r} "
                              f"in the file, {backend!r} loaded")
    if not table or table[0] != CSV_HEADER:
        return check.fail_all(f"{call.name}: bad CSV header")
    lines = table[1:]
    if len(lines) > len(expected):
        return check.fail_all(f"{call.name}: {len(lines)} rows, expected {len(expected)}")

    bad = {}
    for j, (scheme, T) in enumerate(expected):
        if j >= len(lines):
            bad[j] = "missing row"
            continue
        try:
            row = parse_row(lines[j])
        except ValueError as exc:
            bad[j] = str(exc)
            continue
        check.rows[j] = row
        check.evals += max(row.evals, 0)
        problem = _row_problem(call, seed, row, scheme, T)
        if problem is None and reference is not None and lines[j] != reference[j]:
            problem = "differs from the first run of the same config"
        if problem is not None:
            bad[j] = problem

    points = len(call.times())
    by_scheme = {s: check.rows[i * points:(i + 1) * points]
                 for i, s in enumerate(call.schemes)}
    if "standard" in by_scheme and "control_enhanced" in by_scheme:
        base = call.schemes.index("control_enhanced") * points
        for i, (std, ctl) in enumerate(zip(by_scheme["standard"],
                                           by_scheme["control_enhanced"])):
            if std and ctl and ctl.qfi < std.qfi * (1.0 - DOMINANCE_RTOL):
                bad.setdefault(base + i, f"control-enhanced QFI {ctl.qfi!r} "
                                         f"below standard {std.qfi!r}")
    if call.plot_data:
        for s_index, scheme in enumerate(call.schemes):
            for column, kind in ((2, "qfi"), (3, "sensitivity")):
                dat = dat_texts.get(f"{scheme}.{kind}")
                dat_lines = dat.splitlines() if dat is not None else []
                for i in range(points):
                    j = s_index * points + i
                    if j >= len(lines):
                        continue
                    cells = lines[j].split(",")
                    want = f"{cells[1]} {cells[column]}" if len(cells) > column else None
                    if i >= len(dat_lines) or dat_lines[i] != want:
                        bad.setdefault(j, f"{scheme}.{kind}.dat line {i + 1} "
                                          "does not match the CSV")
    check.failed = len(bad)
    check.problems.extend(f"{call.name} row {j + 1}: {why}" for j, why in sorted(bad.items()))
    return check


def gain_ratios(call: Call, check: CallCheck) -> list[float]:
    """Best non-standard QFI over standard QFI at each T the call reports both."""
    points = len(call.times())
    if "standard" not in call.schemes or len(call.schemes) < 2:
        return []
    rows = {s: check.rows[i * points:(i + 1) * points]
            for i, s in enumerate(call.schemes)}
    ratios = []
    for i, std in enumerate(rows["standard"]):
        others = [r[i].qfi for s, r in rows.items() if s != "standard" and r[i]]
        if std and std.qfi > 0.0 and others:
            ratios.append(max(others) / std.qfi)
    return ratios
