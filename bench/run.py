#!/usr/bin/env python3
"""lindmet's benchmark: end-to-end workloads through `lindmet run`, traced by layer.

    python3 bench/run.py --workload {search-1q,search-2q,sweep} --seed N
                         --seconds S --trace {0,1}

Run from the repository root. Each workload writes its `lindmet run`
configs (the seed reaches the program only as the config's ``seed``) and
calls ``lindmet.cli.main`` in this process, one call after another (a closed
loop with one caller). A pass is one round of the workload's calls; passes
repeat the same configs until ``--seconds`` is used up, and every pass's
output is checked. BLAS and OpenMP threads are pinned to one before numpy
loads.

``--trace 0`` prints the end-to-end metrics, measured untraced. Their times
are scaled to a fixed host speed, set by a numpy/scipy reference loop timed
between passes and between set-up probes (see ``reference_block``); the
unscaled times are printed too. ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics:
self times and counts at each layer boundary, the tracing overhead, and the
kernel and objective timed in isolation. Metric names and units come from
BENCHMARK.json. The last line of stdout is one JSON object; the lines before
it repeat each metric with its unit, ``failed_frac`` and the run's label
(git revision, kernel backend, numpy/scipy versions, CPU count). The same
record is written to ``.bench_out/records/``; ``bench/compare.py`` compares
two sets of records and refuses to mix kernel backends.
"""
import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREADS:  # numpy is imported after this, inside functions
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_PASSES = 3
# Reported times are scaled to the host speed at which one reference block takes
# this long (see reference_block).
REFERENCE_S = 0.8


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def label() -> dict:
    import numpy
    import scipy

    import lindmet

    try:
        rev = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "git_rev": rev or "unknown",
        "backend": lindmet.KERNEL_BACKEND,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in PINNED_THREADS},
    }


class Workload:
    """The generated configs of one workload and the passes run over them."""

    def __init__(self, calls, seed: int, work: Path, backend: str):
        self.calls, self.seed, self.work, self.backend = calls, seed, work, backend
        self.configs = {}
        for call in calls:
            path = work / f"{call.name}.cfg"
            path.write_text(call.config_text(seed))
            self.configs[call.name] = path
        self.references = {}  # call name -> data lines of the first pass

    def _outputs(self, call):
        out = self.work / f"{call.name}.csv"
        dats = {f"{s}.{k}": self.work / f"{call.name}.{s}.{k}.dat"
                for s in call.schemes for k in ("qfi", "sensitivity")} if call.plot_data else {}
        return out, dats

    def run_pass(self, tracer=None) -> dict:
        """Run every call once; time the `cli.main` calls only, then check outputs."""
        from lindmet.cli import main

        from checks import check_call, split_result

        wall, codes = 0.0, {}
        for call in self.calls:
            out, dats = self._outputs(call)
            for path in (out, *dats.values()):
                path.unlink(missing_ok=True)
            argv = ["run", "--config", str(self.configs[call.name]), "--out", str(out)]
            if call.plot_data:
                argv.append("--plot-data")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                try:
                    code = (main(argv) if tracer is None
                            else tracer.call("cli.main", main, (argv,)))
                except Exception:  # a crash fails the call's rows; the run goes on
                    code = None
                    traceback.print_exc()
                wall += time.perf_counter() - t0
            if code != 0:
                sys.stderr.write(f"{call.name}: exit {code}\n{stderr.getvalue()}")
            codes[call.name] = code

        checks, written = [], 0
        for call in self.calls:
            out, dats = self._outputs(call)
            text = out.read_text() if out.is_file() else None
            dat_texts = {k: p.read_text() for k, p in dats.items() if p.is_file()}
            written += sum(p.stat().st_size for p in (out, *dats.values()) if p.is_file())
            check = check_call(call, self.seed, codes[call.name], text, dat_texts,
                               self.backend, self.references.get(call.name))
            if call.name not in self.references and text is not None and not check.failed:
                self.references[call.name] = split_result(text)[1][1:]
            for problem in check.problems[:5]:
                sys.stderr.write(f"check failed: {problem}\n")
            checks.append(check)
        return {"wall": wall, "checks": checks, "bytes": written}


def pass_counts(result) -> tuple[int, int, int, int]:
    """Expected rows, failed rows, rows that passed, and QFI evaluations."""
    expected = sum(c.expected for c in result["checks"])
    failed = sum(c.failed for c in result["checks"])
    rows = sum(1 for c in result["checks"] for r in c.rows if r is not None)
    evals = sum(c.evals for c in result["checks"])
    return expected, failed, expected - failed, evals + rows


def reference_block() -> float:
    """Seconds taken by a fixed workload that does not involve lindmet.

    The host's CPU speed drifts by tens of percent over minutes (identical
    passes measured 1.9 s and 3.2 s on a shared 2-vCPU host), so reference
    blocks are timed between the measured phases and every reported time is
    scaled to the speed at which a block takes REFERENCE_S. The block mixes
    4x4 and 16x16 scipy exponentials with a plain Python loop, because no
    single kind of work tracked the drift of all three workloads. Unscaled
    times are printed alongside.
    """
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    small = rng.standard_normal((20, 4, 4)) * 0.5 + 1j * rng.standard_normal((20, 4, 4)) * 0.5
    large = rng.standard_normal((8, 16, 16)) * 0.2 + 1j * rng.standard_normal((8, 16, 16)) * 0.2
    h = rng.standard_normal((4, 4))
    h = h + h.T
    t0 = time.perf_counter()
    for _ in range(400):
        v = np.ones(4, dtype=complex)
        for a in small:
            v = scipy.linalg.expm(a) @ v
        np.linalg.eigh(h)
    for _ in range(480):
        for b in large:
            scipy.linalg.expm(b)
    acc = 0
    for i in range(4_000_000):
        acc += i % 7
    return time.perf_counter() - t0


def speed_scale(refs) -> float:
    """Factor that converts host seconds into seconds at reference speed."""
    return REFERENCE_S / statistics.median(refs)


def setup_times(paths: list) -> dict:
    """Median phase times of SETUP_PROBES fresh processes (``setup_s`` is their
    total at reference speed)."""
    runs, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(reference_block())
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *map(str, paths)],
            capture_output=True, text=True, timeout=120, env=os.environ.copy())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    med = lambda key: statistics.median(r[key] for r in runs)
    total = statistics.median(sum(r.values()) for r in runs)
    print(f"set-up: reference block median {statistics.median(refs):.4f} s; "
          f"unscaled setup_s = {total:.6g} s")
    return {
        "setup_s": total * speed_scale(refs),
        "setup.import_s": med("import_s"),
        "config.load_s": med("load_s"),
        "channels.build_s": med("build_s"),
    }


def qfi_gain(calls, result) -> float:
    from checks import gain_ratios

    ratios = [r for call, check in zip(calls, result["checks"])
              for r in gain_ratios(call, check)]
    return math.exp(statistics.fmean(map(math.log, ratios))) if ratios else 0.0


def measure_end_to_end(workload, seconds: float, setup: dict) -> tuple[dict, list]:
    passes, refs, t_start = [], [], time.perf_counter()
    while True:
        refs.append(reference_block())
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    walls = [p["wall"] for p in passes]
    counts = [pass_counts(p) for p in passes]
    scale = speed_scale(refs)
    print(f"passes: reference block median {statistics.median(refs):.4f} s; "
          f"unscaled wall_s = {statistics.median(walls):.6g} s")
    metrics = {
        "wall_s": statistics.median(walls) * scale,
        "evals_per_s": statistics.median(c[3] / w for c, w in zip(counts, walls)) / scale,
        "rows_per_s": statistics.median(c[2] / w for c, w in zip(counts, walls)) / scale,
        "qfi_gain_x": qfi_gain(workload.calls, passes[0]),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, passes


def measure_layers(workload, seconds: float, setup: dict, seed: int,
                   spans_path: Path) -> tuple[dict, list]:
    from micro import micro_metrics
    from tracing import Tracer, layer_metrics

    t_start = time.perf_counter()
    metrics = micro_metrics(seed)
    plain, traced, tracers = [], [], []
    while True:
        t_pair = time.perf_counter()
        plain.append(workload.run_pass())
        tracer = Tracer()
        with tracer.installed():
            traced.append(workload.run_pass(tracer))
        tracers.append(tracer)
        now = time.perf_counter()
        if now - t_start + (now - t_pair) > seconds:
            break
    per_pass = [layer_metrics(t) | {"harness.bytes_written": p["bytes"]}
                for t, p in zip(tracers, traced)]
    for name in per_pass[0]:
        metrics[name] = statistics.median(m[name] for m in per_pass)
    metrics.update({k: v for k, v in setup.items() if k != "setup_s"})
    metrics["trace.overhead_frac"] = (statistics.median(p["wall"] for p in traced)
                                      / statistics.median(p["wall"] for p in plain) - 1.0)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracers[-1].write(spans_path)
    return metrics, plain + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lindmet" / "__init__.py").is_file():
        print(f"error: no lindmet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, warmup_calls

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    run_label = label()
    calls = WORKLOADS[args.workload]
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(calls, args.seed, work, run_label["backend"])
        setup = setup_times(list(workload.configs.values()))
        Workload(warmup_calls(calls), args.seed, work, run_label["backend"]).run_pass()
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}.csv"
            metrics, passes = measure_layers(workload, args.seconds, setup, args.seed, spans)
        else:
            metrics, passes = measure_end_to_end(workload, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    attempted = sum(pass_counts(p)[0] for p in passes)
    failed = sum(pass_counts(p)[1] for p in passes)
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} rows)")
    print("pass walls = " + " ".join(f"{p['wall']:.3f}" for p in passes) + " s")
    print("label = " + json.dumps(run_label))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = OUT_DIR / "records" / f"{args.workload}.trace{args.trace}.seed{args.seed}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "label": run_label, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
