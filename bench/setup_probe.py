"""Set-up cost of lindmet in a fresh process.

    python3 setup_probe.py SRC_DIR CONFIG...

Imports lindmet from SRC_DIR, loads each config and builds its model and
SlicedDynamics, then prints the three phase times as one JSON line.
"""
import json
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import lindmet

    t1 = time.perf_counter()
    configs = [lindmet.load_run_config(path) for path in sys.argv[2:]]
    t2 = time.perf_counter()
    for c in configs:
        lindmet.SlicedDynamics(lindmet.build_scenario(c.scenario, c.omega0, dict(c.rates)))
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "build_s": t3 - t2}))


if __name__ == "__main__":
    main()
