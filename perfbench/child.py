"""Run one skipsim CLI command in this fresh interpreter and report timings.

    python3 child.py REPORT_JSON TRACE(0|1) SKIPSIM_ARGS...

The report holds the monotonic time at which set-up ended (skipsim
imported and load_config returned), the time cli.main returned, its exit
code and this process's peak RSS. With TRACE 1 the spans and counters of
perfbench/tracer.py go to REPORT_JSON.trace, and the report holds how long
writing them took.
"""

import json
import resource
import sys
import time


def main():
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    import skipsim.cli
    from skipsim import config
    if tracer is not None:
        tracer.install()
    config_path = argv[argv.index("--config") + 1] if "--config" in argv else None
    config.load_config(config_path)
    ready = time.monotonic()
    try:
        code = skipsim.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    done = time.monotonic()
    report = {
        "module": skipsim.__file__,
        "ready": ready,
        "done": done,
        "code": code,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        with open(report_path + ".trace", "w") as fh:
            json.dump({"cache": skipsim.gait.nominal_cycle_times.cache_info()
                       ._asdict(), **tracer.dump()}, fh)
        report["dump_s"] = time.monotonic() - done
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
