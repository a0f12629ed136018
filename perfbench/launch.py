"""Child process of the benchmark: runs one matorus CLI task.

    python3 launch.py setup <config> <task>
    python3 launch.py plain <timing.json> <task> --config <config> --out <dir>
    python3 launch.py trace <timing.json> <task> --config <config> --out <dir>

``setup`` does what every CLI run does before its task starts (interpreter
start, ``import matorus``, config load) and exits. ``plain`` calls
``matorus.cli.main``, the function behind the ``matorus`` command, and
writes its wall time, CPU time and exit status to timing.json. ``trace``
does the same with the layer tracer installed and adds the spans.
PYTHONPATH must name the ``src`` directory of the checkout.
"""

import json
import resource
import sys
from time import perf_counter


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)  # all threads of this process
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    mode = argv[0]
    import matorus.cli as cli

    if mode == "setup":
        cli.load_config(argv[1], argv[2])
        return 0

    timing_path, cli_args = argv[1], argv[2:]
    tracer = None
    if mode == "trace":
        import tracer as tracing

        cost = tracing.span_cost()
        tracer = tracing.Tracer()
        tracing.install(tracer)
    cpu0, t0 = _cpu_s(), perf_counter()
    rc = cli.main(cli_args)
    t1, cpu1 = perf_counter(), _cpu_s()
    out = {"rc": rc, "task_s": t1 - t0, "cpu_s": cpu1 - cpu0}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["missing"] = tracer.missing
        out["span_cost_s"] = cost
    with open(timing_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
