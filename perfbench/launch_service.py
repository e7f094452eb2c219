"""Start ``repro.service`` with benchmark spans around its entry points.

    python3 perfbench/launch_service.py --spans S.json --control C.json \
        -- --port 0 --workers 1 --artifact-dir DIR

The traced service-mix run starts the server through this launcher
instead of ``python -m repro.service``.  It installs the same wrappers
as the in-process workloads (:mod:`tracing`), then serves exactly as
the module does.  Before each job the client writes ``C.json`` —
``{"op": label, "trace": bool}`` — and the job runs traced or not
under that label, so one server yields both halves of the tracing-
overhead comparison.  Spans stay in memory and are written to
``S.json`` when the server stops (SIGINT).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--control", required=True)
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    service_args = args.service_args
    if service_args[:1] == ["--"]:
        service_args = service_args[1:]

    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)

    import repro.service.queue as queue_module
    from repro.service.__main__ import main as serve

    execute = queue_module.execute_spec

    def traced_execute(spec, *, runtime=None):
        with open(args.control) as fh:
            control = json.load(fh)
        tracer.op, tracer.enabled = control["op"], bool(control["trace"])
        try:
            return execute(spec, runtime=runtime)
        finally:
            tracer.enabled = False

    queue_module.execute_spec = traced_execute
    try:
        return serve(service_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
