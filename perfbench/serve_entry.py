"""Benchmark-owned entry point for the ``serve`` workload's server process.

Runs ``ecann.service.run_service`` on port 0 and writes the bound port
to ``--ready`` once listening.  With ``--spans`` set it first installs
the benchmark's wrappers, and on SIGINT (the service's own shutdown
path) writes the recorded spans there before exiting.

    python3 perfbench/serve_entry.py --bundle B --store S --ready F [--spans F]
"""
from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ecann.service  # noqa: E402

from tracing import Tracer, install  # noqa: E402


def _exit_with_parent(parent: int) -> None:
    """Shut down through the service's SIGINT path if the benchmark dies."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os.kill(os.getpid(), signal.SIGINT)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--ready", required=True, help="file that receives the bound port")
    parser.add_argument("--spans", default=None, help="trace and write spans here")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.phase = "load"
        install(tracer)

    make_server = ecann.service.make_server

    def announcing_make_server(*a, **kw):
        server = make_server(*a, **kw)
        ready = Path(args.ready)
        tmp = ready.with_suffix(".tmp")
        tmp.write_text(str(server.server_address[1]), encoding="ascii")
        os.replace(tmp, ready)
        if tracer is not None:
            tracer.phase = "query"
        return server

    ecann.service.make_server = announcing_make_server
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    ecann.service.run_service(args.bundle, args.store, port=0)
    if tracer is not None:
        tracer.dump(Path(args.spans))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
