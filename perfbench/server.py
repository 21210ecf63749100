"""The server process the benchmark measures.

Run as ``python3 perfbench/server.py CONFIG_JSON [SPANS_PATH]`` with the
program's ``src`` directory on ``PYTHONPATH``.  It builds a
``QueryService`` from the ``ServerConfig`` fields in ``CONFIG_JSON``
(``corpora`` holds ``CorpusSpec`` fields), binds it with
``create_server`` on a free port, prints ``PORT <n>`` and serves until
SIGTERM.  With ``SPANS_PATH`` it first wraps the layers' public calls
(see ``install_tracing``) and writes the recorded spans there on exit.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder  # noqa: E402


def _size(result) -> float:
    return float(len(result))


def _hit(result) -> float:
    return 0.0 if result is None else 1.0


def _program_hit(result) -> float:
    return 1.0 if result[1] else 0.0


def install_tracing(recorder: Recorder) -> None:
    """Wrap each layer's public calls where their callers look them up.

    A module-level function is patched in the namespace of each module
    that imported it by name (``repro.engine.session.parse`` and
    ``repro.server.service._parse_query`` as well as
    ``repro.algebra.parser.parse``); a method is patched on its class.
    ``vm.machine.execute`` is patched in its own module because the
    evaluator imports it at call time.
    """
    import repro.algebra.parser as parser_module
    import repro.backend.frontier as frontier_module
    import repro.engine.session as session_module
    import repro.server.service as service_module
    import repro.vm.machine as machine_module
    from repro.algebra.evaluator import Evaluator
    from repro.backend.frontier import FrontierExecutor
    from repro.backend.httpclient import HTTPBackend
    from repro.backend.replication import ReplicationCoordinator
    from repro.engine.session import Engine
    from repro.ingest.live import LiveCorpus
    from repro.ingest.wal import WriteAheadLog
    from repro.server.cache import ResultCache
    from repro.server.http import _Handler
    from repro.server.service import QueryService

    patch = recorder.patch
    patch(_Handler, "do_POST", "http.request")
    patch(_Handler, "_json", "http.respond")
    patch(QueryService, "execute", "service.execute")
    patch(QueryService, "ingest", "ingest.commit")
    patch(QueryService, "compact", "compactor.compact")
    patch(ResultCache, "get", "cache.get", _hit)
    patch(Engine, "query", "engine.query", _size)
    patch(Engine, "normalize", "engine.normalize")
    patch(parser_module, "parse", "parser.parse")
    patch(session_module, "parse", "parser.parse")
    patch(service_module, "_parse_query", "parser.parse")
    patch(session_module, "optimize", "optimize.optimize")
    patch(Evaluator, "compiled_program", "vm.compile", _program_hit)
    patch(machine_module, "execute", "vm.execute", _size)
    patch(FrontierExecutor, "run", "frontier.run")
    patch(frontier_module, "merge_region_sets", "frontier.merge", _size)
    patch(HTTPBackend, "shard_query", "httpclient.shard_query")
    patch(LiveCorpus, "prepare", "live.prepare")
    patch(LiveCorpus, "commit", "live.commit")
    patch(WriteAheadLog, "append_batch", "wal.append")
    patch(ReplicationCoordinator, "ship", "replication.ship")


def main(argv: list[str]) -> int:
    settings = json.loads(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    recorder = Recorder() if spans_path else None
    if recorder is not None:
        install_tracing(recorder)

    from repro.server import CorpusSpec, QueryService, ServerConfig, create_server

    corpora = tuple(CorpusSpec(**spec) for spec in settings.pop("corpora"))
    service = QueryService(ServerConfig(corpora=corpora, **settings))
    server = create_server(service, port=0)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda _signo, _frame: stop.set())
    thread = server.serve_in_background()
    print(f"PORT {server.bound_port}", flush=True)
    while not stop.wait(0.2):
        pass
    server.stop()
    thread.join(timeout=10.0)
    if recorder is not None:
        recorder.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
