"""The repository benchmark: client-side ``POST /query`` and ``/ingest``
latency against a real HTTP server, with per-layer spans timed from
outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hot-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1        # every workload, both modes
    python3 perfbench/run.py --determinism --seed 1

One run launches ``perfbench/server.py`` (``QueryService`` +
``create_server``) in its own process group, ``setups`` times, and keeps
the last one.  It then drives, from this process and over at most
``nproc`` threads: a warm-up, an open loop at the workload's fixed
rates for ``open_share`` of ``--seconds`` (a fresh connection per
request, see ``load``), and a closed loop of ``nproc`` keep-alive
clients for the rest.  After the timed phases it
checks every answer against the naive evaluator, stops the server tree,
and prints a report followed, on the last line, by one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics — the end-to-end
ones with ``--trace 0``, the per-layer ones with ``--trace 1`` (the
server then wraps each layer's public calls and records spans).  The
gated latency is the open loop's p10; why, and what is printed beside
it ungated, is in ``gated_rule`` in ``perfbench/workloads.json``.

Exit codes: 0 a measured run; 1 a wrong answer (the JSON still prints,
with ``correct: false``); 2 the program is missing or failed to start;
3 an invalid run (the generator fell behind schedule, or too few
samples for a reported percentile).  Settings live in
``perfbench/workloads.json``; metric names and units in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter, sleep
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from load import Outcome, closed_loop, open_loop  # noqa: E402
from spans import load_spans, percentile  # noqa: E402

SETTINGS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
HOST = "127.0.0.1"
_READY_TIMEOUT = 120.0
_STOP_TIMEOUT = 30.0


class BenchError(Exception):
    """A run that cannot report: ``code`` is the exit status."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# The server process tree.
# ----------------------------------------------------------------------


class ServerProcess:
    """``perfbench/server.py`` in a process group of its own."""

    def __init__(self, settings: dict[str, Any], spans_path: Path | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        # One string-hash layout for every run, so dict and set
        # behaviour does not differ from one server process to the next.
        env["PYTHONHASHSEED"] = "0"
        argv = [sys.executable, str(HERE / "server.py"), json.dumps(settings)]
        if spans_path is not None:
            argv.append(str(spans_path))
        started = perf_counter()
        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        try:
            line = self.process.stdout.readline()
            if not line.startswith("PORT "):
                raise BenchError(2, "the server process exited before binding a port")
            self.port = int(line.split()[1])
            self._await_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = perf_counter() - started

    def _await_healthy(self) -> None:
        deadline = monotonic() + _READY_TIMEOUT
        while monotonic() < deadline:
            if self.process.poll() is not None:
                raise BenchError(2, "the server process exited during start-up")
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            sleep(0.005)
        raise BenchError(2, "the server did not answer /healthz in time")

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(HOST, self.port, timeout=10.0)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def get_json(self, path: str) -> dict[str, Any]:
        status, body = self.get(path)
        if status != 200:
            raise BenchError(2, f"GET {path} answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """Peak resident set size summed over the server and its children."""
        total_kb = 0
        for pid in _process_tree(self.process.pid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM, wait; then make sure nothing of the group survives."""
        group = self.process.pid
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        deadline = monotonic() + 10.0
        while _group_members(group) and monotonic() < deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                break
            if self.process.poll() is None:
                self.process.wait(timeout=5.0)
            sleep(0.05)
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def _process_tree(pid: int) -> list[int]:
    pids, index = [pid], 0
    while index < len(pids):
        try:
            tasks = os.listdir(f"/proc/{pids[index]}/task")
        except OSError:
            tasks = []
        for task in tasks:
            try:
                children = Path(f"/proc/{pids[index]}/task/{task}/children").read_text()
            except OSError:
                continue
            pids.extend(int(child) for child in children.split())
        index += 1
    return pids


def _group_members(group: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[2]) == group:
            members.append(int(entry))
    return members


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(2, f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _server_settings(workload: dict[str, Any], ingest_dir: Path) -> dict:
    from streams import corpus_spec

    settings = dict(workload["server"], corpora=[corpus_spec(workload)])
    if settings.get("ingest_enabled"):
        settings["ingest_dir"] = str(ingest_dir)
    return settings


def _request_counts(workload: dict[str, Any], seconds: float) -> dict[str, Any]:
    warmup = SETTINGS["warmup_seconds"]
    open_seconds = seconds * SETTINGS["open_share"]
    return {
        "warmup": warmup,
        "open": open_seconds,
        "closed": seconds - open_seconds,
        "reads": round(workload["reads"]["rate"] * (warmup + open_seconds)),
        "warmup_reads": round(workload["reads"]["rate"] * warmup),
        "writes": round(workload["writes"]["rate"] * (warmup + open_seconds))
        if workload["writes"]
        else 0,
    }


def plan(name: str, seed: int, seconds: float) -> dict[str, Any]:
    """The run's pre-drawn requests (a pure function of its arguments)."""
    from streams import digest, read_requests, read_texts, write_requests

    workload = SETTINGS["workloads"][name]
    counts = _request_counts(workload, seconds)
    reads = workload["reads"]
    open_reads = read_requests(
        read_texts(reads, seed, "warmup", counts["warmup_reads"])
        + read_texts(reads, seed, "open", counts["reads"] - counts["warmup_reads"]),
        reads["rate"],
    )
    closed_count = max(1, round(200 * counts["closed"]))
    closed_reads = read_requests(read_texts(reads, seed, "closed", closed_count), None)
    writes = (
        write_requests(workload["writes"], seed, counts["writes"])
        if workload["writes"]
        else []
    )
    return {
        "workload": workload,
        "counts": counts,
        "open_reads": open_reads,
        "closed_reads": closed_reads,
        "writes": writes,
        "digest": digest(open_reads, closed_reads, writes),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Measure one workload; returns the result object and a report."""
    _require_program()
    from oracle import Oracle, base_text

    drawn = plan(name, seed, seconds)
    workload, counts = drawn["workload"], drawn["counts"]
    run_dir = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spans_path = run_dir / "spans.json" if trace else None
    setups = 1 if trace else SETTINGS["setups"]
    setup_times: list[float] = []
    server = None
    try:
        for attempt in range(setups):
            settings = _server_settings(workload, run_dir / f"wal-{attempt}")
            last = attempt == setups - 1
            server = ServerProcess(settings, spans_path if last else None)
            setup_times.append(server.setup_seconds)
            if not last:
                server.stop()
        assert server is not None
        corpora = server.get_json("/corpora")["corpora"]

        # Timed phases: warm-up + open loop (one schedule), then closed loop.
        start = perf_counter() + 0.05
        window = (start + counts["warmup"], start + counts["warmup"] + counts["open"])
        results: dict[str, list[Outcome]] = {}

        def drive(key: str, requests, senders: int) -> None:
            results[key] = open_loop(HOST, server.port, requests, senders, start)

        senders = workload["reads"]["senders"]
        loops = [threading.Thread(target=drive, args=("reads", drawn["open_reads"], senders))]
        if drawn["writes"]:
            senders = workload["writes"]["senders"]
            loops.append(
                threading.Thread(target=drive, args=("writes", drawn["writes"], senders))
            )
        for loop in loops:
            loop.start()
        for loop in loops:
            loop.join()
        closed_started = perf_counter()
        closed = closed_loop(
            HOST, server.port, drawn["closed_reads"], SETTINGS["nproc"], counts["closed"]
        )
        closed_seconds = perf_counter() - closed_started

        rss_mb = server.peak_rss_mb()
        snapshot = server.get_json("/metrics")
        final: list[Outcome] = []
        if drawn["writes"]:
            final = _final_reads(server.port)
    finally:
        if server is not None:
            server.stop()
    spans = load_spans(str(spans_path)) if trace else []
    shutil.rmtree(run_dir, ignore_errors=True)

    reads, writes = results["reads"], results.get("writes", [])
    in_window = lambda o: o.due >= window[0]  # noqa: E731
    open_reads = [o for o in reads if in_window(o)]
    open_writes = [o for o in writes if in_window(o)]
    every = reads + writes + closed + final

    # Answer check.
    text = base_text(workload["corpus"])
    if drawn["writes"]:
        acked = [o.request.key for o in writes if o.status == 200]
        oracle = Oracle.after_writes(text, acked)
        wrong = oracle.wrong(final)
    else:
        oracle = Oracle.for_text(text)
        if oracle.regions != corpora[0]["regions"]:
            raise BenchError(2, "the oracle corpus differs from the served one")
        wrong = oracle.wrong(reads + closed)
    failed = sum(1 for o in every if o.status != 200) + len(wrong)

    lateness = [o.lateness for o in open_reads + open_writes]
    lateness_tail = percentile(lateness, SETTINGS["tail"])
    if lateness_tail is None:
        raise BenchError(3, "too few open-loop requests for the lateness tail")
    if lateness_tail * 1e3 > SETTINGS["max_lateness_p95_ms"]:
        raise BenchError(
            3,
            f"invalid run: the generator ran {lateness_tail * 1e3:.1f} ms late "
            f"at p95 (limit {SETTINGS['max_lateness_p95_ms']} ms)",
        )

    report: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "digest": drawn["digest"],
        "requests": {
            "open_reads": len(open_reads),
            "open_writes": len(open_writes),
            "closed_reads": len(closed),
            "final_reads": len(final),
            "statuses": _statuses(every),
        },
        "wrong_answers": wrong[:10],
    }
    if trace:
        from layers import per_layer

        metrics = per_layer(
            open_reads=open_reads,
            open_writes=open_writes,
            closed_reads=closed,
            all_outcomes=every,
            acked_user_bytes=sum(
                len(json.dumps(o.request.key)) for o in writes if o.status == 200
            ),
            snapshot=snapshot,
            spans=spans,
            window=window,
            tail_fraction=SETTINGS["tail"],
            lateness=lateness,
            closed_seconds=closed_seconds,
        )
        report["spans"] = len(spans)
    else:
        # A failed read misses every latency limit: it counts as infinite.
        latencies = [
            o.latency * 1e3 if o.status == 200 else float("inf") for o in open_reads
        ]
        gated = percentile(latencies, SETTINGS["gated_percentile"])
        if gated == float("inf"):
            raise BenchError(3, "most of the open-loop reads failed")
        writes_ms = [o.latency * 1e3 for o in open_writes]
        report["ungated_ms"] = {
            "query_p50_ms": statistics.median(latencies),
            "query_p95_ms": percentile(latencies, SETTINGS["tail"]),
            "ingest_p50_ms": statistics.median(writes_ms) if writes_ms else None,
            "ingest_p95_ms": percentile(writes_ms, SETTINGS["tail"]),
        }
        metrics = {
            "query_p10_ms": gated,
            "peak_qps": sum(1 for o in closed if o.status == 200) / closed_seconds,
            "ok_ratio": 1.0 - failed / len(every),
            "setup_s": statistics.median(setup_times),
            "server_rss_mb": rss_mb,
        }
        report["setup_s"] = setup_times
        report["error_ratio"] = failed / len(every)
    return {
        "correct": not wrong,
        "attempted": len(every),
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }


def _final_reads(port: int) -> list[Outcome]:
    """After the writes: every PLAY_QUERIES text and ``document`` at the
    final generation, uncached, one at a time."""
    from load import Request
    from streams import CORPUS

    from repro.workloads.queries import PLAY_QUERIES

    texts = list(PLAY_QUERIES.values()) + ["document"]
    requests = [
        Request(
            "/query",
            json.dumps({"query": text, "corpus": CORPUS, "use_cache": False}).encode(),
            key=text,
        )
        for text in texts
    ]
    return open_loop(HOST, port, requests, 1, perf_counter())


def _statuses(outcomes: list[Outcome]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for outcome in outcomes:
        key = str(outcome.status) if outcome.status else "transport"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


# ----------------------------------------------------------------------
# Output.
# ----------------------------------------------------------------------


def _declared(trace: bool) -> dict[str, str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = declared["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def result_line(result: dict[str, Any], trace: bool) -> str:
    units = _declared(trace)
    metrics = result["metrics"]
    if set(units) != set(metrics):
        raise BenchError(
            2,
            "measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}",
        )
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]} for name in units
            },
        }
    )


def print_report(result: dict[str, Any], trace: bool) -> None:
    units = _declared(trace)
    report = result["report"]
    mode = "traced, per-layer" if trace else "untraced, end-to-end"
    print(f"# {report['workload']} (seed {report['seed']}, {mode})")
    print(f"#   requests {json.dumps(report['requests'])}")
    for name, unit in units.items():
        print(f"#   {name:34s} {result['metrics'][name]:14.4f} {unit}")
    if not trace:
        # Reported, not gated: see "gated_rule" in perfbench/workloads.json.
        for name, value in report["ungated_ms"].items():
            shown = "no samples" if value is None else f"{value:14.4f} ms"
            print(f"#   {name:34s} {shown}")
        print(f"#   {'error_ratio':34s} {report['error_ratio']:14.4f} ratio")
    for line in report["wrong_answers"]:
        print(f"#   WRONG ANSWER {line}")
    print("# " + json.dumps(report))


# ----------------------------------------------------------------------
# Command line.
# ----------------------------------------------------------------------


def _one(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result, bool(args.trace))
    print(result_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


def _all(args) -> int:
    """Every workload untraced then traced: e2e, per-layer, overhead."""
    status = 0
    for name in SETTINGS["workloads"]:
        plain = run_workload(name, args.seed, args.seconds, False)
        print_report(plain, False)
        traced = run_workload(name, args.seed, args.seconds, True)
        print_report(traced, True)
        p50 = plain["report"]["ungated_ms"]["query_p50_ms"]
        qps = plain["metrics"]["peak_qps"]
        print(
            f"# {name} tracing overhead: query_p50_ms x"
            f"{traced['metrics']['traced.query_p50_ms'] / p50:.3f}, peak_qps x"
            f"{traced['metrics']['traced.peak_qps'] / qps:.3f}"
        )
        if not (plain["correct"] and traced["correct"]):
            status = 1
    return status


def _determinism(args) -> int:
    from determinism import check

    problems = check(args.seed)
    for problem in problems:
        print(f"# NOT DETERMINISTIC: {problem}")
    print("# determinism: " + ("ok" if not problems else "failed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SETTINGS["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument(
        "--determinism", action="store_true", help="replay one seed twice and compare"
    )
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the server group is still stopped.
    signal.signal(signal.SIGTERM, lambda _signo, _frame: sys.exit(143))
    try:
        _require_program()
        if args.all:
            return _all(args)
        if args.determinism:
            return _determinism(args)
        if args.workload is None:
            parser.error("--workload is required")
        return _one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
