"""The three workloads: ``ingest``, ``analyst_library``, ``service_http``.

Each workload function takes the seed, the run length, a run directory
and an optional :class:`spans.Tracer`, and returns a :class:`Result`.
Set-up runs several times (:data:`SETUP_REPEATS`) and reports its
median; the measured phase repeats whole units of work until
``seconds`` have passed; the output checks run afterwards, outside the
timed region.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
#: Set-ups per run; the ingest set-up (simulating its clips) is short,
#: so it repeats more often to steady its median.
SETUP_REPEATS = {"ingest": 7, "analyst_library": 3, "service_http": 3}
#: Tail percentile per workload (nearest rank), chosen so that a run
#: holds at least ten samples beyond it.
TAIL = {"ingest": 90, "analyst_library": 95, "service_http": 95}
#: Malformed requests one client sends per block of analysts.
PROBES_PER_BLOCK = 2
CLIENTS = 2
#: End-to-end metrics, reported by every workload.
END_TO_END = ["setup_s", "peak_rss_mb", "throughput_per_s",
              "first_result_ms", "step_ms", "step_ms_tail",
              "accuracy_pct"]

now = time.perf_counter


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Failures the benchmark expects today (the malformed-request
    #: probes); any other failed operation makes the run incorrect.
    expected_failures: int = 0
    info: dict = field(default_factory=dict)


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_metric(values: list[float], p: int, problems: list[str]) -> float:
    beyond = len(values) - math.ceil(p / 100 * len(values))
    if beyond < 10:
        problems.append(f"only {beyond} samples beyond p{p}")
    return percentile(values, p)


def peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def timed_setup(workload: str, build) -> tuple[float, object]:
    """Run ``build`` :data:`SETUP_REPEATS` times; median seconds, last
    value.  ``build(i, keep)`` returns what the workload uses."""
    times, value = [], None
    repeats = SETUP_REPEATS[workload]
    for i in range(repeats):
        t0 = now()
        value = build(i, i == repeats - 1)
        times.append(now() - t0)
    return statistics.median(times), value


def corpus_from_catalog(db, clip_ids: list[str]):
    """Catalog read-back: per clip, its bags' windows and features."""
    corpus = []
    for clip in clip_ids:
        dataset = db.dataset(clip, inputs.EVENT)
        corpus.append((clip, [(b.frame_lo, b.frame_hi,
                               [i.matrix for i in b.instances])
                              for b in dataset.bags]))
    return corpus


def relevance(rankings, truth) -> float:
    """Mean count of incident-showing windows per ranking."""
    return statistics.fmean(
        sum(inputs.shows_incident(truth[c], lo, hi) for c, lo, hi in r)
        for r in rankings)


def ranking_checks(rankings, first, corpus, truth, k=inputs.TOP_K):
    """The checks every analyst workload makes on its rankings."""
    windows = {(clip, lo, hi) for clip, bags in corpus
               for lo, hi, _ in bags}
    expected = checks.initial_ranking(corpus)[:k]
    base = statistics.fmean(inputs.shows_incident(truth[c], lo, hi)
                            for c, lo, hi in windows)
    score = relevance(rankings, truth)
    problems = (checks.check_first_ranking(expected, first)
                + checks.check_rankings(rankings, windows, k)
                + checks.check_relevance(score, base, k))
    return problems, score


def trace_metrics(tracer, result: Result, *, wall_s: float, units: float,
                  extra_ms: dict | None = None,
                  catalog_mb: float = 0.0) -> None:
    folded = spans.fold(tracer.spans, wall_ns=int(wall_s * 1e9), units=units,
                        extra_ms=extra_ms)
    folded.setdefault("service.http_ms", 0.0)
    folded["db.catalog_mb"] = catalog_mb
    for name in spans.LAYER_METRICS:
        unit = ("count" if name in ("sim.frames_rendered",
                                    "db.dataset_loads")
                else "MiB" if name == "db.catalog_mb"
                else "ratio" if name == "svm.gram_hit_ratio" else "ms")
        result.metrics[name] = (folded[name], unit)


def _dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*")
               if p.is_file()) / 2 ** 20


# ------------------------------------------------------------------ ingest
def ingest(seed: int, seconds: float, run_dir: Path, tracer=None) -> Result:
    from repro.db import StreamingIngest, VideoDatabase

    result = Result()
    setup_s, sims = timed_setup(
        "ingest", lambda i, keep: inputs.ingest_clips(seed))
    if tracer is not None:
        tracer.active = True

    frames, steps, busy = 0, [], 0.0
    firsts: dict[str, list[float]] = {}
    first_pass: dict[str, tuple[int, int]] = {}
    start, passes, stop = now(), 0, False
    while not stop:
        catalog = run_dir / f"ingest-{passes}"
        catalog.mkdir()
        with VideoDatabase(catalog / "catalog.db") as db:
            for n, sim in enumerate(sims):
                emitted = [0, 0]
                t0 = last = now()
                first = None

                def progress(e, t0=t0, emitted=emitted, sim=sim):
                    nonlocal last, first
                    stamp = now()
                    steps.append(stamp - last)
                    last = stamp
                    if e.bags and first is None:
                        first = stamp - t0
                    emitted[0] += len(e.bags)
                    emitted[1] += sum(b.n_instances for b in e.bags)
                    if tracer is not None:
                        tracer.set_context(f"{passes}/{sim.name}",
                                           e.index + 1)

                if tracer is not None:
                    tracer.set_context(f"{passes}/{sim.name}", 0)
                StreamingIngest(db, sim, event=inputs.EVENT,
                                segment_frames=inputs.SEGMENT_FRAMES
                                ).run(progress=progress)
                busy += now() - t0
                frames += sim.n_frames
                result.attempted += 1
                if first is None:
                    result.problems.append(f"{sim.name}: no window bags")
                else:
                    scenario = sim.name.rsplit("-", 1)[0]
                    firsts.setdefault(scenario, []).append(first)
                if passes == 0:
                    first_pass[sim.name] = tuple(emitted)
                # Stop only after whole tunnel/intersection pairs, and
                # never before the first pass is complete.
                if (n % 2 == 1 and now() - start >= seconds
                        and (passes > 0 or n == len(sims) - 1)):
                    stop = True
                    break
        passes += 1
    wall = now() - start
    if tracer is not None:
        tracer.active = False

    # Checks on the first (always whole) pass's catalog, read back
    # through the catalog API.
    catalog = run_dir / "ingest-0"
    truth = inputs.accident_windows(sims)
    clips = [s.name for s in sims]
    with VideoDatabase(catalog / "catalog.db") as db:
        corpus = corpus_from_catalog(db, clips)
        windows = {clip: [(lo, hi) for lo, hi, _ in bags]
                   for clip, bags in corpus}
        stored = {clip: (len(bags), sum(len(m) for _, _, m in bags))
                  for clip, bags in corpus}
        journal = {c: {i: row["state"] for i, row in
                       db.ingest_state(c, inputs.EVENT).items()}
                   for c in clips}
        n_segments = {s.name: math.ceil(s.n_frames / inputs.SEGMENT_FRAMES)
                      for s in sims}
        result.problems += checks.check_incidents_covered(truth, windows)
        result.problems += checks.check_window_spans(windows)
        result.problems += checks.check_readback(first_pass, stored,
                                                 journal, n_segments)
        matched = total = 0
        for sim in sims:
            vehicles, points = _track_views(db, sim)
            share = checks.track_match_share(vehicles, points)
            result.problems += checks.check_tracks(sim.name, share)
            n = sum(len(v) for v in vehicles.values())
            matched += share * n
            total += n

    tail = TAIL["ingest"]
    m = result.metrics
    m["setup_s"] = (setup_s, "s")
    m["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    m["throughput_per_s"] = (frames / wall, "1/s")
    # Tunnel clips show their first window a segment earlier than
    # intersection clips: take the median per scenario, then their mean,
    # so neither kind's share of the run moves the figure.
    m["first_result_ms"] = (statistics.fmean(
        statistics.median(v) for v in firsts.values()) * 1e3, "ms")
    m["step_ms"] = (statistics.median(steps) * 1e3, "ms")
    m["step_ms_tail"] = (
        tail_metric(steps, tail, result.problems) * 1e3, "ms")
    m["accuracy_pct"] = (100.0 * matched / total, "%")
    result.info = {"frames": frames, "clips": result.attempted,
                   "segments": len(steps), "tail_percentile": tail,
                   "wall_s": wall}
    if tracer is not None:
        trace_metrics(tracer, result, wall_s=busy, units=frames,
                      catalog_mb=_dir_mb(catalog))
    return result


def _track_views(db, sim):
    """(true centroids in view, stored track points), keyed by frame."""
    import numpy as np

    margin = checks.TRACK_BORDER_PX
    vehicles = {}
    for frame, states in enumerate(sim.states):
        inside = [(s.x, s.y) for s in states
                  if margin <= s.x <= sim.width - margin
                  and margin <= s.y <= sim.height - margin]
        if inside:
            vehicles[frame] = np.array(inside)
    by_frame: dict[int, list] = {}
    for record in db.track_records(sim.name):
        frames, points = db.track_points(sim.name, record.track_id)
        for f, p in zip(frames, points):
            by_frame.setdefault(int(f), []).append(p)
    points = {f: np.array(p) for f, p in by_frame.items()}
    return vehicles, points


# ---------------------------------------------------------------- analysts
def _catalog_setup(run_dir: Path):
    def build(i, keep):
        sims = inputs.catalog_clips()
        path = run_dir / f"catalog-{i}" / "catalog.db"
        path.parent.mkdir()
        inputs.build_catalog(str(path), sims)
        return sims, path
    return build


def analyst_library(seed: int, seconds: float, run_dir: Path,
                    tracer=None) -> Result:
    from repro.db import MultiClipQuerySession, VideoDatabase

    result = Result()
    setup_s, (sims, path) = timed_setup("analyst_library",
                                          _catalog_setup(run_dir))
    clips = [s.name for s in sims]
    truth = inputs.accident_windows(sims)
    analysts = [inputs.Analyst(seed, k)
                for k in range(inputs.ANALYSTS_PER_PASS)]

    opens, rounds, first_pass = [], [], []
    with VideoDatabase(path) as db:
        if tracer is not None:
            tracer.active = True
        start, passes = now(), 0
        while passes == 0 or now() - start < seconds:
            for analyst in analysts:
                user = f"p{passes}a{analyst.profile}"

                def ctx(r, user=user):
                    if tracer is not None:
                        tracer.set_context(user, r)

                ctx(0)
                t0 = now()
                session = MultiClipQuerySession(
                    db, clips, inputs.EVENT, user_id=user,
                    top_k=inputs.TOP_K)
                ids = session.results()
                opens.append(now() - t0)
                shown = [_window(session, ids)]
                for r in range(inputs.ROUNDS):
                    labels = analyst.labels(r, shown[-1], truth)
                    ctx(r + 1)
                    t0 = now()
                    session.feed(dict(zip(ids, labels)))
                    ids = session.results()
                    rounds.append(now() - t0)
                    shown.append(_window(session, ids))
                result.attempted += 1 + inputs.ROUNDS
                if passes == 0:
                    first_pass.append(shown)
            passes += 1
        wall = now() - start
        if tracer is not None:
            tracer.active = False
        busy = sum(opens) + sum(rounds)
        corpus = corpus_from_catalog(db, clips)

    rankings = [r for shown in first_pass for r in shown]
    problems, score = ranking_checks(rankings, rankings[0], corpus, truth)
    result.problems += problems
    _analyst_metrics(result, "analyst_library", setup_s, peak_rss_mb(),
                     opens, rounds, wall, score)
    result.info = {"sessions": len(opens), "rounds": len(rounds),
                   "wall_s": wall, "tail_percentile":
                   TAIL["analyst_library"]}
    if tracer is not None:
        trace_metrics(tracer, result, wall_s=busy, units=len(opens),
                      catalog_mb=_dir_mb(path.parent))
    return result


def _window(session, ids):
    out = []
    for b in ids:
        bag = session.dataset.bag_by_id(b)
        out.append((bag.clip_id, bag.frame_lo, bag.frame_hi))
    return out


def _analyst_metrics(result, workload, setup_s, rss, opens, rounds, wall,
                     score):
    m = result.metrics
    m["setup_s"] = (setup_s, "s")
    m["peak_rss_mb"] = (rss, "MiB")
    m["throughput_per_s"] = (len(rounds) / wall, "1/s")
    m["first_result_ms"] = (statistics.median(opens) * 1e3, "ms")
    m["step_ms"] = (statistics.median(rounds) * 1e3, "ms")
    m["step_ms_tail"] = (tail_metric(rounds, TAIL[workload],
                                     result.problems) * 1e3, "ms")
    m["accuracy_pct"] = (100.0 * score / inputs.TOP_K, "%")


# ----------------------------------------------------------------- service
class Server:
    """``repro serve`` in its own process, via the launcher."""

    def __init__(self, db_path: Path, log: Path, trace_out: Path | None):
        cmd = [sys.executable, str(HERE / "serve.py"), "--db", str(db_path)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._log, env=os.environ.copy())
        self.port = None
        for line in self.proc.stdout:
            text = line.decode()
            if text.startswith("serving retrieval API on "):
                self.port = int(text.strip().rsplit(":", 1)[1])
                break
        if self.port is None:
            self.stop()
            raise RuntimeError(f"server did not start; see {log}")
        deadline = now() + 60
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=10)
                conn.request("GET", "/")
                ok = conn.getresponse().status == 200
                conn.close()
                if ok:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or now() > deadline:
                self.stop()
                raise RuntimeError(f"server did not answer; see {log}")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()


class Client:
    """One keep-alive connection; runs its share of each block."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=60)
        self.opens: list[float] = []
        self.rounds: list[float] = []
        self.request_s = 0.0
        self.attempted = self.failed = self.probes_failed = 0
        self.problems: list[str] = []
        self.shown: dict[int, list] = {}

    def request(self, method, target, doc=None):
        body = json.dumps(doc).encode() if doc is not None else None
        t0 = now()
        self.conn.request(method, target, body=body,
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        payload = resp.read()
        self.request_s += now() - t0
        return resp.status, json.loads(payload)

    def session(self, analyst, user, clips, truth, keep: bool) -> None:
        t0 = now()
        status, doc = self.request("POST", "/sessions", {
            "user": user, "clips": clips, "event": inputs.EVENT,
            "top_k": inputs.TOP_K})
        if status != 201:
            raise RuntimeError(f"create {user}: {status} {doc}")
        sid = doc["session"]
        shown = [self.results(sid)]
        self.opens.append(now() - t0)
        self.attempted += 1
        for r in range(inputs.ROUNDS):
            ids, windows = shown[-1]
            labels = analyst.labels(r, windows, truth)
            t0 = now()
            status, doc = self.request(
                "POST", f"/sessions/{sid}/feed",
                {"labels": {str(b): v for b, v in zip(ids, labels)}})
            if status != 200:
                raise RuntimeError(f"feed {sid}: {status} {doc}")
            shown.append(self.results(sid))
            self.rounds.append(now() - t0)
            self.attempted += 1
        if keep:
            self.shown[analyst.profile] = [w for _, w in shown]

    def results(self, sid):
        status, doc = self.request("GET", f"/sessions/{sid}/results")
        if status != 200:
            raise RuntimeError(f"results {sid}: {status} {doc}")
        rows = doc["results"]
        return ([r["bag_id"] for r in rows],
                [(r["clip_id"], r["frame_lo"], r["frame_hi"]) for r in rows])

    def probe(self) -> None:
        """A body length of -5 must get a 400 and leave the server up."""
        self.attempted += 1
        head = b""
        try:
            with socket.create_connection(("127.0.0.1", self.port),
                                          timeout=30) as sock:
                sock.sendall(b"POST /sessions HTTP/1.1\r\n"
                             b"Host: 127.0.0.1\r\n"
                             b"Content-Type: application/json\r\n"
                             b"Content-Length: -5\r\n\r\n")
                while b"\r\n" not in head:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    head += chunk
        except OSError:
            pass  # a reset connection is no answer either
        if not head.startswith(b"HTTP/1.1 400 "):
            self.failed += 1
            self.probes_failed += 1

    def close(self) -> None:
        self.conn.close()


def service_http(seed: int, seconds: float, run_dir: Path,
                 tracer=None) -> Result:
    result = Result()
    trace_out = run_dir / "server-spans.jsonl" if tracer else None
    servers: list[Server] = []
    clients: list[Client] = []

    def build(i, keep):
        sims, path = _catalog_setup(run_dir)(i, keep)
        server = Server(path, run_dir / f"server-{i}.log",
                        trace_out if keep else None)
        if not keep:
            server.stop()
        servers.append(server)
        return sims, path, server

    try:
        setup_s, (sims, path, server) = timed_setup("service_http", build)
        clips = [s.name for s in sims]
        truth = inputs.accident_windows(sims)
        analysts = [inputs.Analyst(seed, k)
                    for k in range(inputs.ANALYSTS_PER_PASS)]
        clients += [Client(server.port) for _ in range(CLIENTS)]
        state = {"stop": False, "blocks": 0}
        start = now()

        def end_of_block():
            state["blocks"] += 1
            state["stop"] = now() - start >= seconds

        barrier = threading.Barrier(CLIENTS, action=end_of_block)

        def drive(c: int) -> None:
            client = clients[c]
            mine = analysts[c::CLIENTS]
            while not state["stop"]:
                block = state["blocks"]
                for n, analyst in enumerate(mine):
                    try:
                        client.session(analyst, f"b{block}a{analyst.profile}",
                                       clips, truth, keep=block == 0)
                    except Exception as exc:  # noqa: BLE001 - reported
                        client.attempted += 1
                        client.failed += 1
                        client.problems.append(
                            f"{type(exc).__name__}: {exc}")
                    if c == 0 and n < PROBES_PER_BLOCK:
                        client.probe()
                try:
                    barrier.wait(timeout=120)
                except threading.BrokenBarrierError:
                    client.problems.append("client threads lost step")
                    return

        threads = [threading.Thread(target=drive, args=(c,))
                   for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = now() - start
        rss = peak_rss_mb(server.proc.pid)
    finally:
        for c in clients:
            c.close()
        for s in servers:
            s.stop()

    opens = [x for c in clients for x in c.opens]
    rounds = [x for c in clients for x in c.rounds]
    result.attempted = sum(c.attempted for c in clients)
    result.failed = sum(c.failed for c in clients)
    probes_failed = sum(c.probes_failed for c in clients)
    for c in clients:
        result.problems += c.problems

    shown = {}
    for c in clients:
        shown.update(c.shown)
    rankings = [r for k in sorted(shown) for r in shown[k]]
    from repro.db import VideoDatabase
    with VideoDatabase(path) as db:
        corpus = corpus_from_catalog(db, clips)
        for k in (0, 1):
            library = _library_replay(db, clips, analysts[k], truth)
            result.problems += checks.check_same_rankings(shown[k], library)
    problems, score = ranking_checks(rankings, shown[0][0], corpus, truth)
    result.problems += problems
    _analyst_metrics(result, "service_http", setup_s, rss, opens, rounds,
                     wall, score)
    result.info = {"sessions": len(opens), "rounds": len(rounds),
                   "blocks": state["blocks"], "probes_failed": probes_failed,
                   "wall_s": wall,
                   "tail_percentile": TAIL["service_http"]}
    result.expected_failures = probes_failed
    if tracer is not None:
        server_spans = _load_spans(trace_out)
        # The server's spans are the run's spans: this process only
        # drives the clients, so they are the ones written out.
        tracer.spans = server_spans
        handle_ns = sum(s.end - s.start for s in server_spans
                        if s.layer == "service.handle")
        request_s = sum(c.request_s for c in clients)
        trace_metrics(tracer, result, wall_s=request_s, units=len(opens),
                      extra_ms={"service.http_ms":
                                request_s * 1e3 - handle_ns / 1e6},
                      catalog_mb=_dir_mb(path.parent))
    return result


def _library_replay(db, clips, analyst, truth):
    """One analyst's rankings through the library path."""
    from repro.db import MultiClipQuerySession

    session = MultiClipQuerySession(
        db, clips, inputs.EVENT, user_id=f"replay{analyst.profile}",
        top_k=inputs.TOP_K)
    ids = session.results()
    shown = [_window(session, ids)]
    for r in range(inputs.ROUNDS):
        labels = analyst.labels(r, shown[-1], truth)
        session.feed(dict(zip(ids, labels)))
        ids = session.results()
        shown.append(_window(session, ids))
    return shown


def _load_spans(path: Path) -> list:
    """Server spans written by the launcher, as :class:`spans.Span`."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            span = spans.Span(d["id"], d["layer"], d["func"], None,
                              d["session"], d["round"])
            span.start, span.end = d["start_ns"], d["end_ns"]
            span.child_ns = span.end - span.start - d["self_ns"]
            span.hits, span.misses = d["gram_hits"], d["gram_misses"]
            out.append(span)
    return out


WORKLOADS = {"ingest": ingest, "analyst_library": analyst_library,
             "service_http": service_http}
