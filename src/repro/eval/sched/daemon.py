"""The worker daemon: ``python -m repro worker serve``.

One daemon per machine turns that machine into scheduler capacity: it
listens on a TCP port, authenticates each connecting coordinator with
the mutual HMAC handshake of :mod:`repro.eval.sched.wire`
(``REPRO_SCHED_TOKEN``), and runs the leaves it receives on a local
work-stealing pool (:class:`~repro.eval.sched.stealing.WorkersBackend`
— the same pool ``--backend workers`` uses in-process), streaming each
result frame back the moment the leaf finishes.

Per-session threading
    Each authenticated coordinator gets its own session with its own
    pool: a **reader** thread owns the socket's receive side (jobs,
    cache traffic, heartbeats) and a **pump** thread owns the pool
    exclusively (submit + poll), so the non-thread-safe
    ``WorkersBackend`` is never shared.  ``FrameStream.send`` is locked
    internally, which is what lets both threads answer on one socket.

Cache side
    The daemon keeps its own content-addressed
    :class:`~repro.eval.cache.ResultCache`: every executed leaf is
    stored under its digest, ``cache_offer`` frames are answered from
    ``has_object``, ``cache_pull`` serves the pickled object (or a
    ``cache_miss``), and ``cache_push`` seeds the store — the daemon
    half of the coordinator's digest-based cache sync.

Health
    ``--telemetry-port`` starts the stack's standard
    :class:`~repro.obs.http.TelemetryServer` with two checks on
    ``/healthz``: ``daemon.coordinator`` (informational: connected
    coordinator count) and ``daemon.pool`` — **not ok while the pool
    has queued backlog**, so a load balancer probing workers steers new
    coordinators away from saturated machines.

Stats live in a plain dict (not the metrics registry, which a
coordinator-side ``generate_report`` in the same process would reset)
and ride back to coordinators in every ``pong``.
"""

import argparse
import os
import pickle
import queue
import signal
import socket
import sys
import threading

from repro.eval.sched import wire
from repro.eval.sched.stealing import WorkersBackend

#: Seconds a new connection gets to complete the handshake.
HANDSHAKE_TIMEOUT = 10.0

#: Pump-thread poll granularity (pool results / incoming jobs).
_POLL_S = 0.05


class _Session:
    """One authenticated coordinator connection."""

    def __init__(self, daemon, sock, peer):
        self.daemon = daemon
        self.sock = sock
        self.peer = peer
        self.stream = None
        self.pool = None
        self._jobs = queue.Queue()
        self._digests = {}           # task name -> fingerprint
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-daemon-{peer[0]}:{peer[1]}",
            daemon=True)

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        if self.stream is not None:
            self.stream.close()

    # ------------------------------------------------------------------

    def _run(self):
        self.stream = wire.FrameStream(self.sock)
        try:
            self.sock.settimeout(HANDSHAKE_TIMEOUT)
            wire.server_handshake(
                self.stream, self.daemon.token,
                info={"workers": self.daemon.workers,
                      "host": self.daemon.label})
            self.sock.settimeout(None)
        except (wire.WireError, EOFError, OSError):
            self.daemon.bump("rejected")
            self.stream.close()
            self.daemon.forget(self)
            return
        self.daemon.bump("sessions")
        self.daemon.bump("connected")
        self.pool = WorkersBackend(self.daemon.workers)
        pump = threading.Thread(target=self._pump,
                                name=self._thread.name + "-pump",
                                daemon=True)
        pump.start()
        try:
            self._reader()
        finally:
            self._stop.set()
            pump.join(timeout=10.0)
            self.pool.close()
            self.stream.close()
            self.daemon.bump("connected", -1)
            self.daemon.forget(self)

    # ------------------------------------------------------------------
    # reader thread: everything arriving on the socket
    # ------------------------------------------------------------------

    def _reader(self):
        while not self._stop.is_set():
            try:
                env = self.stream.recv()
            except (EOFError, OSError):
                return
            except wire.WireError as exc:
                if exc.fatal:
                    return
                self.daemon.bump("wire_errors")
                self._send(wire.error_envelope(
                    "?", f"malformed frame: {exc}"))
                continue
            kind = env.get("kind")
            if kind == "job":
                self._on_job(env)
            elif kind == "cache_offer":
                self._on_cache_offer(env)
            elif kind == "cache_pull":
                self._on_cache_pull(env)
            elif kind == "cache_push":
                self._on_cache_push(env)
            elif kind == "ping":
                self._send(wire.pong_envelope(env.get("seq", 0),
                                              self.daemon.stats()))
            elif kind == "shutdown":
                return
            else:
                self._send(wire.error_envelope(
                    "?", f"unexpected frame kind {kind!r}"))

    def _send(self, envelope):
        try:
            self.stream.send(envelope)
            return True
        except (OSError, wire.WireError):
            self._stop.set()
            return False

    def _on_job(self, env):
        try:
            task = wire.task_from_envelope(env)
        except Exception as exc:
            self.daemon.bump("wire_errors")
            self._send(wire.error_envelope(
                env.get("name", "?"), f"undecodable job frame: {exc!r}"))
            return
        self.daemon.bump("jobs")
        if task.fingerprint:
            self._digests[task.name] = task.fingerprint
        self._jobs.put(task)

    def _on_cache_offer(self, env):
        cache = self.daemon.cache
        digests = env.get("digests") or []
        hits = [d for d in digests
                if cache is not None and cache.has_object(d)]
        self.daemon.bump("cache_offers")
        self._send(wire.cache_hits_envelope(env.get("offer"), hits))

    def _on_cache_pull(self, env):
        digest = env.get("digest")
        cache = self.daemon.cache
        hit, value = (cache.load_object(digest) if cache is not None
                      else (False, None))
        if hit:
            self.daemon.bump("cache_pulls")
            self._send(wire.cache_object_envelope(digest, value))
        else:
            self._send(wire.cache_miss_envelope(digest))

    def _on_cache_push(self, env):
        cache = self.daemon.cache
        if cache is None:
            return
        try:
            value = pickle.loads(env["payload"])
        except Exception:
            self.daemon.bump("wire_errors")
            return
        self.daemon.bump("cache_pushes")
        cache.store_object(env.get("digest", ""), value)

    # ------------------------------------------------------------------
    # pump thread: exclusive owner of the local stealing pool
    # ------------------------------------------------------------------

    def _pump(self):
        while not self._stop.is_set():
            moved = False
            try:
                while True:
                    self.pool.submit(self._jobs.get_nowait())
                    moved = True
            except queue.Empty:
                pass
            self.daemon.note_load(self.pool.outstanding,
                                  self._jobs.qsize())
            if self.pool.outstanding:
                result = self.pool.next_result(timeout=_POLL_S)
                if result is None:
                    continue
                digest = self._digests.pop(result.name, None)
                if result.ok and digest is not None \
                        and self.daemon.cache is not None:
                    self.daemon.cache.store_object(digest, result.value,
                                                   name=result.name)
                self.daemon.bump("errors" if not result.ok else "results")
                if not self._send(wire.result_envelope(result,
                                                       result.worker)):
                    return
            elif not moved:
                # Idle: wait for work without spinning.
                try:
                    self.pool.submit(self._jobs.get(timeout=_POLL_S * 4))
                except queue.Empty:
                    pass
        self.daemon.note_load(0, 0)


class WorkerDaemon:
    """Accept coordinator sessions and serve leaves from this machine."""

    def __init__(self, bind=("127.0.0.1", 0), workers=None, cache=None,
                 token=None, label=None):
        self.workers = max(1, int(workers or os.cpu_count() or 1))
        self.token = wire.default_token() if token is None else token
        self.label = label or socket.gethostname()
        self.cache = cache
        self.host, self.port = bind
        self._listener = None
        self._accept_thread = None
        self._sessions = set()
        self._lock = threading.Lock()
        self._stats = {"sessions": 0, "connected": 0, "rejected": 0,
                       "jobs": 0, "results": 0, "errors": 0,
                       "cache_offers": 0, "cache_pulls": 0,
                       "cache_pushes": 0, "wire_errors": 0,
                       "inflight": 0, "backlog": 0}
        self._telemetry = None

    # -- stats shared across session threads ---------------------------

    def bump(self, key, delta=1):
        with self._lock:
            self._stats[key] = self._stats.get(key, 0) + delta

    def note_load(self, inflight, backlog):
        with self._lock:
            self._stats["inflight"] = inflight
            self._stats["backlog"] = backlog

    def stats(self):
        with self._lock:
            return dict(self._stats, workers=self.workers,
                        label=self.label)

    def forget(self, session):
        with self._lock:
            self._sessions.discard(session)

    # -- lifecycle ------------------------------------------------------

    def start(self):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-daemon-accept",
            daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self):
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:              # listener closed: shutting down
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = _Session(self, sock, peer)
            with self._lock:
                self._sessions.add(session)
            session.start()

    def stop(self):
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() makes that accept() raise at once.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:              # not connected on some platforms
                pass
            try:
                self._listener.close()
            except OSError:              # pragma: no cover
                pass
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.stop()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if self._telemetry is not None:
            self._telemetry.stop()
            self._telemetry = None

    # -- telemetry ------------------------------------------------------

    def start_telemetry(self, port):
        """Standard telemetry endpoint + the daemon's health checks."""
        from repro.obs.http import TelemetryServer

        server = TelemetryServer(port=port)
        server.add_health_check(
            "daemon.coordinator",
            lambda: {"ok": True,
                     "connected": self.stats()["connected"]})

        def pool_check():
            stats = self.stats()
            return {"ok": stats["backlog"] == 0,
                    "inflight": stats["inflight"],
                    "backlog": stats["backlog"],
                    "workers": self.workers}

        server.add_health_check("daemon.pool", pool_check)
        self._telemetry = server.start()
        return server


# ----------------------------------------------------------------------
# CLI — ``python -m repro worker serve``
# ----------------------------------------------------------------------

def _parse_bind(spec):
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"bad --bind {spec!r}: expected HOST:PORT (PORT 0 = ephemeral)")
    return host or "127.0.0.1", int(port)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description="Serve this machine's cores to remote-backend "
                    "coordinators over the repro.sched/1 protocol.")
    sub = parser.add_subparsers(dest="command", required=True)
    serve = sub.add_parser("serve", help="run the worker daemon")
    serve.add_argument("--bind", type=_parse_bind,
                       default=("127.0.0.1", 0), metavar="HOST:PORT",
                       help="listen address (port 0 = ephemeral, "
                            "default 127.0.0.1:0)")
    serve.add_argument("--workers", type=int, default=0,
                       help="local pool size (default: cpu count)")
    serve.add_argument("--cache-root", default=None,
                       help="content-addressed result store for cache "
                            "sync (default: the stack's standard root; "
                            "honours REPRO_RESULT_CACHE)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the daemon-side result store")
    serve.add_argument("--label", default=None,
                       help="host label in coordinator telemetry "
                            "(default: hostname)")
    serve.add_argument("--telemetry-port", type=int, default=None,
                       metavar="PORT",
                       help="serve /metrics and /healthz (connected "
                            "coordinators + pool saturation) on "
                            "127.0.0.1:PORT")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write 'HOST PORT' here once bound (how "
                            "scripts discover an ephemeral port)")
    args = parser.parse_args(argv)

    cache = None
    if not args.no_cache:
        from repro.eval.cache import ResultCache, _default_cache_root

        root = args.cache_root or _default_cache_root()
        if root is not None:
            # Digest-addressed ops never consult the key fingerprint.
            cache = ResultCache(root=root, fingerprint="(daemon)")

    daemon = WorkerDaemon(bind=args.bind, workers=args.workers or None,
                          cache=cache, label=args.label)
    daemon.start()
    if args.telemetry_port is not None:
        server = daemon.start_telemetry(args.telemetry_port)
        print(f"telemetry: {server.url}", file=sys.stderr)
    if args.port_file:
        with open(args.port_file, "w") as fh:
            fh.write(f"{daemon.host} {daemon.port}\n")
    print(f"repro worker daemon listening on "
          f"{daemon.host}:{daemon.port} "
          f"(workers={daemon.workers}, label={daemon.label})",
          flush=True)

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: stop.set())
        except ValueError:               # pragma: no cover - non-main thread
            pass
    try:
        stop.wait()
    except KeyboardInterrupt:            # pragma: no cover
        pass
    daemon.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
