"""The deployed service topology and a minimal NDJSON client.

Topology: ada_router in front of two shards, each an ada_server primary
replicating to an ada_server follower, all on 127.0.0.1 with
kernel-assigned ports. Every process's output goes to a log file in the
run's work directory; the topology is always stopped (shutdown verb,
then SIGKILL for anything still alive) and waited for.
"""
import json
import os
import socket
import subprocess
import time

START_TIMEOUT_S = 15.0


class ServiceError(RuntimeError):
    pass


class Conn:
    """One NDJSON connection: strictly request, then response."""

    def __init__(self, port, timeout=120.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call_line(self, line):
        """Sends one request line; returns the decoded response object."""
        self.sock.sendall(line.encode() + b"\n")
        response = self.reader.readline()
        if not response:
            raise ServiceError("connection closed by the server")
        return json.loads(response)

    def call(self, request):
        return self.call_line(dumps(request))

    def close(self):
        self.reader.close()
        self.sock.close()


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def expect_ok(response, what):
    if not response.get("ok"):
        raise ServiceError("%s failed: %s" % (what, response.get("error")))
    return response


class Process:
    def __init__(self, name, argv, work_dir):
        self.name = name
        self.log_path = os.path.join(work_dir, name + ".log")
        with open(self.log_path, "wb") as log:
            self.popen = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                          stdin=subprocess.DEVNULL)
        self.port = self._await_port()

    def _await_port(self):
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as log:
                for line in log:
                    if line.startswith(b"listening on port "):
                        return int(line.split()[-1])
            if self.popen.poll() is not None:
                break
            time.sleep(0.005)
        raise ServiceError("%s did not start; see %s" % (self.name, self.log_path))

    def cpu_seconds(self):
        """utime + stime of the process so far (from /proc)."""
        try:
            with open("/proc/%d/stat" % self.popen.pid) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        except (OSError, IndexError, ValueError):
            return 0.0

    def peak_rss_mb(self):
        try:
            with open("/proc/%d/status" % self.popen.pid) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0


class Topology:
    """Router + 2 x (primary -> follower); call stop() when done."""

    def __init__(self, bin_dir, work_dir):
        self.processes = []
        try:
            self._start(bin_dir, work_dir)
        except BaseException:
            self.stop()
            raise

    def _start(self, bin_dir, work_dir):
        server = os.path.join(bin_dir, "ada_server")
        specs = []
        for shard in range(2):
            follower = self._spawn("follower%d" % shard,
                                   [server, "--port", "0", "--role", "follower"], work_dir)
            # Each primary's cohort store is durable, on the work dir.
            cohorts = os.path.join(work_dir, "cohorts%d" % shard)
            os.makedirs(cohorts, exist_ok=True)
            primary = self._spawn("primary%d" % shard,
                                  [server, "--port", "0", "--replicate-to", str(follower.port),
                                   "--cohort-dir", cohorts], work_dir)
            specs.append("%d:%d" % (primary.port, follower.port))
        argv = [os.path.join(bin_dir, "ada_router"), "--port", "0"]
        for spec in specs:
            argv += ["--shard", spec]
        self.router = self._spawn("router", argv, work_dir)
        self.primaries = [p for p in self.processes if p.name.startswith("primary")]

    def _spawn(self, name, argv, work_dir):
        process = Process(name, argv, work_dir)
        self.processes.append(process)
        return process

    @property
    def port(self):
        return self.router.port

    def cpu_seconds(self):
        return sum(p.cpu_seconds() for p in self.processes)

    def peak_rss_mb(self):
        return sum(p.peak_rss_mb() for p in self.processes)

    def stats(self):
        conn = Conn(self.port)
        try:
            return expect_ok(conn.call({"verb": "stats"}), "stats")
        finally:
            conn.close()

    def stop(self):
        live = [p for p in self.processes if p.popen.poll() is None]
        if live and getattr(self, "router", None) and self.router.popen.poll() is None:
            try:
                conn = Conn(self.router.port, timeout=5.0)
                conn.call({"verb": "shutdown"})
                conn.close()
            except (OSError, ServiceError, ValueError):
                pass
        deadline = time.monotonic() + 5.0
        for process in self.processes:
            try:
                process.popen.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
        for process in self.processes:
            if process.popen.poll() is None:
                process.popen.kill()
            process.popen.wait()
        self.processes = []
