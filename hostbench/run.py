#!/usr/bin/env python3
"""Host benchmark for the Phelps simulator and its daemon.

Builds cmd/phelps, cmd/phelpsreport and cmd/phelpsd from the checkout it is
run in and drives them the way a user does, in a closed loop, for a fixed
window of host time. Run it from the repository root:

    python3 hostbench/run.py --workload chase_mem --seed 1 --seconds 30 --trace 0

Workloads (one closed-loop client unless noted):

  quick_report  regenerate the paper's quick report (phelpsreport -quick);
                compute-bound cells on the report's own worker pool.
  chase_mem     run the memory-bound pointer-chase cells (chase and
                chase_nested under base and phelps) through the phelps CLI.
  daemon_sweep  two clients sweep sampled-pipeline seeds over the GAP quick
                workloads through a phelpsd daemon with its journal, results
                cache and checkpoint cache on; every job is cold.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer breakdown, measured by a probe that runs
the workload's cell mix through the CLI (with and without the obs collector)
and through a fresh daemon (cold, then warm), and the spans of the run are
written to .bench_build/trace/ as Chrome trace-event JSON. All files the
benchmark writes go under .bench_build/ in the checkout.
"""

import argparse
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
RUN = os.path.join(BUILD, "run")
TRACE_DIR = os.path.join(BUILD, "trace")

GAP = ["bc", "bfs", "pr", "cc", "cc_sv", "sssp", "tc", "astar"]
SPEC = ["perlbench", "gcc", "mcf", "omnetpp", "xalanc", "x264",
        "deepsjeng", "leela", "exchange2", "xz"]
GAP_CONFIGS = ["base", "perfBP", "phelps", "phelps-nostores", "br", "br-12w", "half"]
SPEC_CONFIGS = ["base", "perfBP", "phelps", "br", "br-12w", "half"]
CHASE = ["chase", "chase_nested"]
HELPER_CONFIGS = ("phelps", "phelps-nostores")

# Every program process sees the same two cores, so results do not depend on
# the host's core count, and writes nothing outside the run directory.
WORKERS = 2
# Job status polling. The window's clients poll coarsely so they take little
# CPU from the daemon; the probe runs one short cell at a time and polls
# finely so its per-cell times are not rounded to the window's interval.
POLL_S = 0.02
PROBE_POLL_S = 0.002
# Every run does at least this many units, however long one takes.
MIN_UNITS = 2

REPORT_FIGURES = {"fig11", "fig12a.gap", "fig12a.spec", "fig12b", "fig13a", "fig13b",
                  "fig13c.gap", "fig13c.spec", "fig14.gap", "fig14.spec", "fig15a", "fig15b"}
FAILURE_MARKERS = ("VERIFY FAILED", "TIMED OUT", "RUN FAILED", "MATRIX FAILURES")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a program output being wrong)."""


# ---------------------------------------------------------------- tracing

class Tracer:
    """Keeps spans in memory and writes them as Chrome trace events at the end."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.lock = threading.Lock()
        self.next_id = 1
        self.t0 = time.perf_counter()

    def span(self, name, parent=0, **args):
        return _Span(self, name, parent, args)

    def write(self, path):
        events = []
        for s in self.spans:
            args = dict(s["args"], id=s["id"], parent=s["parent"])
            events.append({"name": s["name"], "ph": "X", "pid": 1, "tid": s["tid"],
                           "ts": (s["start"] - self.t0) * 1e6,
                           "dur": (s["end"] - s["start"]) * 1e6, "args": args})
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)


class _Span:
    def __init__(self, tracer, name, parent, args):
        self.tracer, self.name, self.parent, self.args = tracer, name, parent, args
        self.id = 0

    def __enter__(self):
        self.start = time.perf_counter()
        if self.tracer.enabled:
            with self.tracer.lock:
                self.id = self.tracer.next_id
                self.tracer.next_id += 1
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        if self.tracer.enabled:
            with self.tracer.lock:
                self.tracer.spans.append({"name": self.name, "id": self.id, "parent": self.parent,
                                          "start": self.start, "end": self.end,
                                          "tid": threading.get_ident(), "args": self.args})
        return False

    @property
    def seconds(self):
        return self.end - self.start


# ---------------------------------------------------------------- processes

LIVE = set()
LIVE_LOCK = threading.Lock()
PEAK_KB = [0]


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-buildvcs=false",
        "CGO_ENABLED": "0",
    })
    return env


def program_env():
    env = dict(os.environ)
    env.update({
        "GOMAXPROCS": str(WORKERS),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "PHELPS_CRASH_DIR": os.path.join(RUN, "crashes"),
        "PHELPS_CKPT_DIR": "",
        "PHELPS_JOURNAL_DIR": "",
    })
    return env


def build():
    """Builds the three commands from source into .bench_build/bin."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "cmd")):
        raise BenchError("no Go module here: run from the repository root")
    for d in ("gocache", "gopath", "tmp", "config", "bin"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    cmd = ["go", "build", "-trimpath", "-o", BIN + os.sep,
           "./cmd/phelps", "./cmd/phelpsreport", "./cmd/phelpsd"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=go_env(), stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"go build: {e}") from e
    if p.returncode != 0:
        raise BenchError("go build failed:\n" + p.stdout.decode(errors="replace"))


class Proc:
    """A program process with output in files and its peak RSS read at exit."""

    seq = 0
    seq_lock = threading.Lock()

    def __init__(self, args):
        with Proc.seq_lock:
            Proc.seq += 1
            n = Proc.seq
        self.out_path = os.path.join(RUN, f"p{n}.out")
        self.err_path = os.path.join(RUN, f"p{n}.err")
        with open(self.out_path, "wb") as fo, open(self.err_path, "wb") as fe:
            self.p = subprocess.Popen(args, stdout=fo, stderr=fe, cwd=RUN, env=program_env(),
                                      start_new_session=True)
        with LIVE_LOCK:
            LIVE.add(self.p)
        self.code = None
        self.rss_kb = 0

    def wait(self, timeout):
        """Waits for exit (killing the process after timeout seconds) and returns the exit code."""
        killer = threading.Timer(timeout, self.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(self.p.pid, 0)
        finally:
            killer.cancel()
        self.p.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_kb = ru.ru_maxrss
        with LIVE_LOCK:
            LIVE.discard(self.p)
            PEAK_KB[0] = max(PEAK_KB[0], self.rss_kb)
        return self.code

    def kill(self):
        try:
            self.p.kill()
        except OSError:
            pass

    def stdout(self):
        with open(self.out_path, errors="replace") as f:
            return f.read()

    def stderr(self):
        with open(self.err_path, errors="replace") as f:
            return f.read()

    def discard(self):
        for path in (self.out_path, self.err_path):
            try:
                os.remove(path)
            except OSError:
                pass


def run(args, timeout=170):
    """Runs a program to completion; returns (exit code, stdout, stderr)."""
    p = Proc(args)
    code = p.wait(timeout)
    out, err = p.stdout(), p.stderr()
    p.discard()
    return code, out, err


def kill_live():
    with LIVE_LOCK:
        procs = list(LIVE)
    for p in procs:
        try:
            p.kill()
            p.wait()
        except OSError:
            pass


# ---------------------------------------------------------------- daemon

class Daemon:
    """A phelpsd process with its state (cache, journal, checkpoints) in one directory."""

    def __init__(self, state_dir):
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.proc = None
        self.addr = None

    def boot(self, timeout=60):
        """Starts the daemon and returns the seconds until /v1/healthz answers."""
        addr_file = os.path.join(self.state_dir, "addr")
        if os.path.exists(addr_file):
            os.remove(addr_file)
        start = time.perf_counter()
        self.proc = Proc([os.path.join(BIN, "phelpsd"), "-addr", "127.0.0.1:0",
                          "-addr-file", addr_file, "-workers", str(WORKERS),
                          "-cache", os.path.join(self.state_dir, "results.cache"),
                          "-journal-dir", os.path.join(self.state_dir, "journal"),
                          "-ckpt-dir", os.path.join(self.state_dir, "ckpt"),
                          "-crash-dir", os.path.join(self.state_dir, "crashes")])
        deadline = start + timeout
        while time.perf_counter() < deadline:
            if self.proc.p.poll() is not None:
                raise BenchError("phelpsd exited during boot: " + self.proc.stderr())
            try:
                with open(addr_file) as f:
                    addr = f.read().strip()
            except OSError:
                addr = ""
            if addr:
                self.addr = addr
                try:
                    if Client(addr).get("/v1/healthz").get("ok"):
                        return time.perf_counter() - start
                except (OSError, http.client.HTTPException, ValueError):
                    pass
            time.sleep(0.002)
        raise BenchError("phelpsd did not become healthy")

    def stop(self, timeout=60):
        """Drains the daemon with SIGTERM and checks it exits cleanly."""
        if self.proc is None:
            return
        self.proc.p.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout)
        out, err = self.proc.stdout(), self.proc.stderr()
        self.proc.discard()
        self.proc = None
        if code != 0 or "drained" not in out:
            raise BenchError(f"phelpsd drain failed (exit {code}): {err.strip()}")


class Client:
    """A keep-alive JSON client for one daemon."""

    def __init__(self, addr):
        host, port = addr.rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port), timeout=60)

    def call(self, method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        resp = self.conn.getresponse()
        payload = resp.read()
        if resp.status // 100 != 2:
            raise BenchError(f"{method} {path}: HTTP {resp.status}: {payload[:200]!r}")
        return json.loads(payload)

    def get(self, path):
        return self.call("GET", path)

    def job(self, req, tracer, parent=0, poll=POLL_S):
        """Submits a job and waits for its result. Returns (result, admit seconds, total seconds)."""
        with tracer.span("job", parent) as job:
            with tracer.span("admit", job.id) as admit:
                st = self.call("POST", "/v1/jobs", req)
            with tracer.span("wait", job.id):
                while st["state"] == "running":
                    time.sleep(poll)
                    st = self.get("/v1/jobs/" + st["id"])
            with tracer.span("fetch", job.id):
                res = self.get(f"/v1/jobs/{st['id']}/result")
        return res, admit.seconds, job.seconds


# ---------------------------------------------------------------- checks

def check_cli_json(out, cell):
    """Parses phelps -json output and checks the run halted and verified."""
    d = json.loads(out)
    if not (d.get("verified") and d.get("halted")) or d.get("timed_out"):
        raise ValueError(f"{cell}: run did not halt verified")
    if d["instructions"] <= 0 or d["cycles"] <= 0:
        raise ValueError(f"{cell}: empty run")
    return d


def check_cli_text(out, cell):
    """Parses phelps text output; returns (instructions, cycles)."""
    fields = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            fields.setdefault(parts[0], parts[1])
    if fields.get("verification") != "ok":
        raise ValueError(f"{cell}: verification not ok")
    return int(fields["instructions"]), int(fields["cycles"])


def check_job(res, want_cells):
    """Checks a daemon job result and returns {(workload, config): sim result}."""
    if res.get("state") != "done":
        raise ValueError(f"job {res.get('id')} ended {res.get('state')}")
    cells = {}
    for c in res["cells"]:
        r = c.get("result")
        if c.get("state") != "done" or not r or not r.get("Halted") or r.get("TimedOut"):
            raise ValueError(f"job {res['id']} cell {c['workload']}/{c['config']}: {c.get('state')} {c.get('error', '')}")
        cells[(c["workload"], c["config"])] = c
    if set(cells) != set(want_cells):
        raise ValueError(f"job {res['id']}: cells {sorted(cells)} != {sorted(want_cells)}")
    return cells


def check_report(text):
    """Checks a BENCH_report.json body: every figure present, every number finite."""
    d = json.loads(text)
    names = {f["name"] for f in d.get("figures", [])}
    if not d.get("quick") or not REPORT_FIGURES <= names:
        raise ValueError(f"report is missing figures {sorted(REPORT_FIGURES - names)}")
    geo = d.get("geomean_speedups") or {}
    if not geo or not all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in geo.values()):
        raise ValueError("report geomean speedups are missing or not positive")

    def finite(v):
        if isinstance(v, float):
            return math.isfinite(v)
        if isinstance(v, dict):
            return all(finite(x) for x in v.values())
        if isinstance(v, list):
            return all(finite(x) for x in v)
        return True
    if not finite(d["figures"]):
        raise ValueError("report has a non-finite figure value")


class Consistency:
    """Records a value per key and fails when a later sighting differs."""

    def __init__(self, what):
        self.what = what
        self.seen = {}
        self.lock = threading.Lock()

    def check(self, key, value):
        with self.lock:
            ref = self.seen.setdefault(key, value)
        if ref != value:
            raise ValueError(f"{self.what} of {key} changed: {ref} then {value}")


# ---------------------------------------------------------------- workloads

class Workload:
    """One benchmark workload: set-up, a unit of work for the closed loop, tear-down."""

    name = ""
    clients = 1

    def __init__(self, seed, tracer):
        self.rng = random.Random(seed)
        self.tracer = tracer

    def setup(self):
        """Brings the system to ready; returns the set-up seconds (median of repeats)."""
        raise NotImplementedError

    def unit(self, client, parent):
        raise NotImplementedError

    def finish(self):
        """Post-window checks and tear-down."""

    def client_state(self):
        return None

    def mix(self):
        """The cells the per-layer probe runs: (workloads x configs, CLI flags, job fields)."""
        raise NotImplementedError


def median_start_time(args):
    """Median wall time of 31 runs of a start-up command; a start takes a few
    milliseconds, so it takes many to steady the median."""
    times = []
    for _ in range(31):
        start = time.perf_counter()
        code, _, err = run(args, timeout=60)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise BenchError(f"{args[0]}: exit {code}: {err.strip()}")
    return statistics.median(times)


class QuickReport(Workload):
    name = "quick_report"

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.ref = None
        self.lock = threading.Lock()
        self.n = 0

    def setup(self):
        # The report has no set-up of its own: this is its start-up path.
        return median_start_time([os.path.join(BIN, "phelpsreport"), "-tables"])

    def unit(self, client, parent):
        with self.lock:
            self.n += 1
            path = os.path.join(RUN, f"report-{self.n}.json")
        with self.tracer.span("phelpsreport", parent):
            code, out, err = run([os.path.join(BIN, "phelpsreport"), "-quick", "-json", path])
        if code != 0:
            raise ValueError(f"phelpsreport exit {code}: {err.strip()[:200]}")
        for m in FAILURE_MARKERS:
            if m in out:
                raise ValueError(f"phelpsreport printed {m}")
        with open(path) as f:
            text = f.read()
        os.remove(path)
        check_report(text)
        with self.lock:
            if self.ref is None:
                self.ref = text
        if text != self.ref:
            raise ValueError("two regenerations of the report differ")

    def mix(self):
        cells = [(w, c) for w in GAP for c in GAP_CONFIGS] + [(w, c) for w in SPEC for c in SPEC_CONFIGS]
        return cells, ["-quick"], {"quick": True}


class ChaseMem(Workload):
    name = "chase_mem"
    cells = [(w, c) for w in CHASE for c in ("base", "phelps")]

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.cycles = Consistency("cycles")
        self.insts = Consistency("instructions")

    def setup(self):
        # Each cell is a fresh process: its start-up path is the set-up.
        return median_start_time([os.path.join(BIN, "phelps"), "-list-specs"])

    def unit(self, client, parent):
        for w, c in self.rng.sample(self.cells, len(self.cells)):
            with self.tracer.span("phelps", parent, cell=f"{w}/{c}"):
                code, out, err = run([os.path.join(BIN, "phelps"), "-workload", w, "-config", c, "-json"])
            if code != 0:
                raise ValueError(f"phelps {w}/{c}: exit {code}: {err.strip()[:200]}")
            d = check_cli_json(out, f"{w}/{c}")
            self.insts.check(w, d["instructions"])
            self.cycles.check((w, c), d["cycles"])

    def mix(self):
        return self.cells, [], {}


class DaemonSweep(Workload):
    name = "daemon_sweep"
    clients = 2
    configs = ["base", "phelps"]

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.daemon = Daemon(os.path.join(RUN, "daemon"))
        self.seeds = set()
        self.lock = threading.Lock()
        self.insts = Consistency("instructions")
        self.first = None

    def job_request(self):
        with self.lock:
            s = 0
            while s == 0 or s in self.seeds:
                s = self.rng.getrandbits(31)
            self.seeds.add(s)
            ws = self.rng.sample(GAP, len(GAP))
        return {"workloads": ws, "configs": self.configs, "quick": True, "sampled": True, "seed": s}

    def setup(self):
        # A set-up is a boot on the persisted state plus a first job, which
        # resolves every workload; the last boot stays up for the window.
        times = []
        for i in range(3):
            with self.tracer.span("setup") as sp:
                self.daemon.boot()
                res, _, _ = Client(self.daemon.addr).job(self.job_request(), self.tracer, sp.id)
                self.record(res)
            times.append(sp.seconds)
            if i < 2:
                self.daemon.stop()
        return statistics.median(times)

    def record(self, res):
        for (w, _), cell in check_job(res, [(w, c) for w in GAP for c in self.configs]).items():
            self.insts.check(w, cell["result"]["Retired"])

    def client_state(self):
        return Client(self.daemon.addr)

    def unit(self, client, parent):
        req = self.job_request()
        res, _, _ = client.job(req, self.tracer, parent)
        self.record(res)
        with self.lock:
            if self.first is None:
                self.first = (req, res)

    def finish(self):
        # A resubmitted job must be answered from the results cache, unchanged.
        if self.first is not None:
            req, cold = self.first
            warm, _, _ = Client(self.daemon.addr).job(req, self.tracer)
            check_job(warm, [(w, c) for w in GAP for c in self.configs])
            if not all(c.get("cached") for c in warm["cells"]):
                raise ValueError("resubmitted job was not served from the results cache")
            strip = lambda res: sorted((c["workload"], c["config"], json.dumps(c["result"], sort_keys=True))
                                       for c in res["cells"])
            if strip(warm) != strip(cold):
                raise ValueError("cached results differ from the cold run")
        self.daemon.stop()

    def mix(self):
        seed = self.rng.getrandbits(31) | 1
        return ([(w, c) for w in GAP for c in self.configs],
                ["-quick", "-sampled", "-seed", str(seed)],
                {"quick": True, "sampled": True, "seed": seed})


WORKLOADS = {w.name: w for w in (QuickReport, ChaseMem, DaemonSweep)}


# ---------------------------------------------------------------- closed loop

def closed_loop(wl, seconds):
    """Runs wl.unit from wl.clients clients until the window closes.

    A client starts a unit only while the median unit so far still fits in
    the window, so a run lasts about --seconds however long a unit takes.
    Returns (latencies of good units, attempted, failures).
    """
    lat, failures = [], []
    attempted = [0]
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop():
        state = wl.client_state()
        while True:
            with lock:
                est = statistics.median(lat) if lat else 0.0
                if attempted[0] >= MIN_UNITS and time.perf_counter() + est > deadline:
                    return
                attempted[0] += 1
                n = attempted[0]
            with wl.tracer.span("unit", n=n) as sp:
                try:
                    wl.unit(state, sp.id)
                    err = None
                except (ValueError, KeyError, TypeError, BenchError, OSError,
                        http.client.HTTPException) as e:
                    err = f"{type(e).__name__}: {e}"
            with lock:
                if err is None:
                    lat.append(sp.seconds)
                else:
                    failures.append(err)

    threads = [threading.Thread(target=client_loop) for _ in range(wl.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return lat, attempted[0], failures


# ---------------------------------------------------------------- layer probe

def probe(wl):
    """Per-layer breakdown of the workload's cell mix.

    Every cell runs through the phelps CLI without and with the obs collector
    (-json), then as a one-cell job on a fresh daemon, cold and then warm.
    The CLI and daemon results must agree exactly.
    """
    cells, flags, job_fields = wl.mix()
    order = wl.rng.sample(cells, len(cells))
    phelps = os.path.join(BIN, "phelps")
    plain, with_obs, insts, cycles = {}, {}, {}, {}
    with wl.tracer.span("probe.cli") as top:
        for w, c in order:
            args = [phelps, "-workload", w, "-config", c] + flags
            with wl.tracer.span("cli.plain", top.id, cell=f"{w}/{c}") as sp:
                code, out, err = run(args)
            if code != 0:
                raise ValueError(f"phelps {w}/{c}: exit {code}: {err.strip()[:200]}")
            insts[(w, c)], cycles[(w, c)] = check_cli_text(out, f"{w}/{c}")
            plain[(w, c)] = sp.seconds
            with wl.tracer.span("cli.obs", top.id, cell=f"{w}/{c}") as sp:
                code, out, err = run(args + ["-json"])
            if code != 0:
                raise ValueError(f"phelps -json {w}/{c}: exit {code}: {err.strip()[:200]}")
            d = check_cli_json(out, f"{w}/{c}")
            if (d["instructions"], d["cycles"]) != (insts[(w, c)], cycles[(w, c)]):
                raise ValueError(f"{w}/{c}: -json run differs from the plain run")
            with_obs[(w, c)] = sp.seconds

    daemon = Daemon(os.path.join(RUN, "probe-daemon"))
    daemon.boot()
    admit, cold, warm, results = [], [], [], {}
    try:
        client = Client(daemon.addr)
        with wl.tracer.span("probe.daemon") as top:
            for phase in ("cold", "warm"):
                for w, c in order:
                    req = dict(job_fields, workloads=[w], configs=[c])
                    res, adm, total = client.job(req, wl.tracer, top.id, PROBE_POLL_S)
                    cell = check_job(res, [(w, c)])[(w, c)]
                    admit.append(adm)
                    if phase == "cold":
                        cold.append(total)
                        r = cell["result"]
                        if (r["Retired"], r["Cycles"]) != (insts[(w, c)], cycles[(w, c)]):
                            raise ValueError(f"{w}/{c}: daemon result differs from the CLI")
                        results[(w, c)] = r
                    else:
                        if not cell.get("cached"):
                            raise ValueError(f"{w}/{c}: resubmission missed the results cache")
                        warm.append(total)
        counters = client.get("/v1/obs").get("counters", {})
    finally:
        daemon.stop()

    def total(d, keys):
        return sum(d[k] for k in keys)

    base = [k for k in cells if k[1] == "base"]
    helper = [k for k in cells if k[1] in HELPER_CONFIGS]
    base_insts = total(insts, base)
    helper_results = [results[k] for k in helper]
    return {
        "core_ns_per_inst": (total(plain, base) * 1e9 / base_insts, "ns"),
        "helper_ns_per_inst": (total(plain, helper) * 1e9 / total(insts, helper), "ns"),
        "host_ns_per_cycle": (total(plain, cells) * 1e9 / total(cycles, cells), "ns"),
        "obs_overhead_pct": ((total(with_obs, cells) / total(plain, cells) - 1) * 100, "%"),
        "cli_cell_ms": (statistics.median(plain.values()) * 1e3, "ms"),
        "daemon_admit_ms": (statistics.median(admit) * 1e3, "ms"),
        "daemon_cold_cell_ms": (statistics.median(cold) * 1e3, "ms"),
        "daemon_warm_job_ms": (statistics.median(warm) * 1e3, "ms"),
        "daemon_cache_hits": (counters.get("serve.cache.hits", 0), "count"),
        "journal_appends": (counters.get("serve.journal.appends", 0), "count"),
        "sim_minst": (total(insts, cells) / 1e6, "Minst"),
        "branch_mpki": (sum(results[k]["Mispredicts"] for k in base) * 1e3 / base_insts, "1/kinst"),
        "l3_mpki": (sum(results[k].get("Cache", {}).get("L3Misses", 0) for k in base) * 1e3 / base_insts,
                    "1/kinst"),
        "clock_skip_pct": (sum(results[k].get("SkippedCycles", 0) for k in cells) * 100 /
                           total(cycles, cells), "%"),
        "ht_per_100_mt": (sum(r.get("Phelps", {}).get("HTRetired", 0) for r in helper_results) * 100 /
                          total(insts, helper), "%"),
    }


# ---------------------------------------------------------------- main

def measure(wl, seconds, trace):
    setup_s = wl.setup()
    PEAK_KB[0] = 0
    lat, attempted, failures = closed_loop(wl, seconds)
    try:
        wl.finish()
    except (ValueError, KeyError, TypeError) as e:
        failures.append(f"{type(e).__name__}: {e}")
    for f in failures:
        print("FAILED", f, file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures)}
    if not trace:
        if not lat:
            raise BenchError("no unit of work completed")
        result["metrics"] = {
            "latency_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": PEAK_KB[0] / 1024, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        print(f"{wl.name}: {len(lat)} units, median {statistics.median(lat):.3f} s", file=sys.stderr)
        return result
    try:
        layers = probe(wl)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        raise BenchError(f"layer probe: {type(e).__name__}: {e}") from e
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    def on_signal(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_signal)

    tracer = Tracer(bool(a.trace))
    try:
        build()
        shutil.rmtree(RUN, ignore_errors=True)
        os.makedirs(RUN)
        wl = WORKLOADS[a.workload](a.seed, tracer)
        result = measure(wl, a.seconds, a.trace)
    except BenchError as e:
        print(f"hostbench: {e}", file=sys.stderr)
        return 1
    finally:
        kill_live()
        # Drop the run's state (the daemon's checkpoints run to gigabytes)
        # so its write-back does not land in the next run's window.
        shutil.rmtree(RUN, ignore_errors=True)
        if a.trace and tracer.spans:
            os.makedirs(TRACE_DIR, exist_ok=True)
            tracer.write(os.path.join(TRACE_DIR, f"{a.workload}-{a.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
