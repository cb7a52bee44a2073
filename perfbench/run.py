#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the eventorder analyser.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds bin/eventorder.exe and perfbench/tool/benchtool.exe
from source (dune, build directory .bench_build), generates the
workload's inputs from --seed, drives the built binary as a user would
for --seconds seconds, checks every answer against an oracle that does
not run the engine being measured, and prints a report.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
script also runs the traced pass (benchtool trace-*, in process, same
seeded inputs) and the metrics are the per-layer ones.  A traced run
shortens its untraced part to what the trace is compared with: one
races command, one pass over one instance per shape, or half the run
length of requests.  fail_ratio (failed / attempted) is printed and
recorded; the JSON line carries it as its failed and attempted fields.

Workloads (see BENCHMARK.json and perfbench/layers.json), with the
oracle each answer is checked against:

  stream_races      races --engine auto on a 10^6-event pc_mesh trace;
                    the reported races must equal the generator's
                    planted races, read from the trace file, with
                    undecided 0
  exact_reductions  batch mhb:a:b chb:b:a on Theorem 1/3 reductions,
                    under --engine auto and --engine sat; Dpll on the
                    source formula (a MHB b iff unsatisfiable, b CHB a
                    iff satisfiable), cross-checked by a truth table
  serve_mixed       nproc closed-loop clients against eventorder serve;
                    each pool request answered once in process through
                    Api.handle_line at set-up, and the daemon's
                    requests_served (stats op) covering every request

The serve_mixed traffic is an assumption, not a recording: Zipf(1.1)
popularity over 160 programs of 4-7 events; the engines packed, auto
and sat on 1/2, 1/4 and 1/4 of the popularity ranks, the models tso
and pso on 1/7 of them each, a pair query on every third rank (see
benchtool's pool).  The report prints the daemon's cache hit share
this mix produces.

An operation is one races command (stream_races), one query verdict
(exact_reductions) or one request (serve_mixed).  exact_reductions
runs whole passes over its instance set, at least one; a pass takes
about a minute on a 2-core machine, longer than the benchmark's run
length, so a run is usually one pass.  `failed` counts the
operations that failed, were refused, timed out or answered wrongly;
`correct` is false when the benchmark could not check an output (an
unparsable answer, or two oracles that disagree).  Every run appends a
stamped record to .perfbench/records.jsonl.
"""

import argparse
import glob
import hashlib
import itertools
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from statistics import median

BUILD_DIR = ".bench_build"
STATE_DIR = ".perfbench"
EVENTORDER = os.path.join(BUILD_DIR, "default", "bin", "eventorder.exe")
BENCHTOOL = os.path.join(BUILD_DIR, "default", "perfbench", "tool", "benchtool.exe")
# Set-up runs per benchmark run; setup_s is their median.  An
# exact_reductions set-up takes about 20 ms and a serve_mixed one about
# 0.3 s, so they take more samples to hold their medians steady.
SETUP_REPEATS = {"stream_races": 3, "exact_reductions": 21, "serve_mixed": 9}
STREAM_EVENTS = 1_000_000
REDUCTION_MAX_EVENTS = 1000

# Workload and metric names and units come from BENCHMARK.json; which
# end-to-end metrics are aliases of another on a workload, and the
# per-layer -> end-to-end map, from perfbench/layers.json.
with open("BENCHMARK.json") as _f:
    _BENCH = json.load(_f)
WORKLOADS = tuple(w["name"] for w in _BENCH["workloads"])
END_TO_END = [(m["name"], m["unit"]) for m in _BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _BENCH["per_layer"]]
with open(os.path.join("perfbench", "layers.json")) as _f:
    _LAYERS = json.load(_f)
ALIASES = _LAYERS["aliases"]
if set(_LAYERS["layers"]) != {n for n, _ in PER_LAYER} or set(ALIASES) != set(WORKLOADS):
    sys.exit("perfbench: perfbench/layers.json does not match BENCHMARK.json")
# Printed and recorded, not on the JSON line, whose metrics gate later
# changes: on a shared 2-core machine the run-to-run spread of p99_ms
# reached 0.2-0.5 of its median, wider than any bound the gate allows.
PRINTED_ONLY = [("p99_ms", "ms")]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env():
    # The analyser reads EO_* defaults (engine, jobs, cache dir, slices);
    # the benchmark fixes every setting on the command line instead.
    env = {k: v for k, v in os.environ.items() if not k.startswith("EO_")}
    env["DUNE_CACHE"] = "disabled"
    return env


def p99(xs):
    """The 99th percentile when at least ten samples lie beyond it;
    otherwise the slowest sample (runs of a few long operations)."""
    if len(xs) < 1000:
        return max(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


# ------------------------------------------------------------------
# Build and processes


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("bin"):
        raise BenchError("not a source checkout: run from the repository root")
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release",
        "./bin/eventorder.exe", "./perfbench/tool/benchtool.exe",
    ]
    p = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stdout[-4000:])


def run_proc(argv, errfile, timeout=170):
    """Runs argv to completion; returns (wall_s, peak_rss_mb, rc, stdout)."""
    with open(errfile, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                             env=child_env())
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            out = p.stdout.read()
            p.stdout.close()
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return wall, usage.ru_maxrss / 1024.0, p.returncode, out.decode()


def tool(args, work):
    wall, _, rc, out = run_proc([BENCHTOOL] + args, os.path.join(work, "tool.err"))
    if rc != 0:
        with open(os.path.join(work, "tool.err")) as f:
            raise BenchError("benchtool %s failed: %s" % (args[0], f.read()[-2000:]))
    return wall, json.loads(out.strip().splitlines()[-1])


class Run:
    """Samples and tallies of one benchmark run."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.checkable = True
        self.notes = []
        self.ops = []  # per-command detail kept in the record
        self.daemon = None  # the server's own stats (serve_mixed)
        self.layers = None  # traced-pass results (--trace 1)
        self.layer_wall = None  # untraced wall the layer shares refer to

    def fail(self, note):
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def set(self, name, values):
        self.samples[name] = list(values)


def summarise(run, name, reducer=median):
    vals = run.samples[name]
    return reducer(vals), len(vals)


# ------------------------------------------------------------------
# stream_races


def planted_races(path):
    """The generator's planted races: pairs of events labelled "race"
    that write the same fresh variable (read straight from the trace
    file, independent of the analyser)."""
    by_var = {}
    with open(path, "rb") as f:
        for line in f:
            if b'"race"' not in line or not line.startswith(b"event "):
                continue
            tok = line.split()
            writes = tok[tok.index(b"writes") + 1:]
            for v in writes:
                by_var.setdefault(int(v), []).append(int(tok[1]))
    races = set()
    for v, evs in by_var.items():
        if len(evs) != 2:
            raise BenchError("planted variable %d written %d times" % (v, len(evs)))
        races.add((min(evs), max(evs), (v,)))
    return races


def stream_races(args, work, run, jobs):
    path = os.path.join(work, "pc_mesh.eotrace")
    gen = [EVENTORDER, "gen", "--family", "pc_mesh", "--events", str(STREAM_EVENTS),
           "--seed", str(args.seed), "-o", path]
    setups = []
    for _ in range(SETUP_REPEATS[args.workload]):
        wall, _, rc, _ = run_proc(gen, os.path.join(work, "gen.err"))
        if rc != 0:
            raise BenchError("eventorder gen failed")
        setups.append(wall)
    run.set("setup_s", setups)
    planted = planted_races(path)
    cmd = [EVENTORDER, "races", "--engine", "auto", "--jobs", str(jobs),
           "--format", "json", path]
    walls, rss, decided = [], [], []
    deadline = time.perf_counter() + (args.seconds if not args.trace else 0)
    while True:
        wall, mb, rc, out = run_proc(cmd, os.path.join(work, "races.err"))
        run.ops.append({"wall_s": round(wall, 4), "rss_mb": round(mb, 1)})
        run.attempted += 1
        walls.append(wall)
        rss.append(mb)
        try:
            report = json.loads(out)
        except ValueError:
            run.checkable = False
            run.fail("races: unparsable output (exit %d)" % rc)
            decided.append(0.0)
        else:
            got = {(r["e1"], r["e2"], tuple(r["variables"])) for r in report["races"]}
            wrong = len(got ^ planted)
            ok = (rc == 0 and report["status"] == "ok" and not report["truncated"]
                  and report["undecided"] == 0 and wrong == 0)
            if not ok:
                run.fail("races: status %s, undecided %d, %d races off the planted set"
                         % (report["status"], report["undecided"], wrong))
            cands = report["candidates"]
            decided.append((cands - report["undecided"] - wrong) / cands if cands else 1.0)
        if time.perf_counter() >= deadline:
            break
    run.set("wall_s", walls)
    run.set("verdict_p50_s", walls)
    run.set("latency_ms", [w * 1000 for w in walls])
    run.set("throughput_rps", [len(walls) / sum(walls)])
    run.set("peak_rss_mb", [max(rss)])
    run.set("decided_ratio", decided)
    if args.trace:
        _, t = tool(["trace-stream", path, str(jobs)], work)
        untraced = median(walls)
        t["triage.races_big_self_s"] = t["triage.races_big_s"] - (
            t["prog.observed_replays_s"] + t["prog.conflicting_pairs_s"]
            + t["approx.order_clock_build_s"])
        t["obs.trace_overhead_ratio"] = t["traced_wall_s"] / untraced
        t["obs.layer_coverage_ratio"] = t["pipeline_s"] / untraced
        run.layers = t
        run.layer_wall = untraced


# ------------------------------------------------------------------
# exact_reductions


def brute_force_sat(nvars, clauses):
    for bits in range(1 << nvars):
        val = lambda lit: bool(bits >> (abs(lit) - 1) & 1) == (lit > 0)
        if all(any(val(l) for l in c) for c in clauses):
            return True
    return False


def exact_reductions(args, work, run, jobs):
    setups = []
    for _ in range(SETUP_REPEATS[args.workload]):
        wall, manifest = tool(["reductions", str(args.seed), work], work)
        setups.append(wall)
    run.set("setup_s", setups)
    insts = manifest["instances"]
    if args.trace:
        # The traced pass covers one instance per shape (see benchtool
        # trace-exact); the untraced pass it is compared with does too.
        first = {}
        for i in insts:
            first.setdefault((i["style"], i["vars"], len(i["clauses"])), i)
        insts = list(first.values())
    for i in insts:
        # Dpll (in benchtool) and a truth table here must agree.
        if brute_force_sat(i["vars"], i["clauses"]) != i["dpll_sat"]:
            run.checkable = False
            run.notes.append("oracles disagree on %s" % i["file"])
    verdicts, rss, passes, decided = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t_pass = 0.0
        for i in insts:
            sat = i["dpll_sat"]
            # Theorems 1 and 3: a MHB b iff the formula is unsatisfiable;
            # b CHB a iff it is satisfiable.
            expect = {"mhb:a:b": not sat, "chb:b:a": sat}
            for engine in ("auto", "sat"):
                cmd = [EVENTORDER, "batch", i["file"], "mhb:a:b", "chb:b:a",
                       "--engine", engine, "--max-events", str(REDUCTION_MAX_EVENTS),
                       "--format", "json"]
                wall, mb, rc, out = run_proc(cmd, os.path.join(work, "batch.err"))
                run.ops.append({"instance": os.path.basename(i["file"]), "engine": engine,
                                "wall_s": round(wall, 4), "rss_mb": round(mb, 1)})
                t_pass += wall
                verdicts.append(wall)
                rss.append(mb)
                run.attempted += len(expect)
                try:
                    results = {r["query"]: r for r in json.loads(out)["results"]}
                except (ValueError, KeyError):
                    run.checkable = False
                    for q in expect:
                        run.fail("%s %s %s: no answer (exit %d)"
                                 % (os.path.basename(i["file"]), engine, q, rc))
                        decided.append(0)
                    continue
                for q, want in expect.items():
                    r = results.get(q, {})
                    good = r.get("status") == "ok" and r.get("holds") == want
                    decided.append(1 if good else 0)
                    if not good:
                        run.fail("%s (%d events, %s) --engine %s: %s answered %s with "
                                 "status %s, oracle says %s"
                                 % (os.path.basename(i["file"]), i["events"],
                                    "SAT" if sat else "UNSAT", engine, q,
                                    r.get("holds"), r.get("status"), want))
        passes.append(t_pass)
        if time.perf_counter() >= deadline or args.trace:
            break
    run.set("wall_s", passes)
    run.set("verdict_p50_s", verdicts)
    run.set("latency_ms", [v * 1000 for v in verdicts])
    run.set("throughput_rps", [len(verdicts) / sum(verdicts)])
    run.set("peak_rss_mb", [max(rss)])
    run.set("decided_ratio", [sum(decided) / len(decided)])
    if args.trace:
        _, t = tool(["trace-exact", str(args.seed), work], work)
        if t.get("sat_probe_wrong", 0):
            run.checkable = False
            run.notes.append("traced sat probe disagrees with Dpll")
        hits = sum(t.get("triage.tier_hits." + k, 0) for k in ("approx", "reach", "sat", "enum"))
        t["triage.tier1_decided_ratio"] = t.get("triage.tier_hits.approx", 0) / hits if hits else 0.0
        untraced = passes[0]
        covered = sum(t.get(k, 0) for k in (
            "model.to_execution_s", "model.program_key_s", "feasible.skeleton_s",
            "triage.auto_answer_s", "encode.build_s", "sat.solve_s"))
        t["obs.trace_overhead_ratio"] = t["traced_wall_s"] / untraced
        t["obs.layer_coverage_ratio"] = covered / untraced
        run.layers = t
        run.layer_wall = untraced


# ------------------------------------------------------------------
# serve_mixed


def zipf_sequence(rng, pool, length, s=1.1):
    """Request indices with Zipf popularity: pool entry r has rank r
    (benchtool gives each rank a fixed cost class), so popular entries
    stay in the session LRU and the tail keeps missing it."""
    weights = [1.0 / (r + 1) ** s for r in range(pool)]
    return rng.choices(range(pool), weights=weights, k=length)


def request(sock_path, line, timeout=30):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall(line.encode() + b"\n")
        return json.loads(s.makefile("rb").readline())


def start_server(work, workers):
    sock_path = os.path.join(work, "serve.sock")
    if os.path.exists(sock_path):
        os.unlink(sock_path)
    err = open(os.path.join(work, "serve.err"), "wb")
    proc = subprocess.Popen(
        [EVENTORDER, "serve", "--socket", sock_path, "--workers", str(workers),
         "--max-events", "40"],
        stdout=subprocess.DEVNULL, stderr=err, env=child_env())
    err.close()
    ping = json.dumps({"schema": "eventorder.request/1", "op": "ping"})
    deadline = time.perf_counter() + 30
    while True:
        try:
            if request(sock_path, ping).get("status") == "ok":
                return proc, sock_path
        except (OSError, ValueError):
            pass
        if proc.poll() is not None or time.perf_counter() > deadline:
            stop_server(proc)
            raise BenchError("eventorder serve did not answer ping")
        time.sleep(0.005)


def stop_server(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def strip_volatile(doc):
    # Telemetry counters depend on cache state; everything else is the answer.
    doc.pop("stats", None)
    return doc


def closed_loop(sock_path, clients, lines, seq, stop_at):
    """Runs `clients` closed-loop connections from one thread: each sends
    its next request as soon as its previous answer is complete, until
    stop_at.  One thread, so the clients never wait on each other for
    the interpreter lock.  Returns (sequence index, send time, answer
    time, answer line) per request; a lost connection, or 60 s without
    an answer, ends a request with what arrived, checked like any other
    wrong answer."""
    sel = selectors.DefaultSelector()
    done, pending, numbers = [], {}, itertools.count()

    def finish(s):
        k, t0, answer = pending.pop(s)
        done.append((k, t0, time.perf_counter(), bytes(answer)))

    def close(s):
        sel.unregister(s)
        s.close()

    def send_next(s):
        t0 = time.perf_counter()
        if t0 >= stop_at:
            return close(s)
        k = next(numbers)
        pending[s] = (k, t0, bytearray())
        try:
            s.sendall(lines[seq[k % len(seq)]])
        except OSError:
            finish(s)
            close(s)

    for _ in range(clients):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(sock_path)
        sel.register(s, selectors.EVENT_READ)
        send_next(s)
    while pending:
        ready = sel.select(timeout=60)
        if not ready:
            for s in list(pending):
                finish(s)
                close(s)
        for key, _ in ready:
            s = key.fileobj
            try:
                chunk = s.recv(1 << 16)
            except OSError:
                chunk = b""
            answer = pending[s][2]
            answer += chunk
            if not chunk:
                finish(s)
                close(s)
            elif answer.endswith(b"\n"):
                finish(s)
                send_next(s)
    sel.close()
    return done


def serve_mixed(args, work, run, jobs):
    setups = []
    proc = None
    try:
        for _ in range(SETUP_REPEATS[args.workload]):
            if proc is not None:
                stop_server(proc)
            t0 = time.perf_counter()
            tool(["pool", str(args.seed), work], work)
            proc, sock_path = start_server(work, jobs)
            setups.append(time.perf_counter() - t0)
        run.set("setup_s", setups)
        with open(os.path.join(work, "requests.ndjson"), "rb") as f:
            lines = [l.rstrip(b"\n") + b"\n" for l in f if l.strip()]
        with open(os.path.join(work, "expected.ndjson")) as f:
            expected = [strip_volatile(json.loads(l)) for l in f if l.strip()]
        rng = random.Random(args.seed)
        seq = zipf_sequence(rng, len(lines), 200_000)
        seconds = args.seconds / 2 if args.trace else args.seconds
        warm = min(2.0, 0.1 * seconds)
        start = time.perf_counter()
        done = closed_loop(sock_path, jobs, lines, seq, start + warm + seconds)
        # requests_served counts control requests too: the one ping that
        # start_server saw answered, and each stats request before this
        # one.  The server counts a request after writing its answer, so
        # the last answers can reach the clients before their counts are
        # made; read again until every request sent is counted, for at
        # most two seconds.  Whatever is still uncounted then is missing.
        stats_line = json.dumps({"schema": "eventorder.request/1", "op": "stats"})
        settle_by = time.perf_counter() + 2
        reads = 0
        while True:
            stats = request(sock_path, stats_line)
            sent = len(done) + 1 + reads
            served = stats.get("requests_served")
            reads += 1
            if (not isinstance(served, int) or served >= sent
                    or time.perf_counter() > settle_by):
                break
            time.sleep(0.01)
        rss = vm_hwm_mb(proc.pid)
    finally:
        if proc is not None:
            stop_server(proc)
    # Every answer is checked, warm-up included; latencies come from the
    # measured part only.
    measured = [d for d in done if d[1] >= start + warm]
    run.attempted += len(done)
    good = 0
    checked = {}
    for k, t0, t1, raw in done:
        i = seq[k % len(seq)]
        ok = checked.get((i, raw))
        if ok is None:
            try:
                doc = strip_volatile(json.loads(raw))
            except ValueError:
                doc = None
            ok = doc is not None and doc.get("status") == "ok" and doc == expected[i]
            checked[(i, raw)] = ok
        good += ok
        if not ok:
            run.fail("request %d (pool %d): %s" % (k, i, raw[:200].decode(errors="replace")))
    missing = sent - served if isinstance(served, int) else sent
    for _ in range(missing):
        run.fail("server stats: requests_served %s < %d sent" % (served, sent))
    run.daemon = {k: stats.get(k) for k in ("requests_served", "overload_rejections")}
    counters = stats.get("counters", {})
    run.daemon.update({k: counters.get(k, 0) for k in
                       ("cache_memory_hits", "cache_disk_hits", "cache_misses")})
    lookups = sum(run.daemon[k] for k in ("cache_memory_hits", "cache_disk_hits", "cache_misses"))
    run.daemon["cache_hit_share"] = (
        (run.daemon["cache_memory_hits"] + run.daemon["cache_disk_hits"]) / lookups
        if lookups else 0.0)
    lat = [(t1 - t0) * 1000 for _, t0, t1, _ in measured]
    ends = sorted(t1 for _, _, t1, _ in measured)
    chunk = len(lines)
    passes = [ends[j + chunk - 1] - ends[j] for j in range(0, len(ends) - chunk + 1, chunk)]
    # Completed requests per whole second of the measured part; the
    # median of these windows, so a burst of load on the host that
    # stalls a second or two does not move the run's figure.
    per_window = [0] * max(1, int(ends[-1] - (start + warm)))
    for t1 in ends:
        w = int(t1 - (start + warm))
        if w < len(per_window):
            per_window[w] += 1
    run.set("wall_s", passes or [ends[-1] - (start + warm)])
    run.set("verdict_p50_s", [x / 1000 for x in lat])
    run.set("latency_ms", lat)
    run.set("throughput_rps", per_window)
    run.set("peak_rss_mb", [rss])
    run.set("decided_ratio", [good / len(done)])
    if args.trace:
        seqfile = os.path.join(work, "sequence.txt")
        sent = [seq[k % len(seq)] for k, _, _, _ in sorted(done)][:5000]
        with open(seqfile, "w") as f:
            f.write("\n".join(map(str, sent)) + "\n")
        _, t = tool(["trace-serve", work, seqfile], work)
        hits = sum(t.get("triage.tier_hits." + k, 0) for k in ("approx", "reach", "sat", "enum"))
        t["triage.tier1_decided_ratio"] = t.get("triage.tier_hits.approx", 0) / hits if hits else 0.0
        # Untraced, the same requests cost api.handle_line_s in process;
        # the layer probes after each request are the trace's overhead.
        t["server.transport_ms"] = median(lat) - t["api.handle_line_p50_s"] * 1000
        t["obs.trace_overhead_ratio"] = t["traced_wall_s"] / t["api.handle_line_s"]
        t["obs.layer_coverage_ratio"] = sum(t.get(k, 0) for k in (
            "prog.parse_interp_s", "model.to_execution_s", "model.program_key_s",
            "feasible.skeleton_s", "feasible.enumerate_s", "feasible.reach_s",
            "race.feasible_races_s", "encode.build_s", "sat.solve_s",
            "triage.auto_answer_s")) / t["api.handle_line_s"]
        run.layers = t
        run.layer_wall = t["api.handle_line_s"]


# ------------------------------------------------------------------
# Report


def end_to_end_metrics(run):
    m = {}
    lat = run.samples["latency_ms"]
    for name, unit in END_TO_END + PRINTED_ONLY:
        if name == "p50_ms":
            value, n = median(lat), len(lat)
        elif name == "p99_ms":
            value, n = p99(lat), len(lat)
        elif name == "peak_rss_mb":
            value, n = summarise(run, name, max)
        else:
            value, n = summarise(run, name)
        m[name] = {"value": value, "unit": unit, "samples": n}
    return m


def layer_metrics(run):
    t = run.layers
    return {name: {"value": float(t.get(name, 0.0)), "unit": unit, "samples": 1}
            for name, unit in PER_LAYER}


def stamp(args, jobs):
    def cmd_out(cmd):
        try:
            return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    digest = hashlib.sha256()
    for path in sorted(glob.glob("lib/**/*.ml*", recursive=True)
                       + glob.glob("bin/*.ml") + glob.glob("perfbench/**/*", recursive=True)):
        if os.path.isfile(path):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    in_git = cmd_out(["git", "rev-parse", "--show-toplevel"]) == os.getcwd()
    return {
        "commit": cmd_out(["git", "rev-parse", "HEAD"]) if in_git else "unknown",
        "source_sha256": digest.hexdigest()[:16],
        "nproc": jobs,
        "ocaml": cmd_out(["ocamlfind", "ocamlopt", "-version"]),
        "host": os.uname().nodename,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def interrupted(signum, _frame):
    # Unwind through the finally blocks, which stop every child.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, interrupted)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    jobs = nproc()
    try:
        build()
        work = os.path.join(STATE_DIR, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        os.makedirs(work, exist_ok=True)
        run = Run()
        try:
            {"stream_races": stream_races, "exact_reductions": exact_reductions,
             "serve_mixed": serve_mixed}[args.workload](args, work, run, jobs)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    e2e = end_to_end_metrics(run)
    layers = layer_metrics(run) if args.trace else None
    record = stamp(args, jobs)
    record.update({"correct": run.checkable, "attempted": run.attempted,
                   "failed": run.failed, "fail_ratio": run.failed / run.attempted,
                   "end_to_end": e2e, "per_layer": layers, "notes": run.notes,
                   "operations": run.ops})
    if run.daemon is not None:
        record["daemon"] = run.daemon
    with open(os.path.join(STATE_DIR, "records.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print("perfbench %s seed=%d seconds=%g nproc=%d commit=%s ocaml=%s"
          % (args.workload, args.seed, args.seconds, jobs, record["commit"][:12], record["ocaml"]))
    aliases = ALIASES[args.workload]
    for name, m in e2e.items():
        alias = "  (alias: %s)" % aliases[name] if name in aliases else ""
        print("  %-16s %14.6g %-6s samples=%d%s"
              % (name, m["value"], m["unit"], m["samples"], alias))
    print("  %-16s %14.6g %-6s samples=%d (failed %d of %d operations)"
          % ("fail_ratio", record["fail_ratio"], "ratio", run.attempted,
             run.failed, run.attempted))
    if run.daemon is not None:
        print("  daemon stats: %s" % json.dumps(run.daemon, sort_keys=True))
    for note in run.notes:
        print("  ! %s" % note)
    if layers:
        print("  per-layer (traced pass; share = layer time / untraced wall %.4g s):"
              % run.layer_wall)
        for name, m in layers.items():
            share = ("  share=%.3f" % (m["value"] / run.layer_wall)
                     if m["unit"] == "s" and run.layer_wall > 0 else "")
            print("    %-34s %14.6g %-6s%s" % (name, m["value"], m["unit"], share))
    metrics = layers if args.trace else {name: e2e[name] for name, _ in END_TO_END}
    print(json.dumps({
        "correct": run.checkable,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
