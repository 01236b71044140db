#!/usr/bin/env python3
"""The dxrec benchmark: one command per workload, every output checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. It builds the library, dxrecd and the
runner from source (CMake, into $CARGO_TARGET_DIR or .bench_build), makes
the workload's inputs from the seed, runs it for about --seconds, checks
every op against its golden, and prints one JSON object as the last line
of stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones (a separate traced run; spans are written next to the build).

Workload parameters and the layer -> end-to-end prediction table are in
perfbench/config.json.
"""

import argparse
import json
import os
import random
import select
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import harness as H  # noqa: E402


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# Build

def build():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target_dir), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_build_step(["cmake", "--build", build_dir, "-j",
                    str(max(1, os.cpu_count() or 1))])
    return {"runner": os.path.join(build_dir, "bench_runner"),
            "dxrecd": os.path.join(build_dir, "dxrecd"),
            "build_dir": build_dir}


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=840)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        raise BenchError("build step failed: " + " ".join(cmd[:2]))


# --------------------------------------------------------------------------
# Child processes

def run_child(cmd, timeout):
    """Runs cmd to completion; returns (stdout text, rusage). The child is
    reaped with wait4 so its peak RSS and CPU time are its own."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    deadline = time.monotonic() + timeout
    chunks = []
    try:
        while True:
            ready, _, _ = select.select([proc.stdout], [], [], 1.0)
            if ready:
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
            elif time.monotonic() > deadline:
                raise BenchError("timed out: " + os.path.basename(cmd[0]))
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        proc.stdout.close()
        raise
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (os.path.basename(cmd[0]),
                                                proc.returncode))
    return b"".join(chunks).decode(), rusage


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("no output")
    return json.loads(lines[-1])


def cpu_seconds(rusage):
    return rusage.ru_utime + rusage.ru_stime


# --------------------------------------------------------------------------
# Engine workloads

def run_ref(ratios, q=50):
    """A percentile over a run's CPU blocks of (mean op ms / reference
    kernel ms in the same block); see CpuBlocks in bench_runner.cc. On a
    shared host the same op runs up to ~1.8x slower while a co-tenant
    shares its core, in stretches of seconds to minutes, so a run's op
    times move with the host; the kernel slows with them. run_ref_p50 is
    the median; the p90 (op.run_ref_p90, traced run) spreads too widely
    across runs of the same code to hold to a bound."""
    if not ratios:
        raise BenchError("no finished CPU block")
    return H.median(ratios) if q == 50 else H.tail_percentile(ratios, q)


def engine_inputs(name, wcfg, rng, work):
    rename = H.Renamer(rng)
    files = {}
    if name == "recover-blowup":
        sigma, atoms = H.blowup(wcfg["p"], wcfg["q"])
        _, small = H.blowup(H.PAPER_SANITY["p"], H.PAPER_SANITY["q"])
        files["sanity_target.txt"] = H.render_instance(small, rename, rng)
    elif name == "certain-triangle":
        sigma, atoms = H.triangle(wcfg["s"], wcfg["t"])
        files["query.txt"] = H.render_query(wcfg["query"], rename)
    else:
        sigma, atoms = H.employee(wcfg["employees"], wcfg["departments"],
                                  wcfg["benefits"])
        files["query.txt"] = H.render_query(wcfg["query"], rename)
        files["cq.txt"] = files["query.txt"]
    files["sigma.txt"] = sigma
    files["target.txt"] = H.render_instance(atoms, rename, rng)
    for fname, text in files.items():
        with open(os.path.join(work, fname), "w") as f:
            f.write(text)
    return rename


def run_engine(name, wcfg, args, bins, work):
    rng = random.Random(args.seed)
    rename = engine_inputs(name, wcfg, rng, work)
    spans_path = os.path.join(work, "spans.jsonl")
    cmd = [bins["runner"], "engine", "--inputs=" + work,
           "--workload=" + name, "--threads=%d" % wcfg["threads"],
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--spans=" + spans_path]
    out, rusage = run_child(cmd, timeout=args.seconds * 3 + 60)
    data = last_json(out)

    golden = H.engine_golden(name, wcfg)
    attempted = failed = 0  # a failed engine op is a mismatch with its golden
    problems = []
    for group in data["outputs"]:
        attempted += group["count"]
        found = H.check_engine_output(name, group["output"], golden, rename)
        if found:
            failed += group["count"]
            problems.extend(found)
    if name == "recover-blowup":
        attempted += 1
        want = H.blowup_recoveries(H.PAPER_SANITY["p"],
                                   H.PAPER_SANITY["q"])[1]
        if (data["sanity_recoveries"] != want or
                want != H.PAPER_SANITY["recoveries"]):
            failed += 1
            problems.append("sanity row: %r recoveries, want %r" %
                            (data["sanity_recoveries"], want))
    for problem in sorted(set(problems)):
        log("wrong output: " + problem)

    if args.trace:
        metrics = engine_layers(name, wcfg, data, spans_path)
    else:
        op_ms = data["op_ms"]
        metrics = {
            "setup_s": H.median(data["setup_s"]),
            "ok_ratio": (attempted - failed) / attempted,
            "exact_ratio": 1.0,  # the exact entry points have no ladder
            "peak_rss_mb": rusage.ru_maxrss / 1024.0,
        }
        metrics["run_ref_p50"] = run_ref(data["ref_ratios"])
        log("%s: %d ops, p5 %.3f ms, p50 %.3f ms; %d blocks, op/kernel "
            "p50 %.4f p90 %.4f" %
            (name, len(op_ms), H.percentile(op_ms, 5), H.median(op_ms),
             len(data["ref_ratios"]), metrics["run_ref_p50"],
             run_ref(data["ref_ratios"], 90)))
    return attempted, failed, failed, metrics


INVERSE_CHASE_COUNTS = ("covers", "covers_passing_sub", "candidates",
                        "candidates_rejected", "recoveries_before_dedup",
                        "recoveries")


def inverse_chase_layers(m, stats, recover_ms, threads, ops):
    """inverse_chase.* per op from InverseChaseStats (as the runner's
    StatsJson) and the wall ms of the Recover calls that returned them."""
    for key in H.SEQUENTIAL_PHASES + H.PER_COVER_PHASES + INVERSE_CHASE_COUNTS:
        m["inverse_chase." + key] = sum(s[key] for s in stats) / ops
    # Every candidate the merge dropped: exact duplicates and isomorphic
    # copies together (InverseChaseStats does not split them).
    m["inverse_chase.dedup_removed"] = sum(
        s["recoveries_before_dedup"] - s["recoveries"] for s in stats) / ops
    m["inverse_chase.sub_pass_ratio"] = (
        sum(s["covers_passing_sub"] for s in stats) /
        max(1, sum(s["covers"] for s in stats)))
    m["inverse_chase.unattributed_ms"] = sum(
        H.recover_unattributed_ms(ms, s, threads)
        for ms, s in zip(recover_ms, stats)) / ops


def engine_layers(name, wcfg, data, spans_path):
    spans = H.load_spans(spans_path)
    selfs = H.self_times_ms(spans)
    ops = [i for i, s in enumerate(spans) if s["name"] == "op"]
    n = len(ops)
    m = zero_layers()

    def span_ms(i):
        return (spans[i]["end_us"] - spans[i]["start_us"]) / 1e3

    def mean_ms(span_name):
        vals = [span_ms(i) for i, s in enumerate(spans) if s["name"] == span_name]
        return sum(vals) / n if vals else 0.0

    recovers = [i for i, s in enumerate(spans) if s["name"] == "engine.recover"]
    if recovers:
        stats = [spans[i]["attrs"] for i in recovers]
        inverse_chase_layers(m, stats, [span_ms(i) for i in recovers],
                             wcfg["threads"], n)
        op_total = sum(span_ms(i) for i in ops)
        m["pool.serial_share"] = sum(s["merge_ms"] for s in stats) / op_total
        m["pool.busy_ratio"] = (
            sum(sum(s[k] for k in H.PER_COVER_PHASES) for s in stats) /
            (wcfg["threads"] * op_total))
    counters = [spans[i]["attrs"]["counters"] for i in ops]

    def per_op(key):
        return sum(c[key] for c in counters) / n
    m["pool.steals"] = per_op("pool.steals")
    m["hom.searches"] = per_op("hom.searches")
    m["hom.candidates"] = per_op("hom.candidates_tried")
    m["hom.backtracks"] = per_op("hom.backtracks")
    scanned = sum(c["stats.search.tuples_scanned"] for c in counters)
    matched = sum(c["stats.search.tuples_matched"] for c in counters)
    m["hom.selectivity"] = matched / scanned if scanned else 0.0
    m["instance.index_probes"] = per_op("stats.instance.index_probes")
    m["instance.full_scans"] = per_op("stats.instance.full_scans")
    m["relational.warm_columnar_ms"] = H.median(data["warm_columnar_ms"])
    m["logic.parse_ms"] = H.median(data["parse_ms"])
    m["certain.eval_ms"] = mean_ms("certain.eval")
    m["certain.exact_ms"] = mean_ms("certain.exact")
    m["tractable.analyze_ms"] = mean_ms("tractable.analyze")
    m["tractable.sound_ucq_ms"] = mean_ms("tractable.sound_ucq")
    m["subuniversal.build_ms"] = mean_ms("subuniversal.build")
    m["subuniversal.sound_cq_ms"] = mean_ms("subuniversal.sound_cq")
    atoms = [s["attrs"]["atoms"] for s in spans
             if s["name"] == "subuniversal.build"]
    m["subuniversal.atoms"] = sum(atoms) / n if atoms else 0.0
    m["op.unattributed_ms"] = sum(selfs[i] for i in ops) / n
    m["trace.overhead_ratio"] = (H.median(data["traced_ms"]) /
                                 H.median(data["untraced_ms"]))
    # The untraced op's wall time, which run_ref_p50 divides by the
    # reference kernel's (see run_ref for why).
    m["op.run_ref_p90"] = run_ref(data["ref_ratios"], 90)
    m["op.run_ms_p5"] = H.percentile(data["untraced_ms"], 5)
    m["op.run_ms_p50"] = H.median(data["untraced_ms"])
    m["op.run_ms_p90"] = H.tail_percentile(data["untraced_ms"], 90)
    log("%s: %d traced ops, spans in %s" % (name, n, spans_path))
    return m


# --------------------------------------------------------------------------
# serve-mix

# serve-mix method settings; the workload's own parameters are in
# config.json.
# Shares of --seconds given to the lo step, the hi step, each ladder step
# (traced run) and the in-process request loop (untraced run). The ladder
# stops at its first failing step, so it takes about four.
STEP_SHARES = {"lo": 0.35, "hi": 0.2, "ladder_step": 0.1, "request": 0.4}
# Untimed traffic at the hi rate after each measured boot, so the first
# timed requests do not pay for a cold process, allocator and CPU clock.
WARMUP_SECONDS = 1.0
# setup_s is the median of this many boots (the measured ones included).
SETUP_BOOTS = 11
# A step's backlog may grow by this many requests (or by half its early
# mean, if larger) before it counts as growing.
BACKLOG_SLACK_REQUESTS = 8


class Dxrecd:
    """One dxrecd process on an ephemeral loopback port."""

    live = []  # started and not yet reaped; killed if the run is cut

    def __init__(self, binary, flags, work, tag, openmetrics):
        cmd = [binary, "--port=0"] + list(flags)
        if openmetrics:
            cmd.append("--openmetrics=" + openmetrics)
        self.stderr = open(os.path.join(work, "dxrecd-%s.log" % tag), "w")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.stderr, cwd=work)
        Dxrecd.live.append(self)
        line = self._readline(30)
        if "listening on" not in line:
            self.kill()
            raise BenchError("dxrecd did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def _readline(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline().decode() if ready else ""

    def stop(self):
        """Drains per SIGTERM and reaps; returns the process rusage."""
        self.proc.send_signal(signal.SIGTERM)
        if self.proc.returncode is not None:  # reaped by send_signal's poll
            self._close()
            raise BenchError("dxrecd exited early with %d" %
                             self.proc.returncode)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self._close()
                if self.proc.returncode != 0:
                    raise BenchError("dxrecd exited with %d" %
                                     self.proc.returncode)
                return rusage
            time.sleep(0.02)
        self.kill()
        raise BenchError("dxrecd did not drain")

    def kill(self):
        # Popen.kill() may itself reap an exited process; wait() copes.
        self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self):
        self.proc.stdout.close()
        self.stderr.close()
        if self in Dxrecd.live:
            Dxrecd.live.remove(self)


def open_sessions(port, specs, expected):
    """Opens every session over one connection; raises unless each open
    is answered ok with the expected number of target atoms."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        f = sock.makefile("rwb")
        for i, spec in enumerate(specs):
            f.write((json.dumps({"id": str(i), "op": "open_session",
                                 "session": spec["name"],
                                 "sigma": spec["sigma"],
                                 "target": spec["target"]}) + "\n").encode())
        f.flush()
        for _ in specs:
            resp = json.loads(f.readline())
            spec = specs[int(resp["id"])]
            if H.check_serve_response("open_session", resp,
                                      expected[spec["name"]]) != "ok":
                raise BenchError("open_session failed: %r" % resp)
        f.close()


def serve_sessions(wcfg, rng):
    specs = []
    sigma_p, atoms_p = H.projection(wcfg["projection_n"])
    sigma_t, atoms_t = H.triangle(1, wcfg["triangle_t"])
    for i in range(wcfg["projection_sessions"]):
        rename = H.Renamer(rng)
        specs.append({"name": "p%d" % i, "sigma": sigma_p,
                      "target": H.render_instance(atoms_p, rename, rng),
                      "query": H.render_query(wcfg["projection_query"], rename)})
    for i in range(wcfg["triangle_sessions"]):
        rename = H.Renamer(rng)
        specs.append({"name": "t%d" % i, "sigma": sigma_t,
                      "target": H.render_instance(atoms_t, rename, rng),
                      "query": H.render_query(wcfg["triangle_query"], rename)})
    rename = H.Renamer(rng)
    churn = {"name": "churn", "sigma": sigma_p,
             "target": H.render_instance(atoms_p, rename, rng), "query": ""}
    return specs, churn


def write_sessions(path, specs):
    with open(path, "w") as f:
        for s in specs:
            f.write("\t".join([s["name"], s["sigma"], s["target"],
                               s["query"]]) + "\n")


def make_schedule(rng, rate, seconds, wcfg, specs, churn, tag):
    """The requests of one fixed-rate step: Poisson arrivals, op and
    session drawn from the seed. Returns events sorted by due time; each
    event's id is its index."""
    proj = [s for s in specs if s["name"].startswith("p")]
    tri = [s for s in specs if s["name"].startswith("t")]
    kinds = sorted(wcfg["mix"])
    weights = [wcfg["mix"][k] for k in kinds]
    conns = wcfg["connections"]
    events = []
    for k, due in enumerate(H.poisson_schedule(rng, rate, seconds)):
        kind = rng.choices(kinds, weights)[0]
        conn = rng.randrange(conns)
        if kind == "certain_projection" or kind == "certain_triangle":
            s = rng.choice(proj if kind == "certain_projection" else tri)
            events.append((due, conn, "certain", s["name"],
                           {"op": "certain", "session": s["name"],
                            "query": s["query"]}))
        elif kind == "recover_projection":
            s = rng.choice(proj)
            events.append((due, conn, "recover", s["name"],
                           {"op": "recover", "session": s["name"]}))
        else:
            name = "%s-c%d" % (tag, k)
            events.append((due, conn, "open_session", "churn",
                           {"op": "open_session", "session": name,
                            "sigma": churn["sigma"],
                            "target": churn["target"]}))
            close_due = due + int(wcfg["churn_close_after_ms"] * 1e3)
            events.append((close_due, conn, "close_session", "churn",
                           {"op": "close_session", "session": name}))
    events.sort(key=lambda e: e[0])
    return [{"due_us": e[0], "conn": e[1], "kind": e[2], "session": e[3],
             "request": dict(e[4], id=str(i))} for i, e in enumerate(events)]


def run_step(bins, port, events, work, tag, expected, wcfg):
    sched = os.path.join(work, "schedule-%s.tsv" % tag)
    results = os.path.join(work, "results-%s.tsv" % tag)
    with open(sched, "w") as f:
        for e in events:
            f.write("%d\t%d\t%s\n" % (e["due_us"], e["conn"],
                                      json.dumps(e["request"])))
    out, _ = run_child([bins["runner"], "loadgen", "--port=%d" % port,
                        "--schedule=" + sched,
                        "--conns=%d" % wcfg["connections"],
                        "--out=" + results], timeout=120)
    summary = last_json(out)
    if summary["unmatched"] or summary["send_errors"]:
        raise BenchError("loadgen %s: %r" % (tag, summary))
    records = []
    with open(results) as f:
        for e, line in zip(events, f):
            due, sent, recv, response = line.rstrip("\n").split("\t", 3)
            resp = json.loads(response) if response else None
            recv = int(recv)
            records.append({
                "due_us": int(due), "sent_us": int(sent),
                "done_us": recv if recv >= 0 else None,
                "kind": e["kind"], "session": e["session"], "response": resp,
                "outcome": H.check_serve_response(e["kind"], resp,
                                                  expected[e["session"]])})
    if len(records) != len(events):
        raise BenchError("loadgen returned %d of %d records" %
                         (len(records), len(events)))
    result = H.step_result(records, wcfg["p99_limit_ms"],
                           BACKLOG_SLACK_REQUESTS)
    result["records"] = records
    return result


def boot(bins, wcfg, work, tag, specs, expected, traced):
    """Starts dxrecd and opens the sessions; returns (server, seconds)."""
    t0 = time.perf_counter()
    server = Dxrecd(bins["dxrecd"], wcfg["dxrecd_flags"], work, tag,
                    os.path.join(work, "metrics-%s.om" % tag) if traced else None)
    try:
        open_sessions(server.port, specs, expected)
    except Exception:
        server.kill()
        raise
    return server, time.perf_counter() - t0


def run_serve(wcfg, args, bins, work):
    rng = random.Random(args.seed)
    specs, churn = serve_sessions(wcfg, rng)
    sessions_path = os.path.join(work, "sessions.tsv")
    write_sessions(sessions_path, specs + [churn])
    expected, _ = run_child([bins["runner"], "expect",
                             "--sessions=" + sessions_path], timeout=120)
    expected = last_json(expected)

    rates = wcfg["rates_rps"]
    warmup_events = make_schedule(rng, rates["hi"], WARMUP_SECONDS, wcfg,
                                  specs, churn, "w")
    lo_events = make_schedule(rng, rates["lo"],
                              args.seconds * STEP_SHARES["lo"],
                              wcfg, specs, churn, "lo")
    hi_events = make_schedule(rng, rates["hi"],
                              args.seconds * STEP_SHARES["hi"],
                              wcfg, specs, churn, "hi")
    ladder = wcfg["ladder_rps"]
    step_seconds = args.seconds * STEP_SHARES["ladder_step"]
    ladder_events = [make_schedule(rng, r, step_seconds, wcfg, specs, churn,
                                   "l%d" % i) for i, r in enumerate(ladder)]

    # Untraced: two boots (lo, hi). Traced: an untraced lo boot as the
    # overhead baseline, then lo / hi / ladder with telemetry on.
    plan = [("lo", False), ("hi", False)]
    if args.trace:
        plan = [("base", False), ("lo", True), ("hi", True), ("ladder", True)]
    setup, results, usage = [], {}, {}
    steps, warmups = [], []
    for tag, traced in plan:
        server, seconds = boot(bins, wcfg, work, tag, specs, expected, traced)
        setup.append(seconds)
        try:
            warmups.append(run_step(bins, server.port, warmup_events, work,
                                    "w-" + tag, expected, wcfg))
            if tag == "ladder":
                for i, events in enumerate(ladder_events):
                    step = run_step(bins, server.port, events, work,
                                    "l%d" % i, expected, wcfg)
                    steps.append((ladder[i], step))
                    log("ladder %d rps: p99 %.2f ms, backlog %+.1f, %s" %
                        (ladder[i], step["p99_ms"], step["backlog_growth"],
                         "pass" if step["passed"] else "FAIL"))
                    if not step["passed"]:
                        break
                    time.sleep(0.2)
            else:
                events = lo_events if tag in ("base", "lo") else hi_events
                results[tag] = run_step(bins, server.port, events, work, tag,
                                        expected, wcfg)
        except Exception:
            server.kill()
            raise
        usage[tag] = server.stop()
    for i in range(len(plan), SETUP_BOOTS):
        server, seconds = boot(bins, wcfg, work, "setup%d" % i, specs,
                               expected, False)
        setup.append(seconds)
        server.stop()

    measured = [results["lo"], results["hi"]]
    all_records = [r for step in measured for r in step["records"]]
    # Every other request (warm-up, traced baseline, ladder) fails the run
    # only when its answer is wrong: shed or slow ones are what the ladder
    # is there to find.
    others = warmups + [s for _, s in steps] + [
        step for tag, step in results.items() if tag not in ("lo", "hi")]
    other_records = [r for step in others for r in step["records"]]
    wrong = sum(1 for r in all_records + other_records
                if r["outcome"] == "wrong")
    attempted = len(all_records) + len(other_records)
    failed = sum(step["failed"] for step in measured) + sum(
        1 for r in other_records if r["outcome"] == "wrong")
    if wrong:
        log("serve-mix: %d wrong answers" % wrong)
    for tag in ("lo", "hi"):
        log("%s %d rps: %d requests, p50 %.3f ms, p99 %.3f ms, late p99 "
            "%.3f ms, backlog %+.1f" %
            (tag, rates[tag], results[tag]["attempted"], results[tag]["p50_ms"],
             results[tag]["p99_ms"], results[tag]["late_ms_p99"],
             results[tag]["backlog_growth"]))

    if args.trace:
        metrics = serve_layers(wcfg, results, steps, usage, work, bins,
                               sessions_path)
        return attempted, failed, wrong, metrics

    # One `certain` request through dxrecd's whole request path, in
    # process and in CPU blocks (see run_ref): the client-side latencies
    # above move with the host's wake-up latency (see serve_layers).
    out, _ = run_child([bins["runner"], "request", "--sessions=" + sessions_path,
                        "--seconds=%g" % (args.seconds * STEP_SHARES["request"])],
                       timeout=args.seconds + 60)
    data = last_json(out)
    session = specs[0]["name"]
    for group in data["outputs"]:
        attempted += group["count"]
        if H.check_serve_response("certain", group["response"],
                                  expected[session]) == "wrong":
            wrong += group["count"]
            failed += group["count"]
            log("wrong in-process answer: %r" % group["response"])

    answered = [r for r in all_records if r["kind"] in ("certain", "recover")
                and r["outcome"] in ("ok", "degraded")]
    metrics = {
        "setup_s": H.median(setup),
        "ok_ratio": 1.0 - sum(s["failed"] for s in measured) / len(all_records),
        "exact_ratio": (sum(1 for r in answered if r["outcome"] == "ok") /
                        max(1, len(answered))),
        "peak_rss_mb": max(u.ru_maxrss for u in usage.values()) / 1024.0,
    }
    metrics["run_ref_p50"] = run_ref(data["ref_ratios"])
    log("in-process certain: %d requests, p5 %.3f ms, p50 %.3f ms; %d "
        "blocks, op/kernel p50 %.5f p90 %.5f" %
        (len(data["op_ms"]), H.percentile(data["op_ms"], 5),
         H.median(data["op_ms"]), len(data["ref_ratios"]),
         metrics["run_ref_p50"], run_ref(data["ref_ratios"], 90)))
    return attempted, failed, wrong, metrics


def ratios(step):
    records = step["records"]
    answered = [r for r in records if r["response"] is not None and
                r["response"].get("ok")]
    return {
        "shed_ratio": sum(1 for r in records if r["outcome"] == "shed") /
        max(1, len(records)),
        "overload_admitted_ratio": sum(
            1 for r in answered if r["response"].get("overload_admitted")) /
        max(1, len(answered)),
        "degraded_ratio": sum(1 for r in answered
                              if r["outcome"] == "degraded") /
        max(1, len(answered)),
    }


def write_request_spans(path, steps):
    """One span per request (due -> answered) with a child for the
    generator's lateness (due -> sent), in the engine spans' format."""
    with open(path, "w") as f:
        index = 0
        for tag, step in steps:
            for i, r in enumerate(step["records"]):
                end = r["done_us"] if r["done_us"] is not None else r["sent_us"]
                request = "%s-%d" % (tag, i)
                f.write(json.dumps({"name": "serve." + r["kind"],
                                    "start_us": r["due_us"], "end_us": end,
                                    "parent": -1, "request": request,
                                    "attrs": {"outcome": r["outcome"]}}) + "\n")
                f.write(json.dumps({"name": "loadgen.late",
                                    "start_us": r["due_us"],
                                    "end_us": r["sent_us"], "parent": index,
                                    "request": request, "attrs": {}}) + "\n")
                index += 2


def serve_layers(wcfg, results, steps, usage, work, bins, sessions_path):
    m = zero_layers()
    lo = results["lo"]
    # Client-side latency, timed from each request's due time, and the
    # ladder's capacity. Reported here, not as end-to-end metrics: on a
    # shared host they move with the wake-up latency of idle cores (the
    # p1 to p50 of the same step spread 0.20 to 0.37 across seeds).
    for tag in ("lo", "hi"):
        m["serve.req_ms_p50." + tag] = results[tag]["p50_ms"]
        m["serve.req_ms_p99." + tag] = results[tag]["p99_ms"]
    m["serve.max_rps"] = H.max_passing_rate(
        [(r, s["passed"]) for r, s in steps])
    m["serve.cpu_ms_per_request"] = (
        sum(cpu_seconds(usage[tag]) for tag in ("lo", "hi")) * 1e3 /
        (results["lo"]["attempted"] + results["hi"]["attempted"]))
    hists = {}
    with open(os.path.join(work, "metrics-lo.om")) as f:
        hists = H.parse_openmetrics_histograms(f.read())
    wait = hists["dxrec_serve_queue_wait_micros"]
    req = hists["dxrec_serve_request_micros"]
    m["serve.queue_wait_ms_p50"] = H.histogram_quantile(wait, 0.5) / 1e3
    m["serve.queue_wait_ms_p99"] = H.histogram_quantile(wait, 0.99) / 1e3
    m["serve.request_ms_p50"] = H.histogram_quantile(req, 0.5) / 1e3
    m["serve.request_ms_p99"] = H.histogram_quantile(req, 0.99) / 1e3
    worker_rtt = [(r["done_us"] - r["sent_us"]) / 1e3 for r in lo["records"]
                  if r["kind"] in ("certain", "recover") and
                  r["outcome"] == "ok"]
    m["serve.wire_ms_p50"] = (H.median(worker_rtt) -
                              m["serve.queue_wait_ms_p50"] -
                              m["serve.request_ms_p50"])
    for op in ("certain", "recover", "open_session"):
        lat = [(r["done_us"] - r["due_us"]) / 1e3 for r in lo["records"]
               if r["kind"] == op and r["outcome"] == "ok"]
        if lat:
            m["serve.%s.client_ms_p50" % op] = H.median(lat)
            m["serve.%s.client_ms_p99" % op] = H.tail_percentile(lat)
    named = [("lo", lo), ("hi", results["hi"])]
    named += [("step%d" % (i + 1), s) for i, (_, s) in enumerate(steps)]
    for tag, step in named:
        for key, value in ratios(step).items():
            m["serve.%s.%s" % (key, tag)] = value
    write_request_spans(os.path.join(work, "spans.jsonl"),
                        [("lo", lo), ("hi", results["hi"])])
    m["loadgen.late_ms_p99"] = results["hi"]["late_ms_p99"]
    m["loadgen.backlog_growth"] = results["hi"]["backlog_growth"]
    m["trace.overhead_ratio"] = lo["p50_ms"] / results["base"]["p50_ms"]

    out, _ = run_child([bins["runner"], "replay", "--sessions=" + sessions_path],
                       timeout=120)
    replay = last_json(out)
    for key in ("parse_request_us", "engine_certain_us", "serialize_us",
                "session_open_us"):
        m["serve." + key] = replay[key]
    # The inverse chase a projection `certain` request recomputes.
    stats = replay["recover_stats"]
    inverse_chase_layers(m, [stats], [stats["total_ms"]], 1, 1)
    return m


# --------------------------------------------------------------------------

def load_json(path):
    with open(path) as f:
        return json.load(f)


BENCH = load_json(os.path.join(ROOT, "BENCHMARK.json"))
CONFIG = load_json(os.path.join(HERE, "config.json"))


def zero_layers():
    """Every per-layer metric at 0: a layer the workload does not run."""
    return {m["name"]: 0.0 for m in BENCH["per_layer"]}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A SIGTERM unwinds like an error, so no child outlives the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        bins = build()
        work = os.path.join(bins["build_dir"], "runs", "%s-seed%d-trace%d" %
                            (args.workload, args.seed, args.trace))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        wcfg = CONFIG["workloads"][args.workload]
        if args.workload != "serve-mix":
            attempted, failed, wrong, metrics = run_engine(
                args.workload, wcfg, args, bins, work)
        else:
            attempted, failed, wrong, metrics = run_serve(wcfg, args, bins,
                                                          work)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log("error: %s" % e)
        return 1
    finally:
        for server in list(Dxrecd.live):
            server.kill()

    wanted = BENCH["per_layer"] if args.trace else BENCH["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log("error: metrics not produced: %s" % ", ".join(missing))
        return 1
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
