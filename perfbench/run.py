#!/usr/bin/env python3
"""End-to-end benchmark of the shipped ``srtw`` binary.

    python3 perfbench/run.py --workload cold|warm|deadline|cli --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It builds ``srtw`` and the in-process
tracer (``perfbench/trace``) into ``$CARGO_TARGET_DIR`` (default
``.bench_build``). Then one client runs the workload in a closed loop for
``--seconds`` seconds, checks every answer, and prints one JSON object as
the last line of stdout. With ``--trace 0`` it holds the end-to-end
metrics. With ``--trace 1`` it holds the per-layer metrics. See
``perfbench/README.md`` for what each workload and metric is for.
"""

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import family  # noqa: E402
import loadgen  # noqa: E402
from loadgen import Conn, ProtocolError, Server, request_bytes  # noqa: E402

WORKLOADS = ("cold", "warm", "deadline", "cli")
DEADLINE_MS = 50
WARM_POOL = 64
# Set-ups per run; set-up time is their median. Prewarming the warm pool
# takes about 1.5 s, so that workload sets up fewer times.
SETUP_REPS = 9
WARM_SETUP_REPS = 3
OP_TIMEOUT_S = 30.0
# Traced-run sample sizes: multi6 and adversarial members through the
# in-process tracer, repeats of the CLI on the sample system, health probes.
TRACE_MULTI6 = 8
TRACE_DEADLINE = 6
TRACE_CLI_RUNS = 15
TRACE_HEALTHZ = 500
# Counters of /stats that the client's own tally must match.
STATS_KEYS = ("completed", "degraded", "failed", "cache_hits", "cache_misses", "shed")

E2E_UNITS = {"setup_s": "s", "p50_ms": "ms", "p90_ms": "ms", "ops_per_s": "1/s", "cpu_ms_per_op": "ms"}
LAYER_UNITS = {
    "serve.healthz_rtt_us": "us",
    "serve.overhead_us": "us",
    "serve.cache_hit_ratio": "ratio",
    "serve.shed": "count",
    "textfmt.parse_us": "us",
    "canon.form_us": "us",
    "busy.window_ms": "ms",
    "rbf.compute_ms": "ms",
    "paths.explore_ms": "ms",
    "paths.generated": "count",
    "paths.retained": "count",
    "paths.pruned_ratio": "ratio",
    "analysis.structural_ms": "ms",
    "analysis.rtc_ms": "ms",
    "analysis.rtc_ceiling_ms": "ms",
    "analysis.structural_threads_ms": "ms",
    "analysis.budgeted_structural_ms": "ms",
    "analysis.budgeted_rtc_ms": "ms",
    "analysis.stream_above_rtc_ratio": "ratio",
    "report.fifo_report_ms": "ms",
    "report.render_us": "us",
    "report.body_bytes": "bytes",
    "cli.exec_ms": "ms",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(tracer=False):
    """Builds srtw, and the tracer when asked; returns their paths. The
    tracer calls the layers' public functions, so an untraced run does not
    depend on them."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmds = [["cargo", "build", "--release", "--offline", "-p", "srtw", "--bin", "srtw"]]
    if tracer:
        cmds.append(["cargo", "build", "--release", "--offline", "--manifest-path",
                     os.path.join(HERE, "trace", "Cargo.toml")])
    for cmd in cmds:
        subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr, check=True)
    release = os.path.join(target, "release")
    return os.path.join(release, "srtw"), os.path.join(release, "perfbench-trace")


class Run:
    """What one workload run measured and found wrong."""

    def __init__(self):
        self.setup_s = []
        self.ops = []  # (start_ns, end_ns, ok)
        self.elapsed_s = 0.0
        self.cpu_s = 0.0
        self.errors = []
        self.extra_failed = 0

    def fail(self, index, why):
        start, end, _ = self.ops[index]
        self.ops[index] = (start, end, False)
        if len(self.errors) < 20:
            self.errors.append(f"op {index}: {why}")

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(1 for op in self.ops if not op[2]) + self.extra_failed

    def latencies_ms(self):
        """Every attempted op's latency; a failed op counts as beyond
        every percentile, at the op timeout."""
        return sorted((e - s) / 1e6 if ok else OP_TIMEOUT_S * 1e3 for s, e, ok in self.ops)


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def timed_loop(run, seconds, op):
    """Closed loop: calls ``op()`` until ``seconds`` have passed.
    ``op`` returns the (start_ns, end_ns, ok) of the request it made."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        stop = t0 + int(seconds * 1e9)
        while time.perf_counter_ns() < stop:
            run.ops.append(op())
        run.elapsed_s = (time.perf_counter_ns() - t0) / 1e9
    finally:
        gc.enable()


def reference(srtw, workdir):
    """The base multi6 document from the CLI, checked against the
    recorded bounds."""
    path = os.path.join(workdir, "multi6-base.srtw")
    with open(path, "w") as f:
        f.write(family.member("multi6", 1))
    out = subprocess.run([srtw, "analyze", path, "--json"], capture_output=True, timeout=60)
    if out.returncode != 0:
        raise RuntimeError(f"reference analysis failed ({out.returncode}): {out.stderr.decode()}")
    doc = json.loads(out.stdout)
    return doc, family.check_golden(doc)


# --- serve workloads -------------------------------------------------------


def stats(conn):
    status, _, body = conn.roundtrip(request_bytes("GET", "/stats"))
    if status != 200:
        raise ProtocolError(f"/stats answered {status}")
    return json.loads(body)


class ServeWorkload:
    """Inputs, prewarm and checks of one HTTP workload."""

    def __init__(self, name, seed, ref, pool_size=WARM_POOL):
        self.name = name
        self.ref = ref
        self.ks = family.factors(name, seed)
        self.headers = [("X-Deadline-Ms", str(DEADLINE_MS))] if name == "deadline" else []
        self.family = "adversarial" if name == "deadline" else "multi6"
        if name == "warm":
            self.pool = [next(self.ks) for _ in range(pool_size)]
            self.pool_raw = [self.raw(k) for k in self.pool]
            self.first = {}
        self.answers = []  # (op index, k, status, body) to check after timing

    def raw(self, k):
        body = family.member(self.family, k).encode()
        return request_bytes("POST", "/analyze", body, self.headers)

    def prewarm(self, conn):
        """The untimed requests that end set-up: the warm pool, or one
        request of the workload's own kind."""
        if self.name == "warm":
            self.first = {}
            for k, raw in zip(self.pool, self.pool_raw):
                status, _, body = conn.roundtrip(raw)
                self.first[k] = (status, body)
        else:
            k = next(self.ks)
            status, _, body = conn.roundtrip(self.raw(k))
            self.warmup = (k, status, body)

    def op(self, conn, i):
        if self.name == "warm":
            k, raw = self.pool[i % len(self.pool)], self.pool_raw[i % len(self.pool)]
        else:
            k = next(self.ks)
            raw = self.raw(k)
        start = time.perf_counter_ns()
        try:
            status, _, body = conn.roundtrip(raw)
        except (OSError, ProtocolError):
            return (start, time.perf_counter_ns(), False), None
        end = time.perf_counter_ns()
        if self.name == "warm":
            ok = (status, body) == self.first[k]
            return (start, end, ok), status
        self.answers.append((i, k, status, body))
        return (start, end, status == 200), status

    def check(self, status, body, k):
        if self.name == "deadline":
            return family.check_deadline(status, body)
        if status != 200:
            return f"status {status}: {body[:200]!r}"
        return family.check_scaled(body, self.ref, k)

    def expected_stats(self, statuses):
        ok = statuses.count(200)
        shed = statuses.count(503)
        other = len([s for s in statuses if s not in (200, 503)])
        want = dict.fromkeys(STATS_KEYS, 0)
        want.update(failed=other, shed=shed)
        if self.name == "warm":
            want.update(completed=ok, cache_hits=ok)
        elif self.name == "cold":
            want.update(completed=ok, cache_misses=ok + other)
        else:
            want.update(degraded=ok, cache_misses=ok + other)
        return want


def run_serve(srtw, workdir, name, seed, seconds, ref, pool_size=WARM_POOL):
    """Runs one HTTP workload. Returns the Run, the /stats delta and the
    server's health-probe round trips (µs) taken after timing."""
    w = ServeWorkload(name, seed, ref, pool_size)
    run = Run()
    log_path = os.path.join(workdir, f"serve-{name}.log")
    server = conn = None
    try:
        for rep in range(WARM_SETUP_REPS if name == "warm" else SETUP_REPS):
            if server is not None:
                conn.close()
                server.stop()
            t0 = time.perf_counter()
            server = Server(srtw, log_path)
            server.wait_ready()
            conn = Conn(server.addr, OP_TIMEOUT_S)
            w.prewarm(conn)
            run.setup_s.append(time.perf_counter() - t0)

        before = stats(conn)
        cpu0 = server.cpu_ticks()
        statuses = []

        def op():
            rec, status = w.op(conn, len(run.ops))
            statuses.append(status)
            return rec

        timed_loop(run, seconds, op)
        run.cpu_s = (server.cpu_ticks() - cpu0) / loadgen.CLK_TCK
        after = stats(conn)
        log(f"{name}: {len(run.ops)} timed requests over {conn.connects} connection(s)")

        healthz = request_bytes("GET", "/healthz")
        probes = []
        for _ in range(TRACE_HEALTHZ):
            t = time.perf_counter_ns()
            conn.roundtrip(healthz)
            probes.append((time.perf_counter_ns() - t) / 1e3)
    finally:
        if conn is not None:
            conn.close()
        if server is not None:
            server.stop()

    # Answers are checked after timing so the checks cost no client time.
    if name == "warm":
        for k, (status, body) in w.first.items():
            why = w.check(status, body, k)
            if why:
                run.errors.append(f"pool member k={k}: {why}")
                run.extra_failed += 1
        for i, (start, end, ok) in enumerate(run.ops):
            if not ok and len(run.errors) < 20:
                run.errors.append(f"op {i}: not the pool member's first answer")
    else:
        k, status, body = w.warmup
        why = w.check(status, body, k)
        if why:
            run.errors.append(f"warm-up k={k}: {why}")
            run.extra_failed += 1
        for i, k, status, body in w.answers:
            why = w.check(status, body, k)
            if why:
                run.fail(i, f"k={k}: {why}")

    delta = {key: after.get(key, 0) - before.get(key, 0) for key in STATS_KEYS}
    want = w.expected_stats([s for s in statuses if s is not None])
    mismatch = sum(abs(delta[key] - want[key]) for key in STATS_KEYS)
    if mismatch:
        run.extra_failed += mismatch
        run.errors.append(f"/stats delta {delta} != client tally {want}")
    return run, delta, probes


# --- cli workload ----------------------------------------------------------


def run_cli(srtw, workdir, seed, seconds, ref):
    """One ``srtw analyze FILE --json`` process per op, at the default
    thread count."""
    ks = family.factors("cli", seed)
    path = os.path.join(workdir, "cli-member.srtw")
    run = Run()
    outputs = []  # (op index, k, returncode, stdout, stderr)

    def write_member():
        k = next(ks)
        with open(path, "w") as f:
            f.write(family.member("multi6", k))
        return k

    def invoke():
        return subprocess.run([srtw, "analyze", path, "--json"], capture_output=True, timeout=OP_TIMEOUT_S)

    warmups = []
    for _ in range(SETUP_REPS):
        k = write_member()
        t0 = time.perf_counter()
        out = invoke()
        run.setup_s.append(time.perf_counter() - t0)
        warmups.append((k, out))

    def op():
        k = write_member()
        start = time.perf_counter_ns()
        try:
            out = invoke()
        except subprocess.TimeoutExpired:
            return (start, time.perf_counter_ns(), False)
        end = time.perf_counter_ns()
        outputs.append((len(run.ops), k, out.returncode, out.stdout, out.stderr))
        return (start, end, out.returncode == 0)

    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    timed_loop(run, seconds, op)
    usage1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    run.cpu_s = (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime)

    def check(code, stdout, stderr, k):
        if code != 0:
            return f"exit {code}: {stderr[:200]!r}"
        return family.check_scaled(stdout, ref, k)

    for k, out in warmups:
        why = check(out.returncode, out.stdout, out.stderr, k)
        if why:
            run.errors.append(f"warm-up k={k}: {why}")
            run.extra_failed += 1
    for i, k, code, stdout, stderr in outputs:
        why = check(code, stdout, stderr, k)
        if why:
            run.fail(i, f"k={k}: {why}")
    return run


# --- traced run ------------------------------------------------------------


def write_client_spans(path, workload, run):
    with open(path, "w") as f:
        for i, (start, end, ok) in enumerate(run.ops):
            f.write(json.dumps({"id": i, "req": i, "name": f"client.{workload}", "parent": None,
                                "start_ns": start, "end_ns": end, "ok": ok}) + "\n")


def trace_layers(srtw, tracer, workdir, workload, seed):
    """Per-layer medians from the in-process tracer on the seed's inputs,
    plus the CLI's fixed cost on the shipped sample system."""
    args = [tracer, "--spans", os.path.join(workdir, f"spans-{workload}-{seed}-layers.jsonl"),
            "--deadline-ms", str(DEADLINE_MS)]
    for fam, label, n in (("multi6", "multi6", TRACE_MULTI6), ("adversarial", "deadline", TRACE_DEADLINE)):
        ks = family.factors(f"trace-{fam}", seed)
        for i in range(n):
            k = next(ks)
            path = os.path.join(workdir, f"trace-{fam}-{i}.srtw")
            with open(path, "w") as f:
                f.write(family.member(fam, k))
            args.append(f"{label}:{path}")
    out = subprocess.run(args, capture_output=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"tracer failed ({out.returncode}): {out.stderr.decode()}")
    layers = json.loads(out.stdout.decode().strip().splitlines()[-1])

    sample = os.path.join(family.DATA, "decoder.srtw")
    times = []
    for _ in range(TRACE_CLI_RUNS):
        t0 = time.perf_counter()
        cli = subprocess.run([srtw, "analyze", sample], capture_output=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
        if cli.returncode != 0:
            layers["errors"].append(f"srtw analyze {sample}: exit {cli.returncode}")
    layers["cli.exec_ms"] = statistics.median(times)
    return layers


def serve_layers(run, delta, probes, path_us):
    ops = run.latencies_ms()
    hits, misses = delta["cache_hits"], delta["cache_misses"]
    return {
        "serve.healthz_rtt_us": statistics.median(probes),
        "serve.overhead_us": statistics.median(ops) * 1e3 - path_us,
        "serve.cache_hit_ratio": hits / max(1, hits + misses),
        "serve.shed": delta["shed"],
    }


# --- main ------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    srtw, tracer = build(tracer=bool(a.trace))
    workdir = os.path.join(HERE, ".run")
    os.makedirs(workdir, exist_ok=True)
    ref, golden_error = reference(srtw, workdir)

    if a.workload == "cli":
        run = run_cli(srtw, workdir, a.seed, a.seconds, ref)
    else:
        run, delta, probes = run_serve(srtw, workdir, a.workload, a.seed, a.seconds, ref)
    if golden_error:
        run.errors.insert(0, golden_error)
        run.extra_failed += 1

    if a.trace:
        layers = trace_layers(srtw, tracer, workdir, a.workload, a.seed)
        write_client_spans(os.path.join(workdir, f"spans-{a.workload}-{a.seed}-client.jsonl"), a.workload, run)
        if a.workload == "cli":
            # The CLI has no HTTP layer: measure it on a short warm pass.
            side, delta, probes = run_serve(srtw, workdir, "warm", a.seed, min(a.seconds, 2.0), ref, pool_size=8)
            path_us = layers["path.hit_us"]
            run.errors += side.errors
            run.extra_failed += side.failed
        else:
            side = run
            path_us = layers["path.%s_us" % ("hit" if a.workload == "warm" else a.workload)]
        layers.update(serve_layers(side, delta, probes, path_us))
        if layers["errors"]:
            run.errors += layers["errors"]
            run.extra_failed += len(layers["errors"])
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        lat = run.latencies_ms()
        ok = sum(1 for op in run.ops if op[2])
        values = {
            "setup_s": statistics.median(run.setup_s),
            "p50_ms": percentile(lat, 50),
            "p90_ms": percentile(lat, 90),
            "ops_per_s": ok / run.elapsed_s,
            "cpu_ms_per_op": run.cpu_s * 1e3 / max(1, run.attempted),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        if run.attempted < 100:
            log(f"only {run.attempted} timed ops: p90 has fewer than 10 beyond it")

    for e in run.errors:
        log(f"FAILED {e}")
    for name, m in metrics.items():
        log(f"{a.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    # A terminated run still stops the server it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except (subprocess.CalledProcessError, RuntimeError, OSError, ProtocolError, ValueError) as e:
        log(f"error: {e}")
        sys.exit(2)
