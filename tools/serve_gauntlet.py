#!/usr/bin/env python3
"""Robustness gauntlet for `diserun --serve`.

Usage: serve_gauntlet.py --diserun PATH [--burst N] [--drain-timeout S]

Drives a freshly started daemon through three phases and exits nonzero
on the first broken promise:

1. Correctness: a closed-loop set of well-formed, in-budget requests
   (functional, timing, and campaign shapes) is sent over the socket
   AND run through `diserun --batch` on the same jobs; each pair of
   responses must be bit-identical after stripping the serving envelope
   (seq/status/latency_ms) and the host-dependent host sections.
2. Gauntlet: a burst far past saturation — sent with no pacing at all,
   i.e. an unbounded arrival rate, with 10% malformed lines and 10%
   deadline-busting requests mixed in. Every line must get exactly one
   structured response (ok / overloaded / deadline_exceeded /
   malformed / error), the daemon must shed some of the burst with
   "overloaded" (proof admission control engaged). Then hostile inline
   `source` and `productions` (literals no encoding can hold, clashing
   sequence ids, tagged productions composed where tags cannot be) and
   machine geometry the simulator cannot build must each be answered
   with a structured "error", and a final well-formed request must
   still succeed (proof nothing crashed).
3. Drain: SIGTERM must terminate the process with exit code 0 within
   the drain timeout plus a small margin.

Stdlib only; used by CI and runnable locally against any build.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time


def fail(message):
    print(f"GAUNTLET FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class NdjsonClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=120)
        self.file = self.sock.makefile("rw", encoding="utf-8")

    def send(self, line):
        if isinstance(line, dict):
            line = json.dumps(line)
        self.file.write(line + "\n")
        self.file.flush()

    def recv(self):
        line = self.file.readline()
        if not line:
            fail("server closed the connection mid-conversation")
        return json.loads(line)

    def close(self):
        self.sock.close()


def strip_host(value):
    if isinstance(value, dict):
        return {k: strip_host(v) for k, v in value.items()
                if k != "host"}
    if isinstance(value, list):
        return [strip_host(v) for v in value]
    return value


SERVE_ENVELOPE = {"seq", "status", "latency_ms"}


def canonical_serve(resp):
    return strip_host({k: v for k, v in resp.items()
                       if k not in SERVE_ENVELOPE})


def canonical_batch(row):
    return strip_host({k: v for k, v in row.items() if k != "index"})


def correctness_jobs():
    jobs = []
    for i in range(6):
        jobs.append({
            "id": f"fn-{i}",
            "workload": "twolf",
            "max_insts": 30000 + 1000 * i,
        })
    jobs.append({"id": "timing", "workload": "twolf", "mode": "timing",
                 "max_insts": 20000})
    # No max_insts here: a campaign's golden run must exit cleanly,
    # so the request runs the workload to completion.
    jobs.append({
        "id": "campaign",
        "workload": "twolf",
        "mode": "campaign",
        "trials": 4,
        "seed": 11,
        "fault_targets": ["regfile"],
    })
    return jobs


def phase_correctness(port, diserun):
    jobs = correctness_jobs()
    client = NdjsonClient(port)
    for job in jobs:
        client.send(job)
    served = {}
    for _ in jobs:
        resp = client.recv()
        if resp.get("status") != "ok":
            fail(f"in-budget request answered {resp.get('status')!r}: "
                 f"{resp.get('error')}")
        served[resp["id"]] = canonical_serve(resp)
    client.close()

    with tempfile.TemporaryDirectory() as tmp:
        jobs_path = os.path.join(tmp, "jobs.json")
        out_path = os.path.join(tmp, "out.ndjson")
        with open(jobs_path, "w") as f:
            json.dump(jobs, f)
        proc = subprocess.run(
            [diserun, "--batch", jobs_path, "--batch-out", out_path],
            capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"diserun --batch exited {proc.returncode}: "
                 f"{proc.stderr}")
        with open(out_path) as f:
            rows = [json.loads(line) for line in f if line.strip()]

    if len(rows) != len(jobs):
        fail(f"batch produced {len(rows)} lines for {len(jobs)} jobs")
    for row in rows:
        want = canonical_batch(row)
        got = served.get(row["id"])
        if got != want:
            fail(f"serve response for {row['id']!r} differs from "
                 f"--batch:\n  serve: {json.dumps(got, sort_keys=True)}"
                 f"\n  batch: {json.dumps(want, sort_keys=True)}")
    print(f"gauntlet: correctness OK "
          f"({len(jobs)} serve responses bit-identical to --batch)")


def gauntlet_line(i):
    if i % 10 == 3:
        return "{ definitely not json", "malformed"
    if i % 10 == 7:
        return {
            "id": f"bust-{i}",
            "workload": "mcf",
            "deadline_ms": 1,
        }, "deadline"
    return {
        "id": f"load-{i}",
        "workload": "twolf",
        "max_insts": 25000 + 10 * i,
    }, "good"


# Client input that once tripped internal assertions (a PanicError takes
# the whole daemon down): each must come back as a structured "error".
HOSTILE_LINES = [
    {"id": "hostile-disp",
     "source": ".text\nmain: lda $1, 99999999999($31)\n"},
    {"id": "hostile-li",
     "source": ".text\nmain:\n    li 0x7fffffffffffffff, t0\n"},
    {"id": "hostile-branch",
     "source": ".text\nmain:\n    br zero, .+99999999\n"},
    {"id": "hostile-codeword",
     "source": ".text\nmain:\n    res0 99999, 0, 0, 0\n"},
    {"id": "hostile-dsl-disp", "workload": "twolf", "max_insts": 1000,
     "productions": "P1: class == load -> R1\n"
                    "R1: lda $dr4, 99999999($dr4)\n    T.INSN\n"},
    {"id": "hostile-dsl-literal", "workload": "twolf", "max_insts": 1000,
     "productions": "P1: class == load -> R1\n"
                    "R1: T.INSN\n    addq $dr1, 4096, $dr1\n"},
    {"id": "hostile-dsl-ids", "workload": "twolf", "max_insts": 1000,
     "productions": "P1: class == load -> A@3\n"
                    "A@3: T.INSN\nB@3: T.INSN\n"},
    {"id": "hostile-compose", "workload": "twolf", "max_insts": 1000,
     "acfs": [{"kind": "mfi"},
              {"kind": "productions", "compose": "merged"}],
     "productions": "P1: op == res0 -> tag\nA: T.INSN\n"},
    {"id": "hostile-rt", "workload": "twolf", "max_insts": 1000,
     "mfi": True, "rt_entries": 3, "rt_assoc": 2},
    {"id": "hostile-icache", "workload": "twolf", "max_insts": 1000,
     "mode": "timing", "icache_kb": 3},
]


def phase_gauntlet(port, burst):
    client = NdjsonClient(port)
    sent = 0
    for i in range(burst):
        line, _ = gauntlet_line(i)
        client.send(line)
        sent += 1
    statuses = {}
    for _ in range(sent):
        resp = client.recv()
        status = resp.get("status")
        if status not in ("ok", "overloaded", "deadline_exceeded",
                          "malformed", "error"):
            fail(f"unstructured response status {status!r}")
        if status == "overloaded" and "retry_after_ms" not in resp:
            fail("overloaded response without retry_after_ms")
        statuses[status] = statuses.get(status, 0) + 1
    if statuses.get("overloaded", 0) == 0:
        fail(f"burst of {burst} never tripped admission control "
             f"(statuses: {statuses})")
    if statuses.get("error", 0) > 0:
        fail(f"well-formed burst produced unexpected errors "
             f"(statuses: {statuses})")

    # Hostile programs and productions, one at a time (closed loop, so
    # admission control cannot shed them).
    for line in HOSTILE_LINES:
        client.send(line)
        resp = client.recv()
        if resp.get("status") != "error":
            fail(f"hostile request {line['id']!r} answered "
                 f"{resp.get('status')!r}, want a structured error")

    # The daemon must still serve cleanly after the storm.
    client.send({"id": "survivor", "workload": "twolf",
                 "max_insts": 12345})
    resp = client.recv()
    if resp.get("status") != "ok":
        fail(f"post-burst request answered {resp.get('status')!r}")
    client.send({"kind": "stats"})
    stats = client.recv()
    if stats.get("status") != "ok":
        fail("stats request failed after the burst")
    client.close()
    print(f"gauntlet: burst OK (statuses: "
          f"{json.dumps(statuses, sort_keys=True)}; "
          f"{len(HOSTILE_LINES)} hostile requests rejected)")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--diserun", required=True,
                        help="path to the diserun binary")
    parser.add_argument("--burst", type=int, default=400,
                        help="gauntlet burst size (unpaced)")
    parser.add_argument("--drain-timeout", type=float, default=5.0,
                        help="server drain budget in seconds")
    args = parser.parse_args()

    daemon = subprocess.Popen(
        [args.diserun, "--serve", "--listen", ":0",
         "--executors", "2", "--jobs", "2",
         "--max-pending", "64",
         "--drain-timeout-ms", str(int(args.drain_timeout * 1000))],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        handshake = daemon.stdout.readline().strip()
        prefix = "serve: listening on "
        if not handshake.startswith(prefix):
            fail(f"bad startup handshake: {handshake!r}")
        # The daemon advertises the actually-bound host:port.
        host, _, port_str = handshake[len(prefix):].rpartition(":")
        if host != "127.0.0.1":
            fail(f"expected a loopback bind, got {host!r}")
        port = int(port_str)
        print(f"gauntlet: daemon up on port {port}")

        phase_correctness(port, args.diserun)
        phase_gauntlet(port, args.burst)

        daemon.send_signal(signal.SIGTERM)
        deadline = time.time() + args.drain_timeout + 5.0
        while daemon.poll() is None:
            if time.time() > deadline:
                fail("daemon failed to drain within the timeout")
            time.sleep(0.05)
        if daemon.returncode != 0:
            fail(f"daemon exited {daemon.returncode} on SIGTERM")
        print("gauntlet: drained cleanly on SIGTERM")
        print("GAUNTLET PASS")
    finally:
        if daemon.poll() is None:
            daemon.kill()


if __name__ == "__main__":
    main()
