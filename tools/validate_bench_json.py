#!/usr/bin/env python3
"""Validate DISE benchmark/stats JSON artifacts against their schema.

Usage: validate_bench_json.py FILE [FILE...]
       validate_bench_json.py --compare FILE_A FILE_B

Three artifact shapes are accepted:

* Bench artifacts (written via DISE_BENCH_JSON): a top-level document
  with schema_version / bench / kind / host / workloads, where each
  workload maps regimes to entries whose required keys depend on kind
  (timing, micro, campaign, throughput). Every entry carries a "host"
  section (wall-clock seconds + guest insts/sec). Timing entries
  additionally must satisfy the cycle-accounting invariant: the seven
  buckets sum exactly to cycles.
* Run registries (written by `diserun --stats-json`): the nested stats
  registry itself, recognized by its top-level "run"/"host" sections.
* Batch result streams (written by `diserun --batch`, recognized by the
  .ndjson extension): one JSON object per line with index/id/mode/ok;
  successful lines carry the unified "run" result (and "host"), failed
  lines an "error" message. Indices must be unique and cover 0..N-1.

--compare checks two artifacts for determinism: they must be deeply
identical after recursively stripping every host-dependent section
("host", "host_seconds", "blocks_translated"), the campaign "replay"
accounting (which legitimately differs between snapshot and
full-replay modes), and the
"sampling" sections (so sampled artifacts compare against full-detail
reruns on the architectural stream they must share) — wall-clock
throughput, replay economics, and sampling windows are the only fields
allowed to differ between reruns. The "fusion" section of
timing_mfi_fused entries is deliberately NOT stripped: fusion coverage
and the IPC delta are deterministic and must reproduce exactly. NDJSON streams are compared after sorting by
index, so two runs that completed jobs in different orders (different
worker counts) still compare equal.

Exits 0 when every file validates (or the pair matches), 1 with a
diagnostic per problem otherwise. Stdlib only.
"""

import json
import sys

BUCKET_KEYS = {
    "issue",
    "imiss_stall",
    "dmiss_stall",
    "branch_flush",
    "dise_stall",
    "hazard",
    "drain",
}

TIMING_KEYS = {
    "cycles",
    "insts",
    "ipc",
    "cpi",
    "host",
    "buckets",
    "counters",
}

MICRO_KEYS = {"iterations", "host", "items_per_second", "counters"}

CAMPAIGN_KEYS = {
    "injected",
    "outcomes",
    "detected_fraction",
    "parity_detected",
    "parity_recovered",
    "replay",
    "host",
}

THROUGHPUT_KEYS = {"insts", "host"}

# Sampled-timing section (timing_mfi_sampled entries, and any timing
# entry produced by a sampled run). "cpi_error" is present only when
# the producer also held the full-detail reference (the bench does; a
# lone sampled run cannot compute it).
SAMPLING_KEYS = {
    "period",
    "detail",
    "sampled_insts",
    "warmed_insts",
    "measured_cycles",
    "measured_cpi",
    "estimated_cycles",
}

# Macro-op-fusion section (timing_mfi_fused throughput entries). Fully
# deterministic — pair counts and IPC derive from the architectural and
# cycle streams — so --compare does NOT strip it: two reruns must agree
# on every field, including the IPC delta.
FUSION_KEYS = {
    "fused_pairs",
    "fused_insts",
    "pairs_cmp_branch",
    "pairs_addr_const",
    "pairs_shift_add",
    "pairs_addr_load",
    "pairs_addr_store",
    "pairs_load_op",
    "coverage",
    "ipc",
    "ipc_unfused",
    "ipc_delta_pct",
}

SERVICE_KEYS = {
    "requests",
    "ok",
    "error",
    "malformed",
    "shed",
    "deadline",
    "latency",
    "open_loop",
    "host",
}


class ValidationError(Exception):
    pass


def require(cond, message):
    if not cond:
        raise ValidationError(message)


def check_keys(entry, required, where):
    require(isinstance(entry, dict), f"{where}: entry is not an object")
    missing = required - entry.keys()
    require(not missing, f"{where}: missing keys {sorted(missing)}")


def check_buckets(entry, where):
    buckets = entry["buckets"]
    check_keys(buckets, BUCKET_KEYS, f"{where}.buckets")
    extra = buckets.keys() - BUCKET_KEYS
    require(not extra, f"{where}.buckets: unknown keys {sorted(extra)}")
    total = sum(buckets.values())
    require(
        total == entry["cycles"],
        f"{where}: buckets sum to {total}, cycles is {entry['cycles']}",
    )


def check_host_section(entry, where):
    host = entry["host"]
    require(isinstance(host, dict), f"{where}: host is not an object")
    missing = {"seconds", "insts_per_second"} - host.keys()
    require(not missing, f"{where}.host: missing keys {sorted(missing)}")
    require(host["seconds"] >= 0, f"{where}.host: negative seconds")
    require(
        host["insts_per_second"] >= 0,
        f"{where}.host: negative insts_per_second",
    )
    # Trace-cache work counter (bench_sim_throughput entries).
    if "blocks_translated" in host:
        require(
            isinstance(host["blocks_translated"], int)
            and host["blocks_translated"] >= 0,
            f"{where}.host: blocks_translated is not a non-negative "
            "integer",
        )


def check_sampling_section(entry, where):
    """Validate the optional sampled-timing section of an entry."""
    if "sampling" not in entry:
        return
    sampling = entry["sampling"]
    check_keys(sampling, SAMPLING_KEYS, f"{where}.sampling")
    require(
        sampling["period"] > 0,
        f"{where}.sampling: period must be positive",
    )
    require(
        0 < sampling["detail"] <= sampling["period"],
        f"{where}.sampling: detail out of [1, period]",
    )
    for key in ("sampled_insts", "warmed_insts", "measured_cycles",
                "estimated_cycles"):
        require(
            isinstance(sampling[key], int) and sampling[key] >= 0,
            f"{where}.sampling: {key} is not a non-negative integer",
        )
    require(
        sampling["measured_cpi"] >= 0,
        f"{where}.sampling: negative measured_cpi",
    )
    if "cpi_error" in sampling:
        require(
            sampling["cpi_error"] >= 0,
            f"{where}.sampling: negative cpi_error",
        )
    if "insts" in entry:
        covered = sampling["sampled_insts"] + sampling["warmed_insts"]
        require(
            covered == entry["insts"],
            f"{where}.sampling: sampled+warmed insts ({covered}) do not "
            f"cover the run ({entry['insts']})",
        )


def check_fusion_section(entry, where):
    """The fusion coverage section of timing_mfi_fused entries."""
    if "fusion" not in entry:
        return
    fusion = entry["fusion"]
    check_keys(fusion, FUSION_KEYS, f"{where}.fusion")
    extra = fusion.keys() - FUSION_KEYS
    require(not extra, f"{where}.fusion: unknown keys {sorted(extra)}")
    pairs = fusion["fused_pairs"]
    require(
        fusion["fused_insts"] == 2 * pairs,
        f"{where}.fusion: fused_insts ({fusion['fused_insts']}) is not "
        f"2 * fused_pairs ({pairs})",
    )
    family_sum = sum(
        fusion[k] for k in FUSION_KEYS if k.startswith("pairs_")
    )
    require(
        family_sum == pairs,
        f"{where}.fusion: per-family counts sum to {family_sum}, "
        f"fused_pairs is {pairs}",
    )
    require(
        0.0 <= fusion["coverage"] <= 1.0,
        f"{where}.fusion: coverage out of [0, 1]",
    )
    for key in ("ipc", "ipc_unfused"):
        require(fusion[key] >= 0, f"{where}.fusion: negative {key}")


def check_timing_entry(entry, where):
    check_keys(entry, TIMING_KEYS, where)
    require(entry["cycles"] >= 0, f"{where}: negative cycles")
    check_host_section(entry, where)
    check_buckets(entry, where)
    check_sampling_section(entry, where)
    counters = entry["counters"]
    require(isinstance(counters, dict), f"{where}: counters not an object")
    for section in ("pipeline", "run", "mem"):
        require(section in counters, f"{where}.counters: missing {section}")


def check_micro_entry(entry, where):
    check_keys(entry, MICRO_KEYS, where)
    require(entry["iterations"] > 0, f"{where}: zero iterations")
    check_host_section(entry, where)


def check_throughput_entry(entry, where):
    check_keys(entry, THROUGHPUT_KEYS, where)
    require(entry["insts"] > 0, f"{where}: zero insts")
    check_host_section(entry, where)
    # timing_mfi entries carry the feed-vs-step wall-clock ratio inside
    # the host section (host-relative, so --compare strips it).
    if "speedup_vs_step" in entry["host"]:
        require(
            entry["host"]["speedup_vs_step"] >= 0,
            f"{where}.host: negative speedup_vs_step",
        )
    check_sampling_section(entry, where)
    check_fusion_section(entry, where)


def check_campaign_entry(entry, where):
    check_keys(entry, CAMPAIGN_KEYS, where)
    check_host_section(entry, where)
    outcomes = entry["outcomes"]
    require(isinstance(outcomes, dict), f"{where}: outcomes not an object")
    require(
        sum(outcomes.values()) == entry["injected"],
        f"{where}: outcome counts do not sum to injected trials",
    )
    require(
        0.0 <= entry["detected_fraction"] <= 1.0,
        f"{where}: detected_fraction out of [0,1]",
    )
    replay = entry["replay"]
    require(isinstance(replay, dict), f"{where}: replay not an object")
    missing = {"replayed_insts", "saved_insts"} - replay.keys()
    require(not missing, f"{where}.replay: missing keys {sorted(missing)}")
    for key in ("replayed_insts", "saved_insts"):
        require(
            isinstance(replay[key], int) and replay[key] >= 0,
            f"{where}.replay: {key} is not a non-negative integer",
        )
    require(
        replay["replayed_insts"] > 0,
        f"{where}.replay: campaign executed zero instructions",
    )


def check_service_entry(entry, where):
    check_keys(entry, SERVICE_KEYS, where)
    check_host_section(entry, where)
    statuses = ("ok", "error", "malformed", "shed", "deadline")
    for key in ("requests",) + statuses:
        require(
            isinstance(entry[key], int) and entry[key] >= 0,
            f"{where}: {key} is not a non-negative integer",
        )
    total = sum(entry[key] for key in statuses)
    require(
        total == entry["requests"],
        f"{where}: status counts sum to {total}, "
        f"requests is {entry['requests']}",
    )
    require(entry["ok"] > 0, f"{where}: no successful requests")
    latency = entry["latency"]
    check_keys(latency, {"p50_ms", "p99_ms"}, f"{where}.latency")
    require(
        0 <= latency["p50_ms"] <= latency["p99_ms"],
        f"{where}.latency: p50/p99 out of order",
    )
    open_loop = entry["open_loop"]
    check_keys(open_loop, {"saturation_rps", "steps"},
               f"{where}.open_loop")
    require(
        open_loop["saturation_rps"] >= 0,
        f"{where}.open_loop: negative saturation_rps",
    )
    steps = open_loop["steps"]
    require(
        isinstance(steps, list) and steps,
        f"{where}.open_loop: no sweep steps",
    )
    for i, step in enumerate(steps):
        check_keys(
            step,
            {"offered_rps", "completed_rps", "requests", "ok", "shed",
             "deadline", "error"},
            f"{where}.open_loop.steps[{i}]",
        )


ENTRY_CHECKS = {
    "timing": check_timing_entry,
    "micro": check_micro_entry,
    "campaign": check_campaign_entry,
    "throughput": check_throughput_entry,
    "service": check_service_entry,
}


def validate_bench(doc, name):
    require(doc.get("schema_version") == 1, f"{name}: bad schema_version")
    require(bool(doc.get("bench")), f"{name}: missing bench name")
    kind = doc.get("kind")
    require(kind in ENTRY_CHECKS, f"{name}: unknown kind {kind!r}")
    host = doc.get("host")
    require(isinstance(host, dict), f"{name}: missing host section")
    require("seconds" in host and "jobs" in host, f"{name}: bad host section")
    workloads = doc.get("workloads")
    require(isinstance(workloads, dict), f"{name}: missing workloads")
    require(workloads, f"{name}: no workloads recorded")
    for workload, regimes in workloads.items():
        require(
            isinstance(regimes, dict) and regimes,
            f"{name}: workload {workload} has no regimes",
        )
        for regime, entry in regimes.items():
            ENTRY_CHECKS[kind](entry, f"{name}:{workload}/{regime}")


def validate_run_registry(doc, name):
    run = doc["run"]
    require(isinstance(run, dict), f"{name}: run is not an object")
    require("outcome" in run, f"{name}: run.outcome missing")
    require("dyn_insts" in run, f"{name}: run.dyn_insts missing")
    host = doc.get("host")
    require(isinstance(host, dict), f"{name}: missing host section")
    require(
        "seconds" in host and "insts_per_second" in host,
        f"{name}: bad host section",
    )
    if "pipeline" in doc:
        pipeline = doc["pipeline"]
        require("bucket" in pipeline, f"{name}: pipeline.bucket missing")
        total = sum(pipeline["bucket"].values())
        require(
            total == pipeline["cycles"],
            f"{name}: pipeline buckets sum to {total}, "
            f"cycles is {pipeline['cycles']}",
        )


def load_ndjson(path):
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise ValidationError(f"{path}:{lineno}: {err}")
    return rows


def validate_batch_ndjson(path):
    rows = load_ndjson(path)
    require(rows, f"{path}: empty batch stream")
    indices = set()
    for row in rows:
        require(isinstance(row, dict), f"{path}: line is not an object")
        for key in ("index", "id", "mode", "ok"):
            require(key in row, f"{path}: line missing {key!r}")
        where = f"{path}:index {row['index']}"
        require(
            isinstance(row["index"], int) and row["index"] >= 0,
            f"{where}: bad index",
        )
        require(row["index"] not in indices, f"{where}: duplicate index")
        indices.add(row["index"])
        if row["ok"]:
            run = row.get("run")
            require(isinstance(run, dict), f"{where}: missing run result")
            require("outcome" in run, f"{where}: run.outcome missing")
            require("dyn_insts" in run, f"{where}: run.dyn_insts missing")
            check_host_section(row, where)
        else:
            require(bool(row.get("error")), f"{where}: failed without error")
    require(
        indices == set(range(len(rows))),
        f"{path}: indices do not cover 0..{len(rows) - 1}",
    )


def validate_file(path):
    if path.endswith(".ndjson"):
        validate_batch_ndjson(path)
        return
    with open(path) as f:
        doc = json.load(f)
    require(isinstance(doc, dict), f"{path}: top level is not an object")
    if "schema_version" in doc:
        validate_bench(doc, path)
    elif "run" in doc:
        validate_run_registry(doc, path)
    else:
        raise ValidationError(f"{path}: neither a bench artifact nor a "
                              "run registry")


# "replay" differs between snapshot and full-replay campaign modes by
# design (it measures how much execution the snapshots saved), so it is
# stripped alongside the host sections: --compare asserts the two modes
# produce identical classifications, not identical replay economics.
# "latency" and "open_loop" (service artifacts) are wall-clock
# measurements: two serve_load runs must agree on every closed-loop
# status count, not on how fast the host served them. "sampling" is
# stripped so a sampled artifact compares equal to a full-detail rerun
# of the same jobs on everything they are required to agree on (the
# architectural stream); sampled-vs-sampled determinism of the section
# itself is covered by the test suite.
# "blocks_translated" lives in the host section; it is named here too so
# it is stripped wherever it appears.
HOST_KEYS = {"host", "host_seconds", "blocks_translated", "replay",
             "latency", "open_loop", "sampling"}


def strip_host(value):
    """Recursively drop host-dependent sections for determinism diffs."""
    if isinstance(value, dict):
        return {
            k: strip_host(v)
            for k, v in value.items()
            if k not in HOST_KEYS
        }
    if isinstance(value, list):
        return [strip_host(v) for v in value]
    return value


def first_difference(a, b, path=""):
    """Human-readable path of the first mismatch, or None if equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                return f"{path}/{key} (present on one side only)"
            diff = first_difference(a[key], b[key], f"{path}/{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if a != b:
        return f"{path} ({a!r} vs {b!r})"
    return None


def load_for_compare(path):
    if path.endswith(".ndjson"):
        rows = load_ndjson(path)
        rows.sort(key=lambda row: row.get("index", 0))
        return strip_host(rows)
    with open(path) as f:
        return strip_host(json.load(f))


def compare(path_a, path_b):
    a = load_for_compare(path_a)
    b = load_for_compare(path_b)
    diff = first_difference(a, b)
    if diff:
        print(
            f"DIFFER {path_a} vs {path_b}: first mismatch at {diff}",
            file=sys.stderr,
        )
        return 1
    print(f"IDENTICAL {path_a} vs {path_b} (host sections ignored)")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--compare":
        if len(argv) != 4:
            print("usage: validate_bench_json.py --compare FILE_A FILE_B",
                  file=sys.stderr)
            return 2
        return compare(argv[2], argv[3])
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        try:
            validate_file(path)
            print(f"OK {path}")
        except (ValidationError, json.JSONDecodeError, OSError, KeyError,
                TypeError) as err:
            print(f"FAIL {path}: {err}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
