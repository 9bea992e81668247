#!/usr/bin/env python3
"""The drep benchmark: builds drepbench from source and runs one workload.

    python3 drepbench/run.py --workload static-ga --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark package (drepbench/CMakeLists.txt, Release) into the directory
named by $CARGO_TARGET_DIR, or .bench_build. Each run then executes the
pipeline binary, checks its outputs, prints one human-readable line per
metric and, as its last line, a JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(from a traced run that also writes its spans under <build dir>/traces/).
The run exits non-zero without a result when the build fails, when the
build is not an optimized, audit-free Release build, or when an output
check fails (then "correct" is false).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# BENCHMARK.json at the checkout root declares the workloads and every
# metric's name and unit; a run emits exactly the declared set.
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def units_of(spec, kind):
    """name -> unit of the declared "end_to_end" or "per_layer" metrics."""
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


# Outputs that must be bit-identical across the repetitions of one run and
# between its traced and untraced repetitions.
PINNED_OUTPUTS = (
    "plan_cost", "plan_savings_pct", "plan_hash",
    "retune_cost", "retune_savings_pct", "retune_hash",
    "replay_data_traffic", "replay_read_latency",
    "serve_outcome_hash", "serve_served_cost", "snapshot_checksum",
    "sparse_cost", "sparse_hash", "sparse_lookup_hash", "sparse_lookup_cost",
)

# Tail percentiles, in hundredths of a percent so the rank arithmetic is
# exact: p50, p90, p99, p99.9, p99.99.
TAIL_LADDER = (5000, 9000, 9900, 9990, 9999)


class BenchError(Exception):
    """A failure that ends the run without a result."""


# --- statistics -----------------------------------------------------------


def rank(n, hundredths):
    """Nearest rank (1-based) of a percentile given in hundredths of a %."""
    return max(1, -(-n * hundredths // 10000))


def percentile(samples, hundredths):
    """Nearest-rank percentile of `samples`; 9900 means p99."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[rank(len(ordered), hundredths) - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond its rank,
    in hundredths of a percent, or None when even p50 has fewer."""
    best = None
    for hundredths in TAIL_LADDER:
        if n - rank(n, hundredths) >= 10:
            best = hundredths
    return best


def summarize(samples):
    """Median, sample count and the tail percentile the count supports."""
    if not samples:
        raise ValueError("summary of no samples")
    summary = {"median": statistics.median(samples), "n": len(samples),
               "tail_p": None, "tail": None}
    hundredths = tail_percentile(len(samples))
    if hundredths is not None:
        summary["tail_p"] = hundredths / 100
        summary["tail"] = percentile(samples, hundredths)
    return summary


def failure_share(counters):
    """Replay operations that failed (reads plus writes) over requests."""
    requests = counters["replay.requests"]
    if requests <= 0:
        raise ValueError("no replay requests attempted")
    failed = counters["replay.failed_reads"] + counters["replay.failed_writes"]
    if failed > requests:
        raise ValueError("more failed operations than requests")
    return failed / requests


def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - covered
            for span, covered in zip(spans, child_time)]


# --- build and run --------------------------------------------------------


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "drepbench", "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out, "drepbench")


def source_digest(root=ROOT):
    """sha256 over the sources the binary is built from (src/, drepbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "drepbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_describe(root=ROOT):
    """`git describe --always --dirty` of `root`, taken now, or "unknown"
    when `root` is not the top of a git work tree (a plain checkout)."""
    def git(*args):
        return subprocess.run(["git", "-C", root] + list(args),
                              capture_output=True, text=True, check=True
                              ).stdout.strip()
    try:
        top = git("rev-parse", "--show-toplevel")
        if os.path.realpath(top) != os.path.realpath(root):
            return "unknown"
        return git("describe", "--always", "--dirty") or "unknown"
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def check_provenance(provenance):
    """Refuses builds whose timings would not be comparable."""
    problems = []
    if provenance["build_type"] != "Release" or not provenance["ndebug"]:
        problems.append("not an optimized Release build (build_type=%s)"
                        % provenance["build_type"])
    if provenance["drep_audit"]:
        problems.append("DREP_AUDIT is armed")
    if problems:
        raise BenchError("refusing to report: " + "; ".join(problems))


def run_binary(binary, args, trace_path):
    out_path = os.path.join(build_dir(), "result-%s-%d-%d.json"
                            % (args.workload, args.seed, args.trace))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_path]
    subprocess.run(command, check=True, stdout=sys.stderr, stderr=sys.stderr)
    with open(out_path) as handle:
        doc = json.load(handle)
    os.remove(out_path)
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        spans = doc["spans"]
        for span, own in zip(spans, self_times(spans)):
            span["self"] = own
        with open(trace_path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "provenance": doc["provenance"], "spans": spans},
                      handle)
    return doc


# --- checks ---------------------------------------------------------------


def check_outputs(doc):
    """Every output-check failure of the run, as strings."""
    failures = []
    setups = doc["setups"]
    if len({s["input_hash"] for s in setups}) != 1:
        failures.append("set-ups with one seed built different inputs")
    reps = doc["reps"]
    for index, rep in enumerate(reps):
        failures += ["rep %d: %s" % (index, f) for f in rep["failures"]]
    probes = doc.get("probes", {})
    failures += ["probe: %s" % f for f in probes.get("failures", [])]
    reference = reps[0]["outputs"]
    for key in ("plan_cost", "plan_hash"):
        if key in probes and probes[key] != reference.get(key):
            failures.append("registry plan: %s differs from the pipeline's: "
                            "%r != %r" % (key, probes[key], reference.get(key)))
    for index, rep in enumerate(reps[1:], start=1):
        for key in PINNED_OUTPUTS:
            if rep["outputs"].get(key) != reference.get(key):
                kind = "traced" if rep["traced"] else "untraced"
                failures.append("rep %d (%s): %s differs from rep 0: %r != %r"
                                % (index, kind, key, rep["outputs"].get(key),
                                   reference.get(key)))
    return failures


# --- metrics --------------------------------------------------------------


def median_of(reps, section, key):
    return statistics.median(rep[section][key] for rep in reps)


def measured(doc, traced):
    """The timed repetitions of one kind (the warm-up is never timed)."""
    return [rep for rep in doc["reps"]
            if rep["traced"] == traced and not rep["warmup"]]


def end_to_end(doc):
    reps = measured(doc, traced=False)
    first = reps[0]
    replay_rps = [rep["counters"]["replay.requests"] / rep["times"]["replay_s"]
                  for rep in reps]
    serve_rps = [rep["counters"]["serve.requests"] / seconds
                 for rep in reps for seconds in rep["times"]["serve_pass_s"]]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in doc["setups"]),
        "pipeline_s": median_of(reps, "times", "pipeline_s"),
        "plan_s": median_of(reps, "times", "plan_s"),
        "plan_cost_pct": 100.0 - first["outputs"]["plan_savings_pct"],
        "retune_s": median_of(reps, "times", "retune_s"),
        "retune_cost_pct": 100.0 - first["outputs"]["retune_savings_pct"],
        "replay_rps": statistics.median(replay_rps),
        "replay_read_latency": first["outputs"]["replay_read_latency"],
        "delivered_ops_share": 1.0 - failure_share(first["counters"]),
        "serve_rps": statistics.median(serve_rps),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def per_layer(doc):
    untraced = measured(doc, traced=False)
    traced = measured(doc, traced=True)
    counters = traced[0]["counters"]
    probes = doc["probes"]
    setups = doc["setups"]

    def time_of(key):
        if key not in traced[0]["times"]:
            return 0.0
        return median_of(traced, "times", key)

    def count(key):
        return counters.get(key, 0)

    evals = count("gra.evaluations")
    full = count("gra.full_equiv_evals")
    requests = count("replay.requests")
    messages = count("replay.messages")
    reads = count("replay.local_reads") + count("replay.remote_reads")
    serve_requests = count("serve.requests")
    lookups = count("sparse_serve.lookups")
    evolve_s = time_of("gra_evolve_s")

    # Benchmark glue, per traced repetition: the self time of the pipeline
    # span and its stage spans, whose children are the library calls.
    glue = {}
    for span, seconds in zip(doc["spans"], self_times(doc["spans"])):
        if span["name"] in ("pipeline", "plan", "retune", "replay", "serve"):
            glue[span["run"]] = glue.get(span["run"], 0.0) + seconds

    metrics = {
        "workload.generate_s": statistics.median(
            s["generate_s"] for s in setups),
        "workload.trace_s": statistics.median(s["trace_s"] for s in setups),
        "sra.s": probes["sra_s"],
        "sra.site_visits": probes["sra_site_visits"],
        "sra.benefit_evals": probes["sra_benefit_evals"],
        "gra.seed_s": time_of("gra_seed_s"),
        "gra.evolve_s": evolve_s,
        "gra.evaluations": evals,
        "gra.full_equiv_evals": full,
        "gra.delta_share": full / evals if evals else 0.0,
        "gra.us_per_full_eval": 1e6 * evolve_s / full if evolve_s else 0.0,
        "gra.threads_speedup":
            probes["plan_threads1_s"] / probes["plan_threads4_s"],
        "agra.s": time_of("agra_s"),
        "agra.changed_objects": count("agra.changed_objects"),
        "agra.repairs": count("agra.repairs"),
        "agra.micro_ga_s": statistics.median(
            rep["counters"].get("agra.micro_ga_s", 0.0) for rep in traced),
        "replay.s": time_of("replay_s"),
        "replay.messages": messages,
        "replay.msgs_per_req": messages / requests,
        "replay.ns_per_msg": 1e9 * time_of("replay_s") / messages,
        "replay.local_read_share": count("replay.local_reads") / reads,
        "replay.retries": count("replay.retries"),
        "replay.timeouts": count("replay.timeouts"),
        "replay.failed_reads": count("replay.failed_reads"),
        "replay.failed_writes": count("replay.failed_writes"),
        "replay.failed_ops_share": failure_share(counters),
        "replay.stale_updates": count("replay.stale_updates"),
        "dgra.s": time_of("dgra_s"),
        "dgra.migrations_sent": count("dgra.migrations_sent"),
        "dgra.migrations_missed": count("dgra.migrations_missed"),
        "dgra.elites_readmitted": count("dgra.elites_readmitted"),
        "dgra.retries": count("dgra.retries"),
        "dadapt.s": time_of("dadapt_s"),
        "dadapt.retunes_run": count("dadapt.retunes_run"),
        "dadapt.updates_sent": count("dadapt.updates_sent"),
        "dadapt.updates_applied": count("dadapt.updates_applied"),
        "dadapt.updates_ignored": count("dadapt.updates_ignored"),
        "dadapt.directives_failed": count("dadapt.directives_failed"),
        "dadapt.retries": count("dadapt.retries"),
        "serve.freeze_s": time_of("serve_freeze_s"),
        "serve.trace_s": time_of("serve_trace_s"),
        "serve.ns_per_req": 1e9 * statistics.median(
            seconds for rep in traced for seconds in rep["times"]["serve_pass_s"])
            / serve_requests,
        "serve.generations": count("serve.generations"),
        "serve.reclaimed": count("serve.reclaimed"),
        "sparse.build_s": statistics.median(
            s["sparse_build_s"] for s in setups),
        "sparse.demand_cells": count("sparse.demand_cells"),
        "sparse_sra.s": time_of("sparse_sra_s"),
        "sparse_sra.site_visits": count("sparse_sra.site_visits"),
        "sparse_sra.benefit_evals": count("sparse_sra.benefit_evals"),
        "sparse_serve.freeze_s": time_of("sparse_freeze_s"),
        "sparse_serve.ns_per_lookup":
            1e9 * time_of("sparse_lookup_s") / lookups if lookups else 0.0,
        "pipeline.self_s": statistics.median(glue.values()),
        "trace.overhead_s": median_of(traced, "times", "pipeline_s")
                            - median_of(untraced, "times", "pipeline_s"),
    }
    return metrics


def describe_timings(doc):
    """Human-readable lines: each stage timing as median, n and tail."""
    lines = []
    reps = measured(doc, traced=False)
    for key in sorted(reps[0]["times"]):
        samples = []
        for rep in reps:
            value = rep["times"][key]
            samples += value if isinstance(value, list) else [value]
        s = summarize(samples)
        tail = ("p%g %.6g s" % (s["tail_p"], s["tail"]) if s["tail_p"]
                else "no tail percentile (needs >= 20 samples)")
        lines.append("  %-18s median %.6g s, n=%d, %s"
                     % (key, s["median"], s["n"], tail))
    return lines


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    spec = load_spec()
    args = parse_args(argv, [workload["name"] for workload in spec["workloads"]])
    started = time.monotonic()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        print("drepbench: build failed: %s" % error, file=sys.stderr)
        return 2
    trace_path = os.path.join(build_dir(), "traces",
                              "%s-seed%d.json" % (args.workload, args.seed))
    try:
        doc = run_binary(binary, args, trace_path)
        provenance = dict(doc["provenance"])
        provenance["git_describe"] = git_describe()
        provenance["source_digest"] = source_digest()
        check_provenance(provenance)
    except (subprocess.CalledProcessError, OSError, BenchError) as error:
        print("drepbench: %s" % error, file=sys.stderr)
        return 2

    failures = check_outputs(doc)
    if args.trace:
        metrics, units = per_layer(doc), units_of(spec, "per_layer")
    else:
        metrics, units = end_to_end(doc), units_of(spec, "end_to_end")
    if set(metrics) != set(units):
        failures.append("emitted metrics differ from the declared set: %s"
                        % sorted(set(metrics) ^ set(units)))

    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("workload %s, seed %d, %d repetitions (1 warm-up, %d traced), "
          "%d set-ups, %.1f s wall"
          % (args.workload, args.seed, len(doc["reps"]),
             sum(rep["traced"] for rep in doc["reps"]), len(doc["setups"]),
             time.monotonic() - started))
    for line in describe_timings(doc):
        print(line)
    for name in units:
        if name in metrics:
            print("  %-28s %.6g %s" % (name, metrics[name], units[name]))
    if args.trace:
        print("  spans written to %s" % os.path.relpath(trace_path, ROOT))
    for failure in failures:
        print("CHECK FAILED: " + failure)

    result = {
        "correct": not failures,
        "attempted": len(doc["reps"]),
        "failed": sum(1 for rep in doc["reps"] if rep["failures"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
