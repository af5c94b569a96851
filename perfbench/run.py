"""fuzzyhue benchmark: one seeded workload per run, checked against an oracle.

Usage, from the repository root:

    python3 perfbench/run.py --workload label-noise --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run writes the workload's seeded inputs and computes their oracle
(untimed), then runs the timed loop in SHARDS fresh worker interpreters that
split the window, with cold starts of ``import fuzzyhue`` (``setup_s``)
before each, and checks every output. Human-readable lines come first; the
last line of standard output is one JSON object. With ``--trace 0`` it carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run that
alternates traced and untraced blocks of requests.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"

# Workload -> request kind. BENCHMARK.json and README.md say why each exists.
KIND = {"label-noise": "label", "label-flat": "label", "classify-stream": "classify",
        "model-tools": "model"}
POOL = {"label-noise": 3, "label-flat": 6, "model-tools": 28}
# validate, metrics --format csv, report, plot memberships, plot spectrum
# and classify --hue: one model-tools request.
COMMANDS_PER_CYCLE = 6
# The window is split over SHARDS sequential worker processes, so one
# interpreter's luck (memory layout, hash seed) moves a run's figures less.
SHARDS = 2
# Requests per block when tracing alternates traced and untraced blocks.
TRACE_BLOCK = {"label": 1, "model": 1, "classify": 2000}
COLD_STARTS_PER_SHARD = 8
IMPORT_PROBES = 5
COLD_CODE = "import fuzzyhue; fuzzyhue.builtin_colibri()"
# Keeps a whole run under three minutes even if the program hangs.
WORKER_TIMEOUT_S = 75


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# -- set-up -----------------------------------------------------------------


def cold_starts(count: int) -> list[float]:
    """Seconds from a fresh interpreter to the builtin model, ``count`` times."""
    cmd = [sys.executable, "-c", COLD_CODE]
    times = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, capture_output=True,
                       timeout=60)
        times.append(perf_counter() - t0)
    return times


def import_times() -> dict:
    """Median cumulative import time per module, from ``-X importtime``."""
    samples = {"fuzzyhue": [], "fuzzyhue.cli": [], "fuzzyhue.render": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", COLD_CODE],
            env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True, timeout=60,
        )
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)$", line)
            if m and m.group(3) in samples:
                samples[m.group(3)].append(int(m.group(2)))
    return {name: statistics.median(v) for name, v in samples.items() if v}


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the seeded inputs, compute their oracle, and describe the pool."""
    ring = oracle.Ring(inputs.RING, inputs.COLIBRI_BOUNDARIES)
    kind = KIND[workload]
    if kind == "label":
        side = inputs.NOISE_SIDE if workload == "label-noise" else inputs.FLAT_SIDE
        make = inputs.noise_raster if workload == "label-noise" else inputs.flat_raster
        pool, expected = [], []
        for i in range(POOL[workload]):
            raster = make(seed, i)
            path = inputs.write(work / f"image-{i}.ppm", inputs.ppm_bytes(side, side, raster))
            pool.append({"path": str(path), "bytes": path.stat().st_size})
            expected.append(oracle.image_masses(ring, oracle.pixel_counts(raster)))
        tiny = inputs.noise_raster(seed, -1)[: 3 * 16 * 16]
        warmup = inputs.write(work / "warmup.ppm", inputs.ppm_bytes(16, 16, tiny))
        props = {
            "pixels": expected[0]["pixels"],
            "distinct_colours": statistics.median(e["distinct"] for e in expected),
            "achromatic_share": statistics.median(
                e["achromatic_pixels"] / e["pixels"] for e in expected
            ),
        }
        return {"pool": pool, "warmup": str(warmup), "expected": expected, "props": props}
    if kind == "classify":
        raw = inputs.stream_colours(seed)
        path = inputs.write(work / "colours.bin", raw)
        colours = list(zip(raw[0::3], raw[1::3], raw[2::3]))
        gray = sum(oracle.colour_masses(ring, rgb)[1] for rgb in colours)
        props = {
            "pixels": len(colours),
            "distinct_colours": len(set(colours)),
            "achromatic_share": gray / len(colours),
        }
        return {"pool": str(path), "colours": colours, "ring": ring, "props": props}
    configs = inputs.model_configs(seed, POOL[workload])
    pool = []
    for i, config in enumerate(configs):
        path = inputs.write(work / f"model-{i}.json", inputs.config_json(config))
        pool.append({"path": str(path), "hue": config["hue"]})
    props = {
        "configs": len(configs),
        "mean_categories": statistics.mean(len(c["names"]) for c in configs),
        "refused_share": sum(c["bad"] for c in configs) / len(configs),
    }
    return {"pool": pool, "configs": configs, "props": props}


# -- timed loop -------------------------------------------------------------


def run_shards(workload: str, seconds: float, trace: bool, prepared: dict,
               work: Path) -> tuple[list[dict], list[float]]:
    """Worker results, and the cold-start times taken before each shard."""
    kind = KIND[workload]
    pool_size = len(prepared.get("colours") or prepared["pool"])
    results = []
    setup = []
    if trace:
        TRACES.mkdir(exist_ok=True)
    # The first start may compile bytecode; users pay that once per install.
    cold_starts(1)
    for shard in range(SHARDS):
        setup += cold_starts(COLD_STARTS_PER_SHARD)
        job = {
            "kind": kind,
            "shard": shard,
            "src": str(SRC),
            "seconds": seconds / SHARDS,
            "trace": trace,
            "block": TRACE_BLOCK[kind],
            "start": shard * pool_size // SHARDS,
            "pool": prepared["pool"],
            "warmup": prepared.get("warmup"),
            "workdir": str(work),
            "out": str(work / f"result-{shard}.json"),
            "records": str(work / f"records-{shard}.jsonl"),
            "spans": str(TRACES / f"{workload}-{shard}.spans"),
        }
        job_path = work / f"job-{shard}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker shard {shard} failed:\n{proc.stderr}")
        result = json.loads(Path(job["out"]).read_text(encoding="utf-8"))
        with open(job["records"], encoding="utf-8") as f:
            result["records"] = [json.loads(line) for line in f]
        results.append(result)
    return results, setup


# -- checks -----------------------------------------------------------------


def check(workload: str, prepared: dict, results: list[dict]) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, first few problems).

    A wrong output counts once for every request that produced it: the loop
    visits the pool in order from the shard's start, so the number of visits
    per input follows from the request count.
    """
    kind = KIND[workload]
    per_request = COMMANDS_PER_CYCLE if kind == "model" else 1
    problems = []
    attempted = failed = 0
    for shard, result in enumerate(results):
        n = result["requests"]
        pool_size = len(prepared.get("colours") or prepared["pool"])
        start = shard * pool_size // SHARDS
        attempted += n * per_request
        failed += result["mismatches"]
        if result["mismatches"]:
            problems.append(f"{result['mismatches']} repeated inputs gave different output")
        for key, record in result["records"]:
            try:
                if kind == "label":
                    code, out = record
                    issue = f"label exit {code}" if code else None
                    issues = [issue or oracle.check_label(prepared["expected"][key], out, top_k=10)]
                elif kind == "classify":
                    rgb = prepared["colours"][key]
                    issues = [oracle.check_colour(prepared["ring"], rgb, record)]
                else:
                    issues = oracle.check_cycle(prepared["configs"][key], record)
            except Exception as exc:  # malformed output must fail the check, not the run
                issues = [f"unreadable output for input {key}: {exc!r}"]
            issues = [issue for issue in issues if issue]
            visits = n // pool_size + ((key - start) % pool_size < n % pool_size)
            failed += len(issues) * visits
            problems.extend(issues)
    return attempted, failed, problems[:5]


# -- metrics ----------------------------------------------------------------


def hist_quantile(hist: list[tuple[int, int]], q: float) -> float:
    total = sum(c for _, c in hist)
    rank = q * (total - 1)
    seen = 0
    for value, count in hist:
        seen += count
        if seen > rank:
            return float(value)
    return float(hist[-1][0])


def end_to_end(workload: str, results: list[dict], setup_s: float, prepared: dict):
    """(metrics for the JSON line, named figures for the human-readable lines)."""
    kind = KIND[workload]
    peak_rss_mb = max(r["peak_rss_kb"] for r in results) / 1024.0
    named = {}
    if kind == "classify":
        merged = {}
        for r in results:
            for value, count in r["hist_ns"]:
                merged[value] = merged.get(value, 0) + count
        hist = sorted(merged.items())
        n = sum(c for _, c in hist)
        total_s = sum(v * c for v, c in hist) * 1e-9
        p50_s = hist_quantile(hist, 0.5) * 1e-9
        named["classify_per_s"] = (n / total_s, "1/s")
        named["classify_us_p50"] = (p50_s * 1e6, "us")
        named["classify_us_p99"] = (hist_quantile(hist, 0.99) * 1e-3, "us")
        named["samples"] = (n, "count")
    else:
        latencies = [t for r in results for t in r["latency_s"]]
        n = len(latencies)
        total_s = sum(latencies)
        p50_s = statistics.median(latencies)
        if kind == "label":
            mpix = prepared["props"]["pixels"] / 1e6
            named["label_mpix_per_s"] = (n * mpix / total_s, "Mpix/s")
            named["label_s_p50"] = (p50_s, "s")
        else:
            for cls in ("validate", "plot", "table"):
                samples = [t for r in results for t in r["commands"][cls]]
                named[f"{cls}_s_p50"] = (statistics.median(samples), "s")
        named["samples"] = (n, "count")
    named["peak_rss_mb"] = (peak_rss_mb, "MB")
    named["setup_s"] = (setup_s, "s")
    # Gated: request throughput, not a latency percentile. On a shared host,
    # other tenants' load switches the CPU between speed levels for seconds
    # at a time; a median then jumps between levels from run to run, while
    # the mean moves only with the share of time spent at each level.
    metrics = {
        "req_per_s": {"value": n / total_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    return metrics, named


def per_layer(workload: str, results: list[dict], imports: dict, prepared: dict):
    """(per-layer metrics, cross-check lines) from the traced run's blocks."""
    kind = KIND[workload]
    blocks = [b for r in results for b in r["blocks"]]
    traced = [b for b in blocks if b["traced"]]
    plain = [b for b in blocks if not b["traced"]]
    requests = sum(len(b["keys"]) for b in traced) or 1

    def self_s(name):
        values = [
            b["self_s"][name] / len(b["keys"]) for b in traced if b["counts"].get(name)
        ]
        return statistics.median(values) if values else 0.0

    def total(name):
        return sum(b["counts"].get(name, 0) for b in traced)

    def per_request(name):
        return total(name) / requests

    def wall(group):
        values = [b["wall_s"] / len(b["keys"]) for b in group]
        return statistics.median(values) if values else 0.0

    pixels = 0
    read_rates = []
    if kind == "label":
        for b in traced:
            key = b["keys"][0]
            pixels += prepared["expected"][key]["pixels"]
            size = prepared["pool"][key]["bytes"]
            if b["self_s"].get("formats.read_image"):
                read_rates.append(size / b["self_s"]["formats.read_image"] / 1e6)
    elif kind == "classify":
        pixels = requests
    calls = total("classify.classify_color")
    lookups = total("partition.memberships") + total("partition.category_of")
    traced_wall, plain_wall = wall(traced), wall(plain)
    metrics = {
        "formats.read_image_s": (self_s("formats.read_image"), "s"),
        "formats.read_image_mb_per_s": (
            statistics.median(read_rates) if read_rates else 0.0, "MB/s"),
        "formats.load_partition_s": (self_s("formats.load_partition"), "s"),
        "classify.image_descriptor.self_s": (self_s("classify.image_descriptor"), "s"),
        "classify.classify_color.self_s": (self_s("classify.classify_color"), "s"),
        "classify.rgb_to_hsv_s": (self_s("classify.rgb_to_hsv"), "s"),
        "classify.classify_color_calls": (per_request("classify.classify_color"), "count"),
        "classify.distinct_ratio": (calls / pixels if pixels else 0.0, "ratio"),
        "classify.achromatic_ratio": (
            total("classify.classify_color.achromatic") / calls if calls else 0.0, "ratio"),
        "partition.memberships_s": (self_s("partition.memberships"), "s"),
        "partition.memberships_calls": (per_request("partition.memberships"), "count"),
        "partition.category_of_s": (self_s("partition.category_of"), "s"),
        "partition.from_boundaries_s": (self_s("partition.from_boundaries"), "s"),
        "fuzzyset.membership_calls": (per_request("fuzzyset.membership"), "count"),
        "fuzzyset.evals_per_lookup": (
            total("fuzzyset.membership.in_lookup") / lookups if lookups else 0.0, "count"),
        "metrics.metrics_table_s": (self_s("metrics.metrics_table"), "s"),
        "metrics.wideness_s": (self_s("metrics.wideness"), "s"),
        "circle.intersect_calls": (per_request("circle.intersect"), "count"),
        "render.render_memberships_s": (self_s("render.render_memberships"), "s"),
        "render.render_spectrum_s": (self_s("render.render_spectrum"), "s"),
        "render.svg_bytes": (per_request("render.svg_bytes"), "bytes"),
        "cli.cli_main.self_s": (self_s("cli.cli_main"), "s"),
        "import.fuzzyhue_us": (imports.get("fuzzyhue", 0.0), "us"),
        "import.fuzzyhue.cli_us": (imports.get("fuzzyhue.cli", 0.0), "us"),
        "import.fuzzyhue.render_us": (imports.get("fuzzyhue.render", 0.0), "us"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.overhead_ratio": (traced_wall / plain_wall - 1.0 if plain_wall else 0.0, "ratio"),
        "trace.traced_requests": (requests, "count"),
    }

    checks = []
    if kind == "label":
        bad = [
            b["keys"][0] for b in traced
            if b["counts"].get("classify.classify_color", 0)
            != prepared["expected"][b["keys"][0]]["distinct"]
        ]
        checks.append(
            ("classify_color calls per label == distinct colours of the image",
             not bad, f"{len(traced) - len(bad)}/{len(traced)} requests")
        )
    if kind == "model":
        expected = sum(
            2 * len(prepared["configs"][b["keys"][0]]["names"]) for b in traced
            if not prepared["configs"][b["keys"][0]]["bad"]
        )
        got = total("fuzzyset.membership.in_lookup")
        checks.append(
            ("membership evaluations in lookups == 2 x ring size per classify --hue",
             got == expected, f"{got} vs {expected}")
        )
    elif lookups:
        got = total("fuzzyset.membership.in_lookup")
        checks.append(
            ("fuzzyset.evals_per_lookup == 9 (builtin ring)",
             got == 9 * lookups, f"{got} evaluations / {lookups} lookups")
        )
    return metrics, checks


# -- entry points -----------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-s{seed}-{os.getpid()}"
    work.mkdir()
    try:
        t0 = perf_counter()
        prepared = prepare(workload, seed, work)
        prep_s = perf_counter() - t0
        results, setup = run_shards(workload, seconds, trace, prepared, work)
        setup_s = statistics.median(setup)
        imports = import_times() if trace else {}
        attempted, failed, problems = check(workload, prepared, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"
          f"  shards {SHARDS}  inputs+oracle {prep_s:.2f} s")
    print("input " + "  ".join(f"{k} {v:g}" for k, v in prepared["props"].items()))
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"fail_ratio {failed / max(attempted, 1):.6g}  ({failed}/{attempted} operations)")
    if trace:
        metrics, checks = per_layer(workload, results, imports, prepared)
        for name, ok, detail in checks:
            print(f"cross-check {'holds' if ok else 'FAILS'}: {name} ({detail})")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        out, named = end_to_end(workload, results, setup_s, prepared)
        for name, (value, unit) in named.items():
            print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for workload in KIND:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, text=True, capture_output=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        print()
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*KIND, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fuzzyhue" / "__init__.py").is_file():
        print(f"error: no fuzzyhue sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
