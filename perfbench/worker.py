"""Timed loop of one benchmark shard, run in its own interpreter.

Usage: ``python3 perfbench/worker.py JOB.json`` with ``src`` on PYTHONPATH.
The job names the workload kind, the input pool, the measuring window and
whether to trace. The loop is closed with one caller: each request starts
when the previous one has returned. Results, the first output of every
distinct input and the peak resident memory go to the job's ``out`` file;
the oracle checks them in the parent process, which never imports fuzzyhue.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import fuzzyhue
import fuzzyhue.cli

# `label` prints every nonzero mass (9 categories + achromatic), so the
# oracle sees the whole descriptor, not only the top 3.
TOP_K = 10
# Commands of one model-tools cycle and the latency class each belongs to.
MODEL_COMMANDS = (
    ("validate", "validate"),
    ("metrics", "table"),
    ("report", "table"),
    ("memberships", "plot"),
    ("spectrum", "plot"),
    ("classify", "table"),
)


def run_cli(argv):
    """``cli_main`` in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fuzzyhue.cli.cli_main(argv)
    return code, out.getvalue()


def model_argvs(config, workdir):
    path = config["path"]
    svg = {
        kind: str(Path(workdir, f"{kind}-{os.getpid()}.svg"))
        for kind in ("memberships", "spectrum")
    }
    return [
        ["validate", "--model", path],
        ["metrics", "--model", path, "--format", "csv"],
        ["report", "--model", path],
        ["plot", "memberships", "--out", svg["memberships"], "--model", path],
        ["plot", "spectrum", "--out", svg["spectrum"], "--model", path],
        ["classify", f"--hue={config['hue']!r}", "--model", path],
    ], svg


class LabelRequests:
    def __init__(self, job):
        self.pool = job["pool"]
        self.warmup = job["warmup"]
        self.latency_s = []

    def __len__(self):
        return len(self.pool)

    def warm(self):
        run_cli(["label", self.warmup, "--top-k", str(TOP_K)])

    def __call__(self, key):
        t0 = perf_counter()
        code, out = run_cli(["label", self.pool[key]["path"], "--top-k", str(TOP_K)])
        return [code, out], perf_counter() - t0


class ModelRequests:
    def __init__(self, job):
        self.pool = job["pool"]
        self.workdir = job["workdir"]
        self.commands = {cls: [] for _, cls in MODEL_COMMANDS}
        self.latency_s = []

    def __len__(self):
        return len(self.pool)

    def warm(self):
        argvs, _ = model_argvs(self.pool[0], self.workdir)
        for argv in argvs:
            run_cli(argv)

    def __call__(self, key):
        argvs, svg = model_argvs(self.pool[key], self.workdir)
        outputs = []
        total = 0.0
        for argv, (name, cls) in zip(argvs, MODEL_COMMANDS):
            t0 = perf_counter()
            code, out = run_cli(argv)
            elapsed = perf_counter() - t0
            total += elapsed
            self.commands[cls].append(elapsed)
            text = None
            if name in svg and code == 0:
                text = Path(svg[name]).read_text(encoding="utf-8")
            outputs.append([name, code, out, text])
        return outputs, total


class ClassifyRequests:
    """One ``classify_color`` call, plus ``category_of`` when chromatic.

    Latencies go to a histogram with 1 ns buckets, so the harness's memory
    does not grow with the number of calls.
    """

    def __init__(self, job):
        raw = Path(job["pool"]).read_bytes()
        self.colours = list(zip(raw[0::3], raw[1::3], raw[2::3]))
        self.partition = fuzzyhue.builtin_colibri()
        self.hist = Counter()

    def __len__(self):
        return len(self.colours)

    def warm(self):
        for rgb in self.colours[:1000]:
            self.classify(rgb)

    def classify(self, rgb):
        partition = self.partition
        descriptor = fuzzyhue.classify_color(partition, rgb)
        if descriptor.achromatic_mass > 0.0:
            crisp = fuzzyhue.ACHROMATIC
        else:
            crisp = partition.category_of(fuzzyhue.rgb_to_hsv(rgb).hue)
        return descriptor, crisp

    def __call__(self, key):
        t0 = perf_counter_ns()
        descriptor, crisp = self.classify(self.colours[key])
        elapsed = perf_counter_ns() - t0
        self.hist[elapsed] += 1
        record = [*descriptor.category_mass.values(), descriptor.achromatic_mass, crisp]
        return record, elapsed * 1e-9


def peak_rss_kb() -> int:
    """Peak resident set of this interpreter, in KiB.

    ``ru_maxrss`` survives ``exec`` and so can report the parent's size at
    spawn time; the kernel's per-address-space high-water mark does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


KINDS = {"label": LabelRequests, "model": ModelRequests, "classify": ClassifyRequests}


def main(job_path):
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    if Path(fuzzyhue.__file__).resolve().parent.parent != src:
        raise SystemExit(f"fuzzyhue imported from {fuzzyhue.__file__}, not from {src}")
    kind = job["kind"]
    requests = KINDS[kind](job)
    requests.warm()

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer(job["spans"])
    block_size = job["block"]
    pool_size = len(requests)
    first_hash = [None] * pool_size
    mismatches = 0
    blocks = []
    key = job["start"] % pool_size
    count = 0
    with open(job["records"], "w", encoding="utf-8") as records:
        begin = perf_counter()
        while perf_counter() - begin < job["seconds"]:
            traced = tracer is not None and (count // block_size + job["shard"]) % 2 == 1
            if traced:
                tracer.install()
            block_keys = []
            wall = 0.0
            for _ in range(block_size):
                if traced:
                    tracer.begin_request()
                record, elapsed = requests(key)
                if traced:
                    tracer.end_request()
                elif kind != "classify":
                    requests.latency_s.append(elapsed)
                wall += elapsed
                digest = hash(tuple(record) if kind == "classify" else json.dumps(record))
                if first_hash[key] is None:
                    first_hash[key] = digest
                    records.write(json.dumps([key, record]) + "\n")
                elif first_hash[key] != digest:
                    mismatches += 1
                block_keys.append(key)
                key = (key + 1) % pool_size
                count += 1
            if tracer is not None:
                if traced:
                    tracer.uninstall()
                    block = tracer.end_block()
                else:
                    block = {}
                block.update(traced=traced, keys=block_keys, wall_s=wall)
                blocks.append(block)
    if tracer is not None:
        tracer.close()

    result = {
        "requests": count,
        "mismatches": mismatches,
        "peak_rss_kb": peak_rss_kb(),
        "blocks": blocks,
    }
    if kind == "classify":
        result["hist_ns"] = sorted(requests.hist.items())
    else:
        result["latency_s"] = requests.latency_s
    if kind == "model":
        result["commands"] = requests.commands
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
