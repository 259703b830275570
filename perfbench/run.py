"""The corec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
    python3 perfbench/run.py --all --seed N --seconds S [--tiny]

Run from the root of a corec checkout; corec is imported from its
``src``. The workloads (``towers``, ``exact_series``, ``audio``, ``cli``)
are closed loops with one client and no extra threads; the seed picks
their inputs and the sizes are fixed (``--tiny`` shrinks them, to check
that the harness still runs). Every job's output is checked against an
independent oracle.

``--trace 0`` measures a workload untraced, in a fresh worker process,
and reports the end-to-end metrics: set-up time (the median of several
fresh set-ups), the median wall and CPU time of a pass over the job list,
peak memory, and the median and 80th-percentile job latency. Every time
is scaled to one fixed processor speed by a reference loop run beside
the jobs (see ``reference.py``); the raw wall time is printed as well.

``--trace 1`` runs every workload's job list once with spans around each
call into a layer, each in its own fresh process, and reports the
per-layer metrics, including ``trace.overhead_s``: traced minus untraced
wall time of a pass of the named workload (one pair, so on a noisy host
it is mostly noise). The spans are written to
``perfbench/out/``.

``--all`` runs every workload in sequence, each in its own process, with
and without tracing, prints every metric by name and unit, and records
them with the seed, sizes, Python version and CPU count.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import sizes  # noqa: E402
from tracer import self_times  # noqa: E402

LAYERS = ("stream", "coeffs", "series", "catalog", "qft", "dif", "wkb", "dsp", "cli")
SETUP_RUNS = 7
CLI_PROBE_RUNS = 7
# A run must end within 180 seconds; a worker still going at this point
# is stopped and the run fails without a result.
DEADLINE = time.monotonic() + 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env():
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _spawn_median(argv, runs):
    """Median wall time of ``runs`` fresh processes running ``argv``, scaled."""
    times, loop_times = [], reference.sample()
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=False)
        times.append(time.perf_counter() - start)
        loop_times += reference.sample()
        if proc.returncode != 0:
            raise BenchError("%s failed: %s" % (" ".join(argv[1:]), proc.stderr.strip()))
    return statistics.median(times) / reference.slowdown(loop_times)


def _setup_s(workload):
    if workload == "cli":
        argv = [sys.executable, "-m", "corec", "--help"]
    else:
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
    return _spawn_median(argv, SETUP_RUNS)


def _worker(workload, seed, mode, seconds=0.0, tiny=False, overhead=False):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    argv += ["--tiny"] * tiny + ["--overhead"] * overhead
    # A fixed hash seed removes one source of difference between processes.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              check=False, timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s %s did not finish in time" % (workload, mode)) from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("worker %s %s failed (exit %d): %s"
                         % (workload, mode, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def _percentile(values, q):
    """The q-th percentile (0 < q < 100) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- trace 0: end-to-end metrics ----------------------------------------------


def end_to_end(workload, seed, seconds, tiny):
    setup = _setup_s(workload)
    raw = _worker(workload, seed, "measure", seconds, tiny)
    passes = raw["passes"]
    # Each job's latency is its median over the passes; the percentiles
    # are taken over the jobs of the list (for cli, one per command).
    latencies = [statistics.median(times)
                 for times in zip(*([t for _, t in p["latencies"]] for p in passes))]
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (raw["peak_rss_kib"] / 1024, "MB"),
        "cmd_p50_s": (statistics.median(latencies), "s"),
        "cmd_p80_s": (_percentile(latencies, 80), "s"),
    }
    notes = {"passes": len(passes), "latency_jobs": len(latencies),
             "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
             "slowdown": statistics.median(p["slowdown"] for p in passes),
             "failed_frac": len(raw["failures"]) / raw["attempted"]}
    return metrics, raw["attempted"], raw["failures"], notes


# -- trace 1: per-layer metrics ------------------------------------------------


def _slope(xs, ys):
    """Least-squares slope of ys against xs."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


class Timings:
    """Median times of the traced passes: of whole jobs, and of calls in a job.

    Job times come from the runner, which leaves out live-block counting;
    call times come from the spans inside each job.
    """

    def __init__(self, raws):
        self.jobs, self.calls = {}, {}
        for raw in raws:
            for p in raw["passes"]:
                if p["traced"]:
                    for name, seconds in p["latencies"]:
                        self.jobs.setdefault(name, []).append(seconds)
            by_id = {s["id"]: s for s in raw["spans"]}
            for s in raw["spans"]:
                if s["parent"] is not None:
                    job = by_id[s["parent"]]
                    seconds = (s["end_ns"] - s["start_ns"]) / 1e9 / job["slowdown"]
                    self.calls.setdefault((job["name"], s["name"]), []).append(seconds)

    def job(self, name):
        return statistics.median(self.jobs[name])

    def call(self, job, name):
        return statistics.median(self.calls[(job, name)])


def per_layer(named, seed, tiny):
    z = _sizes(tiny)
    raws = {w: _worker(w, seed, "trace", tiny=tiny, overhead=w == named)
            for w in sizes.WORKLOADS}
    interp = _spawn_median([sys.executable, "-c", "pass"], CLI_PROBE_RUNS)
    imported = _spawn_median([sys.executable, "-c", "import corec"], CLI_PROBE_RUNS)

    spans = [s for raw in raws.values() for s in raw["spans"]]
    sp = Timings(raws.values())
    units = {k: v for raw in raws.values() for k, v in raw["units"].items()}
    live = {k: v for raw in raws.values() for k, v in raw["live_blocks"].items()}
    m = {}

    def ladder(prefix, key):
        points = []
        for label, size in z[key]:
            t = sp.job("%s.%s" % (prefix, label))
            m["%s.%s" % (prefix, label)] = (t, "s")
            points.append((size, t))
        return points

    def loglog(points):
        return _slope([math.log(n) for n, _ in points], [math.log(t) for _, t in points])

    def per_step(points):
        return math.exp(_slope([n for n, _ in points], [math.log(t) for _, t in points]))

    cells = units["stream.cells"]
    m["stream.force_ns_per_cell"] = (sp.call("stream.cells", "force") / cells * 1e9, "ns/cell")
    m["stream.memo_ns_per_cell"] = (sp.call("stream.cells", "memo") / cells * 1e9, "ns/cell")
    m["stream.zip_ns_per_cell"] = (
        sp.call("stream.zip", "zip_with") / units["stream.zip"] * 1e9, "ns/cell")
    m["stream.live_blocks_per_cell"] = (live["stream.cells"], "blocks/cell")
    for w, raw in raws.items():
        m["stream.gc_pause_s." + w] = (raw["gc_s"], "s")
        m["stream.gc_collections." + w] = (raw["gc_collections"], "count")

    mul_exact = ladder("series.mul_exact_s", "mul")
    mul_float = ladder("series.mul_float_s", "mul")
    m["coeffs.exact_over_float"] = (sum(t for _, t in mul_exact) / sum(t for _, t in mul_float),
                                    "ratio")
    m["series.mul_exact_exp"] = (loglog(mul_exact), "slope")
    m["series.mul_float_exp"] = (loglog(mul_float), "slope")
    for name in ("series.div_exact_s", "series.exp_exact_s", "series.revert_s"):
        m[name] = (sp.job(name), "s")
    m["catalog.partitions_exp"] = (loglog(ladder("catalog.partitions_s", "partitions")), "slope")
    m["qft.greens_exp"] = (loglog(ladder("qft.greens_s", "greens")), "slope")

    lambert = ladder("dif.lambert_s", "lambert")
    m["dif.lambert_growth"] = (per_step(lambert), "ratio/elem")
    top = "dif.lambert_s.%s" % z["lambert"][-1][0]
    m["dif.lambert_live_blocks_per_elem"] = (live[top], "blocks/elem")
    ladder("dif.sincos_s", "sincos")
    m["dif.damped_sine_us_per_elem"] = (
        sp.job("dif.damped_sine") / units["dif.damped_sine"] * 1e6, "us/elem")
    m["wkb.growth"] = (per_step(ladder("wkb.expand_s", "wkb")), "ratio/order")
    top = "wkb.expand_s.%s" % z["wkb"][-1][0]
    m["wkb.live_blocks_per_order"] = (live[top], "blocks/order")

    for kind in ("sine", "euler", "vibrato", "ks", "allpass", "noise"):
        job = "dsp." + kind
        m["dsp.us_per_sample." + kind] = (sp.job(job) / units[job] * 1e6, "us/sample")
    m["dsp.write_wav_us_per_sample"] = (
        sp.call("dsp.write_wav", "write_wav") / units["dsp.write_wav"] * 1e6, "us/sample")
    m["dsp.rss_bytes_per_sample"] = (
        raws["audio"]["rss_growth_kib"]["dsp.ks"] * 1024 / units["dsp.ks"], "B/sample")

    m["cli.interp_s"] = (interp, "s")
    m["cli.import_s"] = (imported - interp, "s")
    for kind in ("series", "lambertw", "qft", "wkb", "audio", "error"):
        m["cli.cmd_s." + kind] = (sp.job("cli.cmd_s." + kind), "s")

    own = dict.fromkeys(LAYERS, 0.0)
    for layer, seconds in self_times(spans).items():
        own[layer] += seconds
    failures = [f for raw in raws.values() for f in raw["failures"]]
    for layer in LAYERS:
        m[layer + ".self_s"] = (own[layer], "s")
        m[layer + ".failed"] = (sum(1 for f in failures if f[1] == layer), "count")

    traced, plain = raws[named]["passes"]
    m["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (named, seed))
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    attempted = sum(raw["attempted"] for raw in raws.values())
    return m, attempted, failures, {"spans": len(spans), "spans_file": os.path.relpath(path, ROOT)}


# -- reporting -------------------------------------------------------------------


def _sizes(tiny):
    return sizes.TINY if tiny else sizes.FULL


def _meta(seed, seconds, tiny):
    return {"seed": seed, "seconds": seconds, "tiny": tiny,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "sizes": _sizes(tiny)}


def _result(metrics, attempted, failures):
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _print_metrics(workload, trace, metrics):
    for name, (value, unit) in metrics.items():
        print("%-14s trace=%d  %-38s %16.6g %s" % (workload, trace, name, value, unit))


def run_one(args):
    if args.trace:
        metrics, attempted, failures, notes = per_layer(args.workload, args.seed, args.tiny)
    else:
        metrics, attempted, failures, notes = end_to_end(
            args.workload, args.seed, args.seconds, args.tiny)
    _print_metrics(args.workload, args.trace, metrics)
    for name, layer, why in failures:
        print("FAILED %s (%s): %s" % (name, layer, why))
    print("# " + json.dumps(dict(notes, **_meta(args.seed, args.seconds, args.tiny))))
    print(json.dumps(_result(metrics, attempted, failures)))


def run_all(args):
    """Every workload in sequence, each in its own process, both trace modes."""
    runs = []
    for workload in sizes.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + ["--tiny"] * args.tiny
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  check=False)
            if proc.returncode != 0:
                raise BenchError("%s trace %d failed: %s"
                                 % (workload, trace, proc.stderr.strip()[-2000:]))
            result = json.loads(proc.stdout.splitlines()[-1])
            result.update(workload=workload, trace=trace)
            runs.append(result)
            metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
            _print_metrics(workload, trace, metrics)
            print("%-14s trace=%d  %-38s %16.6g %s" % (
                workload, trace, "failed_frac", result["failed"] / result["attempted"],
                "ratio"))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "results-seed%d%s.json" % (args.seed, "-tiny" * args.tiny))
    with open(path, "w") as fh:
        json.dump({"meta": _meta(args.seed, args.seconds, args.tiny), "runs": runs}, fh,
                  indent=1)
    print("# results written to %s" % os.path.relpath(path, ROOT))
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in runs),
                      "failed": failed, "metrics": {}}))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="The corec benchmark.")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sizes.WORKLOADS)
    target.add_argument("--all", action="store_true",
                        help="every workload, each in its own process, traced and not")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long an untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, to check that the harness runs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "corec", "__init__.py")):
        sys.stderr.write("run.py: no corec sources at %s\n" % os.path.join(ROOT, "src"))
        return 2
    try:
        if args.all:
            run_all(args)
        else:
            run_one(args)
    except BenchError as exc:
        sys.stderr.write("run.py: %s\n" % exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
