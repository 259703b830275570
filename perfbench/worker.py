"""Run one workload's passes in this fresh process and print raw results.

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --mode measure
    python3 perfbench/worker.py WORKLOAD --seed N --mode trace [--overhead]

``measure`` repeats the job list, untraced, for about ``--seconds``.
``trace`` runs it once with spans on; with ``--overhead`` it then runs it
once more untraced, so that the difference between the two passes is the
tracing overhead. Each job is timed alone:
the oracle checks run between jobs, outside the timed region, and every
time is scaled to a fixed processor speed by :mod:`reference`. The last
line of output is one JSON object; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import corec  # noqa: E402

import reference  # noqa: E402
import sizes  # noqa: E402
import workloads  # noqa: E402
from tracer import OFF, Tracer  # noqa: E402


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _max_rss_kib(workload):
    # The cli workload's memory is that of its largest child.
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


class Runner:
    """Runs passes over one job list and keeps what they measured."""

    def __init__(self, workload, jobs):
        self.workload = workload
        self.jobs = jobs
        self.passes = []
        self.failures = []
        self.attempted = 0
        self.rss_growth_kib = {}

    def run_pass(self, tr):
        """Run every job once; times are scaled to the nominal speed."""
        gc.collect()
        loop_times = [reference.sample()]
        latencies, cpus, job_spans = [], [], []
        for job in self.jobs:
            if tr.enabled:
                job_spans.append(len(tr.spans))
            rss_before = _max_rss_kib(self.workload)
            cpu_before = _cpu_s()
            start = time.perf_counter()
            counting = 0.0
            out = keep = error = held = None
            with tr.span(job.layer, job.name):
                try:
                    out, keep = job.run(tr)
                except Exception as exc:  # a failing job is counted, not fatal
                    error = "%s: %s" % (type(exc).__name__, exc)
                if tr.enabled and job.live and keep is not None:
                    paused = time.perf_counter()
                    held = tr.blocks()
                    counting = time.perf_counter() - paused
                # A job pays for collecting the cycles it leaves behind, so
                # its time does not depend on the job before it.
                keep = None
                gc.collect()
                if held is not None:
                    # The blocks that dropping the structure freed.
                    tr.live_blocks[job.name] = (held - sys.getallocatedblocks()) / job.units
            latencies.append(time.perf_counter() - start - counting)
            cpus.append(_cpu_s() - cpu_before)
            if tr.enabled:
                self.rss_growth_kib.setdefault(
                    job.name, _max_rss_kib(self.workload) - rss_before)
            self.attempted += 1
            if error is None:
                error = _check(job, out)
            if error is not None:
                self.failures.append([job.name, job.layer, error])
            loop_times.append(reference.sample(latencies[-1] / 10))
        # Each job is scaled by the reference loop times just before and after it.
        slowdowns = [reference.slowdown(loop_times[i] + loop_times[i + 1])
                     for i in range(len(self.jobs))]
        for sid, slowdown in zip(job_spans, slowdowns):
            tr.spans[sid]["slowdown"] = slowdown
        scaled = [t / s for t, s in zip(latencies, slowdowns)]
        self.passes.append({
            "traced": tr.enabled,
            "slowdown": sum(latencies) / sum(scaled),
            "raw_wall_s": sum(latencies),
            "wall_s": sum(scaled),
            "cpu_s": sum(c / s for c, s in zip(cpus, slowdowns)),
            "latencies": [[job.name, t] for job, t in zip(self.jobs, scaled)],
        })


def _check(job, out):
    """None if the output matches its oracle, else why not."""
    try:
        return None if job.check(out) else "output differs from the oracle"
    except Exception as exc:  # a malformed output fails its check
        return "check raised %s: %s" % (type(exc).__name__, exc)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("workload", choices=sizes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--overhead", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src", "corec")
    if os.path.dirname(os.path.abspath(corec.__file__)) != src:
        sys.exit("worker: corec was imported from %s, not %s" % (corec.__file__, src))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    z = sizes.TINY if args.tiny else sizes.FULL
    ctx = workloads.Context(root=ROOT, out_dir=out_dir)
    jobs = workloads.build(args.workload, args.seed, z, ctx)
    runner = Runner(args.workload, jobs)
    # The benchmark's own inputs and oracle values stay out of every
    # collection, so collector time is corec's alone.
    gc.collect()
    gc.freeze()

    result = {"workload": args.workload}
    if args.mode == "measure":
        # Start another pass if it should end within half a pass of the
        # deadline, so a run lasts about --seconds whatever its pass length.
        deadline = time.perf_counter() + args.seconds
        spent = []
        while not spent or time.perf_counter() + statistics.median(spent) / 2 <= deadline:
            start = time.perf_counter()
            runner.run_pass(OFF)
            spent.append(time.perf_counter() - start)
    else:
        tracer = Tracer("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        with tracer:
            runner.run_pass(tracer)
        if args.overhead:
            runner.run_pass(OFF)
        for span in tracer.spans:
            span["workload"] = args.workload
        result.update(spans=tracer.spans,
                      gc_s=tracer.gc_ns / 1e9, gc_collections=tracer.gc_collections,
                      live_blocks=tracer.live_blocks,
                      rss_growth_kib=runner.rss_growth_kib)
    result.update(passes=runner.passes, attempted=runner.attempted,
                  failures=runner.failures,
                  peak_rss_kib=_max_rss_kib(args.workload),
                  units={job.name: job.units for job in jobs})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
