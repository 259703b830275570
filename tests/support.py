"""Helpers shared by the test modules, imported as ``support``.

Running Python on this checkout's sources in a new interpreter, running
the CLI in-process, running a function on a thread with the CLI's stack
and recursion limit, the deep
definitions that such a thread must read, and the partition-number oracle,
which uses nothing from corec.
"""

import contextlib
import io
import os
import subprocess
import sys
import threading

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def python_env():
    """A copy of ``os.environ`` with this checkout's ``src`` first on
    ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_python(*args):
    """Run ``python *args`` with :func:`python_env`; the finished process,
    its output captured as text. A nonzero exit is returned, not raised."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=python_env(), timeout=60, check=False)


def run_cli(argv):
    """``corec argv`` through ``cli.main`` in this process: the exit code,
    stdout and stderr. A usage error's ``SystemExit`` gives its code."""
    from corec import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def on_a_deep_thread(fn):
    """fn() on a thread with the CLI's stack and recursion limit; both
    settings are restored afterwards."""
    from corec.cli import _LIMIT, _STACK

    outcome = {}

    def run():
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    limit = sys.getrecursionlimit()
    stack = threading.stack_size(_STACK)
    try:
        sys.setrecursionlimit(_LIMIT)
        worker = threading.Thread(target=run)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(stack)
        sys.setrecursionlimit(limit)
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def deep_structures(depth):
    """A chain ``q`` of ``depth`` nested ``Stream.defer`` maps and ``u``,
    ``exp x`` times ``depth`` nested factors ``1 + x``; nothing is forced."""
    from corec import Series, Stream, repeat

    q = repeat(0)
    for _ in range(depth):
        q = Stream.defer(lambda q=q: q.map(lambda x: x + 1))
    u = Series.from_list([0, 1]).exp()
    for _ in range(depth):
        u = u * Series.from_list([1, 1])
    return q, u


def deep_chains(depth):
    """The head of :func:`deep_structures`' chain, which is ``depth``, and
    the first two coefficients of its product, which are ``[1, depth + 1]``.
    Forcing either nests a few frames per level."""
    q, u = deep_structures(depth)
    return q.head, u.take(2)


def pentagonal_partitions(limit):
    """p(0..limit) by Euler's pentagonal-number recurrence
    p(n) = sum over k >= 1 of (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)),
    independent of the generating-function path."""
    p = [1]
    for n in range(1, limit + 1):
        total, k = 0, 1
        while True:
            g1 = n - k * (3 * k - 1) // 2
            g2 = n - k * (3 * k + 1) // 2
            if g1 < 0 and g2 < 0:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * ((p[g1] if g1 >= 0 else 0)
                             + (p[g2] if g2 >= 0 else 0))
            k += 1
        p.append(total)
    return p
