"""The workloads and their fixed sizes, full and tiny."""

WORKLOADS = ("towers", "exact_series", "audio", "cli")

# Ladders are (label, size) pairs; the label names the metric, so the
# tiny sizes report under the same names as the full ones.
FULL = {
    "lambert": [("n11", 11), ("n12", 12), ("n13", 13)],
    "sincos": [("n14", 14)],
    "damped": 2000,
    "wkb": [("k4", 4), ("k5", 5), ("k6", 6)],
    "partitions": [("n400", 400), ("n800", 800)],
    "greens": [("o30", 30), ("o40", 40)],
    "mul": [("n200", 200), ("n400", 400)],
    "div": 150,
    "exp": 120,
    "exp_degree": 24,
    "revert": 200,
    "cells": 100_000,
    "zip": 100_000,
    "rate": 44100,
    "ks_s": 10.0,
    "dsp_s": 1.0,
    "cli_counts": {"audio": 15, "series": 9, "lambertw": 9, "qft": 8,
                   "wkb": 8, "error": 1},
    "cli_partitions": 100,
    "cli_lambertw": 9,
    "cli_qft_order": 20,
    "cli_wkb_orders": 4,
    "cli_audio_s": 1.0,
}

TINY = dict(
    FULL,
    lambert=[("n11", 5), ("n12", 6), ("n13", 7)],
    sincos=[("n14", 6)],
    damped=50,
    wkb=[("k4", 2), ("k5", 3), ("k6", 4)],
    partitions=[("n400", 20), ("n800", 40)],
    greens=[("o30", 5), ("o40", 8)],
    mul=[("n200", 10), ("n400", 20)],
    div=10, exp=10, exp_degree=4, revert=10, cells=1000, zip=1000,
    rate=8000, ks_s=0.05, dsp_s=0.02,
    cli_counts={"audio": 1, "series": 1, "lambertw": 1, "qft": 1,
                "wkb": 1, "error": 1},
    cli_partitions=20, cli_audio_s=0.02,
)
