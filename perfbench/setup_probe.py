"""Set-up probe: import corec and build one workload's definitions.

    python3 perfbench/setup_probe.py WORKLOAD

Nothing is forced beyond the values the constructors compute themselves.
``run.py`` times this whole process, interpreter start included, as the
workload's ``setup_s``. It imports nothing of the benchmark, so that only
corec's own start-up cost is measured.
"""

import sys


def towers():
    from corec.dif import Dif, damped_sine, lambert_w_tower
    from corec.wkb import airy_s0_prime

    x = Dif.var(0.7)
    return [lambert_w_tower(), x.sin() * x.cos(), damped_sine(x), airy_s0_prime(1.0)]


def exact_series():
    from corec.catalog import integers, partitions
    from corec.qft import dyson_schwinger
    from corec.series import Series

    poly = Series.from_list([0, 1, 1])
    return [integers(), partitions(), dyson_schwinger(), poly * poly, poly.exp(),
            poly.revert()]


def audio():
    from corec.dsp import allpass, euler_osc, karplus_strong, noise, sine, vibrato

    string = karplus_strong(100, [0.0] * 100)
    return [string, sine(0.06), euler_osc(0.06), vibrato(0.06, sine(0.001)),
            allpass(3, 0.5, string), noise(1)]


if __name__ == "__main__":
    {"towers": towers, "exact_series": exact_series, "audio": audio}[sys.argv[1]]()
