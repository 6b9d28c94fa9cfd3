"""Time one fresh set-up of a workload: imports plus input construction.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds on standard output.  ``run.py`` starts it so that
``setup_s`` is a median over fresh processes, not one sample.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402

import run  # noqa: E402  (pins the thread pools before numpy loads)

if __name__ == "__main__":
    run.use_checkout_src()
    import workloads

    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).setup()
    print(time.perf_counter() - _STARTED)
