"""Machine-speed probe: a fixed loop of big-integer gcd arithmetic and dict
building that runs no zetalike code.

The benchmark's 2 vCPUs each switch, every few seconds, between two speeds
about 1.7x apart (a busy neighbour on the shared core).  Timing the probe
next to each request and dividing the request's time by it cancels that
switch; any change in zetalike leaves the probe's time alone.  The module
imports only builtins, so a fresh interpreter can load it without
preloading anything zetalike imports.
"""

import math
import time

# scaled times are in seconds on a machine where probe() takes this long,
# about its time on an uncontended core of the machine the benchmark was
# defined on
REFERENCE_S = 3.5e-4


def _loop() -> float:
    t0 = time.perf_counter()
    n, d = 0, 1
    for k in range(1, 150):
        n, d = n * k * k + d, d * k * k
        g = math.gcd(n, d)
        n //= g
        d //= g
    {i: (i, str(i)) for i in range(800)}
    return time.perf_counter() - t0


def probe() -> float:
    """Median of three runs of the loop, in seconds.  The median, unlike the
    minimum, slows down in proportion to zetalike's requests when the core
    is contended (log-log slope 1.0 against 1.2 for the minimum)."""
    return sorted(_loop() for _ in range(3))[1]
