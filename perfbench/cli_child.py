"""Run the derlint command line with the host-speed kernel timed in the same process.

    python3 perfbench/cli_child.py SPEED.json [--trace TOTALS.json] lint DIR

The kernel runs before the command, every SAMPLE_EVERY_S seconds while
it runs (from a timer signal, between two bytecodes of the command) and
after it, always in the command's own process and so on its CPU.
SPEED.json gets the mean kernel time and the time all passes took.
With --trace, the layer wrappers are installed around the command and
their totals go to TOTALS.json.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import checkout
import hostspeed

SAMPLE_EVERY_S = 0.25


class _Sampler:
    def __init__(self) -> None:
        self.kernels: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.kernels.append(hostspeed.kernel_seconds())
        self.spent += time.perf_counter() - start


def main(argv: list[str]) -> int:
    speed_out, args = argv[0], argv[1:]
    totals_out = None
    if args[:1] == ["--trace"]:
        totals_out, args = args[1], args[2:]
    checkout.prepare()
    sampler = _Sampler()
    sampler.sample()

    import derlint.cli

    tracer = None
    if totals_out is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, sampler.sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        code = derlint.cli.main(args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.uninstall()
        sys.stdout.flush()
        # Written even when the command raised: its output is then checked
        # and counted as failed, not lost with the timing.
        sampler.sample()
        kernel = sum(sampler.kernels) / len(sampler.kernels)
        with open(speed_out, "w", encoding="utf-8") as fh:
            json.dump({"kernel_s": kernel, "kernel_overhead_s": sampler.spent, "samples": len(sampler.kernels)}, fh)
    if tracer is not None:
        with open(totals_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
