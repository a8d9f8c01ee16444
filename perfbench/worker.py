"""Run one benchmark body in this fresh interpreter and print its result.

Usage: python3 perfbench/worker.py '<spec>'

spec is a JSON object with workload, jobs, trace (bool), seed and out_dir
(private to this body). The library is imported from the checkout's src/
only. The last stdout line is a JSON object: wall_s, phases (the body's
wall time cut at the phase marks it sets, less the reference samples),
refs (per phase, the mean reference loop time during and around it; serial
untraced bodies only, else null), ref_samples, attempted, failures,
peak_rss_kb, digest and, when traced, layers and layer_units.
"""

import json
import resource
import signal
import statistics
import sys
from bisect import bisect_left
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from reference import reference_s

ROOT = Path(__file__).resolve().parent.parent
REF_EVERY_S = 0.5  # interval of the reference samples taken during a serial body


class PhaseClock:
    """Phase times of a body, with host-speed samples taken while it runs.

    The body calls mark() at the end of each phase. When sampling, a timer
    signal runs reference_s() every REF_EVERY_S, on the body's own thread,
    and once before and once after the body. phases() leaves the samples'
    time out; refs() gives each phase the mean of the samples taken during it
    and the nearest one on either side.
    """

    def __init__(self, sample: bool) -> None:
        self.sample = sample
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        if sample:
            self._take_sample()
            signal.signal(signal.SIGALRM, self._take_sample)
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        self.bounds = [perf_counter()]

    def mark(self) -> None:
        self.bounds.append(perf_counter())

    def close(self) -> None:
        self.mark()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._take_sample()

    def _take_sample(self, *_signal) -> None:
        started = perf_counter()
        self.samples.append((started, reference_s()))

    def _spans(self):
        """Per phase: its start, end and the slice of samples starting in it."""
        starts = [t for t, _ in self.samples]
        for a, b in zip(self.bounds, self.bounds[1:]):
            yield a, b, bisect_left(starts, a), bisect_left(starts, b)

    def phases(self) -> list[float]:
        return [b - a - sum(d for _, d in self.samples[i:j]) for a, b, i, j in self._spans()]

    def refs(self) -> list[float]:
        return [statistics.fmean(d for _, d in self.samples[i - 1:j + 1])
                for _, _, i, j in self._spans()]


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import abelsplit

    if src not in Path(abelsplit.__file__).resolve().parents:
        print(f"abelsplit imported from {abelsplit.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    name = spec["workload"]
    inputs = workloads.make_inputs(name, spec["seed"])
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True)
    gate = workloads.Gate()
    tracer = Tracer() if spec["trace"] else None
    # A pool keeps working while its parent would sample, so only the serial
    # untraced body samples the reference.
    clock = PhaseClock(sample=spec["jobs"] == 1 and tracer is None)
    with workloads.traced(tracer) if tracer is not None else nullcontext():
        summary = workloads.BODIES[name](name, inputs, spec["jobs"], out_dir, gate, clock.mark)
        clock.close()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    phases = clock.phases()
    result = {"wall_s": sum(phases), "phases": phases,
              "refs": clock.refs() if clock.sample else None,
              "ref_samples": [d for _, d in clock.samples],
              "attempted": gate.attempted, "failures": gate.failures,
              "peak_rss_kb": peak_kb, **summary}
    if tracer is not None:
        result["layers"] = workloads.layer_metrics(tracer)
        result["layer_units"] = workloads.PER_LAYER_UNITS
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
