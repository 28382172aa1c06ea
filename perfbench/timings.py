"""Run statistics shared by run.py and worker.py (standard library only)."""


def percentile(values, q):
    """Linear-interpolated q-th percentile (numpy's default definition)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def pass_timings(passes, scaled=True):
    """Suite entries per second over the passes, and per-entry latency percentiles.

    Latency is each entry's `wall_clock_s` from the report; the pass time also
    covers config parsing and report serialisation around the entries.  With
    `scaled`, every time is multiplied by its pass's calibration factor
    (calib.py), which reads it at the reference machine speed.
    """
    def scale(p):
        return p["scale"] if scaled else 1.0

    latencies_ms = [1000.0 * s * scale(p) for p in passes for s in p["latencies_s"]]
    seconds = sum(p["seconds"] * scale(p) for p in passes)
    return {"cases_per_s": len(latencies_ms) / seconds,
            "case_p50_ms": percentile(latencies_ms, 50),
            "case_p90_ms": percentile(latencies_ms, 90),
            "samples": len(latencies_ms)}
