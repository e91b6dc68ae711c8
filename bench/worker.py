"""One cold pass of a benchmark workload, in a fresh interpreter.

Started by run.py, which takes set-up time as the span from spawning this
process to the moment `import gatedesign` returns; so that import comes
first and is stamped on the monotonic clock, which processes share. Prints
one JSON object with the pass's op records, checks and cache counters.
"""
import time

import gatedesign  # noqa: F401

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

from gatedesign import _accel, repcore  # noqa: E402

import workloads  # noqa: E402

#: lru caches whose counters the trace reports (absent ones read as empty)
CACHES = {
    "mult": "_mult_centered",
    "kostant": "_kostant_rec",
    "partitions": "_partitions_exact",
}


def cache_stats():
    out = {}
    for key, attr in CACHES.items():
        fn = getattr(repcore, attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[key] = {"hits": info.hits if info else 0, "misses": info.misses if info else 0}
    return out


def blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None, help="trace the pass and save its spans here")
    args = parser.parse_args(argv)
    if args.trace_out:
        import tracing

        with tracing.Tracer() as tracer:
            result = workloads.run_pass(args.workload, args.seed, tracer)
        tracer.save(args.trace_out)
        spans, structure, counters = tracer.summary()
        result["trace"] = {"spans": spans, "structure": structure, "counters": counters}
    else:
        result = workloads.run_pass(args.workload, args.seed)
    result["ready"] = READY
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["caches"] = cache_stats()
    result["numpy"] = np.__version__
    result["blas"] = blas_name()
    result["numba_enabled"] = bool(_accel.NUMBA_ENABLED)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
