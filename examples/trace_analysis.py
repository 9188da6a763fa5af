#!/usr/bin/env python3
"""Record a DeepUM run and analyze what the prefetcher saw.

Records a DeepUM run with a :class:`repro.obs.SpanRecorder`, writes the
recording as a Perfetto-loadable Chrome trace, and prints the summaries
the paper's design hinges on: the training kernel stream is almost
perfectly periodic (so correlation tables work), faults concentrate in
specific kernels, and blocks refault on an iteration-scale cycle (so
pre-eviction targeting matters).

Run:  python examples/trace_analysis.py [output.json]
"""

import sys
import tempfile

from repro import DeepUM, DeepUMConfig, GPUSpec, HostSpec, SystemConfig
from repro.constants import GiB, MiB
from repro.models import build_gpt2
from repro.obs import (
    SpanRecorder,
    iteration_fault_counts,
    trace_summary,
    write_chrome_trace,
)


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else \
        tempfile.mktemp(suffix=".json", prefix="deepum_trace_")

    system = SystemConfig(gpu=GPUSpec(memory_bytes=192 * MiB),
                          host=HostSpec(memory_bytes=4 * GiB))
    recorder = SpanRecorder()
    deepum = DeepUM(system, DeepUMConfig(prefetch_degree=32),
                    recorder=recorder)

    workload = build_gpt2(deepum.device, batch_size=2, variant="l", scale=0.125)
    iterations = 5
    workload.run(iterations)
    write_chrome_trace(recorder, out_path)

    summary = trace_summary(recorder)
    kernels_per_iter = summary.kernels // iterations
    print(f"timeline saved to {out_path} ({len(recorder.spans):,} spans, "
          f"{len(recorder.instants):,} instants; open in ui.perfetto.dev)")
    print()
    print(f"kernels launched      : {summary.kernels:,} "
          f"({summary.distinct_exec_ids} distinct execution IDs)")
    print(f"stream periodicity    : {summary.stream_periodicity:.1%} "
          "(fraction of the last iteration matching the one before)")
    print(f"block faults          : {summary.faults:,} "
          f"({summary.faults_per_kernel:.2f} per kernel)")
    print(f"prefetched blocks     : {summary.prefetches:,}")
    print(f"evictions             : {summary.evictions:,}")
    if summary.median_refault_gap is not None:
        print(f"median refault gap    : {summary.median_refault_gap:.0f} kernels "
              f"(one iteration is {kernels_per_iter} kernels)")
    print()
    print("faults per iteration (learning curve):",
          iteration_fault_counts(recorder, kernels_per_iter))
    print()
    print("kernels with the most faults:")
    for name, count in summary.hottest_kernels:
        print(f"  {name:24s} {count}")


if __name__ == "__main__":
    main()
