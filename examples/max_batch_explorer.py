#!/usr/bin/env python3
"""Find the largest trainable batch per memory system (Tables 3 and 7).

Binary-searches the maximum batch size for a model under any subset of the
implemented memory systems — the paper's headline capacity result: DeepUM
(virtual memory, bounded by host RAM) runs far larger batches than systems
bounded by device memory and allocator fragmentation.

Run:  python examples/max_batch_explorer.py [model] [policy ...]
      e.g. python examples/max_batch_explorer.py bert-large lms deepum
"""

import sys

from repro.harness import calibrate_system, max_batch_outcome
from repro.harness.report import format_table
from repro.models.registry import get_model_config


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "bert-large"
    policies = sys.argv[2:] or ["lms", "sentinel", "deepum"]
    cfg = get_model_config(model)
    system = calibrate_system(model)
    print(f"{model}: simulated GPU {system.gpu.memory_bytes >> 20} MB, "
          f"host {system.host.memory_bytes >> 20} MB")

    rows = []
    for policy in policies:
        best = max_batch_outcome(model, policy, system, scale=cfg.sim_scale,
                                 start_batch=cfg.fig9_batches[0]).max_batch
        rows.append([policy, best if best else "does not run"])
    print()
    print(format_table(["system", "max paper-scale batch"], rows,
                       title="Maximum possible batch sizes"))
    print()
    print("DeepUM's limit is the host backing store; tensor-swapping")
    print("systems hit device working-set limits, allocator fragmentation,")
    print("or pinned-staging exhaustion first (Table 3 / Table 7).")


if __name__ == "__main__":
    main()
