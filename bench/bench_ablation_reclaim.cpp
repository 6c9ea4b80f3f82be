// Ablation: reclamation/protection scheme shoot-out on the identical
// update-indexing workload — the comparison the paper's introduction
// makes qualitatively (locks don't scale; hazard pointers cost every
// read; QSBR is near-free; the TLS-free EBR pays for its collective
// counters).
//
// Adds RwlockArray and HazardArray to the Figure-2-style sweep, plus
// the bounded-memory era policies (IBR, hazard eras — DESIGN.md §13) so
// their read-side cost lands on the same axis.

#include "bench_common.hpp"

int main() {
  using namespace rcua::bench;
  Params p = Params::from_env({.ops_per_task = 2048});
  p.print_banner(
      "Ablation: protection schemes (random update indexing)",
      "(not a paper figure) same workload as Fig 2a across all "
      "protection schemes",
      "expected: QSBR ~ unsynchronized > owned EBR ~ IBR ~ hazard eras "
      ">> legacy EBR ~ hazard pointers >> rwlock > global lock");
  run_indexing_figure<ChapelArrayImpl, QsbrArrayImpl, EbrArrayImpl,
                      LegacyEbrArrayImpl, IbrArrayImpl, HazardErasArrayImpl,
                      HazardArrayImpl, RwlockArrayImpl,
                      SyncArrayImpl>(p, Pattern::kRandom, "reclaim");
  return 0;
}
