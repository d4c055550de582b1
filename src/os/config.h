// Scheduler configuration for a simulated Locus site.
//
// Calibration (see DESIGN.md §5):
//  * 60 Hz clock tick (VAX UNIX hz), quantum = 6 ticks ~= 100 ms. The paper
//    observes that the Fig. 7 curves cross at "the system's scheduling
//    quantum" Delta = 6 ticks, and the single-site no-yield ping-pong runs at
//    5 cycles/s, i.e. one ~100 ms wasted quantum per half-cycle.
//  * yield() naps to the second tick boundary when no other process is
//    runnable; chained yields then sleep exactly 2 ticks = 33.3 ms, matching
//    the paper's measured "sleeps of 33 msecs". With another process
//    runnable, yield is an immediate handoff (this is what produces the
//    35x single-site speedup: 166 vs 5 cycles/s).
//  * context switch + resume ~= 2 ms on a VAX 11/750 class machine,
//    calibrated so the single-site yield ping-pong lands near the paper's
//    166 cycles/s.
#ifndef SRC_OS_CONFIG_H_
#define SRC_OS_CONFIG_H_

#include "src/sim/time.h"

namespace mos {

struct SchedulerConfig {
  // Clock tick period (60 Hz).
  msim::Duration tick_us = 16667;
  // Round-robin quantum, in ticks.
  int quantum_ticks = 6;
  // When yield() finds nothing else runnable the caller naps until the
  // yield_idle_ticks'th tick boundary (2 => chained yields sleep ~33 ms).
  int yield_idle_ticks = 2;
  // Cost of switching the CPU to a different user process (full VM context;
  // calibrated so the single-site yield ping-pong lands at the paper's
  // 166 cycles/s).
  msim::Duration context_switch_us = 2800;
  // Cost of switching to a kernel lightweight process (network server,
  // library) — these share the kernel context and switch cheaply.
  msim::Duration kernel_switch_us = 500;
  // Lazy remap: cost per attached shared page, charged at every schedule-in
  // where another activity ran in between (paper §6.2: 106-125 us/page).
  msim::Duration remap_per_page_us = 115;

  msim::Duration QuantumUs() const { return tick_us * quantum_ticks; }
};

}  // namespace mos

#endif  // SRC_OS_CONFIG_H_
