#pragma once

// RCU health metrics (DESIGN.md §12): the handful of signals that tell
// you whether reclamation is keeping up, named once here so every
// subsystem records into the same registry entries.
//
// All handles live in Registry::global() (process-wide, like the
// reclamation domains that feed them) and are resolved once through a
// function-local static — the hot path is the metric's own relaxed RMW.
// Comm-side health (async in-flight depth, cache hit ratio) lives in
// the per-CommLayer registry instead; see runtime/comm.hpp.

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace rcua::obs::health {

/// Grace-period duration: how long writers waited for readers, from the
/// EBR and era reclaimers' wait_for_readers (each a plat::wait_until).
/// A deadline-bounded EBR wait that times out records what it waited —
/// the tail of this histogram is the stalled-reader signal.
inline Histogram& grace_ns() {
  static Histogram& h = Registry::global().histogram("rcua.rcu.grace_ns");
  return h;
}

/// High-water epoch lag: max over observations of (global epoch -
/// slowest participant's epoch). A growing value means some reader or
/// laggard task is pinning reclamation further and further behind.
inline Gauge& epoch_lag() {
  static Gauge& gv = Registry::global().gauge("rcua.rcu.epoch_lag");
  return gv;
}

/// High-water bytes parked on overflow retire lists (the §9 watchdog's
/// bounded-memory guarantee, measured). Fed by StallMonitor.
inline Gauge& overflow_bytes_hwm() {
  static Gauge& gv =
      Registry::global().gauge("rcua.reclaim.overflow_bytes_hwm");
  return gv;
}

/// High-water retired-but-unreclaimed bytes for one era-based
/// reclamation policy ("ibr" / "he") — the bounded-by-construction
/// claim, measured. Fed by BasicEraReclaimer on every retire; unlike
/// the static handles above the name varies per policy, so callers
/// resolve once (the reclaimer constructor caches the reference).
inline Gauge& unreclaimed_bytes_hwm(std::string_view policy) {
  std::string name = "rcua.reclaim.unreclaimed_bytes.";
  name.append(policy);
  return Registry::global().gauge(name);
}

/// Era-reclaimer scan latency (BasicEraReclaimer::scan): reservation
/// snapshot + retire-list sweep. The scheme's write-side overhead lives
/// here — where EBR pays grace_ns, IBR/HE pay era_scan_ns.
inline Histogram& era_scan_ns() {
  static Histogram& h =
      Registry::global().histogram("rcua.reclaim.era_scan_ns");
  return h;
}

/// Grace-period waits that hit their deadline and were diagnosed.
inline Counter& stalls() {
  static Counter& c = Registry::global().counter("rcua.reclaim.stalls");
  return c;
}

/// Overflow-budget escalations (StallMonitor::escalate).
inline Counter& escalations() {
  static Counter& c =
      Registry::global().counter("rcua.reclaim.escalations");
  return c;
}

}  // namespace rcua::obs::health
