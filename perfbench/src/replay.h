// The traced half of the benchmark: replays a recorded daemon pass through
// the public layer calls (gen -> core -> hw -> solvers) with a span around
// each call, then attributes every request's end-to-end latency to those
// stages (the stage-sum ledger) and derives the per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.h"

namespace perfbench {

// |unattributed_frac| above this fails the run. The stages are timed in a
// second pass over the same requests, so host drift between the two passes
// lands here too.
inline constexpr double kLedgerSlack = 0.10;

struct ReplayOutput {
  std::vector<std::pair<std::string, double>> metrics;  // per-layer, by name
  std::vector<std::string> errors;  // replay disagreed with the daemon
  long builds = 0;                  // builds replayed in the daemon pass
  long sweeps = 0;                  // operator applies replayed
};

// Replays each recorded burst right after the daemon answered it, so the
// daemon's timers and the replayed spans of one burst are measured seconds
// apart and host-speed drift hits both alike. The replay holds residents
// of its own, built the way the daemon's builder builds them.
class Tracer {
 public:
  // Builds the set-up's residents (`warm`: rotation indices, in order).
  Tracer(const WorkloadDef& w, const Matrices& matrices, std::uint64_t seed,
         const std::vector<std::size_t>& warm);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Replays one burst. When the workload arms sweep faults, the fault
  // stream is rewound to the event count the daemon started the burst at,
  // and left where the daemon ended it, so recovery replays the same
  // faults and the daemon's next burst sees an undisturbed stream.
  // `check_solo` also re-solves column 0 alone (batched == solo).
  void replay(const BatchRecord& rec, bool check_solo);

  // The stage-sum ledger (printed) and the per-layer metrics over every
  // replayed burst; `batches` are the same records, in order.
  ReplayOutput finish(const std::vector<BatchRecord>& batches);

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
