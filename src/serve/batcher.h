// Deadline-bounded same-matrix batching (docs/ARCHITECTURE.md "Serving
// layer").
//
// Requests accumulate per batch_key — (matrix, backend, noise config) —
// so a batch is always homogeneous in everything but its right-hand sides
// and tolerances. A group dispatches as one k-RHS
// lockstep batch when the first of three clocks fires:
//   * it reaches max_batch requests (a full batch),
//   * the oldest member has waited the batch window (latency bound), or
//   * a member's deadline arrives (the window is *bounded by* the earliest
//     deadline — a tight-deadline request drags its whole batch forward
//     rather than waiting out the window and getting shed).
// Members whose deadline has already passed are shed at pop time, before
// any solve work is spent on them.
//
// The batcher is single-consumer state owned by the daemon's dispatch
// thread (or the manual pump): it does no locking of its own and takes
// `now` explicitly, which is what makes the window/deadline tests
// deterministic.
#pragma once

#include <cstddef>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/serve/request.h"

namespace refloat::serve {

// A request in flight through the daemon: the caller's promise plus the
// timestamps the latency breakdown is computed from.
struct PendingRequest {
  SolveRequest request;
  std::promise<SolveResponse> promise;
  TimePoint submit_time{};   // admission (queue push)
  TimePoint dequeue_time{};  // picked up by the dispatcher
};

// The batching/residency identity of a request: the matrix name for
// value-faithful solves, extended with a
// "#noisy@<sigma>" / "#bittrue" suffix otherwise. Requests with equal keys
// may share a batch and a ResidencyCache entry; requests with different
// keys never do — a noisy batch must not reuse a value backend, and two
// sigmas are two different operators.
std::string batch_key(const SolveRequest& request);

// True when `key` is a batch_key of some request on `matrix` (any backend,
// any sigma) — the residency keys that registering `matrix` again drops.
bool is_batch_key_of(const std::string& key, const std::string& matrix);

class Batcher {
 public:
  Batcher(std::size_t max_batch, Duration window)
      : max_batch_(max_batch == 0 ? 1 : max_batch), window_(window) {}

  void add(PendingRequest&& pending, TimePoint now);

  struct ReadyBatch {
    std::string key;     // batch_key of every member (residency-cache key)
    std::string matrix;  // registry name (the key minus the backend tag)
    std::vector<PendingRequest> requests;  // FIFO within the group
  };

  // Sheds expired members into *shed (their deadline passed while they
  // waited), then returns the next dispatchable batch, if any. Call in a
  // loop until nullopt. `force` dispatches every non-empty group
  // regardless of window/deadline — the shutdown flush.
  std::optional<ReadyBatch> pop_ready(TimePoint now,
                                      std::vector<PendingRequest>* shed,
                                      bool force = false);

  // Earliest instant at which pop_ready could produce new work (window
  // expiry or deadline of some pending group); nullopt when empty. The
  // dispatch loop sleeps until this.
  [[nodiscard]] std::optional<TimePoint> next_event() const;

  [[nodiscard]] bool empty() const { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const { return pending_; }

 private:
  struct Group {
    std::string matrix;  // registry name shared by every member
    std::vector<PendingRequest> requests;
    TimePoint oldest{};  // batcher arrival of requests.front()
  };

  // When this group should dispatch: min(oldest + window, earliest member
  // deadline), or immediately when full.
  [[nodiscard]] TimePoint ready_time(const Group& group) const;

  std::size_t max_batch_;
  Duration window_;
  // Ordered map: groups are scanned in deterministic (key) order so two
  // simultaneously-ready matrices dispatch in a reproducible sequence.
  std::map<std::string, Group> groups_;
  std::size_t pending_ = 0;
};

}  // namespace refloat::serve
