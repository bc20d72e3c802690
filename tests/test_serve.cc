// Serving-layer contract: a request answered inside a k-RHS batch is
// bit-identical to the same solve run solo (the lockstep drivers'
// guarantee carried end to end through the daemon), batches dispatch on
// window expiry / fullness / deadline exactly as specified, expired or
// inadmissible requests shed with the right status, and the threaded
// daemon survives concurrent submitters (the TSan target).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <future>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/gen/grid.h"
#include "src/serve/daemon.h"
#include "src/serve/tcp_server.h"
#include "src/solvers/batched.h"
#include "src/solvers/bicgstab.h"
#include "src/solvers/cg.h"
#include "src/util/fault_injector.h"

namespace refloat::serve {
namespace {

using std::chrono::milliseconds;

sparse::Csr test_csr() {
  return gen::build_stencil(gen::laplace2d_5pt(16, 12)).shifted(0.15);
}

// Centering the spectrum pushes the operator indefinite — the
// probe-routing test's BiCGSTAB case.
sparse::Csr indefinite_csr() {
  return gen::build_stencil(gen::laplace2d_5pt(16, 12)).shifted(-4.0);
}

core::Format test_format() {
  core::Format fmt = core::default_format();
  fmt.b = 4;
  return fmt;
}

constexpr const char* kName = "laplace16x12";

ServeConfig manual_config() {
  ServeConfig config;
  config.manual_pump = true;
  config.max_batch = 4;
  config.batch_window_ms = 2.0;
  return config;
}

void register_test_matrix(SolverDaemon& daemon) {
  daemon.register_matrix(kName, test_format(), [] { return test_csr(); });
}

bool ready(const std::future<SolveResponse>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

std::future<SolveResponse> submit_rhs(SolverDaemon& daemon,
                                      std::vector<double> rhs,
                                      double tolerance = 1e-8) {
  SolveRequest request;
  request.matrix = kName;
  request.rhs = std::move(rhs);
  request.tolerance = tolerance;
  return daemon.submit(std::move(request));
}

std::vector<double> batch_column(const std::vector<double>& b, std::size_t n,
                                 std::size_t c) {
  return {b.begin() + static_cast<long>(c * n),
          b.begin() + static_cast<long>((c + 1) * n)};
}

// The serial reference a daemon answer must match bit for bit: the same
// options the daemon uses, differing only in the per-request tolerance.
solve::SolveResult solo_cg(std::span<const double> b, double tolerance) {
  const sparse::Csr a = test_csr();
  const core::RefloatMatrix rf(a, test_format());
  const auto op = core::make_value_backend(rf, core::default_tile_count());
  solve::SolveOptions options;
  options.tolerance = tolerance;
  options.record_trace = false;
  return solve::cg(*op, b, options);
}

TEST(Serve, BatchedBitIdenticalToSolo) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 4;
  const std::vector<double> b = solve::make_rhs_batch(a, k);

  std::vector<std::future<SolveResponse>> futures;
  for (std::size_t c = 0; c < k; ++c) {
    futures.push_back(submit_rhs(daemon, batch_column(b, n, c)));
  }
  // max_batch = 4: the batch is full, so the first pump dispatches it
  // without waiting out the window.
  daemon.pump(Clock::now());

  for (std::size_t c = 0; c < k; ++c) {
    ASSERT_TRUE(ready(futures[c])) << "column " << c;
    const SolveResponse got = futures[c].get();
    const solve::SolveResult want = solo_cg(batch_column(b, n, c), 1e-8);
    EXPECT_EQ(got.status, ResponseStatus::kOk);
    EXPECT_EQ(got.batch_k, k);
    EXPECT_STREQ(got.solver, "cg");
    EXPECT_EQ(got.solve_status, want.status) << "column " << c;
    EXPECT_EQ(got.iterations, want.iterations) << "column " << c;
    EXPECT_EQ(got.final_residual, want.final_residual) << "column " << c;
    ASSERT_EQ(got.solution.size(), want.solution.size());
    for (std::size_t i = 0; i < want.solution.size(); ++i) {
      ASSERT_EQ(got.solution[i], want.solution[i])
          << "column " << c << " row " << i;
    }
  }
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.completed, k);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch_k, k);
}

TEST(Serve, BatchWindowExpiry) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 2);

  const TimePoint t0 = Clock::now();
  auto f0 = submit_rhs(daemon, batch_column(b, n, 0));
  auto f1 = submit_rhs(daemon, batch_column(b, n, 1));

  // Two of four: under max_batch, inside the window -> nothing dispatches.
  daemon.pump(t0);
  EXPECT_FALSE(ready(f0));
  EXPECT_FALSE(ready(f1));
  daemon.pump(t0 + milliseconds(1));
  EXPECT_FALSE(ready(f0));

  // Past the 2 ms window the partial batch goes out as one k=2 dispatch.
  daemon.pump(t0 + milliseconds(3));
  ASSERT_TRUE(ready(f0));
  ASSERT_TRUE(ready(f1));
  EXPECT_EQ(f0.get().batch_k, 2u);
  EXPECT_EQ(f1.get().batch_k, 2u);
  EXPECT_EQ(daemon.stats().batches, 1u);
}

TEST(Serve, MixedToleranceBatchMatchesEachSolo) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 3);
  const double tolerances[] = {1e-4, 1e-8, 1e-10};

  const TimePoint t0 = Clock::now();
  std::vector<std::future<SolveResponse>> futures;
  for (std::size_t c = 0; c < 3; ++c) {
    futures.push_back(submit_rhs(daemon, batch_column(b, n, c),
                                 tolerances[c]));
  }
  daemon.pump(t0);                    // enqueue into one group at t0
  daemon.pump(t0 + milliseconds(3));  // window expired -> one k=3 batch

  long prev_iterations = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    ASSERT_TRUE(ready(futures[c])) << "column " << c;
    const SolveResponse got = futures[c].get();
    const solve::SolveResult want =
        solo_cg(batch_column(b, n, c), tolerances[c]);
    EXPECT_EQ(got.batch_k, 3u);
    EXPECT_EQ(got.iterations, want.iterations) << "column " << c;
    EXPECT_EQ(got.final_residual, want.final_residual) << "column " << c;
    ASSERT_EQ(got.solution.size(), want.solution.size());
    for (std::size_t i = 0; i < want.solution.size(); ++i) {
      ASSERT_EQ(got.solution[i], want.solution[i])
          << "column " << c << " row " << i;
    }
    // Tighter tolerance in the same batch means strictly more iterations.
    EXPECT_GT(got.iterations, prev_iterations) << "column " << c;
    prev_iterations = got.iterations;
  }
  EXPECT_EQ(daemon.stats().batches, 1u);
}

TEST(Serve, DeadlineShedBeforeSolve) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  SolveRequest request;
  request.matrix = kName;
  request.rhs = batch_column(b, n, 0);
  request.deadline = Clock::now() - milliseconds(1);  // already expired
  auto future = daemon.submit(std::move(request));

  daemon.pump(Clock::now());
  ASSERT_TRUE(ready(future));
  const SolveResponse response = future.get();
  EXPECT_EQ(response.status, ResponseStatus::kShedDeadline);
  EXPECT_TRUE(response.solution.empty());
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(Serve, TightDeadlineDragsBatchForward) {
  // A member whose deadline lands before the window expiry dispatches the
  // whole batch at the deadline instead of shedding.
  SolverDaemon daemon(manual_config());  // 2 ms window
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 2);

  const TimePoint t0 = Clock::now();
  auto patient = submit_rhs(daemon, batch_column(b, n, 0));
  SolveRequest urgent;
  urgent.matrix = kName;
  urgent.rhs = batch_column(b, n, 1);
  urgent.deadline = t0 + milliseconds(1);
  auto tight = daemon.submit(std::move(urgent));

  daemon.pump(t0);
  EXPECT_FALSE(ready(patient));

  daemon.pump(t0 + milliseconds(1));  // deadline == now: dispatch, not shed
  ASSERT_TRUE(ready(patient));
  ASSERT_TRUE(ready(tight));
  EXPECT_EQ(patient.get().status, ResponseStatus::kOk);
  const SolveResponse urgent_response = tight.get();
  EXPECT_EQ(urgent_response.status, ResponseStatus::kOk);
  EXPECT_EQ(urgent_response.batch_k, 2u);
}

TEST(Serve, QueueShedsOnFull) {
  ServeConfig config = manual_config();
  config.queue_capacity = 2;
  SolverDaemon daemon(config);
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  auto f0 = submit_rhs(daemon, batch_column(b, n, 0));
  auto f1 = submit_rhs(daemon, batch_column(b, n, 0));
  auto f2 = submit_rhs(daemon, batch_column(b, n, 0));  // over capacity

  ASSERT_TRUE(ready(f2));  // answered immediately, never queued
  EXPECT_EQ(f2.get().status, ResponseStatus::kShedQueueFull);
  EXPECT_FALSE(ready(f0));
  EXPECT_EQ(daemon.stats().shed_queue_full, 1u);

  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  EXPECT_EQ(f0.get().status, ResponseStatus::kOk);
  EXPECT_EQ(f1.get().status, ResponseStatus::kOk);
}

TEST(Serve, UnknownMatrixAndBadRhs) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);

  SolveRequest unknown;
  unknown.matrix = "no_such_matrix";
  unknown.rhs = {1.0};
  auto f_unknown = daemon.submit(std::move(unknown));

  SolveRequest bad;
  bad.matrix = kName;
  bad.rhs = {1.0, 2.0};  // wrong dimension
  auto f_bad = daemon.submit(std::move(bad));

  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  EXPECT_EQ(f_unknown.get().status, ResponseStatus::kUnknownMatrix);
  EXPECT_EQ(f_bad.get().status, ResponseStatus::kBadRequest);
  EXPECT_EQ(daemon.stats().failed, 2u);
}

TEST(Serve, ProbeRoutesIndefiniteToBicgstab) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  daemon.register_matrix("indefinite", test_format(),
                         [] { return indefinite_csr(); });

  SolveRequest spd;
  spd.matrix = kName;
  spd.rhs_seed = 7;
  spd.want_solution = false;
  auto f_spd = daemon.submit(std::move(spd));

  SolveRequest indef;
  indef.matrix = "indefinite";
  indef.rhs_seed = 7;
  indef.tolerance = 1e-4;
  indef.want_solution = false;
  auto f_indef = daemon.submit(std::move(indef));

  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  const SolveResponse spd_response = f_spd.get();
  const SolveResponse indef_response = f_indef.get();
  EXPECT_EQ(spd_response.status, ResponseStatus::kOk);
  EXPECT_STREQ(spd_response.solver, "cg");
  EXPECT_EQ(indef_response.status, ResponseStatus::kOk);
  EXPECT_STREQ(indef_response.solver, "bicgstab");
}

TEST(Serve, BackendsBatchSeparatelyAndNoisyMatchesSolo) {
  // A value and a noisy request on the same matrix must NOT share a batch
  // (different batch_key) nor a residency entry, and the noisy answer is
  // bit-identical to a solo noisy solve with the request's noise_seed.
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 2);
  const double sigma = 1e-3;
  const std::uint64_t noise_seed = 77;

  SolveRequest value;
  value.matrix = kName;
  value.rhs = batch_column(b, n, 0);
  auto f_value = daemon.submit(std::move(value));

  SolveRequest noisy;
  noisy.matrix = kName;
  noisy.rhs = batch_column(b, n, 1);
  noisy.backend = core::BackendKind::kNoisy;
  noisy.noise_sigma = sigma;
  noisy.noise_seed = noise_seed;
  auto f_noisy = daemon.submit(std::move(noisy));

  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));

  const SolveResponse value_response = f_value.get();
  const SolveResponse noisy_response = f_noisy.get();
  EXPECT_EQ(value_response.status, ResponseStatus::kOk);
  EXPECT_STREQ(value_response.backend, "value");
  EXPECT_EQ(value_response.batch_k, 1u);  // never pooled across backends
  EXPECT_EQ(noisy_response.status, ResponseStatus::kOk);
  EXPECT_STREQ(noisy_response.backend, "noisy");
  EXPECT_EQ(noisy_response.batch_k, 1u);
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.cache.resident_count, 2u);  // one entry per backend key

  const core::RefloatMatrix rf(a, test_format());
  const auto op = core::make_noisy_backend(rf, sigma, noise_seed,
                                           core::default_tile_count());
  solve::SolveOptions options;
  options.tolerance = 1e-8;
  options.record_trace = false;
  const solve::SolveResult want =
      solve::cg(*op, batch_column(b, n, 1), options);
  EXPECT_EQ(noisy_response.iterations, want.iterations);
  EXPECT_EQ(noisy_response.final_residual, want.final_residual);
  ASSERT_EQ(noisy_response.solution.size(), want.solution.size());
  for (std::size_t i = 0; i < want.solution.size(); ++i) {
    ASSERT_EQ(noisy_response.solution[i], want.solution[i]) << "row " << i;
  }
}

TEST(Serve, BitTrueRequestsServeDeterministically) {
  // The bit-true backend serves through the daemon (ideal datapath): the
  // same request twice hits the cached programmed image the second time
  // and returns the identical trajectory.
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);

  auto make_request = [] {
    SolveRequest request;
    request.matrix = kName;
    request.rhs_seed = 5;
    request.tolerance = 1e-6;
    request.backend = core::BackendKind::kBitTrue;
    return request;
  };

  auto first = daemon.submit(make_request());
  TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  const SolveResponse r1 = first.get();
  ASSERT_EQ(r1.status, ResponseStatus::kOk);
  EXPECT_STREQ(r1.backend, "bittrue");
  EXPECT_FALSE(r1.cache_hit);

  auto second = daemon.submit(make_request());
  t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  const SolveResponse r2 = second.get();
  ASSERT_EQ(r2.status, ResponseStatus::kOk);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.iterations, r1.iterations);
  EXPECT_EQ(r2.final_residual, r1.final_residual);
  ASSERT_EQ(r2.solution.size(), r1.solution.size());
  for (std::size_t i = 0; i < r1.solution.size(); ++i) {
    ASSERT_EQ(r2.solution[i], r1.solution[i]) << "row " << i;
  }
}

TEST(Serve, ShutdownFlushesPendingAndRejectsNew) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  auto pending = submit_rhs(daemon, batch_column(b, n, 0));
  daemon.shutdown();  // flushes: the queued request still solves

  ASSERT_TRUE(ready(pending));
  EXPECT_EQ(pending.get().status, ResponseStatus::kOk);

  auto rejected = submit_rhs(daemon, batch_column(b, n, 0));
  ASSERT_TRUE(ready(rejected));
  EXPECT_EQ(rejected.get().status, ResponseStatus::kShutdown);
}

TEST(Serve, SeededRhsIsDeterministicAndNormalized) {
  const std::vector<double> b1 = seeded_rhs(192, 42);
  const std::vector<double> b2 = seeded_rhs(192, 42);
  const std::vector<double> b3 = seeded_rhs(192, 43);
  ASSERT_EQ(b1.size(), 192u);
  EXPECT_EQ(b1, b2);
  EXPECT_NE(b1, b3);
  double norm_sq = 0.0;
  for (const double v : b1) norm_sq += v * v;
  EXPECT_NEAR(norm_sq, 1.0, 1e-12);
}

// The TSan target: many producers against the threaded daemon, a cold
// cache built exactly once under contention, every future fulfilled, and a
// clean join on shutdown.
TEST(Serve, ThreadedConcurrentSubmitters) {
  ServeConfig config;
  config.max_batch = 4;
  config.batch_window_ms = 1.0;
  SolverDaemon daemon(config);
  register_test_matrix(daemon);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::future<SolveResponse>>> futures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&daemon, &futures, t] {
      for (int r = 0; r < kPerThread; ++r) {
        SolveRequest request;
        request.matrix = kName;
        request.rhs_seed =
            static_cast<std::uint64_t>(t) * 100u + static_cast<unsigned>(r);
        request.tolerance = 1e-6;
        request.want_solution = false;
        futures[static_cast<std::size_t>(t)].push_back(
            daemon.submit(std::move(request)));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  int completed = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      const SolveResponse response = f.get();  // every future resolves
      EXPECT_EQ(response.status, ResponseStatus::kOk);
      ++completed;
    }
  }
  EXPECT_EQ(completed, kThreads * kPerThread);

  daemon.shutdown();
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(completed));
  // The cold matrix was built exactly once despite concurrent batches.
  EXPECT_EQ(stats.cache.builds, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
}

// --- Fault tolerance: the retry/degrade ladder and the hardened wire ------

// Restores the process-global injector to disarmed whatever the test does.
struct GlobalInjectorGuard {
  GlobalInjectorGuard() { util::FaultInjector::global().disable_all(); }
  ~GlobalInjectorGuard() { util::FaultInjector::global().disable_all(); }
};

TEST(ServeFaults, CorruptedSolveRecoversBitIdentically) {
  // One transient sweep corruption (rate 1, budget 1): the first apply of
  // the batch is flagged by ABFT, the ladder's rung-1 clean re-solve runs
  // with the budget spent, and the answer is bit-identical to the
  // fault-free solo solve — the corrupted output never touched x.
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("sweep:1:40:1"));
  auto future = submit_rhs(daemon, batch_column(b, n, 0));
  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));

  ASSERT_TRUE(ready(future));
  const SolveResponse got = future.get();
  const solve::SolveResult want = solo_cg(batch_column(b, n, 0), 1e-8);
  EXPECT_EQ(got.status, ResponseStatus::kOk);
  EXPECT_EQ(got.solve_status, solve::SolveStatus::kConverged);
  EXPECT_EQ(got.retries, 1);
  EXPECT_FALSE(got.degraded);
  EXPECT_STREQ(got.backend, "value");
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.final_residual, want.final_residual);
  ASSERT_EQ(got.solution.size(), want.solution.size());
  for (std::size_t i = 0; i < want.solution.size(); ++i) {
    ASSERT_EQ(got.solution[i], want.solution[i]) << "row " << i;
  }

  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.abft_failures, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.degraded, 0u);
}

TEST(ServeFaults, BitTrueLadderReprogramsThenDegrades) {
  // Budget 3 walks a bit-true request down the whole ladder: the initial
  // solve corrupts (1), the rung-1 re-solve corrupts (2), the rung-2
  // reprogrammed image corrupts (3), and the rung-3 degraded noisy view
  // finally answers clean. The response carries the view that answered.
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);

  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("sweep:1:41:3"));
  SolveRequest request;
  request.matrix = kName;
  request.rhs_seed = 5;
  request.tolerance = 1e-6;
  request.backend = core::BackendKind::kBitTrue;
  auto future = daemon.submit(std::move(request));
  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));

  ASSERT_TRUE(ready(future));
  const SolveResponse got = future.get();
  EXPECT_EQ(got.status, ResponseStatus::kOk);
  EXPECT_EQ(got.solve_status, solve::SolveStatus::kConverged);
  EXPECT_EQ(got.retries, 3);
  EXPECT_TRUE(got.degraded);
  EXPECT_STREQ(got.backend, "noisy");

  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.abft_failures, 3u);
  EXPECT_EQ(stats.reprograms, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.recovered, 1u);
}

TEST(ServeFaults, PersistentPlanCorruptionRebuildsResident) {
  // Budget 1 damages the first resident's plan arena, so the initial solve
  // and the rung-1 re-solve both fail ABFT on the same image; the rung-2
  // rebuild evicts it, the builder runs clean, and the answer matches the
  // fault-free solo solve bit for bit from the rebuilt resident.
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("plan:1:43:1"));
  auto future = submit_rhs(daemon, batch_column(b, n, 0));
  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));

  ASSERT_TRUE(ready(future));
  const SolveResponse got = future.get();
  const solve::SolveResult want = solo_cg(batch_column(b, n, 0), 1e-8);
  EXPECT_EQ(got.status, ResponseStatus::kOk);
  EXPECT_EQ(got.solve_status, solve::SolveStatus::kConverged);
  EXPECT_STREQ(got.backend, "value");
  EXPECT_EQ(got.retries, 2);
  EXPECT_FALSE(got.degraded);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_residual),
            std::bit_cast<std::uint64_t>(want.final_residual));

  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.abft_failures, 2u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.cache.builds, 2u);
}

TEST(ServeFaults, LadderShedsWhenDeadlineCannotFitRetry) {
  // The request dispatches (its deadline is still ahead of the batcher's
  // logical clock) but real time has already passed it, so the ladder's
  // pre-attempt deadline check sheds instead of answering late.
  GlobalInjectorGuard guard;
  ServeConfig config = manual_config();
  config.max_batch = 1;  // full at one request: dispatches on first pump
  SolverDaemon daemon(config);
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("sweep:1:42"));
  const TimePoint t0 = Clock::now();
  SolveRequest request;
  request.matrix = kName;
  request.rhs = batch_column(b, n, 0);
  request.deadline = t0 + milliseconds(1);
  auto future = daemon.submit(std::move(request));

  std::this_thread::sleep_for(milliseconds(10));  // real clock passes deadline
  daemon.pump(t0);  // logical clock still before it: dispatch, not pre-shed

  ASSERT_TRUE(ready(future));
  const SolveResponse got = future.get();
  EXPECT_EQ(got.status, ResponseStatus::kShedDeadline);
  EXPECT_EQ(daemon.stats().shed_deadline, 1u);
  EXPECT_EQ(daemon.stats().recovered, 0u);
}

TEST(ServeFaults, AdmissionFaultShedsAtSubmit) {
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("admission:1:43:1"));
  auto dropped = submit_rhs(daemon, batch_column(b, n, 0));
  ASSERT_TRUE(ready(dropped));  // answered at submit, never queued
  EXPECT_EQ(dropped.get().status, ResponseStatus::kShedQueueFull);

  // Budget spent: the next submit is admitted and solves normally.
  auto admitted = submit_rhs(daemon, batch_column(b, n, 0));
  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  EXPECT_EQ(admitted.get().status, ResponseStatus::kOk);
}

TEST(ServeFaults, BuildFaultFailsBatchLoudly) {
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("build:1:44:1"));
  auto failed = submit_rhs(daemon, batch_column(b, n, 0));
  TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  ASSERT_TRUE(ready(failed));
  EXPECT_EQ(failed.get().status, ResponseStatus::kUnknownMatrix);

  // The single-flight marker was cleared: a later request rebuilds fine.
  auto retried = submit_rhs(daemon, batch_column(b, n, 0));
  t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  EXPECT_EQ(retried.get().status, ResponseStatus::kOk);
}

TEST(ServeFaults, FaultVerbRoundTrips) {
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  bool quit = false;

  std::string reply =
      TcpServer::handle_line(daemon, "FAULT sweep:0.5:9:10", &quit);
  EXPECT_EQ(reply.rfind("FAULT ", 0), 0u) << reply;
  EXPECT_NE(reply.find("sweep"), std::string::npos);
  EXPECT_TRUE(util::FaultInjector::global().armed(util::FaultSite::kSweep));

  reply = TcpServer::handle_line(daemon, "FAULT off", &quit);
  EXPECT_EQ(reply.rfind("FAULT", 0), 0u);
  EXPECT_FALSE(util::FaultInjector::global().any_armed());

  reply = TcpServer::handle_line(daemon, "FAULT warp:0.5", &quit);
  EXPECT_EQ(reply.rfind("ERR bad fault spec", 0), 0u) << reply;

  reply = TcpServer::handle_line(daemon, "STATS", &quit);
  EXPECT_NE(reply.find("abft_failures="), std::string::npos) << reply;
  EXPECT_NE(reply.find("retries="), std::string::npos);
  EXPECT_FALSE(quit);
}

// --- Recovery-ladder policy: next_rung driven directly --------------------

// Walks next_rung the way the daemon does, with every attempt ending in
// `status` (never converging) and a budget of `attempts`: a reprogram or
// rebuild rung succeeds when `rungs_succeed`, a degrade steps the current
// view down. Returns the rungs taken and the view each attempt ran on.
struct Walk {
  std::vector<LadderRung> rungs;
  std::vector<core::BackendKind> views;
};
Walk walk_rungs(core::BackendKind served, solve::SolveStatus status,
                 int attempts, bool rungs_succeed = true) {
  Walk walk;
  LadderState state{.served = served, .current = served, .status = status};
  for (; state.attempt <= attempts; ++state.attempt) {
    const LadderRung rung = next_rung(state);
    walk.rungs.push_back(rung);
    if (rung == LadderRung::kStop || rung == LadderRung::kShed) break;
    if (rung == LadderRung::kReprogram) state.reprogrammed = rungs_succeed;
    if (rung == LadderRung::kRebuild) state.rebuilt = rungs_succeed;
    if (rung == LadderRung::kDegrade) {
      state.current = state.current == core::BackendKind::kBitTrue
                          ? core::BackendKind::kNoisy
                          : core::BackendKind::kValue;
    }
    walk.views.push_back(state.current);
  }
  return walk;
}

using core::BackendKind;
using solve::SolveStatus;
using R = LadderRung;

TEST(LadderPolicy, BitTrueReprogramsThenDegradesToTheValueFloor) {
  const Walk w = walk_rungs(BackendKind::kBitTrue, SolveStatus::kCorrupted, 8);
  EXPECT_EQ(w.rungs, (std::vector<R>{R::kResolve, R::kReprogram, R::kDegrade,
                                     R::kDegrade, R::kStop}));
  EXPECT_EQ(w.views,
            (std::vector<BackendKind>{BackendKind::kBitTrue,
                                      BackendKind::kBitTrue,
                                      BackendKind::kNoisy,
                                      BackendKind::kValue}));
  // Persistent non-corrupted failures take the same rungs on bit-true.
  EXPECT_EQ(walk_rungs(BackendKind::kBitTrue, SolveStatus::kDiverged, 8).rungs,
            w.rungs);
}

TEST(LadderPolicy, CorruptionRebuildsNoisyAndValueResidents) {
  EXPECT_EQ(walk_rungs(BackendKind::kNoisy, SolveStatus::kCorrupted, 8).rungs,
            (std::vector<R>{R::kResolve, R::kRebuild, R::kDegrade, R::kStop}));
  EXPECT_EQ(walk_rungs(BackendKind::kValue, SolveStatus::kCorrupted, 8).rungs,
            (std::vector<R>{R::kResolve, R::kRebuild, R::kStop}));
}

TEST(LadderPolicy, NonCorruptedFailureOnValueResolvesOnceThenStops) {
  for (SolveStatus s : {SolveStatus::kDiverged, SolveStatus::kStalled,
                        SolveStatus::kBreakdown}) {
    EXPECT_EQ(walk_rungs(BackendKind::kValue, s, 8).rungs,
              (std::vector<R>{R::kResolve, R::kStop}))
        << solve::status_name(s);
  }
  // On noisy the same failure skips the rebuild and degrades.
  EXPECT_EQ(walk_rungs(BackendKind::kNoisy, SolveStatus::kDiverged, 8).rungs,
            (std::vector<R>{R::kResolve, R::kDegrade, R::kStop}));
}

TEST(LadderPolicy, RefusedReprogramOrFailedRebuildTriesAgain) {
  EXPECT_EQ(walk_rungs(BackendKind::kBitTrue, SolveStatus::kCorrupted, 4,
                        /*rungs_succeed=*/false)
                .rungs,
            (std::vector<R>{R::kResolve, R::kReprogram, R::kReprogram,
                            R::kReprogram}));
  EXPECT_EQ(walk_rungs(BackendKind::kValue, SolveStatus::kCorrupted, 4,
                        /*rungs_succeed=*/false)
                .rungs,
            (std::vector<R>{R::kResolve, R::kRebuild, R::kRebuild,
                            R::kRebuild}));
}

TEST(LadderPolicy, ConvergedStopsAndTheBudgetBoundsTheWalk) {
  LadderState state{.status = SolveStatus::kConverged, .attempt = 2};
  EXPECT_EQ(next_rung(state), R::kStop);
  EXPECT_EQ(walk_rungs(BackendKind::kBitTrue, SolveStatus::kCorrupted, 2).rungs,
            (std::vector<R>{R::kResolve, R::kReprogram}));
  EXPECT_TRUE(walk_rungs(BackendKind::kValue, SolveStatus::kCorrupted, 0)
                  .rungs.empty());
}

TEST(LadderPolicy, ShedsWhenTheEstimateOverrunsTheDeadline) {
  // Both times are passed in; nothing here reads a clock.
  const TimePoint now = TimePoint{} + std::chrono::hours(1);
  LadderState state{.status = SolveStatus::kCorrupted,
                    .now = now,
                    .estimate_seconds = 0.5,
                    .deadline = now + milliseconds(400)};
  EXPECT_EQ(next_rung(state), R::kShed);
  state.deadline = now + milliseconds(500);  // exactly fits: not late
  EXPECT_EQ(next_rung(state), R::kResolve);
  state.attempt = 3;
  state.estimate_seconds = 0.6;  // checked before every rung, not just 1
  EXPECT_EQ(next_rung(state), R::kShed);
  state.deadline = kNoDeadline;  // no deadline never sheds
  state.estimate_seconds = 1e6;
  EXPECT_EQ(next_rung(state), R::kRebuild);
}

// --- Env overrides: invalid values warn and keep the default --------------

// Sets one variable for the scope of a test and clears it after.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  const char* name_;
};

// from_env() under one override, returning the config and what it logged.
std::pair<ServeConfig, std::string> config_with(const char* name,
                                                const char* value) {
  ScopedEnv env(name, value);
  testing::internal::CaptureStderr();
  ServeConfig config = ServeConfig::from_env();
  return {config, testing::internal::GetCapturedStderr()};
}

TEST(ServeEnv, AbftAcceptsOnlyZeroOrOne) {
  const ServeConfig defaults;
  EXPECT_FALSE(config_with("REFLOAT_SERVE_ABFT", "0").first.abft);
  EXPECT_TRUE(config_with("REFLOAT_SERVE_ABFT", "1").first.abft);
  const auto [config, log] = config_with("REFLOAT_SERVE_ABFT", "off");
  EXPECT_EQ(config.abft, defaults.abft);
  EXPECT_NE(log.find("REFLOAT_SERVE_ABFT"), std::string::npos) << log;
}

TEST(ServeEnv, CacheMbThatWouldWrapKeepsTheDefault) {
  const ServeConfig defaults;
  const std::string too_big = std::to_string((SIZE_MAX >> 20) + 1);
  const auto [config, log] =
      config_with("REFLOAT_SERVE_CACHE_MB", too_big.c_str());
  EXPECT_EQ(config.cache_bytes, defaults.cache_bytes);
  EXPECT_NE(log.find("REFLOAT_SERVE_CACHE_MB"), std::string::npos) << log;
  EXPECT_EQ(config_with("REFLOAT_SERVE_CACHE_MB", "3").first.cache_bytes,
            3u << 20);
}

TEST(ServeEnv, NonFiniteWindowKeepsTheDefault) {
  const ServeConfig defaults;
  for (const char* bad : {"inf", "nan", "1e300", "-1"}) {
    const auto [config, log] = config_with("REFLOAT_SERVE_WINDOW_MS", bad);
    EXPECT_EQ(config.batch_window_ms, defaults.batch_window_ms) << bad;
    EXPECT_NE(log.find("REFLOAT_SERVE_WINDOW_MS"), std::string::npos) << bad;
  }
  EXPECT_EQ(config_with("REFLOAT_SERVE_WINDOW_MS", "0.5").first.batch_window_ms,
            0.5);
}

TEST(ServeEnv, RetriesMayBeZeroButNotNegative) {
  const ServeConfig defaults;
  EXPECT_EQ(config_with("REFLOAT_SERVE_RETRIES", "0").first.max_retries, 0);
  for (const char* bad : {"-1", "two", "99999999999"}) {
    const auto [config, log] = config_with("REFLOAT_SERVE_RETRIES", bad);
    EXPECT_EQ(config.max_retries, defaults.max_retries) << bad;
    EXPECT_NE(log.find("REFLOAT_SERVE_RETRIES"), std::string::npos) << bad;
  }
}

// --- TCP hardening ---------------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  // Bound every test read so a server bug cannot hang the suite.
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

// Reads until '\n' (returned without it) or connection close / timeout.
std::string recv_line(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return line;
}

TEST(TcpHardening, OversizedLineAnswersErrAndCloses) {
  SolverDaemon daemon(manual_config());
  TcpServer server(daemon);
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);

  const std::string flood(TcpServer::kMaxLineBytes + 1024, 'A');
  std::size_t off = 0;
  while (off < flood.size()) {
    const ssize_t n =
        ::send(fd, flood.data() + off, flood.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;  // server may already have slammed the door
    off += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(recv_line(fd), "ERR line too long");
  char c = 0;
  EXPECT_LE(::recv(fd, &c, 1, 0), 0);  // connection closed after the ERR
  ::close(fd);
}

TEST(TcpHardening, IdleConnectionIsDropped) {
  SolverDaemon daemon(manual_config());
  TcpServer server(daemon, /*port=*/0, /*idle_timeout_seconds=*/0.1);
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);

  // A live client still gets served...
  ASSERT_GT(::send(fd, "PING\n", 5, MSG_NOSIGNAL), 0);
  EXPECT_EQ(recv_line(fd), "PONG");
  // ...then goes silent past the idle timeout: the server hangs up (recv
  // sees EOF well inside the 5 s client-side read bound).
  char c = 0;
  EXPECT_LE(::recv(fd, &c, 1, 0), 0);
  ::close(fd);
}

TEST(TcpHardening, NonFiniteOrOverflowingDeadlineAndSigmaAreRejected) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  bool quit = false;
  for (const char* bad : {"inf", "1e300", "1e13", "nan", "-1"}) {
    const std::string line =
        std::string("SOLVE ") + kName + " deadline_ms=" + bad;
    EXPECT_EQ(TcpServer::handle_line(daemon, line, &quit),
              std::string("ERR bad deadline_ms \"") + bad + "\"");
  }
  for (const char* bad : {"inf", "nan", "-0.1"}) {
    const std::string line = std::string("SOLVE ") + kName + " sigma=" + bad;
    EXPECT_EQ(TcpServer::handle_line(daemon, line, &quit),
              std::string("ERR bad sigma \"") + bad + "\"");
  }
  EXPECT_EQ(daemon.stats().submitted, 0u);  // rejected on the wire
}

TEST(TcpHardening, LongestDeadlineStillSolves) {
  // The largest accepted deadline lands ~31.7 years out, not before now.
  SolverDaemon daemon;  // threaded: handle_line blocks on the answer
  register_test_matrix(daemon);
  bool quit = false;
  const std::string reply = TcpServer::handle_line(
      daemon, std::string("SOLVE ") + kName + " rhs=seed:1 deadline_ms=1e12",
      &quit);
  EXPECT_EQ(reply.rfind("OK status=converged", 0), 0u) << reply;
}

}  // namespace
}  // namespace refloat::serve
