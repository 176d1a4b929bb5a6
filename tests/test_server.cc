#include "runtime/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <vector>

#include "common/deadline_queue.h"
#include "nn/builders.h"
#include "runtime/runtime.h"
#include "tests/testing_util.h"

namespace hdnn {
namespace {

using testing::MakeInput;
using testing::TestConfig;
using testing::TestSpec;

std::vector<LayerMapping> UniformMapping(const Model& model, ConvMode mode,
                                         Dataflow flow) {
  return std::vector<LayerMapping>(
      static_cast<std::size_t>(model.num_layers()), LayerMapping{mode, flow});
}

std::vector<Tensor<std::int16_t>> MakeInputs(const Model& model, int n,
                                             std::uint64_t seed) {
  std::vector<Tensor<std::int16_t>> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    inputs.push_back(
        MakeInput(model.InputOf(0), seed + static_cast<std::uint64_t>(i)));
  }
  return inputs;
}

// --- deadline queue policy ---

TEST(DeadlineQueueTest, SizeAndTimeoutTriggers) {
  DeadlineQueue<int> q(/*capacity=*/8, /*max_batch=*/3,
                       /*max_queue_delay_s=*/0.010);
  std::vector<DeadlineQueue<int>::Entry> expired;
  DeadlineQueue<int>::Entry evicted;

  auto push = [&](int v, double at, double deadline = kNoDeadline) {
    DeadlineQueue<int>::Entry e{v, at, deadline};
    return q.Push(e, at, &evicted, expired);
  };

  EXPECT_FALSE(q.DispatchReady(0.0));
  EXPECT_EQ(push(1, 0.000), AdmitResult::kAdmitted);
  EXPECT_FALSE(q.DispatchReady(0.005)) << "one waiter, delay not reached";
  EXPECT_DOUBLE_EQ(q.NextTriggerTime(), 0.010);
  EXPECT_TRUE(q.DispatchReady(0.010)) << "timeout trigger";

  EXPECT_EQ(push(2, 0.001), AdmitResult::kAdmitted);
  EXPECT_EQ(push(3, 0.002), AdmitResult::kAdmitted);
  EXPECT_TRUE(q.DispatchReady(0.002)) << "size trigger at max_batch";

  const auto batch = q.TakeBatch();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].value, 1);  // FIFO prefix
  EXPECT_EQ(batch[1].value, 2);
  EXPECT_EQ(batch[2].value, 3);
  EXPECT_TRUE(q.empty());
}

TEST(DeadlineQueueTest, DeadlineAwareEviction) {
  DeadlineQueue<int> q(/*capacity=*/2, /*max_batch=*/8, 0.010);
  std::vector<DeadlineQueue<int>::Entry> expired;
  DeadlineQueue<int>::Entry evicted;

  DeadlineQueue<int>::Entry a{1, 0.0, /*deadline=*/0.100};
  DeadlineQueue<int>::Entry b{2, 0.0, /*deadline=*/0.050};
  ASSERT_EQ(q.Push(a, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(b, 0.0, &evicted, expired), AdmitResult::kAdmitted);

  // Full. A later-deadline arrival is rejected outright...
  DeadlineQueue<int>::Entry lax{3, 0.001, /*deadline=*/0.200};
  EXPECT_EQ(q.Push(lax, 0.001, &evicted, expired), AdmitResult::kRejected);
  EXPECT_EQ(lax.value, 3) << "rejected entry stays with the caller";

  // ...while a more urgent one evicts the latest-deadline waiter (value 1).
  DeadlineQueue<int>::Entry urgent{4, 0.001, /*deadline=*/0.020};
  EXPECT_EQ(q.Push(urgent, 0.001, &evicted, expired), AdmitResult::kEvicted);
  EXPECT_EQ(evicted.value, 1);
  ASSERT_EQ(q.size(), 2);

  // Expired entries are swept before anything is evicted or rejected: by
  // t=0.060 both waiters (deadlines 0.050 and 0.020) have expired.
  DeadlineQueue<int>::Entry late{5, 0.060, kNoDeadline};
  EXPECT_EQ(q.Push(late, /*now=*/0.060, &evicted, expired),
            AdmitResult::kAdmitted)
      << "expired waiters are swept, freeing slots";
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].value, 2);
  EXPECT_EQ(expired[1].value, 4);
  EXPECT_EQ(q.size(), 1);
}

TEST(DeadlineQueueTest, EqualDeadlineArrivalIsRejectedNotEvicted) {
  // Eviction requires the incoming request to be STRICTLY more urgent than
  // the latest-deadline waiter; an equal-deadline arrival must be rejected
  // (FIFO wins the tie — the waiter keeps its slot).
  DeadlineQueue<int> q(/*capacity=*/2, /*max_batch=*/8, 0.010);
  std::vector<DeadlineQueue<int>::Entry> expired;
  DeadlineQueue<int>::Entry evicted;

  DeadlineQueue<int>::Entry a{1, 0.0, /*deadline=*/0.050};
  DeadlineQueue<int>::Entry b{2, 0.0, /*deadline=*/0.100};
  ASSERT_EQ(q.Push(a, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(b, 0.0, &evicted, expired), AdmitResult::kAdmitted);

  DeadlineQueue<int>::Entry tie{3, 0.001, /*deadline=*/0.100};
  EXPECT_EQ(q.Push(tie, 0.001, &evicted, expired), AdmitResult::kRejected);
  EXPECT_EQ(tie.value, 3) << "rejected entry stays with the caller";
  ASSERT_EQ(q.size(), 2);

  // Just-barely-earlier flips the outcome to eviction of the 0.100 waiter.
  DeadlineQueue<int>::Entry urgent{4, 0.001, /*deadline=*/0.099};
  EXPECT_EQ(q.Push(urgent, 0.001, &evicted, expired), AdmitResult::kEvicted);
  EXPECT_EQ(evicted.value, 2);
}

TEST(DeadlineQueueTest, EvictionTieAmongEqualLatestDeadlinesShedsOldest) {
  // When several waiters share the latest deadline, the scan keeps the
  // first maximum it sees, so the OLDEST of the tied waiters is shed —
  // deterministically, regardless of how the tie arose.
  DeadlineQueue<int> q(/*capacity=*/3, /*max_batch=*/8, 0.010);
  std::vector<DeadlineQueue<int>::Entry> expired;
  DeadlineQueue<int>::Entry evicted;

  DeadlineQueue<int>::Entry a{1, 0.0, /*deadline=*/0.100};
  DeadlineQueue<int>::Entry b{2, 0.0, /*deadline=*/0.050};
  DeadlineQueue<int>::Entry c{3, 0.0, /*deadline=*/0.100};
  ASSERT_EQ(q.Push(a, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(b, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(c, 0.0, &evicted, expired), AdmitResult::kAdmitted);

  DeadlineQueue<int>::Entry urgent{4, 0.001, /*deadline=*/0.020};
  EXPECT_EQ(q.Push(urgent, 0.001, &evicted, expired), AdmitResult::kEvicted);
  EXPECT_EQ(evicted.value, 1) << "earliest-queued of the tied waiters";

  // Survivors keep FIFO order: 2, 3, then the admitted 4.
  const auto batch = q.TakeBatch();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].value, 2);
  EXPECT_EQ(batch[1].value, 3);
  EXPECT_EQ(batch[2].value, 4);
}

TEST(DeadlineQueueTest, ShedCountersAreExactAndMonotonic) {
  DeadlineQueue<int> q(/*capacity=*/3, /*max_batch=*/8, 0.010);
  std::vector<DeadlineQueue<int>::Entry> expired;
  DeadlineQueue<int>::Entry evicted;
  EXPECT_EQ(q.EvictedCount(), 0);
  EXPECT_EQ(q.ExpiredCount(), 0);

  // Fill to capacity; admissions never touch the shed counters.
  DeadlineQueue<int>::Entry a{1, 0.0, /*deadline=*/0.100};
  DeadlineQueue<int>::Entry b{2, 0.0, /*deadline=*/0.050};
  DeadlineQueue<int>::Entry c{3, 0.0, /*deadline=*/0.200};
  ASSERT_EQ(q.Push(a, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(b, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(c, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  EXPECT_EQ(q.EvictedCount(), 0);
  EXPECT_EQ(q.ExpiredCount(), 0);

  // A strictly-more-urgent arrival evicts the latest-deadline waiter:
  // exactly one eviction, zero expiries.
  DeadlineQueue<int>::Entry urgent{4, 0.001, /*deadline=*/0.020};
  ASSERT_EQ(q.Push(urgent, 0.001, &evicted, expired), AdmitResult::kEvicted);
  EXPECT_EQ(evicted.value, 3);
  EXPECT_EQ(q.EvictedCount(), 1);
  EXPECT_EQ(q.ExpiredCount(), 0);

  // A no-earlier-deadline arrival is rejected without a shed: the waiter
  // keeps its slot, so neither counter moves.
  DeadlineQueue<int>::Entry tie{5, 0.002, /*deadline=*/0.100};
  ASSERT_EQ(q.Push(tie, 0.002, &evicted, expired), AdmitResult::kRejected);
  EXPECT_EQ(q.EvictedCount(), 1);
  EXPECT_EQ(q.ExpiredCount(), 0);

  // A standalone sweep past two deadlines (0.020 and 0.050) sheds exactly
  // those two; the 0.100 waiter survives.
  expired.clear();
  EXPECT_EQ(q.SweepExpired(0.060, expired), 2);
  EXPECT_EQ(expired.size(), 2u);
  EXPECT_EQ(q.ExpiredCount(), 2);
  EXPECT_EQ(q.EvictedCount(), 1) << "sweeps never count as evictions";
  ASSERT_EQ(q.size(), 1);

  // The full-queue Push path routes its implicit sweep through the same
  // counter: refill, then push at a time past one waiter's deadline.
  DeadlineQueue<int>::Entry d{6, 0.060, /*deadline=*/0.070};
  DeadlineQueue<int>::Entry e{7, 0.060, /*deadline=*/0.300};
  ASSERT_EQ(q.Push(d, 0.060, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(e, 0.060, &evicted, expired), AdmitResult::kAdmitted);
  DeadlineQueue<int>::Entry f{8, 0.080, /*deadline=*/0.250};
  expired.clear();
  ASSERT_EQ(q.Push(f, 0.080, &evicted, expired), AdmitResult::kAdmitted)
      << "the expired waiter's slot is reused";
  EXPECT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].value, 6);
  EXPECT_EQ(q.ExpiredCount(), 3);
  EXPECT_EQ(q.EvictedCount(), 1);

  // Draining is not shedding.
  (void)q.TakeBatch();
  EXPECT_EQ(q.EvictedCount(), 1);
  EXPECT_EQ(q.ExpiredCount(), 3);
}

// --- weighted drain scan ---

TEST(PickReadyQueueTest, UniformWeightsMatchLegacyRotation) {
  const std::vector<double> weights(3, 1.0);
  std::vector<double> credits(3, 0.0);
  const std::vector<bool> ready{true, false, true};

  EXPECT_EQ(PickReadyQueue(ready, weights, credits, /*scan_start=*/0), 0);
  EXPECT_EQ(PickReadyQueue(ready, weights, credits, /*scan_start=*/1), 2);
  EXPECT_EQ(PickReadyQueue(ready, weights, credits, /*scan_start=*/2), 2);
  // The uniform path must not accumulate credit state.
  for (double c : credits) EXPECT_EQ(c, 0.0);

  const std::vector<bool> none(3, false);
  EXPECT_EQ(PickReadyQueue(none, weights, credits, 0), -1);
}

TEST(PickReadyQueueTest, WeightedSharesOverBackloggedQueues) {
  // Two always-ready queues at 3:1 must be drained 3:1 over any window,
  // with the smooth round-robin never letting either starve.
  const std::vector<double> weights{3.0, 1.0};
  std::vector<double> credits(2, 0.0);
  const std::vector<bool> ready{true, true};
  int picks[2] = {0, 0};
  int longest_starve = 0, since_q1 = 0;
  for (int i = 0; i < 400; ++i) {
    const int p = PickReadyQueue(ready, weights, credits, 0);
    ASSERT_TRUE(p == 0 || p == 1);
    ++picks[p];
    since_q1 = p == 1 ? 0 : since_q1 + 1;
    longest_starve = std::max(longest_starve, since_q1);
  }
  EXPECT_EQ(picks[0], 300);
  EXPECT_EQ(picks[1], 100);
  EXPECT_LE(longest_starve, 3) << "smooth WRR interleaves, not bursts";
}

TEST(PickReadyQueueTest, DeterministicInStateAndBreaksTiesByRotation) {
  const std::vector<double> weights{2.0, 1.0, 2.0};
  const std::vector<bool> ready(3, true);
  std::vector<double> a(3, 0.0), b(3, 0.0);
  for (std::size_t start = 0; start < 3; ++start) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(PickReadyQueue(ready, weights, a, start),
                PickReadyQueue(ready, weights, b, start));
    }
    EXPECT_EQ(a, b);
  }
  // Fresh credits, queues 0 and 2 tied at weight 2: the earliest rotation
  // position from scan_start wins the tie.
  std::vector<double> credits(3, 0.0);
  EXPECT_EQ(PickReadyQueue(ready, weights, credits, /*scan_start=*/2), 2);
  credits.assign(3, 0.0);
  EXPECT_EQ(PickReadyQueue(ready, weights, credits, /*scan_start=*/0), 0);
}

// --- server fixture ---

struct ServerFixture {
  Model model = BuildTinyCnn();
  AccelConfig cfg = TestConfig();
  FpgaSpec spec = TestSpec();
  std::vector<LayerMapping> mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);
  ModelWeightsQ weights = SyntheticWeights(model, 7);
  InferenceEngine engine{spec, 1};
};

// --- deterministic trace mode ---

TEST(InferenceServerTraceTest, BatchCompositionIsDeterministic) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 4;
  opts.max_queue_delay_seconds = 0.010;
  opts.mode = ExecMode::kDevicePaced;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  const double dev = server.device_seconds_per_item(h);
  ASSERT_GT(dev, 0);

  const auto inputs = MakeInputs(f.model, 1, 10);
  // Four arrivals in one delay window (size trigger at 4), then two
  // stragglers that only the timeout trigger can dispatch.
  std::vector<InferenceServer::TraceArrival> trace = {
      {0.000, 0}, {0.001, 0}, {0.002, 0}, {0.003, 0},
      {0.100, 0}, {0.101, 0},
  };
  const auto a = server.ServeTrace(h, inputs, trace);
  const auto b = server.ServeTrace(h, inputs, trace);

  ASSERT_EQ(a.batch_sizes, (std::vector<int>{4, 2}));
  ASSERT_EQ(b.batch_sizes, a.batch_sizes) << "composition must be stable";
  ASSERT_EQ(a.items.size(), trace.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].outcome, ServeOutcome::kOk);
    EXPECT_DOUBLE_EQ(a.items[i].total_seconds, b.items[i].total_seconds)
        << "item " << i;
    EXPECT_EQ(a.items[i].batch_seq, b.items[i].batch_seq);
  }
  // First batch dispatches on the size trigger at t=0.003: item 0 waited
  // 3ms and completes after one device quantum.
  EXPECT_DOUBLE_EQ(a.items[0].queue_seconds, 0.003);
  EXPECT_NEAR(a.items[0].service_seconds, dev, 1e-12);
  // Second batch dispatches when the 0.100 arrival's delay elapses.
  EXPECT_DOUBLE_EQ(a.items[4].queue_seconds, opts.max_queue_delay_seconds);
}

TEST(InferenceServerTraceTest, FunctionalTraceBitIdenticalToSequential) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 3;
  opts.max_queue_delay_seconds = 0.005;
  opts.mode = ExecMode::kFunctional;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);

  const auto inputs = MakeInputs(f.model, 5, 60);
  std::vector<InferenceServer::TraceArrival> trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back({0.001 * i, i, kNoDeadline});
  }
  const auto report = server.ServeTrace(h, inputs, trace);

  const Compiler compiler(f.cfg, f.spec);
  const CompiledModel cm = compiler.Compile(f.model, f.mapping);
  Runtime runtime(f.cfg, f.spec);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(report.items[i].outcome, ServeOutcome::kOk) << "item " << i;
    const RunReport seq =
        runtime.Execute(f.model, cm, f.weights, inputs[i]);
    EXPECT_EQ(report.items[i].run.output, seq.output) << "item " << i;
    EXPECT_EQ(report.items[i].run.stats.total_cycles,
              seq.stats.total_cycles)
        << "item " << i;
  }
}

TEST(InferenceServerTraceTest, DeadlinesShedDeterministically) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 2;
  opts.max_queue_delay_seconds = 0.001;
  opts.max_queue_depth = 2;
  opts.mode = ExecMode::kDevicePaced;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  const double dev = server.device_seconds_per_item(h);

  const auto inputs = MakeInputs(f.model, 1, 20);
  // A same-instant burst far beyond one device's capacity (all outcomes
  // below hold for any positive device quantum `dev`): items 0/1 dispatch
  // immediately as a full batch, occupying the drainer until 2*dev. Items
  // 2/3 fill the two-slot queue. Item 4's deadline (1*dev) makes it more
  // urgent than the deadline-less waiters, so it EVICTS the latest-deadline
  // one (item 2 -> kRejected) — but it still cannot start before the
  // drainer frees at 2*dev, so it expires at dispatch. Item 5 (no deadline)
  // finds the queue full of no-later-deadline work -> kRejected.
  std::vector<InferenceServer::TraceArrival> trace = {
      {0.0, 0, kNoDeadline}, {0.0, 0, kNoDeadline},  // batch 0
      {0.0, 0, kNoDeadline}, {0.0, 0, kNoDeadline},  // fill the queue
      {0.0, 0, 1.0 * dev},                           // evicts 2, then expires
      {0.0, 0, kNoDeadline},                         // rejected: queue full
  };
  const auto a = server.ServeTrace(h, inputs, trace);
  const auto b = server.ServeTrace(h, inputs, trace);

  EXPECT_EQ(a.items[0].outcome, ServeOutcome::kOk);
  EXPECT_EQ(a.items[1].outcome, ServeOutcome::kOk);
  EXPECT_EQ(a.items[2].outcome, ServeOutcome::kRejected)
      << "evicted by the strictly-more-urgent item 4";
  EXPECT_EQ(a.items[3].outcome, ServeOutcome::kOk);
  EXPECT_EQ(a.items[4].outcome, ServeOutcome::kExpired)
      << "deadline passed while the first batch held the drainer";
  EXPECT_EQ(a.items[5].outcome, ServeOutcome::kRejected);
  EXPECT_EQ(a.batch_sizes, (std::vector<int>{2, 1}));
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].outcome, b.items[i].outcome) << "item " << i;
  }
  EXPECT_EQ(a.batch_sizes, b.batch_sizes);
}

// --- live serving ---

TEST(InferenceServerTest, LiveFunctionalServingBitIdenticalToSequential) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 4;
  opts.max_queue_delay_seconds = 0.002;
  opts.mode = ExecMode::kFunctional;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);

  const int kRequests = 10;
  const auto inputs = MakeInputs(f.model, kRequests, 300);
  std::vector<std::future<ItemReport>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.Submit(h, inputs[static_cast<std::size_t>(i)]));
  }

  const Compiler compiler(f.cfg, f.spec);
  const CompiledModel cm = compiler.Compile(f.model, f.mapping);
  Runtime runtime(f.cfg, f.spec);
  for (int i = 0; i < kRequests; ++i) {
    ItemReport report = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(report.outcome, ServeOutcome::kOk) << "item " << i;
    EXPECT_GE(report.batch_size, 1);
    EXPECT_GE(report.total_seconds, report.service_seconds);
    const RunReport seq = runtime.Execute(
        f.model, cm, f.weights, inputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(report.run.output, seq.output) << "item " << i;
    EXPECT_EQ(report.run.stats.total_cycles, seq.stats.total_cycles);
  }

  const ServerStats stats = server.stats(h);
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.ok, kRequests);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.expired, 0);
  EXPECT_EQ(stats.batched_items, kRequests);
  EXPECT_GE(stats.batches, 1);
}

TEST(InferenceServerTest, MultiModelServingSharesTheProgramCache) {
  ServerFixture f;
  const Model second = BuildTinyResidualBlock();
  std::vector<LayerMapping> second_mapping =
      UniformMapping(second, ConvMode::kSpatial, Dataflow::kInputStationary);
  const ModelWeightsQ second_weights = SyntheticWeights(second, 21);

  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 2;
  opts.max_queue_delay_seconds = 0.001;
  opts.mode = ExecMode::kFunctional;
  InferenceServer server(f.engine, opts);
  const ModelHandle h1 =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  const ModelHandle h2 =
      server.RegisterModel(second, f.cfg, second_mapping, second_weights);
  ASSERT_NE(h1, h2);
  EXPECT_EQ(f.engine.cache_misses(), 2);

  // Re-registering an identical deployment hits the engine's program cache.
  server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  EXPECT_EQ(f.engine.cache_misses(), 2);
  EXPECT_GE(f.engine.cache_hits(), 1);

  const auto in1 = MakeInputs(f.model, 3, 40);
  const auto in2 = MakeInputs(second, 3, 41);
  std::vector<std::future<ItemReport>> fut1, fut2;
  for (int i = 0; i < 3; ++i) {
    fut1.push_back(server.Submit(h1, in1[static_cast<std::size_t>(i)]));
    fut2.push_back(server.Submit(h2, in2[static_cast<std::size_t>(i)]));
  }

  const Compiler compiler(f.cfg, f.spec);
  const CompiledModel cm1 = compiler.Compile(f.model, f.mapping);
  const CompiledModel cm2 = compiler.Compile(second, second_mapping);
  Runtime runtime(f.cfg, f.spec);
  for (int i = 0; i < 3; ++i) {
    const ItemReport r1 = fut1[static_cast<std::size_t>(i)].get();
    const ItemReport r2 = fut2[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r1.outcome, ServeOutcome::kOk);
    ASSERT_EQ(r2.outcome, ServeOutcome::kOk);
    EXPECT_EQ(r1.run.output,
              runtime
                  .Execute(f.model, cm1, f.weights,
                           in1[static_cast<std::size_t>(i)])
                  .output);
    EXPECT_EQ(r2.run.output,
              runtime
                  .Execute(second, cm2, second_weights,
                           in2[static_cast<std::size_t>(i)])
                  .output);
  }
}

TEST(InferenceServerTest, OverloadShedsInsteadOfQueueingUnboundedly) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 2;
  opts.max_queue_delay_seconds = 0.0;
  opts.max_queue_depth = 4;
  opts.mode = ExecMode::kDevicePaced;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);

  // Flood far past the queue bound in one burst. The bound caps what can
  // ever be in flight; everything else must resolve as shed, not hang.
  const int kRequests = 64;
  const Tensor<std::int16_t> input = MakeInput(f.model.InputOf(0), 5);
  std::vector<std::future<ItemReport>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.Submit(h, input, /*deadline_seconds=*/0.250));
  }
  int ok = 0, shed = 0;
  for (auto& fut : futures) {
    const ItemReport r = fut.get();
    if (r.outcome == ServeOutcome::kOk) {
      ++ok;
    } else {
      ++shed;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0) << "a bounded queue must reject under a burst";
  EXPECT_EQ(ok + shed, kRequests);
  const ServerStats stats = server.stats(h);
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.ok, ok);
  EXPECT_EQ(stats.rejected + stats.expired, shed);
  EXPECT_LE(stats.mean_batch_size(), opts.max_batch);
  EXPECT_GT(stats.shed_rate(), 0.0);
}

TEST(InferenceServerTest, StopDrainsAdmittedRequests) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 16;
  // A long batching window: without the Stop flush these would sit for 10s.
  opts.max_queue_delay_seconds = 10.0;
  opts.mode = ExecMode::kDevicePaced;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);

  const Tensor<std::int16_t> input = MakeInput(f.model.InputOf(0), 5);
  std::vector<std::future<ItemReport>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(server.Submit(h, input));
  server.Stop();
  for (auto& fut : futures) {
    EXPECT_EQ(fut.get().outcome, ServeOutcome::kOk);
  }
  // Post-stop submissions resolve as rejected rather than hanging.
  EXPECT_EQ(server.Submit(h, input).get().outcome, ServeOutcome::kRejected);
}

TEST(InferenceServerTest, StopResolvesEveryOutstandingFuture) {
  // Regression: Stop() must leave no future unresolved, whatever mix of
  // outcomes the drain produces — a dropped promise would deadlock any
  // caller blocked on get(). Deep backlog, a long batching window, and a
  // spread of deadlines (some already hopeless) force the drain through
  // the ok/expired/rejected paths in one pass. There are fewer urgent
  // arrivals (3) than queue slots (4), so even if the worker never wakes
  // before Stop, urgent evictions cannot displace every unconstrained entry
  // and at least one request completes ok whatever the host's timing.
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 4;
  opts.max_queue_delay_seconds = 10.0;
  opts.max_queue_depth = 4;
  opts.mode = ExecMode::kDevicePaced;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  const double dev = server.device_seconds_per_item(h);

  const Tensor<std::int16_t> input = MakeInput(f.model.InputOf(0), 5);
  std::vector<std::future<ItemReport>> futures;
  const int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    // Every fourth request gets a deadline one device quantum out — far
    // too tight once it sits behind the backlog — the rest are
    // unconstrained.
    const double deadline = (i % 4 == 3) ? 1.0 * dev : kNoDeadline;
    futures.push_back(server.Submit(h, input, deadline));
  }
  server.Stop();

  int ok = 0, rejected = 0, expired = 0, failed = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "future " << i << " never resolved after Stop()";
    switch (futures[i].get().outcome) {
      case ServeOutcome::kOk: ++ok; break;
      case ServeOutcome::kRejected: ++rejected; break;
      case ServeOutcome::kExpired: ++expired; break;
      case ServeOutcome::kFailed: ++failed; break;
    }
  }
  EXPECT_EQ(ok + rejected + expired + failed, kRequests);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(failed, 0) << "no faults were injected";
  const ServerStats stats = server.stats(h);
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.ok, ok);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.expired, expired);
  EXPECT_EQ(stats.failed, 0);
  // Stop is idempotent and a second call must not re-resolve anything.
  server.Stop();
}

// --- integrity checking under injected corruption ---

// Arms `fault` on every idle pooled Runtime for `cfg` so the serving
// worker's next checkout is guaranteed to hit a poisoned device.
void ArmIdleRuntimes(RuntimePool& pool, const AccelConfig& cfg,
                     const DramFault& fault) {
  std::vector<RuntimePool::Lease> leases;
  while (pool.idle_count() > 0) leases.push_back(pool.Checkout(cfg));
  ASSERT_FALSE(leases.empty()) << "registration should have pooled a runtime";
  for (auto& lease : leases) {
    ASSERT_TRUE(lease.valid());
    ASSERT_NE(lease->dram(), nullptr)
        << "profiling at registration builds the DRAM model";
    lease->dram()->ArmFault(fault);
  }
  // Leases release here, returning the armed runtimes to the pool.
}

TEST(InferenceServerTest, IntegrityRetryRecoversFromInjectedCorruption) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;
  opts.max_queue_delay_seconds = 0.0;
  opts.mode = ExecMode::kFunctional;
  opts.integrity_check = true;
  opts.max_execute_retries = 1;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);

  // Reference run: golden output plus the per-execute DRAM traffic that
  // positions the fault inside the collection integrity window (see
  // test_fault.cc for the threshold derivation).
  const Compiler compiler(f.cfg, f.spec);
  const CompiledModel cm = compiler.Compile(f.model, f.mapping);
  Runtime ref(f.cfg, f.spec);
  const Tensor<std::int16_t> input = MakeInput(f.model.InputOf(0), 11);
  const RunReport golden = ref.Execute(f.model, cm, f.weights, input);
  const std::int64_t total =
      ref.dram()->words_read() + ref.dram()->words_written();
  const std::int64_t threshold = total - golden.output.elements() + 1;
  ASSERT_GT(threshold, 0);
  const std::int64_t slab_base = cm.output_region(f.model.num_layers() - 1);

  ArmIdleRuntimes(f.engine.runtime_pool(), f.cfg,
                  {threshold, slab_base, 0x0001});

  // The worker's first execute trips the CRC check; one in-place retry
  // (the armed fault is single-shot) serves the clean result.
  const ItemReport report = server.Submit(h, input).get();
  ASSERT_EQ(report.outcome, ServeOutcome::kOk);
  EXPECT_EQ(report.run.output, golden.output);
  const ServerStats stats = server.stats(h);
  EXPECT_EQ(stats.ok, 1);
  EXPECT_EQ(stats.retried, 1);
  EXPECT_EQ(stats.failed, 0);
}

TEST(InferenceServerTest, IntegrityFailureWithoutRetryBudgetFailsClosed) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;
  opts.max_queue_delay_seconds = 0.0;
  opts.mode = ExecMode::kFunctional;
  opts.integrity_check = true;
  opts.max_execute_retries = 0;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);

  const Compiler compiler(f.cfg, f.spec);
  const CompiledModel cm = compiler.Compile(f.model, f.mapping);
  Runtime ref(f.cfg, f.spec);
  const Tensor<std::int16_t> input = MakeInput(f.model.InputOf(0), 11);
  const RunReport golden = ref.Execute(f.model, cm, f.weights, input);
  const std::int64_t total =
      ref.dram()->words_read() + ref.dram()->words_written();
  const std::int64_t threshold = total - golden.output.elements() + 1;
  const std::int64_t slab_base = cm.output_region(f.model.num_layers() - 1);

  ArmIdleRuntimes(f.engine.runtime_pool(), f.cfg,
                  {threshold, slab_base, 0x0001});

  // Zero retry budget: the detected corruption is a terminal kFailed, never
  // a silently-served bad result.
  const ItemReport report = server.Submit(h, input).get();
  EXPECT_EQ(report.outcome, ServeOutcome::kFailed);
  const ServerStats stats = server.stats(h);
  EXPECT_EQ(stats.ok, 0);
  EXPECT_EQ(stats.retried, 0);
  EXPECT_EQ(stats.failed, 1);

  // The pooled runtime is healthy again (the fault was consumed): the next
  // submit of the same input serves the golden output.
  const ItemReport clean = server.Submit(h, input).get();
  ASSERT_EQ(clean.outcome, ServeOutcome::kOk);
  EXPECT_EQ(clean.run.output, golden.output);
}

}  // namespace
}  // namespace hdnn
