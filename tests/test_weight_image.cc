// Pack-once weight images: a WeightImage holds exactly the words
// WriteWeightImages writes to DRAM [0, fmap_base); Runtime::Execute from an
// image is bit-, cycle- and traffic-identical to packing the weights per
// run; the serving layer validates weights at registration and packs one
// image per model, lazily, only when it executes functionally.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "nn/builders.h"
#include "quant/calibration.h"
#include "quant/golden.h"
#include "quant/quant_config.h"
#include "quant/scale_select.h"
#include "runtime/engine.h"
#include "runtime/runtime.h"
#include "runtime/server.h"
#include "tests/testing_util.h"

namespace {
/// Single-shot allocation failure: while non-zero, the next operator new of
/// exactly this many bytes throws std::bad_alloc (and disarms itself).
std::atomic<std::size_t> g_fail_alloc_bytes{0};
}  // namespace

// Replaced global allocation functions, so a test can make one specific
// allocation fail. new/delete stay a matched malloc/free pair (which GCC's
// -Wmismatched-new-delete cannot see through).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  std::size_t armed = n;
  if (g_fail_alloc_bytes.load(std::memory_order_relaxed) == n &&
      g_fail_alloc_bytes.compare_exchange_strong(armed, 0)) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hdnn {
namespace {

using ::hdnn::testing::MakeInput;
using ::hdnn::testing::TestConfig;
using ::hdnn::testing::TestSpec;

std::vector<LayerMapping> Uniform(const Model& m, ConvMode mode) {
  return std::vector<LayerMapping>(
      static_cast<std::size_t>(m.num_layers()),
      LayerMapping{mode, Dataflow::kInputStationary});
}

/// One compiled deployment with matching quantised weights.
struct Deployment {
  std::string name;
  Model model;
  AccelConfig cfg;
  CompiledModel cm;
  ModelWeightsQ weights;
};

Deployment Deploy(std::string name, Model model, const AccelConfig& cfg,
                  const std::vector<LayerMapping>& mapping) {
  CompiledModel cm = Compiler(cfg, TestSpec()).Compile(model, mapping);
  ModelWeightsQ weights = SyntheticWeights(model, 7);
  return {std::move(name), std::move(model), cfg, std::move(cm),
          std::move(weights)};
}

/// Spatial, Winograd PT=4 / PT=6 (with padding channels and a decomposed
/// 5x5 kernel), FC, residual, fused-segment and per-channel-quant models.
std::vector<Deployment> Deployments() {
  std::vector<Deployment> out;
  {
    const Model m = BuildTinyCnn();
    out.push_back(Deploy("spatial", m, TestConfig(4),
                         Uniform(m, ConvMode::kSpatial)));
  }
  {
    const Model m = BuildSingleConv(3, 7, 12, 12, 3);
    out.push_back(Deploy("wino_pt4_padded_channels", m, TestConfig(4),
                         Uniform(m, ConvMode::kWinograd)));
  }
  {
    const Model m = BuildSingleConv(5, 9, 12, 12, 5);
    out.push_back(Deploy("wino_pt6_decomposed_5x5", m, TestConfig(6),
                         Uniform(m, ConvMode::kWinograd)));
  }
  {
    Model m("wino_fc", FmapShape{8, 8, 8});
    ConvLayer c;
    c.name = "c";
    c.in_channels = 8;
    c.out_channels = 8;
    c.relu = true;
    m.Append(c);
    m.AppendFullyConnected("fc", 12, true);
    out.push_back(Deploy("fc", m, TestConfig(4),
                         {{ConvMode::kWinograd, Dataflow::kInputStationary},
                          {ConvMode::kSpatial, Dataflow::kWeightStationary}}));
  }
  {
    const Model m = BuildTinyResidualBlock();
    out.push_back(Deploy("residual", m, TestConfig(4),
                         Uniform(m, ConvMode::kSpatial)));
  }
  {
    Model m("chain", FmapShape{8, 20, 20});
    for (const char* name : {"conv1", "conv2"}) {
      ConvLayer l;
      l.name = name;
      l.in_channels = l.out_channels = 8;
      l.relu = true;
      m.Append(l);
    }
    std::vector<LayerMapping> mapping = Uniform(m, ConvMode::kSpatial);
    mapping[0].fuse_output = true;
    out.push_back(Deploy("fused_segment", m, TestConfig(4), mapping));
  }
  {
    // Per-channel quantisation: weights quantised on per-channel grids
    // (the second weight block on a finer one) and compiled with them.
    const Model m = BuildSingleConv(16, 512, 8, 8, 3, 1, 1, true);
    const AccelConfig cfg = TestConfig();
    ModelWeightsF wf = SyntheticWeightsF(m, 11);
    Tensor<float>& w = wf[0].weights;
    const std::int64_t per_k = w.elements() / w.shape().dim(0);
    for (std::int64_t e = 256 * per_k; e < w.elements(); ++e) {
      w.flat(e) *= 0.05f;
    }
    const std::vector<Tensor<float>> batches = {
        MakeCalibrationInput(m.input(), 40)};
    const CalibrationResult calib = Calibrate(m, wf, batches);
    ScaleOptions options;
    options.per_channel = true;
    const QuantConfig qc = SelectScales(m, cfg, calib, wf, options);
    CompiledModel cm = Compiler(cfg, TestSpec())
                           .Compile(m, Uniform(m, ConvMode::kSpatial), &qc);
    EXPECT_FALSE(cm.plans[0].quan_shift_ch.empty());
    ModelWeightsQ wq = QuantizeParams(m, wf, cm);
    out.push_back({"per_channel_quant", m, cfg, std::move(cm), std::move(wq)});
  }
  return out;
}

void ExpectStatsIdentical(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.ldi_busy, b.ldi_busy);
  EXPECT_EQ(a.ldw_busy, b.ldw_busy);
  EXPECT_EQ(a.comp_busy, b.comp_busy);
  EXPECT_EQ(a.save_busy, b.save_busy);
  EXPECT_EQ(a.port_busy, b.port_busy);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.dram_words_read, b.dram_words_read);
  EXPECT_EQ(a.dram_words_written, b.dram_words_written);
  EXPECT_EQ(a.macs_executed, b.macs_executed);
}

TEST(WeightImageTest, WordsEqualWhatWriteWeightImagesWrites) {
  for (const Deployment& d : Deployments()) {
    SCOPED_TRACE(d.name);
    const WeightImage image(d.cm, d.model, d.weights);
    ASSERT_EQ(static_cast<std::int64_t>(image.words().size()), d.cm.fmap_base);
    ASSERT_GT(d.cm.fmap_base, 0);

    DramModel dram(d.cm.total_dram_words + 1024);
    WriteWeightImages(d.cm, d.model, d.weights, dram);
    // One transaction covering exactly the parameter region.
    EXPECT_EQ(dram.words_written(), d.cm.fmap_base);
    EXPECT_EQ(dram.words_read(), 0);
    const auto written = dram.ViewRun(0, d.cm.fmap_base);
    EXPECT_TRUE(std::equal(written.begin(), written.end(),
                           image.words().begin(), image.words().end()));
    EXPECT_TRUE(std::any_of(written.begin(), written.end(),
                            [](std::int16_t v) { return v != 0; }));
    // Nothing beyond the region is touched.
    const auto rest = dram.ViewRun(d.cm.fmap_base,
                                   dram.size_words() - d.cm.fmap_base);
    EXPECT_TRUE(std::all_of(rest.begin(), rest.end(),
                            [](std::int16_t v) { return v == 0; }));
  }
}

TEST(WeightImageTest, ExecuteFromImageIsBitIdenticalToPacking) {
  for (const Deployment& d : Deployments()) {
    SCOPED_TRACE(d.name);
    const WeightImage image(d.cm, d.model, d.weights);
    Runtime packed(d.cfg, TestSpec());
    Runtime restored(d.cfg, TestSpec());
    // Twice each: the second run exercises Runtime reuse on both paths.
    for (std::uint64_t seed : {11u, 12u}) {
      const Tensor<std::int16_t> input = MakeInput(d.model.InputOf(0), seed);
      const RunReport a = packed.Execute(d.model, d.cm, d.weights, input);
      const RunReport b = restored.Execute(d.model, d.cm, image, input);
      EXPECT_EQ(a.output, b.output);
      ExpectStatsIdentical(a.stats, b.stats);
      EXPECT_EQ(a.layer_cycles, b.layer_cycles);
      EXPECT_EQ(packed.dram()->words_written(),
                restored.dram()->words_written());
      EXPECT_EQ(packed.dram()->words_read(), restored.dram()->words_read());
    }
  }
}

TEST(WeightImageTest, ImageOfAnotherProgramIsRejected) {
  const std::vector<Deployment> ds = Deployments();
  const Deployment& a = ds[0];
  const Deployment& b = ds[1];
  ASSERT_NE(a.cm.fmap_base, b.cm.fmap_base);
  const WeightImage image_b(b.cm, b.model, b.weights);
  EXPECT_FALSE(image_b.PackedFor(a.cm));
  Runtime runtime(a.cfg, TestSpec());
  EXPECT_THROW(runtime.Execute(a.model, a.cm, image_b,
                               MakeInput(a.model.InputOf(0), 3)),
               InvalidArgument);

  // Same-sized region, another layout: the Winograd program `b` with
  // another kernel-transform shift packs different words.
  ASSERT_EQ(b.cm.plans[0].mapping.mode, ConvMode::kWinograd);
  CompiledModel shifted = b.cm;
  shifted.plans[0].u_shift += 1;
  const WeightImage image_shifted(shifted, b.model, b.weights);
  ASSERT_EQ(image_shifted.words().size(), image_b.words().size());
  ASSERT_FALSE(std::ranges::equal(image_shifted.words(), image_b.words()));
  EXPECT_FALSE(image_shifted.PackedFor(b.cm));
  Runtime runtime_b(b.cfg, TestSpec());
  EXPECT_THROW(runtime_b.Execute(b.model, b.cm, image_shifted,
                                 MakeInput(b.model.InputOf(0), 3)),
               InvalidArgument);

  // A copy of the program has the same layout.
  const CompiledModel copy = b.cm;
  EXPECT_TRUE(image_b.PackedFor(copy));
}

TEST(WeightImageTest, MismatchedWeightsAreRejectedBeforePacking) {
  const Deployment d = Deployments()[0];
  ModelWeightsQ fewer = d.weights;
  fewer.pop_back();
  EXPECT_THROW(ValidateModelWeights(d.model, fewer), InvalidArgument);
  EXPECT_THROW(WeightImage(d.cm, d.model, fewer), InvalidArgument);

  ModelWeightsQ no_bias = d.weights;
  no_bias[0].bias = Tensor<std::int32_t>();
  EXPECT_NO_THROW(ValidateModelWeights(d.model, no_bias));
  EXPECT_NO_THROW(WeightImage(d.cm, d.model, no_bias));
}

// --- serving ---

struct ServeFixture {
  Model model = BuildTinyCnn();
  AccelConfig cfg = TestConfig();
  FpgaSpec spec = TestSpec();
  std::vector<LayerMapping> mapping = Uniform(model, ConvMode::kSpatial);
  ModelWeightsQ weights = SyntheticWeights(model, 7);
  InferenceEngine engine{spec, 1};
  CompiledModel cm = Compiler(cfg, spec).Compile(model, mapping);

  Tensor<std::int16_t> Golden(const Tensor<std::int16_t>& input) const {
    Runtime runtime(cfg, spec);
    return runtime.Execute(model, cm, weights, input).output;
  }
};

ServerOptions Options(ExecMode mode, int workers) {
  ServerOptions opts;
  opts.num_workers = workers;
  opts.max_batch = 1;
  opts.max_queue_delay_seconds = 0.0;
  opts.max_queue_depth = 64;
  opts.mode = mode;
  return opts;
}

TEST(ServerWeightImageTest, RacingFirstDispatchesBuildOneImage) {
  ServeFixture f;
  InferenceServer server(f.engine, Options(ExecMode::kFunctional, 4));
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  EXPECT_EQ(server.stats(h).weight_images, 0) << "registration packs nothing";

  const int kRequests = 16;
  std::vector<Tensor<std::int16_t>> inputs;
  std::vector<std::future<ItemReport>> futures;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(MakeInput(f.model.InputOf(0), 100 + i));
  }
  for (const auto& input : inputs) futures.push_back(server.Submit(h, input));
  for (int i = 0; i < kRequests; ++i) {
    const ItemReport r = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.outcome, ServeOutcome::kOk) << "item " << i;
    EXPECT_EQ(r.run.output, f.Golden(inputs[static_cast<std::size_t>(i)]))
        << "item " << i;
  }
  server.Stop();
  const ServerStats stats = server.stats(h);
  EXPECT_EQ(stats.ok, kRequests);
  EXPECT_EQ(stats.weight_images, 1);
}

TEST(ServerWeightImageTest, FunctionalTraceBuildsOneImage) {
  ServeFixture f;
  InferenceServer server(f.engine, Options(ExecMode::kFunctional, 1));
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  const std::vector<Tensor<std::int16_t>> inputs = {
      MakeInput(f.model.InputOf(0), 1), MakeInput(f.model.InputOf(0), 2)};
  const std::vector<InferenceServer::TraceArrival> trace = {
      {0.0, 0}, {0.0, 1}, {1.0, 0}};
  for (int rep = 0; rep < 2; ++rep) {
    const auto out = server.ServeTrace(h, inputs, trace);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(out.items[i].outcome, ServeOutcome::kOk);
      EXPECT_EQ(out.items[i].run.output,
                f.Golden(inputs[static_cast<std::size_t>(
                    trace[i].input_index)]));
    }
  }
  EXPECT_EQ(server.stats(h).weight_images, 1);
}

TEST(ServerWeightImageTest, TimingOnlyAndDevicePacedServersBuildNoImage) {
  for (ExecMode mode : {ExecMode::kTimingOnly, ExecMode::kDevicePaced}) {
    ServeFixture f;
    InferenceServer server(f.engine, Options(mode, 2));
    const ModelHandle h =
        server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
    const Tensor<std::int16_t> input = MakeInput(f.model.InputOf(0), 9);
    std::vector<std::future<ItemReport>> futures;
    for (int i = 0; i < 4; ++i) futures.push_back(server.Submit(h, input));
    for (auto& fut : futures) {
      EXPECT_EQ(fut.get().outcome, ServeOutcome::kOk);
    }
    const std::vector<InferenceServer::TraceArrival> trace = {{0.0, 0}};
    const std::vector<Tensor<std::int16_t>> inputs = {input};
    EXPECT_EQ(server.ServeTrace(h, inputs, trace).items[0].outcome,
              ServeOutcome::kOk);
    server.Stop();
    EXPECT_EQ(server.stats(h).weight_images, 0);
  }
}

TEST(ServerWeightImageTest, RegistrationRejectsMismatchedWeights) {
  ServeFixture f;
  InferenceServer server(f.engine, Options(ExecMode::kFunctional, 1));
  const int last = f.model.num_layers() - 1;

  ModelWeightsQ fewer = f.weights;
  fewer.pop_back();
  EXPECT_THROW(server.RegisterModel(f.model, f.cfg, f.mapping, fewer),
               InvalidArgument);

  ModelWeightsQ wrong_kernel = f.weights;
  const Shape& s = wrong_kernel[0].weights.shape();
  wrong_kernel[0].weights =
      Tensor<std::int8_t>(Shape{s.dim(0), s.dim(1) + 1, s.dim(2), s.dim(3)});
  EXPECT_THROW(server.RegisterModel(f.model, f.cfg, f.mapping, wrong_kernel),
               InvalidArgument);

  ModelWeightsQ long_bias = f.weights;
  long_bias[static_cast<std::size_t>(last)].bias = Tensor<std::int32_t>(
      Shape{f.model.layer(last).out_channels + 1});
  EXPECT_THROW(server.RegisterModel(f.model, f.cfg, f.mapping, long_bias),
               InvalidArgument);

  // The server still serves a correctly registered model.
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  const Tensor<std::int16_t> input = MakeInput(f.model.InputOf(0), 4);
  const ItemReport r = server.Submit(h, input).get();
  ASSERT_EQ(r.outcome, ServeOutcome::kOk);
  EXPECT_EQ(r.run.output, f.Golden(input));
}

TEST(ServerWeightImageTest, PackFailureFailsItsBatchAndTheWorkerLivesOn) {
  ServeFixture f;
  ServerOptions opts = Options(ExecMode::kFunctional, 1);
  opts.max_batch = 3;
  opts.max_queue_delay_seconds = 10.0;  // dispatch on the size trigger only
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  const Tensor<std::int16_t> input = MakeInput(f.model.InputOf(0), 21);
  const std::size_t image_bytes =
      static_cast<std::size_t>(f.cm.fmap_base) * sizeof(std::int16_t);
  ASSERT_NE(image_bytes, static_cast<std::size_t>(input.elements()) *
                             sizeof(std::int16_t));

  // The image's storage allocation fails: every request of the first batch
  // resolves with the exception.
  g_fail_alloc_bytes = image_bytes;
  std::vector<std::future<ItemReport>> failing;
  for (int i = 0; i < opts.max_batch; ++i) {
    failing.push_back(server.Submit(h, input));
  }
  for (auto& fut : failing) EXPECT_THROW(fut.get(), std::bad_alloc);
  EXPECT_EQ(g_fail_alloc_bytes.exchange(0), 0u) << "the failure never fired";
  ServerStats stats = server.stats(h);
  EXPECT_EQ(stats.failed, opts.max_batch);
  EXPECT_EQ(stats.weight_images, 0);

  // The worker keeps serving, and the next dispatch packs the image.
  std::vector<std::future<ItemReport>> served;
  for (int i = 0; i < opts.max_batch; ++i) {
    served.push_back(server.Submit(h, input));
  }
  const Tensor<std::int16_t> golden = f.Golden(input);
  for (auto& fut : served) {
    const ItemReport r = fut.get();
    ASSERT_EQ(r.outcome, ServeOutcome::kOk);
    EXPECT_EQ(r.run.output, golden);
  }
  server.Stop();
  stats = server.stats(h);
  EXPECT_EQ(stats.ok, opts.max_batch);
  EXPECT_EQ(stats.failed, opts.max_batch);
  EXPECT_EQ(stats.weight_images, 1);
  EXPECT_EQ(stats.submitted, stats.ok + stats.rejected + stats.expired +
                                 stats.failed);
}

}  // namespace
}  // namespace hdnn
