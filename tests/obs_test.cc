// Tests for streamworks/obs and its foundations: the generalized
// power-of-two histogram (interpolated quantiles), the JSON writer's
// escaping guarantees, the metric registry's Prometheus exposition, the
// pipeline stage instrumentation + slow-op trace ring, the HTTP request
// parser/handler, and the service-level renderers (/stats.json,
// /queries.json, /healthz).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "streamworks/common/histogram.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/json_writer.h"
#include "streamworks/core/engine.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/obs/epoch_trace.h"
#include "streamworks/obs/http_endpoint.h"
#include "streamworks/obs/json_render.h"
#include "streamworks/obs/metric_registry.h"
#include "streamworks/obs/seqlock_ring.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/service/backend.h"
#include "streamworks/service/query_service.h"
#include "register_kinds.h"

namespace streamworks {
namespace {

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, EmptyQuantilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.Quantile(1.0), 0u);
}

TEST(HistogramTest, SingleSampleAnswersBucketLowerBoundAtEveryQuantile) {
  Histogram h;
  h.Record(100);  // bucket [64, 128)
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 64u) << "q=" << q;
  }
  EXPECT_EQ(h.sum(), 100u);
}

TEST(HistogramTest, ZeroValuesLandInBucketZero) {
  Histogram h;
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.Quantile(1.0), 0u);
}

TEST(HistogramTest, ExtremeQuantilesHitFirstAndLastSample) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.Record(1);          // bucket [1, 1]
  for (int i = 0; i < 50; ++i) h.Record(1u << 20);   // bucket [2^20, 2^21)
  // q=0 is the first sample; q=1 the last. Interpolation must not push
  // q=1 past the top bucket's range nor q=0 below the bottom one.
  EXPECT_EQ(h.Quantile(0.0), 1u);
  EXPECT_GE(h.Quantile(1.0), uint64_t{1} << 20);
  EXPECT_LT(h.Quantile(1.0), uint64_t{1} << 21);
}

TEST(HistogramTest, MergeOfDisjointRangesKeepsBothTails) {
  Histogram low;
  for (int i = 0; i < 90; ++i) low.Record(3);
  Histogram high;
  for (int i = 0; i < 10; ++i) high.Record(1u << 16);
  low.Merge(high);
  EXPECT_EQ(low.total_count(), 100u);
  EXPECT_EQ(low.sum(), 90u * 3 + 10u * (1u << 16));
  EXPECT_LT(low.Quantile(0.5), 4u);
  EXPECT_GE(low.Quantile(0.95), uint64_t{1} << 16);
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  // Federation merges worker histograms in whatever order reports arrive;
  // the merged digest must not depend on that order or grouping.
  Histogram a, b, c;
  for (int i = 0; i < 11; ++i) a.Record(3);
  for (int i = 0; i < 7; ++i) b.Record(900);
  b.Record(0);
  for (int i = 0; i < 29; ++i) c.Record(1u << 18);
  Histogram left = a;   // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  Histogram right = c;  // (c + b) + a
  right.Merge(b);
  right.Merge(a);
  EXPECT_EQ(left.total_count(), right.total_count());
  EXPECT_EQ(left.sum(), right.sum());
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(left.bucket_count(i), right.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(left.Quantile(0.5), right.Quantile(0.5));
  EXPECT_EQ(left.Quantile(0.99), right.Quantile(0.99));
}

TEST(HistogramTest, QuantileIsMonotonicInQ) {
  Histogram h;
  // Spread across several buckets with uneven counts so interpolation
  // does real work.
  for (int i = 0; i < 7; ++i) h.Record(10);
  for (int i = 0; i < 23; ++i) h.Record(100);
  for (int i = 0; i < 5; ++i) h.Record(5000);
  for (int i = 0; i < 65; ++i) h.Record(70000);
  uint64_t prev = 0;
  for (int step = 0; step <= 100; ++step) {
    const uint64_t v = h.Quantile(static_cast<double>(step) / 100.0);
    EXPECT_GE(v, prev) << "q=" << step / 100.0;
    prev = v;
  }
}

TEST(HistogramTest, InterpolationStaysInsideTheBucket) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(100);  // all in [64, 127]
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const uint64_t v = h.Quantile(q);
    EXPECT_GE(v, 64u) << "q=" << q;
    EXPECT_LE(v, 127u) << "q=" << q;
  }
  // Uniform-spread assumption: the median of a full bucket sits near the
  // middle, not pinned to either bound (the pre-fix behavior answered the
  // upper bound for every q).
  EXPECT_GT(h.Quantile(0.5), 64u);
  EXPECT_LT(h.Quantile(0.5), 127u);
}

TEST(HistogramTest, FromBucketsRoundTripsAtomicSnapshot) {
  AtomicHistogram a;
  a.Record(0);
  a.Record(7);
  a.Record(4096);
  const Histogram h = a.Snapshot();
  EXPECT_EQ(h.total_count(), 3u);
  EXPECT_EQ(h.sum(), 0u + 7u + 4096u);
  EXPECT_EQ(h.bucket_count(0), 1u);
}

// --- JsonWriter ------------------------------------------------------------

TEST(JsonWriterTest, EscapesControlCharactersAndQuotes) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String(std::string("a\"b\\c\n\t\r\b\f") + '\x01' + "z");
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\\t\\r\\b\\f\\u0001z\"}");
}

TEST(JsonWriterTest, Utf8PassesThroughUntouched) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("héllo → wörld ✓");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"name\":\"héllo → wörld ✓\"}");
}

TEST(JsonWriterTest, HugeUint64IsLossless) {
  JsonWriter w;
  w.BeginObject();
  w.Key("v");
  w.Uint(18446744073709551615ull);  // 2^64 - 1: a double would mangle it
  w.Key("neg");
  w.Int(-42);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"v\":18446744073709551615,\"neg\":-42}");
}

TEST(JsonWriterTest, CommasNestingAndSpecialDoubles) {
  JsonWriter w;
  w.BeginObject();
  w.Key("arr");
  w.BeginArray();
  w.Uint(1);
  w.BeginObject();
  w.Key("b");
  w.Bool(true);
  w.EndObject();
  w.Null();
  w.EndArray();
  w.Key("nan");
  w.Double(0.0 / 0.0);  // non-finite renders as null
  w.Key("half");
  w.Double(0.5);
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"arr\":[1,{\"b\":true},null],\"nan\":null,\"half\":0.5}");
}

// --- MetricRegistry / Prometheus exposition --------------------------------

TEST(MetricRegistryTest, RendersCounterGaugeAndLabels) {
  MetricRegistry registry;
  MetricCounter* c = registry.RegisterCounter(
      "sw_test_total", "A test counter.", {{"kind", "a\"b\\c\nd"}});
  MetricGauge* g = registry.RegisterGauge("sw_test_gauge", "A test gauge.");
  c->Increment(41);
  c->Increment();
  g->Set(2.5);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP sw_test_total A test counter.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sw_test_total counter\n"), std::string::npos);
  // Label value escaping: backslash, quote, newline.
  EXPECT_NE(text.find("sw_test_total{kind=\"a\\\"b\\\\c\\nd\"} 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sw_test_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("sw_test_gauge 2.5\n"), std::string::npos);
}

TEST(MetricRegistryTest, HistogramExpositionIsCumulativeWithSumAndCount) {
  MetricRegistry registry;
  AtomicHistogram* h =
      registry.RegisterHistogram("sw_lat_us", "Latency.", {{"op", "x"}});
  h->Record(1);    // bucket [1,1], le=1
  h->Record(100);  // bucket [64,127], le=127
  h->Record(100);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE sw_lat_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("sw_lat_us_bucket{op=\"x\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sw_lat_us_bucket{op=\"x\",le=\"127\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sw_lat_us_bucket{op=\"x\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sw_lat_us_sum{op=\"x\"} 201\n"), std::string::npos);
  EXPECT_NE(text.find("sw_lat_us_count{op=\"x\"} 3\n"), std::string::npos);
}

TEST(MetricRegistryTest, CollectorsContributeAndRemoveCleanly) {
  MetricRegistry registry;
  const int token = registry.AddCollector([](MetricSnapshotBuilder* out) {
    out->EmitCounter("sw_collected_total", "From a collector.", {}, 7);
  });
  EXPECT_NE(registry.RenderPrometheus().find("sw_collected_total 7\n"),
            std::string::npos);
  registry.RemoveCollector(token);
  EXPECT_EQ(registry.RenderPrometheus().find("sw_collected_total"),
            std::string::npos);
}

TEST(MetricRegistryTest, SameNameSamplesShareOneFamilyHeader) {
  MetricRegistry registry;
  MetricSnapshotBuilder builder;
  builder.EmitCounter("sw_multi_total", "Multi.", {{"k", "a"}}, 1);
  builder.EmitCounter("sw_multi_total", "Multi.", {{"k", "b"}}, 2);
  const std::string text = builder.RenderPrometheus();
  size_t first = text.find("# TYPE sw_multi_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE sw_multi_total", first + 1), std::string::npos);
  EXPECT_NE(text.find("sw_multi_total{k=\"a\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("sw_multi_total{k=\"b\"} 2\n"), std::string::npos);
}

TEST(MetricRegistryTest, ReEmittingSameSeriesMergesAdditively) {
  // The federation mechanism: coordinator series and every worker report
  // land in one builder; identical (name, labels) keys must fold into a
  // single cluster-wide series.
  MetricSnapshotBuilder builder;
  builder.EmitCounter("sw_fed_total", "Fed.", {{"role", "worker"}}, 10);
  builder.EmitCounter("sw_fed_total", "Fed.", {{"role", "worker"}}, 32);
  builder.EmitGauge("sw_fed_gauge", "Fed gauge.", {}, 1.5);
  builder.EmitGauge("sw_fed_gauge", "Fed gauge.", {}, 2.25);
  Histogram h1;
  h1.Record(1);
  Histogram h2;
  h2.Record(100);
  h2.Record(100);
  builder.EmitHistogram("sw_fed_us", "Fed hist.", {}, h1);
  builder.EmitHistogram("sw_fed_us", "Fed hist.", {}, h2);
  const std::string text = builder.RenderPrometheus();
  EXPECT_NE(text.find("sw_fed_total{role=\"worker\"} 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("sw_fed_gauge 3.75\n"), std::string::npos);
  EXPECT_NE(text.find("sw_fed_us_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("sw_fed_us_sum 201\n"), std::string::npos);
  // Different labels stay distinct series.
  builder.EmitCounter("sw_fed_total", "Fed.", {{"role", "coord"}}, 1);
  EXPECT_NE(builder.RenderPrometheus().find("sw_fed_total{role=\"coord\"} 1\n"),
            std::string::npos);
}

TEST(MetricRegistryTest, ExportSamplesRoundTripsThroughEmitSample) {
  // A worker exports its registry as samples, ships them over the wire,
  // and the coordinator re-emits them sample by sample: the rendered
  // exposition must match a direct local render.
  MetricRegistry registry;
  registry.RegisterCounter("sw_rt_total", "RT.", {{"role", "worker"}})
      ->Increment(9);
  registry.RegisterGauge("sw_rt_gauge", "RT gauge.")->Set(-0.5);
  registry.RegisterHistogram("sw_rt_us", "RT hist.")->Record(77);
  const std::vector<MetricSample> samples = registry.ExportSamples();
  MetricSnapshotBuilder rebuilt;
  for (const MetricSample& s : samples) rebuilt.EmitSample(s);
  EXPECT_EQ(rebuilt.RenderPrometheus(), registry.RenderPrometheus());
}

// --- PipelineMetrics / SeqlockRing -----------------------------------------

TEST(PipelineMetricsTest, RecordsHistogramsAndOnlySlowOpsEnterTheRing) {
  PipelineMetrics pm(/*slow_threshold_us=*/1000, /*trace_capacity=*/8);
  pm.Record(PipelineStage::kEngineApply, 10);
  pm.Record(PipelineStage::kEngineApply, 2000, /*session_id=*/3,
            /*subscription_id=*/4, /*detail=*/512);
  const Histogram h =
      pm.stage_histogram(PipelineStage::kEngineApply).Snapshot();
  EXPECT_EQ(h.total_count(), 2u);
  EXPECT_EQ(pm.slow_ops_recorded(), 1u);
  const std::vector<TraceEntry> trace = pm.TraceSnapshot();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].stage, PipelineStage::kEngineApply);
  EXPECT_EQ(trace[0].session_id, 3);
  EXPECT_EQ(trace[0].subscription_id, 4);
  EXPECT_EQ(trace[0].duration_us, 2000u);
  EXPECT_EQ(trace[0].detail, 512u);
}

// The ring cases below run over both entry types a SeqlockRing carries:
// slow-op traces (TraceRingTest.*) and cluster epochs (EpochTraceRingTest.*).

/// Slow-op trace entries. Numbered(i) derives every field from i, so an
/// entry agrees with the numbering of its duration iff it is untorn.
struct TraceEntries {
  static constexpr const char* kSuite = "TraceRingTest";
  using Entry = TraceEntry;

  static TraceEntry Numbered(uint64_t i) {
    TraceEntry e;
    e.stage = static_cast<PipelineStage>(i % kNumPipelineStages);
    e.session_id = static_cast<int32_t>(i % 5) - 1;  // -1 included
    e.subscription_id = static_cast<int32_t>(i % 3) - 1;
    e.duration_us = i;
    e.detail = i * 2;
    e.at_us = i * 3;
    return e;
  }
  static uint64_t Number(const TraceEntry& e) { return e.duration_us; }
  /// Entries exercising every field's extremes, -1 ids included.
  static std::vector<TraceEntry> Extremes() {
    return {TraceEntry{PipelineStage::kBarrierWait, -1, -1, UINT64_MAX, 7,
                       1},
            TraceEntry{PipelineStage::kFrameDecode, INT32_MAX, -1, 0,
                       UINT64_MAX, 2},
            TraceEntry{PipelineStage::kEnqueue, -1, INT32_MIN, 5, 0,
                       UINT64_MAX},
            TraceEntry{PipelineStage::kSjTreeJoin, INT32_MIN, INT32_MAX, 9, 8,
                       0}};
  }
};

/// Cluster epoch timeline entries, numbered by epoch id.
struct EpochEntries {
  static constexpr const char* kSuite = "EpochTraceRingTest";
  using Entry = EpochTraceEntry;

  static EpochTraceEntry Numbered(uint64_t i) {
    EpochTraceEntry e;
    e.epoch = i;
    e.edges = i * 100;
    e.relay_rounds = i * 2;
    e.relayed_items = i * 3;
    e.batch_us = i;
    e.apply_us = i * 4;
    e.relay_us = i * 5;
    e.barrier_us = i * 6;
    e.commit_us = i * 8;
    e.total_us = i * 7;
    e.at_us = i * 9;
    return e;
  }
  static uint64_t Number(const EpochTraceEntry& e) { return e.epoch; }
  static std::vector<EpochTraceEntry> Extremes() {
    // Eleven distinct values, so a field packed into the wrong word shows.
    return {EpochTraceEntry{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, UINT64_MAX},
            EpochTraceEntry{UINT64_MAX, 0, 11, 12, 13, 14, 15, 16, 17, 18,
                            19}};
  }
};

template <typename Kind>
class WrapsKeepingTheNewestEntriesOldestFirst : public ::testing::Test {
  void TestBody() override {
    SeqlockRing<typename Kind::Entry> ring(4);
    for (uint64_t i = 1; i <= 10; ++i) ring.Push(Kind::Numbered(i));
    EXPECT_EQ(ring.total_pushed(), 10u);
    const auto got = ring.Snapshot();
    ASSERT_EQ(got.size(), 4u);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], Kind::Numbered(7 + i));  // 7, 8, 9, 10
    }
  }
};

template <typename Kind>
class ConcurrentWritersNeverProduceTornEntries : public ::testing::Test {
  void TestBody() override {
    SeqlockRing<typename Kind::Entry> ring(16);
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&ring, t] {
        for (uint64_t i = 0; i < kPerThread; ++i) {
          ring.Push(Kind::Numbered(t * kPerThread + i));
        }
      });
    }
    // Read while the writers run, as an HTTP scrape does.
    for (int pass = 0; pass < 50; ++pass) {
      for (const auto& e : ring.Snapshot()) {
        EXPECT_EQ(e, Kind::Numbered(Kind::Number(e)));
      }
    }
    for (auto& th : threads) th.join();
    for (const auto& e : ring.Snapshot()) {
      EXPECT_EQ(e, Kind::Numbered(Kind::Number(e)));
    }
    EXPECT_EQ(ring.total_pushed(), kThreads * kPerThread);
  }
};

template <typename Kind>
class RoundTripsEveryField : public ::testing::Test {
  void TestBody() override {
    const std::vector<typename Kind::Entry> entries = Kind::Extremes();
    SeqlockRing<typename Kind::Entry> ring(entries.size());
    for (const auto& e : entries) ring.Push(e);
    EXPECT_EQ(ring.Snapshot(), entries);
  }
};

template <template <typename> class Case>
bool RegisterRingCase(const char* name) {
  return RegisterForKinds<Case, TraceEntries, EpochEntries>(name);
}

[[maybe_unused]] const bool kRingCasesRegistered =
    RegisterRingCase<WrapsKeepingTheNewestEntriesOldestFirst>(
        "WrapsKeepingTheNewestEntriesOldestFirst") &&
    RegisterRingCase<ConcurrentWritersNeverProduceTornEntries>(
        "ConcurrentWritersNeverProduceTornEntries") &&
    RegisterRingCase<RoundTripsEveryField>("RoundTripsEveryField");

TEST(PipelineMetricsTest, StageNamesAreStableSnakeCase) {
  EXPECT_EQ(PipelineStageName(PipelineStage::kFrameDecode), "frame_decode");
  EXPECT_EQ(PipelineStageName(PipelineStage::kAdmission), "admission");
  EXPECT_EQ(PipelineStageName(PipelineStage::kEngineApply), "engine_apply");
  EXPECT_EQ(PipelineStageName(PipelineStage::kSjTreeJoin), "sjtree_join");
  EXPECT_EQ(PipelineStageName(PipelineStage::kExchangeForward),
            "exchange_forward");
  EXPECT_EQ(PipelineStageName(PipelineStage::kEnqueue), "enqueue");
  EXPECT_EQ(PipelineStageName(PipelineStage::kDeliveryFlush),
            "delivery_flush");
}

// --- HTTP parsing / routing ------------------------------------------------

TEST(HttpParseTest, ParsesCrlfAndBareLfRequests) {
  HttpRequest req;
  size_t consumed = 0;
  const std::string crlf =
      "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\nleftover";
  EXPECT_EQ(ParseHttpRequest(crlf, &req, &consumed),
            HttpParseResult::kComplete);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/metrics");
  EXPECT_EQ(crlf.substr(consumed), "leftover");

  const std::string lf = "GET /healthz HTTP/1.0\n\n";
  EXPECT_EQ(ParseHttpRequest(lf, &req, &consumed),
            HttpParseResult::kComplete);
  EXPECT_EQ(req.target, "/healthz");
  EXPECT_EQ(consumed, lf.size());
}

TEST(HttpParseTest, IncompleteHeadNeedsMore) {
  HttpRequest req;
  size_t consumed = 0;
  EXPECT_EQ(ParseHttpRequest("GET /met", &req, &consumed),
            HttpParseResult::kNeedMore);
  EXPECT_EQ(ParseHttpRequest("GET /metrics HTTP/1.1\r\nHost: x\r\n", &req,
                             &consumed),
            HttpParseResult::kNeedMore);
}

TEST(HttpParseTest, MalformedRequestLinesAreBad) {
  HttpRequest req;
  size_t consumed = 0;
  for (const std::string bad :
       {"FEED 1 2 ping 3\r\n\r\n",        // line protocol on the HTTP port
        "GET/metrics HTTP/1.1\r\n\r\n",   // missing separator
        "GET metrics HTTP/1.1\r\n\r\n",   // target without leading slash
        "\r\n\r\n"}) {                    // empty request line
    EXPECT_EQ(ParseHttpRequest(bad, &req, &consumed), HttpParseResult::kBad)
        << bad;
  }
}

TEST(HttpEndpointTest, EncodeIncludesLengthAndClose) {
  HttpResponse r;
  r.body = "hello\n";
  const std::string wire = EncodeHttpResponse(r);
  EXPECT_EQ(wire.substr(0, 17), "HTTP/1.1 200 OK\r\n");
  EXPECT_NE(wire.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 10), "\r\n\r\nhello\n");
}

TEST(HttpEndpointTest, RoutesMetricsStatsHealthAnd404s) {
  MetricRegistry registry;
  registry.RegisterCounter("sw_route_total", "Routing test.")->Increment(5);
  PipelineMetrics pipeline;
  HttpHandler::Providers providers;
  providers.registry = &registry;
  providers.pipeline = &pipeline;
  providers.stats = [] {
    ServiceStatsSnapshot snap;
    snap.edges_fed = 123;
    return snap;
  };
  providers.queries = [] { return std::vector<QueryObsSnapshot>{}; };
  HttpHandler handler(providers);

  HttpResponse r = handler.Handle({"GET", "/metrics"});
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(r.body.find("sw_route_total 5\n"), std::string::npos);

  r = handler.Handle({"GET", "/stats.json"});
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/json");
  EXPECT_NE(r.body.find("\"edges_fed\":123"), std::string::npos);

  r = handler.Handle({"GET", "/healthz"});
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"status\":\"ok\""), std::string::npos);

  r = handler.Handle({"GET", "/trace.json"});
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"slow_threshold_us\""), std::string::npos);

  // Query parameters are ignored for routing.
  EXPECT_EQ(handler.Handle({"GET", "/shards.json?pretty=1"}).status, 200);

  EXPECT_EQ(handler.Handle({"GET", "/nope"}).status, 404);
  EXPECT_EQ(handler.Handle({"POST", "/metrics"}).status, 405);
}

TEST(HttpEndpointTest, UnwiredProvidersAnswer503) {
  HttpHandler handler(HttpHandler::Providers{});
  EXPECT_EQ(handler.Handle({"GET", "/metrics"}).status, 503);
  EXPECT_EQ(handler.Handle({"GET", "/stats.json"}).status, 503);
  EXPECT_EQ(handler.Handle({"GET", "/trace.json"}).status, 503);
}

// --- Service renderers over a live service ---------------------------------

QueryGraph OnePingQuery(Interner* interner) {
  QueryGraphBuilder b(interner);
  const auto a = b.AddVertex("V");
  const auto c = b.AddVertex("V");
  b.AddEdge(a, c, "ping");
  auto built = b.Build("ping_q");
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return *built;
}

StreamEdge PingEdge(Interner* interner, uint64_t src, uint64_t dst,
                    Timestamp ts) {
  StreamEdge e;
  e.src = src;
  e.dst = dst;
  e.src_label = interner->Intern("V");
  e.dst_label = interner->Intern("V");
  e.edge_label = interner->Intern("ping");
  e.ts = ts;
  return e;
}

TEST(ObsServiceTest, MetricsAndJsonAgreeWithServiceCounters) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  SingleEngineBackend backend(&engine);
  QueryService service(&backend);
  PipelineMetrics pipeline;
  service.set_pipeline_metrics(&pipeline);

  MetricRegistry registry;
  RegisterServiceCollector(&registry,
                           [&service] { return service.Snapshot(); });
  RegisterPipelineCollector(&registry, &pipeline);

  auto session = service.OpenSession("tenant");
  ASSERT_TRUE(session.ok());
  auto sub = service.Submit(*session, OnePingQuery(&interner), {});
  ASSERT_TRUE(sub.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.Feed(PingEdge(&interner, 1, 2, i)).ok());
  }
  service.Flush();

  const ServiceStatsSnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.edges_fed, 5u);
  EXPECT_EQ(snap.matches_enqueued, 5u);

  const std::string prom = registry.RenderPrometheus();
  EXPECT_NE(prom.find("streamworks_edges_fed_total 5\n"), std::string::npos);
  EXPECT_NE(prom.find("streamworks_matches_total{event=\"enqueued\"} 5\n"),
            std::string::npos);
  // Stage histograms observed the feeds (admission + engine apply).
  EXPECT_NE(
      prom.find("streamworks_stage_duration_us_count{stage=\"admission\"} 5"),
      std::string::npos);
  EXPECT_NE(prom.find(
                "streamworks_stage_duration_us_count{stage=\"engine_apply\"} "
                "5"),
            std::string::npos);

  const std::string stats_json = RenderStatsJson(snap);
  EXPECT_NE(stats_json.find("\"edges_fed\":5"), std::string::npos);
  EXPECT_NE(stats_json.find("\"query_name\":\"ping_q\""), std::string::npos);

  // /queries.json: the single-node SJ-Tree of the one-edge query inserted
  // five matches at its leaf.
  const std::vector<QueryObsSnapshot> queries = service.QueryInfos();
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_EQ(queries[0].query_name, "ping_q");
  ASSERT_FALSE(queries[0].info.nodes.empty());
  EXPECT_EQ(queries[0].info.nodes[0].matches_inserted, 5u);
  const std::string queries_json = RenderQueriesJson(queries);
  EXPECT_NE(queries_json.find("\"matches_inserted\":5"), std::string::npos);

  const std::string health = RenderHealthJson(snap, /*uptime_us=*/42);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"edges_fed\":5"), std::string::npos);
}

TEST(ObsServiceTest, SnapshotExportsMergedDeliveryLagHistogram) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  SingleEngineBackend backend(&engine);
  QueryService service(&backend);
  auto session = service.OpenSession("t");
  ASSERT_TRUE(session.ok());
  auto sub = service.Submit(*session, OnePingQuery(&interner), {});
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(service.Feed(PingEdge(&interner, 1, 2, 1)).ok());
  service.Flush();
  // Popping the match records one delivery-lag sample.
  ResultQueue* queue = service.queue(*session, *sub);
  ASSERT_NE(queue, nullptr);
  CompleteMatch cm;
  ASSERT_TRUE(queue->TryPop(&cm));
  const ServiceStatsSnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.delivery_lag.total_count(), 1u);
}

}  // namespace
}  // namespace streamworks
