#include "streamworks/stream/cluster_wire.h"

#include <algorithm>
#include <array>
#include <bit>

#include "streamworks/common/logging.h"
#include "streamworks/common/str_util.h"
#include "streamworks/graph/edge_record.h"
#include "streamworks/persist/crc32.h"

namespace streamworks {

namespace {

// --- Encode helpers ----------------------------------------------------------

/// Starts a control frame: the shared frame header, then the type byte.
std::string StartFrame(CtrlType type) {
  std::string frame = BeginFrame(kCtrlFrameMagic);
  frame.push_back(static_cast<char>(type));
  return frame;
}

/// Seals a control frame. Control bodies stay far below the u32 length
/// prefix (a peer refuses anything past kDefaultMaxFrameBodyBytes), so
/// sealing one cannot fail.
std::string FinishFrame(std::string frame) {
  const Status sealed = EndFrame(&frame);
  SW_CHECK(sealed.ok()) << sealed.ToString();
  return frame;
}

/// A frame whose payload opens with a label table: `rest` was written
/// first, filling `table`, and follows the table.
StatusOr<std::string> LabeledFrame(CtrlType type, const LabelTableWriter& table,
                                   const LabelNameFn& label_name,
                                   std::string_view rest) {
  std::string frame = StartFrame(type);
  SW_RETURN_IF_ERROR(table.Write(&frame, label_name));
  frame.append(rest);
  return FinishFrame(std::move(frame));
}

void EncodeWireMatch(std::string* out, const WireMatch& match,
                     LabelTableWriter* table) {
  out->push_back(static_cast<char>(match.vertices.size()));
  for (const WireVertexBinding& v : match.vertices) {
    out->push_back(static_cast<char>(v.qv));
    PutU64(out, v.vertex);
    PutU32(out, table->IndexOf(v.label));
  }
  out->push_back(static_cast<char>(match.edges.size()));
  for (const WireEdgeBinding& e : match.edges) {
    out->push_back(static_cast<char>(e.qe));
    PutU64(out, e.edge);
    PutI64(out, e.ts);
  }
}

// --- Decode helpers ----------------------------------------------------------

WireMatch DecodeWireMatch(WireReader* r, const std::vector<LabelId>& table) {
  WireMatch match;
  const uint8_t nv = r->U8("match vertex count");
  if (nv > kMaxQuerySize) {
    r->Fail("match vertex count exceeds the query-size bound");
    return match;
  }
  match.vertices.reserve(nv);
  for (uint8_t i = 0; i < nv && r->ok(); ++i) {
    WireVertexBinding v;
    v.qv = r->U8("vertex binding qv");
    v.vertex = r->U64("vertex binding external id");
    v.label = TableLabel(r, table, r->U32("vertex binding label"));
    if (v.qv >= kMaxQuerySize) r->Fail("vertex binding qv out of range");
    match.vertices.push_back(v);
  }
  const uint8_t ne = r->U8("match edge count");
  if (ne > kMaxQuerySize) {
    r->Fail("match edge count exceeds the query-size bound");
    return match;
  }
  match.edges.reserve(ne);
  for (uint8_t i = 0; i < ne && r->ok(); ++i) {
    WireEdgeBinding e;
    e.qe = r->U8("edge binding qe");
    e.edge = r->U64("edge binding id");
    e.ts = r->I64("edge binding ts");
    if (e.qe >= kMaxQuerySize) r->Fail("edge binding qe out of range");
    match.edges.push_back(e);
  }
  return match;
}

/// A Batch edge: global id u64, the shared edge record, anchor bit u8.
constexpr size_t kBatchRecordBytes = 8 + kEdgeRecordBytes + 1;

/// The Completion frame's type up to protocol version 2. Completions now
/// ride Exchange frames, and the number is refused like any unknown type.
constexpr uint8_t kRetiredCompletionType = 12;

void DecodeBody(WireReader* r, Interner* interner, CtrlFrame* frame) {
  switch (frame->type) {
    case CtrlType::kHello: {
      CtrlHello& h = frame->hello;
      h.protocol = r->U32("hello protocol");
      h.num_shards = r->I32("hello num_shards");
      h.shard_index = r->I32("hello shard_index");
      h.partitioner_seed = r->U64("hello seed");
      h.exchange_items_received = r->U64("hello exchange cursor");
      break;
    }
    case CtrlType::kHelloAck:
      frame->hello_ack.applied_frames = r->U64("hello-ack applied");
      frame->hello_ack.error = r->String("hello-ack error");
      break;
    case CtrlType::kRegister: {
      CtrlRegister& reg = frame->reg;
      reg.expect_id = r->I32("register id");
      reg.strategy = r->U8("register strategy");
      reg.window = r->I64("register window");
      reg.name = r->String("register name");
      const uint8_t nv = r->U8("register vertex count");
      const uint8_t ne = r->U8("register edge count");
      if (nv > kMaxQuerySize || ne > kMaxQuerySize) {
        r->Fail("register query exceeds the query-size bound");
        return;
      }
      reg.vertex_labels.reserve(nv);
      for (uint8_t i = 0; i < nv && r->ok(); ++i) {
        reg.vertex_labels.push_back(r->String("register vertex label"));
      }
      reg.edges.reserve(ne);
      for (uint8_t i = 0; i < ne && r->ok(); ++i) {
        CtrlQueryEdge e;
        e.src = r->U8("register edge src");
        e.dst = r->U8("register edge dst");
        e.label = r->String("register edge label");
        if (e.src >= nv || e.dst >= nv) {
          r->Fail("register edge endpoint out of range");
          return;
        }
        reg.edges.push_back(std::move(e));
      }
      break;
    }
    case CtrlType::kRegisterAck: {
      frame->register_ack.id = r->I32("register-ack id");
      frame->register_ack.ok = r->U8("register-ack ok") != 0;
      frame->register_ack.error = r->String("register-ack error");
      break;
    }
    case CtrlType::kEndBackfill:
      break;
    case CtrlType::kUnregister:
      frame->unregister.query_id = r->I32("unregister id");
      break;
    case CtrlType::kBatch: {
      const std::vector<LabelId> table = ReadLabelTable(r, interner);
      const uint32_t n = r->U32("batch edge count");
      const std::string_view records =
          r->Records(n, kBatchRecordBytes, "batch edge");
      if (!r->ok()) return;
      frame->batch.edges.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        const char* p = records.data() + i * kBatchRecordBytes;
        CtrlShardEdge& se = frame->batch.edges[i];
        se.global_id = GetU64(p);
        if (!GetEdgeRecord(p + 8, table, &se.edge)) {
          r->Fail("label index out of string-table range");
          return;
        }
        se.run_anchors = p[8 + kEdgeRecordBytes] != 0;
      }
      break;
    }
    case CtrlType::kExchange: {
      const std::vector<LabelId> table = ReadLabelTable(r, interner);
      const uint32_t n = r->U32("exchange item count");
      // An item costs at least its fixed header.
      constexpr size_t kMinItemBytes = 4 + 1 + 4 + 4 + 4 + 4 + 1 + 1;
      if (!r->Fits(n, kMinItemBytes, "exchange item")) return;
      frame->exchange.items.reserve(n);
      for (uint32_t i = 0; i < n && r->ok(); ++i) {
        CtrlExchangeItem ci;
        ci.dest = r->I32("exchange dest");
        const uint8_t kind = r->U8("exchange kind");
        if (kind > static_cast<uint8_t>(ExchangeKind::kComplete)) {
          r->Fail("exchange kind out of range");
          return;
        }
        ci.item.kind = static_cast<ExchangeKind>(kind);
        ci.item.query_id = r->I32("exchange query id");
        ci.item.plan = r->U32("exchange plan");
        ci.item.step = r->I32("exchange step");
        ci.item.node = r->I32("exchange node");
        ci.item.match = DecodeWireMatch(r, table);
        frame->exchange.items.push_back(std::move(ci));
      }
      break;
    }
    case CtrlType::kBarrier:
      frame->barrier.round = r->U32("barrier round");
      break;
    case CtrlType::kBarrierAck:
      frame->barrier_ack.round = r->U32("barrier-ack round");
      frame->barrier_ack.applied_frames = r->U64("barrier-ack applied");
      break;
    case CtrlType::kCommit:
      frame->commit.watermark = r->I64("commit watermark");
      break;
    case CtrlType::kInfo:
      frame->info.query_id = r->I32("info query id");
      break;
    case CtrlType::kInfoAck: {
      CtrlInfoAck& ack = frame->info_ack;
      ack.ok = r->U8("info-ack ok") != 0;
      ack.error = r->String("info-ack error");
      ack.name = r->String("info-ack name");
      ack.window = r->I64("info-ack window");
      ack.completions = r->U64("info-ack completions");
      ack.live_partial_matches = r->U64("info-ack live");
      ack.peak_partial_matches = r->U64("info-ack peak");
      const uint32_t n = r->U32("info-ack node count");
      constexpr size_t kNodeBytes = 4 + 1 + 4 + 5 * 8;
      // One bounds check for the run; reads inside it cannot fail.
      WireReader nodes(r->Records(n, kNodeBytes, "info-ack node"));
      ack.nodes.resize(r->ok() ? n : 0);
      for (SjNodeRuntime& node : ack.nodes) {
        node.node = nodes.I32("info-ack node id");
        node.is_leaf = nodes.U8("info-ack node leaf") != 0;
        node.query_edges = nodes.I32("info-ack node edges");
        node.matches_inserted = nodes.U64("info-ack node inserted");
        node.probes = nodes.U64("info-ack node probes");
        node.join_attempts = nodes.U64("info-ack node attempts");
        node.joins_succeeded = nodes.U64("info-ack node joins");
        node.live_partial_matches = nodes.U64("info-ack node live");
      }
      break;
    }
    case CtrlType::kStats:
    case CtrlType::kMetricsRequest:
      break;
    case CtrlType::kMetricsReport: {
      // Verify the trailing CRC-32 before trusting any field: a report
      // that parses but lies would silently skew every federated series.
      const std::string_view rest = r->rest();
      if (rest.size() < 4) {
        r->Fail("metrics report shorter than its CRC");
        return;
      }
      const size_t payload_len = rest.size() - 4;
      if (Crc32(rest.substr(0, payload_len)) !=
          GetU32(rest.data() + payload_len)) {
        r->Fail("metrics report CRC mismatch");
        return;
      }
      CtrlMetricsReport& rep = frame->metrics_report;
      rep.wal_seq = r->U64("metrics wal seq");
      rep.replayed_frames = r->U64("metrics replayed");
      rep.exchange_items_sent = r->U64("metrics exchange sent");
      rep.completions_sent = r->U64("metrics completions sent");
      const uint32_t n = r->U32("metrics sample count");
      // A sample costs at least kind + three u16 lengths.
      if (!r->Fits(n, 7, "metrics sample")) return;
      rep.samples.reserve(n);
      for (uint32_t i = 0; i < n && r->ok(); ++i) {
        MetricSample s;
        const uint8_t kind = r->U8("metrics sample kind");
        if (kind > static_cast<uint8_t>(MetricSample::Kind::kHistogram)) {
          r->Fail("metrics sample kind out of range");
          return;
        }
        s.kind = static_cast<MetricSample::Kind>(kind);
        s.name = r->String("metrics sample name");
        s.help = r->String("metrics sample help");
        const uint16_t nl = r->U16("metrics label count");
        if (!r->Fits(nl, 4, "metrics label")) return;
        s.labels.reserve(nl);
        for (uint16_t l = 0; l < nl && r->ok(); ++l) {
          std::string key = r->String("metrics label key");
          std::string value = r->String("metrics label value");
          s.labels.emplace_back(std::move(key), std::move(value));
        }
        switch (s.kind) {
          case MetricSample::Kind::kCounter:
            s.counter = r->U64("metrics counter value");
            break;
          case MetricSample::Kind::kGauge:
            s.gauge = std::bit_cast<double>(r->U64("metrics gauge bits"));
            break;
          case MetricSample::Kind::kHistogram: {
            // Sparse buckets: (index, count) pairs in strictly ascending
            // index order, then the value sum.
            const uint8_t nb = r->U8("metrics histogram bucket count");
            if (nb > Histogram::kNumBuckets) {
              r->Fail("metrics histogram bucket count out of range");
              return;
            }
            std::array<uint64_t, Histogram::kNumBuckets> counts{};
            int last = -1;
            for (uint8_t b = 0; b < nb && r->ok(); ++b) {
              const uint8_t idx = r->U8("metrics histogram bucket index");
              if (idx >= Histogram::kNumBuckets ||
                  static_cast<int>(idx) <= last) {
                r->Fail("metrics histogram bucket index out of order");
                return;
              }
              last = idx;
              counts[idx] = r->U64("metrics histogram bucket value");
            }
            const uint64_t sum = r->U64("metrics histogram sum");
            s.histogram = Histogram::FromBuckets(counts, sum);
            break;
          }
        }
        if (!r->ok()) return;
        rep.samples.push_back(std::move(s));
      }
      // The verified CRC trailer; consuming it satisfies the whole-body
      // trailing-bytes check.
      r->U32("metrics report crc");
      break;
    }
    case CtrlType::kStatsAck: {
      ShardStatsSnapshot& ack = frame->stats_ack;
      ack.retained_edges = r->U64("stats retained edges");
      ack.retained_vertices = r->U64("stats retained vertices");
      ack.evicted_edges = r->U64("stats evicted");
      ack.edges_processed = r->U64("stats processed");
      ack.completions = r->U64("stats completions");
      ack.live_partial_matches = r->U64("stats live");
      ack.exchange.sent_expansions = r->U64("stats sent expansions");
      ack.exchange.sent_inserts = r->U64("stats sent inserts");
      ack.exchange.received_expansions = r->U64("stats recv expansions");
      ack.exchange.received_inserts = r->U64("stats recv inserts");
      break;
    }
  }
}

}  // namespace

bool IsStateCtrlType(CtrlType type) {
  switch (type) {
    case CtrlType::kRegister:
    case CtrlType::kEndBackfill:
    case CtrlType::kUnregister:
    case CtrlType::kBatch:
    case CtrlType::kExchange:
    case CtrlType::kCommit:
      return true;
    default:
      return false;
  }
}

bool IsCtrlFrameStart(std::string_view buf) {
  return !buf.empty() && buf[0] == kCtrlFrameMagic[0];
}

CtrlDecodeResult DecodeCtrlFrame(std::string_view buf, size_t max_body_bytes,
                                 Interner* interner) {
  CtrlDecodeResult result;
  WireReader r(ReadFrameHeader(buf, kCtrlFrameMagic, max_body_bytes,
                               "control-frame", &result));
  if (result.status != FrameDecodeStatus::kOk) return result;

  const uint8_t type = r.U8("frame type");
  if (type < static_cast<uint8_t>(CtrlType::kHello) ||
      type > static_cast<uint8_t>(CtrlType::kMetricsReport) ||
      type == kRetiredCompletionType) {
    result.status = FrameDecodeStatus::kMalformed;
    result.error =
        StrCat("unknown control frame type ", static_cast<int>(type));
    return result;
  }
  result.frame.type = static_cast<CtrlType>(type);
  DecodeBody(&r, interner, &result.frame);
  if (r.ok() && r.remaining() != 0) {
    r.Fail("trailing bytes after payload");
  }
  if (!r.ok()) {
    result.status = FrameDecodeStatus::kMalformed;
    result.error = StrCat("malformed control frame: ", r.error());
  }
  return result;
}

std::string EncodeHelloFrame(const CtrlHello& hello) {
  std::string frame = StartFrame(CtrlType::kHello);
  PutU32(&frame, hello.protocol);
  PutU32(&frame, static_cast<uint32_t>(hello.num_shards));
  PutU32(&frame, static_cast<uint32_t>(hello.shard_index));
  PutU64(&frame, hello.partitioner_seed);
  PutU64(&frame, hello.exchange_items_received);
  return FinishFrame(std::move(frame));
}

StatusOr<std::string> EncodeHelloAckFrame(const CtrlHelloAck& ack) {
  std::string frame = StartFrame(CtrlType::kHelloAck);
  PutU64(&frame, ack.applied_frames);
  SW_RETURN_IF_ERROR(PutString(&frame, ack.error));
  return FinishFrame(std::move(frame));
}

StatusOr<std::string> EncodeRegisterFrame(const CtrlRegister& reg) {
  std::string frame = StartFrame(CtrlType::kRegister);
  PutU32(&frame, static_cast<uint32_t>(reg.expect_id));
  frame.push_back(static_cast<char>(reg.strategy));
  PutI64(&frame, reg.window);
  SW_RETURN_IF_ERROR(PutString(&frame, reg.name));
  frame.push_back(static_cast<char>(reg.vertex_labels.size()));
  frame.push_back(static_cast<char>(reg.edges.size()));
  for (const std::string& label : reg.vertex_labels) {
    SW_RETURN_IF_ERROR(PutString(&frame, label));
  }
  for (const CtrlQueryEdge& e : reg.edges) {
    frame.push_back(static_cast<char>(e.src));
    frame.push_back(static_cast<char>(e.dst));
    SW_RETURN_IF_ERROR(PutString(&frame, e.label));
  }
  return FinishFrame(std::move(frame));
}

StatusOr<std::string> EncodeRegisterAckFrame(const CtrlRegisterAck& ack) {
  std::string frame = StartFrame(CtrlType::kRegisterAck);
  PutU32(&frame, static_cast<uint32_t>(ack.id));
  frame.push_back(ack.ok ? 1 : 0);
  SW_RETURN_IF_ERROR(PutString(&frame, ack.error));
  return FinishFrame(std::move(frame));
}

std::string EncodeEndBackfillFrame() {
  return FinishFrame(StartFrame(CtrlType::kEndBackfill));
}

std::string EncodeUnregisterFrame(const CtrlUnregister& unregister) {
  std::string frame = StartFrame(CtrlType::kUnregister);
  PutU32(&frame, static_cast<uint32_t>(unregister.query_id));
  return FinishFrame(std::move(frame));
}

StatusOr<std::string> EncodeBatchFrame(const CtrlBatch& batch,
                                       const LabelNameFn& label_name) {
  LabelTableWriter table;
  std::string records;
  records.reserve(4 + batch.edges.size() * kBatchRecordBytes);
  PutU32(&records, static_cast<uint32_t>(batch.edges.size()));
  for (const CtrlShardEdge& se : batch.edges) {
    PutU64(&records, se.global_id);
    PutEdgeRecord(&records, se.edge, &table);
    records.push_back(se.run_anchors ? 1 : 0);
  }
  return LabeledFrame(CtrlType::kBatch, table, label_name, records);
}

namespace {

StatusOr<std::string> EncodeExchangeItems(
    std::span<const CtrlExchangeItem> chunk, const LabelNameFn& label_name) {
  LabelTableWriter table;
  std::string items;
  PutU32(&items, static_cast<uint32_t>(chunk.size()));
  for (const CtrlExchangeItem& ci : chunk) {
    PutU32(&items, static_cast<uint32_t>(ci.dest));
    items.push_back(static_cast<char>(ci.item.kind));
    PutU32(&items, static_cast<uint32_t>(ci.item.query_id));
    PutU32(&items, ci.item.plan);
    PutU32(&items, static_cast<uint32_t>(ci.item.step));
    PutU32(&items, static_cast<uint32_t>(ci.item.node));
    EncodeWireMatch(&items, ci.item.match, &table);
  }
  return LabeledFrame(CtrlType::kExchange, table, label_name, items);
}

}  // namespace

StatusOr<std::string> EncodeExchangeFrame(const CtrlExchange& exchange,
                                          const LabelNameFn& label_name) {
  return EncodeExchangeItems(exchange.items, label_name);
}

StatusOr<std::vector<std::string>> EncodeExchangeFrames(
    std::span<const CtrlExchangeItem> items, const LabelNameFn& label_name) {
  std::vector<std::string> frames;
  for (size_t begin = 0; begin < items.size();
       begin += kMaxExchangeItemsPerFrame) {
    const size_t n = std::min(items.size() - begin, kMaxExchangeItemsPerFrame);
    SW_ASSIGN_OR_RETURN(
        std::string frame,
        EncodeExchangeItems(items.subspan(begin, n), label_name));
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::string EncodeBarrierFrame(const CtrlBarrier& barrier) {
  std::string frame = StartFrame(CtrlType::kBarrier);
  PutU32(&frame, barrier.round);
  return FinishFrame(std::move(frame));
}

std::string EncodeBarrierAckFrame(const CtrlBarrierAck& ack) {
  std::string frame = StartFrame(CtrlType::kBarrierAck);
  PutU32(&frame, ack.round);
  PutU64(&frame, ack.applied_frames);
  return FinishFrame(std::move(frame));
}

std::string EncodeCommitFrame(const CtrlCommit& commit) {
  std::string frame = StartFrame(CtrlType::kCommit);
  PutI64(&frame, commit.watermark);
  return FinishFrame(std::move(frame));
}

std::string EncodeInfoFrame(const CtrlInfo& info) {
  std::string frame = StartFrame(CtrlType::kInfo);
  PutU32(&frame, static_cast<uint32_t>(info.query_id));
  return FinishFrame(std::move(frame));
}

StatusOr<std::string> EncodeInfoAckFrame(const CtrlInfoAck& ack) {
  std::string frame = StartFrame(CtrlType::kInfoAck);
  frame.push_back(ack.ok ? 1 : 0);
  SW_RETURN_IF_ERROR(PutString(&frame, ack.error));
  SW_RETURN_IF_ERROR(PutString(&frame, ack.name));
  PutI64(&frame, ack.window);
  PutU64(&frame, ack.completions);
  PutU64(&frame, ack.live_partial_matches);
  PutU64(&frame, ack.peak_partial_matches);
  PutU32(&frame, static_cast<uint32_t>(ack.nodes.size()));
  for (const SjNodeRuntime& node : ack.nodes) {
    PutU32(&frame, static_cast<uint32_t>(node.node));
    frame.push_back(node.is_leaf ? 1 : 0);
    PutU32(&frame, static_cast<uint32_t>(node.query_edges));
    PutU64(&frame, node.matches_inserted);
    PutU64(&frame, node.probes);
    PutU64(&frame, node.join_attempts);
    PutU64(&frame, node.joins_succeeded);
    PutU64(&frame, node.live_partial_matches);
  }
  return FinishFrame(std::move(frame));
}

std::string EncodeStatsFrame() {
  return FinishFrame(StartFrame(CtrlType::kStats));
}

std::string EncodeStatsAckFrame(const ShardStatsSnapshot& ack) {
  std::string frame = StartFrame(CtrlType::kStatsAck);
  PutU64(&frame, ack.retained_edges);
  PutU64(&frame, ack.retained_vertices);
  PutU64(&frame, ack.evicted_edges);
  PutU64(&frame, ack.edges_processed);
  PutU64(&frame, ack.completions);
  PutU64(&frame, ack.live_partial_matches);
  PutU64(&frame, ack.exchange.sent_expansions);
  PutU64(&frame, ack.exchange.sent_inserts);
  PutU64(&frame, ack.exchange.received_expansions);
  PutU64(&frame, ack.exchange.received_inserts);
  return FinishFrame(std::move(frame));
}

std::string EncodeMetricsRequestFrame() {
  return FinishFrame(StartFrame(CtrlType::kMetricsRequest));
}

StatusOr<std::string> EncodeMetricsReportFrame(
    const CtrlMetricsReport& report) {
  std::string frame = StartFrame(CtrlType::kMetricsReport);
  PutU64(&frame, report.wal_seq);
  PutU64(&frame, report.replayed_frames);
  PutU64(&frame, report.exchange_items_sent);
  PutU64(&frame, report.completions_sent);
  PutU32(&frame, static_cast<uint32_t>(report.samples.size()));
  for (const MetricSample& s : report.samples) {
    frame.push_back(static_cast<char>(s.kind));
    SW_RETURN_IF_ERROR(PutString(&frame, s.name));
    SW_RETURN_IF_ERROR(PutString(&frame, s.help));
    PutU16(&frame, static_cast<uint16_t>(s.labels.size()));
    for (const auto& [key, value] : s.labels) {
      SW_RETURN_IF_ERROR(PutString(&frame, key));
      SW_RETURN_IF_ERROR(PutString(&frame, value));
    }
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        PutU64(&frame, s.counter);
        break;
      case MetricSample::Kind::kGauge:
        PutU64(&frame, std::bit_cast<uint64_t>(s.gauge));
        break;
      case MetricSample::Kind::kHistogram: {
        uint8_t occupied = 0;
        for (int b = 0; b < Histogram::kNumBuckets; ++b) {
          if (s.histogram.bucket_count(b) != 0) ++occupied;
        }
        frame.push_back(static_cast<char>(occupied));
        for (int b = 0; b < Histogram::kNumBuckets; ++b) {
          const uint64_t count = s.histogram.bucket_count(b);
          if (count == 0) continue;
          frame.push_back(static_cast<char>(b));
          PutU64(&frame, count);
        }
        PutU64(&frame, s.histogram.sum());
        break;
      }
    }
  }
  // CRC over the payload (everything after the type byte); the decoder
  // verifies it before reading a single field.
  PutU32(&frame, Crc32(std::string_view(frame).substr(kFrameHeaderBytes + 1)));
  return FinishFrame(std::move(frame));
}

StatusOr<std::string> EncodeCtrlFrame(const CtrlFrame& frame,
                                      const LabelNameFn& label_name) {
  switch (frame.type) {
    case CtrlType::kHello:
      return EncodeHelloFrame(frame.hello);
    case CtrlType::kHelloAck:
      return EncodeHelloAckFrame(frame.hello_ack);
    case CtrlType::kRegister:
      return EncodeRegisterFrame(frame.reg);
    case CtrlType::kRegisterAck:
      return EncodeRegisterAckFrame(frame.register_ack);
    case CtrlType::kEndBackfill:
      return EncodeEndBackfillFrame();
    case CtrlType::kUnregister:
      return EncodeUnregisterFrame(frame.unregister);
    case CtrlType::kBatch:
      return EncodeBatchFrame(frame.batch, label_name);
    case CtrlType::kExchange:
      return EncodeExchangeFrame(frame.exchange, label_name);
    case CtrlType::kBarrier:
      return EncodeBarrierFrame(frame.barrier);
    case CtrlType::kBarrierAck:
      return EncodeBarrierAckFrame(frame.barrier_ack);
    case CtrlType::kCommit:
      return EncodeCommitFrame(frame.commit);
    case CtrlType::kInfo:
      return EncodeInfoFrame(frame.info);
    case CtrlType::kInfoAck:
      return EncodeInfoAckFrame(frame.info_ack);
    case CtrlType::kStats:
      return EncodeStatsFrame();
    case CtrlType::kStatsAck:
      return EncodeStatsAckFrame(frame.stats_ack);
    case CtrlType::kMetricsRequest:
      return EncodeMetricsRequestFrame();
    case CtrlType::kMetricsReport:
      return EncodeMetricsReportFrame(frame.metrics_report);
  }
  return Status::InvalidArgument("unknown control frame type");
}

}  // namespace streamworks
