#include "streamworks/stream/cluster_wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

#include "streamworks/common/binio.h"
#include "streamworks/common/str_util.h"
#include "streamworks/persist/crc32.h"

namespace streamworks {

namespace {

// --- Encode helpers ----------------------------------------------------------

/// Wraps a finished body (type byte + payload) into a framed message.
std::string FinishFrame(std::string body) {
  std::string frame;
  frame.reserve(kCtrlFrameHeaderBytes + body.size());
  frame.append(kCtrlFrameMagic, sizeof(kCtrlFrameMagic));
  PutU32(&frame, static_cast<uint32_t>(body.size()));
  frame.append(body);
  return frame;
}

std::string BodyFor(CtrlType type) {
  std::string body;
  body.push_back(static_cast<char>(type));
  return body;
}

void PutString(std::string* out, std::string_view s) {
  PutU16(out, static_cast<uint16_t>(s.size()));
  out->append(s);
}

/// First-seen-order label table over a frame's label ids (FEEDB's scheme:
/// a handful of distinct labels per frame, so linear scan beats a map).
class LabelTable {
 public:
  explicit LabelTable(const LabelNameFn& name) : name_(name) {}

  uint32_t IndexOf(LabelId id) {
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] == id) return static_cast<uint32_t>(i);
    }
    ids_.push_back(id);
    return static_cast<uint32_t>(ids_.size() - 1);
  }

  void Encode(std::string* out) const {
    PutU32(out, static_cast<uint32_t>(ids_.size()));
    for (LabelId id : ids_) PutString(out, name_(id));
  }

 private:
  const LabelNameFn& name_;
  std::vector<LabelId> ids_;
};

void EncodeWireMatch(std::string* out, const WireMatch& match,
                     LabelTable* table) {
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

/// Bounds-checked little-endian reader over one frame body. Every getter
/// fails closed: once `ok` drops the cursor stops moving and returns
/// zeros, so decoders can read a whole payload and check ok once.
struct Reader {
  const char* p;
  const char* end;
  bool ok = true;
  std::string err;

  Reader(const char* begin, const char* stop) : p(begin), end(stop) {}

  bool Need(size_t n, std::string_view what) {
    if (!ok) return false;
    if (static_cast<size_t>(end - p) < n) {
      ok = false;
      err = StrCat("truncated ", what);
      return false;
    }
    return true;
  }

  void Fail(std::string_view why) {
    if (ok) {
      ok = false;
      err = std::string(why);
    }
  }

  uint8_t U8(std::string_view what) {
    if (!Need(1, what)) return 0;
    return static_cast<uint8_t>(*p++);
  }
  uint16_t U16(std::string_view what) {
    if (!Need(2, what)) return 0;
    const uint16_t v = GetU16(p);
    p += 2;
    return v;
  }
  uint32_t U32(std::string_view what) {
    if (!Need(4, what)) return 0;
    const uint32_t v = GetU32(p);
    p += 4;
    return v;
  }
  uint64_t U64(std::string_view what) {
    if (!Need(8, what)) return 0;
    const uint64_t v = GetU64(p);
    p += 8;
    return v;
  }
  int32_t I32(std::string_view what) {
    return static_cast<int32_t>(U32(what));
  }
  int64_t I64(std::string_view what) {
    return static_cast<int64_t>(U64(what));
  }
  std::string_view Bytes(size_t n, std::string_view what) {
    if (!Need(n, what)) return {};
    const std::string_view v(p, n);
    p += n;
    return v;
  }
  std::string String(std::string_view what) {
    const uint16_t len = U16(what);
    return std::string(Bytes(len, what));
  }
  size_t remaining() const { return static_cast<size_t>(end - p); }
};

/// Decodes a frame-local label table, interning each entry once.
std::vector<LabelId> DecodeLabelTable(Reader* r, Interner* interner) {
  std::vector<LabelId> labels;
  const uint32_t n = r->U32("string-table count");
  if (!r->ok) return labels;
  // Each entry costs at least its u16 length, so a count beyond
  // remaining/2 is a lie — reject before reserving.
  if (n > r->remaining() / 2) {
    r->Fail("string-table count exceeds body");
    return labels;
  }
  labels.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint16_t len = r->U16("string length");
    const std::string_view bytes = r->Bytes(len, "string bytes");
    if (!r->ok) return labels;
    labels.push_back(interner->Intern(bytes));
  }
  return labels;
}

LabelId TableLabel(Reader* r, const std::vector<LabelId>& table,
                   uint32_t index) {
  if (index >= table.size()) {
    r->Fail("label index out of string-table range");
    return kInvalidLabelId;
  }
  return table[index];
}

WireMatch DecodeWireMatch(Reader* r, const std::vector<LabelId>& table) {
  WireMatch match;
  const uint8_t nv = r->U8("match vertex count");
  if (nv > kMaxQuerySize) {
    r->Fail("match vertex count exceeds the query-size bound");
    return match;
  }
  match.vertices.reserve(nv);
  for (uint8_t i = 0; i < nv && r->ok; ++i) {
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
  for (uint8_t i = 0; i < ne && r->ok; ++i) {
    WireEdgeBinding e;
    e.qe = r->U8("edge binding qe");
    e.edge = r->U64("edge binding id");
    e.ts = r->I64("edge binding ts");
    if (e.qe >= kMaxQuerySize) r->Fail("edge binding qe out of range");
    match.edges.push_back(e);
  }
  return match;
}

constexpr size_t kBatchRecordBytes = 8 + 8 + 8 + 4 + 4 + 4 + 8 + 1;

void DecodeBody(Reader* r, Interner* interner, CtrlFrame* frame) {
  switch (frame->type) {
    case CtrlType::kHello: {
      CtrlHello& h = frame->hello;
      h.protocol = r->U32("hello protocol");
      h.num_shards = r->I32("hello num_shards");
      h.shard_index = r->I32("hello shard_index");
      h.partitioner_seed = r->U64("hello seed");
      h.exchange_items_received = r->U64("hello exchange cursor");
      h.completions_received = r->U64("hello completion cursor");
      break;
    }
    case CtrlType::kHelloAck:
      frame->hello_ack.applied_frames = r->U64("hello-ack applied");
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
      for (uint8_t i = 0; i < nv && r->ok; ++i) {
        reg.vertex_labels.push_back(r->String("register vertex label"));
      }
      reg.edges.reserve(ne);
      for (uint8_t i = 0; i < ne && r->ok; ++i) {
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
      const std::vector<LabelId> table = DecodeLabelTable(r, interner);
      const uint32_t n = r->U32("batch edge count");
      if (!r->ok) return;
      if (r->remaining() != n * kBatchRecordBytes) {
        r->Fail("body length does not match batch edge records");
        return;
      }
      frame->batch.edges.reserve(n);
      for (uint32_t i = 0; i < n && r->ok; ++i) {
        CtrlShardEdge se;
        se.global_id = r->U64("batch edge gid");
        se.edge.src = r->U64("batch edge src");
        se.edge.dst = r->U64("batch edge dst");
        se.edge.src_label = TableLabel(r, table, r->U32("batch src label"));
        se.edge.dst_label = TableLabel(r, table, r->U32("batch dst label"));
        se.edge.edge_label = TableLabel(r, table, r->U32("batch edge label"));
        se.edge.ts = r->I64("batch edge ts");
        se.run_anchors = r->U8("batch anchor bit") != 0;
        frame->batch.edges.push_back(se);
      }
      break;
    }
    case CtrlType::kExchange: {
      const std::vector<LabelId> table = DecodeLabelTable(r, interner);
      const uint32_t n = r->U32("exchange item count");
      if (!r->ok) return;
      // An item costs at least its fixed header; bound before reserving.
      constexpr size_t kMinItemBytes = 4 + 1 + 4 + 4 + 4 + 4 + 1 + 1;
      if (n > r->remaining() / kMinItemBytes) {
        r->Fail("exchange item count exceeds body");
        return;
      }
      frame->exchange.items.reserve(n);
      for (uint32_t i = 0; i < n && r->ok; ++i) {
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
    case CtrlType::kCompletion: {
      const std::vector<LabelId> table = DecodeLabelTable(r, interner);
      frame->completion.query_id = r->I32("completion query id");
      frame->completion.completed_at = r->I64("completion ts");
      frame->completion.match = DecodeWireMatch(r, table);
      break;
    }
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
      if (!r->ok) return;
      constexpr size_t kNodeBytes = 4 + 1 + 4 + 5 * 8;
      if (r->remaining() != n * kNodeBytes) {
        r->Fail("body length does not match info-ack node records");
        return;
      }
      ack.nodes.reserve(n);
      for (uint32_t i = 0; i < n && r->ok; ++i) {
        SjNodeRuntime node;
        node.node = r->I32("info-ack node id");
        node.is_leaf = r->U8("info-ack node leaf") != 0;
        node.query_edges = r->I32("info-ack node edges");
        node.matches_inserted = r->U64("info-ack node inserted");
        node.probes = r->U64("info-ack node probes");
        node.join_attempts = r->U64("info-ack node attempts");
        node.joins_succeeded = r->U64("info-ack node joins");
        node.live_partial_matches = r->U64("info-ack node live");
        ack.nodes.push_back(node);
      }
      break;
    }
    case CtrlType::kStats:
    case CtrlType::kMetricsRequest:
      break;
    case CtrlType::kMetricsReport: {
      // Verify the trailing CRC-32 before trusting any field: a report
      // that parses but lies would silently skew every federated series.
      if (r->remaining() < 4) {
        r->Fail("metrics report shorter than its CRC");
        return;
      }
      const size_t payload_len = r->remaining() - 4;
      if (Crc32(r->p, payload_len) != GetU32(r->p + payload_len)) {
        r->Fail("metrics report CRC mismatch");
        return;
      }
      CtrlMetricsReport& rep = frame->metrics_report;
      rep.wal_seq = r->U64("metrics wal seq");
      rep.replayed_frames = r->U64("metrics replayed");
      rep.exchange_items_sent = r->U64("metrics exchange sent");
      rep.completions_sent = r->U64("metrics completions sent");
      const uint32_t n = r->U32("metrics sample count");
      if (!r->ok) return;
      // A sample costs at least kind + three u16 lengths; bound before
      // reserving.
      if (n > r->remaining() / 7) {
        r->Fail("metrics sample count exceeds body");
        return;
      }
      rep.samples.reserve(n);
      for (uint32_t i = 0; i < n && r->ok; ++i) {
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
        if (nl > r->remaining() / 4) {
          r->Fail("metrics label count exceeds body");
          return;
        }
        s.labels.reserve(nl);
        for (uint16_t l = 0; l < nl && r->ok; ++l) {
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
            for (uint8_t b = 0; b < nb && r->ok; ++b) {
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
        if (!r->ok) return;
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
      ack.exchange.sent_completions = r->U64("stats sent completions");
      ack.exchange.received_expansions = r->U64("stats recv expansions");
      ack.exchange.received_inserts = r->U64("stats recv inserts");
      ack.exchange.received_completions = r->U64("stats recv completions");
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
  if (buf.size() < kCtrlFrameHeaderBytes) return result;  // kNeedMore
  if (std::memcmp(buf.data(), kCtrlFrameMagic, sizeof(kCtrlFrameMagic)) != 0) {
    result.status = FrameDecodeStatus::kMalformed;
    result.frame_bytes = 0;  // no length to skip by; stream is lost
    result.error = "bad control-frame magic (stream desynchronized)";
    return result;
  }
  const size_t body_len = GetU32(buf.data() + 4);
  const size_t frame_bytes = kCtrlFrameHeaderBytes + body_len;
  if (body_len > max_body_bytes) {
    result.status = FrameDecodeStatus::kOversized;
    result.frame_bytes = frame_bytes;
    result.error = StrCat("control frame body of ", body_len,
                          " bytes exceeds ", max_body_bytes);
    return result;
  }
  if (buf.size() < frame_bytes) return result;  // kNeedMore

  const char* const body = buf.data() + kCtrlFrameHeaderBytes;
  Reader r(body, body + body_len);
  const uint8_t type = r.U8("frame type");
  if (type < static_cast<uint8_t>(CtrlType::kHello) ||
      type > static_cast<uint8_t>(CtrlType::kMetricsReport)) {
    result.status = FrameDecodeStatus::kMalformed;
    result.frame_bytes = frame_bytes;
    result.error = StrCat("unknown control frame type ", type);
    return result;
  }
  result.frame.type = static_cast<CtrlType>(type);
  DecodeBody(&r, interner, &result.frame);
  if (r.ok && r.remaining() != 0) {
    r.Fail("trailing bytes after payload");
  }
  if (!r.ok) {
    result.status = FrameDecodeStatus::kMalformed;
    result.frame_bytes = frame_bytes;
    result.error = StrCat("malformed control frame: ", r.err);
    return result;
  }
  result.status = FrameDecodeStatus::kOk;
  result.frame_bytes = frame_bytes;
  return result;
}

std::string EncodeHelloFrame(const CtrlHello& hello) {
  std::string body = BodyFor(CtrlType::kHello);
  PutU32(&body, hello.protocol);
  PutU32(&body, static_cast<uint32_t>(hello.num_shards));
  PutU32(&body, static_cast<uint32_t>(hello.shard_index));
  PutU64(&body, hello.partitioner_seed);
  PutU64(&body, hello.exchange_items_received);
  PutU64(&body, hello.completions_received);
  return FinishFrame(std::move(body));
}

std::string EncodeHelloAckFrame(const CtrlHelloAck& ack) {
  std::string body = BodyFor(CtrlType::kHelloAck);
  PutU64(&body, ack.applied_frames);
  return FinishFrame(std::move(body));
}

std::string EncodeRegisterFrame(const CtrlRegister& reg) {
  std::string body = BodyFor(CtrlType::kRegister);
  PutU32(&body, static_cast<uint32_t>(reg.expect_id));
  body.push_back(static_cast<char>(reg.strategy));
  PutI64(&body, reg.window);
  PutString(&body, reg.name);
  body.push_back(static_cast<char>(reg.vertex_labels.size()));
  body.push_back(static_cast<char>(reg.edges.size()));
  for (const std::string& label : reg.vertex_labels) PutString(&body, label);
  for (const CtrlQueryEdge& e : reg.edges) {
    body.push_back(static_cast<char>(e.src));
    body.push_back(static_cast<char>(e.dst));
    PutString(&body, e.label);
  }
  return FinishFrame(std::move(body));
}

std::string EncodeRegisterAckFrame(const CtrlRegisterAck& ack) {
  std::string body = BodyFor(CtrlType::kRegisterAck);
  PutU32(&body, static_cast<uint32_t>(ack.id));
  body.push_back(ack.ok ? 1 : 0);
  PutString(&body, ack.error);
  return FinishFrame(std::move(body));
}

std::string EncodeEndBackfillFrame() {
  return FinishFrame(BodyFor(CtrlType::kEndBackfill));
}

std::string EncodeUnregisterFrame(const CtrlUnregister& unregister) {
  std::string body = BodyFor(CtrlType::kUnregister);
  PutU32(&body, static_cast<uint32_t>(unregister.query_id));
  return FinishFrame(std::move(body));
}

std::string EncodeBatchFrame(const CtrlBatch& batch,
                             const LabelNameFn& label_name) {
  LabelTable table(label_name);
  struct Indexes {
    uint32_t src, dst, edge;
  };
  std::vector<Indexes> indexes;
  indexes.reserve(batch.edges.size());
  for (const CtrlShardEdge& se : batch.edges) {
    indexes.push_back({table.IndexOf(se.edge.src_label),
                       table.IndexOf(se.edge.dst_label),
                       table.IndexOf(se.edge.edge_label)});
  }
  std::string body = BodyFor(CtrlType::kBatch);
  table.Encode(&body);
  PutU32(&body, static_cast<uint32_t>(batch.edges.size()));
  for (size_t i = 0; i < batch.edges.size(); ++i) {
    const CtrlShardEdge& se = batch.edges[i];
    PutU64(&body, se.global_id);
    PutU64(&body, se.edge.src);
    PutU64(&body, se.edge.dst);
    PutU32(&body, indexes[i].src);
    PutU32(&body, indexes[i].dst);
    PutU32(&body, indexes[i].edge);
    PutI64(&body, se.edge.ts);
    body.push_back(se.run_anchors ? 1 : 0);
  }
  return FinishFrame(std::move(body));
}

namespace {

std::string EncodeExchangeItems(std::span<const CtrlExchangeItem> chunk,
                                const LabelNameFn& label_name) {
  LabelTable table(label_name);
  std::string items;
  for (const CtrlExchangeItem& ci : chunk) {
    PutU32(&items, static_cast<uint32_t>(ci.dest));
    items.push_back(static_cast<char>(ci.item.kind));
    PutU32(&items, static_cast<uint32_t>(ci.item.query_id));
    PutU32(&items, ci.item.plan);
    PutU32(&items, static_cast<uint32_t>(ci.item.step));
    PutU32(&items, static_cast<uint32_t>(ci.item.node));
    EncodeWireMatch(&items, ci.item.match, &table);
  }
  std::string body = BodyFor(CtrlType::kExchange);
  table.Encode(&body);
  PutU32(&body, static_cast<uint32_t>(chunk.size()));
  body.append(items);
  return FinishFrame(std::move(body));
}

}  // namespace

std::string EncodeExchangeFrame(const CtrlExchange& exchange,
                                const LabelNameFn& label_name) {
  return EncodeExchangeItems(exchange.items, label_name);
}

std::vector<std::string> EncodeExchangeFrames(
    std::span<const CtrlExchangeItem> items, const LabelNameFn& label_name) {
  std::vector<std::string> frames;
  for (size_t begin = 0; begin < items.size();
       begin += kMaxExchangeItemsPerFrame) {
    frames.push_back(EncodeExchangeItems(
        items.subspan(begin, std::min(items.size() - begin,
                                      kMaxExchangeItemsPerFrame)),
        label_name));
  }
  return frames;
}

std::string EncodeBarrierFrame(const CtrlBarrier& barrier) {
  std::string body = BodyFor(CtrlType::kBarrier);
  PutU32(&body, barrier.round);
  return FinishFrame(std::move(body));
}

std::string EncodeBarrierAckFrame(const CtrlBarrierAck& ack) {
  std::string body = BodyFor(CtrlType::kBarrierAck);
  PutU32(&body, ack.round);
  PutU64(&body, ack.applied_frames);
  return FinishFrame(std::move(body));
}

std::string EncodeCommitFrame(const CtrlCommit& commit) {
  std::string body = BodyFor(CtrlType::kCommit);
  PutI64(&body, commit.watermark);
  return FinishFrame(std::move(body));
}

std::string EncodeCompletionFrame(const CtrlCompletion& completion,
                                  const LabelNameFn& label_name) {
  LabelTable table(label_name);
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(completion.query_id));
  PutI64(&payload, completion.completed_at);
  EncodeWireMatch(&payload, completion.match, &table);
  std::string body = BodyFor(CtrlType::kCompletion);
  table.Encode(&body);
  body.append(payload);
  return FinishFrame(std::move(body));
}

std::string EncodeInfoFrame(const CtrlInfo& info) {
  std::string body = BodyFor(CtrlType::kInfo);
  PutU32(&body, static_cast<uint32_t>(info.query_id));
  return FinishFrame(std::move(body));
}

std::string EncodeInfoAckFrame(const CtrlInfoAck& ack) {
  std::string body = BodyFor(CtrlType::kInfoAck);
  body.push_back(ack.ok ? 1 : 0);
  PutString(&body, ack.error);
  PutString(&body, ack.name);
  PutI64(&body, ack.window);
  PutU64(&body, ack.completions);
  PutU64(&body, ack.live_partial_matches);
  PutU64(&body, ack.peak_partial_matches);
  PutU32(&body, static_cast<uint32_t>(ack.nodes.size()));
  for (const SjNodeRuntime& node : ack.nodes) {
    PutU32(&body, static_cast<uint32_t>(node.node));
    body.push_back(node.is_leaf ? 1 : 0);
    PutU32(&body, static_cast<uint32_t>(node.query_edges));
    PutU64(&body, node.matches_inserted);
    PutU64(&body, node.probes);
    PutU64(&body, node.join_attempts);
    PutU64(&body, node.joins_succeeded);
    PutU64(&body, node.live_partial_matches);
  }
  return FinishFrame(std::move(body));
}

std::string EncodeStatsFrame() {
  return FinishFrame(BodyFor(CtrlType::kStats));
}

std::string EncodeStatsAckFrame(const ShardStatsSnapshot& ack) {
  std::string body = BodyFor(CtrlType::kStatsAck);
  PutU64(&body, ack.retained_edges);
  PutU64(&body, ack.retained_vertices);
  PutU64(&body, ack.evicted_edges);
  PutU64(&body, ack.edges_processed);
  PutU64(&body, ack.completions);
  PutU64(&body, ack.live_partial_matches);
  PutU64(&body, ack.exchange.sent_expansions);
  PutU64(&body, ack.exchange.sent_inserts);
  PutU64(&body, ack.exchange.sent_completions);
  PutU64(&body, ack.exchange.received_expansions);
  PutU64(&body, ack.exchange.received_inserts);
  PutU64(&body, ack.exchange.received_completions);
  return FinishFrame(std::move(body));
}

std::string EncodeMetricsRequestFrame() {
  return FinishFrame(BodyFor(CtrlType::kMetricsRequest));
}

std::string EncodeMetricsReportFrame(const CtrlMetricsReport& report) {
  std::string body = BodyFor(CtrlType::kMetricsReport);
  PutU64(&body, report.wal_seq);
  PutU64(&body, report.replayed_frames);
  PutU64(&body, report.exchange_items_sent);
  PutU64(&body, report.completions_sent);
  PutU32(&body, static_cast<uint32_t>(report.samples.size()));
  for (const MetricSample& s : report.samples) {
    body.push_back(static_cast<char>(s.kind));
    PutString(&body, s.name);
    PutString(&body, s.help);
    PutU16(&body, static_cast<uint16_t>(s.labels.size()));
    for (const auto& [key, value] : s.labels) {
      PutString(&body, key);
      PutString(&body, value);
    }
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        PutU64(&body, s.counter);
        break;
      case MetricSample::Kind::kGauge:
        PutU64(&body, std::bit_cast<uint64_t>(s.gauge));
        break;
      case MetricSample::Kind::kHistogram: {
        uint8_t occupied = 0;
        for (int b = 0; b < Histogram::kNumBuckets; ++b) {
          if (s.histogram.bucket_count(b) != 0) ++occupied;
        }
        body.push_back(static_cast<char>(occupied));
        for (int b = 0; b < Histogram::kNumBuckets; ++b) {
          const uint64_t count = s.histogram.bucket_count(b);
          if (count == 0) continue;
          body.push_back(static_cast<char>(b));
          PutU64(&body, count);
        }
        PutU64(&body, s.histogram.sum());
        break;
      }
    }
  }
  // CRC over the payload (everything after the type byte); the decoder
  // verifies it before reading a single field.
  PutU32(&body, Crc32(body.data() + 1, body.size() - 1));
  return FinishFrame(std::move(body));
}

}  // namespace streamworks
