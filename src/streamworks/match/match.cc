#include "streamworks/match/match.h"

#include <algorithm>
#include <cstring>

#include "streamworks/common/hash.h"
#include "streamworks/common/logging.h"

namespace streamworks {

// Every stored partial match pays for the inline slots; keep the object at
// the ~200 bytes kInlineCapacity was sized for.
static_assert(sizeof(Match) <= 200);

Match::Match(int num_vertices, int num_edges)
    : num_vertices_(static_cast<uint8_t>(num_vertices)),
      num_edges_(static_cast<uint8_t>(num_edges)),
      spilled_(num_vertices > kInlineCapacity || num_edges > kInlineCapacity) {
  SW_DCHECK(num_vertices <= kMaxQuerySize && num_edges <= kMaxQuerySize);
  if (spilled_) {
    heap_ = new std::byte[spill_bytes()];
    std::fill_n(edge_slots(), num_edges_, kInvalidEdgeId);
    std::fill_n(ts_slots(), num_edges_, Timestamp{0});
    std::fill_n(vertex_slots(), num_vertices_, kInvalidVertexId);
  } else {
    // Slots past the query's size start unbound too, so copying the whole
    // inline array never reads an indeterminate value.
    inline_ = InlineSlots{};
    std::fill_n(inline_.edges, kInlineCapacity, kInvalidEdgeId);
    std::fill_n(inline_.vertices, kInlineCapacity, kInvalidVertexId);
  }
}

Match::Match(const Match& other) { CopyFrom(other); }

Match::Match(Match&& other) noexcept { TakeFrom(&other); }

Match& Match::operator=(const Match& other) {
  if (this != &other) CopyFrom(other);
  return *this;
}

Match& Match::operator=(Match&& other) noexcept {
  if (this != &other) TakeFrom(&other);
  return *this;
}

void Match::CopyFrom(const Match& other) {
  if (other.spilled_) {
    // Allocate before releasing, so a failed allocation leaves *this whole.
    std::byte* block = new std::byte[other.spill_bytes()];
    std::memcpy(block, other.heap_, other.spill_bytes());
    FreeSpill();
    heap_ = block;
  } else {
    FreeSpill();
    inline_ = other.inline_;
  }
  CopyShape(other);
}

void Match::TakeFrom(Match* other) {
  if (!other->spilled_) {
    CopyFrom(*other);
    return;
  }
  FreeSpill();
  heap_ = other->heap_;
  CopyShape(*other);
  other->spilled_ = false;  // the block is ours now
  *other = Match();
}

void Match::CopyShape(const Match& other) {
  bound_vertices_ = other.bound_vertices_;
  bound_edges_ = other.bound_edges_;
  min_ts_ = other.min_ts_;
  max_ts_ = other.max_ts_;
  num_vertices_ = other.num_vertices_;
  num_edges_ = other.num_edges_;
  spilled_ = other.spilled_;
}

void Match::BindVertex(QueryVertexId qv, VertexId dv) {
  VertexId& slot = vertex_slots()[qv];
  SW_DCHECK(slot == kInvalidVertexId || slot == dv)
      << "rebinding query vertex to a different data vertex";
  slot = dv;
  bound_vertices_.Add(qv);
}

void Match::UnbindVertex(QueryVertexId qv) {
  vertex_slots()[qv] = kInvalidVertexId;
  bound_vertices_.Remove(qv);
}

bool Match::UsesDataVertex(VertexId dv) const {
  const VertexId* vertices = vertex_slots();
  for (int qv : bound_vertices_) {
    if (vertices[qv] == dv) return true;
  }
  return false;
}

void Match::BindEdge(QueryEdgeId qe, EdgeId de, Timestamp ts) {
  SW_DCHECK(!HasEdge(qe)) << "query edge already bound";
  edge_slots()[qe] = de;
  ts_slots()[qe] = ts;
  bound_edges_.Add(qe);
  min_ts_ = std::min(min_ts_, ts);
  max_ts_ = std::max(max_ts_, ts);
}

void Match::UnbindEdge(QueryEdgeId qe) {
  SW_DCHECK(HasEdge(qe));
  edge_slots()[qe] = kInvalidEdgeId;
  bound_edges_.Remove(qe);
  min_ts_ = kMaxTimestamp;
  max_ts_ = kMinTimestamp;
  const Timestamp* ts = ts_slots();
  for (int e : bound_edges_) {
    min_ts_ = std::min(min_ts_, ts[e]);
    max_ts_ = std::max(max_ts_, ts[e]);
  }
}

bool Match::UsesDataEdge(EdgeId de) const {
  const EdgeId* edges = edge_slots();
  for (int qe : bound_edges_) {
    if (edges[qe] == de) return true;
  }
  return false;
}

Timestamp Match::edge_ts(QueryEdgeId qe) const {
  SW_DCHECK(HasEdge(qe));
  return ts_slots()[qe];
}

Timestamp Match::min_ts() const {
  SW_DCHECK(!bound_edges_.Empty());
  return min_ts_;
}

Timestamp Match::max_ts() const {
  SW_DCHECK(!bound_edges_.Empty());
  return max_ts_;
}

bool Match::FitsWindowWith(Timestamp ts, Timestamp window) const {
  if (bound_edges_.Empty()) return true;
  const Timestamp lo = std::min(min_ts_, ts);
  const Timestamp hi = std::max(max_ts_, ts);
  return hi - lo < window;
}

EdgeId Match::MaxDataEdgeId() const {
  SW_DCHECK(!bound_edges_.Empty());
  const EdgeId* edges = edge_slots();
  EdgeId max_id = 0;
  for (int qe : bound_edges_) {
    max_id = std::max(max_id, edges[qe]);
  }
  return max_id;
}

uint64_t Match::MappingSignature() const {
  // Ordered fold over ascending query ids: equal mappings hash equal.
  const VertexId* vertex_map = vertex_slots();
  const EdgeId* edge_map = edge_slots();
  uint64_t h = 0x5741d8a3c5u;
  for (int qv : bound_vertices_) {
    h = HashCombine(h, (static_cast<uint64_t>(qv) << 32) ^ vertex_map[qv]);
  }
  for (int qe : bound_edges_) {
    h = HashCombine(h, (static_cast<uint64_t>(qe + 64) << 32) ^
                           Mix64(edge_map[qe]));
  }
  return h;
}

uint64_t Match::ExternalMappingSignature(const DynamicGraph& graph) const {
  const VertexId* vertex_map = vertex_slots();
  const EdgeId* edge_map = edge_slots();
  uint64_t h = 0x5741d8a3c5u;
  for (int qv : bound_vertices_) {
    h = HashCombine(h, (static_cast<uint64_t>(qv) << 32) ^
                           Mix64(graph.external_id(vertex_map[qv])));
  }
  for (int qe : bound_edges_) {
    h = HashCombine(h, (static_cast<uint64_t>(qe + 64) << 32) ^
                           Mix64(edge_map[qe]));
  }
  return h;
}

uint64_t Match::EdgeSetSignature() const {
  // XOR of per-edge hashes: order-independent over the data edge *set*.
  const EdgeId* edges = edge_slots();
  uint64_t h = Mix64(static_cast<uint64_t>(bound_edges_.Count()) + 1);
  for (int qe : bound_edges_) {
    h ^= Mix64(edges[qe] + 0x9e37u);
  }
  return h;
}

bool operator==(const Match& a, const Match& b) {
  if (a.num_vertices_ != b.num_vertices_ || a.num_edges_ != b.num_edges_) {
    return false;
  }
  const VertexId* vertices = a.vertex_slots();
  const EdgeId* edges = a.edge_slots();
  return std::equal(vertices, vertices + a.num_vertices_, b.vertex_slots()) &&
         std::equal(edges, edges + a.num_edges_, b.edge_slots());
}

Match Match::Union(const Match& a, const Match& b) {
  SW_DCHECK(!a.bound_edges().Intersects(b.bound_edges()))
      << "joining matches with overlapping query edges";
  Match out = a;
  const VertexId* vertices = b.vertex_slots();
  for (int qv : b.bound_vertices_) {
    out.BindVertex(static_cast<QueryVertexId>(qv), vertices[qv]);
  }
  const EdgeId* edges = b.edge_slots();
  const Timestamp* ts = b.ts_slots();
  for (int qe : b.bound_edges_) {
    out.BindEdge(static_cast<QueryEdgeId>(qe), edges[qe], ts[qe]);
  }
  return out;
}

std::string Match::ToString() const {
  // Direct string building, not ostringstream: every streamed EVENT line
  // renders a match, so this runs once per delivered match on the pump's
  // hot path.
  std::string out;
  out.reserve(64);
  out += '{';
  bool first = true;
  for (int qv : bound_vertices_) {
    if (!first) out += ", ";
    first = false;
    out += 'v';
    out += std::to_string(qv);
    out += "->";
    out += std::to_string(vertex_slots()[qv]);
  }
  out += " | ";
  first = true;
  for (int qe : bound_edges_) {
    if (!first) out += ", ";
    first = false;
    out += 'e';
    out += std::to_string(qe);
    out += "->#";
    out += std::to_string(edge_slots()[qe]);
    out += '@';
    out += std::to_string(ts_slots()[qe]);
  }
  out += '}';
  if (!bound_edges_.Empty()) {
    out += " span=";
    out += std::to_string(Span());
  }
  return out;
}

std::string Match::ToExternalString(const DynamicGraph& graph) const {
  std::string out;
  out.reserve(64);
  out += '{';
  bool first = true;
  for (int qv : bound_vertices_) {
    if (!first) out += ", ";
    first = false;
    out += 'v';
    out += std::to_string(qv);
    out += "->";
    out += std::to_string(graph.external_id(vertex_slots()[qv]));
  }
  out += " | ";
  first = true;
  for (int qe : bound_edges_) {
    if (!first) out += ", ";
    first = false;
    out += 'e';
    out += std::to_string(qe);
    out += "->#";
    out += std::to_string(edge_slots()[qe]);
    out += '@';
    out += std::to_string(ts_slots()[qe]);
  }
  out += '}';
  if (!bound_edges_.Empty()) {
    out += " span=";
    out += std::to_string(Span());
  }
  return out;
}

bool JoinCompatible(const Match& a, const Match& b, Timestamp window) {
  if (a.bound_edges().Intersects(b.bound_edges())) return false;
  if (a.bound_edges().Empty() || b.bound_edges().Empty()) return false;

  // Combined time span must respect the strict window.
  const Timestamp lo = std::min(a.min_ts(), b.min_ts());
  const Timestamp hi = std::max(a.max_ts(), b.max_ts());
  if (hi - lo >= window) return false;

  // Shared query vertices must agree; exclusive ones must stay injective.
  const Bitset64 shared = a.bound_vertices() & b.bound_vertices();
  for (int qv : shared) {
    if (a.vertex(static_cast<QueryVertexId>(qv)) !=
        b.vertex(static_cast<QueryVertexId>(qv))) {
      return false;
    }
  }
  for (int qv : b.bound_vertices() - shared) {
    if (a.UsesDataVertex(b.vertex(static_cast<QueryVertexId>(qv)))) {
      return false;
    }
  }

  // No data edge may serve two query edges (parallel data edges are
  // distinct, but the same data edge must not be reused).
  for (int qe : b.bound_edges()) {
    if (a.UsesDataEdge(b.edge(static_cast<QueryEdgeId>(qe)))) return false;
  }
  return true;
}

}  // namespace streamworks
