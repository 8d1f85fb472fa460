// The Fig. 5 news event query typed location-edges-first, as
// bench_ablation_selectivity types it. Planner, engine and cluster suites
// use it to check that a plan does not depend on the order a query's
// edges were typed in.

#ifndef STREAMWORKS_TESTS_NEWS_QUERY_H_
#define STREAMWORKS_TESTS_NEWS_QUERY_H_

#include <string_view>
#include <vector>

#include "streamworks/common/str_util.h"
#include "streamworks/graph/query_graph.h"

namespace streamworks {

/// BuildNewsEventQuery's vertices (keyword 0, location 1, articles
/// 2..num_articles+1) with every hasLocation edge numbered before every
/// hasKeyword edge.
inline QueryGraph LocationFirstNewsQuery(Interner* interner,
                                         std::string_view topic,
                                         int num_articles = 3) {
  QueryGraphBuilder builder(interner);
  const QueryVertexId keyword = builder.AddVertex(topic);
  const QueryVertexId location = builder.AddVertex("Location");
  std::vector<QueryVertexId> articles;
  for (int i = 0; i < num_articles; ++i) {
    articles.push_back(builder.AddVertex("Article"));
  }
  for (const QueryVertexId a : articles) {
    builder.AddEdge(a, location, "hasLocation");
  }
  for (const QueryVertexId a : articles) {
    builder.AddEdge(a, keyword, "hasKeyword");
  }
  return builder
      .Build(StrCat("news_event_", topic, "_", num_articles, "_loc_first"))
      .value();
}

}  // namespace streamworks

#endif  // STREAMWORKS_TESTS_NEWS_QUERY_H_
