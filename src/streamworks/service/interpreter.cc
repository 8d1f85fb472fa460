#include "streamworks/service/interpreter.h"

#include <algorithm>
#include <array>
#include <cctype>

#include "streamworks/common/str_util.h"
#include "streamworks/obs/json_render.h"
#include "streamworks/stream/wire_format.h"

namespace streamworks {

namespace {

/// Widest command in the grammar: SUBMIT with every option pair is 12
/// tokens. Anything longer is malformed by construction.
constexpr size_t kMaxCommandTokens = 16;

/// Whitespace-splits `line` into string_views over its bytes (multiple
/// separators collapse). Zero allocations — the FEED hot path runs through
/// here once per edge. Returns the token count, or SIZE_MAX when the line
/// has more than kMaxCommandTokens tokens.
size_t Tokenize(std::string_view line,
                std::array<std::string_view, kMaxCommandTokens>* out) {
  size_t count = 0;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size()) break;
    const size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (count == kMaxCommandTokens) return SIZE_MAX;
    (*out)[count++] = line.substr(start, i - start);
  }
  return count;
}

}  // namespace

CommandInterpreter::CommandInterpreter(QueryService* service,
                                       Interner* interner, std::ostream* out)
    : service_(service), interner_(interner), out_(out) {}

Status CommandInterpreter::Emit(const std::string& line) {
  if (out_ != nullptr) *out_ << line << "\n";
  return OkStatus();
}

Status CommandInterpreter::ExecuteScript(std::string_view script) {
  for (std::string_view line : Split(script, '\n')) {
    SW_RETURN_IF_ERROR(ExecuteLine(line));
  }
  if (in_define_) {
    return Status::InvalidArgument("script ended inside DEFINE " +
                                   define_name_ + " (missing END)");
  }
  return OkStatus();
}

StatusOr<std::pair<int, int>> CommandInterpreter::ResolveSubscription(
    std::string_view session, std::string_view sub) const {
  auto session_it = session_ids_.find(session);
  if (session_it == session_ids_.end()) {
    return Status::NotFound("unknown session: " + std::string(session));
  }
  auto sub_it = subscription_ids_.find(std::make_pair(session, sub));
  if (sub_it == subscription_ids_.end()) {
    return Status::NotFound("unknown subscription: " + std::string(session) +
                            "." + std::string(sub));
  }
  return std::make_pair(session_it->second, sub_it->second);
}

Status CommandInterpreter::ExecuteLine(std::string_view line) {
  ++line_number_;
  const std::string_view stripped = StripWhitespace(line);
  if (stripped.empty() || stripped[0] == '#') return OkStatus();

  const auto error = [this](std::string_view msg) {
    return Status::InvalidArgument("line " + std::to_string(line_number_) +
                                   ": " + std::string(msg));
  };

  if (in_define_) {
    if (stripped == "END") {
      in_define_ = false;
      auto parsed = ParseQueryText(define_body_, interner_);
      if (!parsed.ok()) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number_) + ": DEFINE " +
            define_name_ + ": " + parsed.status().message());
      }
      definitions_.insert_or_assign(define_name_, std::move(parsed).value());
      ++commands_executed_;
      return Emit("OK define " + define_name_);
    }
    define_body_ += std::string(stripped);
    define_body_ += '\n';
    return OkStatus();
  }

  std::array<std::string_view, kMaxCommandTokens> token_storage;
  const size_t num_tokens = Tokenize(stripped, &token_storage);
  if (num_tokens == SIZE_MAX) {
    return error("too many tokens (max " +
                 std::to_string(kMaxCommandTokens) + ")");
  }
  const Tokens tokens(token_storage.data(), num_tokens);
  const std::string_view verb = tokens[0];

  Status status = OkStatus();
  if (verb == "DEFINE") {
    if (tokens.size() != 2) return error("DEFINE takes one name");
    in_define_ = true;
    define_name_ = std::string(tokens[1]);
    define_body_ = "query " + define_name_ + "\n";
    return OkStatus();  // counted when END closes the block
  } else if (verb == "SESSION") {
    status = HandleSession(tokens);
  } else if (verb == "ATTACH") {
    status = HandleAttach(tokens);
  } else if (verb == "SNAPSHOT") {
    if (tokens.size() != 1) {
      return error("SNAPSHOT takes no arguments");
    }
    if (!snapshot_hook_) {
      return error(
          "SNAPSHOT: this deployment has no durability layer (run with a "
          "data dir)");
    }
    auto result = snapshot_hook_();
    status = result.ok() ? Emit("OK snapshot " + result.value())
                         : result.status();
  } else if (verb == "SUBMIT") {
    status = HandleSubmit(tokens);
  } else if (verb == "PAUSE" || verb == "RESUME" || verb == "DETACH") {
    status = HandleLifecycle(verb, tokens);
  } else if (verb == "FEED") {
    status = HandleFeed(tokens);
  } else if (verb == "FLUSH") {
    service_->Flush();
    status = Emit("OK flush");
  } else if (verb == "POLL") {
    status = HandlePoll(tokens);
  } else if (verb == "STREAM" || verb == "UNSTREAM") {
    status = HandleStream(verb == "STREAM", tokens);
  } else if (verb == "STATS") {
    const bool json = tokens.size() == 2 && tokens[1] == "JSON";
    if (tokens.size() > 2 || (tokens.size() == 2 && !json)) {
      return error("STATS takes no arguments, or JSON");
    }
    service_->Flush();
    if (out_ != nullptr) {
      if (json) {
        *out_ << RenderStatsJson(service_->Snapshot()) << "\n";
      } else {
        *out_ << service_->Snapshot().ToString();
      }
    }
    status = OkStatus();
  } else if (verb == "TRACE") {
    if (tokens.size() != 1) return error("TRACE takes no arguments");
    if (pipeline_ == nullptr) {
      return error(
          "TRACE: this deployment has no pipeline instrumentation");
    }
    const std::string text =
        FormatTraceText(*pipeline_, PipelineMetrics::NowMicros());
    if (out_ != nullptr) *out_ << text;
    const size_t entries =
        static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
    status = Emit("OK trace n=" + std::to_string(entries));
  } else {
    return error("unknown command: " + std::string(verb));
  }
  if (!status.ok()) {
    return error(std::string(verb) + ": " + status.message());
  }
  ++commands_executed_;
  return OkStatus();
}

Status CommandInterpreter::ExecuteBatch(const EdgeBatch& batch) {
  size_t rejected = 0;
  // Like text FEED, a malformed edge inside the batch is counted by the
  // backend and the stream continues; the status itself is not an error.
  service_->FeedBatch(batch, &rejected).ok();
  ++commands_executed_;
  ++batch_frames_;
  batch_edges_ += batch.size();
  return Emit("OK feedb " + std::to_string(batch.size() - rejected) + " " +
              std::to_string(rejected));
}

Status CommandInterpreter::HandleSession(Tokens tokens) {
  if (tokens.size() != 2) return Status::InvalidArgument("takes one name");
  const std::string name(tokens[1]);
  SW_ASSIGN_OR_RETURN(const int id, service_->OpenSession(name));
  session_ids_[name] = id;
  return Emit("OK session " + name + " id=" + std::to_string(id));
}

Status CommandInterpreter::HandleAttach(Tokens tokens) {
  if (tokens.size() != 2) return Status::InvalidArgument("takes one name");
  const std::string name(tokens[1]);
  SW_ASSIGN_OR_RETURN(const AttachedSession attached,
                      service_->AttachSession(name));
  session_ids_[name] = attached.session_id;
  std::string subs;
  for (const AttachedSubscription& sub : attached.subscriptions) {
    if (sub.tag.empty()) continue;  // anonymous: unreachable by name
    subscription_ids_[{name, sub.tag}] = sub.subscription_id;
    if (attach_hook_) {
      attach_hook_(name, sub.tag, attached.session_id,
                   sub.subscription_id);
    }
    if (!subs.empty()) subs += ',';
    subs += sub.tag;
    // The state rides along so a reconnecting tenant can see that e.g.
    // a restored kBlock subscription came back paused and needs RESUME.
    subs += ':';
    subs += SubscriptionStateName(sub.state);
  }
  return Emit("OK attach " + name +
              " id=" + std::to_string(attached.session_id) + " subs=" +
              (subs.empty() ? "-" : subs));
}

Status CommandInterpreter::HandleSubmit(Tokens tokens) {
  if (tokens.size() < 4) {
    return Status::InvalidArgument(
        "usage: SUBMIT <session> <sub> <query> [WINDOW w] [CAP n] "
        "[POLICY p] [STRATEGY s]");
  }
  const std::string_view session_name = tokens[1];
  const std::string_view sub_name = tokens[2];
  const std::string_view query_name = tokens[3];

  auto session_it = session_ids_.find(session_name);
  if (session_it == session_ids_.end()) {
    return Status::NotFound("unknown session: " + std::string(session_name));
  }
  // A sub name addresses lifecycle commands, so a live one must not be
  // silently replaced; the name frees once its subscription detaches
  // (the detach/re-submit flow).
  auto existing =
      subscription_ids_.find(std::make_pair(session_name, sub_name));
  if (existing != subscription_ids_.end()) {
    auto state = service_->state(session_it->second, existing->second);
    if (state.ok() && *state != SubscriptionState::kDetached) {
      return Status::AlreadyExists("subscription name in use: " +
                                   std::string(session_name) + "." +
                                   std::string(sub_name));
    }
  }
  auto def_it = definitions_.find(query_name);
  if (def_it == definitions_.end()) {
    return Status::NotFound("undefined query: " + std::string(query_name));
  }

  SubmitOptions options;
  options.window = def_it->second.window;  // DSL window, unless overridden
  // The sub name doubles as the durable tag, so a recovered session's
  // subscriptions come back addressable under the same names via ATTACH.
  options.tag = std::string(sub_name);
  for (size_t i = 4; i + 1 < tokens.size(); i += 2) {
    const std::string_view key = tokens[i];
    const std::string_view value = tokens[i + 1];
    if (key == "WINDOW") {
      int64_t w = 0;
      if (!ParseInt64(value, &w) || w <= 0) {
        return Status::InvalidArgument("bad WINDOW: " + std::string(value));
      }
      options.window = w;
    } else if (key == "CAP") {
      uint64_t cap = 0;
      if (!ParseUint64(value, &cap) || cap == 0) {
        return Status::InvalidArgument("bad CAP: " + std::string(value));
      }
      options.queue_capacity = cap;
    } else if (key == "POLICY") {
      SW_ASSIGN_OR_RETURN(const OverflowPolicy policy,
                          ParseOverflowPolicy(value));
      options.policy = policy;
    } else if (key == "STRATEGY") {
      SW_ASSIGN_OR_RETURN(options.strategy, ParseDecompositionStrategy(value));
    } else {
      return Status::InvalidArgument("unknown SUBMIT option: " +
                                     std::string(key));
    }
  }
  if ((tokens.size() - 4) % 2 != 0) {
    return Status::InvalidArgument("dangling SUBMIT option value");
  }

  auto submitted =
      service_->Submit(session_it->second, def_it->second.graph, options);
  if (!submitted.ok()) {
    if (submitted.status().code() == StatusCode::kResourceExhausted) {
      // Admission rejection is a scenario outcome scripts assert on, not a
      // malformed script.
      return Emit("REJECTED " + std::string(session_name) + "." +
                  std::string(sub_name) + " " +
                  submitted.status().ToString());
    }
    return submitted.status();
  }
  subscription_ids_[{std::string(session_name), std::string(sub_name)}] =
      submitted.value();
  if (submit_hook_) {
    submit_hook_(session_name, sub_name, session_it->second,
                 submitted.value(), options);
  }
  return Emit("OK submit " + std::string(session_name) + "." +
              std::string(sub_name) +
              " id=" + std::to_string(submitted.value()));
}

Status CommandInterpreter::HandleLifecycle(std::string_view verb,
                                           Tokens tokens) {
  if (tokens.size() != 3) {
    return Status::InvalidArgument("usage: " + std::string(verb) +
                                   " <session> <sub>");
  }
  SW_ASSIGN_OR_RETURN(const auto ids,
                      ResolveSubscription(tokens[1], tokens[2]));
  if (verb == "PAUSE") {
    SW_RETURN_IF_ERROR(service_->Pause(ids.first, ids.second));
  } else if (verb == "RESUME") {
    SW_RETURN_IF_ERROR(service_->Resume(ids.first, ids.second));
  } else {
    // Detach after a flush so every edge fed before the DETACH line has
    // delivered its matches (script time is stream time).
    service_->Flush();
    SW_RETURN_IF_ERROR(service_->Detach(ids.first, ids.second));
  }
  return Emit("OK " + std::string(verb) + " " + std::string(tokens[1]) +
              "." + std::string(tokens[2]));
}

Status CommandInterpreter::HandleFeed(Tokens tokens) {
  StreamEdge edge;
  SW_RETURN_IF_ERROR(
      ParseFeedFields(tokens.subspan(1), interner_, &edge));
  // A malformed edge (time regression, label clash) is a stream property,
  // not a script error: the engine counts it and the stream continues.
  service_->Feed(edge).ok();
  return OkStatus();
}

Status CommandInterpreter::HandlePoll(Tokens tokens) {
  if (tokens.size() != 3) {
    return Status::InvalidArgument("usage: POLL <session> <sub>");
  }
  SW_ASSIGN_OR_RETURN(const auto ids,
                      ResolveSubscription(tokens[1], tokens[2]));
  // Matches still in flight on backend workers belong to this poll.
  service_->Flush();
  ResultQueue* queue = service_->queue(ids.first, ids.second);
  if (queue == nullptr) return Status::NotFound("subscription has no queue");
  const std::string label =
      std::string(tokens[1]) + "." + std::string(tokens[2]);
  std::vector<CompleteMatch> matches;
  queue->Drain(&matches);
  for (const CompleteMatch& cm : matches) {
    // Pre-rendered external-id form (see CompleteMatch::rendered): the
    // same match prints the same bytes under every deployment mode.
    Emit("MATCH " + label + " completed_at=" +
         std::to_string(cm.completed_at) + " " + cm.rendered);
  }
  return Emit("POLLED " + label + " n=" + std::to_string(matches.size()));
}

Status CommandInterpreter::HandleStream(bool enable, Tokens tokens) {
  if (tokens.size() != 3) {
    return Status::InvalidArgument(
        std::string("usage: ") + (enable ? "STREAM" : "UNSTREAM") +
        " <session> <sub>");
  }
  if (!stream_hook_) {
    return Status::Unimplemented(
        "this frontend has no push transport (STREAM needs the socket "
        "server)");
  }
  SW_ASSIGN_OR_RETURN(const auto ids,
                      ResolveSubscription(tokens[1], tokens[2]));
  SW_RETURN_IF_ERROR(
      stream_hook_(enable, tokens[1], tokens[2], ids.first, ids.second));
  return Emit(std::string("OK ") + (enable ? "stream " : "unstream ") +
              std::string(tokens[1]) + "." + std::string(tokens[2]));
}

}  // namespace streamworks
