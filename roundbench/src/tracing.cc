// Span recording at the library's public seams, for the traced run only.
//
// Each decorator wraps one interface the round engine or the mix server
// calls through — transport::HopTransport, deaddrop::ExchangeBackend,
// coord::DistributionBackend — times the call and delegates unchanged. The
// untraced runs install none of them.

#include <cstdio>

#include "harness.h"

namespace roundbench {

namespace deaddrop = vuvuzela::deaddrop;
namespace mixnet = vuvuzela::mixnet;
namespace transport = vuvuzela::transport;
namespace wire = vuvuzela::wire;

void SpanLog::OpenRound(uint64_t round, double start) {
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = open_rounds_[round];
  span.id = next_id_++;
  span.start = start;
  span.round = round;
  round_ids_[round] = span.id;
}

void SpanLog::CloseRound(uint64_t round, double end, const std::string& name, uint64_t items) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_rounds_.find(round);
  if (it == open_rounds_.end()) {
    return;
  }
  Span span = it->second;
  open_rounds_.erase(it);
  span.name = name;
  span.end = end;
  span.items = items;
  spans_.push_back(std::move(span));
}

void SpanLog::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.id = next_id_++;
  auto it = round_ids_.find(span.round);
  span.parent = it == round_ids_.end() ? -1 : it->second;
  spans_.push_back(std::move(span));
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  open_rounds_.clear();
  round_ids_.clear();
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : Snapshot()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"round\":%llu,"
                 "\"start\":%.9f,\"end\":%.9f,\"items\":%llu,\"bytes\":%llu,\"noise\":%llu,"
                 "\"dh_ops\":%llu,\"dropped\":%llu,\"exchanged\":%llu}\n",
                 s.name.c_str(), static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.round), s.start, s.end,
                 static_cast<unsigned long long>(s.items), static_cast<unsigned long long>(s.bytes),
                 static_cast<unsigned long long>(s.noise),
                 static_cast<unsigned long long>(s.dh_ops),
                 static_cast<unsigned long long>(s.dropped),
                 static_cast<unsigned long long>(s.exchanged));
  }
  return std::fclose(f) == 0;
}

namespace {

uint64_t TotalBytes(const std::vector<Bytes>& batch) {
  uint64_t total = 0;
  for (const auto& item : batch) {
    total += item.size();
  }
  return total;
}

class TimedHop final : public transport::HopTransport {
 public:
  TimedHop(std::unique_ptr<transport::HopTransport> inner, SpanLog& log, std::string name)
      : inner_(std::move(inner)), log_(log), name_(std::move(name)) {}

  std::vector<Bytes> ForwardConversation(uint64_t round, std::vector<Bytes> batch,
                                         mixnet::ServerRoundStats* stats) override {
    return Timed("fwd", round, std::move(batch), stats, [&](auto b, auto* st) {
      return inner_->ForwardConversation(round, std::move(b), st);
    });
  }
  std::vector<Bytes> BackwardConversation(uint64_t round, std::vector<Bytes> responses,
                                          mixnet::ServerRoundStats* stats) override {
    return Timed("bwd", round, std::move(responses), stats, [&](auto b, auto* st) {
      return inner_->BackwardConversation(round, std::move(b), st);
    });
  }
  mixnet::MixServer::LastServerResult ProcessConversationLastHop(
      uint64_t round, std::vector<Bytes> batch, mixnet::ServerRoundStats* stats) override {
    Span span = Begin("last", round, batch);
    mixnet::ServerRoundStats local;
    auto result = inner_->ProcessConversationLastHop(round, std::move(batch), &local);
    span.bytes += TotalBytes(result.responses);
    span.exchanged = result.messages_exchanged;
    End(span, local, stats);
    return result;
  }
  std::vector<Bytes> ForwardDialing(uint64_t round, std::vector<Bytes> batch, uint32_t num_drops,
                                    mixnet::ServerRoundStats* stats) override {
    return Timed("dial", round, std::move(batch), stats, [&](auto b, auto* st) {
      return inner_->ForwardDialing(round, std::move(b), num_drops, st);
    });
  }
  deaddrop::InvitationTable ProcessDialingLastHop(uint64_t round, std::vector<Bytes> batch,
                                                  uint32_t num_drops,
                                                  mixnet::ServerRoundStats* stats) override {
    Span span = Begin("dial_last", round, batch);
    mixnet::ServerRoundStats local;
    auto table = inner_->ProcessDialingLastHop(round, std::move(batch), num_drops, &local);
    End(span, local, stats);
    return table;
  }
  void ExpireRounds(uint64_t newest_round, uint64_t keep) override {
    inner_->ExpireRounds(newest_round, keep);
  }

 private:
  Span Begin(const char* pass, uint64_t round, const std::vector<Bytes>& batch) {
    Span span;
    span.name = name_ + "." + pass;
    span.round = round;
    span.items = batch.size();
    span.bytes = TotalBytes(batch);
    span.start = log_.Now();
    return span;
  }
  void End(Span& span, const mixnet::ServerRoundStats& local, mixnet::ServerRoundStats* stats) {
    span.end = log_.Now();
    span.noise = local.noise_requests_added;
    span.dh_ops = local.dh_ops;
    span.dropped = local.requests_dropped;
    if (stats != nullptr) {
      *stats = local;
    }
    log_.Record(std::move(span));
  }
  template <typename Fn>
  std::vector<Bytes> Timed(const char* pass, uint64_t round, std::vector<Bytes> batch,
                           mixnet::ServerRoundStats* stats, Fn&& call) {
    Span span = Begin(pass, round, batch);
    mixnet::ServerRoundStats local;
    std::vector<Bytes> out = call(std::move(batch), &local);
    span.bytes += TotalBytes(out);
    End(span, local, stats);
    return out;
  }

  std::unique_ptr<transport::HopTransport> inner_;
  SpanLog& log_;
  std::string name_;
};

class TimedExchange final : public deaddrop::ExchangeBackend {
 public:
  TimedExchange(size_t shards, SpanLog& log) : inner_(shards), log_(log) {}

  deaddrop::ExchangeOutcome ExchangeConversation(
      uint64_t round, std::span<const wire::ExchangeRequest> requests) override {
    Span span;
    span.name = "deaddrop.exchange";
    span.round = round;
    span.items = requests.size();
    span.start = log_.Now();
    auto outcome = inner_.ExchangeConversation(round, requests);
    span.end = log_.Now();
    span.exchanged = outcome.messages_exchanged;
    log_.Record(std::move(span));
    return outcome;
  }
  deaddrop::InvitationTable BuildInvitationTable(
      uint64_t round, uint32_t num_drops, std::span<const wire::DialRequest> requests,
      std::span<const deaddrop::NoiseInvitation> noise) override {
    Span span;
    span.name = "deaddrop.invitations";
    span.round = round;
    span.items = requests.size() + noise.size();
    span.start = log_.Now();
    auto table = inner_.BuildInvitationTable(round, num_drops, requests, noise);
    span.end = log_.Now();
    log_.Record(std::move(span));
    return table;
  }

 private:
  deaddrop::InProcessExchangeBackend inner_;
  SpanLog& log_;
};

class TimedDistribution final : public vuvuzela::coord::DistributionBackend {
 public:
  TimedDistribution(vuvuzela::coord::DistributionBackend& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  void Publish(uint64_t round, deaddrop::InvitationTable table) override {
    Span span;
    span.name = "dist.publish";
    span.round = round;
    for (uint32_t d = 0; d < table.num_drops(); ++d) {
      span.items += table.Drop(d).size();
      span.bytes += table.DropBytes(d);
    }
    span.start = log_.Now();
    inner_.Publish(round, std::move(table));
    span.end = log_.Now();
    log_.Record(std::move(span));
  }
  std::vector<wire::Invitation> Fetch(uint64_t round, uint32_t drop_index) override {
    return inner_.Fetch(round, drop_index);
  }
  bool HasRound(uint64_t round) const override { return inner_.HasRound(round); }
  void Expire(size_t keep_latest) override { inner_.Expire(keep_latest); }
  uint64_t bytes_served() const override { return inner_.bytes_served(); }
  uint64_t downloads_served() const override { return inner_.downloads_served(); }

 private:
  vuvuzela::coord::DistributionBackend& inner_;
  SpanLog& log_;
};

}  // namespace

std::unique_ptr<transport::HopTransport> TimeHop(std::unique_ptr<transport::HopTransport> inner,
                                                 SpanLog& log, size_t hop) {
  return std::make_unique<TimedHop>(std::move(inner), log, "hop" + std::to_string(hop));
}

std::unique_ptr<deaddrop::ExchangeBackend> TimeExchange(size_t shards, SpanLog& log) {
  return std::make_unique<TimedExchange>(shards, log);
}

std::unique_ptr<vuvuzela::coord::DistributionBackend> TimeDistribution(
    vuvuzela::coord::DistributionBackend& inner, SpanLog& log) {
  return std::make_unique<TimedDistribution>(inner, log);
}

}  // namespace roundbench
