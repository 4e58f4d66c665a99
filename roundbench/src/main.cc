// roundbench — the round engine and the deployed fleet under closed-loop load.
//
//   roundbench --workload conv_cached --seed 1 --seconds 10 --trace 0
//       [--cache roundbench/.cache] [--trace-dir .bench_build/runs]
//
// The harness plays the coordinator: it keeps K rounds in flight through
// engine::RoundScheduler with no collection window, so compute sets every
// number. Set-up (chain or fleet start, key ceremony, cache priming and the
// warm-up rounds) is repeated `setups` times and timed; the last set-up then
// runs the timed window. Every round's output is checked. The last stdout
// line is one JSON object of raw facts that run.py turns into metrics.

#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "harness.h"
#include "src/client/dialing_fetcher.h"
#include "src/engine/round_scheduler.h"
#include "src/noise/noise_gen.h"
#include "src/obs/registry.h"
#include "src/transport/dist_router.h"
#include "src/transport/hop_chain.h"
#include "src/transport/tcp_transport.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace roundbench {
namespace {

namespace coord = vuvuzela::coord;
namespace crypto = vuvuzela::crypto;
namespace engine = vuvuzela::engine;
namespace mixnet = vuvuzela::mixnet;
namespace transport = vuvuzela::transport;
namespace util = vuvuzela::util;
namespace wire = vuvuzela::wire;

constexpr size_t kDistributionKeep = 16;
constexpr uint64_t kCacheBytes = 2ULL << 30;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cache_dir = "roundbench/.cache";
  std::string trace_dir = ".bench_build/runs";
  uint64_t generate = 0;  // only fill the onion cache up to this many entries
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--cache") {
      a.cache_dir = v;
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else if (k == "--generate") {
      a.generate = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.seconds <= 0) {
    return std::nullopt;
  }
  return a;
}

std::string ExeDir() {
  return std::filesystem::canonical("/proc/self/exe").parent_path().string();
}

mixnet::ChainConfig MakeChainConfig(const WorkloadSpec& spec) {
  // The daemons' own configuration (daemons/hopd_main.cc): exactly µ noise
  // per hop (§8.1), one dead-drop shard per pool worker.
  mixnet::ChainConfig config;
  config.num_servers = kChainLength;
  config.conversation_noise = {.params = {spec.mu, spec.mu / 20.0 + 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {kDialMu, kDialMu / 20.0 + 1.0},
                          .deterministic = true};
  config.parallel = true;
  config.exchange_shards = 0;
  return config;
}

// --- The program under test -----------------------------------------------------

class System {
 public:
  virtual ~System() = default;
  engine::RoundScheduler& scheduler() { return *scheduler_; }
  // Downloads one bucket of a published dialing round.
  virtual std::vector<wire::Invitation> Fetch(uint64_t round, uint32_t drop,
                                              uint32_t num_drops) = 0;
  // CPU seconds of the program's own processes (this process included).
  virtual double ProgramCpuSeconds() = 0;
  virtual void ResetPeakRss() = 0;
  virtual double PeakRssMb() = 0;
  // Layer counters read before and after a window (traced runs).
  virtual std::map<std::string, double> Counters() = 0;
  // Orderly shutdown; false if any process failed to exit cleanly.
  virtual bool Shutdown() { return true; }

 protected:
  std::unique_ptr<engine::RoundScheduler> scheduler_;
};

class InProcessSystem final : public System {
 public:
  InProcessSystem(const WorkloadSpec& spec, const transport::ChainKeyMaterial& keys,
                  const ClientModel& model, SpanLog* trace) {
    servers_ = transport::BuildMixServers(MakeChainConfig(spec), keys);
    if (spec.static_keys) {
      for (auto& server : servers_) {
        server->PrimeClientSecrets(model.client_public_keys());
      }
    }
    auto hops = transport::MakeLocalTransports(servers_);
    coord::DistributionBackend* dist = &distributor_;
    if (trace != nullptr) {
      exchange_ = TimeExchange(util::GlobalPool().num_threads(), *trace);
      servers_.back()->SetExchangeBackend(exchange_.get());
      for (size_t i = 0; i < hops.size(); ++i) {
        hops[i] = TimeHop(std::move(hops[i]), *trace, i);
      }
      timed_dist_ = TimeDistribution(distributor_, *trace);
      dist = timed_dist_.get();
    }
    scheduler_ = std::make_unique<engine::RoundScheduler>(
        std::move(hops), engine::SchedulerConfig{.max_in_flight = kMaxInFlight,
                                                 .distribution = dist,
                                                 .distribution_keep = kDistributionKeep});
  }
  ~InProcessSystem() override { scheduler_.reset(); }

  std::vector<wire::Invitation> Fetch(uint64_t round, uint32_t drop, uint32_t) override {
    return distributor_.Fetch(round, drop);
  }
  double ProgramCpuSeconds() override { return ProcessCpuSeconds(0); }
  void ResetPeakRss() override { roundbench::ResetPeakRss(0); }
  double PeakRssMb() override { return roundbench::PeakRssMb(0); }
  std::map<std::string, double> Counters() override {
    std::map<std::string, double> out;
    for (size_t i = 0; i < servers_.size(); ++i) {
      auto s = servers_[i]->secret_cache().GetStats();
      std::string p = "cache.hop" + std::to_string(i) + ".";
      out[p + "hits"] = static_cast<double>(s.hits);
      out[p + "misses"] = static_cast<double>(s.misses);
      out[p + "evictions"] = static_cast<double>(s.evictions);
    }
    return out;
  }

 private:
  std::vector<std::unique_ptr<mixnet::MixServer>> servers_;
  coord::InvitationDistributor distributor_;
  std::unique_ptr<vuvuzela::deaddrop::ExchangeBackend> exchange_;
  std::unique_ptr<coord::DistributionBackend> timed_dist_;
};

class FleetSystem final : public System {
 public:
  static std::unique_ptr<FleetSystem> Start(const WorkloadSpec& spec, uint64_t chain_seed,
                                            SpanLog* trace) {
    std::unique_ptr<FleetSystem> f(new FleetSystem());
    std::string bin = ExeDir() + "/";
    auto fmt = [](double v) {
      std::ostringstream s;
      s << v;
      return s.str();
    };
    f->exchanged_ = Daemon::Spawn({bin + "vuvuzela-exchanged", "--shard", "0", "--shards", "1",
                                   "--port", "0", "--metrics-port", "0"});
    f->distd_ = Daemon::Spawn({bin + "vuvuzela-distd", "--shard", "0", "--shards", "1", "--port",
                               "0", "--max-rounds", std::to_string(kDistributionKeep),
                               "--metrics-port", "0"});
    if (!f->exchanged_ || !f->distd_ || !f->exchanged_->WaitReady() || !f->distd_->WaitReady()) {
      return nullptr;
    }
    for (size_t i = 0; i < kChainLength; ++i) {
      std::vector<std::string> argv = {bin + "vuvuzela-hopd", "--position", std::to_string(i),
                                       "--servers", std::to_string(kChainLength), "--seed",
                                       std::to_string(chain_seed), "--mu", fmt(spec.mu),
                                       "--dial-mu", fmt(kDialMu), "--port", "0",
                                       "--metrics-port", "0"};
      if (i + 1 == kChainLength) {
        argv.push_back("--exchange");
        argv.push_back("127.0.0.1:" + std::to_string(f->exchanged_->port()));
      }
      f->hopd_.push_back(Daemon::Spawn(argv));
      if (!f->hopd_.back()) {
        return nullptr;
      }
    }
    std::vector<std::unique_ptr<transport::HopTransport>> hops;
    for (size_t i = 0; i < kChainLength; ++i) {
      if (!f->hopd_[i]->WaitReady()) {
        return nullptr;
      }
      auto tcp = transport::TcpTransport::Connect({.port = f->hopd_[i]->port()});
      if (!tcp) {
        return nullptr;
      }
      f->tcp_.push_back(tcp.get());
      hops.push_back(trace != nullptr ? TimeHop(std::move(tcp), *trace, i)
                                      : std::move(tcp));
    }
    f->router_ = transport::DistRouter::Connect(
        {.shards = {{.port = f->distd_->port()}}, .keep_rounds = kDistributionKeep});
    if (!f->router_) {
      return nullptr;
    }
    coord::DistributionBackend* dist = f->router_.get();
    if (trace != nullptr) {
      f->timed_dist_ = TimeDistribution(*f->router_, *trace);
      dist = f->timed_dist_.get();
    }
    f->fetcher_ = std::make_unique<vuvuzela::client::DialingFetcher>(
        vuvuzela::client::DialingFetcherConfig{.shards = {{.port = f->distd_->port()}}});
    f->scheduler_ = std::make_unique<engine::RoundScheduler>(
        std::move(hops), engine::SchedulerConfig{.max_in_flight = kMaxInFlight,
                                                 .distribution = dist,
                                                 .distribution_keep = kDistributionKeep});
    return f;
  }

  ~FleetSystem() override { Shutdown(); }

  bool Shutdown() override {
    if (scheduler_) {
      scheduler_->Drain();
      for (auto* tcp : tcp_) {
        tcp->SendShutdown();  // the last hop forwards it to exchanged
      }
      scheduler_.reset();
    }
    if (router_) {
      router_->SendShutdown();
      router_.reset();
    }
    bool clean = true;
    for (auto* d : Daemons()) {
      clean = d->Stop(5.0) && clean;
    }
    return clean;
  }

  std::vector<wire::Invitation> Fetch(uint64_t round, uint32_t drop,
                                      uint32_t num_drops) override {
    return fetcher_->FetchBucket(round, drop, num_drops);
  }
  double ProgramCpuSeconds() override {
    double total = ProcessCpuSeconds(0);
    for (auto* d : Daemons()) {
      total += ProcessCpuSeconds(d->pid());
    }
    return total;
  }
  void ResetPeakRss() override {
    for (auto* d : Daemons()) {
      roundbench::ResetPeakRss(d->pid());
    }
  }
  double PeakRssMb() override {
    double total = 0;
    for (auto* d : Daemons()) {
      total += roundbench::PeakRssMb(d->pid());
    }
    return total;
  }
  std::map<std::string, double> Counters() override {
    std::map<std::string, double> out;
    auto take = [&](const std::string& prefix, const Daemon& d) {
      for (const auto& [name, value] : ScrapeMetrics(d.metrics_port())) {
        out[prefix + name] = value;
      }
    };
    for (size_t i = 0; i < hopd_.size(); ++i) {
      take("hop" + std::to_string(i) + ".", *hopd_[i]);
    }
    take("exchanged.", *exchanged_);
    take("distd.", *distd_);
    for (const auto& [name, value] :
         ParseMetrics(vuvuzela::obs::Registry::Global().RenderPrometheus())) {
      out["self." + name] = value;
    }
    return out;
  }

 private:
  FleetSystem() = default;
  std::vector<Daemon*> Daemons() {
    std::vector<Daemon*> out;
    for (auto& d : hopd_) {
      out.push_back(d.get());
    }
    for (auto* d : {exchanged_.get(), distd_.get()}) {
      if (d != nullptr) {
        out.push_back(d);
      }
    }
    return out;
  }

  std::unique_ptr<Daemon> exchanged_, distd_;
  std::vector<std::unique_ptr<Daemon>> hopd_;
  std::vector<transport::TcpTransport*> tcp_;  // owned by the scheduler's stages
  std::unique_ptr<transport::DistRouter> router_;
  std::unique_ptr<coord::DistributionBackend> timed_dist_;
  std::unique_ptr<vuvuzela::client::DialingFetcher> fetcher_;
};

// --- The closed-loop driver ----------------------------------------------------

template <typename T>
class Queue {
 public:
  explicit Queue(size_t capacity) : capacity_(capacity) {}
  void Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return items_.size() < capacity_; });
    items_.push_back(std::move(item));
    cv_.notify_all();
  }
  // nullopt once closed and empty.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    cv_.notify_all();
    return item;
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  size_t capacity_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

struct Window {
  uint64_t entries = 0;  // schedule entries submitted
  uint64_t conv_rounds = 0, dial_rounds = 0;
  uint64_t failed = 0;  // rounds that threw or failed a check
  uint64_t messages = 0;
  uint64_t fetches = 0, fetch_errors = 0;
  double wall = 0;           // first submit to the last result or download
  double submit_blocked = 0;  // driver time inside Submit* calls
  double program_cpu = 0, loadgen_cpu = 0;
  double peak_rss_mb = 0;
  bool ran_out = false;  // pre-generated entries ended before the window
  double result_rate = 0;  // round results per second once the pipeline is full
  std::vector<double> conv_latency, dial_latency;
  // Timelines, in seconds since the first submit: when each conversation
  // round, dialing round and bucket download finished, each conversation
  // round's messages, and the program's CPU seconds (load generator
  // included) when it finished. run.py splits the window into sub-windows
  // with them.
  std::vector<Clock::time_point> conv_at, dial_at, fetch_at;
  std::vector<double> conv_done, dial_done, fetch_done, conv_messages, conv_cpu;
  std::vector<std::string> errors;
  std::map<std::string, double> counters_before, counters_after;
};

struct Expectation {
  uint64_t exchanged = 0;  // messages_exchanged every conversation round must report
  size_t response_size = 0;
};

class Driver {
 public:
  Driver(const ClientModel& model, OnionStore& store, const Expectation& expect)
      : model_(model), store_(store), expect_(expect) {}

  // Runs entries [first, end) or until `seconds` elapse, whichever ends
  // first, keeping the pipeline full.
  Window Run(System& system, uint64_t first, uint64_t end, double seconds, SpanLog* trace,
             bool measure) {
    Window w;
    if (measure) {
      w.counters_before = system.Counters();
      system.ResetPeakRss();
    }
    end = std::min(end, store_.available());
    const double cpu_before = system.ProgramCpuSeconds();
    const double main_cpu0 = ThreadCpuSeconds();
    std::atomic<double> loadgen_cpu{0};
    auto add_cpu = [&](double since) {
      double v = loadgen_cpu.load();
      while (!loadgen_cpu.compare_exchange_weak(v, v + ThreadCpuSeconds() - since)) {
      }
    };

    Queue<RoundInput> inputs(2);
    std::atomic<bool> stop{false};
    std::thread loader([&] {
      double cpu0 = ThreadCpuSeconds();
      try {
        for (uint64_t i = first; i < end && !stop.load(); ++i) {
          inputs.Push(store_.Read(i));
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu_);
        w.failed++;
        w.errors.push_back(std::string("onion cache: ") + e.what());
      }
      inputs.Close();
      add_cpu(cpu0);
    });

    struct ConvPending {
      RoundInput in;  // onions moved out; samples kept for the check
      Clock::time_point submitted;
      std::future<mixnet::Chain::ConversationResult> result;
    };
    struct DialPending {
      uint64_t round;
      Clock::time_point submitted;
      std::future<mixnet::Chain::DialingResult> result;
    };
    Queue<ConvPending> conv_q(64);
    Queue<DialPending> dial_q(64);
    Clock::time_point first_result{}, last_result{}, last_done{};
    uint64_t results = 0;
    auto done_at = [&](Clock::time_point t, bool round_result) {
      std::lock_guard<std::mutex> lock(mu_);
      last_done = std::max(last_done, t);
      if (round_result) {
        first_result = results++ == 0 ? t : first_result;
        last_result = std::max(last_result, t);
      }
    };

    std::thread conv_collector([&] {
      double cpu0 = ThreadCpuSeconds();
      while (auto p = conv_q.Pop()) {
        try {
          auto result = p->result.get();
          auto t = Clock::now();
          done_at(t, true);
          if (trace != nullptr) {
            trace->CloseRound(p->in.round, trace->Now(), "round.conv", model_.spec().users);
          }
          double cpu = system.ProgramCpuSeconds() - cpu_before;
          std::string problem = CheckConversation(p->in, result);
          std::lock_guard<std::mutex> lock(mu_);
          w.messages += result.messages_exchanged;
          w.conv_latency.push_back(Seconds(p->submitted, t));
          w.conv_at.push_back(t);
          w.conv_messages.push_back(static_cast<double>(result.messages_exchanged));
          w.conv_cpu.push_back(cpu);
          if (!problem.empty()) {
            w.failed++;
            w.errors.push_back(problem);
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu_);
          w.failed++;
          w.errors.push_back(std::string("conversation round failed: ") + e.what());
        }
      }
      add_cpu(cpu0);
    });

    std::thread dial_collector([&] {
      double cpu0 = ThreadCpuSeconds();
      while (auto p = dial_q.Pop()) {
        std::string problem;
        try {
          p->result.get();
          auto t = Clock::now();
          done_at(t, true);
          if (trace != nullptr) {
            trace->CloseRound(p->round, trace->Now(), "round.dial", model_.spec().users);
          }
          {
            std::lock_guard<std::mutex> lock(mu_);
            w.dial_latency.push_back(Seconds(p->submitted, t));
            w.dial_at.push_back(t);
          }
          problem = FetchAndCheck(system, p->round, trace, w);
          done_at(Clock::now(), false);
        } catch (const std::exception& e) {
          problem = std::string("dialing round failed: ") + e.what();
        }
        if (!problem.empty()) {
          std::lock_guard<std::mutex> lock(mu_);
          w.failed++;
          w.errors.push_back(problem);
        }
      }
      add_cpu(cpu0);
    });

    auto t0 = Clock::now();
    uint64_t submitted = 0;
    while (true) {
      if (Seconds(t0, Clock::now()) >= seconds) {
        break;
      }
      auto in = inputs.Pop();
      if (!in) {
        w.ran_out = measure;
        break;
      }
      auto before = Clock::now();
      if (trace != nullptr) {
        trace->OpenRound(in->round, trace->Now());
      }
      if (in->dialing) {
        auto f = system.scheduler().SubmitDialing(in->round, std::move(in->onions),
                                                  model_.total_drops());
        w.submit_blocked += Seconds(before, Clock::now());
        dial_q.Push({in->round, before, std::move(f)});
        w.dial_rounds++;
      } else {
        auto onions = std::move(in->onions);
        in->onions.clear();
        auto f = system.scheduler().SubmitConversation(in->round, std::move(onions));
        w.submit_blocked += Seconds(before, Clock::now());
        conv_q.Push({std::move(*in), before, std::move(f)});
        w.conv_rounds++;
      }
      submitted++;
    }
    stop = true;
    conv_q.Close();
    dial_q.Close();
    // Unblock the loader if it waits on a full queue.
    while (inputs.Pop()) {
    }
    loader.join();
    conv_collector.join();
    dial_collector.join();
    add_cpu(main_cpu0);
    w.entries = submitted;
    w.wall = Seconds(t0, last_done == Clock::time_point{} ? Clock::now() : last_done);
    if (results > 1) {
      w.result_rate = static_cast<double>(results - 1) / Seconds(first_result, last_result);
    }
    for (auto [at, done] : {std::pair{&w.conv_at, &w.conv_done}, std::pair{&w.dial_at, &w.dial_done},
                            std::pair{&w.fetch_at, &w.fetch_done}}) {
      for (auto t : *at) {
        done->push_back(Seconds(t0, t));
      }
    }
    w.loadgen_cpu = loadgen_cpu.load();
    w.program_cpu = system.ProgramCpuSeconds() - cpu_before - w.loadgen_cpu;
    if (measure) {
      w.peak_rss_mb = system.PeakRssMb();
      w.counters_after = system.Counters();
    }
    return w;
  }

 private:
  std::string CheckConversation(const RoundInput& in,
                                const mixnet::Chain::ConversationResult& result) {
    std::string at = " in round " + std::to_string(in.round);
    if (result.messages_exchanged != expect_.exchanged) {
      return "messages_exchanged " + std::to_string(result.messages_exchanged) + " != " +
             std::to_string(expect_.exchanged) + at;
    }
    if (result.responses.size() != model_.spec().users) {
      return "responses " + std::to_string(result.responses.size()) + " != onions" + at;
    }
    for (const auto& r : result.responses) {
      if (r.size() != expect_.response_size) {
        return "response of " + std::to_string(r.size()) + " bytes" + at;
      }
    }
    for (size_t k = 0; k < in.sample_users.size(); ++k) {
      uint32_t u = in.sample_users[k];
      auto opened = crypto::OnionOpenResponse(in.sample_keys[k], in.round, result.responses[u]);
      auto partner = model_.Exchange(in.round, u ^ 1u).envelope;
      if (!opened || !std::equal(opened->begin(), opened->end(), partner.begin(),
                                 partner.end())) {
        return "user " + std::to_string(u) + " did not receive its partner's envelope" + at;
      }
    }
    return "";
  }

  // Downloads every real bucket of a published dialing round and checks that
  // each real invitation deposited this round is in its bucket.
  std::string FetchAndCheck(System& system, uint64_t round, SpanLog* trace, Window& w) {
    std::vector<std::set<wire::Invitation>> buckets(kDialDrops);
    for (uint32_t d = 0; d < kDialDrops; ++d) {
      Span span;
      span.name = "dist.fetch";
      span.round = round;
      span.start = trace != nullptr ? trace->Now() : 0;
      std::vector<wire::Invitation> got;
      try {
        got = system.Fetch(round, d, model_.total_drops());
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu_);
        w.fetch_errors++;
        return std::string("bucket fetch failed: ") + e.what();
      }
      if (trace != nullptr) {
        span.end = trace->Now();
        span.items = got.size();
        span.bytes = got.size() * wire::kInvitationSize;
        trace->Record(std::move(span));
      }
      buckets[d].insert(got.begin(), got.end());
      std::lock_guard<std::mutex> lock(mu_);
      w.fetches++;
      w.fetch_at.push_back(Clock::now());
    }
    for (uint64_t u = 0; u < model_.dialers(); ++u) {
      auto req = model_.Dial(round, u);
      if (buckets[req.dead_drop_index].count(req.invitation) == 0) {
        return "invitation of user " + std::to_string(u) + " missing from bucket " +
               std::to_string(req.dead_drop_index) + " in round " + std::to_string(round);
      }
    }
    return "";
  }

  const ClientModel& model_;
  OnionStore& store_;
  Expectation expect_;
  std::mutex mu_;
};

// --- Output --------------------------------------------------------------------

std::string JsonList(const std::vector<double>& v) {
  std::ostringstream s;
  s.precision(9);
  s << "[";
  for (size_t i = 0; i < v.size(); ++i) {
    s << (i ? "," : "") << v[i];
  }
  s << "]";
  return s.str();
}

std::string JsonString(const std::string& v) {
  std::string out = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' || c == '\r') ? ' ' : c;
  }
  return out + "\"";
}

std::string WindowJson(const Window& w) {
  std::ostringstream s;
  s.precision(12);
  s << "{\"entries\":" << w.entries << ",\"conv_rounds\":" << w.conv_rounds
    << ",\"dial_rounds\":" << w.dial_rounds << ",\"failed\":" << w.failed
    << ",\"messages\":" << w.messages << ",\"fetches\":" << w.fetches
    << ",\"fetch_errors\":" << w.fetch_errors << ",\"wall\":" << w.wall
    << ",\"submit_blocked\":" << w.submit_blocked << ",\"program_cpu\":" << w.program_cpu
    << ",\"loadgen_cpu\":" << w.loadgen_cpu << ",\"peak_rss_mb\":" << w.peak_rss_mb
    << ",\"ran_out\":" << (w.ran_out ? "true" : "false")
    << ",\"conv_latency\":" << JsonList(w.conv_latency)
    << ",\"dial_latency\":" << JsonList(w.dial_latency)
    << ",\"conv_done\":" << JsonList(w.conv_done) << ",\"dial_done\":" << JsonList(w.dial_done)
    << ",\"fetch_done\":" << JsonList(w.fetch_done)
    << ",\"conv_messages\":" << JsonList(w.conv_messages)
    << ",\"conv_cpu\":" << JsonList(w.conv_cpu) << ",\"errors\":[";
  for (size_t i = 0; i < w.errors.size() && i < 5; ++i) {
    s << (i ? "," : "") << JsonString(w.errors[i]);
  }
  s << "],\"counters_before\":{";
  bool first = true;
  for (const auto& [k, v] : w.counters_before) {
    s << (first ? "" : ",") << JsonString(k) << ":" << v;
    first = false;
  }
  s << "},\"counters_after\":{";
  first = true;
  for (const auto& [k, v] : w.counters_after) {
    s << (first ? "" : ",") << JsonString(k) << ":" << v;
    first = false;
  }
  s << "}}";
  return s.str();
}

int Main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = args ? FindWorkload(args->workload) : nullptr;
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "usage: roundbench --workload conv_cached|conv_dh|fleet_tcp --seed N "
                 "--seconds S [--trace 0|1] [--cache DIR] [--trace-dir DIR]\n");
    return 2;
  }
  // One chain per seed; the daemons derive the same keys from the same seed.
  const uint64_t chain_seed = args->seed * 7919 + 17;
  transport::ChainKeyMaterial keys = transport::DeriveChainKeys(chain_seed, kChainLength);
  ClientModel model(*spec, args->seed, keys.public_keys);
  OnionStore store(model, args->cache_dir);
  if (args->generate != 0) {
    store.Ensure(args->generate);
    return 0;
  }

  Expectation expect;
  {
    util::Xoshiro256Rng unused(0);
    auto plan = vuvuzela::noise::PlanConversationNoise(MakeChainConfig(*spec).conversation_noise,
                                                       unused);
    expect.exchanged = spec->users + (kChainLength - 1) * 2 * plan.pairs;
    expect.response_size = crypto::OnionResponseSize(wire::kEnvelopeSize, kChainLength);
  }

  const uint64_t warmup = spec->warmup_rounds;
  auto plan_entries = [&](double rate) {
    return warmup + static_cast<uint64_t>(1.5 * rate * args->seconds) + 2 * kMaxInFlight;
  };
  // Missing onions are wrapped by a separate harness process, so the
  // allocations and writes of generation never shape the measuring process:
  // a run on a cold cache measures the same as one on a warm cache.
  auto ensure = [&](uint64_t entries) {
    double seconds = 0;
    if (!store.Has(entries)) {
      auto t = Clock::now();
      auto gen = Daemon::Spawn({ExeDir() + "/roundbench", "--workload", spec->name, "--seed",
                                std::to_string(args->seed), "--seconds", "1", "--cache",
                                args->cache_dir, "--generate", std::to_string(entries)});
      if (!gen || !gen->Stop(150.0)) {
        throw std::runtime_error("onion generation failed");
      }
      seconds = Seconds(t, Clock::now());
    }
    store.Ensure(entries);
    store.Trim(kCacheBytes);
    return seconds;
  };
  double gen_seconds = ensure(plan_entries(spec->initial_rate));

  Driver driver(model, store, expect);
  auto make_system = [&](SpanLog* trace) -> std::unique_ptr<System> {
    if (spec->topology == Topology::kFleet) {
      return FleetSystem::Start(*spec, chain_seed, trace);
    }
    return std::make_unique<InProcessSystem>(*spec, keys, model, trace);
  };

  // Set-up, repeated; the last one stays up for the untraced window.
  std::vector<double> setup_s;
  std::unique_ptr<System> system;
  double warmup_rate = spec->initial_rate;
  bool clean_exit = true;
  for (uint32_t i = 0; i < kSetups; ++i) {
    if (system) {
      clean_exit = system->Shutdown() && clean_exit;
      system.reset();
    }
    auto t = Clock::now();
    system = make_system(nullptr);
    if (!system) {
      std::fprintf(stderr, "roundbench: set-up failed\n");
      return 1;
    }
    Window warm = driver.Run(*system, 0, warmup, 1e9, nullptr, false);
    setup_s.push_back(Seconds(t, Clock::now()));
    if (warm.failed != 0) {
      for (const auto& e : warm.errors) {
        std::fprintf(stderr, "roundbench: warm-up: %s\n", e.c_str());
      }
      return 1;
    }
    warmup_rate = warm.result_rate;
  }
  // The window's onions: top up to 1.5x the rate this build reached in the
  // warm-up, so a faster program does not run out. Off the clock.
  gen_seconds += ensure(std::max(plan_entries(warmup_rate), store.available()));
  // Hand the earlier set-ups' freed heap back to the kernel, so the window's
  // peak RSS starts from the live system alone.
  malloc_trim(0);

  std::vector<Window> results;
  results.push_back(driver.Run(*system, warmup, UINT64_MAX, args->seconds, nullptr, true));
  std::unique_ptr<SpanLog> trace;
  double wrap_s = 0;
  if (args->trace) {
    // The traced window replays the same entries on a fresh, traced system.
    clean_exit = system->Shutdown() && clean_exit;
    system.reset();
    trace = std::make_unique<SpanLog>();
    system = make_system(trace.get());
    if (!system) {
      std::fprintf(stderr, "roundbench: traced set-up failed\n");
      return 1;
    }
    driver.Run(*system, 0, warmup, 1e9, trace.get(), false);
    trace->Clear();
    results.push_back(driver.Run(*system, warmup, UINT64_MAX, args->seconds, trace.get(), true));
    // Client wrap cost of one conversation round (load generator, not program).
    uint64_t conv_entry = warmup;
    while (model.IsDialing(conv_entry)) {
      conv_entry++;
    }
    auto t = Clock::now();
    model.Generate(conv_entry);
    wrap_s = Seconds(t, Clock::now());
  }
  auto sched_stats = system->scheduler().stats();
  clean_exit = system->Shutdown() && clean_exit;
  system.reset();

  std::string spans_path;
  if (trace) {
    std::filesystem::create_directories(args->trace_dir);
    spans_path = args->trace_dir + "/" + spec->name + "-" + std::to_string(args->seed) + ".jsonl";
    if (!trace->WriteJsonl(spans_path)) {
      std::fprintf(stderr, "roundbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }

  std::ostringstream out;
  out.precision(12);
  out << "{\"workload\":" << JsonString(spec->name) << ",\"seed\":" << args->seed
      << ",\"seconds\":" << args->seconds << ",\"users\":" << spec->users
      << ",\"mu\":" << spec->mu << ",\"k\":" << kMaxInFlight
      << ",\"dial_drops\":" << kDialDrops << ",\"in_process\":"
      << (spec->topology == Topology::kInProcess ? "true" : "false")
      << ",\"expected_exchanged\":" << expect.exchanged << ",\"setup_s\":" << JsonList(setup_s)
      << ",\"gen_seconds\":" << gen_seconds << ",\"wrap_s\":" << wrap_s
      << ",\"max_in_flight\":" << sched_stats.max_observed_in_flight
      << ",\"clean_exit\":" << (clean_exit ? "true" : "false")
      << ",\"spans\":" << JsonString(spans_path) << ",\"windows\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    out << (i ? "," : "") << WindowJson(results[i]);
  }
  out << "]}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace roundbench

int main(int argc, char** argv) {
  try {
    return roundbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roundbench: %s\n", e.what());
    return 1;
  }
}
