// The round engine (§8.3): the one driver every round runs through.
//
// The paper's headline throughput (68,000 messages/sec at 1M users) does not
// come from making one round faster — a round is latency-bound by the chain's
// sequential passes — but from overlapping rounds: "the Vuvuzela servers
// pipeline rounds: while the first server is collecting messages for one
// round, other servers process previous rounds" (§8.3). Lock-step execution,
// one round occupying the whole chain at a time, is the K=1 case of the same
// engine: sim::Deployment, the tests' and benches' lock-step rounds and the
// deployed coordinator all drive rounds here.
//
// RoundScheduler gives each server its own stage worker thread and moves a
// round across them: round r's forward pass at server 1 runs concurrently
// with round r+1's forward pass at server 0 and round r-1's return pass.
// Within one server, passes stay serialized (the §8.2 constraint: a server
// cannot start a pass until it has the previous hop's whole batch), which a
// single worker thread per server enforces by construction. Per-request
// crypto inside a pass still fans out over util::GlobalPool(), and the last
// hop's dead-drop exchange is sharded — across threads
// (deaddrop::ShardedExchangeRound) or across vuvuzela-exchanged shard-server
// processes when the last hop's MixServer carries a partitioned backend
// (transport::ExchangeRouter; the last-hop stage drives it transparently
// through ProcessConversationLastHop). The engine thus composes four layers
// of parallelism: cross-round pipelining, per-request crypto, sharded
// exchange, and exchange partitioning across processes.
//
// Dialing rounds gain a fifth layer when a coord::DistributionBackend is
// configured: an explicit Distribute stage publishes each finished round's
// invitation table into the distribution tier (in-process distributor or the
// sharded vuvuzela-distd fleet via transport::DistRouter) on its own stage
// worker, so the §5.5 download fan-out overlaps conversation rounds the same
// way every chain pass does.
//
// At most `max_in_flight` (K) rounds are admitted at once; Submit* blocks
// when the pipeline is full, which is the backpressure the paper gets from
// its fixed round epoch. Forward stages expire stalled per-round state
// (MixServer::ExpireRounds) as newer rounds flow through, so a round
// abandoned mid-pipeline — a crashed downstream server, a DoS — cannot pin
// server memory.
//
// Each stage drives a transport::HopTransport rather than a MixServer
// directly, so the same pipelining discipline runs over in-process servers
// (LocalTransport; transport::MakeLocalTransports builds them for a chain's
// servers) or remote per-hop daemons (TcpTransport, §7's one-process-per-
// server deployment). Decorators compose at this seam: transport::TapTransport
// reports each pass to a mixnet::ChainObserver (compromised-server
// modelling). A hop that times out or fails surfaces through the round's
// future as a transport::HopError; the slot is released and the expiry path
// reclaims the abandoned round's state at the surviving hops.

#ifndef VUVUZELA_SRC_ENGINE_ROUND_SCHEDULER_H_
#define VUVUZELA_SRC_ENGINE_ROUND_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/coord/distributor.h"
#include "src/engine/round_lifecycle.h"
#include "src/mixnet/chain.h"
#include "src/transport/hop_transport.h"

namespace vuvuzela::obs {
class Counter;
class Histogram;
}  // namespace vuvuzela::obs

namespace vuvuzela::engine {

struct SchedulerConfig {
  // K: rounds admitted into the pipeline at once. 1 is lock-step (one round
  // in the chain at a time); the paper's deployment keeps a few rounds in
  // flight (one per chain stage plus the collection window).
  size_t max_in_flight = 3;
  // Forward stages drop per-round state older than this many conversation
  // rounds behind the newest admitted round. 0 derives a safe default
  // (2*K + 2, so in-flight rounds are never expired).
  uint64_t expire_keep = 0;
  // Optional round-lifecycle registry (must outlive the scheduler). The
  // scheduler drives the pipeline phases — Submitting, Forward(i), Exchange,
  // Backward(i), Complete — as a round crosses stage workers; the *failure*
  // transitions (Retrying / Abandoned) belong to whoever owns the round
  // future, since only that layer knows the retry policy.
  RoundLifecycle* lifecycle = nullptr;
  // Optional invitation-distribution backend (must outlive the scheduler).
  // When set, dialing rounds gain an explicit Distribute stage: the last
  // hop's finished invitation table is published into the backend (and old
  // rounds expired to `distribution_keep`) on a dedicated stage worker, so
  // the §5.5 download side pipelines with conversation rounds exactly like a
  // chain pass. The round's DialingResult then carries an *empty* table of
  // the same bucket count — the invitations live in the backend, where
  // clients download them by bucket.
  coord::DistributionBackend* distribution = nullptr;
  // Publications each backend keeps (the dialing analog of expire_keep).
  size_t distribution_keep = 4;
  // Keep per-round submit→complete conversation latencies in stats()
  // (SchedulerStats::conversation_latencies; benches derive p50/p99). Off by
  // default: a long-running deployment must not grow a vector per round.
  bool record_latencies = false;
};

// Aggregate counters; one snapshot is cheap and thread-safe to take.
struct SchedulerStats {
  uint64_t conversation_rounds_completed = 0;
  uint64_t dialing_rounds_completed = 0;
  uint64_t rounds_failed = 0;
  // Invitation tables published through the Distribute stage.
  uint64_t invitation_tables_distributed = 0;
  size_t max_observed_in_flight = 0;
  // Sum over completed conversation rounds of submit→complete latency.
  double total_conversation_latency_seconds = 0.0;
  // Per-round submit→complete latencies, populated only when
  // SchedulerConfig::record_latencies is set.
  std::vector<double> conversation_latencies;
};

class RoundScheduler {
 public:
  // hops[i] is stage i's backend: local servers, remote daemons, or a mix,
  // each possibly decorated (TapTransport). Stage i's calls run on stage i's
  // worker thread, one pass at a time.
  explicit RoundScheduler(std::vector<std::unique_ptr<transport::HopTransport>> hops,
                          SchedulerConfig config = {});

  ~RoundScheduler();

  RoundScheduler(const RoundScheduler&) = delete;
  RoundScheduler& operator=(const RoundScheduler&) = delete;

  // Admits a conversation round. Blocks while K rounds are in flight.
  // Conversation round numbers should be monotonically increasing across
  // calls (they drive state expiry; coord::RoundSchedule produces exactly
  // that). Expiry is measured from the oldest round still in flight, so
  // gaps in the numbering can never expire a live round.
  std::future<mixnet::Chain::ConversationResult> SubmitConversation(
      uint64_t round, std::vector<util::Bytes> onions);

  // Admits a dialing round (forward-only; §5.5). Blocks while K rounds are
  // in flight. Dialing round numbers live in their own space
  // (coord::kDialingRoundBase) and do not participate in expiry.
  std::future<mixnet::Chain::DialingResult> SubmitDialing(uint64_t round,
                                                          std::vector<util::Bytes> onions,
                                                          uint32_t num_drops);

  // Blocks until every admitted round has completed (or failed).
  void Drain();

  size_t in_flight() const;
  SchedulerStats stats() const;

 private:
  // One queue+thread per server: the stage-serialization unit.
  class StageWorker {
   public:
    StageWorker();
    ~StageWorker();
    void Post(std::function<void()> fn);
    // Drains the queue and joins the worker thread (idempotent). The
    // scheduler stops every worker before destroying any of them — see the
    // destructor comment.
    void Stop();

   private:
    void Loop();

    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
  };

  struct ConversationContext;
  struct DialingContext;

  size_t num_stages() const { return hops_.size(); }

  void Admit();
  void Release(bool failed, double latency_seconds, bool dialing);
  void RemoveActiveRound(uint64_t round);
  // The round number expiry is measured against: the oldest conversation
  // round still in flight (never expires live state), or the newest
  // submitted round when nothing is in flight.
  uint64_t ExpiryHorizon() const;

  void PostConversationForward(std::shared_ptr<ConversationContext> ctx, size_t position);
  void PostConversationLastHop(std::shared_ptr<ConversationContext> ctx);
  void PostConversationBackward(std::shared_ptr<ConversationContext> ctx, size_t position);
  void CompleteConversation(std::shared_ptr<ConversationContext> ctx);
  void FailConversation(std::shared_ptr<ConversationContext> ctx, std::exception_ptr error);

  void PostDialingForward(std::shared_ptr<DialingContext> ctx, size_t position);
  void PostDialingLastHop(std::shared_ptr<DialingContext> ctx);
  // Distribute stage (config_.distribution set): publishes the finished
  // table into the backend on dist_worker_, pipelined with other rounds.
  void PostDialingDistribute(std::shared_ptr<DialingContext> ctx);
  void CompleteDialing(std::shared_ptr<DialingContext> ctx);
  void FailDialing(std::shared_ptr<DialingContext> ctx, std::exception_ptr error);

  std::vector<std::unique_ptr<transport::HopTransport>> hops_;
  SchedulerConfig config_;
  std::vector<std::unique_ptr<StageWorker>> workers_;
  // The Distribute stage's serialization unit (distribution backend set):
  // publishes happen in completion order, off the last hop's worker, so the
  // download tier never stalls the chain.
  std::unique_ptr<StageWorker> dist_worker_;

  mutable std::mutex mutex_;
  std::condition_variable admit_cv_;
  std::condition_variable drain_cv_;
  size_t in_flight_ = 0;
  uint64_t newest_conversation_round_ = 0;
  std::multiset<uint64_t> active_conversation_rounds_;
  SchedulerStats stats_;

  // Hot-path telemetry in obs::Registry::Global(): onion volume, per-pass
  // wall time (the crypto-batching push's baseline), and stage throughput.
  // Stage enqueue/pass spans land in obs::TraceJournal::Global().
  obs::Counter* obs_onions_submitted_;
  obs::Counter* obs_stage_onions_;
  obs::Histogram* obs_pass_seconds_;
};

}  // namespace vuvuzela::engine

#endif  // VUVUZELA_SRC_ENGINE_ROUND_SCHEDULER_H_
