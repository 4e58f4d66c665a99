// Shared declarations of the round-engine benchmark harness.
//
// The harness is the benchmark's load generator and coordinator: it wraps
// every client onion before the clock starts (onions.cc), keeps K rounds in
// flight through engine::RoundScheduler against an in-process chain or a
// fleet of daemon processes (main.cc, fleet.cc), checks every round's
// output, and in a traced run records spans around the calls it makes into
// each layer (tracing.cc). Nothing here reaches inside the program: every
// seam is a public interface of the library or a daemon's /metrics page.

#ifndef ROUNDBENCH_HARNESS_H_
#define ROUNDBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/coord/distributor.h"
#include "src/crypto/onion.h"
#include "src/deaddrop/exchange_backend.h"
#include "src/transport/hop_transport.h"
#include "src/wire/messages.h"

namespace roundbench {

using Clock = std::chrono::steady_clock;
using vuvuzela::util::Bytes;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Workloads ----------------------------------------------------------------

enum class Topology { kInProcess, kFleet };

struct WorkloadSpec {
  std::string name;
  Topology topology = Topology::kInProcess;
  uint64_t users = 0;          // one onion per user per round; users 2k, 2k+1 converse
  double mu = 0;               // conversation noise per non-last hop (exact, §8.1)
  bool static_keys = false;    // sim::ClientKeyRing-style keys vs fresh ephemerals
  uint32_t dial_every = 0;     // a dialing round after every N conversation rounds
  uint32_t warmup_rounds = 0;  // schedule entries run inside set-up
  // Schedule entries per second of window to pre-generate before the
  // set-ups have measured the real rate.
  double initial_rate = 0;
};

// Returns nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Shared by every workload.
inline constexpr size_t kChainLength = 3;
inline constexpr size_t kMaxInFlight = 3;       // K
inline constexpr uint32_t kSetups = 5;          // per run; setup_s is their median
inline constexpr uint32_t kDialDrops = 8;       // real invitation drops m, plus the no-op
inline constexpr double kDialMu = 10;           // dialing noise per drop per hop (exact)
inline constexpr double kDialFraction = 0.05;   // users sending a real invitation (§8.1)
// Conversation onions whose responses the harness opens itself, per round.
inline constexpr uint32_t kSamplePairs = 4;

// One schedule entry: a conversation or a dialing round and its onions.
struct RoundInput {
  bool dialing = false;
  uint64_t index = 0;  // position in the schedule
  uint64_t round = 0;  // round number handed to the scheduler
  std::vector<Bytes> onions;
  // Layer keys of the sampled users' onions (conversation rounds only).
  std::vector<uint32_t> sample_users;
  std::vector<std::array<vuvuzela::crypto::AeadKey, kChainLength>> sample_keys;
};

// Deterministic client behaviour of one seed: what every user sends in
// every round. Everything here is a pure function of (spec, seed, chain).
class ClientModel {
 public:
  ClientModel(const WorkloadSpec& spec, uint64_t seed,
              std::vector<vuvuzela::crypto::X25519PublicKey> chain);

  const WorkloadSpec& spec() const { return spec_; }
  uint32_t total_drops() const { return kDialDrops + 1; }

  // Schedule entry `index` (0-based): its kind and round number.
  bool IsDialing(uint64_t index) const;
  uint64_t RoundNumber(uint64_t index) const;

  // Inner payloads.
  vuvuzela::wire::ExchangeRequest Exchange(uint64_t round, uint64_t user) const;
  vuvuzela::wire::DialRequest Dial(uint64_t round, uint64_t user) const;
  uint64_t dialers() const;

  // Wraps one schedule entry's onions (parallel over the global pool).
  RoundInput Generate(uint64_t index) const;

  // Digest of everything the onions depend on: the cache key.
  std::string CacheKey() const;

  // Static-key workloads: users' public keys (the list the chain primes).
  const std::vector<vuvuzela::crypto::X25519PublicKey>& client_public_keys() const {
    return client_pks_;
  }

 private:
  Bytes WrapStatic(uint64_t user, uint64_t round, const Bytes& payload) const;

  WorkloadSpec spec_;
  uint64_t seed_;
  std::vector<vuvuzela::crypto::X25519PublicKey> chain_;
  std::vector<vuvuzela::crypto::X25519KeyPair> client_keys_;
  std::vector<vuvuzela::crypto::X25519PublicKey> client_pks_;
  // Static keys: the per-(user, hop) onion keys a client derives once per
  // key epoch; wrapping a round is then AEAD work only.
  std::vector<std::array<vuvuzela::crypto::AeadKey, kChainLength>> layer_keys_;
};

// Pre-generated schedule entries on disk, in chunks of kChunkEntries,
// under `dir`; generated on first use and reused by every later run with
// the same inputs. Reading streams one chunk at a time, so the onions never
// sit in the program's memory all at once.
class OnionStore {
 public:
  static constexpr uint64_t kChunkEntries = 4;

  OnionStore(const ClientModel& model, std::string dir);

  // Makes sure entries [0, count) exist on disk, generating missing chunks.
  void Ensure(uint64_t count);
  // True if entries [0, count) are all on disk already.
  bool Has(uint64_t count) const;
  uint64_t available() const { return available_; }

  // Reads entry `index`; chunks are read whole and kept until passed.
  RoundInput Read(uint64_t index);

  // Keeps the cache directory under `max_bytes`, oldest chunks first,
  // never touching this store's own chunks.
  void Trim(uint64_t max_bytes) const;

 private:
  std::string ChunkPath(uint64_t chunk) const;

  const ClientModel& model_;
  std::string dir_;
  std::string key_;
  uint64_t available_ = 0;
  uint64_t loaded_chunk_ = UINT64_MAX;
  std::vector<RoundInput> loaded_;
};

// --- Tracing ------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;  // seconds since the trace epoch
  double end = 0;
  int64_t id = 0;
  int64_t parent = -1;
  uint64_t round = 0;
  uint64_t items = 0;      // onions, requests or invitations the call carried
  uint64_t bytes = 0;      // bytes the call carried in both directions
  uint64_t noise = 0;      // ServerRoundStats of the pass, where there is one
  uint64_t dh_ops = 0;
  uint64_t dropped = 0;
  uint64_t exchanged = 0;  // messages the dead-drop exchange swapped
};

// In-memory span recorder; written out as JSONL after the run.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  double Now() const { return Seconds(epoch_, Clock::now()); }
  // Registers the span of a whole round (submit to result); hop spans of
  // the same round name it as their parent.
  void OpenRound(uint64_t round, double start);
  void CloseRound(uint64_t round, double end, const std::string& name, uint64_t items);
  void Record(Span span);  // fills id and parent (the round's span)
  void Clear();
  std::vector<Span> Snapshot() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<uint64_t, Span> open_rounds_;
  std::map<uint64_t, int64_t> round_ids_;
  int64_t next_id_ = 0;
};

// HopTransport decorator: one span per pass, named "hop<i>." plus "fwd",
// "last", "bwd", "dial" or "dial_last" (e.g. "hop0.fwd").
std::unique_ptr<vuvuzela::transport::HopTransport> TimeHop(
    std::unique_ptr<vuvuzela::transport::HopTransport> inner, SpanLog& log, size_t hop);

// ExchangeBackend decorator delegating to InProcessExchangeBackend.
std::unique_ptr<vuvuzela::deaddrop::ExchangeBackend> TimeExchange(size_t shards, SpanLog& log);

// DistributionBackend decorator (the Publish seam of the dist tier).
std::unique_ptr<vuvuzela::coord::DistributionBackend> TimeDistribution(
    vuvuzela::coord::DistributionBackend& inner, SpanLog& log);

// --- Processes ----------------------------------------------------------------

// A child process whose first stdout line announces its ports.
class Daemon {
 public:
  // Starts `argv` with stdout on a pipe; nullptr if it cannot fork.
  static std::unique_ptr<Daemon> Spawn(const std::vector<std::string>& argv);
  // Waits for the "listening on" line and reads the ports it names.
  bool WaitReady();
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }
  uint16_t port() const { return port_; }
  uint16_t metrics_port() const { return metrics_port_; }
  // Waits up to `timeout_s` for an orderly exit, then kills. True if the
  // process exited 0 by itself.
  bool Stop(double timeout_s);

 private:
  Daemon() = default;
  int pid_ = -1;
  std::string name_;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;
  bool reaped_ = false;
};

// GET /metrics from a daemon; name -> value for every sample line.
std::map<std::string, double> ScrapeMetrics(uint16_t port);
// Parses Prometheus text exposition (obs::Registry::RenderPrometheus).
std::map<std::string, double> ParseMetrics(const std::string& text);

// user+sys CPU seconds of a process (pid 0 = this process).
double ProcessCpuSeconds(int pid);
// VmHWM of a process in MB (pid 0 = this process).
double PeakRssMb(int pid);
// Resets VmHWM (Linux clear_refs 5), so the next read is the peak from now.
void ResetPeakRss(int pid);
// CPU seconds the calling thread has used.
double ThreadCpuSeconds();

}  // namespace roundbench

#endif  // ROUNDBENCH_HARNESS_H_
