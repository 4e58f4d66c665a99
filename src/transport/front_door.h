// The client-facing admission edge, built on net::EventLoop.
//
// FrontDoor is the piece of the entry server that faces the million-client
// fleet (§7): it owns the client listener, runs one reactor thread that
// serves every client connection, and presents the daemon with dense client
// indices (0..N-1, accept order) — the same indexing the admission dedup
// vectors and batch contributor lists always used, so CoordinatorDaemon's
// round logic is unchanged by the port from thread-per-client.
//
// One connection carries both traffic classes, multiplexed by frame type
// (the op tag in the net::Frame header):
//
//  * Admission ops (kConversationRequest, kDialRequest, and anything else) —
//    dispatched to `on_frame` ON THE LOOP THREAD. These handlers must be
//    cheap and non-blocking (push an onion under a mutex, never an RPC):
//    while one runs, no other client is served.
//  * kInvitationFetch — queued to a dedicated fetch worker thread and
//    dispatched to `on_fetch` THERE. Bucket fetches proxy through a blocking
//    dist-shard RPC; running them on the loop would head-of-line-block every
//    admission in flight. The worker's reply frame is posted back to the
//    loop for delivery, so a client can keep submitting onions on the same
//    connection while its previous fetch is still in flight.
//
// THREADING CONTRACT. Create/Start/Shutdown belong to the owning thread.
// Broadcast/Send/frame building are thread-safe (they post to the loop).
// on_connect/on_frame/on_disconnect run on the loop thread; on_fetch runs on
// the fetch worker. Client indices are assigned on the loop thread before
// any handler sees them and are never reused.
//
// OWNERSHIP. FrontDoor owns the listener, the loop, and every client
// connection; Shutdown() (also run by the destructor) stops and joins both
// threads. After a client disconnects its index stays valid for Send — the
// send is silently dropped — so racing round completions need no liveness
// handshake.

#ifndef VUVUZELA_SRC_TRANSPORT_FRONT_DOOR_H_
#define VUVUZELA_SRC_TRANSPORT_FRONT_DOOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/tcp.h"

namespace vuvuzela::transport {

struct FrontDoorConfig {
  uint16_t port = 0;  // 0 picks an ephemeral port
  // Accept-queue depth. Admission storms are the design load: a connect
  // burst deeper than the backlog gets SYNs dropped and retried, which
  // shows up as admission-latency outliers, so front doors run deep queues
  // (the kernel additionally caps this at somaxconn).
  int backlog = 4096;
  // Clients send onions and 4-byte fetch indices; anything announcing a
  // larger frame is hostile and is cut off before the allocation.
  size_t max_frame_payload = 16u << 20;
  size_t max_write_buffer = 64u << 20;
  // /metrics + /trace HTTP port, served from a raw-mode listener on the same
  // reactor loop: < 0 disables it, 0 picks an ephemeral port
  // (metrics_port() reports the binding). Scrape connections never occupy a
  // client index.
  int metrics_port = -1;
};

struct FrontDoorHandlers {
  // Loop thread. The client index is newly assigned, never reused.
  std::function<void(size_t client)> on_connect;
  // Loop thread. Every non-fetch frame. Must not block.
  std::function<void(size_t client, net::Frame&&)> on_frame;
  // Fetch worker thread. Returns the reply frame to deliver to the client
  // (e.g. kInvitationDrop or kHopError). May block on backend RPCs.
  std::function<net::Frame(size_t client, uint64_t round, util::Bytes payload)> on_fetch;
  // Loop thread. The index's connection is gone (its Sends now no-op).
  std::function<void(size_t client)> on_disconnect;
};

class FrontDoor {
 public:
  // Binds the listener (nullptr if the port is unavailable). The loop does
  // not run until Start().
  static std::unique_ptr<FrontDoor> Create(const FrontDoorConfig& config,
                                           FrontDoorHandlers handlers);
  ~FrontDoor();

  uint16_t port() const { return port_; }
  // Bound /metrics port; 0 when the endpoint is disabled.
  uint16_t metrics_port() const { return metrics_port_; }

  // Spawns the loop thread and the fetch worker; accepting begins now.
  bool Start();

  // Blocks until `count` clients have ever connected (disconnected ones
  // still count — they occupied an index). timeout_ms 0 waits forever.
  bool WaitForClients(size_t count, int timeout_ms = 0);

  // Indices handed out so far / indices currently connected.
  size_t clients_seen() const { return clients_seen_.load(); }
  size_t alive() const { return alive_.load(); }

  // Sends `frame` to every connected client. Encodes once, fans the same
  // bytes out. Thread-safe.
  void Broadcast(const net::Frame& frame);

  // Sends `frame` to one client; dropped silently if it disconnected.
  // Thread-safe.
  void Send(size_t client, net::Frame frame);

  // Closes one client's connection once its pending writes flush (a client
  // that announced kShutdown is deregistering). Thread-safe.
  void Disconnect(size_t client);

  // Waits (up to `grace_ms`) until the fetch path has posted every reply and
  // then stayed idle for a short settle period, so fetches already on the
  // wire are answered first; broadcasts `frame` (typically kShutdown) behind
  // them, gives clients up to `grace_ms` to hang up on their own, then
  // closes the stragglers.
  // Thread-safe; call before Shutdown() for an orderly cascade.
  void CloseClients(const net::Frame& frame, int grace_ms);

  // Stops and joins the loop and worker threads. Idempotent.
  void Shutdown();

 private:
  struct FetchJob {
    size_t client = 0;
    uint64_t round = 0;
    util::Bytes payload;
  };

  FrontDoor(const FrontDoorConfig& config, FrontDoorHandlers handlers, net::TcpListener listener);

  void HandleAccept(net::EventLoop::ConnId id);
  void HandleFrame(net::EventLoop::ConnId id, net::Frame&& frame);
  void HandleClose(net::EventLoop::ConnId id);
  void FetchWorker();

  FrontDoorConfig config_;
  FrontDoorHandlers handlers_;
  uint16_t port_ = 0;
  net::TcpListener listener_;  // moved into the loop by Start()
  // Raw-mode /metrics listener (config.metrics_port >= 0), also moved into
  // the loop by Start().
  std::optional<net::TcpListener> metrics_listener_;
  uint16_t metrics_port_ = 0;
  std::unique_ptr<net::EventLoop> loop_;
  std::thread loop_thread_;
  bool started_ = false;

  // Loop-thread-only: index <-> connection maps. slots_[i] == 0 marks a
  // disconnected index (ConnId 0 is never assigned).
  std::vector<net::EventLoop::ConnId> slots_;
  std::unordered_map<net::EventLoop::ConnId, size_t> index_of_;

  std::atomic<size_t> clients_seen_{0};
  std::atomic<size_t> alive_{0};
  std::mutex clients_mutex_;
  std::condition_variable clients_cv_;

  std::thread fetch_thread_;
  std::mutex fetch_mutex_;
  std::condition_variable fetch_cv_;
  std::deque<FetchJob> fetch_queue_;
  bool fetch_running_ = false;  // a popped job has not posted its reply yet
  uint64_t fetches_enqueued_ = 0;
  // Signalled when a fetch is queued or finishes (CloseClients drains on it).
  std::condition_variable fetch_idle_cv_;
  bool fetch_stop_ = false;
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_FRONT_DOOR_H_
