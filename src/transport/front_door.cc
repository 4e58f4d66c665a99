#include "src/transport/front_door.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <utility>

#include "src/obs/http.h"
#include "src/util/logging.h"

namespace vuvuzela::transport {

FrontDoor::FrontDoor(const FrontDoorConfig& config, FrontDoorHandlers handlers,
                     net::TcpListener listener)
    : config_(config),
      handlers_(std::move(handlers)),
      port_(listener.port()),
      listener_(std::move(listener)) {}

std::unique_ptr<FrontDoor> FrontDoor::Create(const FrontDoorConfig& config,
                                             FrontDoorHandlers handlers) {
  auto listener = net::TcpListener::Listen(config.port, config.backlog);
  if (!listener) {
    return nullptr;
  }
  auto door = std::unique_ptr<FrontDoor>(
      new FrontDoor(config, std::move(handlers), std::move(*listener)));
  if (config.metrics_port >= 0) {
    auto metrics_listener = net::TcpListener::Listen(static_cast<uint16_t>(config.metrics_port));
    if (!metrics_listener) {
      return nullptr;  // the requested metrics port is taken
    }
    door->metrics_port_ = metrics_listener->port();
    door->metrics_listener_ = std::move(*metrics_listener);
  }
  return door;
}

FrontDoor::~FrontDoor() { Shutdown(); }

bool FrontDoor::Start() {
  if (started_) {
    return false;
  }
  net::EventLoopConfig loop_config;
  loop_config.max_frame_payload = config_.max_frame_payload;
  loop_config.max_write_buffer = config_.max_write_buffer;
  constexpr uint64_t kClientTag = 0;
  constexpr uint64_t kMetricsTag = 1;
  net::EventLoop::Handlers loop_handlers;
  loop_handlers.on_accept = [this](net::EventLoop::ConnId id, uint64_t tag) {
    if (tag == kClientTag) {
      HandleAccept(id);
    }
  };
  loop_handlers.on_frame = [this](net::EventLoop::ConnId id, net::Frame&& frame) {
    HandleFrame(id, std::move(frame));
  };
  loop_handlers.on_close = [this](net::EventLoop::ConnId id) { HandleClose(id); };
  // Scrape connections from the raw metrics listener: answer one request,
  // then close (responses carry Connection: close). They never get a client
  // index, so the admission maps cannot see them.
  loop_handlers.on_data = [this](net::EventLoop::ConnId id, const util::Bytes& buffered) {
    auto response = obs::HandleRawHttp(
        std::string_view(reinterpret_cast<const char*>(buffered.data()), buffered.size()),
        obs::Registry::Global(), obs::TraceJournal::Global());
    if (!response) {
      return;  // request head still incomplete; keep buffering
    }
    loop_->SendRaw(id, reinterpret_cast<const uint8_t*>(response->data()), response->size());
    loop_->CloseConn(id);
  };
  loop_ = net::EventLoop::Create(std::move(loop_handlers), loop_config);
  if (!loop_ || !loop_->AddListener(std::move(listener_), kClientTag)) {
    loop_.reset();
    return false;
  }
  if (metrics_listener_ &&
      !loop_->AddListener(std::move(*metrics_listener_), kMetricsTag, /*raw=*/true)) {
    loop_.reset();
    return false;
  }
  started_ = true;
  loop_thread_ = std::thread([this] { loop_->Run(); });
  fetch_thread_ = std::thread([this] { FetchWorker(); });
  return true;
}

void FrontDoor::HandleAccept(net::EventLoop::ConnId id) {
  size_t index = slots_.size();
  slots_.push_back(id);
  index_of_.emplace(id, index);
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    clients_seen_.fetch_add(1);
    alive_.fetch_add(1);
  }
  clients_cv_.notify_all();
  if (handlers_.on_connect) {
    handlers_.on_connect(index);
  }
}

void FrontDoor::HandleFrame(net::EventLoop::ConnId id, net::Frame&& frame) {
  auto it = index_of_.find(id);
  if (it == index_of_.end()) {
    return;
  }
  size_t index = it->second;
  if (frame.type == net::FrameType::kInvitationFetch) {
    // Off the loop: the fetch proxies through a blocking dist-shard RPC.
    {
      std::lock_guard<std::mutex> lock(fetch_mutex_);
      fetch_queue_.push_back(FetchJob{index, frame.round, std::move(frame.payload)});
      ++fetches_enqueued_;
    }
    fetch_cv_.notify_one();
    fetch_idle_cv_.notify_all();
    return;
  }
  if (handlers_.on_frame) {
    handlers_.on_frame(index, std::move(frame));
  }
}

void FrontDoor::HandleClose(net::EventLoop::ConnId id) {
  auto it = index_of_.find(id);
  if (it == index_of_.end()) {
    return;
  }
  size_t index = it->second;
  index_of_.erase(it);
  slots_[index] = 0;
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    alive_.fetch_sub(1);
  }
  clients_cv_.notify_all();
  if (handlers_.on_disconnect) {
    handlers_.on_disconnect(index);
  }
}

bool FrontDoor::WaitForClients(size_t count, int timeout_ms) {
  std::unique_lock<std::mutex> lock(clients_mutex_);
  auto ready = [this, count] { return clients_seen_.load() >= count; };
  if (timeout_ms <= 0) {
    clients_cv_.wait(lock, ready);
    return true;
  }
  return clients_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready);
}

void FrontDoor::Broadcast(const net::Frame& frame) {
  if (!loop_) {
    return;
  }
  // Encode once; every client gets the same bytes.
  auto wire = std::make_shared<util::Bytes>(net::EventLoop::EncodeWireFrame(frame));
  loop_->Post([this, wire] {
    for (net::EventLoop::ConnId id : slots_) {
      if (id != 0) {
        loop_->SendEncoded(id, *wire);
      }
    }
  });
}

void FrontDoor::Send(size_t client, net::Frame frame) {
  if (!loop_) {
    return;
  }
  auto wire = std::make_shared<util::Bytes>(net::EventLoop::EncodeWireFrame(frame));
  loop_->Post([this, client, wire] {
    if (client < slots_.size() && slots_[client] != 0) {
      loop_->SendEncoded(slots_[client], *wire);
    }
  });
}

void FrontDoor::Disconnect(size_t client) {
  if (!loop_) {
    return;
  }
  loop_->Post([this, client] {
    if (client < slots_.size() && slots_[client] != 0) {
      loop_->CloseConn(slots_[client]);
    }
  });
}

void FrontDoor::CloseClients(const net::Frame& frame, int grace_ms) {
  if (!loop_) {
    return;
  }
  {
    // A fetch reply is posted to the loop when its job finishes, and a
    // client that just got its round's ack may still have a fetch on the
    // wire. Let every fetch post its reply first — one behind the shutdown
    // frame is never read by a departing client — and call the fetch path
    // drained once it stays idle for a settle period (within `grace_ms`).
    constexpr auto kFetchSettle = std::chrono::milliseconds(50);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
    auto idle = [this] { return fetch_queue_.empty() && !fetch_running_; };
    std::unique_lock<std::mutex> lock(fetch_mutex_);
    for (;;) {
      if (!fetch_idle_cv_.wait_until(lock, deadline, idle)) {
        break;
      }
      const uint64_t seen = fetches_enqueued_;
      auto settle = std::min(deadline, std::chrono::steady_clock::now() + kFetchSettle);
      if (!fetch_idle_cv_.wait_until(lock, settle,
                                     [&] { return fetches_enqueued_ != seen; })) {
        break;
      }
    }
  }
  Broadcast(frame);
  {
    std::unique_lock<std::mutex> lock(clients_mutex_);
    clients_cv_.wait_for(lock, std::chrono::milliseconds(grace_ms),
                         [this] { return alive_.load() == 0; });
  }
  loop_->Post([this] {
    for (net::EventLoop::ConnId id : slots_) {
      if (id != 0) {
        loop_->CloseConn(id);
      }
    }
  });
}

void FrontDoor::FetchWorker() {
  for (;;) {
    FetchJob job;
    {
      std::unique_lock<std::mutex> lock(fetch_mutex_);
      fetch_cv_.wait(lock, [this] { return fetch_stop_ || !fetch_queue_.empty(); });
      if (fetch_stop_ && fetch_queue_.empty()) {
        return;
      }
      job = std::move(fetch_queue_.front());
      fetch_queue_.pop_front();
      fetch_running_ = true;
    }
    if (handlers_.on_fetch) {
      net::Frame reply = handlers_.on_fetch(job.client, job.round, std::move(job.payload));
      Send(job.client, std::move(reply));
    }
    {
      std::lock_guard<std::mutex> lock(fetch_mutex_);
      fetch_running_ = false;
    }
    fetch_idle_cv_.notify_all();
  }
}

void FrontDoor::Shutdown() {
  if (!started_) {
    return;
  }
  started_ = false;
  {
    std::lock_guard<std::mutex> lock(fetch_mutex_);
    fetch_stop_ = true;
  }
  fetch_cv_.notify_all();
  fetch_thread_.join();
  loop_->Stop();
  loop_thread_.join();
  loop_.reset();
}

}  // namespace vuvuzela::transport
