#include "fl/client_pool.h"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <queue>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>

#include "compress/codec.h"
#include "fl/trace_context.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace fl {
namespace {

using Clock = std::chrono::steady_clock;

Clock::duration Millis(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

int ResolvePoolConnections(int requested, int num_clients,
                           bool faults_armed) {
  if (requested > 0) {
    return std::min(requested, std::max(num_clients, 1));
  }
  if (faults_armed) {
    return std::max(num_clients, 1);
  }
  const int by_fleet = (std::max(num_clients, 1) + 63) / 64;
  return std::clamp(by_fleet, 1, 256);
}

int ResolvePoolWorkers(int requested) {
  if (requested > 0) {
    return requested;
  }
  return static_cast<int>(util::ThreadPool::AvailableCpus());
}

// ---------------------------------------------------------------------
// VirtualClientEngine

struct VirtualClientEngine::Impl {
  std::mutex mu;
  std::condition_variable task_ready;
  std::condition_variable idle;
  std::deque<std::function<void()>> queue;
  int in_flight = 0;  // popped but not yet finished
  bool stop = false;
  std::vector<std::thread> workers;
  obs::Gauge& queue_depth =
      obs::DefaultRegistry().GetGauge("pool.queue_depth");

  void WorkerLoop() {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        task_ready.wait(lock, [&] { return stop || !queue.empty(); });
        if (queue.empty()) {
          return;  // stop requested and nothing left to pop
        }
        task = std::move(queue.front());
        queue.pop_front();
        ++in_flight;
        queue_depth.Set(static_cast<double>(queue.size()));
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mu);
        --in_flight;
        if (queue.empty() && in_flight == 0) {
          idle.notify_all();
        }
      }
    }
  }
};

VirtualClientEngine::VirtualClientEngine(int workers)
    : impl_(std::make_unique<Impl>()) {
  const int count = ResolvePoolWorkers(workers);
  obs::DefaultRegistry().GetGauge("pool.workers").Set(count);
  impl_->workers.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
  }
}

VirtualClientEngine::~VirtualClientEngine() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->task_ready.notify_all();
  for (std::thread& worker : impl_->workers) {
    worker.join();
  }
}

void VirtualClientEngine::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->queue.push_back(std::move(task));
    impl_->queue_depth.Set(static_cast<double>(impl_->queue.size()));
  }
  impl_->task_ready.notify_one();
}

void VirtualClientEngine::Drain() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->idle.wait(lock,
                   [&] { return impl_->queue.empty() && impl_->in_flight == 0; });
}

int VirtualClientEngine::worker_count() const {
  return static_cast<int>(impl_->workers.size());
}

// ---------------------------------------------------------------------
// VirtualClientPool

namespace {

// One pool connection: the socket, its read scratch and its outbox. Owned
// by the pump thread after Start(); engine workers never touch it.
struct PoolConn {
  // Queued bytes. Update bytes are shared with the client that holds them
  // for resends, so queueing (or duplicating) a frame copies nothing.
  struct Segment {
    std::shared_ptr<const std::vector<std::uint8_t>> bytes;
    std::size_t size = 0;  // a prefix of *bytes (truncation sends half)
  };

  net::Connection conn;  // closed → the connection is done
  std::vector<std::uint8_t> in;
  std::size_t in_offset = 0;
  std::deque<Segment> out;
  std::size_t out_offset = 0;  // sent prefix of out.front()
  // Running byte totals. An update counts as sent — and its ack clock
  // starts — once bytes_sent reaches the bytes_queued mark taken when it
  // was queued.
  std::uint64_t bytes_queued = 0;
  std::uint64_t bytes_sent = 0;

  bool done() const { return !conn.open(); }
};

// Where a client's held update is in its send/ack cycle.
enum class Uplink {
  kIdle,      // nothing held
  kDelayed,   // injected delay; queue the bytes when due
  kBackoff,   // ack timed out; the next attempt runs when due
  kAwaiting,  // sent (or dropped); resend unless acked by `due`
};

// One simulated client. Pump-owned, except `feedback`, which belongs to
// whichever engine worker runs the client's current job (a client's jobs
// never overlap).
struct VirtualClient {
  PoolConn* conn = nullptr;
  double latency_ms = 0.0;
  compress::FeedbackState feedback;
  bool busy = false;  // a job is training or its update awaits an ack
  Uplink uplink = Uplink::kIdle;
  std::shared_ptr<const std::vector<std::uint8_t>> update;  // held bytes
  std::uint64_t job_index = 0;  // of the held update
  int attempt = 0;
  std::uint64_t frames_sent = 0;  // data frames, for the kill schedule
  std::uint64_t sent_mark = 0;    // conn->bytes_queued after this attempt
  Clock::time_point due;
  // Null when no fault is armed: a quiet injector always delivers, and
  // skipping it keeps 100k-client fleets from carrying 2.5 KB of RNG each.
  std::unique_ptr<net::FaultInjector> injector;
  // Built on the first resend; Reset() draws nothing, so the delays match
  // a schedule built up front.
  std::unique_ptr<net::BackoffSchedule> backoff;
};

// A job's result handed from an engine worker to the pump. `update` is
// null when the job threw.
struct Finished {
  int client_id = -1;
  std::uint64_t job_index = 0;
  std::shared_ptr<const std::vector<std::uint8_t>> update;
};

}  // namespace

struct VirtualClientPool::Impl {
  VirtualPoolOptions options;
  const compress::Codec* codec = nullptr;  // options.codec, resolved
  TrainFn train;
  NumSamplesFn num_samples;

  net::Reactor reactor;  // owned by the pump thread after Start()
  std::vector<std::unique_ptr<PoolConn>> conns;
  std::vector<PoolConn*> by_fd;  // index: fd → conn (bounded, dense)
  std::vector<VirtualClient> clients;
  // FedBuff may dispatch several outstanding jobs to one client; jobs that
  // arrive while the client is busy wait here, in arrival order, so
  // error-feedback codecs see the same residual sequence as inproc.
  std::unordered_map<int, std::deque<VirtualJob>> backlog;
  // Pending sends and ack deadlines, earliest first. Entries go stale when
  // the client moves on; a fired entry counts only if it still matches the
  // client's `due`.
  using Timer = std::pair<Clock::time_point, int>;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers;
  std::unique_ptr<VirtualClientEngine> engine;
  std::thread pump;
  std::atomic<bool> stop{false};
  std::atomic<bool> started{false};

  // The one cross-thread hand-off: engine workers post results here.
  std::mutex finished_mu;
  std::vector<Finished> finished;

  obs::Counter& jobs = obs::DefaultRegistry().GetCounter("pool.jobs");
  obs::Counter& resends =
      obs::DefaultRegistry().GetCounter("net.update_resends");
  obs::Counter& faults_injected = obs::DefaultRegistry().GetCounter(
      "net.faults_injected", {{"kind", "any"}});

  PoolConn* FindConn(int fd) {
    return fd >= 0 && fd < static_cast<int>(by_fd.size())
               ? by_fd[static_cast<std::size_t>(fd)]
               : nullptr;
  }

  // --- pump side --------------------------------------------------------

  void PumpLoop() {
    util::SetThreadLogPrefix("pool");
    std::vector<net::ReactorEvent> events;
    std::vector<Finished> batch;
    while (!stop.load(std::memory_order_relaxed)) {
      bool all_done = true;
      for (const auto& pc : conns) {
        all_done = all_done && pc->done();
      }
      if (all_done) {
        break;
      }
      events.clear();
      reactor.Wait(WaitBudgetMs(), &events);
      for (const net::ReactorEvent& event : events) {
        PoolConn* pc = FindConn(event.fd);
        if (pc == nullptr) {
          continue;  // closed earlier in this batch
        }
        if (event.error) {
          CloseConn(*pc, "socket error");
          continue;
        }
        if (event.readable || event.hangup) {
          ReadPoolConn(*pc);
        }
      }
      {
        std::lock_guard<std::mutex> lock(finished_mu);
        batch.swap(finished);
      }
      for (Finished& done : batch) {
        OnJobFinished(std::move(done));
      }
      batch.clear();
      RunTimers();
      FlushOutboxes();
    }
    util::SetThreadLogPrefix("");
  }

  // Sleep until the next timer, capped so a stop request is noticed.
  int WaitBudgetMs() const {
    if (timers.empty()) {
      return 50;
    }
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                          timers.top().first - Clock::now())
                          .count();
    return static_cast<int>(std::clamp<std::int64_t>(left, 0, 50));
  }

  // Every terminal condition (EOF, socket error, bad server input, a job
  // that threw, an injected truncate or kill, an update that was never
  // acked) ends here: the socket closes, so the server evicts every client
  // on it, and the other connections carry on.
  void CloseConn(PoolConn& pc, const char* reason) {
    if (pc.done()) {
      return;
    }
    const int fd = pc.conn.fd();
    AF_LOG(kDebug) << "pool: closing connection (" << reason << ")";
    reactor.Remove(fd);
    by_fd[static_cast<std::size_t>(fd)] = nullptr;
    pc.conn.Close();
  }

  void ReadPoolConn(PoolConn& pc) {
    while (!pc.done()) {
      std::uint8_t chunk[16384];
      const ssize_t n = ::recv(pc.conn.fd(), chunk, sizeof(chunk), 0);
      if (n == 0) {
        ProcessConnInbuf(pc);
        CloseConn(pc, "server closed");
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          break;
        }
        CloseConn(pc, "recv failed");
        return;
      }
      pc.in.insert(pc.in.end(), chunk, chunk + n);
    }
    ProcessConnInbuf(pc);
  }

  void ProcessConnInbuf(PoolConn& pc) {
    while (!pc.done()) {
      // Malformed framing, a malformed typed payload and a broadcast the
      // pool cannot route all throw; each closes this connection only.
      try {
        net::FrameView frame;
        const std::size_t consumed = net::DecodeFrameView(
            std::span<const std::uint8_t>(pc.in).subspan(pc.in_offset),
            &frame);
        if (consumed == 0) {
          break;
        }
        pc.in_offset += consumed;
        HandleServerFrame(pc, frame);
      } catch (const std::exception& e) {
        AF_LOG(kWarn) << "pool: bad input from server: " << e.what()
                      << "; closing the connection";
        CloseConn(pc, "bad server input");
      }
    }
    if (pc.in_offset == pc.in.size()) {
      pc.in.clear();
      pc.in_offset = 0;
    } else if (pc.in_offset > 0) {
      pc.in.erase(pc.in.begin(),
                  pc.in.begin() + static_cast<std::ptrdiff_t>(pc.in_offset));
      pc.in_offset = 0;
    }
  }

  void HandleServerFrame(PoolConn& pc, const net::FrameView& frame) {
    switch (frame.type) {
      case net::MessageType::kShutdown:
        CloseConn(pc, "shutdown");
        return;
      case net::MessageType::kAck: {
        const net::AckMsg ack = net::DecodeAck(frame);
        if (ack.client_id < 0 || ack.client_id >= options.num_clients) {
          return;  // names no client of ours
        }
        VirtualClient& c = clients[static_cast<std::size_t>(ack.client_id)];
        if (c.conn == &pc && c.uplink != Uplink::kIdle &&
            c.job_index == ack.job_index) {
          Retire(ack.client_id, c);
        }
        return;  // otherwise a stale receipt (duplicate, earlier job)
      }
      case net::MessageType::kModelBroadcast: {
        // The decoder has already rejected a negative client id.
        const net::ModelBroadcastMsg msg = net::DecodeModelBroadcast(frame);
        AF_CHECK_LT(msg.client_id, options.num_clients)
            << "broadcast for unknown client " << msg.client_id;
        VirtualClient& c = clients[static_cast<std::size_t>(msg.client_id)];
        AF_CHECK(c.conn == &pc) << "broadcast for client " << msg.client_id
                                << " on a connection that does not carry it";
        VirtualJob job;
        job.client_id = msg.client_id;
        job.job_index = msg.job_index;
        job.round = msg.round;
        // Owned copy: the frame buffer is recycled as soon as we return.
        job.base.assign(msg.params.begin(), msg.params.end());
        jobs.Increment();
        if (c.busy) {
          backlog[job.client_id].push_back(std::move(job));
          return;
        }
        c.busy = true;
        SubmitJob(std::move(job));
        return;
      }
      default:
        AF_LOG(kWarn) << "pool: unexpected " << MessageTypeName(frame.type)
                      << " frame from server; ignoring";
        return;
    }
  }

  void Queue(PoolConn& pc,
             std::shared_ptr<const std::vector<std::uint8_t>> bytes,
             std::size_t size) {
    pc.bytes_queued += size;
    pc.out.push_back({std::move(bytes), size});
  }

  void FlushConn(PoolConn& pc) {
    while (!pc.out.empty()) {
      const PoolConn::Segment& segment = pc.out.front();
      const ssize_t n =
          ::send(pc.conn.fd(), segment.bytes->data() + pc.out_offset,
                 segment.size - pc.out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          break;  // kernel buffer full; retry when writable
        }
        CloseConn(pc, "send failed");
        return;
      }
      pc.out_offset += static_cast<std::size_t>(n);
      pc.bytes_sent += static_cast<std::uint64_t>(n);
      if (pc.out_offset == segment.size) {
        pc.out.pop_front();
        pc.out_offset = 0;
      }
    }
    reactor.SetWantWrite(pc.conn.fd(), !pc.out.empty());
  }

  void FlushOutboxes() {
    for (const auto& pc : conns) {
      if (!pc->done()) {
        FlushConn(*pc);
      }
    }
  }

  // --- uplink: hold, send through the injector, resend until acked -------

  void OnJobFinished(Finished done) {
    VirtualClient& c = clients[static_cast<std::size_t>(done.client_id)];
    if (c.conn->done()) {
      return;  // the connection died while the job trained
    }
    if (done.update == nullptr) {
      CloseConn(*c.conn, "job failed");
      return;
    }
    c.update = std::move(done.update);
    c.job_index = done.job_index;
    c.attempt = 0;
    if (c.backoff != nullptr) {
      c.backoff->Reset();  // each update starts a fresh retry cycle
    }
    Attempt(done.client_id, c);
  }

  void Arm(int client_id, VirtualClient& c, Uplink state,
           Clock::time_point due) {
    c.uplink = state;
    c.due = due;
    timers.emplace(due, client_id);
  }

  // Ack clock for the attempt just made; `mark` is the conn's byte total
  // the attempt must reach before it counts as sent.
  void AwaitAck(int client_id, VirtualClient& c, std::uint64_t mark) {
    c.sent_mark = mark;
    Arm(client_id, c, Uplink::kAwaiting,
        Clock::now() + Millis(options.ack_timeout_ms));
  }

  // One send attempt of the held update. Injector draws happen here, one
  // per data frame, on the pump thread — so each client's fault stream is
  // a pure function of (seed, client, frame sequence).
  void Attempt(int client_id, VirtualClient& c) {
    PoolConn& pc = *c.conn;
    net::FaultInjector* injector = c.injector.get();
    // Doomed clients die after their allotted number of data frames.
    if (injector != nullptr && injector->doomed() &&
        c.frames_sent >= injector->kill_after_frame()) {
      AF_LOG(kInfo) << "pool: fault injector killing client " << client_id
                    << "'s connection";
      CloseConn(pc, "fault injector kill");
      return;
    }
    auto action = net::FaultInjector::Action::kDeliver;
    if (injector != nullptr) {
      action = injector->NextAction();
      if (action != net::FaultInjector::Action::kDeliver) {
        faults_injected.Increment();
      }
    }
    ++c.frames_sent;
    switch (action) {
      case net::FaultInjector::Action::kDrop:
        AwaitAck(client_id, c, 0);  // never hits the wire
        return;
      case net::FaultInjector::Action::kTruncate:
        // A frame prefix then a hard close: the server sees a stream that
        // dies mid-frame and evicts the connection.
        Queue(pc, c.update, c.update->size() / 2);
        FlushConn(pc);
        CloseConn(pc, "fault injector truncate");
        return;
      case net::FaultInjector::Action::kDelay:
        Arm(client_id, c, Uplink::kDelayed,
            Clock::now() + Millis(injector->delay_ms()));
        return;
      case net::FaultInjector::Action::kDuplicate:
        Queue(pc, c.update, c.update->size());
        [[fallthrough]];
      case net::FaultInjector::Action::kDeliver:
        Queue(pc, c.update, c.update->size());
        AwaitAck(client_id, c, pc.bytes_queued);
        return;
    }
  }

  void RunTimers() {
    const auto now = Clock::now();
    while (!timers.empty() && timers.top().first <= now) {
      const auto [due, client_id] = timers.top();
      timers.pop();
      VirtualClient& c = clients[static_cast<std::size_t>(client_id)];
      if (c.uplink == Uplink::kIdle || c.due != due || c.conn->done()) {
        continue;  // stale: acked, re-armed, or the connection died
      }
      switch (c.uplink) {
        case Uplink::kDelayed:
          Queue(*c.conn, c.update, c.update->size());
          AwaitAck(client_id, c, c.conn->bytes_queued);
          break;
        case Uplink::kBackoff:
          Attempt(client_id, c);
          break;
        case Uplink::kAwaiting:
          OnAckTimeout(client_id, c);
          break;
        case Uplink::kIdle:
          break;
      }
    }
  }

  void OnAckTimeout(int client_id, VirtualClient& c) {
    if (c.conn->bytes_sent < c.sent_mark) {
      // Still queued behind other frames: the ack clock starts when the
      // bytes leave, as it would for a blocking send.
      AwaitAck(client_id, c, c.sent_mark);
      return;
    }
    if (++c.attempt >= options.retry.max_attempts) {
      AF_LOG(kWarn) << "pool: client " << client_id << " gave up on job "
                    << c.job_index << " after " << options.retry.max_attempts
                    << " attempts";
      CloseConn(*c.conn, "update never acked");
      return;
    }
    resends.Increment();
    if (c.backoff == nullptr) {
      // Decorrelated-jitter resend schedule, seeded per client so a fleet
      // that stalls together fans back out instead of resending in
      // lockstep.
      c.backoff = std::make_unique<net::BackoffSchedule>(
          options.retry, options.seed ^ (0xc0ffee123ull +
                                         static_cast<std::uint64_t>(client_id)));
    }
    Arm(client_id, c, Uplink::kBackoff,
        Clock::now() + Millis(c.backoff->NextDelayMs()));
  }

  // The held update was acked: release it and start the client's next
  // backlogged job, if any.
  void Retire(int client_id, VirtualClient& c) {
    c.uplink = Uplink::kIdle;
    c.update.reset();
    auto it = backlog.find(client_id);
    if (it == backlog.end()) {
      c.busy = false;
      return;
    }
    VirtualJob next = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) {
      backlog.erase(it);
    }
    SubmitJob(std::move(next));
  }

  // --- engine side ------------------------------------------------------

  void SubmitJob(VirtualJob job) {
    engine->Submit(
        [this, job = std::move(job)]() mutable { RunJob(std::move(job)); });
  }

  void RunJob(VirtualJob job) {
    Finished done;
    done.client_id = job.client_id;
    done.job_index = job.job_index;
    try {
      VirtualClient& c = clients[static_cast<std::size_t>(job.client_id)];
      if (c.latency_ms > 0.0) {
        std::this_thread::sleep_for(Millis(c.latency_ms));
      }
      net::ClientUpdateMsg update;
      update.client_id = job.client_id;
      update.job_index = job.job_index;
      update.base_round = job.round;
      update.num_samples = num_samples(job.client_id);
      std::vector<float> delta;
      {
        // The server derives the same trace id for this job's defense span,
        // so the two spans join on it without it ever crossing the wire.
        const std::uint64_t trace_id =
            TraceIdFor(options.seed, job.client_id, job.job_index);
        obs::ScopedSpan span("net.worker.train",
                             {trace_id, TrainSpanId(trace_id),
                              DispatchSpanId(trace_id)});
        delta = train(job);
      }
      update.delta = net::UpdateView(std::span<const float>(delta), nullptr);
      // Encoded exactly once: resends reuse these bytes, so retries stay
      // byte-identical and the feedback residual advances once per job.
      auto bytes = std::make_shared<std::vector<std::uint8_t>>();
      net::AppendClientUpdateFrame(*bytes, update, codec, &c.feedback);
      done.update = std::move(bytes);
    } catch (const std::exception& e) {
      AF_LOG(kWarn) << "pool: job " << job.job_index << " of client "
                    << job.client_id << " failed: " << e.what();
    }
    {
      std::lock_guard<std::mutex> lock(finished_mu);
      finished.push_back(std::move(done));
    }
    reactor.Wakeup();
  }
};

VirtualClientPool::VirtualClientPool(VirtualPoolOptions options,
                                     TrainFn train, NumSamplesFn num_samples)
    : impl_(std::make_unique<Impl>()) {
  AF_CHECK_GT(options.num_clients, 0);
  AF_CHECK(train != nullptr);
  AF_CHECK(num_samples != nullptr);
  impl_->options = options;
  impl_->codec = compress::Resolve(options.codec);
  impl_->train = std::move(train);
  impl_->num_samples = std::move(num_samples);
}

VirtualClientPool::~VirtualClientPool() {
  try {
    Stop();
  } catch (...) {
    // Destructor must not throw.
  }
}

void VirtualClientPool::Start() {
  Impl& impl = *impl_;
  AF_CHECK(!impl.started.load()) << "pool started twice";
  const VirtualPoolOptions& opt = impl.options;
  const int connections = ResolvePoolConnections(
      opt.connections, opt.num_clients, opt.faults.Any());

  // Client c rides connection c % connections; each connection announces
  // its slice with one hello.
  std::vector<net::HelloMsg> hellos(static_cast<std::size_t>(connections));
  for (int c = 0; c < opt.num_clients; ++c) {
    hellos[static_cast<std::size_t>(c % connections)].client_ids.push_back(c);
  }
  impl.conns.reserve(static_cast<std::size_t>(connections));
  for (int i = 0; i < connections; ++i) {
    auto pc = std::make_unique<PoolConn>();
    pc->conn = net::ConnectWithRetry(
        opt.port, opt.retry,
        opt.seed ^ (0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(i)));
    pc->conn.SendFrame(net::EncodeHello(hellos[static_cast<std::size_t>(i)]),
                       opt.io_timeout_ms);
    const int fd = pc->conn.fd();
    if (fd >= static_cast<int>(impl.by_fd.size())) {
      impl.by_fd.resize(static_cast<std::size_t>(fd) + 1, nullptr);
    }
    impl.by_fd[static_cast<std::size_t>(fd)] = pc.get();
    // Pre-Start registration is safe: the pump thread (the reactor's owner
    // after this) does not exist yet.
    impl.reactor.Add(fd);
    impl.conns.push_back(std::move(pc));
  }
  obs::DefaultRegistry().GetGauge("pool.connections").Set(connections);

  impl.clients.resize(static_cast<std::size_t>(opt.num_clients));
  for (int c = 0; c < opt.num_clients; ++c) {
    VirtualClient& client = impl.clients[static_cast<std::size_t>(c)];
    client.conn = impl.conns[static_cast<std::size_t>(c % connections)].get();
    if (opt.latency.base_ms > 0.0) {
      client.latency_ms =
          opt.latency.base_ms /
          std::pow(static_cast<double>(c + 1), opt.latency.zipf_s);
    }
    if (opt.faults.Any()) {
      client.injector = std::make_unique<net::FaultInjector>(opt.faults, c);
    }
  }

  impl.engine = std::make_unique<VirtualClientEngine>(opt.workers);
  impl.pump = std::thread([this] { impl_->PumpLoop(); });
  impl.started.store(true);
}

void VirtualClientPool::Stop() {
  Impl& impl = *impl_;
  if (impl.pump.joinable()) {
    impl.stop.store(true, std::memory_order_relaxed);
    impl.reactor.Wakeup();
    impl.pump.join();
  }
  if (impl.engine != nullptr) {
    // Engine tasks may still be training; they post to `finished`, which
    // outlives them.
    impl.engine->Drain();
    impl.engine.reset();
  }
  impl.conns.clear();
  impl.by_fd.clear();
}

int VirtualClientPool::connection_count() const {
  return static_cast<int>(impl_->conns.size());
}

int VirtualClientPool::worker_count() const {
  return impl_->engine == nullptr ? 0 : impl_->engine->worker_count();
}

}  // namespace fl
