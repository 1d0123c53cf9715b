// Fd-readiness reactor: the half of the server that cares about sockets,
// split out so sessions (net/session.h) never touch an fd. The server and
// the virtual-client pool each own one.
//
// One level-triggered epoll fd holds every registered connection plus the
// read end of a wakeup pipe, so a single Wait() call sleeps on everything.
//
// All registration and Wait() calls belong to one owner thread; Wakeup() is
// the one cross-thread entry point (it interrupts a blocked Wait, which is
// how the virtual-client pool's workers nudge the pump loop when they
// finish a job). Events are level-triggered: a connection with unread bytes
// or unflushed write interest reports ready again on the next Wait.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/fd.h"

namespace net {

struct ReactorEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;   // EPOLLERR
  bool hangup = false;  // EPOLLHUP
};

class Reactor {
 public:
  Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Registers `fd` with level-triggered read interest. The fd must stay
  // valid until Remove.
  void Add(int fd);
  // Toggles write interest (read interest is permanent until Remove).
  // No-op when the interest already matches.
  void SetWantWrite(int fd, bool want_write);
  void Remove(int fd);

  // Blocks up to `timeout_ms` (0 → immediate, < 0 → indefinitely) and
  // appends one entry per ready fd to `out` (not cleared). Returns the
  // number of events appended. A pending Wakeup() makes Wait return
  // promptly with whatever is ready.
  std::size_t Wait(int timeout_ms, std::vector<ReactorEvent>* out);

  // Interrupts a concurrent Wait from any thread. Sticky: a wakeup posted
  // while no Wait is in progress makes the next Wait return immediately.
  void Wakeup();

  std::size_t watched_count() const { return want_write_.size(); }

 private:
  void Ctl(int op, int fd, bool want_write);

  util::UniqueFd epoll_;
  // Wakeup pipe: the read end sits in the epoll set, any thread writes a
  // byte to interrupt. Non-blocking on both ends so a flood of wakeups
  // coalesces instead of blocking the caller.
  util::UniqueFd wake_read_;
  util::UniqueFd wake_write_;
  std::unordered_map<int, bool> want_write_;  // registered fd → interest
  obs::Counter& wakeups_;
  obs::Counter& events_;
};

}  // namespace net
