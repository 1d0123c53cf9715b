#include "net/reactor.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>

#include "util/check.h"
#include "util/logging.h"

namespace net {
namespace {

// One Wait() drains at most this many kernel events; anything beyond stays
// level-triggered-ready for the next tick.
constexpr int kMaxBatch = 256;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  AF_CHECK_GE(flags, 0) << "fcntl failed: " << util::ErrnoMessage(errno);
  AF_CHECK_GE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0)
      << "fcntl failed: " << util::ErrnoMessage(errno);
}

}  // namespace

Reactor::Reactor()
    : epoll_(::epoll_create1(0)),
      wakeups_(obs::DefaultRegistry().GetCounter("reactor.wakeups")),
      events_(obs::DefaultRegistry().GetCounter("reactor.events")) {
  AF_CHECK(epoll_.valid())
      << "epoll_create1 failed: " << util::ErrnoMessage(errno);
  int pipe_fds[2];
  AF_CHECK_EQ(::pipe(pipe_fds), 0)
      << "pipe failed: " << util::ErrnoMessage(errno);
  wake_read_.reset(pipe_fds[0]);
  wake_write_.reset(pipe_fds[1]);
  SetNonBlocking(wake_read_.get());
  SetNonBlocking(wake_write_.get());
  Ctl(EPOLL_CTL_ADD, wake_read_.get(), false);
}

void Reactor::Ctl(int op, int fd, bool want_write) {
  epoll_event ev{};
  ev.events = want_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = fd;
  AF_CHECK_EQ(::epoll_ctl(epoll_.get(), op, fd, &ev), 0)
      << "epoll_ctl failed: " << util::ErrnoMessage(errno);
}

void Reactor::Add(int fd) {
  AF_CHECK_GE(fd, 0);
  AF_CHECK(want_write_.emplace(fd, false).second)
      << "fd " << fd << " already registered";
  Ctl(EPOLL_CTL_ADD, fd, false);
}

void Reactor::SetWantWrite(int fd, bool want_write) {
  auto it = want_write_.find(fd);
  AF_CHECK(it != want_write_.end()) << "fd " << fd << " not registered";
  if (it->second == want_write) {
    return;
  }
  it->second = want_write;
  Ctl(EPOLL_CTL_MOD, fd, want_write);
}

void Reactor::Remove(int fd) {
  AF_CHECK_EQ(want_write_.erase(fd), 1u) << "fd " << fd << " not registered";
  Ctl(EPOLL_CTL_DEL, fd, false);
}

std::size_t Reactor::Wait(int timeout_ms, std::vector<ReactorEvent>* out) {
  AF_CHECK(out != nullptr);
  epoll_event ready[kMaxBatch];
  const int n = ::epoll_wait(epoll_.get(), ready, kMaxBatch, timeout_ms);
  if (n < 0) {
    AF_CHECK(errno == EINTR)
        << "epoll_wait failed: " << util::ErrnoMessage(errno);
    return 0;
  }
  std::size_t appended = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = ready[i].data.fd;
    if (fd == wake_read_.get()) {
      std::uint8_t buf[64];
      while (::read(fd, buf, sizeof(buf)) > 0) {
      }
      continue;
    }
    ReactorEvent event;
    event.fd = fd;
    event.readable = (ready[i].events & EPOLLIN) != 0;
    event.writable = (ready[i].events & EPOLLOUT) != 0;
    event.error = (ready[i].events & EPOLLERR) != 0;
    event.hangup = (ready[i].events & EPOLLHUP) != 0;
    out->push_back(event);
    ++appended;
  }
  if (appended > 0) {
    events_.Increment(static_cast<std::uint64_t>(appended));
  }
  return appended;
}

void Reactor::Wakeup() {
  wakeups_.Increment();
  const std::uint8_t byte = 1;
  // EAGAIN means a wakeup is already pending — coalescing is the point.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &byte, 1);
}

}  // namespace net
