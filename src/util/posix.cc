#include "util/posix.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <mutex>

namespace h2push::util::posix {

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa = {};
    sa.sa_handler = SIG_IGN;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGPIPE, &sa, nullptr);
  });
}

bool would_block(int errno_value) noexcept {
  return errno_value == EAGAIN || errno_value == EWOULDBLOCK;
}

ssize_t read_retry(int fd, void* buf, std::size_t count) noexcept {
  ssize_t n;
  do {
    n = ::read(fd, buf, count);
  } while (n < 0 && errno == EINTR);
  return n;
}

ssize_t write_retry(int fd, const void* buf, std::size_t count) noexcept {
  ssize_t n;
  do {
    n = ::write(fd, buf, count);
  } while (n < 0 && errno == EINTR);
  return n;
}

ssize_t send_retry(int fd, const void* buf, std::size_t count,
                   int flags) noexcept {
  ssize_t n;
  do {
    n = ::send(fd, buf, count, flags | MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  return n;
}

int accept_retry(int fd, sockaddr* addr, socklen_t* addrlen,
                 int flags) noexcept {
  int n;
  do {
    n = ::accept4(fd, addr, addrlen, flags);
  } while (n < 0 && errno == EINTR);
  return n;
}

int connect_retry(int fd, const sockaddr* addr, socklen_t addrlen) noexcept {
  int n;
  do {
    n = ::connect(fd, addr, addrlen);
  } while (n < 0 && errno == EINTR);
  return n;
}

int epoll_wait_retry(int epfd, struct epoll_event* events, int max_events,
                     int timeout_ms) noexcept {
  int n;
  do {
    n = ::epoll_wait(epfd, events, max_events, timeout_ms);
  } while (n < 0 && errno == EINTR);
  return n;
}

int poll_retry(struct pollfd* fds, unsigned long nfds,
               int timeout_ms) noexcept {
  int n;
  do {
    n = ::poll(fds, static_cast<nfds_t>(nfds), timeout_ms);
  } while (n < 0 && errno == EINTR);
  return n;
}

int close_retry(int fd) noexcept {
  const int n = ::close(fd);
  if (n < 0 && errno == EINTR) return 0;
  return n;
}

int set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 ? -1 : 0;
}

int set_cloexec(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags < 0) return -1;
  return ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) < 0 ? -1 : 0;
}

int set_tcp_nodelay(int fd) noexcept {
  const int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace h2push::util::posix
